"""Negative-unlabeled tensor factorization (NUTF).

Infers per-(user, time slot) location-category probabilities from noisy
candidate sets by alternating between a rank-constrained completion and
an exact projection onto the negative-unlabeled constraint set.

Submodules are imported explicitly (``import nutf.solver``); the package
root stays import-light, so ``nutf --help`` and usage errors load no
numerical library.
"""

__version__ = "0.1.0"

__all__ = [
    "core",
    "simplex",
    "linalg",
    "solver",
    "ingest",
    "harness",
    "serialize",
    "parallel",
    "cli",
]
