"""On-disk formats: binary snapshots and JSON-lines data files.

Binary snapshots share one little-endian header (magic "NUTF", format
version, record kind, dims, rank, transposed flag) followed by int64 /
float64 array payloads. The JSON-lines formats carry candidate sets,
ground-truth / validation pairs, and solver traces. See docs/formats.md
for the byte-level layout.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .core import BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims

MAGIC = b"NUTF"
FORMAT_VERSION = 1
KIND_BLOCK_SPARSE = 1
KIND_MODEL = 2

# magic, version u16, kind u8, N u64, T u64, C u64, rank u64, transposed u8
_HEADER = struct.Struct("<4sHBQQQQB")


def _write_array(fh, arr: np.ndarray, dtype: str) -> None:
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_array(fh, count: int, dtype: str) -> np.ndarray:
    itemsize = np.dtype(dtype).itemsize
    buf = fh.read(count * itemsize)
    if len(buf) != count * itemsize:
        raise ValueError("snapshot truncated")
    return np.frombuffer(buf, dtype=dtype).copy()


def _check_payload(fh, nbytes: int) -> None:
    """Reject a snapshot whose bytes after the current position are not exactly nbytes."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise ValueError("snapshot truncated")
    if left > nbytes:
        raise ValueError(f"snapshot has {left - nbytes} trailing bytes")


def _write_header(fh, kind: int, dims: ProblemDims, rank: int, transposed: bool) -> None:
    fh.write(
        _HEADER.pack(
            MAGIC, FORMAT_VERSION, kind,
            dims.n_users, dims.n_slots, dims.n_categories,
            rank, int(transposed),
        )
    )


def _read_header(fh, expect_kind: int) -> tuple[ProblemDims, int, bool]:
    buf = fh.read(_HEADER.size)
    if len(buf) != _HEADER.size:
        raise ValueError("snapshot truncated")
    magic, version, kind, n, t, c, rank, transposed = _HEADER.unpack(buf)
    if magic != MAGIC:
        raise ValueError("not a NUTF snapshot (bad magic bytes)")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if kind != expect_kind:
        raise ValueError(f"snapshot holds record kind {kind}, expected {expect_kind}")
    return ProblemDims(n, t, c), rank, bool(transposed)


def save_block_sparse(path, x: BlockSparseMatrix) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, KIND_BLOCK_SPARSE, x.dims, 0, False)
        s = x.support
        fh.write(struct.pack("<QQ", s.n_blocks, s.total_size))
        _write_array(fh, s.block_users, "<i8")
        _write_array(fh, s.block_slots, "<i8")
        _write_array(fh, s.block_ptr, "<i8")
        _write_array(fh, s.cats, "<i8")
        _write_array(fh, x.values, "<f8")


def load_block_sparse(path) -> BlockSparseMatrix:
    with open(path, "rb") as fh:
        dims, _, _ = _read_header(fh, KIND_BLOCK_SPARSE)
        n_blocks, total = (int(v) for v in _read_array(fh, 2, "<u8"))
        _check_payload(fh, 8 * (3 * n_blocks + 1 + 2 * total))
        users = _read_array(fh, n_blocks, "<i8")
        slots = _read_array(fh, n_blocks, "<i8")
        ptr = _read_array(fh, n_blocks + 1, "<i8")
        cats = _read_array(fh, total, "<i8")
        values = _read_array(fh, total, "<f8")
    if not np.isfinite(values).all():
        raise ValueError("snapshot holds non-finite values")
    return BlockSparseMatrix(dims, CandidateSets(users, slots, ptr, cats), values)


def save_model(path, model: LowRankModel) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, KIND_MODEL, model.dims, model.rank, model.transposed)
        _write_array(fh, model.q, "<f8")
        _write_array(fh, model.c, "<f8")


def load_model(path) -> LowRankModel:
    with open(path, "rb") as fh:
        dims, rank, transposed = _read_header(fh, KIND_MODEL)
        if rank > min(dims.n_users, dims.n_cols):
            raise ValueError(f"snapshot rank {rank} exceeds min(N, T*C)")
        _check_payload(fh, 8 * rank * (dims.n_users + dims.n_cols))
        n_rows = dims.n_cols if transposed else dims.n_users
        n_cols = dims.n_users if transposed else dims.n_cols
        q = _read_array(fh, n_rows * rank, "<f8").reshape(n_rows, rank)
        c = _read_array(fh, rank * n_cols, "<f8").reshape(rank, n_cols)
    model = LowRankModel(dims, q=q, c=c, transposed=transposed)
    # the payload size is the same in both orientations; a wrong flag shows here
    model.validate()
    return model


# -- JSON-lines formats ---------------------------------------------------


def write_candidate_sets_jsonl(path, omega: CandidateSets) -> None:
    """One line per block: {"u": user, "j": slot, "cats": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for (u, j), cats in omega.items():
            fh.write(json.dumps({"u": u, "j": j, "cats": cats.tolist()},
                                separators=(",", ":")) + "\n")


def read_candidate_sets_jsonl(path) -> CandidateSets:
    blocks = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                blocks.append((int(rec["u"]), int(rec["j"]), [int(k) for k in rec["cats"]]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    return CandidateSets.from_blocks(blocks)


def write_index_maps(path, n_users: int, n_slots: int, n_categories: int,
                     user_ids=None, category_names=None) -> None:
    payload = {
        "n_users": int(n_users),
        "n_slots": int(n_slots),
        "n_categories": int(n_categories),
        "user_ids": list(user_ids) if user_ids is not None else None,
        "category_names": list(category_names) if category_names is not None else None,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_index_maps(path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("n_users", "n_slots", "n_categories"):
        if key not in payload:
            raise ValueError(f"{path}: missing {key}")
    return payload


def write_pairs_jsonl(path, pairs) -> None:
    """(user, slot, category) triples: {"u": ..., "j": ..., "cat": ...}."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, j, cat in pairs:
            fh.write(json.dumps({"u": int(u), "j": int(j), "cat": int(cat)},
                                separators=(",", ":")) + "\n")


def read_pairs_jsonl(path) -> list[tuple[int, int, int]]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                pairs.append((int(rec["u"]), int(rec["j"]), int(rec["cat"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    return pairs


def write_trace_jsonl(path, trace, zero_seconds: bool = False) -> None:
    Path(path).write_text(trace.to_jsonl(zero_seconds=zero_seconds), encoding="utf-8")
