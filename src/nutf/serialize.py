"""On-disk formats: binary snapshots and JSON-lines data files.

Binary snapshots share one little-endian header (magic "NUTF", format
version, record kind, dims, rank, orientation flag derived from the dims)
followed by int64 / float64 array payloads. The JSON-lines formats carry
candidate sets, ground-truth / validation pairs, and solver traces. See docs/formats.md
for the byte-level layout. The line reader and record loop here serve the
JSON-lines inputs and ingest's CSV inputs alike.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .core import (BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims, check_range,
                   index_array)

MAGIC = b"NUTF"
FORMAT_VERSION = 1
KIND_BLOCK_SPARSE = 1
KIND_MODEL = 2

# magic, version u16, kind u8, N u64, T u64, C u64, rank u64, orientation flag u8
_HEADER = struct.Struct("<4sHBQQQQB")


def _write_array(fh, arr: np.ndarray, dtype: str) -> None:
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_array(fh, count: int, dtype: str) -> np.ndarray:
    out = np.empty(count, dtype=dtype)
    if fh.readinto(out) != out.nbytes:
        raise ValueError("snapshot truncated")
    return out


def _check_payload(fh, nbytes: int) -> None:
    """Reject a snapshot whose bytes after the current position are not exactly nbytes."""
    pos = fh.tell()
    left = fh.seek(0, os.SEEK_END) - pos
    fh.seek(pos)
    if left < nbytes:
        raise ValueError("snapshot truncated")
    if left > nbytes:
        raise ValueError(f"snapshot has {left - nbytes} trailing bytes")


def _write_header(fh, kind: int, dims: ProblemDims, rank: int) -> None:
    fh.write(
        _HEADER.pack(
            MAGIC, FORMAT_VERSION, kind,
            dims.n_users, dims.n_slots, dims.n_categories,
            rank, int(kind == KIND_MODEL and dims.transposed),
        )
    )


def _read_header(fh, expect_kind: int) -> tuple[ProblemDims, int]:
    buf = fh.read(_HEADER.size)
    if len(buf) != _HEADER.size:
        raise ValueError("snapshot truncated")
    magic, version, kind, n, t, c, rank, flag = _HEADER.unpack(buf)
    if magic != MAGIC:
        raise ValueError("not a NUTF snapshot (bad magic bytes)")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if kind != expect_kind:
        raise ValueError(f"snapshot holds record kind {kind}, expected {expect_kind}")
    dims = ProblemDims(n, t, c)
    if kind == KIND_BLOCK_SPARSE and (rank or flag):
        raise ValueError(f"block-sparse header holds rank {rank} and flag {flag}; both must be 0")
    if kind == KIND_MODEL and flag != dims.transposed:
        raise ValueError(f"header orientation flag {flag} disagrees with N={n}, T*C={t * c}")
    if kind == KIND_MODEL and not 1 <= rank <= min(n, t * c):
        raise ValueError(f"snapshot rank {rank} outside [1, min(N, T*C) = {min(n, t * c)}]")
    return dims, rank


@contextlib.contextmanager
def _binary_source(source) -> Iterator[BinaryIO]:
    """``source`` itself when it is a binary file object, else the file it names, opened."""
    if hasattr(source, "read"):
        yield source
    else:
        with open(source, "rb") as fh:
            yield fh


def save_block_sparse(path, x: BlockSparseMatrix) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, KIND_BLOCK_SPARSE, x.dims, 0)
        s = x.support
        fh.write(struct.pack("<QQ", s.n_blocks, s.total_size))
        _write_array(fh, s.block_users, "<i8")
        _write_array(fh, s.block_slots, "<i8")
        _write_array(fh, s.block_ptr, "<i8")
        _write_array(fh, s.cats, "<i8")
        _write_array(fh, x.values, "<f8")


def load_block_sparse(source) -> BlockSparseMatrix:
    """The snapshot in ``source``, a path or a seekable binary file object."""
    with _binary_source(source) as fh:
        dims, _ = _read_header(fh, KIND_BLOCK_SPARSE)
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
        _write_header(fh, KIND_MODEL, model.dims, model.rank)
        _write_array(fh, model.q, "<f8")
        _write_array(fh, model.c, "<f8")


def load_model(source) -> LowRankModel:
    """The snapshot in ``source``, a path or a seekable binary file object."""
    with _binary_source(source) as fh:
        dims, rank = _read_header(fh, KIND_MODEL)
        short_side, long_side = sorted((dims.n_users, dims.n_cols))
        _check_payload(fh, 8 * rank * (dims.n_users + dims.n_cols))
        q = _read_array(fh, long_side * rank, "<f8").reshape(long_side, rank)
        c = _read_array(fh, rank * short_side, "<f8").reshape(rank, short_side)
    model = LowRankModel(dims, q=q, c=c)
    model.validate()
    return model


# -- text inputs ----------------------------------------------------------


class InputDataError(ValueError):
    """Malformed input file; the message names the file and line."""


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file, its ending kept.

    Lines end at \\n, \\r\\n or \\r, as in text mode, but each line is
    decoded on its own, so a byte that is not UTF-8 names its line.
    """
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))
        for lineno, line in enumerate(lines, start=1):
            try:
                yield lineno, line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputDataError(f"{path} line {lineno}: {exc}") from None


def iter_records(path, records, parse) -> Iterator[tuple[int, object]]:
    """(line number, parse(record)) for each (line number, record) pair; a fault
    names the file and line.

    A KeyError is a record that lacks that key; an OverflowError, such as a
    huge integer turned into a float, is a bad value like any other.
    """
    for lineno, record in records:
        try:
            value = parse(record)
        except KeyError as exc:
            raise InputDataError(f"{path} line {lineno}: missing key {exc}") from None
        except (OverflowError, TypeError, ValueError) as exc:
            raise InputDataError(f"{path} line {lineno}: {exc}") from None
        yield lineno, value


# -- JSON-lines formats ---------------------------------------------------


def _is_index(value) -> bool:
    """A non-negative JSON integer in int64 range: a float, bool or string is not."""
    return type(value) is int and 0 <= value < 2 ** 63


def _json_index(rec: dict, key: str) -> int:
    """rec[key], which must be a non-negative JSON integer in int64 range."""
    value = rec[key]
    if not _is_index(value):
        raise ValueError(f"{key} must be a JSON integer, non-negative and in int64 range, "
                         f"got {value!r}")
    return value


def _read_jsonl(path, parse) -> list:
    """parse(record) for each non-blank line, whose JSON value must be an
    object; a fault names the file and line."""
    def parse_line(line: str):
        record = json.loads(line.strip())
        if type(record) is not dict:
            raise ValueError("expected a JSON object")
        return parse(record)

    lines = ((lineno, line) for lineno, line in text_lines(path) if line.strip())
    return [value for _, value in iter_records(path, lines, parse_line)]


def write_candidate_sets_jsonl(path, omega: CandidateSets) -> None:
    """One line per block: {"u": user, "j": slot, "cats": [...]}.

    Each line is what ``json.dumps`` writes for the record with separators
    (",", ":").
    """
    ptr, cats = omega.block_ptr.tolist(), omega.cats.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"u":{u},"j":{j},"cats":[{",".join(map(str, cats[lo:hi]))}]}}\n'
                      for u, j, lo, hi in zip(omega.block_users.tolist(),
                                              omega.block_slots.tolist(), ptr, ptr[1:]))


def _candidate_block(rec: dict) -> tuple[int, int, list]:
    cats = rec["cats"]
    if type(cats) is not list or not cats or not all(_is_index(k) for k in cats):
        raise ValueError("cats must be a non-empty list of non-negative JSON integers "
                         f"in int64 range, got {cats!r}")
    if len(set(cats)) < len(cats):
        raise ValueError(f"cats repeats a category: {cats!r}")
    return _json_index(rec, "u"), _json_index(rec, "j"), cats


def read_candidate_sets_jsonl(path) -> CandidateSets:
    blocks = _read_jsonl(path, _candidate_block)
    try:
        return CandidateSets.from_blocks(blocks)
    except ValueError as exc:  # the records are valid one by one; a (u, j) repeats
        raise ValueError(f"{path}: {exc}") from None


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
    """The sidecar's JSON object, whose three counts must be positive JSON integers."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or UTF-8; a fault names the file
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: must hold a JSON object")
    for key in ("n_users", "n_slots", "n_categories"):
        if key not in payload:
            raise ValueError(f"{path}: missing {key}")
        if not _is_index(payload[key]) or payload[key] == 0:
            raise ValueError(f"{path}: {key} must be a positive JSON integer, "
                             f"got {payload[key]!r}")
    return payload


def write_pairs_jsonl(path, pairs) -> None:
    """(user, slot, category) triples: {"u": ..., "j": ..., "cat": ...}.

    ``pairs`` is an :func:`nutf.core.index_array` of triples, read in place
    when an integer array, with every index in [0, 2**63), as
    :func:`read_pairs_jsonl` reads it; else ValueError, and nothing is
    written. Each line is what ``json.dumps`` writes for the record with
    separators (",", ":").
    """
    rows = index_array(pairs, "pairs", pairs=True)
    check_range("pairs index", rows, 2 ** 63)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"u":{u},"j":{j},"cat":{cat}}}\n' for u, j, cat in rows.tolist())


def read_pairs_jsonl(path) -> np.ndarray:
    """The triples as one (n, 3) int64 array, (0, 3) for no records; each
    value is checked to be a JSON integer in [0, 2**63), so none changes."""
    pairs = _read_jsonl(path, lambda rec: (
        _json_index(rec, "u"), _json_index(rec, "j"), _json_index(rec, "cat")))
    return np.array(pairs, dtype=np.int64).reshape(-1, 3)


def write_trace_jsonl(path, trace, zero_seconds: bool = False) -> None:
    """One line per trace record but its kernels; seconds 0.0 under zero_seconds."""
    lines = []
    for record in trace.records:
        line = dict(record, seconds=0.0) if zero_seconds else dict(record)
        del line["kernels"]
        lines.append(json.dumps(line) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
