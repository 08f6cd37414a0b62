"""Seeded mutants of every text input, run through ``nutf.cli.main``.

Each mutant is one edit of one input file: a flipped bit, a truncation, a
duplicated or deleted span of up to 16 bytes, a digit swapped for another,
or a number swapped for an edge value. Whatever the edit, the command
ends in exit 0, 3 or 4 and no exception escapes. An exit 3 prints one
line that names the file, and for a line-based file (JSONL, CSV) also the
line, unless the fault lies in no single line: an index or a category
that another file does not map, a (user, slot) pair given twice, or an
empty validation file.

Memory: an edit makes a count or an index grow by at most a few digits,
or sets it to 2**50. A count of 2**50 asks fit for petabytes, which no
address space holds, so the allocation fails at once.
"""

import random
import re
import shutil

import numpy as np
import pytest

from nutf.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main

MUTANTS = 100  # random edits per file, besides the edge-value swaps
EDGE_NUMBERS = (b"0", b"-1", b"2.5", b"1e400", str(2 ** 50).encode())
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# exit-3 messages of faults that lie in no single line of the named file
NO_LINE = re.compile(r"exceeds n_|out of range|unmapped category|is given twice|is empty|"
                     r"ran out of memory")


def mutants(data: bytes, seed: str) -> list[tuple[str, bytes]]:
    """(label, mutant) pairs: MUTANTS seeded random edits of data, then each
    edge value in place of up to 8 of its numbers."""
    rng = random.Random(seed)
    out = []
    for n in range(MUTANTS):
        i = rng.randrange(len(data))
        j = min(len(data), i + rng.randint(1, 16))
        kind = n % 5
        if kind == 0:
            out.append((f"flip@{i}", data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)])
                        + data[i + 1:]))
        elif kind == 1:
            out.append((f"cut@{i}", data[:i]))
        elif kind == 2:
            out.append((f"dup@{i}:{j}", data[:j] + data[i:]))
        elif kind == 3:
            out.append((f"del@{i}:{j}", data[:i] + data[j:]))
        else:
            k = rng.choice([m.start() for m in re.finditer(rb"\d", data)])
            out.append((f"digit@{k}", data[:k] + bytes([rng.choice(b"0123456789")])
                        + data[k + 1:]))
    numbers = list(NUMBER.finditer(data))
    for m in rng.sample(numbers, min(8, len(numbers))):
        for edge in EDGE_NUMBERS:
            out.append((f"number@{m.start()}={edge.decode()}",
                        data[:m.start()] + edge + data[m.end():]))
    return out


def check_run(argv, path, capsys, label):
    """Run argv, whose input file path holds a mutant; return the exit code."""
    capsys.readouterr()
    try:
        rc = main([str(a) for a in argv])
    except Exception as exc:  # MemoryError included
        pytest.fail(f"{label}: {exc!r} escaped cli.main")
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC), (label, rc, err)
    if rc == EXIT_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1, (label, err)
        if "ran out of memory" not in err:
            assert str(path) in err, (label, err)
        if path.suffix in (".jsonl", ".csv") and not NO_LINE.search(err):
            assert f"{path} line " in err, (label, err)
    return rc


@pytest.fixture(scope="module")
def synth40(tmp_path_factory):
    """A 40-user synth instance and a model fitted on it."""
    root = tmp_path_factory.mktemp("synth40")
    assert main(["synth", "--users", "40", "--slots", "10", "--categories", "8",
                 "--classes", "4", "--seed", "1", "--out", str(root / "s")]) == EXIT_OK
    assert main(["fit", "--omega", str(root / "s"), "--rank", "2", "--iters", "2",
                 "--out", str(root / "f")]) == EXIT_OK
    return root / "s", root / "f" / "model.nutf"


@pytest.mark.parametrize("name", ["omega.jsonl", "index_maps.json", "truth.jsonl"])
def test_synth_input_mutants(synth40, tmp_path, capsys, name):
    src, model = synth40
    data = (src / name).read_bytes()
    codes = []
    for label, mutant in mutants(data, seed=name):
        bad = tmp_path / "in"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(src, bad)
        path = bad / name
        path.write_bytes(mutant)
        if name == "truth.jsonl":
            argv = ["eval", "--model", model, "--validation", path, "--k", "2"]
        else:
            argv = ["fit", "--omega", bad, "--rank", "2", "--iters", "2",
                    "--out", tmp_path / "f"]
        codes.append(check_run(argv, path, capsys, f"{name} {label}"))
    # the edits reach both outcomes, so the checks above ran on each
    assert EXIT_OK in codes and EXIT_INPUT in codes


def write_small_city(root):
    """Three CSV inputs: 6 users with 8 updates each, 30 venues, 6 raw categories."""
    rng = np.random.default_rng(11)
    root.mkdir()
    venues = [(f"v{i:02d}", f"raw{i % 6}", 40.0 + 0.01 * rng.random(),
               -74.0 + 0.01 * rng.random()) for i in range(30)]
    (root / "venues.csv").write_text("venue_id,category,lat,lon,radius_m\n" + "".join(
        f"{v},{c},{lat:.5f},{lon:.5f},30\n" for v, c, lat, lon in venues))
    (root / "categories.csv").write_text("raw_category,canonical_category\n" + "".join(
        f"raw{k},cat{k % 3}\n" for k in range(6)))
    rows = []
    for u in range(6):
        for k in range(8):
            _, _, lat, lon = venues[rng.integers(30)]
            rows.append(f"user{u},{1709514000 + 5400 * k + 60 * u},{lat:.5f},{lon:.5f},100,60\n")
    (root / "updates.csv").write_text(
        "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n" + "".join(rows))


@pytest.mark.parametrize("name", ["updates.csv", "venues.csv", "categories.csv"])
def test_city_input_mutants(tmp_path, capsys, name):
    src = tmp_path / "city"
    write_small_city(src)
    data = (src / name).read_bytes()
    codes = []
    for label, mutant in mutants(data, seed=name):
        path = src / name
        path.write_bytes(mutant)
        argv = ["preprocess", "--updates", src / "updates.csv", "--venues", src / "venues.csv",
                "--catmap", src / "categories.csv", "--epoch-day", "2024-03-04",
                "--out", tmp_path / "p"]
        codes.append(check_run(argv, path, capsys, f"{name} {label}"))
    path.write_bytes(data)
    assert EXIT_OK in codes and EXIT_INPUT in codes
