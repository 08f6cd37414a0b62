import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nutf
from nutf.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, _options, build_parser, main
from nutf.core import ProblemDims
from nutf.serialize import save_model, write_pairs_jsonl

from conftest import random_model


def run(argv):
    return main(argv)


def file_bytes(directory, names):
    return {n: (directory / n).read_bytes() for n in names}


SYNTH_FILES = ["omega.jsonl", "truth.jsonl", "index_maps.json",
               "user_classes.json", "manifest.json"]


class TestSynth:
    def test_writes_fixture(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = run(["synth", "--users", "50", "--slots", "20", "--categories", "10",
                  "--classes", "5", "--density", "0.2", "--cands", "4",
                  "--seed", "7", "--out", str(out)])
        assert rc == EXIT_OK
        for name in SYNTH_FILES + ["timings.json"]:
            assert (out / name).exists()
        first = json.loads((out / "omega.jsonl").read_text().splitlines()[0])
        assert set(first) == {"u", "j", "cats"}
        assert len(first["cats"]) == 4
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"generate_s", "write_s"}
        assert timings["generate_s"] > 0.0 and timings["write_s"] > 0.0

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "s"
        args = ["synth", "--users", "40", "--slots", "10", "--categories", "8",
                "--classes", "4", "--seed", "3", "--out", str(out)]
        assert run(args) == EXIT_OK
        before = file_bytes(out, SYNTH_FILES)
        assert run(args) == EXIT_OK
        after = file_bytes(out, SYNTH_FILES)
        assert before == after

    def test_single_candidate_fixture_fits_perfectly(self, tmp_path):
        out = tmp_path / "s"
        fit_out = tmp_path / "f"
        assert run(["synth", "--users", "400", "--slots", "25", "--categories", "8",
                    "--classes", "4", "--density", "0.3", "--cands", "1",
                    "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert run(["fit", "--omega", str(out), "--rank", "4", "--iters", "10",
                    "--seed", "0", "--out", str(fit_out)]) == EXIT_OK
        # singleton blocks leave the solver no freedom: X is the forced
        # one-hot matrix
        from nutf.serialize import load_block_sparse

        x = load_block_sparse(fit_out / "x.nutf")
        assert np.array_equal(x.values, np.ones(x.support.total_size))
        eval_json = tmp_path / "report.json"
        assert run(["eval", "--model", str(fit_out / "model.nutf"),
                    "--validation", str(out / "truth.jsonl"), "--k", "1",
                    "--out", str(eval_json)]) == EXIT_OK
        report = json.loads(eval_json.read_text())
        assert report["accuracy_at_k"]["1"] == 1.0

    def test_invalid_config_rejected(self, tmp_path):
        rc = run(["synth", "--users", "5", "--classes", "10",
                  "--out", str(tmp_path / "s")])
        assert rc == EXIT_INPUT


class TestFit:
    def _fixture(self, tmp_path):
        out = tmp_path / "s"
        run(["synth", "--users", "40", "--slots", "10", "--categories", "8",
             "--classes", "4", "--seed", "5", "--out", str(out)])
        return out

    def test_missing_omega_file_is_input_error(self, tmp_path):
        rc = run(["fit", "--omega", str(tmp_path / "nope"), "--out",
                  str(tmp_path / "f")])
        assert rc == EXIT_INPUT

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--no-such-flag"])
        assert exc.value.code == 2

    def test_deterministic_traces_identical(self, tmp_path):
        src = self._fixture(tmp_path)
        a, b = tmp_path / "fa", tmp_path / "fb"
        args = ["fit", "--omega", str(src), "--rank", "4", "--iters", "8",
                "--seed", "2", "--deterministic"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "model.nutf").read_bytes() == (b / "model.nutf").read_bytes()
        assert (a / "x.nutf").read_bytes() == (b / "x.nutf").read_bytes()
        rec = json.loads((a / "trace.jsonl").read_text().splitlines()[0])
        assert set(rec) == {"iter", "objective", "seconds", "x_delta", "passes", "subspace_angle",
                            "q_ortho_error", "block_sum_error"}
        assert rec["seconds"] == 0.0

    def test_single_thread_deterministic_reruns_identical(self, tmp_path):
        src = self._fixture(tmp_path)
        outs = [tmp_path / "fa", tmp_path / "fb"]
        for out in outs:
            assert run(["fit", "--omega", str(src), "--rank", "4", "--iters", "6",
                        "--tol", "0", "--power-iters", "3", "--seed", "4",
                        "--deterministic", "--threads", "1", "--out", str(out)]) == EXIT_OK
        names = ["trace.jsonl", "model.nutf", "x.nutf"]
        assert file_bytes(outs[0], names) == file_bytes(outs[1], names)
        recs = [json.loads(l) for l in (outs[0] / "trace.jsonl").read_text().splitlines()]
        assert [r["iter"] for r in recs] == [1, 2, 3, 4, 5, 6]
        assert recs[0]["passes"] == 3
        assert all(1 <= r["passes"] <= 3 for r in recs[1:])

    def test_deterministic_files_independent_of_threads(self, tmp_path):
        """--threads 1 and --threads 2 write the same trace, model and X. Each
        fit runs in its own process, since --threads sets BLAS's thread count
        only before numpy loads. At N = 20k the fit's Grams and dots take
        their blocked path; a dot BLAS threads would add in another order."""
        src = str(Path(nutf.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def nutf_cli(*argv):
            code = "import sys; from nutf.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                           check=True, capture_output=True, timeout=300)

        synth = tmp_path / "s"
        nutf_cli("synth", "--users", 20_000, "--slots", 50, "--categories", 20,
                 "--seed", 3, "--out", synth)
        outs = [tmp_path / f"f{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            nutf_cli("fit", "--omega", synth, "--deterministic", "--iters", 4, "--tol", 0,
                     "--threads", threads, "--out", out)
        names = ["trace.jsonl", "model.nutf", "x.nutf"]
        assert file_bytes(outs[0], names) == file_bytes(outs[1], names)

    def test_trace_has_wallclock_without_deterministic(self, tmp_path):
        src = self._fixture(tmp_path)
        out = tmp_path / "f"
        assert run(["fit", "--omega", str(src), "--rank", "4", "--iters", "3",
                    "--seed", "2", "--out", str(out)]) == EXIT_OK
        recs = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
        assert len(recs) == 3
        assert all(r["seconds"] > 0.0 for r in recs)

    def test_timings_cover_solver_steps(self, tmp_path):
        src = self._fixture(tmp_path)
        out = tmp_path / "f"
        assert run(["fit", "--omega", str(src), "--rank", "4", "--iters", "3",
                    "--seed", "2", "--out", str(out)]) == EXIT_OK
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"read_s", "write_s", "init", "spmm", "qr", "support_pass",
                                "audit", "fit_total_s", "per_iteration_s"}
        steps = sum(v for k, v in timings.items()
                    if k not in ("read_s", "write_s", "fit_total_s", "per_iteration_s"))
        assert 0.0 < steps <= timings["fit_total_s"]
        assert timings["read_s"] > 0.0 and timings["write_s"] > 0.0

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch, capsys):
        import nutf.solver
        from nutf.linalg import NumericalError

        def diverge(*args, **kwargs):
            raise NumericalError("objective diverged at iteration 0")

        monkeypatch.setattr(nutf.solver, "fit", diverge)
        src = self._fixture(tmp_path)
        rc = run(["fit", "--omega", str(src), "--out", str(tmp_path / "f")])
        assert rc == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err

    def test_rank_too_large_is_input_error(self, tmp_path):
        src = self._fixture(tmp_path)
        rc = run(["fit", "--omega", str(src), "--rank", "1000",
                  "--out", str(tmp_path / "f")])
        assert rc == EXIT_INPUT

    def test_config_file_with_cli_override(self, tmp_path):
        src = self._fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank": 4, "iters": 3, "seed": 9}))
        out = tmp_path / "f"
        assert run(["fit", "--config", str(cfg), "--omega", str(src),
                    "--iters", "2", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["rank"] == 4      # from file
        assert manifest["config"]["iters"] == 2     # CLI wins
        assert manifest["config"]["seed"] == 9
        recs = (out / "trace.jsonl").read_text().splitlines()
        assert len(recs) == 2

    def test_config_file_unknown_key(self, tmp_path):
        src = self._fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        rc = run(["fit", "--config", str(cfg), "--omega", str(src),
                  "--out", str(tmp_path / "f")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("payload", ["7", "[1, 2]", "null", '"rank"'])
    def test_config_file_not_an_object(self, tmp_path, capsys, payload):
        src = self._fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(payload)
        capsys.readouterr()
        rc = run(["fit", "--config", str(cfg), "--omega", str(src),
                  "--out", str(tmp_path / "f")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: config file {cfg}: must hold a JSON object\n"

    @pytest.mark.parametrize("key", ["omega", "config", "help"])
    def test_config_file_required_and_meta_flags_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "x"}))
        capsys.readouterr()
        rc = run(["fit", "--config", str(cfg), "--omega", str(tmp_path / "s"),
                  "--out", str(tmp_path / "f")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: config file {cfg}: unknown keys ['{key}']\n"

    def test_config_file_integer_for_float_flag(self, tmp_path):
        src = self._fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 0, "rank": 3, "iters": 4, "deterministic": True}))
        out = tmp_path / "f"
        assert run(["fit", "--config", str(cfg), "--omega", str(src),
                    "--no-deterministic", "--out", str(out)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["tol"] == 0 and config["deterministic"] is False  # CLI wins
        assert len((out / "trace.jsonl").read_text().splitlines()) == 4  # tol 0 runs them all

    def test_negative_threads_is_input_error(self, tmp_path, capsys):
        rc = run(["fit", "--omega", str(tmp_path / "s"), "--threads", "-3",
                  "--out", str(tmp_path / "f")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: --threads -3: a thread cap cannot be negative\n")
        assert not (tmp_path / "f").exists()


class TestPredictAndEval:
    def test_predict_output(self, tmp_path, capsys):
        src = tmp_path / "s"
        run(["synth", "--users", "30", "--slots", "8", "--categories", "6",
             "--classes", "3", "--seed", "4", "--out", str(src)])
        fit_out = tmp_path / "f"
        run(["fit", "--omega", str(src), "--rank", "3", "--iters", "5",
             "--seed", "1", "--out", str(fit_out)])
        capsys.readouterr()
        rc = run(["predict", "--model", str(fit_out / "model.nutf"),
                  "--user", "2", "--slot", "3", "--k", "4"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["user"] == 2 and payload["slot"] == 3
        assert len(payload["topk"]) == 4

    def test_predict_restrict(self, tmp_path, capsys):
        src = tmp_path / "s"
        run(["synth", "--users", "30", "--slots", "8", "--categories", "6",
             "--classes", "3", "--seed", "4", "--out", str(src)])
        fit_out = tmp_path / "f"
        run(["fit", "--omega", str(src), "--rank", "3", "--iters", "5",
             "--seed", "1", "--out", str(fit_out)])
        capsys.readouterr()
        rc = run(["predict", "--model", str(fit_out / "model.nutf"),
                  "--user", "0", "--slot", "0", "--k", "1", "--restrict", "5"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["topk"] == [5]

    def test_predict_bad_restrict_names_flag(self, synth_and_model, capsys):
        _, model = synth_and_model
        capsys.readouterr()
        rc = run(["predict", "--model", str(model), "--user", "0", "--slot", "0",
                  "--restrict", "a"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: --restrict a: invalid literal for int() with base 10: 'a'\n")

    # a numpy warning on the way to the rejection fails the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "corrupt",
        ["huge_rank", "trailing_bytes", "flipped_orientation", "nan_q", "nan_c", "huge_q"])
    def test_eval_corrupt_model_is_input_error(self, tmp_path, capsys, corrupt):
        rng = np.random.default_rng(0)
        path = tmp_path / "model.nutf"
        save_model(path, random_model(rng, ProblemDims(5, 4, 3), 2))
        pairs = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(pairs, [(0, 1, 2)])
        argv = ["eval", "--model", str(path), "--validation", str(pairs), "--k", "1"]
        assert run(argv) == EXIT_OK
        raw = bytearray(path.read_bytes())
        if corrupt == "huge_rank":
            raw[31:39] = (2**40).to_bytes(8, "little")
        elif corrupt == "trailing_bytes":
            raw += bytes(16)
        elif corrupt == "flipped_orientation":
            raw[39] ^= 1
        else:
            # q's payload starts after the 40-byte header, c's after q's 12 x 2 floats
            offset = 232 if corrupt == "nan_c" else 40
            value = 1e300 if corrupt == "huge_q" else np.nan
            raw[offset:offset + 8] = np.float64(value).tobytes()
        path.write_bytes(raw)
        capsys.readouterr()
        assert run(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_non_integer_jsonl_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "s"
        assert run(["synth", "--users", "12", "--slots", "4", "--categories", "6",
             "--classes", "2", "--seed", "4", "--out", str(src)]) == EXIT_OK
        fit_out = tmp_path / "f"
        assert run(["fit", "--omega", str(src), "--rank", "2", "--iters", "2",
                    "--out", str(fit_out)]) == EXIT_OK
        bad_pairs = tmp_path / "pairs.jsonl"
        bad_pairs.write_text('{"u":0,"j":0,"cat":1.9}\n')
        bad_omega = tmp_path / "bad"
        shutil.copytree(src, bad_omega)
        (bad_omega / "omega.jsonl").write_text('{"u":0,"j":0,"cats":[1,2.7]}\n')
        capsys.readouterr()
        assert run(["eval", "--model", str(fit_out / "model.nutf"),
                    "--validation", str(bad_pairs)]) == EXIT_INPUT
        assert "pairs.jsonl line 1" in capsys.readouterr().err
        assert run(["fit", "--omega", str(bad_omega), "--rank", "2",
                    "--out", str(tmp_path / "f2")]) == EXIT_INPUT
        assert "omega.jsonl line 1" in capsys.readouterr().err

    def test_eval_int_outside_int64_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "s"
        assert run(["synth", "--users", "12", "--slots", "4", "--categories", "6",
                    "--classes", "2", "--seed", "4", "--out", str(src)]) == EXIT_OK
        fit_out = tmp_path / "f"
        assert run(["fit", "--omega", str(src), "--rank", "2", "--iters", "2",
                    "--out", str(fit_out)]) == EXIT_OK
        bad_pairs = tmp_path / "pairs.jsonl"
        bad_pairs.write_text('{"u":0,"j":0,"cat":100000000000000000000000}\n')
        capsys.readouterr()
        assert run(["eval", "--model", str(fit_out / "model.nutf"),
                    "--validation", str(bad_pairs)]) == EXIT_INPUT
        assert "pairs.jsonl line 1" in capsys.readouterr().err

    def test_eval_missing_model(self, tmp_path):
        rc = run(["eval", "--model", str(tmp_path / "nope.nutf"),
                  "--validation", str(tmp_path / "nope.jsonl")])
        assert rc == EXIT_INPUT


@pytest.fixture(scope="module")
def synth_and_model(tmp_path_factory):
    """A 20-user synth instance (C = 5) and a model fitted on it."""
    root = tmp_path_factory.mktemp("inputs")
    src, fit_out = root / "s", root / "f"
    assert run(["synth", "--users", "20", "--slots", "6", "--categories", "5",
                "--classes", "2", "--seed", "3", "--out", str(src)]) == EXIT_OK
    assert run(["fit", "--omega", str(src), "--rank", "2", "--iters", "2",
                "--out", str(fit_out)]) == EXIT_OK
    return src, fit_out / "model.nutf"


def _with_line(text, lineno, **fields):
    """text with the record on line lineno updated by fields."""
    lines = text.splitlines()
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields})
    return "\n".join(lines) + "\n"


def _first_pair(text):
    rec = json.loads(text.splitlines()[0])
    return f"({rec['u']}, {rec['j']})"


# file, edit of its text, and what stderr must name besides the path
@pytest.mark.parametrize("name, edit, names", [
    pytest.param("omega.jsonl", lambda t: _with_line(t, 3, cats=[]), lambda t: "line 3:",
                 id="empty-cats"),
    pytest.param("omega.jsonl", lambda t: _with_line(t, 3, cats=[1, 1]), lambda t: "line 3:",
                 id="repeated-category"),
    pytest.param("omega.jsonl", lambda t: _with_line(t, 3, cats=[0, 5]),
                 lambda t: "index_maps.json", id="category-beyond-index-maps"),
    pytest.param("omega.jsonl", lambda t: _with_line(t, 3, u=-1), lambda t: "line 3:",
                 id="negative-user"),
    pytest.param("omega.jsonl", lambda t: t + t.splitlines()[0] + "\n", _first_pair,
                 id="repeated-pair"),
    pytest.param("truth.jsonl", lambda t: _with_line(t, 3, u=20), lambda t: "user",
                 id="truth-user-out-of-range"),
    pytest.param("truth.jsonl", lambda t: _with_line(t, 3, cat=5), lambda t: "category",
                 id="truth-category-out-of-range"),
    pytest.param("truth.jsonl", lambda t: _with_line(t, 3, j=-1), lambda t: "line 3:",
                 id="truth-negative-slot"),
    pytest.param("truth.jsonl", lambda t: "", lambda t: "empty", id="truth-empty"),
    pytest.param("index_maps.json", lambda t: "5", lambda t: "must hold a JSON object",
                 id="maps-number"),
    pytest.param("index_maps.json", lambda t: "null", lambda t: "must hold a JSON object",
                 id="maps-null"),
    pytest.param("index_maps.json", lambda t: t[:-3], lambda t: "Expecting",
                 id="maps-invalid-json"),
    pytest.param("index_maps.json", lambda t: "", lambda t: "Expecting value",
                 id="maps-empty"),
    pytest.param("index_maps.json", lambda t: t.replace('"n_users": 20', '"n_users": "20"'),
                 lambda t: "n_users must be a positive JSON integer, got '20'",
                 id="maps-count-string"),
    pytest.param("index_maps.json", lambda t: t.replace('"n_slots": 6', '"n_slots": 0'),
                 lambda t: "n_slots must be a positive JSON integer, got 0",
                 id="maps-count-zero"),
    pytest.param("index_maps.json",
                 lambda t: t.replace('"n_categories": 5', '"n_categories": true'),
                 lambda t: "n_categories must be a positive JSON integer, got True",
                 id="maps-count-bool"),
])
def test_bad_input_names_file(synth_and_model, tmp_path, capsys, name, edit, names):
    src, model = synth_and_model
    bad = tmp_path / "in"
    shutil.copytree(src, bad)
    path = bad / name
    text = path.read_text()
    path.write_text(edit(text))
    if name in ("omega.jsonl", "index_maps.json"):
        argv = ["fit", "--omega", str(bad), "--rank", "2", "--out", str(tmp_path / "f")]
    else:
        argv = ["eval", "--model", str(model), "--validation", str(path)]
    capsys.readouterr()
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert names(text) in err, err


class TestPreprocess:
    def _write_inputs(self, tmp_path, venues_rows):
        updates = tmp_path / "updates.csv"
        updates.write_text(
            "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
            "alice,86400,40.7580,-73.9855,100,-300\n"
            "alice,90000,40.7580,-73.9855,100,-300\n"
            "alice,93600,40.7484,-73.9857,50,-300\n"
        )
        venues = tmp_path / "venues.csv"
        venues.write_text("venue_id,category,lat,lon,radius_m\n" + venues_rows)
        catmap = tmp_path / "catmap.csv"
        catmap.write_text(
            "raw_category,canonical_category\nPizza Place,Food\nBank,Bank\n"
        )
        return updates, venues, catmap

    def test_fixture_matches_hand_computation(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(
            tmp_path,
            "v1,Pizza Place,40.7580,-73.9850,30\nv2,Bank,40.7582,-73.9860,25\n",
        )
        out = tmp_path / "p"
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--epoch-day", "1970-01-01",
                  "--out", str(out)])
        assert rc == EXIT_OK
        omega_lines = (out / "omega.jsonl").read_text().splitlines()
        assert omega_lines == ['{"u":0,"j":7,"cats":[0,1]}']
        maps = json.loads((out / "index_maps.json").read_text())
        assert maps["user_ids"] == ["alice"]
        assert maps["category_names"] == ["Bank", "Food"]

    def test_empty_venues_warns_and_exits_zero(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(tmp_path, "")
        out = tmp_path / "p"
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--out", str(out)])
        assert rc == EXIT_OK
        assert "warning" in capsys.readouterr().err
        assert (out / "omega.jsonl").read_text() == ""
        # its sidecar holds n_users 0, which fit rejects, naming the file
        assert run(["fit", "--omega", str(out), "--out", str(tmp_path / "f")]) == EXIT_INPUT
        maps = out / "index_maps.json"
        assert capsys.readouterr().err == (
            f"error: {maps}: n_users must be a positive JSON integer, got 0\n")

    @pytest.mark.parametrize("venues_rows", ["", "v1,Pizza Place,40.7580,-73.9850,30\n"])
    def test_index_maps_bytes(self, tmp_path, capsys, venues_rows):
        updates, venues, catmap = self._write_inputs(tmp_path, venues_rows)
        out = tmp_path / "p"
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--epoch-day", "1970-01-01", "--out", str(out)])
        assert rc == EXIT_OK
        n_users, n_slots, user_ids = (1, 8, '[\n    "alice"\n  ]') if venues_rows else (0, 0, "[]")
        assert (out / "index_maps.json").read_text() == (
            f'{{\n  "n_users": {n_users},\n  "n_slots": {n_slots},\n  "n_categories": 2,\n'
            f'  "user_ids": {user_ids},\n  "category_names": [\n    "Bank",\n    "Food"\n  ]\n}}\n'
        )

    def test_malformed_row_names_line(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(
            tmp_path, "v1,Pizza Place,40.7580,not_a_float,30\n"
        )
        out = tmp_path / "p"
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_nan_timestamp_names_line(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(tmp_path, "v1,Bank,40.7582,-73.9860,25\n")
        updates.write_text(updates.read_text().replace("90000", "nan"))
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--out", str(tmp_path / "p")])
        assert rc == EXIT_INPUT
        assert f"{updates} line 3" in capsys.readouterr().err

    def test_infinite_venue_radius_flag_is_input_error(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(tmp_path, "v1,Bank,40.7582,-73.9860,25\n")
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--venue-radius-m", "inf",
                  "--out", str(tmp_path / "p")])
        assert rc == EXIT_INPUT
        assert "--venue-radius-m inf: must be a finite number" in capsys.readouterr().err

    def test_invalid_epoch_day_names_flag(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(tmp_path, "v1,Bank,40.7582,-73.9860,25\n")
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--epoch-day", "2024-02-30",
                  "--out", str(tmp_path / "p")])
        assert rc == EXIT_INPUT
        # the date parser's own wording differs between Python versions
        assert capsys.readouterr().err.startswith("error: --epoch-day 2024-02-30: ")

    @pytest.mark.parametrize("key", ["venue_radius_m", "other_category"])
    def test_config_null_where_default_is_none(self, tmp_path, key):
        updates, venues, catmap = self._write_inputs(tmp_path, "v1,Bank,40.7582,-73.9860,25\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "p"
        assert run(["preprocess", "--config", str(cfg), "--updates", str(updates),
                    "--venues", str(venues), "--catmap", str(catmap),
                    "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["config"][key] is None

    def test_timings_cover_reads(self, tmp_path):
        updates, venues, catmap = self._write_inputs(tmp_path, "v1,Bank,40.7582,-73.9860,25\n")
        out = tmp_path / "p"
        assert run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                    "--catmap", str(catmap), "--out", str(out)]) == EXIT_OK
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"read_s", "preprocess_s"}
        assert timings["read_s"] > 0.0


    def test_update_before_window_dropped_with_warning(self, tmp_path, capsys):
        updates, venues, catmap = self._write_inputs(
            tmp_path, "v1,Pizza Place,40.7580,-73.9850,30\nv2,Bank,40.7582,-73.9860,25\n",
        )
        # 00:30 local on the epoch day belongs to the previous day's last daypart
        updates.write_text(updates.read_text().replace(
            "alice,86400,40.7580,-73.9855,100,-300", "alice,1800,40.7580,-73.9855,100,0"))
        out = tmp_path / "p"
        rc = run(["preprocess", "--updates", str(updates), "--venues", str(venues),
                  "--catmap", str(catmap), "--epoch-day", "1970-01-01",
                  "--out", str(out)])
        assert rc == EXIT_OK
        assert ("warning: dropped 1 update(s) before the window start 1970-01-01"
                in capsys.readouterr().err)
        assert (out / "omega.jsonl").read_text().splitlines() == ['{"u":0,"j":7,"cats":[0,1]}']


# each command's argv with only its required flags, and the config it resolves to
REQUIRED_FLAGS_ONLY = {
    "synth": ([], {"users": 1000, "slots": 50, "categories": 20, "classes": 10,
                   "density": 0.2, "cands": 4, "seed": 0, "out": "synth_out"}),
    "preprocess": (["--updates", "updates.csv", "--venues", "venues.csv",
                    "--catmap", "catmap.csv"],
                   {"slot_mode": "daypart", "epoch_day": "1970-01-01", "min_dwell_min": 20.0,
                    "venue_radius_m": None, "other_category": None, "out": "preprocess_out"}),
    "fit": (["--omega", "synth_out"],
            {"rank": 20, "iters": 100, "power_iters": 8, "tol": 1e-6, "seed": 0,
             "deterministic": False, "threads": 0, "out": "fit_out"}),
    "predict": (["--model", "fit_out/model.nutf", "--user", "0", "--slot", "0"],
                {"k": 5, "restrict": None}),
    "eval": (["--model", "fit_out/model.nutf", "--validation", "synth_out/truth.jsonl"],
             {"k": 5, "out": None}),
}


def test_required_flags_only_config(tmp_path, monkeypatch):
    """Each command run with only its required flags resolves its declared
    defaults, and synth, preprocess and fit record them in manifest.json; a
    moved default, or an int default that became a float, fails here."""
    monkeypatch.chdir(tmp_path)
    TestPreprocess()._write_inputs(tmp_path, "v1,Bank,40.7582,-73.9860,25\n")
    for command, (flags, expected) in REQUIRED_FLAGS_ONLY.items():
        argv = [command, *flags]
        assert run(argv) == EXIT_OK
        args = build_parser().parse_args(argv)
        config = {dest: getattr(args, dest) for dest in _options(args.subparser)}
        if command in ("synth", "preprocess", "fit"):
            config = json.loads(Path(args.out, "manifest.json").read_text())["config"]
        assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("argv, payload", [
    (["fit", "--omega", "s"], {"rank": 2.7}),
    (["fit", "--omega", "s"], {"rank": None}),
    (["fit", "--omega", "s"], {"rank": "abc"}),
    (["fit", "--omega", "s"], {"deterministic": 1}),
    (["fit", "--omega", "s"], {"tol": True}),
    (["fit", "--omega", "s"], {"threads": -1}),
    (["preprocess", "--updates", "u", "--venues", "v", "--catmap", "c"],
     {"slot_mode": "weekly"}),
    (["synth"], {"out": None}),
    (["fit", "--omega", "s"], {"tol": float("nan")}),
    (["preprocess", "--updates", "u", "--venues", "v", "--catmap", "c"],
     {"min_dwell_min": float("inf")}),
    (["preprocess", "--updates", "u", "--venues", "v", "--catmap", "c"],
     {"venue_radius_m": float("nan")}),
    (["synth"], {"density": float("-inf")}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v[0])
def test_config_value_must_fit_its_flag(tmp_path, capsys, argv, payload):
    """A config value is checked against its flag's type, choices and default
    before anything runs, and the error names the file and the key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_INPUT
    [(key, value)] = payload.items()
    assert capsys.readouterr().err == (
        f"error: config file {cfg}: {key} cannot be {json.dumps(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["fit", "--omega", "s"], "--tol"),
    (["preprocess", "--updates", "u", "--venues", "v", "--catmap", "c"], "--min-dwell-min"),
    (["preprocess", "--updates", "u", "--venues", "v", "--catmap", "c"], "--venue-radius-m"),
    (["synth"], "--density"),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_input_error(tmp_path, capsys, argv, flag, value):
    """A float flag given as nan or inf exits 3 and names the flag before
    anything runs: a NaN dwell drops every update, a NaN tol never stops the
    fit early, and the manifest would record a NaN, which is not JSON."""
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, f"{flag}={value}", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {flag} {float(value)}: must be a finite number\n"
    assert not out.exists()


def test_readme_commands_parse():
    """Every `nutf ...` command in the README's code blocks is accepted by the CLI."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = "".join(re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S))
    lines = code.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.split()[:1] == ["nutf"]]
    assert {argv[0] for argv in commands} >= {"synth", "preprocess", "fit", "predict", "eval"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command rejected: nutf {shlex.join(argv)}")
