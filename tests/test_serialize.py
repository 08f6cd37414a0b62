import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nutf.core import BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims
from nutf.serialize import (
    load_block_sparse,
    load_model,
    read_candidate_sets_jsonl,
    read_index_maps,
    read_pairs_jsonl,
    save_block_sparse,
    save_model,
    write_candidate_sets_jsonl,
    write_index_maps,
    write_pairs_jsonl,
)

from conftest import block_dict, random_model, random_omega


class TestBinarySnapshots:
    def test_block_sparse_round_trip(self, tmp_path, small_omega, small_dims):
        rng = np.random.default_rng(0)
        x = BlockSparseMatrix(small_dims, small_omega, rng.random(small_omega.total_size))
        path = tmp_path / "x.nutf"
        save_block_sparse(path, x)
        back = load_block_sparse(path)
        assert back.dims == x.dims
        assert np.array_equal(back.support.cats, x.support.cats)
        assert np.array_equal(back.support.block_users, x.support.block_users)
        assert np.array_equal(back.values, x.values)

    def test_model_round_trip(self, tmp_path):
        dims = ProblemDims(14, 4, 3)  # N=14 > TC=12
        model = random_model(np.random.default_rng(1), dims, 2)
        path = tmp_path / "m.nutf"
        save_model(path, model)
        assert path.read_bytes()[39] == 0
        back = load_model(path)
        assert back.dims == model.dims
        assert back.q.shape == (14, 2)
        assert np.array_equal(back.q, model.q)
        assert np.array_equal(back.c, model.c)

    def test_transposed_model_round_trip(self, tmp_path):
        dims = ProblemDims(3, 2, 4)  # N=3 < TC=8
        model = random_model(np.random.default_rng(2), dims, 2)
        path = tmp_path / "m.nutf"
        save_model(path, model)
        assert path.read_bytes()[39] == 1
        back = load_model(path)
        assert back.q.shape == (8, 2)
        assert np.array_equal(back.q, model.q)
        assert np.array_equal(back.c, model.c)

    def test_magic_bytes(self, tmp_path, small_dims):
        path = tmp_path / "m.nutf"
        save_model(path, random_model(np.random.default_rng(0), small_dims, 1))
        raw = path.read_bytes()
        assert raw[:4] == b"NUTF"
        back = load_model(path)
        assert back.rank == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nutf"
        path.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_kind_mismatch_rejected(self, tmp_path, small_dims, small_omega):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        path = tmp_path / "x.nutf"
        save_block_sparse(path, x)
        with pytest.raises(ValueError, match="kind"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path, small_dims, small_omega):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        path = tmp_path / "x.nutf"
        save_block_sparse(path, x)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_block_sparse(path)


    def _saved_model(self, tmp_path, dims):
        path = tmp_path / "m.nutf"
        save_model(path, random_model(np.random.default_rng(4), dims, 2))
        return path, bytearray(path.read_bytes())

    def test_model_huge_rank_rejected(self, tmp_path, small_dims):
        path, raw = self._saved_model(tmp_path, small_dims)
        raw[31:39] = (2**40).to_bytes(8, "little")
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="rank"):
            load_model(path)

    def test_model_trailing_bytes_rejected(self, tmp_path, small_dims):
        path, raw = self._saved_model(tmp_path, small_dims)
        path.write_bytes(raw + bytes(16))
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_model_zero_rank_rejected(self, tmp_path, small_dims):
        path, raw = self._saved_model(tmp_path, small_dims)
        raw[31:39] = bytes(8)
        path.write_bytes(raw[:40])  # a rank-0 model has no payload
        with pytest.raises(ValueError, match="rank 0 outside"):
            load_model(path)

    def test_model_flipped_orientation_rejected(self, tmp_path, small_dims):
        path, raw = self._saved_model(tmp_path, small_dims)
        raw[39] ^= 1
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="orientation flag 0 disagrees"):
            load_model(path)

    def test_square_model_flipped_orientation_rejected(self, tmp_path):
        # N = T*C: both orientations have the same shapes, so only the
        # header check tells them apart
        path, raw = self._saved_model(tmp_path, ProblemDims(6, 2, 3))
        assert raw[39] == 0
        raw[39] = 1
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="orientation flag 1 disagrees"):
            load_model(path)

    @pytest.mark.parametrize("field", ["rank", "flag"])
    def test_block_sparse_rank_or_flag_rejected(self, tmp_path, small_dims, small_omega, field):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        path = tmp_path / "x.nutf"
        save_block_sparse(path, x)
        raw = bytearray(path.read_bytes())
        if field == "rank":
            raw[31:39] = (7).to_bytes(8, "little")
        else:
            raw[39] = 1
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="block-sparse header"):
            load_block_sparse(path)

    def test_block_sparse_truncated_counts_rejected(self, tmp_path, small_dims, small_omega):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        path = tmp_path / "x.nutf"
        save_block_sparse(path, x)
        path.write_bytes(path.read_bytes()[:45])  # header plus 5 of the 16 count bytes
        with pytest.raises(ValueError, match="truncated"):
            load_block_sparse(path)

    def test_block_sparse_trailing_bytes_rejected(self, tmp_path, small_dims, small_omega):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        path = tmp_path / "x.nutf"
        save_block_sparse(path, x)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="trailing"):
            load_block_sparse(path)

    # a flip to a huge q entry is rejected before q^T q could overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["model", "block_sparse"])
    def test_every_truncation_and_bit_flip(self, tmp_path, small_dims, small_omega, kind):
        """A cut or single-bit-flipped snapshot raises ValueError or loads finite arrays.

        c's entries lie in [1, 2) and X holds singleton blocks (value 1.0):
        one flip of the top exponent bit turns such a float into inf or NaN.
        """
        path = tmp_path / "s.nutf"
        if kind == "model":
            rng = np.random.default_rng(5)
            q, _ = np.linalg.qr(rng.standard_normal((small_dims.n_cols, 1)))
            c = np.linspace(1.0, 1.75, small_dims.n_users)[None, :]
            save_model(path, LowRankModel(small_dims, q=q, c=c))
            load, arrays = load_model, lambda m: (m.q, m.c)
        else:
            sizes = small_omega.block_sizes
            x = BlockSparseMatrix(small_dims, small_omega, np.repeat(1.0 / sizes, sizes))
            save_block_sparse(path, x)
            load, arrays = load_block_sparse, lambda x: (x.values,)
        raw = path.read_bytes()
        mutants = [(f"cut at {n}", raw[:n]) for n in range(len(raw))]
        for i in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[i] ^= 1 << bit
                mutants.append((f"bit {bit} of byte {i} flipped", bytes(flipped)))
        # each mutant is read from memory; the loaders take a binary file object
        for label, mutant in mutants:
            try:
                loaded = load(io.BytesIO(mutant))
            except ValueError:
                continue
            assert all(np.isfinite(a).all() for a in arrays(loaded)), label
        # a few from disk too, so the path form stays covered
        for label, mutant in [("cut in half", raw[:len(raw) // 2]),
                              ("8 trailing bytes", raw + bytes(8))]:
            path.write_bytes(mutant)
            with pytest.raises(ValueError, match="truncated|trailing"):
                load(path)
            with pytest.raises(ValueError, match="truncated|trailing"):
                load(io.BytesIO(mutant))


@st.composite
def dims_around_square(draw):
    """Dims with N below, at or above T*C."""
    t, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    offset = draw(st.one_of(st.just(0), st.integers(1 - t * c, 6)))
    return ProblemDims(t * c + offset, t, c)


class TestSnapshotRoundTrips:
    @given(dims=dims_around_square(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_model(self, tmp_path_factory, dims, seed, data):
        rank = data.draw(st.integers(1, min(dims.n_users, dims.n_cols)))
        model = random_model(np.random.default_rng(seed), dims, rank)
        path = tmp_path_factory.mktemp("model") / "m.nutf"
        save_model(path, model)
        raw = path.read_bytes()
        assert raw[39] == dims.transposed
        back = load_model(path)
        assert back.dims == dims
        assert back.q.tobytes() == model.q.tobytes()
        assert back.c.tobytes() == model.c.tobytes()
        save_model(path, back)
        assert path.read_bytes() == raw

    @given(dims=dims_around_square(), seed=st.integers(0, 2**32 - 1))
    def test_block_sparse(self, tmp_path_factory, dims, seed):
        rng = np.random.default_rng(seed)
        omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories)
        x = BlockSparseMatrix(dims, omega, rng.random(omega.total_size))
        path = tmp_path_factory.mktemp("x") / "x.nutf"
        save_block_sparse(path, x)
        raw = path.read_bytes()
        back = load_block_sparse(path)
        assert back.dims == dims
        assert block_dict(back.support) == block_dict(omega)
        assert back.values.tobytes() == x.values.tobytes()
        save_block_sparse(path, back)
        assert path.read_bytes() == raw


class TestJsonl:
    def test_candidate_sets_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        omega = random_omega(rng, 6, 4, 5)
        path = tmp_path / "omega.jsonl"
        write_candidate_sets_jsonl(path, omega)
        back = read_candidate_sets_jsonl(path)
        assert block_dict(back) == block_dict(omega)

    def test_candidate_sets_schema(self, tmp_path):
        omega = CandidateSets.from_blocks([(3, 1, [0, 2])])
        path = tmp_path / "omega.jsonl"
        write_candidate_sets_jsonl(path, omega)
        assert path.read_text().strip() == '{"u":3,"j":1,"cats":[0,2]}'

    @pytest.mark.parametrize("case", ["ragged", "singletons", "empty"])
    def test_candidate_sets_bytes_match_json_dumps(self, tmp_path, case):
        top = 2 ** 63 - 1
        blocks = {
            # ragged blocks, category 0, and indices up to the int64 limit
            "ragged": [(0, 0, [0]), (0, 5, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                       (top, 2, [3, 0]), (7, top, [top, 1, 0])],
            "singletons": [(u, u % 3, [0]) for u in range(5)] + [(9, 1, [12])],
            "empty": [],
        }[case]
        omega = CandidateSets.from_blocks(blocks)
        path = tmp_path / "omega.jsonl"
        write_candidate_sets_jsonl(path, omega)
        expected = "".join(json.dumps({"u": u, "j": j, "cats": cats.tolist()},
                                      separators=(",", ":")) + "\n"
                           for (u, j), cats in omega.items())
        assert path.read_bytes() == expected.encode("utf-8")
        assert block_dict(read_candidate_sets_jsonl(path)) == block_dict(omega)

    def test_candidate_sets_bad_line(self, tmp_path):
        path = tmp_path / "omega.jsonl"
        path.write_text('{"u":0,"j":0,"cats":[1]}\n{"u":0}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_candidate_sets_jsonl(path)

    # floats, bools and strings were once coerced by int(); each must name its line
    @pytest.mark.parametrize("bad", [
        '{"u":0.5,"j":0,"cats":[1]}',
        '{"u":0,"j":"1","cats":[1]}',
        '{"u":0,"j":true,"cats":[1]}',
        '{"u":0,"j":0,"cats":[1,2.7]}',
        '{"u":0,"j":0,"cats":[false]}',
        '{"u":0,"j":0,"cats":"12"}',
        '{"u":0,"j":0,"cats":null}',
    ])
    def test_candidate_sets_non_integer_rejected(self, tmp_path, bad):
        path = tmp_path / "omega.jsonl"
        path.write_text('{"u":0,"j":0,"cats":[1]}\n' + bad + "\n")
        with pytest.raises(ValueError, match=r"omega\.jsonl line 2: .*JSON integers?"):
            read_candidate_sets_jsonl(path)

    # numpy would raise OverflowError on these later, naming no file or line
    @pytest.mark.parametrize("bad", [
        '{"u":0,"j":0,"cat":100000000000000000000000}',
        '{"u":0,"j":0,"cat":9223372036854775808}',
        '{"u":-9223372036854775809,"j":0,"cat":0}',
    ])
    def test_pairs_outside_int64_rejected(self, tmp_path, bad):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"u":0,"j":0,"cat":9223372036854775807}\n' + bad + "\n")
        with pytest.raises(ValueError, match=r"pairs\.jsonl line 2: .* int64 range"):
            read_pairs_jsonl(path)

    def test_candidate_sets_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "omega.jsonl"
        path.write_text('{"u":0,"j":0,"cats":[1]}\n{"u":0,"j":0,"cats":[1,18446744073709551616]}\n')
        with pytest.raises(ValueError, match=r"omega\.jsonl line 2: .* int64 range"):
            read_candidate_sets_jsonl(path)

    def test_pairs_round_trip(self, tmp_path):
        pairs = [(0, 1, 2), (3, 4, 5)]
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(path, pairs)
        assert read_pairs_jsonl(path) == pairs

    @staticmethod
    def _dumps_lines(pairs) -> bytes:
        """One json.dumps record per pair, as the writer once built each line."""
        return "".join(json.dumps({"u": int(u), "j": int(j), "cat": int(cat)},
                                  separators=(",", ":")) + "\n"
                       for u, j, cat in pairs).encode("utf-8")

    @pytest.mark.parametrize("form", ["tuples", "lists", "np.int64 tuples", "int64 array",
                                      "int32 array", "empty list"])
    def test_pairs_bytes_match_json_dumps(self, tmp_path, form):
        top = 2 ** 63 - 1
        triples = [(0, 0, 0), (top, 1, 2), (3, top, top), (12, 0, 7)]
        pairs = {
            "tuples": triples,
            "lists": [list(p) for p in triples],
            "np.int64 tuples": [tuple(np.int64(v) for v in p) for p in triples],
            "int64 array": np.array(triples, dtype=np.int64),
            "int32 array": np.array([(0, 0, 0), (2 ** 31 - 1, 5, 9)], dtype=np.int32),
            "empty list": [],
        }[form]
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(path, pairs)
        assert path.read_bytes() == self._dumps_lines(pairs)
        assert read_pairs_jsonl(path) == [tuple(int(v) for v in p) for p in pairs]

    def test_pairs_not_triples_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="triples"):
            write_pairs_jsonl(tmp_path / "pairs.jsonl", [(1, 2, 3, 4, 5, 6)])

    @pytest.mark.parametrize("bad", [
        '{"u":0,"j":0,"cat":1.9}',
        '{"u":0,"j":0,"cat":1.0}',
        '{"u":"1","j":0,"cat":0}',
        '{"u":0,"j":true,"cat":0}',
        '{"u":0,"j":0,"cat":null}',
        '{"u":0,"j":0,"cat":[1]}',
    ])
    def test_pairs_non_integer_rejected(self, tmp_path, bad):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"u":0,"j":0,"cat":1}\n' + bad + "\n")
        with pytest.raises(ValueError, match=r"pairs\.jsonl line 2: .* must be a JSON integer"):
            read_pairs_jsonl(path)

    def test_index_maps_round_trip(self, tmp_path):
        path = tmp_path / "maps.json"
        write_index_maps(path, 3, 4, 5, user_ids=["a", "b", "c"],
                         category_names=["x", "y", "z", "w", "v"])
        maps = read_index_maps(path)
        assert maps["n_users"] == 3
        assert maps["user_ids"] == ["a", "b", "c"]

    def test_index_maps_missing_key(self, tmp_path):
        path = tmp_path / "maps.json"
        path.write_text('{"n_users": 3}')
        with pytest.raises(ValueError):
            read_index_maps(path)
