import numpy as np
import pytest

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

from conftest import random_omega


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

    def test_model_round_trip(self, tmp_path, small_dims):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((small_dims.n_users, 2)))
        model = LowRankModel(small_dims, q=q, c=rng.standard_normal((2, small_dims.n_cols)))
        path = tmp_path / "m.nutf"
        save_model(path, model)
        back = load_model(path)
        assert back.dims == model.dims
        assert back.transposed == model.transposed
        assert np.array_equal(back.q, model.q)
        assert np.array_equal(back.c, model.c)

    def test_transposed_model_round_trip(self, tmp_path):
        dims = ProblemDims(3, 2, 4)  # N=3 < TC=8
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        model = LowRankModel(dims, q=q, c=rng.standard_normal((2, 3)), transposed=True)
        path = tmp_path / "m.nutf"
        save_model(path, model)
        back = load_model(path)
        assert back.transposed
        assert back.q.shape == (8, 2)
        assert np.array_equal(back.c, model.c)

    def test_magic_bytes(self, tmp_path, small_dims):
        model = LowRankModel(small_dims, q=np.empty((small_dims.n_users, 0)),
                             c=np.empty((0, small_dims.n_cols)))
        path = tmp_path / "m.nutf"
        save_model(path, model)
        raw = path.read_bytes()
        assert raw[:4] == b"NUTF"
        back = load_model(path)
        assert back.rank == 0

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


    def _saved_model(self, tmp_path, small_dims):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((small_dims.n_users, 2)))
        path = tmp_path / "m.nutf"
        save_model(path, LowRankModel(small_dims, q=q, c=rng.standard_normal((2, 12))))
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

    def test_model_flipped_orientation_rejected(self, tmp_path, small_dims):
        path, raw = self._saved_model(tmp_path, small_dims)
        raw[39] = 1
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="orthonormal"):
            load_model(path)

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
            q, _ = np.linalg.qr(rng.standard_normal((small_dims.n_users, 1)))
            c = np.linspace(1.0, 1.75, small_dims.n_cols)[None, :]
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
        for label, mutant in mutants:
            path.write_bytes(mutant)
            try:
                loaded = load(path)
            except ValueError:
                continue
            assert all(np.isfinite(a).all() for a in arrays(loaded)), label


class TestJsonl:
    def test_candidate_sets_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        omega = random_omega(rng, 6, 4, 5)
        path = tmp_path / "omega.jsonl"
        write_candidate_sets_jsonl(path, omega)
        back = read_candidate_sets_jsonl(path)
        assert back.to_dict() == omega.to_dict()

    def test_candidate_sets_schema(self, tmp_path):
        omega = CandidateSets.from_dict({(3, 1): [0, 2]})
        path = tmp_path / "omega.jsonl"
        write_candidate_sets_jsonl(path, omega)
        assert path.read_text().strip() == '{"u":3,"j":1,"cats":[0,2]}'

    def test_candidate_sets_bad_line(self, tmp_path):
        path = tmp_path / "omega.jsonl"
        path.write_text('{"u":0,"j":0,"cats":[1]}\n{"u":0}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_candidate_sets_jsonl(path)

    def test_pairs_round_trip(self, tmp_path):
        pairs = [(0, 1, 2), (3, 4, 5)]
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(path, pairs)
        assert read_pairs_jsonl(path) == pairs

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
