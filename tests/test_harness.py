import hashlib
import re

import numpy as np
import pytest

from nutf import harness, parallel
from nutf.core import CandidateSets, LowRankModel, ProblemDims
from nutf.harness import SynthConfig, generate, score_topk
from nutf.solver import predict_topk

from conftest import (block_dict, block_items, exact_model, mask_validation, random_model,
                      random_omega, replace_blocks_with_full, serial_generate, to_dense,
                      zero_model)


def generated_arrays(cfg):
    """generate's six arrays, in serial_generate's order, widened to int64 as
    the serial oracle draws them (generate stores the narrow index dtypes)."""
    omega, truth, _ = generate(cfg)
    return tuple(a.astype(np.int64) for a in (
        omega.block_users, omega.block_slots, omega.block_ptr, omega.cats,
        truth.true_cats, truth.user_classes))


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(10, 5, 4, n_classes=11)
        with pytest.raises(ValueError):
            SynthConfig(10, 5, 4, candidates_per_update=5)
        with pytest.raises(ValueError):
            SynthConfig(10, 5, 4, slot_density=0.0)
        with pytest.raises(ValueError):
            SynthConfig(10, 5, 4, slot_density=1.5)
        with pytest.raises(ValueError):
            SynthConfig(10, 100, 4, slot_density=0.001)  # rounds to 0 slots

    @pytest.mark.parametrize("field,value", [
        ("n_classes", True), ("n_classes", 2.0), ("candidates_per_update", 1.5),
        ("seed", 1.5), ("seed", False),
    ])
    def test_non_integer_counts_and_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} {value!r} is not an integer")):
            SynthConfig(10, 5, 4, **{field: value})
        SynthConfig(10, 5, 4, **{field: np.int64(2)})

    def test_slots_per_user_rounding(self):
        assert SynthConfig(10, 100, 5, slot_density=0.2).slots_per_user == 20
        assert SynthConfig(10, 10, 5, slot_density=0.25).slots_per_user == 3  # 2.5 rounds up


class TestGenerate:
    def test_single_candidate_is_truth(self):
        cfg = SynthConfig(20, 10, 6, n_classes=4, slot_density=0.5,
                          candidates_per_update=1, seed=3)
        omega, truth, dims = generate(cfg)
        assert np.all(np.diff(omega.block_ptr) == 1)
        assert np.array_equal(omega.cats, truth.true_cats)

    def test_reference_protocol_shape(self):
        cfg = SynthConfig(100, 50, 20, n_classes=10, slot_density=0.2,
                          candidates_per_update=4, seed=0)
        omega, truth, dims = generate(cfg)
        assert omega.n_blocks == 100 * 10  # 20% of 50 slots per user
        assert np.all(np.diff(omega.block_ptr) == 4)
        for b in range(omega.n_blocks):
            cats = omega.cats[omega.block_ptr[b]:omega.block_ptr[b + 1]]
            assert truth.true_cats[b] in cats
            assert len(set(cats.tolist())) == 4

    def test_same_class_shares_schedule(self):
        cfg = SynthConfig(50, 20, 10, n_classes=3, slot_density=0.6,
                          candidates_per_update=2, seed=5)
        omega, truth, dims = generate(cfg)
        by_user_slot = {
            (int(u), int(j)): int(k)
            for u, j, k in zip(truth.obs_users, truth.obs_slots, truth.true_cats)
        }
        users_by_class = {}
        for u, cls in enumerate(truth.user_classes):
            users_by_class.setdefault(int(cls), []).append(u)
        checked = 0
        for cls, users in users_by_class.items():
            for a in users:
                for b in users:
                    for j in range(20):
                        ka, kb = by_user_slot.get((a, j)), by_user_slot.get((b, j))
                        if ka is not None and kb is not None:
                            assert ka == kb
                            checked += 1
        assert checked > 0

    def test_deterministic(self):
        cfg = SynthConfig(30, 10, 8, n_classes=4, seed=11)
        o1, t1, _ = generate(cfg)
        o2, t2, _ = generate(cfg)
        assert np.array_equal(o1.cats, o2.cats)
        assert np.array_equal(t1.true_cats, t2.true_cats)
        assert np.array_equal(t1.user_classes, t2.user_classes)

    def test_decoys_exclude_truth(self):
        cfg = SynthConfig(40, 12, 5, n_classes=4, slot_density=0.5,
                          candidates_per_update=4, seed=9)
        omega, truth, _ = generate(cfg)
        for b in range(omega.n_blocks):
            cats = omega.cats[omega.block_ptr[b]:omega.block_ptr[b + 1]]
            assert (cats == truth.true_cats[b]).sum() == 1


class TestGenerateMatchesSerialOracle:
    CASES = {
        "one user": SynthConfig(1, 9, 5, n_classes=1, slot_density=0.5, seed=1),
        "one candidate": SynthConfig(40, 12, 6, n_classes=4, candidates_per_update=1, seed=2),
        "all candidates": SynthConfig(40, 12, 6, n_classes=4, candidates_per_update=6, seed=3),
        "one category": SynthConfig(40, 12, 1, n_classes=4, candidates_per_update=1, seed=4),
        "every slot": SynthConfig(40, 12, 6, n_classes=4, slot_density=1.0, seed=5),
        "default": SynthConfig(300, 20, 12, n_classes=5, seed=6),
    }

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("draw_chunk", [None, 1, 500])
    @pytest.mark.parametrize("case", list(CASES))
    def test_same_bytes(self, case, draw_chunk, cpus, monkeypatch):
        # draw_chunk 1 gives one user per chunk and 500 a few users per chunk
        # (7 in the default case); at the module's own size (None) each case
        # is one chunk, and the frozen digest below takes about 100
        if draw_chunk is not None:
            monkeypatch.setattr(harness, "_DRAW_CHUNK", draw_chunk)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        cfg = self.CASES[case]
        got = generated_arrays(cfg)
        want = serial_generate(cfg)
        for name, g, w in zip(("block_users", "block_slots", "block_ptr", "cats",
                               "true_cats", "user_classes"), got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name

    def test_frozen_digest(self):
        # sha256 of the six arrays at N=25k, seed 1, as the serial generator drew
        # them; a change in numpy's PCG64 or its doubles fails here
        h = hashlib.sha256()
        for arr in generated_arrays(SynthConfig(25_000, 100, 50, seed=1)):
            h.update(arr.tobytes())
        assert h.hexdigest() == (
            "38aba0fa48a5a4b841628f1c6ce02b774ef62b1017674a0f7cda01d13b9dda72")


class TestNarrowArrays:
    def test_generate_stores_narrow_indices_shared_with_truth(self):
        omega, truth, _ = generate(SynthConfig(50, 10, 6, n_classes=3, seed=7))
        assert omega.block_users.dtype == omega.block_ptr.dtype == np.int32
        assert omega.block_slots.dtype == omega.cats.dtype == truth.true_cats.dtype == np.uint8
        assert truth.obs_users is omega.block_users
        assert truth.obs_slots is omega.block_slots

    def test_wide_slots_take_uint16(self):
        omega, truth, _ = generate(SynthConfig(30, 300, 5, n_classes=2, seed=4))
        assert omega.block_slots.dtype == np.uint16 and truth.obs_slots is omega.block_slots
        assert int(omega.block_slots.max()) > 255

    def test_wide_categories_take_uint16(self):
        omega, truth, _ = generate(SynthConfig(40, 4, 300, n_classes=2,
                                               candidates_per_update=300, seed=3))
        assert omega.cats.dtype == truth.true_cats.dtype == np.uint16
        assert int(omega.cats.max()) == 299


class TestPairs:
    def test_columnar_int64(self):
        _, truth, _ = generate(SynthConfig(50, 10, 6, n_classes=3, seed=7))
        pairs = truth.pairs()
        assert pairs.dtype == np.int64
        assert pairs.shape == (len(truth.obs_users), 3)
        assert pairs.flags.c_contiguous
        assert np.array_equal(pairs, np.column_stack(
            (truth.obs_users, truth.obs_slots, truth.true_cats)))

    def test_score_topk_same_as_list(self):
        cfg = SynthConfig(60, 10, 6, n_classes=3, seed=8)
        _, truth, dims = generate(cfg)
        pairs = truth.pairs()
        model = random_model(np.random.default_rng(9), dims, 3)
        rep = score_topk(model, pairs, 4)
        rep_list = score_topk(model, [tuple(p) for p in pairs.tolist()], 4)
        assert np.array_equal(rep.accuracies, rep_list.accuracies)
        assert rep.n_pairs == rep_list.n_pairs == len(pairs)


class TestMaskValidation:
    def _instance(self, seed=2):
        cfg = SynthConfig(12, 10, 6, n_classes=3, slot_density=0.4,
                          candidates_per_update=3, seed=seed)
        return generate(cfg)

    def test_round_half_up_count(self):
        omega, truth, dims = self._instance()
        n = len(truth.obs_users)
        masked, val = mask_validation(omega, truth, 0.1, dims, seed=0)
        assert len(val) == int(np.floor(0.1 * n + 0.5))
        # 10 observations at fraction 0.05 -> round(0.5) -> 1
        few = CandidateSets.from_blocks(
            [(i, 0, [0, 1]) for i in range(10)]
        )
        import nutf.harness as h

        truth10 = h.GroundTruth(
            obs_users=np.arange(10), obs_slots=np.zeros(10, dtype=np.int64),
            true_cats=np.zeros(10, dtype=np.int64), user_classes=np.zeros(10, dtype=np.int64),
        )
        _, val10 = mask_validation(few, truth10, 0.05, ProblemDims(10, 1, 2), seed=1)
        assert len(val10) == 1

    def test_masked_blocks_are_full_c(self):
        omega, truth, dims = self._instance()
        masked, val = mask_validation(omega, truth, 0.2, dims, seed=3)
        masked_keys = {(u, j) for u, j, _ in val}
        for (u, j), cats in block_items(masked):
            if (u, j) in masked_keys:
                assert cats.tolist() == list(range(dims.n_categories))

    def test_unmasked_blocks_unchanged_bitwise(self):
        omega, truth, dims = self._instance()
        masked, val = mask_validation(omega, truth, 0.2, dims, seed=4)
        masked_keys = {(u, j) for u, j, _ in val}
        assert np.array_equal(masked.block_users, omega.block_users)
        assert np.array_equal(masked.block_slots, omega.block_slots)
        masked_blocks = block_dict(masked)
        for (u, j), cats in block_items(omega):
            if (u, j) not in masked_keys:
                assert masked_blocks[(u, j)] == cats.tolist()

    def test_truth_in_masked_range_and_recorded(self):
        omega, truth, dims = self._instance()
        masked, val = mask_validation(omega, truth, 0.3, dims, seed=5)
        lookup = {
            (int(u), int(j)): int(k)
            for u, j, k in zip(truth.obs_users, truth.obs_slots, truth.true_cats)
        }
        for u, j, k in val:
            assert lookup[(u, j)] == k

    def test_parameter_validation(self):
        omega, truth, dims = self._instance()
        with pytest.raises(ValueError):
            mask_validation(omega, truth, 0.0, dims)
        with pytest.raises(ValueError):
            mask_validation(omega, truth, 1.0, dims)


class TestReplaceBlocksWithFull:
    @staticmethod
    def _loop_oracle(omega, c, block_ids):
        """The per-block loop: widened blocks get [0, C), the others keep theirs."""
        masked = set(np.asarray(block_ids).tolist())
        pieces = [np.arange(c) if b in masked else cats
                  for b, (_, cats) in enumerate(block_items(omega))]
        ptr = np.concatenate(([0], np.cumsum([len(p) for p in pieces])))
        return ptr, np.concatenate(pieces)

    @pytest.mark.parametrize("which", ["none", "some", "all"])
    def test_matches_per_block_loop(self, which):
        rng = np.random.default_rng(11)
        dims = ProblemDims(30, 6, 7)
        omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories)
        assert len(np.unique(np.diff(omega.block_ptr))) == dims.n_categories  # mixed sizes
        block_ids = {
            "none": np.empty(0, dtype=np.int64),
            "some": np.array([0, 3, 3, 17, omega.n_blocks - 1]),
            "all": np.arange(omega.n_blocks),
        }[which]
        out = replace_blocks_with_full(omega, dims, block_ids)
        ptr, cats = self._loop_oracle(omega, dims.n_categories, block_ids)
        assert out.block_ptr.dtype == np.int32 and out.block_ptr.tolist() == ptr.tolist()
        assert out.cats.astype(np.int64).tobytes() == cats.astype(np.int64).tobytes()
        assert out.block_users.tobytes() == omega.block_users.tobytes()
        assert out.block_slots.tobytes() == omega.block_slots.tobytes()


class TestScoreTopk:
    def _ranked_model(self):
        """q holds the first 3 columns of I, so scores for user i < 3 are
        just row i of c; truths at positions giving ranks 1, 3, 7."""
        dims = ProblemDims(10, 1, 10)  # N = T*C: normal orientation
        q = np.eye(10, 3)
        c = np.zeros((3, 10))
        c[0] = np.linspace(1.0, 0.1, 10)          # truth cat 0 -> rank 1
        c[1] = np.linspace(1.0, 0.1, 10)          # truth cat 2 -> rank 3
        c[2] = np.linspace(1.0, 0.1, 10)          # truth cat 6 -> rank 7
        model = LowRankModel(dims, q=q, c=c)
        validation = [(0, 0, 0), (1, 0, 2), (2, 0, 6)]
        return model, validation

    def test_direct_counting_example(self):
        model, validation = self._ranked_model()
        rep = score_topk(model, validation, 5)
        assert rep.accuracy_at(1) == pytest.approx(1 / 3)
        assert rep.accuracy_at(3) == pytest.approx(2 / 3)
        assert rep.accuracy_at(5) == pytest.approx(2 / 3)

    def test_perfect_model(self):
        dims = ProblemDims(4, 2, 3)
        omega = CandidateSets.from_blocks([
            (0, 0, [2]), (1, 0, [1]), (2, 1, [0]), (3, 1, [2]),
        ])
        from nutf.core import BlockSparseMatrix

        x = BlockSparseMatrix(dims, omega, np.ones(4))
        model = exact_model(dims, to_dense(x))
        pairs = [(0, 0, 2), (1, 0, 1), (2, 1, 0), (3, 1, 2)]
        rep = score_topk(model, pairs, 3)
        assert np.allclose(rep.accuracies, 1.0)

    def test_zero_scores_tie_rule_expectation(self):
        # all scores zero: prediction is always category 0, so accuracy at
        # k equals the fraction of truths below k
        model = zero_model(ProblemDims(50, 2, 42))
        rng = np.random.default_rng(123)
        truths = rng.integers(0, 42, size=500)
        pairs = [(int(i % 50), int(i % 2), int(t)) for i, t in enumerate(truths)]
        rep = score_topk(model, pairs, 5)
        for k in range(1, 6):
            assert rep.accuracy_at(k) == pytest.approx(float((truths < k).mean()))

    def test_non_decreasing_and_full_coverage(self):
        model, validation = self._ranked_model()
        rep = score_topk(model, validation, 10)
        assert np.all(np.diff(rep.accuracies) >= 0.0)
        assert rep.accuracies[-1] == 1.0

    def test_agrees_with_predict_topk_loop(self):
        rng = np.random.default_rng(77)
        models = []
        for dims in (ProblemDims(8, 3, 6), ProblemDims(20, 3, 6)):  # N < T*C, N > T*C
            models += [random_model(rng, dims, 3), zero_model(dims)]
        pairs = [
            (int(rng.integers(0, 8)), int(rng.integers(0, 3)), int(rng.integers(0, 6)))
            for _ in range(40)
        ]
        k_max = 4
        for model in models:
            rep = score_topk(model, pairs, k_max)
            hits = np.zeros(k_max)
            for u, j, truth in pairs:
                preds = predict_topk(model, u, j, k_max).tolist()
                for k in range(1, k_max + 1):
                    hits[k - 1] += truth in preds[:k]
            assert np.allclose(rep.accuracies, hits / len(pairs))

    @staticmethod
    def _predict_loop_report(model, pairs, k_max):
        """Accuracies from one predict_topk call per pair."""
        hits = np.zeros(k_max)
        for u, j, truth in pairs:
            preds = predict_topk(model, u, j, k_max).tolist()
            for k in range(1, k_max + 1):
                hits[k - 1] += truth in preds[:k]
        return hits / len(pairs)

    @staticmethod
    def _shuffled_pairs(rng, dims, n):
        return [(int(rng.integers(dims.n_users)), int(rng.integers(dims.n_slots)),
                 int(rng.integers(dims.n_categories))) for _ in range(n)]

    # N < T*C (transposed) and N > T*C
    @pytest.mark.parametrize("dims", [ProblemDims(8, 20, 6), ProblemDims(200, 20, 6)])
    def test_slot_runs_across_chunks_match_predict_topk(self, dims, monkeypatch):
        # 7-pair chunks, so most slot runs are cut by a chunk edge
        monkeypatch.setattr(harness, "_OBS_CHUNK", 7 * dims.n_categories)
        rng = np.random.default_rng(5)
        pairs = self._shuffled_pairs(rng, dims, 400)
        for model in (random_model(rng, dims, 3), zero_model(dims)):
            rep = score_topk(model, pairs, 4)
            assert np.array_equal(rep.accuracies, self._predict_loop_report(model, pairs, 4))

    @pytest.mark.parametrize("dims", [ProblemDims(8, 20, 6), ProblemDims(200, 20, 6)])
    def test_permuted_validation_same_report(self, dims):
        rng = np.random.default_rng(6)
        pairs = self._shuffled_pairs(rng, dims, 300)
        permuted = [pairs[i] for i in rng.permutation(len(pairs))]
        for model in (random_model(rng, dims, 3), zero_model(dims)):
            rep, rep_permuted = score_topk(model, pairs, 5), score_topk(model, permuted, 5)
            assert np.array_equal(rep.accuracies, rep_permuted.accuracies)
            assert rep.n_pairs == rep_permuted.n_pairs == 300

    @pytest.mark.parametrize("dims", [ProblemDims(8, 20, 6), ProblemDims(200, 20, 6)])
    def test_exact_tie_ranks_lower_category_first(self, dims):
        rng = np.random.default_rng(7)
        r, (i1, i2), j, (k1, k2) = 3, (2, 5), 4, (1, 4)
        user_factor = rng.standard_normal((dims.n_users, r))
        col_factor = rng.standard_normal((dims.n_cols, r))
        user_factor[i2] = user_factor[i1]
        col_factor[j * dims.n_categories + k2] = col_factor[j * dims.n_categories + k1]
        q, c = (col_factor, user_factor.T) if dims.transposed else (user_factor, col_factor.T)
        model = LowRankModel(dims, q=q, c=c)
        # other users at slot j make the product for slot j many rows tall
        pairs = [(i1, j, k1), (i2, j, k2)] + [(u, j, 0) for u in range(dims.n_users)]
        scores = model.slot_scores(np.array([p[0] for p in pairs]), np.full(len(pairs), j))
        assert scores[0, k1] == scores[0, k2] == scores[1, k1] == scores[1, k2]
        preds = predict_topk(model, i1, j, dims.n_categories).tolist()
        assert preds.index(k2) == preds.index(k1) + 1
        k_max = dims.n_categories
        truths = [(i1, j, k1), (i2, j, k2)]
        rep = score_topk(model, truths, k_max)
        assert np.array_equal(rep.accuracies, self._predict_loop_report(model, truths, k_max))
        assert rep.accuracy_at(preds.index(k1) + 1) == 0.5
        assert rep.accuracy_at(preds.index(k2) + 1) == 1.0
        assert np.array_equal(score_topk(model, pairs, k_max).accuracies,
                              self._predict_loop_report(model, pairs, k_max))

    def test_array_input_matches_list(self):
        rng = np.random.default_rng(8)
        dims = ProblemDims(30, 10, 6)
        model = random_model(rng, dims, 3)
        pairs = self._shuffled_pairs(rng, dims, 200)
        rep = score_topk(model, pairs, 4)
        for dtype in (np.int64, np.int32):
            rep_array = score_topk(model, np.array(pairs, dtype=dtype), 4)
            assert np.array_equal(rep.accuracies, rep_array.accuracies)
            assert rep.n_pairs == rep_array.n_pairs

    @pytest.mark.parametrize("bad", [
        np.zeros((4, 2), dtype=np.int64),
        np.zeros((4, 3, 1), dtype=np.int64),
        np.zeros(3, dtype=np.int64),
        np.zeros((4, 3)),
        np.zeros((4, 3), dtype=bool),
    ])
    def test_bad_array_rejected(self, bad):
        model, _ = self._ranked_model()
        with pytest.raises(ValueError, match="validation array"):
            score_topk(model, bad, 3)

    def test_empty_rejected(self):
        model, _ = self._ranked_model()
        with pytest.raises(ValueError):
            score_topk(model, [], 3)
        with pytest.raises(ValueError):
            score_topk(model, np.empty((0, 3), dtype=np.int64), 3)

    def test_report_serialization(self):
        model, validation = self._ranked_model()
        rep = score_topk(model, validation, 3)
        d = rep.to_dict()
        assert d["n_pairs"] == 3
        assert set(d["accuracy_at_k"]) == {"1", "2", "3"}
        assert "accuracy" in rep.format_table()


def tied_model(rng, dims, rank):
    """Random factors in which categories 1 and 4 score the same at every
    (user, slot), and users 2 and 5 score the same everywhere."""
    user_factor = rng.standard_normal((dims.n_users, rank))
    col_factor = rng.standard_normal((dims.n_cols, rank))
    user_factor[5] = user_factor[2]
    by_slot = col_factor.reshape(dims.n_slots, dims.n_categories, rank)
    by_slot[:, 4] = by_slot[:, 1]
    if dims.transposed:
        return LowRankModel(dims, q=col_factor, c=user_factor.T)
    return LowRankModel(dims, q=user_factor, c=col_factor.T)


class TestPooledScoring:
    """score_topk's chunks on the pool: 7 pairs to a chunk, so one call spans many."""

    # normal (N > T*C), transposed (N < T*C), 16-bit slot keys, int64 slot keys
    DIMS = [ProblemDims(200, 20, 6), ProblemDims(8, 20, 6), ProblemDims(6, 300, 6),
            ProblemDims(6, 65_537, 6)]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch, fresh_pools):
        monkeypatch.setattr(harness, "_OBS_CHUNK", 7 * 6)

    @staticmethod
    def _pairs(rng, dims, n):
        pairs = TestScoreTopk._shuffled_pairs(rng, dims, n)
        # the largest slot and tied users and categories at one slot
        return pairs + [(0, dims.n_slots - 1, 4), (2, 3, 1), (5, 3, 4), (5, 3, 1)]

    @pytest.mark.parametrize("dims", DIMS)
    def test_same_report_for_any_cpu_count_and_cap(self, dims, fresh_pools, monkeypatch):
        rng = np.random.default_rng(9)
        pairs = self._pairs(rng, dims, 300)
        for model in (random_model(rng, dims, 3), tied_model(rng, dims, 3), zero_model(dims)):
            expected = TestScoreTopk._predict_loop_report(model, pairs, 5)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
                assert np.array_equal(score_topk(model, pairs, 5).accuracies, expected)
            # back to one CPU once the pools exist: inline again
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
            assert np.array_equal(score_topk(model, pairs, 5).accuracies, expected)
        assert sorted(fresh_pools) == [2, 3]

    @pytest.mark.parametrize("dims", DIMS)
    def test_each_chunk_gets_its_pairs_in_slot_order(self, dims, monkeypatch):
        rng = np.random.default_rng(10)
        pairs = self._pairs(rng, dims, 300)
        model = random_model(rng, dims, 3)
        chunks = []

        def recording_slot_scores(users, slots):
            chunks.append(slots.copy())
            return LowRankModel.slot_scores(model, users, slots)

        monkeypatch.setattr(model, "slot_scores", recording_slot_scores)
        score_topk(model, pairs, 5)
        # pool threads record their chunks in any order
        chunks.sort(key=lambda c: c.tolist())
        assert sorted(map(len, chunks)) == [len(pairs) % 7] + [7] * (len(pairs) // 7)
        assert np.concatenate(chunks).tolist() == sorted(j for _, j, _ in pairs)

    def test_exception_in_a_chunk_reaches_the_caller(self, monkeypatch):
        dims = ProblemDims(200, 20, 6)
        rng = np.random.default_rng(11)
        pairs = self._pairs(rng, dims, 300)
        model = random_model(rng, dims, 3)

        def failing_slot_scores(users, slots):
            if (slots == 10).any():
                raise RuntimeError("slot 10")
            return LowRankModel.slot_scores(model, users, slots)

        monkeypatch.setattr(model, "slot_scores", failing_slot_scores)
        with pytest.raises(RuntimeError, match="slot 10"):
            score_topk(model, pairs, 5)
