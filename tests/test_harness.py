import numpy as np
import pytest

from nutf.core import CandidateSets, LowRankModel, ProblemDims
from nutf.harness import (
    EvalReport,
    SynthConfig,
    _replace_blocks_with_full,
    certain_validation,
    generate,
    mask_validation,
    score_topk,
)
from nutf.solver import predict_topk

from conftest import random_omega


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

    def test_slots_per_user_rounding(self):
        assert SynthConfig(10, 100, 5, slot_density=0.2).slots_per_user == 20
        assert SynthConfig(10, 10, 5, slot_density=0.25).slots_per_user == 3  # 2.5 rounds up


class TestGenerate:
    def test_single_candidate_is_truth(self):
        cfg = SynthConfig(20, 10, 6, n_classes=4, slot_density=0.5,
                          candidates_per_update=1, seed=3)
        omega, truth, dims = generate(cfg)
        assert np.all(omega.block_sizes == 1)
        assert np.array_equal(omega.cats, truth.true_cats)

    def test_reference_protocol_shape(self):
        cfg = SynthConfig(100, 50, 20, n_classes=10, slot_density=0.2,
                          candidates_per_update=4, seed=0)
        omega, truth, dims = generate(cfg)
        assert omega.n_blocks == 100 * 10  # 20% of 50 slots per user
        assert np.all(omega.block_sizes == 4)
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


class TestMaskValidation:
    def _instance(self, seed=2):
        cfg = SynthConfig(12, 10, 6, n_classes=3, slot_density=0.4,
                          candidates_per_update=3, seed=seed)
        return generate(cfg)

    def test_round_half_up_count(self):
        omega, truth, dims = self._instance()
        n = truth.n_observations
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
        for (u, j), cats in masked.items():
            if (u, j) in masked_keys:
                assert cats.tolist() == list(range(dims.n_categories))

    def test_unmasked_blocks_unchanged_bitwise(self):
        omega, truth, dims = self._instance()
        masked, val = mask_validation(omega, truth, 0.2, dims, seed=4)
        masked_keys = {(u, j) for u, j, _ in val}
        assert np.array_equal(masked.block_users, omega.block_users)
        assert np.array_equal(masked.block_slots, omega.block_slots)
        masked_blocks = masked.to_dict()
        for (u, j), cats in omega.items():
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
                  for b, (_, cats) in enumerate(omega.items())]
        ptr = np.concatenate(([0], np.cumsum([len(p) for p in pieces])))
        return ptr, np.concatenate(pieces)

    @pytest.mark.parametrize("which", ["none", "some", "all"])
    def test_matches_per_block_loop(self, which):
        rng = np.random.default_rng(11)
        dims = ProblemDims(30, 6, 7)
        omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories)
        assert len(np.unique(omega.block_sizes)) == dims.n_categories  # mixed sizes
        block_ids = {
            "none": np.empty(0, dtype=np.int64),
            "some": np.array([0, 3, 3, 17, omega.n_blocks - 1]),
            "all": np.arange(omega.n_blocks),
        }[which]
        out = _replace_blocks_with_full(omega, dims, block_ids)
        ptr, cats = self._loop_oracle(omega, dims.n_categories, block_ids)
        assert out.block_ptr.tobytes() == ptr.astype(np.int64).tobytes()
        assert out.cats.tobytes() == cats.astype(np.int64).tobytes()
        assert out.block_users.tobytes() == omega.block_users.tobytes()
        assert out.block_slots.tobytes() == omega.block_slots.tobytes()


class TestCertainValidation:
    def test_no_singletons_is_identity(self):
        omega = CandidateSets.from_dict({(0, 0): [0, 1], (1, 1): [1, 2]})
        dims = ProblemDims(2, 2, 3)
        out, val = certain_validation(omega, dims)
        assert val == []
        assert np.array_equal(out.cats, omega.cats)

    def test_single_singleton(self):
        omega = CandidateSets.from_dict({(0, 0): [2], (1, 1): [1, 2]})
        dims = ProblemDims(2, 2, 3)
        out, val = certain_validation(omega, dims)
        assert val == [(0, 0, 2)]
        assert out.to_dict() == {(0, 0): [0, 1, 2], (1, 1): [1, 2]}

    def test_count_matches_singletons(self):
        rng = np.random.default_rng(8)
        blocks = []
        singles = 0
        for i in range(15):
            for j in range(6):
                if rng.random() < 0.5:
                    size = int(rng.integers(1, 5))
                    singles += size == 1
                    cats = sorted(int(c) for c in rng.choice(5, size=size, replace=False))
                    blocks.append((i, j, cats))
        omega = CandidateSets.from_blocks(blocks)
        _, val = certain_validation(omega, ProblemDims(15, 6, 5))
        assert len(val) == singles


class TestScoreTopk:
    def _ranked_model(self):
        """q = I so scores for user i are just row i of c; truths at
        positions giving ranks 1, 3, 7."""
        dims = ProblemDims(3, 1, 10)
        q = np.eye(3)
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
        omega = CandidateSets.from_dict({
            (0, 0): [2], (1, 0): [1], (2, 1): [0], (3, 1): [2],
        })
        from nutf.core import BlockSparseMatrix

        x = BlockSparseMatrix(dims, omega, np.ones(4))
        dense = x.to_dense()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        r = int((s > 1e-12).sum())
        model = LowRankModel(dims, q=u[:, :r], c=s[:r, None] * vt[:r])
        pairs = [(0, 0, 2), (1, 0, 1), (2, 1, 0), (3, 1, 2)]
        rep = score_topk(model, pairs, 3)
        assert np.allclose(rep.accuracies, 1.0)

    def test_rank_zero_tie_rule_expectation(self):
        # all scores zero: prediction is always category 0, so accuracy at
        # k equals the fraction of truths below k
        dims = ProblemDims(50, 2, 42)
        model = LowRankModel(dims, q=np.empty((50, 0)), c=np.empty((0, 84)))
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
        dims = ProblemDims(8, 3, 6)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        qt, _ = np.linalg.qr(rng.standard_normal((18, 3)))
        models = [
            LowRankModel(dims, q=q, c=rng.standard_normal((3, 18))),
            LowRankModel(dims, q=qt, c=rng.standard_normal((3, 8)), transposed=True),
            LowRankModel(dims, q=np.empty((8, 0)), c=np.empty((0, 18))),
        ]
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

    def test_empty_rejected(self):
        model, _ = self._ranked_model()
        with pytest.raises(ValueError):
            score_topk(model, [], 3)

    def test_report_serialization(self):
        model, validation = self._ranked_model()
        rep = score_topk(model, validation, 3)
        d = rep.to_dict()
        assert d["n_pairs"] == 3
        assert set(d["accuracy_at_k"]) == {"1", "2", "3"}
        assert "accuracy" in rep.format_table()
