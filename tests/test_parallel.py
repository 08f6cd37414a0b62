import os
import threading
import time
import warnings

import numpy as np
import pytest

from nutf import core, parallel


def run_in_thread(fn, timeout=60.0):
    """fn() on a helper thread; fails instead of hanging if it does not return."""
    box = {}
    thread = threading.Thread(target=lambda: box.setdefault("result", fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run_chunks did not return"
    return box["result"]


def squares(n, bounds):
    out = np.zeros(n)

    def work(lo, hi):
        out[lo:hi] = np.arange(lo, hi) ** 2

    parallel.run_chunks(work, bounds)
    return out


class TestRunChunks:
    def test_pool_is_built_once_and_reused(self, fresh_pools):
        threads = set()

        def work(lo, hi):
            threads.add(threading.current_thread())
            time.sleep(0.01)

        for _ in range(5):
            parallel.run_chunks(work, [0, 1, 2, 3, 4])
        assert list(fresh_pools) == [2]
        # a pool per call would have run the 20 chunks on up to 10 threads
        assert len(threads) <= 2 and all(t.name.startswith("nutf") for t in threads)

    def test_one_pool_per_worker_count(self, fresh_pools, monkeypatch):
        squares(10, [0, 5, 10])
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
        squares(10, [0, 3, 6, 10])
        squares(10, [0, 3, 6, 10])
        assert sorted(fresh_pools) == [2, 3]

    def test_one_chunk_runs_inline_without_an_affinity_call(self, monkeypatch):
        def no_affinity_call():
            raise AssertionError("one chunk asked for the usable CPUs")

        monkeypatch.setattr(parallel, "_usable_cpus", no_affinity_call)
        caller = threading.current_thread()
        ran = []
        parallel.run_chunks(lambda lo, hi: ran.append((lo, hi, threading.current_thread())),
                            [3, 9])
        parallel.run_chunks(lambda lo, hi: ran.append((lo, hi)), [3])  # no chunk
        assert ran == [(3, 9, caller)]

    def test_capped_to_one_worker_runs_inline(self, fresh_pools, monkeypatch):
        """One CPU in the affinity mask (``taskset -c 0``) runs every chunk inline."""
        caller = threading.current_thread()
        ran_on = []
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        parallel.run_chunks(lambda lo, hi: ran_on.append(threading.current_thread()),
                            [0, 1, 2, 3])
        assert ran_on == [caller] * 3 and fresh_pools == {}
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        assert squares(6, [0, 2, 4, 6]).tolist() == [0, 1, 4, 9, 16, 25]
        assert list(fresh_pools) == [2]

    def test_nested_call_runs_inline(self, fresh_pools, monkeypatch):
        inner = {}

        def outer(lo, hi):
            me = threading.current_thread()
            ran_on = []
            parallel.run_chunks(lambda a, b: ran_on.append(threading.current_thread()),
                                [0, 1, 2, 3, 4])
            inner[lo] = ran_on == [me] * 4

        # a spare worker: a nested call that used the pool would run on it
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
        parallel.run_chunks(outer, [0, 1, 2])
        assert inner == {0: True, 1: True}
        # more outer chunks than workers: a nested call that waited on the
        # pool would never get a thread
        inner.clear()
        run_in_thread(lambda: parallel.run_chunks(outer, [0, 1, 2, 3, 4, 5, 6]))
        assert inner == {k: True for k in range(6)}

    def test_exception_reaches_caller_after_every_chunk(self, fresh_pools):
        done = []

        def work(lo, hi):
            time.sleep(0.005 * (8 - lo))
            if lo in (2, 5):
                raise ValueError(f"chunk {lo}")
            done.append(lo)

        with pytest.raises(ValueError, match="chunk 2"):  # the first in chunk order
            parallel.run_chunks(work, range(9))
        assert sorted(done) == [0, 1, 3, 4, 6, 7]
        # the pool still serves the next call
        assert squares(8, [0, 3, 8]).tolist() == [k * k for k in range(8)]

    def test_chunks_run_under_the_callers_error_state(self, fresh_pools):
        def overflow(lo, hi):
            np.array([1e300]) * 1e300

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                parallel.run_chunks(overflow, [0, 1, 2, 3])
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    parallel.run_chunks(overflow, [0, 1, 2, 3])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_builds_its_own_pool(self, fresh_pools):
        expected = squares(100, [0, 30, 60, 100])
        parent_pool = fresh_pools[2]
        pid = os.fork()
        if pid == 0:  # child: one multi-chunk kernel on a pool of its own
            ok = False
            try:
                ok = (parallel._pools == {}
                      and squares(100, [0, 30, 60, 100]).tobytes() == expected.tobytes()
                      and parallel._pools[2] is not parent_pool)
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestBlocks:
    def test_row_blocks(self):
        # 2048 rows per block at r = 10, one-row tail joined
        cuts = parallel.row_blocks(4 * 2048 + 1, 100)
        assert cuts == [0, 2048, 4096, 6144, 4 * 2048 + 1]
        # one chunk is one block
        assert parallel.row_blocks(4 * 2048, 100) == [0, 4 * 2048]
        assert parallel.row_blocks(3, 100) == [0, 3]
        assert parallel.row_blocks(0, 100) == [0, 0]
        # blocks of fewer than two rows
        assert parallel.row_blocks(10_000, parallel.GEMM_SERIAL) == [0, 10_000]
        assert parallel.row_blocks(10_000, 2 * parallel.GEMM_SERIAL) == [0, 10_000]
        # a run of slot_scores, one block per chunk
        assert parallel.row_blocks(2048, 100, 1) == [0, 2048]
        assert parallel.row_blocks(2049, 100, 1) == [0, 2049]
        assert parallel.row_blocks(2050, 100, 1) == [0, 2048, 2050]

    def test_chunk_bounds(self):
        # blocks start at entries 0, 3, 4, 8, 9, 14, 23, 25; the first to start at
        # or past 5, 10, 15, 20, 25 and 30 entries are blocks 3, 5, 6, 6, 7 and none
        ptr = np.cumsum([0, 3, 1, 4, 1, 5, 9, 2, 6])
        assert parallel.chunk_bounds(ptr, 5) == [0, 3, 5, 6, 7, 8]
        assert parallel.chunk_bounds(ptr, 1000) == [0, 8]
        assert parallel.chunk_bounds(np.array([0]), 5) == [0]  # no blocks, no chunk
        assert all(type(b) is int for b in parallel.chunk_bounds(ptr, 5))

    def test_one_block_sum_is_one_call(self, monkeypatch, no_pool):
        monkeypatch.setattr(parallel, "run_blocks", None)  # the one call only
        calls = []
        assert parallel.sum_blocks(lambda lo, hi: calls.append((lo, hi)) or lo + hi,
                                   [3, 7], 4) == 10
        assert calls == [(3, 7)]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_gram_bytes_independent_of_cpu_count(self, monkeypatch, cpus):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((20_001, 10)), rng.standard_normal((20_001, 10))
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        want_ab, want_aa = core.gram(a, b).tobytes(), core.gram(a, a).tobytes()
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        assert core.gram(a, b).tobytes() == want_ab
        assert core.gram(a, a).tobytes() == want_aa
        # the blocks' sums, in block order
        cuts = parallel.row_blocks(len(a), 100)
        expected = a[:cuts[1]].T @ b[:cuts[1]]
        for lo, hi in zip(cuts[1:], cuts[2:]):
            expected += a[lo:hi].T @ b[lo:hi]
        assert core.gram(a, b).tobytes() == expected.tobytes()

    def test_gram_blocks_stay_on_the_calling_thread(self, monkeypatch):
        heights = []
        monkeypatch.setattr(parallel, "run_blocks", lambda work, cuts, per_chunk: [
            heights.append(hi - lo) or work(lo, hi) for lo, hi in zip(cuts, cuts[1:])])
        a = np.random.default_rng(8).standard_normal((49 * 2048 + 1, 10))
        g = core.gram(a, a)
        assert sorted(heights) == [2048] * 48 + [2049]
        assert all(h * 10 * 10 <= parallel.GEMM_SERIAL for h in heights[:-1])
        assert np.abs(g - a.T @ a).max() <= 1e-10 * np.abs(g).max()

    def test_one_chunk_gram_is_one_product(self, no_pool):
        a = np.random.default_rng(9).standard_normal((8192, 10))
        assert core.gram(a, a).tobytes() == (a.T @ a).tobytes()

    def test_gram_of_no_rows_is_zero(self, no_pool):
        g = core.gram(np.empty((0, 3)), np.empty((0, 2)))
        assert g.shape == (3, 2) and not g.any()

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_sum_dots_in_block_order(self, monkeypatch, cpus):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        v = np.random.default_rng(10).standard_normal(400_003)
        sizes = []

        def dots(lo, hi):
            sizes.append(hi - lo)
            return float(v[lo:hi] @ v[lo:hi]), float(v[lo:hi].sum())

        got = core.sum_dots(len(v), dots)
        assert max(sizes) == 10_000 and sum(sizes) == len(v)
        expected = [0.0, 0.0]
        for lo in range(0, len(v), 10_000):
            part = v[lo:lo + 10_000]
            expected[0] += float(part @ part)
            expected[1] += float(part.sum())
        assert got == tuple(expected)

    def test_short_sum_dots_is_one_call(self, no_pool):
        v = np.random.default_rng(11).standard_normal(10_000)
        calls = []

        def dots(lo, hi):
            calls.append((lo, hi))
            return float(v[lo:hi] @ v[lo:hi]), float(v[lo:hi].sum())

        assert core.sum_dots(len(v), dots) == (float(v @ v), float(v.sum()))
        assert calls == [(0, len(v))]

    def test_sum_dots_of_no_entries_is_zero(self, no_pool):
        got = core.sum_dots(0, lambda lo, hi: (float(np.ones(hi - lo) @ np.ones(hi - lo)), 0.0))
        assert got == (0.0, 0.0) and all(type(s) is float for s in got)
