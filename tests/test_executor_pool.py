"""Persistent worker pools: reuse, health checks, and lifecycle.

The pre-serving executor built a pool per batch call; these tests pin the
refactor's contract: pools are created once per (backend, workers[,
snapshot]) key, health-checked and reused across calls, rebuilt when dead,
evicted LRU (process pools), and released by ``close_pools()`` — with
answers bit-identical throughout.
"""

import pytest

from repro.parallel import (
    PoolRegistry,
    ShardSnapshot,
    WorkerPool,
    close_pools,
    pool_registry,
    sharded_destroyed_indices,
)
from repro.provenance import why_provenance
from repro.workloads import sj_workload


@pytest.fixture
def kernel():
    db, query, _target = sj_workload(40, seed=3)
    return why_provenance(query, db).kernel


@pytest.fixture
def snapshot(kernel):
    snap = ShardSnapshot.from_witness_table(kernel._table, len(kernel.index))
    snap.prepare()
    return snap


def _mask_vector(kernel, total=12_000):
    """A vector big enough that workers=4 genuinely shards (several chunks
    above the MIN_CHUNK_SIZE amortization floor), solver-shaped."""
    masks = [1 << bit for bit in range(len(kernel.index))]
    out = []
    while len(out) < total:
        out.extend(masks)
    return out[:total]


class TestPoolReuse:
    def test_two_batch_calls_reuse_the_same_pool(self, kernel):
        """The satellite regression: two batch_destroyed(workers=4) calls
        draw the same persistent pool instead of building one each."""
        masks = _mask_vector(kernel)
        assert len(masks) >= 128  # above SHARD_MIN_BATCH: the sharded path
        close_pools()
        before = pool_registry().stats()
        first = kernel.batch_destroyed(masks, workers=4)
        mid = pool_registry().stats()
        second = kernel.batch_destroyed(masks, workers=4)
        after = pool_registry().stats()
        assert first == second == kernel.batch_destroyed(masks)  # identical
        created = after["created"] - before["created"]
        assert created == 1, f"expected one pool, created {created}"
        assert after["reused"] - mid["reused"] >= 1

    def test_registry_hands_back_the_identical_object(self):
        registry = PoolRegistry()
        with registry:
            pool = registry.get("thread", 3)
            assert registry.get("thread", 3) is pool
            assert registry.get("thread", 2) is not pool
            stats = registry.stats()
            assert stats["created"] == 2 and stats["reused"] == 1

    def test_process_pools_key_on_their_snapshot(self, kernel, snapshot):
        other = ShardSnapshot.from_witness_table(kernel._table, len(kernel.index))
        registry = PoolRegistry()
        with registry:
            a = registry.get("process", 2, snapshot)
            assert registry.get("process", 2, snapshot) is a
            b = registry.get("process", 2, other)
            assert b is not a
            assert registry.stats()["live_process_pools"] == 2

    def test_process_pool_lru_eviction(self, kernel, snapshot):
        other = ShardSnapshot.from_witness_table(kernel._table, len(kernel.index))
        registry = PoolRegistry(max_process_pools=1)
        with registry:
            a = registry.get("process", 2, snapshot)
            registry.get("process", 2, other)
            assert registry.stats()["evicted"] == 1
            assert not a.healthy()  # the evicted pool was closed
            assert registry.stats()["live_process_pools"] == 1


class TestHealthAndLifecycle:
    def test_dead_pool_is_rebuilt(self):
        registry = PoolRegistry()
        with registry:
            pool = registry.get("thread", 2)
            pool.close()
            assert not pool.healthy()
            fresh = registry.get("thread", 2)
            assert fresh is not pool and fresh.healthy()
            assert registry.stats()["rebuilt"] == 1

    def test_close_pools_then_fresh_answers(self, kernel):
        masks = _mask_vector(kernel)
        expected = kernel.batch_destroyed(masks)
        kernel.batch_destroyed(masks, workers=4)
        close_pools()
        assert pool_registry().stats()["live_thread_pools"] == 0
        assert kernel.batch_destroyed(masks, workers=4) == expected

    def test_worker_pool_context_manager(self):
        with WorkerPool("thread", 2) as pool:
            assert pool.healthy()
        assert not pool.healthy()
        with pytest.raises(RuntimeError):
            pool.run(None, [], [])

    def test_closed_registry_stays_usable(self):
        registry = PoolRegistry()
        registry.get("thread", 2)
        registry.close()
        assert registry.stats()["live_thread_pools"] == 0
        assert registry.get("thread", 2).healthy()
        registry.close()

    def test_pool_rejects_bad_arguments(self, snapshot):
        with pytest.raises(ValueError):
            WorkerPool("serial", 2)
        with pytest.raises(ValueError):
            WorkerPool("thread", 0)
        registry = PoolRegistry()
        with pytest.raises(ValueError):
            registry.get("serial", 2)

    def test_snapshotless_process_pool_is_payload_only(self, snapshot):
        # A process pool without a snapshot is a payload pool: legal to
        # build, but it refuses snapshot-bound run() calls.
        registry = PoolRegistry()
        with registry:
            pool = registry.get("process", 2)
            with pytest.raises(RuntimeError):
                pool.run(snapshot, [0], [(0, 1)])
            assert registry.get("process", 2) is pool  # keyed, reused

    def test_process_pool_refuses_foreign_snapshot(self, kernel, snapshot):
        other = ShardSnapshot.from_witness_table(kernel._table, len(kernel.index))
        other.prepare()
        registry = PoolRegistry()
        with registry:
            pool = registry.get("process", 2, snapshot)
            with pytest.raises(RuntimeError):
                pool.run(other, [0], [(0, 1)])


class TestPoolRaces:
    def test_pool_closed_between_get_and_run_falls_back_correctly(
        self, kernel, monkeypatch
    ):
        """Regression: another engine's close_pools() (or an LRU eviction)
        may close the pool after get() handed it out; the batch call must
        still answer — from a fresh pool or serially — bit-identically."""
        import repro.parallel.executor as executor_mod

        masks = _mask_vector(kernel)
        expected = kernel.batch_destroyed(masks)
        real_registry = executor_mod._POOLS

        class ClosingRegistry:
            def get(self, *args, **kwargs):
                pool = real_registry.get(*args, **kwargs)
                pool.close()  # simulate the concurrent close/eviction race
                return pool

        monkeypatch.setattr(executor_mod, "_POOLS", ClosingRegistry())
        try:
            assert kernel.batch_destroyed(masks, workers=4) == expected
        finally:
            monkeypatch.undo()
        close_pools()

    def test_task_errors_are_not_swallowed_as_pool_races(
        self, kernel, monkeypatch
    ):
        """A genuine task error on a *healthy* pool must propagate — not
        retry, and not silently degrade to the serial fallback."""
        import repro.parallel.executor as executor_mod

        masks = _mask_vector(kernel)
        calls = []

        def raising_run(self, *args, **kwargs):
            calls.append(1)
            raise ValueError("task error on a healthy pool")

        close_pools()
        monkeypatch.setattr(executor_mod.WorkerPool, "run", raising_run)
        with pytest.raises(ValueError):
            kernel.batch_destroyed(masks, workers=4)
        assert len(calls) == 1  # no retry, no fallback
        close_pools()


class TestShardedExecutionStillMatches:
    def test_thread_and_process_backends_reuse_and_match(self, snapshot):
        masks = list(range(1, 300))
        serial = sharded_destroyed_indices(snapshot, masks, 1)
        close_pools()
        for backend in ("thread", "process"):
            first = sharded_destroyed_indices(
                snapshot, masks, 2, backend=backend, chunk_size=37
            )
            second = sharded_destroyed_indices(
                snapshot, masks, 2, backend=backend, chunk_size=51
            )
            assert first == second == serial
        stats = pool_registry().stats()
        assert stats["live_thread_pools"] >= 1
        assert stats["live_process_pools"] >= 1
        close_pools()
