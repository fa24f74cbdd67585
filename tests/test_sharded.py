"""Sharded mask-vector execution: bit-identical to the serial path.

The contract of :mod:`repro.parallel` is exact equivalence: for every
worker count, backend, chunking, and chunk kernel (vectorized or pure
Python), the sharded batch answers equal the serial ones — including empty
vectors, empty masks, vectors smaller than the worker count, and masks
with bits the snapshot has never seen.  These tests pin that contract,
the shard planner's invariants, the workers plumbing through the solver
stack and CLI, and the cache-counter / provenance-fallback satellite
fixes.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ExponentialGuardError, ReproError
from repro.algebra.relation import Database, Relation
from repro.deletion import (
    HypotheticalDeletions,
    delete_view_tuple,
    enumerate_deletion_plans,
    minimum_source_deletion,
)
from repro.deletion import hypothetical as hypothetical_module
from repro.parallel import (
    ShardSnapshot,
    plan_shards,
    resolve_backend,
    sharded_destroyed_indices,
)
from repro.parallel import shards as shards_module
from repro.provenance import provenance_cache
from repro.provenance.bitset import SHARD_MIN_BATCH
from repro.provenance.cache import ProvenanceCache
from repro.provenance.why import why_provenance
from repro.workloads import (
    chain_workload,
    random_instance,
    sj_workload,
    spu_workload,
    star_workload,
)


def _mask_vector(kernel, db, target, extra: int, seed: int):
    """Single-tuple masks plus random universe-subset masks.

    ``extra`` is chosen so vectors clear ``SHARD_MIN_BATCH`` — below it
    the kernel's batch methods answer serially by design.
    """
    rng = random.Random(seed)
    sources = db.all_source_tuples()
    universe = sorted(
        kernel.index.decode_mask(kernel.universe_mask(tuple(target))), key=repr
    )
    deletion_sets = [frozenset({s}) for s in sources]
    for _ in range(extra):
        size = rng.randint(1, min(4, len(universe)))
        deletion_sets.append(frozenset(rng.sample(universe, size)))
    return [kernel.index.encode(d) for d in deletion_sets]


WORKLOADS = {
    "spu": lambda: spu_workload(40, seed=3),
    "sj": lambda: sj_workload(25, seed=4),
    "chain": lambda: chain_workload(3, 10, seed=5),
    "star": lambda: star_workload(3, 4, seed=6),
}


class TestPlanShards:
    def test_balanced_partition_covers_vector(self):
        for total in (0, 1, 2, 5, 17, 100):
            for workers in (1, 2, 3, 8, 200):
                shards = plan_shards(total, workers)
                flat = [i for a, b in shards for i in range(a, b)]
                assert flat == list(range(total))
                assert len(shards) <= max(workers, 1)
                if shards:
                    sizes = [b - a for a, b in shards]
                    assert max(sizes) - min(sizes) <= 1

    def test_explicit_chunk_size(self):
        assert plan_shards(10, 4, chunk_size=4) == ((0, 4), (4, 8), (8, 10))
        assert plan_shards(3, 8, chunk_size=10) == ((0, 3),)

    def test_deterministic(self):
        assert plan_shards(1000, 7) == plan_shards(1000, 7)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(5, 0)
        with pytest.raises(ValueError):
            plan_shards(5, 2, chunk_size=0)


class TestResolveBackend:
    def test_explicit_backends_pass_through(self):
        for backend in ("serial", "thread", "process"):
            assert resolve_backend(backend, 4, 10_000) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu", 4, 100)

    def test_auto_serial_for_one_worker(self):
        assert resolve_backend("auto", 1, 10_000) == "serial"


class TestShardedEquivalence:
    """batch answers are bit-identical to serial for every configuration."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batch_destroyed_matches_serial(self, workload, workers):
        db, query, target = WORKLOADS[workload]()
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=SHARD_MIN_BATCH + 40, seed=workers)
        assert kernel.batch_destroyed(masks, workers=workers) == (
            kernel.batch_destroyed(masks)
        )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_batch_side_effects_and_survivors_match_serial(self, workload):
        db, query, target = WORKLOADS[workload]()
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=SHARD_MIN_BATCH + 40, seed=11)
        target = tuple(target)
        serial_effects = kernel.batch_side_effects_mask(target, masks)
        serial_survivors = kernel.batch_surviving_rows(masks)
        for workers in (2, 4):
            assert (
                kernel.batch_side_effects_mask(target, masks, workers=workers)
                == serial_effects
            )
            assert (
                kernel.batch_surviving_rows(masks, workers=workers)
                == serial_survivors
            )

    def test_random_chunk_boundaries(self):
        db, query, target = sj_workload(20, seed=9)
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=40, seed=9)
        snapshot = kernel._shard_snapshot()
        serial = sharded_destroyed_indices(snapshot, masks, 1)
        rng = random.Random(7)
        for _ in range(10):
            chunk_size = rng.randint(1, len(masks) + 3)
            workers = rng.randint(1, 5)
            assert (
                sharded_destroyed_indices(
                    snapshot, masks, workers, chunk_size=chunk_size
                )
                == serial
            )

    def test_empty_vector_empty_mask_and_small_vectors(self):
        db, query, target = spu_workload(12, seed=2)
        kernel = why_provenance(query, db).kernel
        assert kernel.batch_destroyed([], workers=4) == []
        assert kernel.batch_surviving_rows([], workers=4) == []
        # The empty mask destroys nothing; everything survives.
        assert kernel.batch_destroyed([0], workers=4) == [frozenset()]
        (survivors,) = kernel.batch_surviving_rows([0], workers=4)
        assert survivors == frozenset(kernel.relation().rows)
        # Vectors smaller than the worker count.
        masks = _mask_vector(kernel, db, target, extra=0, seed=1)[:3]
        assert kernel.batch_destroyed(masks, workers=8) == (
            kernel.batch_destroyed(masks)
        )
        # Empty masks inside a vector long enough to take the sharded path.
        padded = _mask_vector(kernel, db, target, extra=SHARD_MIN_BATCH, seed=2)
        padded[::7] = [0] * len(padded[::7])
        assert len(padded) >= SHARD_MIN_BATCH
        assert kernel.batch_destroyed(padded, workers=4) == (
            kernel.batch_destroyed(padded)
        )

    def test_unknown_high_bits_destroy_nothing(self):
        db, query, target = spu_workload(10, seed=8)
        kernel = why_provenance(query, db).kernel
        high = 1 << (len(kernel.index) + 64)
        masks = [high, high | kernel.index.encode(
            frozenset({db.all_source_tuples()[0]})
        )] * SHARD_MIN_BATCH
        assert kernel.batch_destroyed(masks, workers=2) == (
            kernel.batch_destroyed(masks)
        )

    def test_bit_id_vectors_match_int_masks(self):
        db, query, target = sj_workload(15, seed=12)
        kernel = why_provenance(query, db).kernel
        rng = random.Random(3)
        sources = db.all_source_tuples()
        deletion_sets = [
            frozenset(rng.sample(sources, rng.randint(1, 3)))
            for _ in range(SHARD_MIN_BATCH + 20)
        ]
        masks = [kernel.index.encode(d) for d in deletion_sets]
        flat = [kernel.index.encode_ids(d) for d in deletion_sets]
        for workers in (1, 2, 4):
            assert kernel.batch_destroyed(flat, workers=workers) == (
                kernel.batch_destroyed(masks)
            )

    def test_thread_and_process_backends_match(self):
        db, query, target = sj_workload(15, seed=10)
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=20, seed=10)
        snapshot = kernel._shard_snapshot()
        serial = sharded_destroyed_indices(snapshot, masks, 1)
        assert (
            sharded_destroyed_indices(snapshot, masks, 2, backend="thread")
            == serial
        )
        assert (
            sharded_destroyed_indices(snapshot, masks, 2, backend="process")
            == serial
        )

    def test_python_fallback_kernel_matches(self, monkeypatch):
        db, query, target = chain_workload(3, 8, seed=13)
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=30, seed=13)
        snapshot = kernel._shard_snapshot()
        expected = sharded_destroyed_indices(snapshot, masks, 2)
        assert (
            sharded_destroyed_indices(snapshot, masks, 2, force_python=True)
            == expected
        )
        # And with numpy reported missing entirely.
        monkeypatch.setattr(shards_module, "HAVE_NUMPY", False)
        fresh = ShardSnapshot.from_witness_table(
            kernel._table, len(kernel.index)
        )
        assert sharded_destroyed_indices(fresh, masks, 2) == expected

    def test_snapshot_pickle_round_trip(self):
        import pickle

        db, query, target = star_workload(3, 4, seed=14)
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=15, seed=14)
        snapshot = kernel._shard_snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.rows == snapshot.rows
        assert clone.destroyed_indices_chunk(masks, 0, len(masks)) == (
            snapshot.destroyed_indices_chunk(masks, 0, len(masks))
        )

    def test_random_instances_property(self):
        rng = random.Random(42)
        checked = 0
        for attempt in range(40):
            db, query = random_instance(seed=attempt)
            try:
                prov = why_provenance(query, db)
            except ReproError:
                continue
            kernel = prov.kernel
            if kernel is None or not len(kernel):
                continue
            sources = db.all_source_tuples()
            if not sources:
                continue
            masks = [
                kernel.index.encode(
                    frozenset(rng.sample(sources, rng.randint(1, min(3, len(sources)))))
                )
                for _ in range(25)
            ]
            serial = kernel.batch_destroyed(masks)
            for workers in (2, 4):
                assert kernel.batch_destroyed(masks, workers=workers) == serial
            checked += 1
            if checked >= 12:
                break
        assert checked >= 5  # the generator must yield usable instances


class TestWorkersPlumbing:
    """workers= flows through the oracle, solvers, dispatchers, and CLI."""

    def test_oracle_default_and_override(self):
        db, query, target = sj_workload(15, seed=1)
        baseline = HypotheticalDeletions(query, db)
        sharded = HypotheticalDeletions(query, db, workers=3)
        rng = random.Random(1)
        sources = db.all_source_tuples()
        deletion_sets = [
            frozenset(rng.sample(sources, rng.randint(1, 3))) for _ in range(30)
        ]
        expected = baseline.batch_view_after(deletion_sets)
        assert sharded.batch_view_after(deletion_sets) == expected
        assert baseline.batch_view_after(deletion_sets, workers=4) == expected
        expected_se = baseline.batch_side_effects(target, deletion_sets)
        assert sharded.batch_side_effects(target, deletion_sets) == expected_se

    @pytest.mark.parametrize("workload", ["sj", "star"])
    def test_dispatchers_identical_plans(self, workload):
        db, query, target = WORKLOADS[workload]()
        assert delete_view_tuple(query, db, target) == delete_view_tuple(
            query, db, target, workers=3
        )
        assert minimum_source_deletion(query, db, target) == (
            minimum_source_deletion(query, db, target, workers=3)
        )

    def test_enumerate_identical_plans(self):
        db, query, target = star_workload(3, 4, seed=6)
        assert enumerate_deletion_plans(query, db, target) == (
            enumerate_deletion_plans(query, db, target, workers=2)
        )

    def test_cli_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        payload = {
            "relations": [
                {
                    "name": "UserGroup",
                    "schema": ["user", "group"],
                    "rows": [["joe", "g1"], ["ann", "g1"]],
                },
                {
                    "name": "GroupFile",
                    "schema": ["group", "file"],
                    "rows": [["g1", "f1"]],
                },
            ]
        }
        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps(payload))
        query = "PROJECT[user, file](UserGroup JOIN GroupFile)"
        argv = [
            "delete", str(db_path), query, '["joe", "f1"]', "--workers", "2"
        ]
        assert main(argv) == 0
        sharded_out = capsys.readouterr().out
        assert main(argv[:-2]) == 0  # serial run
        assert capsys.readouterr().out == sharded_out
        # --workers must be positive: a usage error (exit 2), pre-work.
        with pytest.raises(SystemExit) as excinfo:
            main(argv[:-1] + ["0"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCacheCounters:
    """ProvenanceCache.clear() resets the counters (satellite fix)."""

    def test_clear_resets_counters(self):
        cache = ProvenanceCache(maxsize=4)
        cache.get_or_compute("why", object(), object(), "V", lambda: "p")
        cache.get_or_compute("why", object(), object(), "V", lambda: "q")
        assert cache.stats()["misses"] == 2
        cache.clear()
        stats = cache.stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "evictions": 0,
            "approx_bytes": 0,
            "bytes_high_water": 0,
            "max_bytes": None,
            "spills": 0,
            "spill_attaches": 0,
            "spilled_entries": 0,
            "plan_hits": 0,
            "plan_misses": 0,
            "plan_size": 0,
            "plan_evictions": 0,
            "witness_builds": 0,
            "witness_build_seconds": 0.0,
            "witness_rows": 0,
            "witness_count": 0,
            "invalidations": 0,
            "version_bumps": 0,
        }

    def test_reset_stats_keeps_entries(self):
        cache = ProvenanceCache(maxsize=4)
        query, db = object(), object()
        cache.get_or_compute("why", query, db, "V", lambda: "p")
        cache.reset_stats()
        assert cache.stats()["misses"] == 0
        assert len(cache) == 1
        # The entry is still served from cache (a hit, not a recompute).
        assert cache.get_or_compute("why", query, db, "V", lambda: "other") == "p"
        assert cache.stats()["hits"] == 1

    def test_shared_cache_clear_resets(self):
        db, query, target = sj_workload(8, seed=1)
        delete_view_tuple(query, db, target)
        provenance_cache.clear()
        stats = provenance_cache.stats()
        assert stats["hits"] == stats["misses"] == 0
        assert stats["plan_hits"] == stats["plan_misses"] == 0


class TestProvenanceRefusedFallback:
    """HypotheticalDeletions degrades to the plan path on guard errors."""

    def test_guard_error_falls_back_to_plan_path(self, monkeypatch):
        db, query, target = sj_workload(10, seed=2)
        reference = HypotheticalDeletions(query, db, use_provenance=False)

        def refuse(*args, **kwargs):
            raise ExponentialGuardError("witness sets refused as exponential")

        monkeypatch.setattr(
            hypothetical_module, "cached_why_provenance", refuse
        )
        oracle = HypotheticalDeletions(query, db)
        assert oracle.provenance is None
        assert not oracle.uses_masks
        deletions = frozenset({db.all_source_tuples()[0]})
        assert oracle.view_after(deletions) == reference.view_after(deletions)
        assert oracle.batch_view_after([deletions]) == (
            reference.batch_view_after([deletions])
        )

    def test_other_errors_still_propagate(self, monkeypatch):
        db, query, _target = sj_workload(10, seed=2)

        def boom(*args, **kwargs):
            raise ReproError("unrelated failure")

        monkeypatch.setattr(hypothetical_module, "cached_why_provenance", boom)
        with pytest.raises(ReproError, match="unrelated failure"):
            HypotheticalDeletions(query, db)


class TestSnapshotAgainstEmptyView:
    def test_empty_view_answers_empty(self):
        db = Database(
            [Relation("R", ["A"], [(1,)]), Relation("S", ["A"], [(2,)])]
        )
        from repro.algebra.parser import parse_query

        kernel = why_provenance(parse_query("R JOIN S"), db).kernel
        masks = [kernel.index.encode(frozenset({("R", (1,))})), 0]
        assert kernel.batch_destroyed(masks, workers=4) == (
            kernel.batch_destroyed(masks)
        )
        assert kernel.batch_destroyed(masks) == [frozenset(), frozenset()]


class TestIntAndIdDeletionForms:
    """Folded from the retired segmented-mask suite: every public survival
    method answers an int mask and its ascending id tuple identically, on
    the serial kernel and the sharded one, with the numpy chunk kernel and
    the pure-Python one."""

    @pytest.fixture(params=["spu", "sj"])
    def kernel_db(self, request):
        if request.param == "spu":
            db, query, target = spu_workload(30, seed=11)
        else:
            db, query, target = sj_workload(18, seed=12)
        return why_provenance(query, db).kernel, db, tuple(target)

    @pytest.fixture(params=["numpy", "python"])
    def force_python(self, request):
        """Whether the chunk kernel is pinned to its pure-Python form."""
        return request.param == "python"

    def _deletion_sets(self, db, seed, n):
        rng = random.Random(seed)
        sources = db.all_source_tuples()
        sets = [frozenset({s}) for s in sources[:10]]
        for _ in range(n):
            sets.append(
                frozenset(rng.sample(sources, rng.randint(1, min(4, len(sources)))))
            )
        return sets

    def test_serial_answers_match(self, kernel_db, force_python):
        kernel, db, target = kernel_db
        snapshot = kernel._shard_snapshot()
        all_rows = frozenset(kernel.rows)
        for dels in self._deletion_sets(db, seed=21, n=30):
            ids = kernel.encode_deletions_auto(dels)
            mask = kernel.index.encode(dels)
            for row in kernel.rows:
                assert kernel.survives_mask(row, ids) == kernel.survives_mask(
                    row, mask
                )
            assert kernel.side_effects_mask(target, ids) == (
                kernel.side_effects_mask(target, mask)
            )
            survivors = kernel.surviving_rows(ids)
            assert survivors == kernel.surviving_rows(mask)
            by_ids = snapshot.destroyed_indices_chunk(
                [ids], 0, 1, force_python=force_python
            )
            by_mask = snapshot.destroyed_indices_chunk(
                [mask], 0, 1, force_python=force_python
            )
            assert by_ids == by_mask
            destroyed = frozenset(snapshot.rows[i] for i in by_ids[0])
            assert all_rows - destroyed == survivors

    def test_batch_answers_match(self, kernel_db, force_python):
        kernel, db, target = kernel_db
        sets = self._deletion_sets(db, seed=22, n=SHARD_MIN_BATCH)
        ids = [kernel.encode_deletions_auto(d) for d in sets]
        masks = [kernel.index.encode(d) for d in sets]
        expected = kernel.batch_surviving_rows(masks)
        for workers in (None, 2):
            assert kernel.batch_surviving_rows(ids, workers=workers) == expected
            assert kernel.batch_side_effects_mask(
                target, ids, workers=workers
            ) == kernel.batch_side_effects_mask(target, masks)
        snapshot = kernel._shard_snapshot()
        by_ids = sharded_destroyed_indices(
            snapshot, ids, 2, backend="thread", force_python=force_python
        )
        assert by_ids == sharded_destroyed_indices(
            snapshot, masks, 2, backend="thread", force_python=force_python
        )
        all_rows = frozenset(kernel.rows)
        assert [
            all_rows - frozenset(snapshot.rows[i] for i in indices)
            for indices in by_ids
        ] == expected


class TestMmapOnHostsWithoutFork:
    def test_process_backend_ships_the_mmap_path(self, monkeypatch):
        from repro.parallel import close_pools, executor

        db, query, target = sj_workload(15, seed=10)
        kernel = why_provenance(query, db).kernel
        masks = _mask_vector(kernel, db, target, extra=20, seed=10)
        snapshot = kernel._shard_snapshot()
        serial = sharded_destroyed_indices(snapshot, masks, 1)
        assert snapshot._mmap_path is None
        monkeypatch.setattr(
            executor.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        try:
            got = sharded_destroyed_indices(
                snapshot, masks, 2, backend="process", chunk_size=10
            )
        finally:
            close_pools()
        assert got == serial
        # The snapshot travelled as a file path, not as a pickle.
        assert snapshot._mmap_path is not None
