"""The size-selected survival path: one answer whichever kernel runs.

:class:`~repro.provenance.bitset.BitsetProvenance` answers a batch vector
on :class:`~repro.provenance.witness_table.SurvivalIndex` when it is
shorter than :data:`~repro.provenance.bitset.VECTORIZED_MIN_BATCH`, and on
the vectorized kernel (:class:`~repro.provenance.witness_table.
VectorSurvival`, numpy + scipy) otherwise.  These tests pin that the
choice never changes an answer: on both sides of the threshold, for int
masks and id tuples, empty views and vectors, ids the kernel has never
seen, and with scipy taken away (the fallback to the survival index).
Every case is checked against the survival index one candidate at a time
and against :mod:`repro.oracle`.  The module runs on both numpy legs; the
cases that need the vectorized kernel skip without it.

It also pins that the retired ``workers`` knob is gone from every API
and the CLI, plus two unrelated checks that live here: the cache counter
reset, and that a failed provenance build surfaces from the oracle.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ReproError
from repro.algebra.parser import parse_query
from repro.algebra.relation import Database, Relation
from repro.deletion import (
    HypotheticalDeletions,
    delete_view_tuple,
    enumerate_deletion_plans,
    minimum_source_deletion,
)
from repro.deletion import hypothetical as hypothetical_module
from repro.oracle import interpret_view_rows
from repro.provenance import provenance_cache, witness_table
from repro.provenance.bitset import VECTORIZED_MIN_BATCH
from repro.provenance.cache import ProvenanceCache
from repro.provenance.why import why_provenance
from repro.workloads import (
    chain_workload,
    random_instance,
    sj_workload,
    spu_workload,
    star_workload,
)

HAVE_VECTORIZED = witness_table.scipy_sparse() is not None

requires_vectorized = pytest.mark.skipif(
    not HAVE_VECTORIZED, reason="the vectorized kernel needs numpy and scipy"
)

WORKLOADS = {
    "spu": lambda: spu_workload(40, seed=3),
    "sj": lambda: sj_workload(25, seed=4),
    "chain": lambda: chain_workload(3, 10, seed=5),
    "star": lambda: star_workload(3, 4, seed=6),
}


@pytest.fixture
def no_scipy(monkeypatch):
    """Make the vectorized kernel unavailable, as on a host without scipy."""
    monkeypatch.setattr(witness_table, "_SPARSE", False)


def _deletion_sets(kernel, db, target, extra: int, seed: int):
    """Single-tuple deletions plus random subsets of the target's witness
    universe: the population the exact solvers draw candidates from."""
    rng = random.Random(seed)
    universe = sorted(
        kernel.index.decode_mask(kernel.universe_mask(tuple(target))), key=repr
    )
    sets = [frozenset({s}) for s in db.all_source_tuples()]
    for _ in range(extra):
        size = rng.randint(1, min(4, len(universe)))
        sets.append(frozenset(rng.sample(universe, size)))
    return sets


class _Oracle:
    """Destroyed rows by re-interpreting the query, memoized per set."""

    def __init__(self, query, db):
        self.query, self.db = query, db
        self.baseline = interpret_view_rows(query, db)
        self._memo = {}

    def destroyed(self, deletions):
        if deletions not in self._memo:
            after = interpret_view_rows(self.query, self.db.delete(deletions))
            self._memo[deletions] = self.baseline - after
        return self._memo[deletions]


def _one_at_a_time(kernel, vector):
    """The survival index's answers: one-candidate vectors never vectorize."""
    return [kernel.batch_destroyed([c])[0] for c in vector]


def _check_all_ways(kernel, oracle, sets, vector):
    """``vector`` (the encoded ``sets``) answers like the survival index
    and the oracle, through all three batch methods."""
    expected = [oracle.destroyed(d) for d in sets]
    got = kernel.batch_destroyed(vector)
    assert got == _one_at_a_time(kernel, vector) == expected
    baseline = frozenset(kernel.relation().rows)
    assert kernel.batch_surviving_rows(vector) == [baseline - d for d in expected]
    for target in sorted(baseline, key=repr)[:2]:
        assert kernel.batch_side_effects_mask(target, vector) == [
            d - {target} for d in expected
        ]


def _vectorized(kernel) -> bool:
    """Whether the kernel built its vectorized kernel (a long vector ran)."""
    return bool(kernel._vector)


class TestSizeSelection:
    """The threshold: 127 stays on the survival index, 128 and up do not."""

    @pytest.mark.parametrize("length", [127, 128, 129])
    @pytest.mark.parametrize("workload", ["sj", "chain"])
    def test_vectors_around_the_threshold(self, workload, length):
        assert VECTORIZED_MIN_BATCH == 128
        db, query, target = WORKLOADS[workload]()
        kernel = why_provenance(query, db).kernel
        sets = _deletion_sets(kernel, db, target, extra=length, seed=length)
        sets = (sets * 2)[:length]
        vector = [kernel.encode_deletions_auto(d) for d in sets]
        _check_all_ways(kernel, _Oracle(query, db), sets, vector)
        assert _vectorized(kernel) == (
            HAVE_VECTORIZED and length >= VECTORIZED_MIN_BATCH
        )

    @requires_vectorized
    def test_long_random_vector(self):
        db, query, target = sj_workload(30, seed=21)
        kernel = why_provenance(query, db).kernel
        sets = _deletion_sets(kernel, db, target, extra=3000, seed=21)
        vector = [kernel.encode_deletions_auto(d) for d in sets]
        _check_all_ways(kernel, _Oracle(query, db), sets, vector)
        assert _vectorized(kernel)

    def test_no_scipy_long_vectors_use_the_survival_index(self, no_scipy):
        db, query, target = sj_workload(20, seed=22)
        kernel = why_provenance(query, db).kernel
        sets = _deletion_sets(kernel, db, target, extra=200, seed=22)
        vector = [kernel.encode_deletions_auto(d) for d in sets]
        _check_all_ways(kernel, _Oracle(query, db), sets, vector)
        assert kernel._vector_survival() is None


class TestShardedEquivalence:
    """Long-vector answers equal the survival index and the oracle."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("copies", [1, 2, 4])
    def test_batch_destroyed_matches_serial(self, workload, copies):
        """``copies`` repeats the vector, so identical answers are interned."""
        db, query, target = WORKLOADS[workload]()
        kernel = why_provenance(query, db).kernel
        sets = _deletion_sets(
            kernel, db, target, extra=VECTORIZED_MIN_BATCH, seed=copies
        ) * copies
        masks = [kernel.index.encode(d) for d in sets]
        oracle = _Oracle(query, db)
        got = kernel.batch_destroyed(masks)
        assert got == _one_at_a_time(kernel, masks)
        assert got == [oracle.destroyed(d) for d in sets]
        if HAVE_VECTORIZED and copies > 1:
            # Repeated candidates share one answer object.
            assert got[0] is got[len(got) // copies]

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_batch_side_effects_and_survivors_match_serial(self, workload):
        db, query, target = WORKLOADS[workload]()
        kernel = why_provenance(query, db).kernel
        sets = _deletion_sets(
            kernel, db, target, extra=VECTORIZED_MIN_BATCH + 40, seed=11
        )
        masks = [kernel.index.encode(d) for d in sets]
        target = tuple(target)
        effects = kernel.batch_side_effects_mask(target, masks)
        survivors = kernel.batch_surviving_rows(masks)
        for mask, effect, survivor in zip(masks, effects, survivors):
            assert kernel.batch_side_effects_mask(target, [mask]) == [effect]
            assert kernel.batch_surviving_rows([mask]) == [survivor]
        oracle = _Oracle(query, db)
        assert survivors == [oracle.baseline - oracle.destroyed(d) for d in sets]

    @requires_vectorized
    def test_random_chunk_boundaries(self, monkeypatch):
        """Answers do not depend on how the kernel chunks a long vector."""
        db, query, target = sj_workload(20, seed=9)
        kernel = why_provenance(query, db).kernel
        sets = _deletion_sets(kernel, db, target, extra=200, seed=9)
        masks = [kernel.index.encode(d) for d in sets]
        expected = _one_at_a_time(kernel, masks)
        rng = random.Random(7)
        for _ in range(10):
            monkeypatch.setattr(
                witness_table, "_VECTOR_CHUNK", rng.randint(1, len(masks) + 3)
            )
            assert kernel.batch_destroyed(masks) == expected

    def test_empty_vector_empty_mask_and_small_vectors(self):
        db, query, target = spu_workload(12, seed=2)
        kernel = why_provenance(query, db).kernel
        assert kernel.batch_destroyed([]) == []
        assert kernel.batch_surviving_rows([]) == []
        # The empty mask destroys nothing; everything survives.
        assert kernel.batch_destroyed([0]) == [frozenset()]
        (survivors,) = kernel.batch_surviving_rows([0])
        assert survivors == frozenset(kernel.relation().rows)
        # Empty masks and empty id tuples inside a long vector.
        sets = _deletion_sets(kernel, db, target, extra=VECTORIZED_MIN_BATCH, seed=2)
        padded = [kernel.index.encode(d) for d in sets]
        padded[::7] = [0] * len(padded[::7])
        padded[3::7] = [()] * len(padded[3::7])
        assert len(padded) >= VECTORIZED_MIN_BATCH
        answers = kernel.batch_destroyed(padded)
        assert answers == _one_at_a_time(kernel, padded)
        assert answers[0] == answers[3] == frozenset()

    def test_unknown_high_bits_destroy_nothing(self):
        """Ids the kernel has never seen are in no witness."""
        db, query, target = spu_workload(10, seed=8)
        kernel = why_provenance(query, db).kernel
        known = kernel.encode_deletions_auto({db.all_source_tuples()[0]})
        high = len(kernel.index) + 64
        vector = [(high,), (*known, high), (high, high + 1)] * VECTORIZED_MIN_BATCH
        answers = kernel.batch_destroyed(vector)
        assert answers == _one_at_a_time(kernel, vector)
        assert answers[0] == answers[2] == frozenset()
        assert answers[1] == kernel.batch_destroyed([known])[0]
        first = kernel.index.encode({db.all_source_tuples()[0]})
        masks = [1 << high, (1 << high) | first]
        assert kernel.batch_destroyed(masks * VECTORIZED_MIN_BATCH) == (
            [answers[0], answers[1]] * VECTORIZED_MIN_BATCH
        )

    def test_bit_id_vectors_match_int_masks(self):
        db, query, target = sj_workload(15, seed=12)
        kernel = why_provenance(query, db).kernel
        rng = random.Random(3)
        sources = db.all_source_tuples()
        deletion_sets = [
            frozenset(rng.sample(sources, rng.randint(1, 3)))
            for _ in range(VECTORIZED_MIN_BATCH + 20)
        ]
        masks = [kernel.index.encode(d) for d in deletion_sets]
        flat = [kernel.encode_deletions_auto(d) for d in deletion_sets]
        assert kernel.batch_destroyed(flat) == kernel.batch_destroyed(masks)
        assert kernel.batch_destroyed(flat) == _one_at_a_time(kernel, masks)

    def test_python_fallback_kernel_matches(self, monkeypatch):
        """Without scipy a long vector runs on the survival index."""
        db, query, target = chain_workload(3, 8, seed=13)
        sets = None
        answers = {}
        for scipy in (True, False):
            if not scipy:
                monkeypatch.setattr(witness_table, "_SPARSE", False)
            kernel = why_provenance(query, db).kernel
            if sets is None:
                sets = _deletion_sets(
                    kernel, db, target, extra=VECTORIZED_MIN_BATCH, seed=13
                )
            answers[scipy] = kernel.batch_destroyed(
                [kernel.encode_deletions_auto(d) for d in sets]
            )
            assert _vectorized(kernel) == (scipy and HAVE_VECTORIZED)
        oracle = _Oracle(query, db)
        assert answers[True] == answers[False] == [oracle.destroyed(d) for d in sets]

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
            sources = db.all_source_tuples()
            if not len(kernel) or not sources:
                continue
            sets = [
                frozenset(rng.sample(sources, rng.randint(1, min(3, len(sources)))))
                for _ in range(VECTORIZED_MIN_BATCH + 3)
            ]
            masks = [kernel.index.encode(d) for d in sets]
            oracle = _Oracle(query, db)
            assert kernel.batch_destroyed(masks) == [oracle.destroyed(d) for d in sets]
            checked += 1
            if checked >= 12:
                break
        assert checked >= 5  # the generator must yield usable instances


class TestWorkersPlumbing:
    """The ``workers`` knob is gone: passing it is an error everywhere, and
    the solvers' plans do not depend on which survival kernel ran."""

    def test_oracle_default_and_override(self):
        db, query, target = sj_workload(15, seed=1)
        with pytest.raises(TypeError):
            HypotheticalDeletions(query, db, workers=3)
        oracle = HypotheticalDeletions(query, db)
        deletion_sets = [frozenset({s}) for s in db.all_source_tuples()]
        with pytest.raises(TypeError):
            oracle.batch_view_after(deletion_sets, workers=4)
        with pytest.raises(TypeError):
            oracle.batch_side_effects(target, deletion_sets, workers=4)
        with pytest.raises(TypeError):
            oracle.provenance.kernel.batch_destroyed([], workers=2)

    @pytest.mark.parametrize("workload", ["sj", "star"])
    def test_dispatchers_identical_plans(self, workload, monkeypatch):
        db, query, target = WORKLOADS[workload]()
        for solve in (delete_view_tuple, minimum_source_deletion):
            with pytest.raises(TypeError):
                solve(query, db, target, workers=3)
        plans = delete_view_tuple(query, db, target), minimum_source_deletion(
            query, db, target
        )
        provenance_cache.clear()
        monkeypatch.setattr(witness_table, "_SPARSE", False)
        assert plans == (
            delete_view_tuple(query, db, target),
            minimum_source_deletion(query, db, target),
        )

    def test_enumerate_identical_plans(self, monkeypatch):
        """A full enumeration is one long vector: both kernels agree."""
        db, query, target = star_workload(3, 4, seed=6)
        with pytest.raises(TypeError):
            enumerate_deletion_plans(query, db, target, workers=2)
        plans = enumerate_deletion_plans(query, db, target)
        provenance_cache.clear()
        monkeypatch.setattr(witness_table, "_SPARSE", False)
        assert enumerate_deletion_plans(query, db, target) == plans

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
        argv = ["delete", str(db_path), query, '["joe", "f1"]']
        assert main(argv) == 0
        capsys.readouterr()
        # --workers no longer exists: a usage error (exit 2), pre-work.
        for command in (argv, ["serve", str(db_path)]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--workers", "2"])
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
            "plan_hits": 0,
            "plan_misses": 0,
            "plan_size": 0,
            "plan_evictions": 0,
            "invalidations": 0,
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
    """A failed provenance build surfaces; there is no second mode."""

    def test_other_errors_still_propagate(self, monkeypatch):
        db, query, _target = sj_workload(10, seed=2)

        def boom(*args, **kwargs):
            raise ReproError("unrelated failure")

        monkeypatch.setattr(hypothetical_module, "cached_why_provenance", boom)
        with pytest.raises(ReproError, match="unrelated failure"):
            HypotheticalDeletions(query, db)


class TestSnapshotAgainstEmptyView:
    def test_empty_view_answers_empty(self):
        """An empty view: every candidate, on either kernel, destroys nothing."""
        db = Database(
            [Relation("R", ["A"], [(1,)]), Relation("S", ["A"], [(2,)])]
        )
        kernel = why_provenance(parse_query("R JOIN S"), db).kernel
        assert len(kernel) == 0
        candidates = [kernel.index.encode(frozenset({("R", (1,))})), 0, (5,)]
        for length in (3, VECTORIZED_MIN_BATCH + 1):
            vector = (candidates * length)[:length]
            assert kernel.batch_destroyed(vector) == [frozenset()] * length
            assert kernel.batch_surviving_rows(vector) == [frozenset()] * length


class TestIntAndIdDeletionForms:
    """Every public survival method answers an int mask and its ascending
    id tuple identically, with long vectors on the vectorized kernel
    (``numpy``) or, with scipy taken away, on the survival index
    (``python``)."""

    @pytest.fixture(params=["spu", "sj"])
    def kernel_db(self, request):
        if request.param == "spu":
            db, query, target = spu_workload(30, seed=11)
        else:
            db, query, target = sj_workload(18, seed=12)
        return query, db, tuple(target)

    @pytest.fixture(params=["numpy", "python"])
    def force_python(self, request, monkeypatch):
        """Whether long vectors are pinned to the pure-Python kernel."""
        if request.param == "python":
            monkeypatch.setattr(witness_table, "_SPARSE", False)
        elif not HAVE_VECTORIZED:
            pytest.skip("the vectorized kernel needs numpy and scipy")
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
        query, db, target = kernel_db
        kernel = why_provenance(query, db).kernel
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
            (destroyed,) = kernel.batch_destroyed([ids])
            assert kernel.batch_destroyed([mask]) == [destroyed]
            assert all_rows - destroyed == survivors

    def test_batch_answers_match(self, kernel_db, force_python):
        query, db, target = kernel_db
        kernel = why_provenance(query, db).kernel
        sets = self._deletion_sets(db, seed=22, n=VECTORIZED_MIN_BATCH)
        ids = [kernel.encode_deletions_auto(d) for d in sets]
        masks = [kernel.index.encode(d) for d in sets]
        expected = kernel.batch_surviving_rows(masks)
        assert kernel.batch_surviving_rows(ids) == expected
        assert kernel.batch_side_effects_mask(target, ids) == (
            kernel.batch_side_effects_mask(target, masks)
        )
        assert _vectorized(kernel) is not force_python
        oracle = _Oracle(query, db)
        assert expected == [oracle.baseline - oracle.destroyed(d) for d in sets]
