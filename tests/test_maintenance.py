"""The versioned write path is invisible to readers (PR 9).

``apply_delta`` must be *extensionally equivalent* to tearing everything
down and rebuilding over the post-delta database: same view rows, same
decoded witnesses, same hypothetical-deletion answers — on the numpy
columnar path and on the tuple executor that is the no-numpy path (checked
against :mod:`repro.oracle`), across random interleavings of deletes,
inserts, and queries (Hypothesis), including source ids past 512 and
mixed-type columns.  Version-stamped snapshots must
refuse (or transparently replace) stale mmap attachments on the thread and
spawn pool backends, and the serving engine's warm per-(db, query) oracles
must be patched/reused — never silently wrong — under real writes and
re-registration.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, StaleSnapshotError
from repro.algebra.parser import parse_query
from repro.algebra.relation import Database, Relation
from repro.algebra.stats import MaintainedStatistics, TableStatistics, stats_version
from repro.columnar.store import ColumnStore
from repro.deletion.hypothetical import HypotheticalDeletions
from repro.parallel import executor
from repro.parallel.executor import _attach_cached, _run_chunk_mmap, sharded_destroyed_indices
from repro.parallel.shards import ShardSnapshot
from repro.provenance.bitset import bitset_why_provenance
from repro.provenance.cache import ProvenanceCache, cached_plan, provenance_cache
from repro.provenance.interning import SourceIndex
from repro.provenance.witness_table import SurvivalIndex
from repro.service.batcher import MicroBatcher
from repro.service.engine import ServiceEngine
from repro.service.requests import (
    ApplyDeltaRequest,
    ApplyDeltaResponse,
    HypotheticalRequest,
    WhyRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.oracle import legacy_witnesses
from repro.versioning import DatabaseVersion, Delta, VersionedDatabase
from repro.workloads import random_instance

seeds = st.integers(min_value=0, max_value=100_000)


def _base_db():
    return Database(
        [
            Relation("R", ("a", "b"), [(1, 2), (3, 4), (2, 5), (7, 2)]),
            Relation("S", ("b", "c"), [(2, 7), (4, 8), (5, 9)]),
            Relation("T", ("z",), [(0,), (1,)]),
        ]
    )


JOIN_QUERY = parse_query("PROJECT[a, c](R JOIN S)")
OTHER_QUERY = parse_query("PROJECT[z](T)")
SELF_JOIN_QUERY = parse_query("PROJECT[a](R JOIN RENAME[b->a, a->c](R))")


# ----------------------------------------------------------------------
# Database write primitives
# ----------------------------------------------------------------------

class TestDatabaseWrites:
    def test_insert_adds_rows(self):
        db = _base_db()
        out = db.insert([("T", (9,)), ("T", (10,))])
        assert out["T"].rows == frozenset({(0,), (1,), (9,), (10,)})
        assert db["T"].rows == frozenset({(0,), (1,)})  # immutability

    def test_insert_unknown_relation(self):
        with pytest.raises(EvaluationError, match="unknown relation"):
            _base_db().insert([("Nope", (1,))])

    def test_insert_bad_arity(self):
        with pytest.raises(Exception):
            _base_db().insert([("T", (1, 2))])

    def test_apply_delete_then_insert(self):
        db = _base_db()
        out = db.apply(deletions=[("T", (0,))], inserts=[("T", (0,)), ("T", (5,))])
        # delete-then-insert: (0,) is removed and re-added.
        assert out["T"].rows == frozenset({(0,), (1,), (5,)})


class TestMaintainedStatistics:
    def test_matches_fresh_collection(self):
        db = _base_db()
        stats = MaintainedStatistics(db)
        deltas = [
            ({("R", (1, 2))}, {("R", (10, 11)), ("S", (11, 12))}),
            ({("S", (2, 7)), ("S", (4, 8))}, set()),
            (set(), {("T", (i,)) for i in range(5, 20)}),
        ]
        for removed, added in deltas:
            removed = {p for p in removed if p[1] in db[p[0]].rows}
            added = {p for p in added if p[1] not in db[p[0]].rows}
            db = db.apply(removed, added)
            stats.apply_delta(removed, added)
            fresh = TableStatistics.from_database(db)
            snap = stats.snapshot()
            for name in db:
                assert snap.relation(name).rows == fresh.relation(name).rows
                assert snap.relation(name).distinct == fresh.relation(name).distinct
            assert stats.version(db.names()) == stats_version(db, db.names())

    def test_bumped_names_track_buckets(self):
        db = Database([Relation("R", ("a",), [(i,) for i in range(4)])])
        stats = MaintainedStatistics(db)
        # 4 rows -> 5 rows crosses the bit_length bucket (3 -> 3)? 4=100 (3), 5=101 (3)
        assert stats.apply_delta((), {("R", (100,))}) == ()
        # 5 -> 8 rows: bit_length 3 -> 4, one bump.
        added = {("R", (200 + i,)) for i in range(3)}
        assert stats.apply_delta((), added) == ("R",)


class TestVersionedDatabase:
    def test_epoch_and_log(self):
        vdb = VersionedDatabase(_base_db(), name="base")
        assert vdb.epoch == 0
        delta = vdb.apply_delta(deletions=[("T", (0,))])
        assert bool(delta) and vdb.epoch == 1
        assert vdb.log() == (delta,)
        assert (0,) not in vdb.db["T"].rows

    def test_noop_delta_does_not_bump(self):
        vdb = VersionedDatabase(_base_db())
        delta = vdb.apply_delta(deletions=[("T", (42,))])  # absent row
        assert not delta and vdb.epoch == 0
        delta = vdb.apply_delta(
            deletions=[("T", (0,))], inserts=[("T", (0,))]
        )  # delete-then-insert of a present row: net no-op
        assert not delta and vdb.epoch == 0

    def test_unknown_relation_rejected_before_state_moves(self):
        vdb = VersionedDatabase(_base_db())
        with pytest.raises(EvaluationError, match="unknown relation"):
            vdb.apply_delta(inserts=[("Nope", (1,))])
        assert vdb.epoch == 0

    def test_version_tokens(self):
        a0 = DatabaseVersion("a", 0)
        assert a0 == DatabaseVersion("a", 0) and a0 < DatabaseVersion("a", 1)
        assert a0 != DatabaseVersion("b", 0)
        with pytest.raises(ValueError):
            a0 < DatabaseVersion("b", 1)

    def test_log_bounded(self):
        vdb = VersionedDatabase(_base_db(), log_limit=2)
        for i in range(4):
            vdb.apply_delta(inserts=[("T", (100 + i,))])
        log = vdb.log()
        assert len(log) == 2 and log[-1].epoch == 4


# ----------------------------------------------------------------------
# Kernel-level incremental maintenance
# ----------------------------------------------------------------------

def _decoded_state(prov):
    """The decoded, order-free content of a kernel: rows + witnesses."""
    return (frozenset(prov.rows), prov.decode_all())


def _assert_kernels_equal(patched, fresh):
    assert _decoded_state(patched) == _decoded_state(fresh)


class TestKernelApplyDelta:
    def _check(self, query, db, removed, added, store=None):
        prov = bitset_why_provenance(query, db, store=store)
        vdb = VersionedDatabase(db)
        delta = vdb.apply_delta(removed, added)
        new_db = vdb.db
        inserted_by = {}
        for rel, row in delta.inserts:
            inserted_by.setdefault(rel, []).append(row)
        patched = prov.apply_delta(
            new_db,
            deleted_sources=delta.deletions,
            inserted_by_name=inserted_by,
            query=query,
        )
        fresh = bitset_why_provenance(query, new_db)
        _assert_kernels_equal(patched, fresh)
        # the original kernel is never mutated
        _assert_kernels_equal(prov, bitset_why_provenance(query, db))
        return patched, new_db

    def test_deletions_only(self):
        self._check(JOIN_QUERY, _base_db(), [("R", (1, 2)), ("S", (5, 9))], [])

    def test_inserts_only(self):
        self._check(JOIN_QUERY, _base_db(), [], [("S", (2, 99)), ("R", (8, 4))])

    def test_mixed_delta(self):
        self._check(
            JOIN_QUERY,
            _base_db(),
            [("R", (3, 4)), ("T", (0,))],
            [("S", (4, 50)), ("R", (6, 5))],
        )

    def test_insert_into_self_join_falls_back(self):
        # R occurs twice: the delta-branch decomposition is unsound, so the
        # kernel must re-annotate — and still match the fresh build.
        self._check(SELF_JOIN_QUERY, _base_db(), [], [("R", (2, 1))])

    @pytest.mark.requires_numpy
    def test_columnar_store_built_kernel(self):
        db = _base_db()
        self._check(
            JOIN_QUERY, db, [("R", (1, 2))], [("S", (2, 42))], store=ColumnStore(db)
        )

    def test_pure_python_kernel(self):
        """The no-numpy path (a tuple-built kernel, no store) patched
        across a mixed delta decodes to the frozenset oracle."""
        patched, new_db = self._check(
            JOIN_QUERY, _base_db(), [("R", (1, 2))], [("S", (2, 42))]
        )
        assert patched.decode_all() == legacy_witnesses(JOIN_QUERY, new_db)

    def test_delta_touching_irrelevant_relation(self):
        self._check(JOIN_QUERY, _base_db(), [("T", (0,))], [("T", (9,))])

    def test_insert_needs_query(self):
        db = _base_db()
        prov = bitset_why_provenance(JOIN_QUERY, db)
        new_db = db.insert([("S", (2, 99))])
        with pytest.raises(ValueError, match="needs the query"):
            prov.apply_delta(new_db, inserted_by_name={"S": [(2, 99)]})

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_random_instances(self, seed):
        db, query = random_instance(seed, max_depth=2)
        names = sorted(query.relation_names() & frozenset(db.names()))
        if not names:
            return
        rng_rows = sorted(db[names[0]].rows, key=repr)
        removed = [(names[0], rng_rows[0])] if rng_rows else []
        arity = db[names[-1]].schema.arity
        added = [(names[-1], tuple(900 + i for i in range(arity)))]
        try:
            self._check(query, db, removed, added)
        except Exception as err:
            if type(err).__name__ == "ExponentialGuardError":
                return
            raise


def _survival_by_row(prov):
    """A kernel's survival-index content keyed by row and source tuple —
    free of slot order and of the interning index it was built over."""
    state = prov._survival_index()
    decode = prov.index.decode
    wits = {
        state.rows[slot]: frozenset(frozenset(map(decode, w)) for w in ws)
        for slot, ws in enumerate(state.wits)
        if ws
    }
    touched = {
        decode(bit): frozenset(state.rows[slot] for slot in slots)
        for bit, slots in state.touched.items()
    }
    return wits, touched


class TestDerivedCachePatching:
    def _delta(self, prov, db):
        vdb = VersionedDatabase(db)
        delta = vdb.apply_delta(
            deletions=[("R", (3, 4)), ("S", (2, 7))],
            inserts=[("S", (2, 99)), ("R", (8, 5))],
        )
        inserted_by = {}
        for rel, row in delta.inserts:
            inserted_by.setdefault(rel, []).append(row)
        patched = prov.apply_delta(
            vdb.db,
            deleted_sources=delta.deletions,
            inserted_by_name=inserted_by,
            query=JOIN_QUERY,
        )
        return patched, vdb.db

    def test_warm_caches_patched_match_fresh(self, monkeypatch):
        db = _base_db()
        prov = bitset_why_provenance(JOIN_QUERY, db)
        # One probe warms the survival index.
        prov.surviving_rows(
            prov.encode_deletions_auto(frozenset({("R", (1, 2))}))
        )
        warm = prov._survival
        assert warm is not None
        before = _survival_by_row(prov)
        # From here on a rebuild would be a bug: the write must patch.
        monkeypatch.setattr(
            SurvivalIndex,
            "build",
            classmethod(lambda cls, table: pytest.fail("index was rebuilt")),
        )
        patched, new_db = self._delta(prov, db)
        assert patched._survival is not None and patched._survival is not warm
        candidates = ([("R", (1, 2))], [("S", (4, 8))], [("R", (8, 5))])
        got = [
            patched.surviving_rows(patched.encode_deletions_auto(frozenset(c)))
            for c in candidates
        ]
        monkeypatch.undo()
        # The original kernel's index is untouched.
        assert prov._survival is warm and _survival_by_row(prov) == before
        fresh = bitset_why_provenance(JOIN_QUERY, new_db, index=prov.index)
        assert _survival_by_row(patched) == _survival_by_row(fresh)
        assert got == [
            fresh.surviving_rows(fresh.encode_deletions_auto(frozenset(c)))
            for c in candidates
        ]

    def test_cold_kernel_skips_cache_patch(self):
        db = _base_db()
        prov = bitset_why_provenance(JOIN_QUERY, db)
        assert prov._survival is None  # never probed: cold
        patched, new_db = self._delta(prov, db)
        assert patched._survival is None  # stays lazily cold
        assert prov._survival is None
        _assert_kernels_equal(patched, bitset_why_provenance(JOIN_QUERY, new_db))

    def test_delete_reinsert_cycles_reuse_slots(self):
        db = _base_db()
        kernel = bitset_why_provenance(JOIN_QUERY, db)
        kernel.surviving_rows(kernel.encode_deletions_auto([("S", (2, 7))]))
        slots = len(kernel._survival.rows)
        source = ("R", (1, 2))
        for _ in range(5):
            for removed, added in (([source], []), ([], [source])):
                db = db.apply(removed, added)
                kernel = kernel.apply_delta(
                    db,
                    deleted_sources=removed,
                    inserted_by_name={"R": [source[1]]} if added else None,
                    query=JOIN_QUERY,
                )
                assert kernel._survival is not None
        assert len(kernel._survival.rows) == slots
        assert _survival_by_row(kernel) == _survival_by_row(
            bitset_why_provenance(JOIN_QUERY, db, index=kernel.index)
        )


class TestWitnessTableSegmentBoundary:
    def test_delta_across_segment_boundary(self):
        # Interning > 512 sources puts witness bits on both sides of id
        # 512; drops on both sides must stay exact.
        n = 512 + 40
        db = Database(
            [
                Relation("R", ("a", "b"), [(i, i % 7) for i in range(n)]),
                Relation("S", ("b", "c"), [(j, j + 100) for j in range(7)]),
            ]
        )
        query = JOIN_QUERY
        prov = bitset_why_provenance(query, db)
        assert len(prov.index) > 512
        removed = [("R", (0, 0)), ("R", (n - 1, (n - 1) % 7)), ("S", (3, 103))]
        added = [("R", (n + 5, 3)), ("S", (2, 777))]
        vdb = VersionedDatabase(db)
        delta = vdb.apply_delta(removed, added)
        inserted_by = {}
        for rel, row in delta.inserts:
            inserted_by.setdefault(rel, []).append(row)
        patched = prov.apply_delta(
            vdb.db,
            deleted_sources=delta.deletions,
            inserted_by_name=inserted_by,
            query=query,
        )
        _assert_kernels_equal(patched, bitset_why_provenance(query, vdb.db))


# ----------------------------------------------------------------------
# Hypothesis: interleavings vs the full-rebuild oracle (satellite 6)
# ----------------------------------------------------------------------

#: Mixed-type candidate rows for R(a, b) / S(b, c) — ints, strings, bools,
#: floats that collapse with ints, None.
_R_ROWS = [(1, 2), (3, 4), ("x", 2), (True, 4), (2.5, "y"), (None, 2), (7, "y")]
_S_ROWS = [(2, 7), (4, 8), (2, "f"), ("y", None), (4, 4.0)]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("del_r"), st.sampled_from(_R_ROWS)),
        st.tuples(st.just("ins_r"), st.sampled_from(_R_ROWS)),
        st.tuples(st.just("del_s"), st.sampled_from(_S_ROWS)),
        st.tuples(st.just("ins_s"), st.sampled_from(_S_ROWS)),
        st.tuples(st.just("query"), st.just(None)),
    ),
    min_size=1,
    max_size=8,
)


def _run_interleaving(ops, against_oracle=False):
    db = Database(
        [
            Relation("R", ("a", "b"), _R_ROWS[:4]),
            Relation("S", ("b", "c"), _S_ROWS[:3]),
        ]
    )
    query = JOIN_QUERY
    vdb = VersionedDatabase(db)
    kernel = bitset_why_provenance(query, db)
    for op, row in ops:
        if op == "query":
            fresh = bitset_why_provenance(query, vdb.db)
            assert _decoded_state(kernel) == _decoded_state(fresh)
            if against_oracle:
                assert kernel.decode_all() == legacy_witnesses(query, vdb.db)
            # hypothetical answers ride the patched kernel identically
            candidates = [
                frozenset({("R", r)}) for r in _R_ROWS[:3]
            ] + [frozenset({("S", s)}) for s in _S_ROWS[:2]]
            for cand in candidates:
                assert kernel.surviving_rows(
                    kernel.encode_deletions_auto(cand)
                ) == fresh.surviving_rows(fresh.encode_deletions_auto(cand))
            # the warm index, patched across every write, matches too
            assert _survival_by_row(kernel) == _survival_by_row(fresh)
            continue
        removed = [("R" if op == "del_r" else "S", row)] if op.startswith("del") else []
        added = [("R" if op == "ins_r" else "S", row)] if op.startswith("ins") else []
        delta = vdb.apply_delta(removed, added)
        if not delta:
            continue
        inserted_by = {}
        for rel, r in delta.inserts:
            inserted_by.setdefault(rel, []).append(r)
        kernel = kernel.apply_delta(
            vdb.db,
            deleted_sources=delta.deletions,
            inserted_by_name=inserted_by,
            query=query,
        )
    assert _decoded_state(kernel) == _decoded_state(
        bitset_why_provenance(query, vdb.db)
    )


class TestInterleavingProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_interleavings_match_rebuild(self, ops):
        _run_interleaving(ops)

    @settings(max_examples=15, deadline=None)
    @given(ops=_ops)
    def test_interleavings_pure_python(self, ops):
        """The tuple-built kernel (the no-numpy path) stays equal to the
        frozenset oracle after every write."""
        _run_interleaving(ops, against_oracle=True)


# ----------------------------------------------------------------------
# Snapshot staleness (satellite 3)
# ----------------------------------------------------------------------

def _stamped_snapshot(db, query, epoch, name="db"):
    prov = bitset_why_provenance(query, db)
    snap = prov._shard_snapshot()
    snap.version = DatabaseVersion(name, epoch)
    return prov, snap


class TestSnapshotStaleness:
    def test_attach_refuses_stale_file(self, tmp_path):
        _, snap = _stamped_snapshot(_base_db(), JOIN_QUERY, epoch=1)
        path = str(tmp_path / "snap.flat")
        snap.write_file(path)
        attached = ShardSnapshot.attach_file(
            path, expect_version=DatabaseVersion("db", 1)
        )
        assert attached.version == DatabaseVersion("db", 1)
        with pytest.raises(StaleSnapshotError):
            ShardSnapshot.attach_file(
                path, expect_version=DatabaseVersion("db", 2)
            )

    def test_attach_unversioned_file_vs_expectation(self, tmp_path):
        prov = bitset_why_provenance(JOIN_QUERY, _base_db())
        snap = prov._shard_snapshot()
        assert snap.version is None
        path = str(tmp_path / "plain.flat")
        snap.write_file(path)
        # No expectation: fine.  An expectation against an unstamped file
        # must refuse (absent counts as mismatched).
        assert ShardSnapshot.attach_file(path).version is None
        with pytest.raises(StaleSnapshotError):
            ShardSnapshot.attach_file(
                path, expect_version=DatabaseVersion("db", 1)
            )

    def test_attach_cached_transparently_reattaches(self, tmp_path):
        db = _base_db()
        _, snap1 = _stamped_snapshot(db, JOIN_QUERY, epoch=1)
        path = str(tmp_path / "snap.flat")
        snap1.write_file(path)
        executor._ATTACHED.clear()
        first = _attach_cached(path, DatabaseVersion("db", 1))
        assert first.version == DatabaseVersion("db", 1)
        # The database advances; the file is rewritten in place.
        vdb = VersionedDatabase(db, name="db")
        vdb.apply_delta(deletions=[("R", (1, 2))])
        _, snap2 = _stamped_snapshot(vdb.db, JOIN_QUERY, epoch=2)
        snap2.write_file(path)
        second = _attach_cached(path, DatabaseVersion("db", 2))
        assert second is not first
        assert second.version == DatabaseVersion("db", 2)
        # Asking for the superseded epoch now refuses.
        with pytest.raises(StaleSnapshotError):
            _attach_cached(path, DatabaseVersion("db", 1))
        executor._ATTACHED.clear()

    def test_thread_backend_stale_mmap_refused(self):
        db = _base_db()
        prov, snap = _stamped_snapshot(db, JOIN_QUERY, epoch=1)
        masks = [prov.encode_deletions_auto(frozenset({("R", (1, 2))})), 0, 3]
        expected = sharded_destroyed_indices(snap, masks, workers=1)
        executor._ATTACHED.clear()
        got = sharded_destroyed_indices(
            snap, masks, workers=2, backend="thread", ship_mmap=True
        )
        assert got == expected
        # Overwrite the snapshot's own mmap file with a later epoch: the
        # next sharded call's tasks still expect epoch 1 and must refuse.
        path = snap.mmap_file()
        _, newer = _stamped_snapshot(db, JOIN_QUERY, epoch=2)
        newer.write_file(path)
        executor._ATTACHED.clear()
        with pytest.raises(StaleSnapshotError):
            sharded_destroyed_indices(
                snap, masks, workers=2, backend="thread", ship_mmap=True
            )
        executor._ATTACHED.clear()

    def test_spawn_backend_stale_mmap_refused(self, tmp_path):
        db = _base_db()
        prov, snap = _stamped_snapshot(db, JOIN_QUERY, epoch=1)
        path = str(tmp_path / "snap.flat")
        snap.write_file(path)
        masks = [prov.encode_deletions_auto(frozenset({("R", (1, 2))})), 0]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            ok = pool.map(_run_chunk_mmap, [(path, masks, snap.version)])
            executor._ATTACHED.clear()
            expected = [
                ShardSnapshot.attach_file(path).destroyed_indices_chunk(
                    masks, 0, len(masks)
                )
            ]
            assert ok == expected
            with pytest.raises(StaleSnapshotError):
                pool.map(
                    _run_chunk_mmap,
                    [(path, masks, DatabaseVersion("db", 9))],
                )
        executor._ATTACHED.clear()

    def test_pickle_round_trip_keeps_version(self):
        _, snap = _stamped_snapshot(_base_db(), JOIN_QUERY, epoch=3)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.version == DatabaseVersion("db", 3)


# ----------------------------------------------------------------------
# ColumnStore append/tombstone form
# ----------------------------------------------------------------------

@pytest.mark.requires_numpy
class TestColumnStoreDelta:
    def _roundtrip(self):
        db = _base_db()
        store = ColumnStore(db)
        vdb = VersionedDatabase(db)
        delta = vdb.apply_delta(
            deletions=[("R", (1, 2))], inserts=[("S", (2, 99)), ("S", (6, 1))]
        )
        new_db = vdb.db
        patched = store.apply_delta(
            new_db, {"R": [(1, 2)]}, {"S": [(2, 99), (6, 1)]}
        )
        assert patched.matches(new_db) and not patched.spill_save("/dev/null")
        for name in new_db:
            rc = patched.relation_columns(name)
            assert frozenset(rc.rows) == new_db[name].rows
            # the shared index serves both stores consistently
            for i, row in enumerate(rc.rows):
                assert patched.index.id_of((name, row)) == int(rc.row_ids[i])
        # old store unchanged
        for name in db:
            assert frozenset(store.relation_columns(name).rows) == db[name].rows
        # kernels over the patched store decode identically to a fresh build
        prov = bitset_why_provenance(JOIN_QUERY, new_db, store=patched)
        fresh = bitset_why_provenance(JOIN_QUERY, new_db)
        assert _decoded_state(prov) == _decoded_state(fresh)

    def test_numpy_path(self):
        self._roundtrip()

    def test_chained_deltas(self):
        db = _base_db()
        store = ColumnStore(db)
        db2 = db.apply([("R", (1, 2))], [("R", (9, 9))])
        s2 = store.apply_delta(db2, {"R": [(1, 2)]}, {"R": [(9, 9)]})
        db3 = db2.apply([("R", (9, 9))], [("S", (9, 9))])
        s3 = s2.apply_delta(db3, {"R": [(9, 9)]}, {"S": [(9, 9)]})
        for name in db3:
            assert frozenset(s3.relation_columns(name).rows) == db3[name].rows

    def test_compaction_threshold_relowers(self):
        rows = [(i, i + 1) for i in range(40)]
        db = Database([Relation("R", ("a", "b"), rows)])
        store = ColumnStore(db)
        store.relation_columns("R")
        # tombstone over a quarter of the base: pending must relower fully
        dead = rows[:20]
        db2 = db.apply([("R", r) for r in dead], [])
        s2 = store.apply_delta(db2, {"R": dead}, {})
        assert frozenset(s2.relation_columns("R").rows) == db2["R"].rows


# ----------------------------------------------------------------------
# ProvenanceCache write-path primitives (satellite 2)
# ----------------------------------------------------------------------

class TestCacheWritePath:
    def test_seed_peek_invalidate(self):
        cache = ProvenanceCache(maxsize=8)
        query, db_a, db_b = object(), object(), object()
        cache.seed("why", query, db_a, "V", "warm-a")
        cache.seed("why", query, db_b, "V", "warm-b")
        assert cache.peek("why", query, db_a, "V") == "warm-a"
        assert cache.peek("why", query, db_a, "other") is None
        assert cache.stats()["invalidations"] == 0
        dropped = cache.invalidate_database(db_a)
        assert dropped == 1
        assert cache.peek("why", query, db_a, "V") is None
        assert cache.peek("why", query, db_b, "V") == "warm-b"
        assert cache.stats()["invalidations"] == 1

    def test_version_bump_counter(self):
        cache = ProvenanceCache(maxsize=4)
        cache.note_version_bump()
        cache.note_version_bump()
        assert cache.stats()["version_bumps"] == 2
        cache.reset_stats()
        assert cache.stats()["version_bumps"] == 0

    def test_engine_surfaces_cache_counters(self):
        with ServiceEngine({"db": _base_db()}) as engine:
            stats = engine.stats()
            assert "invalidations" in stats["cache"]
            assert "version_bumps" in stats["cache"]


# ----------------------------------------------------------------------
# ServiceEngine write path + re-registration reuse (satellites 1, 2)
# ----------------------------------------------------------------------

QUERY_TEXT = "PROJECT[a, c](R JOIN S)"
OTHER_TEXT = "PROJECT[z](T)"


class TestEngineWritePath:
    def test_apply_delta_matches_cold_engine(self):
        with ServiceEngine({"db": _base_db()}) as engine:
            engine.oracle("db", QUERY_TEXT)
            engine.oracle("db", OTHER_TEXT)
            resp = engine.execute(
                ApplyDeltaRequest(
                    "db",
                    deletions=frozenset({("R", (1, 2))}),
                    inserts=frozenset({("S", (4, 99))}),
                )
            )
            assert resp.ok and resp.epoch == 1
            assert resp.patched == 1 and resp.reused == 1 and resp.rebuilt == 0
            with ServiceEngine({"db": engine.database("db")}) as cold:
                warm_rows = sorted(engine.oracle("db", QUERY_TEXT).rows)
                assert warm_rows == sorted(cold.oracle("db", QUERY_TEXT).rows)
                probe = HypotheticalRequest(
                    "db", QUERY_TEXT, frozenset({("R", (3, 4))})
                )
                assert engine.execute(probe) == cold.execute(probe)
            stats = engine.stats()
            assert stats["deltas_applied"] == 1
            assert stats["oracles_patched"] == 1
            assert stats["oracles_reused"] == 1

    def test_insert_into_empty_view_patches_warm_oracle(self):
        """An oracle over an empty view still has a kernel to patch.

        Its provenance is falsy (``len() == 0``); treating it as the
        compiled-plan fallback carried the empty witness table over the
        insert, and ``why`` then denied a row ``evaluate`` returned.
        """
        text = "SELECT[a > 8](R)"
        with ServiceEngine({"db": _base_db()}) as engine:
            assert engine.oracle("db", text).rows == frozenset()
            resp = engine.apply_delta("db", inserts=[("R", (9, 9))])
            assert resp.patched == 1 and resp.reused == 0
            why = engine.execute(WhyRequest("db", text, (9, 9)))
            assert why.ok and why.witnesses == ((("R", (9, 9)),),)
            hypo = engine.execute(
                HypotheticalRequest("db", text, frozenset({("R", (9, 9))}))
            )
            assert hypo.destroyed == ((9, 9),)

    def test_noop_delta_keeps_epoch_and_oracles(self):
        with ServiceEngine({"db": _base_db()}) as engine:
            before = engine.oracle("db", QUERY_TEXT)
            resp = engine.apply_delta("db", deletions=[("R", (404, 404))])
            assert resp.ok and resp.epoch == 0
            assert resp.deleted == 0 and resp.inserted == 0
            assert engine.oracle("db", QUERY_TEXT) is before

    def test_plan_memo_survives_small_write(self):
        with ServiceEngine({"db": _base_db()}) as engine:
            query = engine.query(QUERY_TEXT)
            plan_before = cached_plan(query, engine.database("db"), None)
            # R grows 4 -> 5 rows: bit_length stays 3, so the bucket — and
            # hence the compiled-plan memo key — survives the write.
            engine.apply_delta("db", inserts=[("R", (8, 1000))])
            plan_after = cached_plan(query, engine.database("db"), None)
            # one inserted row keeps every bit_length bucket: same plan object
            assert plan_after is plan_before

    def test_exponential_patch_drops_for_lazy_rebuild(self):
        # A self-join over an inserted relation refuses the delta branch;
        # the engine must fall back without serving wrong answers.
        text = "PROJECT[a](R JOIN RENAME[b->a, a->c](R))"
        with ServiceEngine({"db": _base_db()}) as engine:
            engine.oracle("db", text)
            resp = engine.apply_delta("db", inserts=[("R", (2, 1))])
            assert resp.ok
            with ServiceEngine({"db": engine.database("db")}) as cold:
                assert sorted(engine.oracle("db", text).rows) == sorted(
                    cold.oracle("db", text).rows
                )

    def test_version_handle_exposed(self):
        with ServiceEngine({"db": _base_db()}) as engine:
            vdb = engine.version("db")
            assert vdb.epoch == 0
            engine.apply_delta("db", inserts=[("T", (55,))])
            assert engine.version("db").epoch == 1
            assert engine.version("db").db is engine.database("db")

    def test_reregister_keeps_unaffected_oracles(self):
        db = _base_db()
        with ServiceEngine({"db": db}) as engine:
            join_oracle = engine.oracle("db", QUERY_TEXT)
            t_oracle = engine.oracle("db", OTHER_TEXT)
            # New snapshot: T replaced, R and S value-equal.
            new_db = Database(
                [db["R"], db["S"], Relation("T", ("z",), [(7,), (8,)])]
            )
            engine.register_database("db", new_db)
            kept = engine.oracle("db", QUERY_TEXT)
            assert kept is not join_oracle  # rebased onto the new snapshot
            assert sorted(kept.rows) == sorted(join_oracle.rows)
            assert engine.stats()["oracles_reused"] >= 1
            # the T query's warm state was rightly dropped
            rebuilt = engine.oracle("db", OTHER_TEXT)
            assert rebuilt is not t_oracle
            assert sorted(rebuilt.rows) == [(7,), (8,)]

    def test_reregister_same_object_is_noop(self):
        db = _base_db()
        with ServiceEngine({"db": db}) as engine:
            oracle = engine.oracle("db", QUERY_TEXT)
            engine.version("db").apply_delta(inserts=[("T", (99,))])
            epoch = engine.version("db").epoch
            engine.register_database("db", db)
            assert engine.oracle("db", QUERY_TEXT) is oracle
            assert engine.version("db").epoch == epoch

    def test_batcher_routes_apply_delta_immediately(self):
        with ServiceEngine({"db": _base_db()}) as engine:
            with MicroBatcher(engine, max_delay_s=0.2) as batcher:
                future = batcher.submit(
                    ApplyDeltaRequest("db", inserts=frozenset({("T", (77,))}))
                )
                resp = future.result(timeout=5)
                assert isinstance(resp, ApplyDeltaResponse)
                assert resp.ok and resp.inserted == 1
                assert (77,) in engine.database("db")["T"].rows


class TestApplyDeltaCodec:
    def test_request_round_trip(self):
        req = ApplyDeltaRequest(
            "db",
            deletions=frozenset({("R", (1, 2))}),
            inserts=frozenset({("S", (4, 99)), ("T", (3,))}),
        )
        payload = encode_request(req)
        assert payload["kind"] == "apply_delta" and "query" not in payload
        assert decode_request(payload) == req

    def test_response_round_trip(self):
        resp = ApplyDeltaResponse(
            epoch=4, deleted=2, inserted=1, patched=1, reused=2, rebuilt=1
        )
        assert decode_response(encode_response(resp)) == resp

    def test_malformed_request(self):
        from repro.service.requests import ServiceError

        with pytest.raises(ServiceError):
            decode_request({"kind": "apply_delta"})


class TestCliApply:
    def test_apply_writes_back(self, tmp_path, capsys):
        import json as _json

        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text(
            _json.dumps(
                {
                    "relations": [
                        {"name": "R", "schema": ["a", "b"], "rows": [[1, 2], [3, 4]]}
                    ]
                }
            )
        )
        assert (
            main(
                [
                    "apply",
                    str(path),
                    "--delete",
                    '["R", [1, 2]]',
                    "--insert",
                    '["R", [5, 6]]',
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "epoch: 1" in out
        payload = _json.loads(path.read_text())
        assert payload["relations"][0]["rows"] == [[3, 4], [5, 6]]

    def test_dry_run_leaves_file(self, tmp_path, capsys):
        import json as _json

        from repro.cli import main

        path = tmp_path / "db.json"
        before = _json.dumps(
            {"relations": [{"name": "R", "schema": ["a"], "rows": [[1]]}]}
        )
        path.write_text(before)
        assert main(["apply", str(path), "--insert", '["R", [2]]', "--dry-run"]) == 0
        assert "dry run" in capsys.readouterr().out
        assert path.read_text() == before


# ----------------------------------------------------------------------
# Full-rebuild oracle equivalence at the HypotheticalDeletions level
# ----------------------------------------------------------------------

class TestOracleRebase:
    def test_rebased_keeps_fallback_mode(self):
        db = _base_db()
        oracle = HypotheticalDeletions(JOIN_QUERY, db, use_provenance=False)
        assert not oracle.uses_masks
        new_db = db.insert([("T", (5,))])
        rebased = oracle.rebased(new_db)
        assert not rebased.uses_masks
        assert rebased.rows == HypotheticalDeletions(JOIN_QUERY, new_db).rows

    def test_rebased_carries_patched_prov(self):
        db = _base_db()
        oracle = HypotheticalDeletions(JOIN_QUERY, db)
        vdb = VersionedDatabase(db)
        delta = vdb.apply_delta(deletions=[("R", (1, 2))])
        kernel = oracle.provenance.kernel.apply_delta(
            vdb.db, deleted_sources=delta.deletions, query=JOIN_QUERY
        )
        from repro.provenance.why import WhyProvenance

        rebased = oracle.rebased(vdb.db, prov=WhyProvenance(kernel))
        fresh = HypotheticalDeletions(JOIN_QUERY, vdb.db)
        assert rebased.uses_masks
        assert rebased.rows == fresh.rows
        probe = frozenset({("R", (3, 4))})
        assert rebased.view_after(probe) == fresh.view_after(probe)


class TestServingPathStaysWarm:
    """Through the engine: probes never build the int-mask view, and a
    write patches the warm survival index instead of rebuilding it."""

    QUERY = "PROJECT[a, c](R JOIN S)"

    def _kernels(self, engine):
        return [
            oracle.provenance.kernel
            for oracle in engine._oracles.values()
            if oracle.provenance is not None
        ]

    def test_probe_write_probe(self, monkeypatch):
        from repro.provenance.witness_table import WitnessTable

        probes = [
            HypotheticalRequest("db", self.QUERY, frozenset({("R", (1, 2))})),
            HypotheticalRequest("db", self.QUERY, frozenset({("S", (4, 8))})),
        ]
        writes = [
            ApplyDeltaRequest("db", deletions=frozenset({("R", (3, 4))})),
            ApplyDeltaRequest("db", inserts=frozenset({("R", (3, 4))})),
        ]
        with ServiceEngine({"db": _base_db()}) as engine:
            for probe in probes:
                assert engine.execute(probe).ok
            (kernel,) = self._kernels(engine)
            assert kernel._survival is not None
            monkeypatch.setattr(
                SurvivalIndex,
                "build",
                classmethod(lambda cls, t: pytest.fail("index was rebuilt")),
            )
            for write in writes:
                with monkeypatch.context() as m:
                    if not write.inserts:
                        # A delete and the probes after it never need the
                        # int-mask view; only the insert merge decodes.
                        m.setattr(
                            WitnessTable,
                            "to_masks",
                            lambda self: pytest.fail("to_masks() on a probe"),
                        )
                    assert engine.execute(write).ok
                    answers = [engine.execute(p) for p in probes]
                (kernel,) = self._kernels(engine)
                assert kernel._survival is not None
                db = engine.database("db")
                monkeypatch.undo()
                with ServiceEngine({"db": db}) as fresh:
                    assert answers == [fresh.execute(p) for p in probes]
                monkeypatch.setattr(
                    SurvivalIndex,
                    "build",
                    classmethod(lambda cls, t: pytest.fail("index was rebuilt")),
                )
