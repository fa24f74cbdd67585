"""The CSR witness table is a bit-identical re-representation (PR 8).

:class:`~repro.provenance.witness_table.WitnessTable` stores the annotated
executor's ``row -> minimized mask tuple`` table as three flat arrays.  The
invariant every test here circles: whatever the container kind (numpy
arrays from the vectorized kernels, lists from the tuple executor that is
the no-numpy path), whatever the bit positions (including ids past 512
and 1024), and whatever the transport (pickle, flat file, mmap),
the table decodes to exactly the dict-of-int-masks oracle the tuple
executor produces — element for element, not just as sets.  Tables come
from the columnar kernels where numpy imports and from the tuple
executor otherwise; the ``*forced_python*`` cases pin the tuple-built
(list-backed) table against the frozenset oracle on every leg.
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.parser import parse_query
from repro.algebra.plan import compile_plan
from repro.algebra.relation import Database, Relation
from repro.columnar import HAVE_NUMPY, ColumnStore, columnar_annotated_table
from repro.parallel import ShardSnapshot
from repro.provenance import (
    SourceIndex,
    SurvivalIndex,
    WitnessTable,
    bitset_why_provenance,
    provenance_cache,
    iter_bits,
)
from repro.oracle import legacy_witnesses
from repro.service import HypotheticalRequest, ServiceEngine
from repro.workloads import random_instance

if HAVE_NUMPY:
    import numpy as np

seeds = st.integers(min_value=0, max_value=100_000)


def _plan(query, db, level=0):
    catalog = {name: db[name].schema for name in db}
    return compile_plan(query, catalog, optimizer_level=level)


def _table_and_oracle(query, db, level=0, index=None):
    """The platform's CSR table and the tuple executor's oracle, over a
    shared index: columnar-built with numpy, tuple-built without."""
    plan = _plan(query, db, level=level)
    index = SourceIndex() if index is None else index
    oracle = plan.annotated_rows(db, index)
    if HAVE_NUMPY:
        table = columnar_annotated_table(plan, ColumnStore(db, index=index), index)
    else:
        table = WitnessTable.from_masks(oracle)
    return table, oracle


def _platform_store(db):
    """The column store the serving engine would use: None without numpy."""
    return ColumnStore(db) if HAVE_NUMPY else None


def _tuple_table_and_oracle(query, db, index=None):
    """The no-numpy path's list-backed table (built exactly as
    ``bitset_why_provenance`` builds it without a store) and its witnesses
    decoded next to the frozenset oracle's."""
    index = SourceIndex() if index is None else index
    kernel = bitset_why_provenance(query, db, index=index, optimizer_level=1)
    table = kernel._table
    assert isinstance(table.bit_ids, list)
    assert kernel.decode_all() == legacy_witnesses(query, db)
    return table, table.to_masks()


def _assert_matches_oracle(table, oracle):
    """Element-for-element equality plus CSR structural sanity."""
    masks = table.to_masks()
    assert masks == oracle
    # Same emission set and per-row witness tuples in canonical order.
    assert set(table.rows) == set(oracle)
    ro, wo, bits = table.as_lists()
    assert ro[0] == 0 and wo[0] == 0
    assert ro[-1] == len(wo) - 1
    assert wo[-1] == len(bits)
    assert len(ro) == len(table.rows) + 1
    # Bits ascend within every witness (the canonical CSR form).
    for w in range(len(wo) - 1):
        run = bits[wo[w] : wo[w + 1]]
        assert run == sorted(run)
        assert len(set(run)) == len(run)
    # The oracle round-trips through from_masks to the identical arrays.
    assert WitnessTable.from_masks(masks).as_lists() == (ro, wo, bits)


def _assert_survival_index_matches(table, oracle):
    """SurvivalIndex.build(table) == the bit runs of the oracle's masks."""
    state = SurvivalIndex.build(table)
    assert tuple(state.rows) == table.rows
    for slot, row in enumerate(table.rows):
        assert state.wits[slot] == tuple(
            tuple(iter_bits(mask)) for mask in oracle[row]
        )
        assert table.bits_of(row) == state.wits[slot]
    expected = {}
    for slot, row in enumerate(table.rows):
        for bit in set().union(*state.wits[slot]):
            expected.setdefault(bit, []).append(slot)
    assert state.touched == {bit: tuple(s) for bit, s in expected.items()}


class TestCsrOracleEquivalence:
    """Random (database, query) pairs: CSR table == dict-of-int oracle."""

    @pytest.mark.requires_numpy
    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_numpy_path(self, seed):
        db, query = random_instance(seed, max_depth=3)
        for level in (0, 1):
            table, oracle = _table_and_oracle(query, db, level=level)
            _assert_matches_oracle(table, oracle)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_forced_python_path(self, seed):
        """The tuple-built table: list containers, canonical CSR, and the
        frozenset oracle's witnesses."""
        db, query = random_instance(seed, max_depth=3)
        table, oracle = _tuple_table_and_oracle(query, db)
        _assert_matches_oracle(table, oracle)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_survival_index_matches_oracle(self, seed):
        """The survival index's per-witness bit tuples are the oracle's
        masks bit for bit, in order, from numpy and list containers."""
        db, query = random_instance(seed, max_depth=2)
        table, oracle = _table_and_oracle(query, db, level=1)
        _assert_survival_index_matches(table, oracle)
        lists = WitnessTable(table.rows, *table.as_lists())
        _assert_survival_index_matches(lists, oracle)


#: Mixed-type columns: 1/1.0/True collapse under dict equality, NaN is
#: non-reflexive, 2**60 exceeds float64 exactness, 10**25 exceeds int64.
def _mixed_db():
    rows_r = {
        (1, "x", 2.5),
        (True, "y", float("nan")),
        (2**60, "x", 0.5),
        (10**25, "z", -1.0),
        (3, "y", 2.5),
    }
    rows_s = {(1, "x", 2.5, 9), (2, "q", 0.5, 1), (3, "y", float("nan"), 4)}
    return Database(
        {
            "R": Relation("R", ("A", "B", "C"), rows_r),
            "S": Relation("S", ("A", "D", "E", "F"), rows_s),
        }
    )


#: The union of a base scan with a join projection gives rows whose
#: witness sets mix 1-bit and 2-bit monomials — the mixed-length rows that
#: exercise the exact-minimization splice inside the canonical kernel.
_MIXED_QUERIES = [
    "PROJECT[A](R) UNION PROJECT[A](R JOIN S)",
    "PROJECT[A](R) UNION PROJECT[A](S)",
    "PROJECT[A, C](R JOIN S)",
    "SELECT[A >= 2](R)",
]


class TestMixedTypeColumns:
    @pytest.mark.requires_numpy
    @pytest.mark.parametrize("text", _MIXED_QUERIES)
    def test_numpy(self, text):
        table, oracle = _table_and_oracle(parse_query(text), _mixed_db(), level=1)
        _assert_matches_oracle(table, oracle)

    @pytest.mark.parametrize("text", _MIXED_QUERIES)
    def test_forced_python(self, text):
        table, oracle = _tuple_table_and_oracle(parse_query(text), _mixed_db())
        _assert_matches_oracle(table, oracle)


class TestSegmentBoundaries:
    """Bit ids straddling multiples of 512 decode and index exactly."""

    def _padded_instance(self, pad):
        """A tiny query whose source bits start at ``pad`` in the index."""
        db = Database(
            {
                "R": Relation("R", ("A", "B"), {(i, i % 3) for i in range(24)}),
                "S": Relation("S", ("B", "C"), {(i % 3, i) for i in range(9)}),
            }
        )
        index = SourceIndex()
        for i in range(pad):  # occupy the low bits with foreign tuples
            index.intern(("pad", (i,)))
        query = parse_query("PROJECT[A](R JOIN S)")
        return query, db, index

    @pytest.mark.parametrize("pad", [500, 511, 512, 1010])
    def test_straddling_ids(self, pad):
        query, db, index = self._padded_instance(pad)
        table, oracle = _table_and_oracle(query, db, level=1, index=index)
        _assert_matches_oracle(table, oracle)
        assert max(table.as_lists()[2]) >= pad
        _assert_survival_index_matches(table, oracle)

    @pytest.mark.parametrize("pad", [511, 512])
    def test_straddling_ids_forced_python(self, pad):
        query, db, index = self._padded_instance(pad)
        table, oracle = _tuple_table_and_oracle(query, db, index=index)
        _assert_matches_oracle(table, oracle)
        assert max(table.as_lists()[2]) >= pad

    def test_bit_runs_builder_matches_from_bits(self):
        """The survival index splits the flat bit runs per witness and
        groups the witnesses per row, whatever the container."""
        row_offsets = [0, 2, 4]
        wit_offsets = [0, 3, 3, 5, 8]
        bits = [0, 511, 512, 1, 1023, 510, 511, 513]
        expected = [((0, 511, 512), ()), ((1, 1023), (510, 511, 513))]
        containers = [list]
        if HAVE_NUMPY:
            containers.append(lambda v: np.asarray(v, dtype=np.int64))
        for wrap in containers:
            table = WitnessTable(
                ("a", "b"), wrap(row_offsets), wrap(wit_offsets), wrap(bits)
            )
            state = SurvivalIndex.build(table)
            assert state.wits == expected
            # Row "a" has an empty witness: no deletion can destroy it.
            assert state.destroyed((0, 1, 511)) == [1]
            assert state.destroyed((512,)) == []


class TestDerivedViews:
    def test_touched_rows_matches_recompute(self):
        db, query = random_instance(11, max_depth=3)
        table, oracle = _table_and_oracle(query, db, level=1)
        expected = {}
        for row, masks in oracle.items():
            seen = set()
            for mask in masks:
                seen.update(iter_bits(mask))
            for bit in seen:
                expected.setdefault(bit, set()).add(row)
        got = table.touched_rows()
        # Row indices, ascending, into table.rows.
        assert all(list(ids) == sorted(set(ids)) for ids in got.values())
        assert {
            b: {table.rows[i] for i in ids} for b, ids in got.items()
        } == expected

    def test_touched_rows_python_matches_numpy(self):
        db, query = random_instance(11, max_depth=3)
        table, _ = _table_and_oracle(query, db, level=1)
        as_lists = WitnessTable(table.rows, *table.as_lists())
        assert table.touched_rows() == as_lists.touched_rows()

    def test_contains_and_sizes(self):
        db, query = random_instance(5, max_depth=2)
        table, oracle = _table_and_oracle(query, db)
        assert len(table) == len(oracle)
        assert table.witness_count == sum(len(m) for m in oracle.values())
        for row in oracle:
            assert table.contains(row)
        assert not table.contains(("no", "such", "row"))
        assert table.memory_bytes() > 0


class TestRoundTrips:
    def test_flat_file_round_trip(self, tmp_path):
        db, query = random_instance(23, max_depth=3)
        table, oracle = _table_and_oracle(query, db, level=1)
        path = str(tmp_path / "table.flat")
        table.write_file(path)
        attached = WitnessTable.attach_file(path)
        assert attached.rows == table.rows
        assert attached.as_lists() == table.as_lists()
        assert attached.to_masks() == oracle

    def test_attach_rejects_wrong_kind(self, tmp_path):
        from repro.columnar.flatfile import write_flat

        path = str(tmp_path / "other.flat")
        write_flat(path, {"kind": "something-else"}, {"a": [1, 2]})
        with pytest.raises(ValueError):
            WitnessTable.attach_file(path)

    def test_snapshot_pickle_round_trip(self):
        db, query = random_instance(23, max_depth=3)
        prov = bitset_why_provenance(query, db, store=_platform_store(db))
        snap = prov._shard_snapshot()
        assert snap._table is prov._table  # adopted, not re-encoded
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.rows == snap.rows
        assert clone._table.as_lists() == snap._table.as_lists()
        assert clone._table.to_masks() == snap._table.to_masks()

    def test_snapshot_mmap_round_trip(self, tmp_path):
        db, query = random_instance(23, max_depth=3)
        prov = bitset_why_provenance(query, db, store=_platform_store(db))
        snap = prov._shard_snapshot()
        path = str(tmp_path / "snap.flat")
        snap.write_file(path)
        attached = ShardSnapshot.attach_file(path)
        masks = [7, 1 << 3, 0]
        snap.prepare()
        attached.prepare()
        assert attached.destroyed_indices_chunk(
            masks, 0, len(masks)
        ) == snap.destroyed_indices_chunk(masks, 0, len(masks))


class TestBuildCounters:
    @pytest.mark.requires_numpy
    def test_build_stats_and_cache_counters(self):
        db, query = random_instance(31, max_depth=3)
        provenance_cache.clear()
        base = provenance_cache.stats()
        store = ColumnStore(db)
        prov = bitset_why_provenance(query, db, store=store)
        stats = prov.build_stats
        assert stats["path"] == "columnar-csr"
        assert stats["rows"] == len(prov)
        assert stats["seconds"] >= 0.0
        after = provenance_cache.stats()
        assert after["witness_builds"] == base["witness_builds"] + 1
        assert after["witness_rows"] == base["witness_rows"] + stats["rows"]
        assert after["witness_count"] == base["witness_count"] + stats["witnesses"]
        assert after["witness_build_seconds"] >= base["witness_build_seconds"]
        tuple_prov = bitset_why_provenance(query, db)
        assert tuple_prov.build_stats["path"] == "tuple"

    def test_engine_surfaces_witness_counters(self, usergroup_db):
        provenance_cache.clear()
        with ServiceEngine({"db": usergroup_db}) as engine:
            query = "PROJECT[user, file](UserGroup JOIN GroupFile)"
            engine.execute(HypotheticalRequest("db", query, frozenset()))
            stats = engine.stats()
            assert stats["witness_builds"] >= 1
            assert stats["witness_rows"] >= 1
            assert stats["witness_count"] >= 1
            assert stats["witness_build_seconds"] >= 0.0
            assert stats["cache"]["witness_builds"] >= 1


class TestPointLookups:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_bits_and_masks_of_match_oracle(self, seed):
        db, query = random_instance(seed, max_depth=3)
        built, oracle = _table_and_oracle(query, db, level=1)
        # A fresh table over the same arrays: no cached int-mask view.
        table = WitnessTable(
            built.rows, built.row_offsets, built.wit_offsets, built.bit_ids
        )
        for row, masks in oracle.items():
            assert table.masks_of(row) == masks
            assert table.bits_of(row) == tuple(
                tuple(iter_bits(m)) for m in masks
            )
        assert table.bits_of(("no", "such", "row")) is None
        assert table.masks_of(("no", "such", "row")) is None
        assert table._masks is None  # point lookups never build to_masks()


class TestSurvivalIndexPatch:
    """SurvivalIndex.patched == SurvivalIndex.build over the patched table."""

    @staticmethod
    def _by_row(state):
        wits = {
            state.rows[slot]: ws for slot, ws in enumerate(state.wits) if ws
        }
        touched = {
            bit: frozenset(state.rows[slot] for slot in slots)
            for bit, slots in state.touched.items()
        }
        return wits, touched

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, data=st.data())
    def test_patch_matches_rebuild(self, seed, data):
        db, query = random_instance(seed, max_depth=3)
        table, oracle = _table_and_oracle(query, db, level=1)
        state = SurvivalIndex.build(table)
        bits = sorted(set(table.as_lists()[2]))
        deleted = data.draw(
            st.lists(st.sampled_from(bits), max_size=3) if bits else st.just([])
        )
        after_drop = table.drop_bits(deleted)
        rows = list(after_drop.rows)
        # Rewrite some surviving rows (a subset of their witnesses) and
        # remove one, as the insert merge does.
        updates = {}
        for row in rows[:2]:
            updates[row] = after_drop.masks_of(row)[:1]
        if len(rows) > 2:
            updates[rows[2]] = ()
        final = after_drop.merge_rows(updates)
        patched = state.patched(deleted, updates)
        assert self._by_row(patched) == self._by_row(SurvivalIndex.build(final))
        # The original index is untouched.
        assert self._by_row(state) == self._by_row(SurvivalIndex.build(table))


class TestSurvivalKernel:
    """A row is destroyed iff every one of its witnesses meets the ids."""

    #: a: {0, 1};  b: {2} or {1, 3};  c: {4}
    TABLE = (("a",), ("b",), ("c",)), [0, 1, 3, 4], [0, 2, 3, 5, 6], [0, 1, 2, 1, 3, 4]

    @pytest.mark.parametrize(
        "ids, destroyed",
        [
            ((), []),
            ((9,), []),  # an id no witness mentions
            ((0,), [0]),
            ((2,), []),  # b keeps {1, 3}
            ((2, 3), [1]),
            ((1, 2), [0, 1]),
            ((4, 0, 2, 1), [0, 1, 2]),  # order does not matter
        ],
    )
    def test_destroyed(self, ids, destroyed):
        table = WitnessTable(*self.TABLE)
        assert sorted(SurvivalIndex.build(table).destroyed(ids)) == destroyed
