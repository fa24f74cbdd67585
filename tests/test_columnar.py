"""The columnar substrate is extensionally invisible (satellite 3).

Every kernel in :mod:`repro.columnar` must be **bit-identical** to the
tuple-at-a-time machinery it accelerates: same row sets as the seed
interpreter, same witness masks as the compiled plan's annotated
semantics over a shared :class:`~repro.provenance.interning.SourceIndex`,
on both the numpy path and the forced pure-Python path.  The flat-file /
mmap layer must round-trip snapshots and column stores exactly, and the
fast trusted ``Relation`` constructor must not have weakened public
validation.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.algebra.evaluate import interpret_view_rows
from repro.algebra.parser import parse_query
from repro.algebra.plan import compile_plan
from repro.algebra.relation import Database, Relation
from repro.columnar import (
    ColumnStore,
    cached_column_store,
    columnar_annotated,
    columnar_rows,
    set_force_python,
    using_numpy,
)
from repro.columnar.flatfile import read_flat, write_flat
from repro.parallel import ShardSnapshot, sharded_destroyed_indices
from repro.provenance.bitset import minimize_masks
from repro.provenance.cache import ProvenanceCache, provenance_cache
from repro.provenance.interning import SourceIndex
from repro.provenance.why import why_provenance
from repro.provenance.witness_table import WitnessTable
from repro.workloads import random_instance

seeds = st.integers(min_value=0, max_value=100_000)


@pytest.fixture
def force_python():
    """Pin the pure-Python columnar kernels for the duration of a test."""
    set_force_python(True)
    try:
        yield
    finally:
        set_force_python(False)


def _plan(query, db, level=0):
    catalog = {name: db[name].schema for name in db}
    return compile_plan(query, catalog, optimizer_level=level)


def _assert_equivalent(query, db):
    """Columnar rows + annotations == interpreter + tuple plan, bitwise."""
    expected_rows = interpret_view_rows(query, db)
    for level in (0, 1):
        plan = _plan(query, db, level=level)
        index = SourceIndex()
        store = ColumnStore(db, index=index)
        assert plan.rows_columnar(store) == expected_rows
        assert columnar_rows(plan, store) == expected_rows
        tuple_table = plan.annotated_rows(db, index)
        columnar_table = plan.annotated_rows_columnar(store, index)
        assert columnar_table == tuple_table
        assert columnar_annotated(plan, store, index) == tuple_table


class TestColumnarEquivalence:
    """Random (database, query) pairs: columnar == interpreter == plan."""

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_numpy_path(self, seed):
        db, query = random_instance(seed, max_depth=3)
        _assert_equivalent(query, db)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_forced_python_path(self, seed):
        db, query = random_instance(seed, max_depth=3)
        set_force_python(True)
        try:
            assert not using_numpy()
            _assert_equivalent(query, db)
        finally:
            set_force_python(False)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_store_routed_provenance(self, seed):
        """why_provenance(store=...) decodes to the storeless answer."""
        db, query = random_instance(seed, max_depth=3)
        provenance_cache.clear()
        with_store = why_provenance(query, db, store=ColumnStore(db))
        without = why_provenance(query, db)
        assert with_store.as_dict() == without.as_dict()


#: Queries exercising the shapes the vectorizer special-cases: rename
#: chains, cross joins, attr=attr and attr!=attr, constants of every kind,
#: and predicates that must fall back per-row.
_MIXED_QUERIES = [
    "R",
    "SELECT[A = 1](R)",
    "SELECT[B = 'x'](R)",
    "SELECT[A != C](R)",
    "SELECT[A < C](R)",
    "SELECT[A >= 2 AND B != 'y'](R)",
    "PROJECT[B](R)",
    "PROJECT[A, C](R JOIN S)",
    "RENAME[A -> Z](R)",
    "RENAME[Z -> A](RENAME[A -> Z](R))",
    "PROJECT[A](R) UNION PROJECT[A](S)",
    "SELECT[C < E](R JOIN S)",
    "PROJECT[A, AA](R JOIN RENAME[A -> AA, B -> BB, C -> CC](R))",
]


def _mixed_db():
    """Mixed-type columns: the encodings that break naive vectorization.

    1 / 1.0 / True collapse under dict equality, NaN is non-reflexive,
    2**60 exceeds float64 exactness, 10**25 exceeds int64, and tuples are
    not orderable against numbers.
    """
    rows_r = {
        (1, "x", 2.5),
        (True, "y", float("nan")),
        (2**60, "x", 0.5),
        (10**25, "z", -1.0),
        (2, (7, 8), 3.0),
        (3, "y", 2.5),
    }
    rows_s = {(1, "x", 2.5, 9), (2, "q", 0.5, 1), (3, "y", float("nan"), 4)}
    return Database(
        {
            "R": Relation("R", ("A", "B", "C"), rows_r),
            "S": Relation("S", ("A", "D", "E", "F"), rows_s),
        }
    )


class TestMixedTypeColumns:
    @pytest.mark.parametrize("text", _MIXED_QUERIES)
    def test_numpy(self, text):
        _assert_equivalent(parse_query(text), _mixed_db())

    @pytest.mark.parametrize("text", _MIXED_QUERIES)
    def test_forced_python(self, text, force_python):
        _assert_equivalent(parse_query(text), _mixed_db())

    def test_incomparable_types_raise_identically(self):
        """A predicate over mixed-kind columns raises the same error."""
        from repro.errors import EvaluationError

        db = _mixed_db()
        query = parse_query("SELECT[A < D](R JOIN S)")  # int < str rows exist
        with pytest.raises(EvaluationError, match="incompatible types"):
            interpret_view_rows(query, db)
        plan = _plan(query, db)
        store = ColumnStore(db)
        # Which offending row surfaces first depends on iteration order
        # (never pinned); the error class and shape must match.
        with pytest.raises(EvaluationError, match="incompatible types"):
            plan.rows_columnar(store)


class TestMinimizeDeterminism:
    def test_output_sorted_by_popcount_then_value(self):
        masks = {0b1010, 0b0110, 0b1, 0b111, 0b1000}
        out = minimize_masks(masks)
        assert list(out) == sorted(out, key=lambda m: (m.bit_count(), m))
        # absorption still applies: 0b111 ⊇ 0b1 dropped, 0b1010 ⊇ 0b1000
        assert out == (0b1, 0b1000, 0b0110)


class TestTrustedConstructor:
    """_trusted skips validation; the public surface must not (satellite 1)."""

    def test_public_construction_still_validates(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "B"), {(1,)})  # arity mismatch
        with pytest.raises(SchemaError):
            Relation("R", ("A",), [([1],)])  # unhashable value
        with pytest.raises(SchemaError):
            Relation("", ("A",), {(1,)})  # empty name

    def test_with_rows_still_validates(self):
        rel = Relation("R", ("A", "B"), {(1, 2)})
        with pytest.raises(SchemaError):
            rel.with_rows({(1, 2, 3)})

    def test_trusted_equals_public(self):
        rel = Relation("R", ("A", "B"), {(1, 2), (3, 4)})
        fast = Relation._trusted("R", rel.schema, rel.rows)
        assert fast == rel and fast.schema == rel.schema


class TestFlatFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.flat")
        meta = {"kind": "test", "n": 3}
        arrays = {"a": [1, -2, 2**62], "empty": [], "b": [0, 5]}
        blobs = {"payload": b"\x00\x01binary"}
        write_flat(path, meta, arrays, blobs=blobs)
        for mmap in (True, False):
            got_meta, got_arrays, got_blobs = read_flat(path, mmap=mmap)
            assert got_meta == meta
            assert {k: list(v) for k, v in got_arrays.items()} == {
                k: list(v) for k, v in arrays.items()
            }
            assert bytes(got_blobs["payload"]) == blobs["payload"]

    def test_corrupt_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.flat")
        with open(path, "wb") as handle:
            handle.write(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_flat(path)


class TestColumnStoreSpill:
    def test_spill_round_trip(self, tmp_path):
        db = _mixed_db()
        store = ColumnStore(db)
        path = str(tmp_path / "store.flat")
        assert store.spill_save(path)
        loaded = ColumnStore.spill_load(path, db, db)
        assert loaded.matches(db)
        for name in ("R", "S"):
            assert sorted(loaded.relation_columns(name).rows, key=repr) == sorted(
                store.relation_columns(name).rows, key=repr
            )
        # the reloaded store still answers queries bit-identically
        query = parse_query("PROJECT[A, D](R JOIN S)")
        plan = _plan(query, db)
        assert plan.rows_columnar(loaded) == interpret_view_rows(query, db)

    def test_shared_index_store_refuses_to_spill(self, tmp_path):
        index = SourceIndex()
        store = ColumnStore(_mixed_db(), index=index)
        assert not store.owns_index
        assert not store.spill_save(str(tmp_path / "no.flat"))

    def test_cache_spills_and_reattaches(self, tmp_path):
        db1, db2 = _mixed_db(), _mixed_db()
        cache = ProvenanceCache(maxsize=8, max_bytes=1, spill_dir=str(tmp_path))
        s1 = cache.get_or_compute("columnar", db1, db1, "", lambda: ColumnStore(db1))
        cache.get_or_compute("columnar", db2, db2, "", lambda: ColumnStore(db2))
        stats = cache.stats()
        assert stats["spills"] == 1 and stats["spilled_entries"] == 1
        assert stats["bytes_high_water"] >= stats["approx_bytes"] > 0
        recomputed = []
        s1b = cache.get_or_compute(
            "columnar", db1, db1, "",
            lambda: recomputed.append(1) or ColumnStore(db1),
        )
        assert not recomputed, "spilled entry was recomputed, not attached"
        assert cache.stats()["spill_attaches"] == 1
        assert s1b.matches(db1)
        assert sorted(s1b.relation_columns("R").rows, key=repr) == sorted(
            s1.relation_columns("R").rows, key=repr
        )
        cache.clear()
        assert not os.listdir(str(tmp_path))

    def test_cached_column_store_identity(self):
        db = _mixed_db()
        provenance_cache.clear()
        try:
            assert cached_column_store(db) is cached_column_store(db)
        finally:
            provenance_cache.clear()


def _snapshot_fixture(seed):
    """A provenance kernel's shard snapshot plus a mask vector.

    Scans forward from ``seed`` until a random instance yields a non-empty
    view (empty views have no witness masks to shard).
    """
    import random

    for offset in range(50):
        db, query = random_instance(seed + offset, max_depth=3, operators="SPJ")
        prov = why_provenance(query, db)
        rows = sorted(prov.rows, key=repr)
        if rows:
            break
    else:  # pragma: no cover - 50 consecutive empty views
        raise RuntimeError("no non-empty random instance found")
    kernel = prov.kernel
    table = WitnessTable.from_masks(
        {row: kernel.witness_masks(row) for row in rows}
    )
    nbits = len(kernel.index)
    snapshot = ShardSnapshot.from_witness_table(table, nbits)
    rng = random.Random(seed)
    masks = [0, (1 << nbits) - 1]
    for _ in range(30):
        masks.append(rng.getrandbits(max(1, nbits)))
    return snapshot, masks


class TestMmapSnapshot:
    """Flat-file attach answers == in-memory answers, every backend."""

    def test_write_attach_round_trip(self, tmp_path):
        snapshot, masks = _snapshot_fixture(11)
        path = str(tmp_path / "snap.flat")
        snapshot.write_file(path)
        attached = ShardSnapshot.attach_file(path)
        assert attached.nbits == snapshot.nbits
        assert len(attached.rows) == len(snapshot.rows)
        serial = sharded_destroyed_indices(snapshot, masks, 1)
        got = sharded_destroyed_indices(attached, masks, 1)
        assert got == serial

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("fp", [False, True])
    def test_ship_mmap_bit_identical(self, backend, fp):
        snapshot, masks = _snapshot_fixture(23)
        serial = sharded_destroyed_indices(snapshot, masks, 1)
        if fp and backend == "process":
            pytest.skip("force_python implies in-process backends")
        got = sharded_destroyed_indices(
            snapshot,
            masks,
            2,
            backend=backend,
            chunk_size=7,
            force_python=fp,
            ship_mmap=True,
        )
        assert got == serial

    def test_mmap_file_is_cached_and_cleaned_up(self):
        import gc

        snapshot, _masks = _snapshot_fixture(7)
        path = snapshot.mmap_file()
        assert os.path.exists(path)
        assert snapshot.mmap_file() == path  # idempotent per snapshot
        del snapshot
        gc.collect()
        assert not os.path.exists(path)
