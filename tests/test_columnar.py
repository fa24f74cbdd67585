"""The columnar substrate is extensionally invisible (satellite 3).

Every kernel in :mod:`repro.columnar` must be **bit-identical** to the
tuple-at-a-time machinery it accelerates: same row sets as the seed
interpreter, same witness masks as the compiled plan's annotated
semantics over a shared :class:`~repro.provenance.interning.SourceIndex`.
The columnar kernels exist only where numpy imports (``requires_numpy``);
without numpy the tuple executor is the one pure-Python path, and the
``test_forced_python*`` cases pin it against the oracles on the same
inputs.  The fast trusted ``Relation`` constructor must not have weakened
public validation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.algebra.parser import parse_query
from repro.algebra.plan import compile_plan
from repro.algebra.relation import Database, Relation
from repro.columnar import (
    ColumnStore,
    cached_column_store,
    columnar_annotated_table,
    columnar_rows,
)
from repro.provenance.bitset import minimize_masks
from repro.provenance.cache import provenance_cache
from repro.provenance.interning import SourceIndex
from repro.provenance.why import why_provenance
from repro.oracle import interpret_view_rows, legacy_witnesses
from repro.workloads import random_instance

seeds = st.integers(min_value=0, max_value=100_000)


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
        columnar_table = plan.annotated_table_columnar(store, index).to_masks()
        assert columnar_table == tuple_table
        assert columnar_annotated_table(plan, store, index).to_masks() == tuple_table


def _assert_tuple_executor_matches_oracles(query, db):
    """The no-numpy executor: tuple-plan rows and witnesses == the oracles."""
    expected_rows = interpret_view_rows(query, db)
    expected_witnesses = legacy_witnesses(query, db)
    for level in (0, 1):
        plan = _plan(query, db, level=level)
        assert plan.rows(db) == expected_rows
        index = SourceIndex()
        table = plan.annotated_rows(db, index)
        assert {
            row: frozenset(index.decode_mask(mask) for mask in masks)
            for row, masks in table.items()
        } == expected_witnesses


class TestColumnarEquivalence:
    """Random (database, query) pairs: columnar == interpreter == plan."""

    @pytest.mark.requires_numpy
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_numpy_path(self, seed):
        db, query = random_instance(seed, max_depth=3)
        _assert_equivalent(query, db)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_forced_python_path(self, seed):
        """The pure-Python path is the tuple executor, checked on its own."""
        db, query = random_instance(seed, max_depth=3)
        _assert_tuple_executor_matches_oracles(query, db)

    @pytest.mark.requires_numpy
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
    @pytest.mark.requires_numpy
    @pytest.mark.parametrize("text", _MIXED_QUERIES)
    def test_numpy(self, text):
        _assert_equivalent(parse_query(text), _mixed_db())

    @pytest.mark.parametrize("text", _MIXED_QUERIES)
    def test_forced_python(self, text):
        """The no-numpy executor on the encodings that break vectorization."""
        _assert_tuple_executor_matches_oracles(parse_query(text), _mixed_db())

    @pytest.mark.requires_numpy
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


@pytest.mark.requires_numpy
class TestCachedColumnStore:
    def test_cached_column_store_identity(self):
        db = _mixed_db()
        provenance_cache.clear()
        try:
            assert cached_column_store(db) is cached_column_store(db)
        finally:
            provenance_cache.clear()
