"""Optimizer soundness: optimized plans are extensionally identical.

The acceptance bar for the staged compiler is that every rewrite is
invisible to every consumer: for random SPJRU workloads the optimized plan
must return the same rows as the unoptimized plan *and* the seed recursive
interpreter, the same witness bitmasks over a shared
:class:`~repro.provenance.interning.SourceIndex`, and the same
where-annotations — on the base database and on hypothetical deletion
variants.  Unit tests below pin the individual rules, the connectivity
join order, the scan fusion, and the plan memo, whose key holds no row
counts.
"""

import importlib.util
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Database,
    Relation,
    parse_query,
)
from repro.algebra.ast import Join, RelationRef
from repro.algebra.optimizer import (
    DEFAULT_OPTIMIZER_LEVEL,
    PruneJoinColumns,
    PushSelectThroughJoin,
    PushSelectThroughProject,
    PushSelectThroughRename,
    PushSelectThroughUnion,
    RewriteContext,
    optimize,
)
from repro.algebra.plan import FilterOp, ScanOp, compile_plan
from repro.algebra.render import render_plan
from repro.algebra.schema import Schema
from repro.errors import EvaluationError, SchemaError
from repro.oracle import interpret_view_rows
from repro.provenance import SourceIndex, bitset_why_provenance
from repro.provenance.cache import ProvenanceCache
from repro.workloads import (
    chain_workload,
    random_instance,
    sj_workload,
    star_workload,
    usergroup_workload,
)

seeds = st.integers(min_value=0, max_value=100_000)


def _catalog(db):
    return {name: db[name].schema for name in db}


def _both_plans(query, db):
    catalog = _catalog(db)
    baseline = compile_plan(query, catalog)
    optimized = compile_plan(query, catalog, optimizer_level=1)
    return baseline, optimized


def _mask_table(plan, db, index):
    """row → frozenset of witness masks (order-insensitive comparison)."""
    return {
        row: frozenset(masks)
        for row, masks in plan.annotated_rows(db, index).items()
    }


def _random_deletion_sets(db, rng, count=4, max_size=4):
    tuples = list(db.all_source_tuples())
    return [
        frozenset(rng.sample(tuples, rng.randint(0, min(max_size, len(tuples)))))
        for _ in range(count)
    ]


class TestOptimizerSoundness:
    """Random SPJRU workloads: optimized == unoptimized == interpreter."""

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_rows_match_interpreter_and_baseline(self, seed):
        db, query = random_instance(seed, max_depth=3)
        baseline, optimized = _both_plans(query, db)
        expected = interpret_view_rows(query, db)
        assert baseline.rows(db) == expected
        assert optimized.rows(db) == expected
        # The rewritten logical tree itself is interpreter-equivalent.
        assert interpret_view_rows(optimized.logical, db) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_rows_match_on_hypothetical_databases(self, seed):
        db, query = random_instance(seed, max_depth=3)
        _, optimized = _both_plans(query, db)
        rng = random.Random(seed)
        for deletions in _random_deletion_sets(db, rng):
            hypo = db.delete(deletions)
            assert optimized.rows(hypo) == interpret_view_rows(query, hypo)

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_witness_masks_invariant(self, seed):
        """Same SourceIndex → bit-identical witness masks per view row."""
        db, query = random_instance(seed, max_depth=3)
        baseline, optimized = _both_plans(query, db)
        index = SourceIndex.from_database(db)  # shared, deterministic ids
        assert _mask_table(baseline, db, index) == _mask_table(
            optimized, db, index
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_where_annotations_invariant(self, seed):
        db, query = random_instance(seed, max_depth=3)
        baseline, optimized = _both_plans(query, db)
        assert baseline.where_rows(db) == optimized.where_rows(db)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_bitset_front_invariant_across_levels(self, seed):
        """bitset_why_provenance gives identical decoded witnesses at both
        optimizer levels (the full provenance stack, not just the plan)."""
        db, query = random_instance(seed, max_depth=3)
        index = SourceIndex.from_database(db)
        plain = bitset_why_provenance(query, db, index=index, optimizer_level=0)
        tuned = bitset_why_provenance(query, db, index=index, optimizer_level=1)
        assert plain.decode_all() == tuned.decode_all()


class TestRenameChainsAndCrossJoins:
    """The shapes the satellite names explicitly."""

    def _db(self):
        return Database(
            [
                Relation("R", ["A", "B"], [(1, 2), (2, 3), (4, 2), (1, 3)]),
                Relation("S", ["C"], [(7,), (8,)]),
                Relation("T", ["B", "C"], [(2, 7), (3, 8), (3, 7)]),
            ]
        )

    QUERIES = [
        # Rename chain: two stacked renamings over a selection.
        "RENAME[Z -> W](RENAME[A -> Z](SELECT[A < 4](R)))",
        # Selection above a rename chain (pushdown must invert both).
        "SELECT[W = 1](RENAME[Z -> W](RENAME[A -> Z](R)))",
        # Projection above a rename chain (pruning sinks through both).
        "PROJECT[Z](RENAME[A -> Z](R JOIN T))",
        # Cross product with a one-sided selection.
        "SELECT[A = 1](R JOIN S)",
        # Projection over a cross product (pruning keeps a pivot column).
        "PROJECT[A](R JOIN S)",
        # Cross product inside a join bush with shared attributes elsewhere.
        "PROJECT[A, C](SELECT[C = 7](R JOIN (S JOIN T)))",
        # Rename inside a union branch.
        "PROJECT[A](R) UNION RENAME[B -> A](PROJECT[B](R))",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_all_three_semantics_invariant(self, text):
        db = self._db()
        query = parse_query(text)
        baseline, optimized = _both_plans(query, db)
        index = SourceIndex.from_database(db)
        assert optimized.rows(db) == interpret_view_rows(query, db)
        assert _mask_table(baseline, db, index) == _mask_table(
            optimized, db, index
        )
        assert baseline.where_rows(db) == optimized.where_rows(db)
        for deletions in [
            frozenset(),
            frozenset({("R", (1, 2))}),
            frozenset({("R", (2, 3)), ("S", (7,))}),
            frozenset({("T", (3, 7)), ("S", (8,)), ("R", (1, 3))}),
        ]:
            hypo = db.delete(deletions)
            assert optimized.rows(hypo) == interpret_view_rows(query, hypo)


class TestPushdownRules:
    def setup_method(self):
        self.db = Database(
            [
                Relation("R", ["A", "B"], [(1, 2)]),
                Relation("S", ["B", "C"], [(2, 5)]),
            ]
        )
        self.ctx = RewriteContext(_catalog(self.db))

    def test_select_through_project(self):
        node = parse_query("SELECT[A = 1](PROJECT[A](R))")
        rewritten = PushSelectThroughProject().apply(node, self.ctx)
        assert rewritten == parse_query("PROJECT[A](SELECT[A = 1](R))")

    def test_select_through_rename_inverts_predicate(self):
        node = parse_query("SELECT[Z = 1](RENAME[A -> Z](R))")
        rewritten = PushSelectThroughRename().apply(node, self.ctx)
        assert rewritten == parse_query("RENAME[A -> Z](SELECT[A = 1](R))")

    def test_select_through_union_copies_predicate(self):
        node = parse_query("SELECT[A = 1](R UNION R)")
        rewritten = PushSelectThroughUnion().apply(node, self.ctx)
        assert rewritten == parse_query(
            "SELECT[A = 1](R) UNION SELECT[A = 1](R)"
        )

    def test_select_through_join_splits_conjuncts(self):
        node = parse_query("SELECT[A = 1 AND C = 5 AND A < C](R JOIN S)")
        rewritten = PushSelectThroughJoin().apply(node, self.ctx)
        assert rewritten == parse_query(
            "SELECT[A < C](SELECT[A = 1](R) JOIN SELECT[C = 5](S))"
        )

    def test_select_spanning_both_sides_stays(self):
        node = parse_query("SELECT[A < C](R JOIN S)")
        assert PushSelectThroughJoin().apply(node, self.ctx) is None

    def test_prune_join_columns_keeps_join_keys(self):
        node = parse_query("PROJECT[A](R JOIN S)")
        rewritten = PruneJoinColumns().apply(node, self.ctx)
        # A and the join key B survive on the left; only B on the right.
        assert rewritten == parse_query("PROJECT[A](R JOIN PROJECT[B](S))")


class TestJoinReordering:
    def test_cross_product_avoided_when_chain_exists(self):
        db = Database(
            [
                Relation("R1", ["A1", "A2"], [(i, i % 3) for i in range(9)]),
                Relation("R2", ["A2", "A3"], [(i % 3, i % 3) for i in range(3)]),
                Relation("R3", ["A3", "A4"], [(i % 3, i) for i in range(9)]),
            ]
        )
        # Written so the first join is a cross product (R1 ⋈ R3).
        query = parse_query("PROJECT[A1, A4]((R1 JOIN R3) JOIN R2)")
        result = optimize(query, _catalog(db))
        assert "reorder-joins" in result.applied
        baseline, optimized = _both_plans(query, db)
        assert "cross product" in render_plan(baseline)
        assert "cross product" not in render_plan(optimized)
        assert optimized.rows(db) == baseline.rows(db)

    def test_reorder_preserves_output_schema_order(self):
        db = Database(
            [
                Relation("R", ["A", "B"], [(1, 2)]),
                Relation("S", ["B", "C"], [(2, 5), (3, 6), (4, 7)]),
            ]
        )
        query = parse_query("S JOIN R")  # schema (B, C, A)
        baseline, optimized = _both_plans(query, db)
        assert optimized.schema.attributes == baseline.schema.attributes
        assert optimized.rows(db) == baseline.rows(db)


def _connected(attr_sets):
    """Whether leaves sharing attributes link every leaf to the first."""
    joined, remaining = set(attr_sets[0]), list(attr_sets[1:])
    while remaining:
        linked = [a for a in remaining if joined & a]
        if not linked:
            return False
        for attrs in linked:
            joined |= attrs
            remaining.remove(attrs)
    return True


def _load_perfbench_workloads():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench",
        "workloads.py",
    )
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestConnectivityOrder:
    """The join order reads schemas only: it avoids every avoidable cross
    product, and changes no row, witness mask or where-location."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(["chain", "star"]),
        size=st.integers(min_value=4, max_value=5),
        seed=seeds,
        order=st.randoms(use_true_random=False),
    )
    def test_any_written_order_is_sound_and_cross_free(
        self, shape, size, seed, order
    ):
        if shape == "chain":
            db, _, _ = chain_workload(size, 5, seed=seed)
        else:
            db, _, _ = star_workload(size - 1, 4, seed=seed)
        names = sorted(db.names())
        order.shuffle(names)
        query = RelationRef(names[0])
        for name in names[1:]:
            query = Join(query, RelationRef(name))
        baseline, optimized = _both_plans(query, db)
        if _connected([frozenset(db[n].schema.attributes) for n in names]):
            assert "cross product" not in render_plan(optimized)
        index = SourceIndex.from_database(db)
        assert optimized.rows(db) == baseline.rows(db)
        assert _mask_table(optimized, db, index) == _mask_table(
            baseline, db, index
        )
        assert optimized.where_rows(db) == baseline.where_rows(db)

    def test_served_queries_are_not_reordered(self):
        workloads = _load_perfbench_workloads()
        databases = {
            workloads.CHAIN_QUERY: chain_workload(3, 4, seed=1)[0],
            workloads.SJ_QUERY: sj_workload(8, seed=1)[0],
            workloads.USERGROUP_QUERY: usergroup_workload(8, 3, 4, seed=1)[0],
        }
        for text, db in databases.items():
            _, optimized = _both_plans(parse_query(text), db)
            assert "reorder-joins" not in optimized.rewrites, text


class TestScanFusion:
    def setup_method(self):
        self.db = Database(
            [Relation("R", ["A", "B", "C"], [(1, 2, 3), (4, 5, 6), (1, 8, 9)])]
        )

    def test_filter_fused_into_scan(self):
        _, optimized = _both_plans(parse_query("SELECT[A = 1](R)"), self.db)
        assert isinstance(optimized.root, ScanOp)
        assert optimized.root.predicate is not None
        assert optimized.rows(self.db) == frozenset({(1, 2, 3), (1, 8, 9)})

    def test_project_and_filter_fuse_into_one_scan(self):
        _, optimized = _both_plans(
            parse_query("PROJECT[A](SELECT[B >= 2](R))"), self.db
        )
        root = optimized.root
        assert isinstance(root, ScanOp)
        assert root.columns == (0,)
        assert root.predicate is not None
        assert optimized.rows(self.db) == frozenset({(1,), (4,)})

    def test_fused_scan_merges_witnesses_like_project(self):
        query = parse_query("PROJECT[A](R)")
        baseline, optimized = _both_plans(query, self.db)
        index = SourceIndex.from_database(self.db)
        assert isinstance(optimized.root, ScanOp)
        assert _mask_table(baseline, self.db, index) == _mask_table(
            optimized, self.db, index
        )

    def test_unfused_level_zero_keeps_filter_op(self):
        baseline, _ = _both_plans(parse_query("SELECT[A = 1](R)"), self.db)
        assert isinstance(baseline.root, FilterOp)

    def test_stale_schema_still_detected(self):
        _, optimized = _both_plans(parse_query("SELECT[A = 1](R)"), self.db)
        changed = self.db.with_relation(Relation("R", ["A", "Z"], [(1, 2)]))
        with pytest.raises(EvaluationError, match="stale"):
            optimized.rows(changed)


class TestCompileErrorsMatchBaseline:
    """Level 1 fails exactly where and how level 0 fails."""

    def setup_method(self):
        self.catalog = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}

    @pytest.mark.parametrize(
        "text, exc",
        [
            ("Nope", EvaluationError),
            ("SELECT[Z = 1](R)", SchemaError),
            ("R UNION S", EvaluationError),
            ("PROJECT[Z](R)", SchemaError),
            ("RENAME[A -> B](R)", SchemaError),
            ("R UNION Nope", EvaluationError),
        ],
    )
    def test_same_exception_type(self, text, exc):
        query = parse_query(text)
        with pytest.raises(exc):
            compile_plan(query, self.catalog)
        with pytest.raises(exc):
            compile_plan(query, self.catalog, optimizer_level=1)


class TestPlanMemoVersioning:
    def setup_method(self):
        rows = [(i, i % 5) for i in range(100)]
        self.db = Database([Relation("R", ["A", "B"], rows)])
        self.rows = rows
        self.query = parse_query("SELECT[B = 0](R)")

    def test_levels_cached_separately(self):
        cache = ProvenanceCache()
        plain = cache.plan_for(self.query, self.db, optimizer_level=0)
        tuned = cache.plan_for(self.query, self.db, optimizer_level=1)
        assert plain is not tuned
        assert plain.optimizer_level == 0 and tuned.optimizer_level == 1
        assert cache.plan_for(self.query, self.db, optimizer_level=0) is plain
        assert cache.plan_for(self.query, self.db, optimizer_level=1) is tuned

    def test_default_level_is_optimized(self):
        cache = ProvenanceCache()
        plan = cache.plan_for(self.query, self.db)
        assert plan.optimizer_level == DEFAULT_OPTIMIZER_LEVEL == 1

    def test_hypothetical_deltas_share_optimized_plan(self):
        cache = ProvenanceCache()
        plan = cache.plan_for(self.query, self.db, optimizer_level=1)
        hypo = self.db.delete([("R", self.rows[0])])
        assert cache.plan_for(self.query, hypo, optimizer_level=1) is plan
        stats = cache.stats()
        assert stats["plan_misses"] == 1 and stats["plan_hits"] == 1

    def test_row_counts_never_recompile(self):
        """The key holds no row counts: a database shrunk to 40 rows and
        one grown to 300 both reuse the level-1 plan of the 100-row one."""
        cache = ProvenanceCache()
        plan = cache.plan_for(self.query, self.db, optimizer_level=1)
        shrunk = self.db.delete([("R", r) for r in self.rows[:60]])
        grown = self.db.insert([("R", (i, i % 5)) for i in range(100, 300)])
        assert len(shrunk["R"]) == 40 and len(grown["R"]) == 300
        assert cache.plan_for(self.query, shrunk, optimizer_level=1) is plan
        assert cache.plan_for(self.query, grown, optimizer_level=1) is plan
        assert cache.stats()["plan_misses"] == 1

    def test_level_zero_ignores_cardinalities(self):
        cache = ProvenanceCache()
        plan = cache.plan_for(self.query, self.db, optimizer_level=0)
        shrunk = self.db.delete([("R", r) for r in self.rows[:60]])
        assert cache.plan_for(self.query, shrunk, optimizer_level=0) is plan
