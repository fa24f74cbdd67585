"""Unit tests for the compiled physical-plan layer (repro.algebra.plan)."""

import pytest

from repro.algebra import Database, Relation, parse_predicate, parse_query
from repro.algebra.plan import (
    FilterOp,
    HashJoinOp,
    ProjectOp,
    RenameOp,
    ScanOp,
    UnionOp,
    bind_predicate,
    compile_plan,
)
from repro.algebra.render import render_plan
from repro.algebra.schema import Schema
from repro.errors import EvaluationError, SchemaError
from repro.provenance import SourceIndex
from repro.provenance.cache import ProvenanceCache, cached_plan, provenance_cache


@pytest.fixture
def catalog(tiny_db):
    return {name: tiny_db[name].schema for name in tiny_db}


class TestCompileTimeValidation:
    """Malformed queries fail once, at compile, with the historical types."""

    def test_unknown_relation_is_evaluation_error(self, catalog):
        with pytest.raises(EvaluationError, match="Nope"):
            compile_plan(parse_query("Nope"), catalog)

    def test_unknown_predicate_attribute_is_schema_error(self, catalog):
        query = parse_query("SELECT[Z = 1](R)")
        with pytest.raises(SchemaError):
            compile_plan(query, catalog)

    def test_incompatible_union_is_evaluation_error(self, catalog):
        query = parse_query("R UNION S")  # R(A,B) vs S(B,C)
        with pytest.raises(EvaluationError, match="incompatible"):
            compile_plan(query, catalog)

    def test_projection_onto_missing_attribute_is_schema_error(self, catalog):
        query = parse_query("PROJECT[Z](R)")
        with pytest.raises(SchemaError):
            compile_plan(query, catalog)

    def test_rename_collision_is_schema_error(self, catalog):
        query = parse_query("RENAME[A -> B](R)")
        with pytest.raises(SchemaError):
            compile_plan(query, catalog)

    def test_child_errors_surface_before_parent_validation(self, catalog):
        # The union's right operand references a missing relation; the old
        # interpreter evaluated children first, so the missing relation won.
        query = parse_query("R UNION Nope")
        with pytest.raises(EvaluationError, match="Nope"):
            compile_plan(query, catalog)

    def test_valid_query_compiles_without_data(self, catalog):
        plan = compile_plan(parse_query("PROJECT[A](R JOIN S)"), catalog)
        assert plan.schema.attributes == ("A",)
        assert plan.source_names == ("R", "S")


class TestPredicateBinding:
    def test_bound_comparison_matches_interpreted(self):
        schema = Schema(["A", "B"])
        predicate = parse_predicate("A < B")
        test = bind_predicate(predicate, schema)
        for row in [(1, 2), (2, 1), (3, 3)]:
            assert test(row) == predicate.evaluate(schema, row)

    def test_boolean_combinators(self):
        schema = Schema(["A"])
        predicate = parse_predicate("(A = 1 OR A = 2) AND NOT A = 2")
        test = bind_predicate(predicate, schema)
        assert [test((v,)) for v in (1, 2, 3)] == [True, False, False]

    def test_incomparable_values_raise_at_runtime(self):
        schema = Schema(["A"])
        test = bind_predicate(parse_predicate("A < 3"), schema)
        with pytest.raises(EvaluationError, match="cannot compare"):
            test(("a string",))

    def test_unknown_attribute_raises_at_bind_time(self):
        with pytest.raises(SchemaError):
            bind_predicate(parse_predicate("Z = 1"), Schema(["A"]))


class TestPlanExecution:
    def test_operator_tree_shape(self, catalog):
        plan = compile_plan(
            parse_query("PROJECT[A](SELECT[A = 1](R JOIN S))"), catalog
        )
        project = plan.root
        assert isinstance(project, ProjectOp)
        (select,) = project.children
        assert isinstance(select, FilterOp)
        (join,) = select.children
        assert isinstance(join, HashJoinOp)
        left, right = join.children
        assert isinstance(left, ScanOp) and isinstance(right, ScanOp)

    def test_rows(self, tiny_db, catalog):
        plan = compile_plan(parse_query("PROJECT[A, C](R JOIN S)"), catalog)
        assert plan.rows(tiny_db) == frozenset({(1, 5), (1, 6), (4, 5)})

    def test_relation_carries_name_and_schema(self, tiny_db, catalog):
        plan = compile_plan(parse_query("R"), catalog)
        view = plan.relation(tiny_db, name="W")
        assert view.name == "W"
        assert view.schema.attributes == ("A", "B")

    def test_union_identity_reorder_skipped(self, catalog):
        plan = compile_plan(parse_query("R UNION R"), catalog)
        assert isinstance(plan.root, UnionOp)
        assert plan.root.reorder is None

    def test_union_reorders_right_rows(self):
        db = Database(
            [
                Relation("X", ["A", "B"], [(1, 2)]),
                Relation("Y", ["B", "A"], [(2, 1), (9, 8)]),
            ]
        )
        plan = compile_plan(
            parse_query("X UNION Y"), {n: db[n].schema for n in db}
        )
        assert plan.root.reorder == (1, 0)
        assert plan.rows(db) == frozenset({(1, 2), (8, 9)})

    def test_rename_changes_schema_only(self, tiny_db, catalog):
        plan = compile_plan(parse_query("RENAME[A -> X](R)"), catalog)
        assert isinstance(plan.root, RenameOp)
        assert plan.schema.attributes == ("X", "B")
        assert plan.rows(tiny_db) == tiny_db["R"].rows

    def test_annotated_rows_intern_through_index(self, tiny_db, catalog):
        plan = compile_plan(parse_query("PROJECT[A](R)"), catalog)
        index = SourceIndex()
        table = plan.annotated_rows(tiny_db, index)
        assert set(table) == {(1,), (4,)}
        # (1,) is derivable from two source tuples: two singleton masks.
        assert len(table[(1,)]) == 2
        for masks in table.values():
            for mask in masks:
                assert index.decode_mask(mask) <= {
                    ("R", row) for row in tiny_db["R"].rows
                }

    def test_stale_plan_detected(self, catalog, tiny_db):
        plan = compile_plan(parse_query("R"), catalog)
        changed = tiny_db.with_relation(
            Relation("R", ["A", "Z"], [(1, 2)])
        )
        with pytest.raises(EvaluationError, match="stale"):
            plan.rows(changed)


class TestWhereColumns:
    """The compile-time column map ``where`` is read off witnesses with."""

    @pytest.mark.parametrize("level", [0, 1])
    def test_join_merges_same_named_columns(self, catalog, level):
        plan = compile_plan(
            parse_query("SELECT[A != C](R JOIN S)"), catalog, optimizer_level=level
        )
        assert plan.where_columns == (
            (("R", "A"),),
            (("R", "B"), ("S", "B")),
            (("S", "C"),),
        )

    @pytest.mark.parametrize("level", [0, 1])
    def test_rename_and_projection_keep_base_fields(self, catalog, level):
        query = parse_query("PROJECT[D, A](RENAME[C -> D](R JOIN S))")
        plan = compile_plan(query, catalog, optimizer_level=level)
        assert plan.schema.attributes == ("D", "A")
        assert plan.where_columns == ((("S", "C"),), (("R", "A"),))

    @pytest.mark.parametrize(
        "text",
        [
            "R UNION RENAME[C -> A](S)",
            "PROJECT[A](R JOIN RENAME[A -> A2](R))",
        ],
    )
    def test_union_or_repeated_scan_has_no_map(self, catalog, text):
        assert compile_plan(parse_query(text), catalog).where_columns is None


class TestRenderPlan:
    def test_explain_and_render_agree(self, catalog):
        plan = compile_plan(parse_query("PROJECT[A](R JOIN S)"), catalog)
        assert plan.explain() == render_plan(plan)

    def test_render_shows_positions_and_keys(self, catalog):
        plan = compile_plan(
            parse_query("PROJECT[A, C](SELECT[A = 1](R JOIN S))"), catalog
        )
        text = render_plan(plan)
        assert "Project [A, C] cols=(0, 2)" in text
        assert "HashJoin on (B)" in text
        assert "Filter [A = 1]" in text
        assert "Scan R schema=(A, B)" in text

    def test_cross_product_labelled(self):
        catalog = {"X": Schema(["A"]), "Y": Schema(["B"])}
        plan = compile_plan(parse_query("X JOIN Y"), catalog)
        assert "cross product" in render_plan(plan)


class TestPlanMemo:
    def test_shared_across_hypothetical_databases(self, tiny_db):
        query = parse_query("PROJECT[A, C](R JOIN S)")
        cache = ProvenanceCache()
        plan = cache.plan_for(query, tiny_db)
        hypo = tiny_db.delete([("R", (1, 2))])
        assert cache.plan_for(query, hypo) is plan  # same schemas → same plan
        stats = cache.stats()
        assert stats["plan_misses"] == 1 and stats["plan_hits"] == 1

    def test_schema_change_recompiles(self, tiny_db):
        query = parse_query("R")
        cache = ProvenanceCache()
        plan = cache.plan_for(query, tiny_db)
        changed = tiny_db.with_relation(Relation("R", ["A", "Z"], [(1, 2)]))
        other = cache.plan_for(query, changed)
        assert other is not plan
        assert cache.stats()["plan_misses"] == 2

    def test_lru_eviction_bounds_plan_memo(self, tiny_db):
        cache = ProvenanceCache(plan_maxsize=2)
        queries = [parse_query(q) for q in ("R", "S", "R JOIN S")]
        for query in queries:
            cache.plan_for(query, tiny_db)
        assert cache.stats()["plan_size"] == 2

    def test_clear_drops_plans(self, tiny_db):
        query = parse_query("R")
        provenance_cache.clear()
        cached_plan(query, tiny_db)
        assert provenance_cache.stats()["plan_size"] >= 1
        provenance_cache.clear()
        assert provenance_cache.stats()["plan_size"] == 0

    def test_missing_relation_not_cached(self, tiny_db):
        query = parse_query("Nope")
        cache = ProvenanceCache()
        for _ in range(2):
            with pytest.raises(EvaluationError):
                cache.plan_for(query, tiny_db)
        assert cache.stats()["plan_size"] == 0
