"""Boundary-of-theorem tests: where the paper's guarantees stop.

The paper's polynomial-case theorems are stated for (rename-free) normal
form queries; these tests pin down what happens just outside those
boundaries — the library must stay *correct* (report honest side effects,
refuse unsound shortcuts) even where the nice guarantees no longer hold.
"""

import ast
import pathlib

import pytest

import repro
from repro.algebra import Database, Relation, parse_query, view_rows
from repro.annotation import exhaustive_placement, spu_placement
from repro.deletion import (
    exact_view_deletion,
    spu_view_deletion,
    verify_plan,
)
from repro.errors import ExponentialGuardError
from repro.provenance import Location, why_provenance


class TestSPUWithRenamingLosesTheGuarantee:
    """Theorem 2.3's 'always side-effect-free' needs rename-freedom.

    With renaming, two union branches can project *different* columns of
    the same source tuple to the same view schema; deleting the tuple then
    kills both view rows.  The algorithm must report this honestly.
    """

    DB = Database([Relation("R", ["A", "B"], [(1, 2)])])
    # Branch 1 projects A; branch 2 projects B renamed to A.
    QUERY = parse_query("PROJECT[A](R) UNION RENAME[B -> A](PROJECT[B](R))")

    def test_view_has_two_rows_from_one_tuple(self):
        assert view_rows(self.QUERY, self.DB) == frozenset({(1,), (2,)})

    def test_unavoidable_side_effect_reported(self):
        plan = spu_view_deletion(self.QUERY, self.DB, (1,))
        verify_plan(self.QUERY, self.DB, plan)
        assert plan.side_effects == frozenset({(2,)})
        # Still the unique minimal deletion: nothing smaller removes (1,).
        assert plan.deletions == frozenset({("R", (1, 2))})

    def test_exact_solver_agrees_no_clean_deletion(self):
        exact = exact_view_deletion(self.QUERY, self.DB, (1,))
        assert exact.num_side_effects == 1

    def test_annotation_placement_still_clean_here(self):
        # Annotations name the attribute, so the two branches' images do
        # not collide: annotating (R,(1,2),A) reaches only the (1,) row.
        placement = spu_placement(self.QUERY, self.DB, Location("V", (1,), "A"))
        assert placement.side_effect_free


class TestSelfJoins:
    """SJ theorems assume distinct relations; self-joins still work."""

    DB = Database([Relation("R", ["A", "B"], [(1, 2), (2, 3)])])

    def test_self_join_via_rename(self):
        # Path query: R(A,B) ⋈ δ(R)(B,C) — pairs (1,2,3).
        query = parse_query("R JOIN RENAME[A -> B, B -> C](R)")
        rows = view_rows(query, self.DB)
        assert (1, 2, 3) in rows
        prov = why_provenance(query, self.DB)
        # The witness uses the same relation twice with different rows.
        (witness,) = prov.witnesses((1, 2, 3))
        assert witness == frozenset({("R", (1, 2)), ("R", (2, 3))})

    def test_deleting_shared_tuple(self):
        # (2,3) feeds both the left of (2,3,?) and the right of (1,2,3).
        query = parse_query("R JOIN RENAME[A -> B, B -> C](R)")
        plan = exact_view_deletion(query, self.DB, (1, 2, 3))
        verify_plan(query, self.DB, plan)


class TestConstantsInViews:
    """§3: 'constants defined in the view do not carry annotations'.

    Our algebra has no constant-introducing operator (as the paper assumes
    at the end of §3), but a selection can pin an attribute to a constant —
    the annotation still traces to the source field, not to the constant.
    """

    DB = Database([Relation("R", ["A", "B"], [(1, 2), (1, 3)])])

    def test_pinned_attribute_still_traces_to_source(self):
        query = parse_query("SELECT[A = 1](R)")
        placement = exhaustive_placement(
            query, self.DB, Location("V", (1, 2), "A")
        )
        assert placement.source == Location("R", (1, 2), "A")
        assert placement.side_effect_free


#: The modules that build witness tables and patch them on writes.
BUILD_PATH = (
    "algebra/plan.py",
    "provenance/bitset.py",
    "provenance/witness_table.py",
    "provenance/cache.py",
    "provenance/interning.py",
    "provenance/why.py",
    "columnar/store.py",
    "columnar/kernels.py",
)


class TestBudgetGuards:
    def test_guard_lives_in_the_search_only(self):
        """Building or delta-patching witnesses never refuses: the
        hardness is in the hitting-set search over them, so no build-path
        module names the guard error or imports the solvers."""
        root = pathlib.Path(repro.__file__).parent
        for path in BUILD_PATH:
            source = (root / path).read_text()
            assert "ExponentialGuardError" not in source, path
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                for module in modules:
                    assert module.split(".")[:2] != ["repro", "solvers"], (
                        path,
                        module,
                    )

    def test_exact_view_deletion_budget(self):
        # A projection of a wide cross-ish join: many minimal hitting sets.
        relations = [
            Relation(f"R{i}", [f"A{i}", "K"], [(v, 0) for v in range(3)])
            for i in range(4)
        ]
        db = Database(relations)
        query = parse_query(
            "PROJECT[K](R0 JOIN R1 JOIN R2 JOIN R3)"
        )
        with pytest.raises(ExponentialGuardError):
            exact_view_deletion(query, db, (0,), node_budget=3)

    def test_generous_budget_succeeds(self):
        db = Database(
            [
                Relation("R", ["A", "B"], [(1, 2), (1, 3)]),
                Relation("S", ["B", "C"], [(2, 5), (3, 5)]),
            ]
        )
        query = parse_query("PROJECT[A, C](R JOIN S)")
        plan = exact_view_deletion(query, db, (1, 5), node_budget=10_000)
        verify_plan(query, db, plan)


class TestEmptyAndDegenerateViews:
    def test_empty_view_deletion_raises(self):
        from repro.errors import InfeasibleError

        db = Database([Relation("R", ["A"], [])])
        with pytest.raises(InfeasibleError):
            exact_view_deletion(parse_query("R"), db, (1,))

    def test_single_tuple_relation(self):
        db = Database([Relation("R", ["A"], [(1,)])])
        plan = exact_view_deletion(parse_query("R"), db, (1,))
        verify_plan(parse_query("R"), db, plan)
        assert plan.deletions == frozenset({("R", (1,))})

    def test_idempotent_union_of_same_relation(self):
        db = Database([Relation("R", ["A"], [(1,)])])
        query = parse_query("R UNION R")
        plan = exact_view_deletion(query, db, (1,))
        verify_plan(query, db, plan)
        assert plan.side_effect_free
