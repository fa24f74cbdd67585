"""Tests for proof trees, and their bridge to minimal witnesses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import Database, Relation, parse_query
from repro.provenance.proof import Fact, Derivation, derivations, render_proof
from repro.oracle import minimize_monomials
from repro.provenance.why import why_provenance
from repro.workloads import random_instance


class TestStructure:
    def test_base_fact(self, tiny_db):
        trees = derivations(parse_query("R"), tiny_db, (1, 2))
        assert trees == [Fact("R", (1, 2))]

    def test_missing_row_no_proofs(self, tiny_db):
        assert derivations(parse_query("R"), tiny_db, (9, 9)) == []

    def test_select_wraps(self, tiny_db):
        trees = derivations(parse_query("SELECT[A = 1](R)"), tiny_db, (1, 2))
        assert len(trees) == 1
        assert trees[0].operator == "select"
        assert trees[0].children == (Fact("R", (1, 2)),)

    def test_select_filtered_row_unprovable(self, tiny_db):
        assert derivations(parse_query("SELECT[A = 9](R)"), tiny_db, (1, 2)) == []

    def test_projection_branches(self, tiny_db):
        trees = derivations(parse_query("PROJECT[A](R)"), tiny_db, (1,))
        assert len(trees) == 2  # via (1,2) and via (1,3)
        leaf_sets = {tree.leaves() for tree in trees}
        assert frozenset({("R", (1, 2))}) in leaf_sets
        assert frozenset({("R", (1, 3))}) in leaf_sets

    def test_join_combines(self, tiny_db):
        trees = derivations(parse_query("R JOIN S"), tiny_db, (1, 2, 5))
        assert len(trees) == 1
        assert trees[0].leaves() == frozenset({("R", (1, 2)), ("S", (2, 5))})

    def test_union_both_sides(self):
        db = Database(
            [Relation("X", ["A"], [(1,)]), Relation("Y", ["A"], [(1,)])]
        )
        trees = derivations(parse_query("X UNION Y"), db, (1,))
        details = {t.detail for t in trees}
        assert details == {"∪ (left)", "∪ (right)"}

    def test_rename_wraps(self, tiny_db):
        trees = derivations(parse_query("RENAME[A -> Z](R)"), tiny_db, (1, 2))
        assert trees[0].operator == "rename"

    def test_limit(self, tiny_db):
        trees = derivations(parse_query("PROJECT[A](R)"), tiny_db, (1,), limit=1)
        assert len(trees) == 1


class TestRendering:
    def test_fact(self):
        assert render_proof(Fact("R", (1, "x"))) == "R(1, x)"

    def test_nested(self, tiny_db):
        trees = derivations(
            parse_query("PROJECT[A](R JOIN S)"), tiny_db, (1,), limit=1
        )
        text = render_proof(trees[0])
        lines = text.splitlines()
        assert lines[0].startswith("Π[A] => (1)")
        assert any(line.strip().startswith("⋈") for line in lines)
        assert any("R(1," in line for line in lines)


class TestWitnessBridge:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_proof_leaves_are_witnesses(self, seed):
        """Every proof tree's leaf set derives the row (contains a minimal
        witness); every minimal witness appears as some proof's leaf set
        after minimization."""
        db, query = random_instance(seed, max_depth=3)
        prov = why_provenance(query, db)
        for row in prov.rows[:3]:
            trees = derivations(query, db, row, limit=500)
            assert trees, (query, row)
            minimal = prov.witnesses(row)
            leaf_sets = {tree.leaves() for tree in trees}
            # (a) each proof's leaves contain some minimal witness
            for leaves in leaf_sets:
                assert any(w <= leaves for w in minimal), (query, row)
            # (b) minimizing all proofs' leaf sets gives exactly the basis,
            # provided enumeration was exhaustive (below the limit)
            if len(trees) < 500:
                assert minimize_monomials(set(leaf_sets)) == minimal
