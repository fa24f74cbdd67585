"""Tests for why-provenance (minimal witnesses).

Key invariant, checked on random instances: W is a minimal witness of view
tuple t iff t ∈ Q(W) and t ∉ Q(W') for every proper subset W' ⊂ W — the
definitional characterization, established by re-evaluating the query on
sub-instances (never via the provenance machinery itself).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import Database, Relation, parse_query, view_rows
from repro.errors import InfeasibleError
from repro.oracle import minimize_monomials
from repro.provenance.why import why_provenance, witnesses_of
from repro.workloads import random_instance


class TestMinimizeMonomials:
    def test_absorption(self):
        small = frozenset({("R", (1,))})
        large = small | {("R", (2,))}
        assert minimize_monomials({small, large}) == frozenset({small})

    def test_incomparable_kept(self):
        a = frozenset({("R", (1,))})
        b = frozenset({("R", (2,))})
        assert minimize_monomials({a, b}) == frozenset({a, b})

    def test_empty(self):
        assert minimize_monomials(set()) == frozenset()


class TestOperators:
    def test_base_relation(self, tiny_db):
        prov = why_provenance(parse_query("R"), tiny_db)
        assert prov.witnesses((1, 2)) == frozenset({frozenset({("R", (1, 2))})})

    def test_select_keeps_witnesses(self, tiny_db):
        prov = why_provenance(parse_query("SELECT[A = 1](R)"), tiny_db)
        assert prov.witnesses((1, 2)) == frozenset({frozenset({("R", (1, 2))})})
        assert (4, 2) not in prov

    def test_projection_unions_witnesses(self, tiny_db):
        prov = why_provenance(parse_query("PROJECT[A](R)"), tiny_db)
        assert prov.witnesses((1,)) == frozenset(
            {
                frozenset({("R", (1, 2))}),
                frozenset({("R", (1, 3))}),
            }
        )

    def test_join_multiplies_witnesses(self, tiny_db):
        prov = why_provenance(parse_query("R JOIN S"), tiny_db)
        assert prov.witnesses((1, 2, 5)) == frozenset(
            {frozenset({("R", (1, 2)), ("S", (2, 5))})}
        )

    def test_union_merges_witnesses(self):
        db = Database(
            [Relation("X", ["A"], [(1,)]), Relation("Y", ["A"], [(1,), (2,)])]
        )
        prov = why_provenance(parse_query("X UNION Y"), db)
        assert prov.witnesses((1,)) == frozenset(
            {frozenset({("X", (1,))}), frozenset({("Y", (1,))})}
        )

    def test_union_absorption(self):
        """A union branch whose witness strictly contains another's is absorbed."""
        db = Database(
            [Relation("X", ["A"], [(1,)]), Relation("Y", ["A"], [(1,)])]
        )
        prov = why_provenance(parse_query("X UNION (X JOIN Y)"), db)
        assert prov.witnesses((1,)) == frozenset({frozenset({("X", (1,))})})

    def test_rename_preserves_witnesses(self, tiny_db):
        prov = why_provenance(parse_query("RENAME[A -> Z](R)"), tiny_db)
        assert prov.witnesses((1, 2)) == frozenset({frozenset({("R", (1, 2))})})

    def test_missing_row_raises(self, tiny_db):
        prov = why_provenance(parse_query("R"), tiny_db)
        with pytest.raises(InfeasibleError):
            prov.witnesses((9, 9))


class TestWhyProvenanceApi:
    def test_usergroup_example(self, usergroup_db, usergroup_query):
        """(joe, f1) has two witnesses — the paper's motivating ambiguity."""
        wits = witnesses_of(usergroup_query, usergroup_db, ("joe", "f1"))
        assert wits == frozenset(
            {
                frozenset({("UserGroup", ("joe", "g1")), ("GroupFile", ("g1", "f1"))}),
                frozenset({("UserGroup", ("joe", "g2")), ("GroupFile", ("g2", "f1"))}),
            }
        )

    def test_witness_universe(self, usergroup_db, usergroup_query):
        prov = why_provenance(usergroup_query, usergroup_db)
        universe = prov.witness_universe(("joe", "f1"))
        assert ("UserGroup", ("joe", "g1")) in universe
        assert len(universe) == 4

    def test_survives(self, usergroup_db, usergroup_query):
        prov = why_provenance(usergroup_query, usergroup_db)
        assert prov.survives(
            ("joe", "f1"), frozenset({("UserGroup", ("joe", "g1"))})
        )
        assert not prov.survives(
            ("joe", "f1"),
            frozenset({("UserGroup", ("joe", "g1")), ("UserGroup", ("joe", "g2"))}),
        )

    def test_side_effects(self, usergroup_db, usergroup_query):
        prov = why_provenance(usergroup_query, usergroup_db)
        effects = prov.side_effects(
            ("joe", "f1"), frozenset({("GroupFile", ("g1", "f1"))})
        )
        assert effects == frozenset({("ann", "f1")})

    def test_relation_roundtrip(self, usergroup_db, usergroup_query):
        from repro.algebra import evaluate

        prov = why_provenance(usergroup_query, usergroup_db)
        assert set(prov.relation().rows) == set(
            evaluate(usergroup_query, usergroup_db).rows
        )


def _all_subinstances(source_tuples):
    for size in range(len(source_tuples) + 1):
        yield from itertools.combinations(source_tuples, size)


class TestDefinitionalCharacterization:
    """Witnesses computed compositionally match the definition exactly."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_minimal_witnesses_definition(self, seed):
        db, query = random_instance(seed, max_depth=2, num_relations=2)
        all_tuples = db.all_source_tuples()
        if len(all_tuples) > 9:  # keep 2^n enumeration tractable
            return
        prov = why_provenance(query, db)
        # Compute, per view row, the minimal sub-instances deriving it.
        definitional = {}
        for subset in _all_subinstances(all_tuples):
            keep = set(subset)
            reduced = db.delete([t for t in all_tuples if t not in keep])
            for row in view_rows(query, reduced):
                definitional.setdefault(row, set()).add(frozenset(keep))
        for row in prov.rows:
            minimal = minimize_monomials(definitional[row])
            assert prov.witnesses(row) == minimal, (row, query)
