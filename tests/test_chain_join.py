"""Tests for the chain-join min-cut algorithm (Theorem 2.6)."""

import pytest

from repro.algebra import Database, Relation, parse_query, view_rows
from repro.deletion import (
    build_chain_network,
    chain_join_source_deletion,
    exact_source_deletion,
    verify_plan,
)
from repro.errors import InfeasibleError, QueryClassError
from repro.provenance import why_provenance
from repro.workloads import chain_workload, usergroup_workload


class TestConstruction:
    def test_network_has_split_nodes(self):
        db, query, target = chain_workload(3, 4, seed=1)
        network, candidates = build_chain_network(query, db, target)
        assert network.has_node("s") and network.has_node("t")
        assert candidates  # at least the guaranteed path rows

    def test_only_agreeing_rows_kept(self):
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0), (9, 0)]),
                Relation("R2", ["B", "C"], [(0, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, C](R1 JOIN R2)")
        _, candidates = build_chain_network(query, db, (0, 0))
        # (9, 0) disagrees with the target on A: excluded.
        assert ("R1", (9, 0)) not in candidates
        assert ("R1", (0, 0)) in candidates


class TestAlgorithm:
    def test_single_path(self):
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0)]),
                Relation("R2", ["B", "C"], [(0, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, C](R1 JOIN R2)")
        plan = chain_join_source_deletion(query, db, (0, 0))
        verify_plan(query, db, plan)
        assert plan.num_deletions == 1

    def test_parallel_paths_need_cut(self):
        """Two disjoint paths: min deletion is 2 (or 1 at a shared node)."""
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 1), (0, 2)]),
                Relation("R2", ["B", "C"], [(1, 0), (2, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, C](R1 JOIN R2)")
        plan = chain_join_source_deletion(query, db, (0, 0))
        verify_plan(query, db, plan)
        assert plan.num_deletions == 2

    def test_bottleneck_node_found(self):
        """Many paths funnel through one middle tuple: min cut is 1."""
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, i) for i in range(4)]),
                Relation("R2", ["B", "C"], [(i, 5) for i in range(4)]),
                Relation("R3", ["C", "D"], [(5, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, D](R1 JOIN R2 JOIN R3)")
        plan = chain_join_source_deletion(query, db, (0, 0))
        verify_plan(query, db, plan)
        assert plan.deletions == frozenset({("R3", (5, 0))})

    @pytest.mark.parametrize("k,rows,seed", [(2, 4, 0), (3, 5, 1), (4, 4, 2), (3, 7, 3)])
    def test_matches_exact_solver(self, k, rows, seed):
        db, query, target = chain_workload(k, rows, seed=seed)
        mincut = chain_join_source_deletion(query, db, target)
        exact = exact_source_deletion(query, db, target)
        verify_plan(query, db, mincut)
        assert mincut.num_deletions == exact.num_deletions

    def test_usergroup_is_a_chain(self):
        db, query, target = usergroup_workload(6, 4, 4, seed=5)
        plan = chain_join_source_deletion(query, db, target)
        verify_plan(query, db, plan)
        exact = exact_source_deletion(query, db, target)
        assert plan.num_deletions == exact.num_deletions


class TestWitnessRoute:
    """``prov=`` builds the network from the target's witnesses: same plan."""

    @pytest.mark.parametrize(
        "workload",
        [
            lambda: chain_workload(2, 6, seed=0),
            lambda: chain_workload(3, 8, seed=1),
            lambda: chain_workload(4, 6, seed=2),
            lambda: usergroup_workload(8, 4, 5, seed=5),
        ],
    )
    def test_every_view_row_gets_the_database_routes_plan(self, workload):
        db, query, _ = workload()
        prov = why_provenance(query, db)
        for row in sorted(view_rows(query, db), key=repr):
            scanned = chain_join_source_deletion(query, db, row)
            witnessed = chain_join_source_deletion(query, db, row, prov=prov)
            assert witnessed == scanned, row

    def test_layers_drop_rows_on_no_path(self):
        """(0, 7) agrees with the target but joins nothing: a dead end."""
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0), (0, 7)]),
                Relation("R2", ["B", "X"], [(0, 1), (0, 2)]),
                Relation("R3", ["C", "D"], [(1, 0), (2, 0), (3, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, D](R1 JOIN RENAME[X -> C](R2) JOIN R3)")
        prov = why_provenance(query, db)
        _, scanned = build_chain_network(query, db, (0, 0))
        _, witnessed = build_chain_network(query, db, (0, 0), prov)
        assert set(witnessed) == prov.witness_universe((0, 0))
        assert set(scanned) - set(witnessed) == {("R1", (0, 7)), ("R3", (3, 0))}
        assert witnessed == [c for c in scanned if c in set(witnessed)]
        plan = chain_join_source_deletion(query, db, (0, 0), prov=prov)
        assert plan == chain_join_source_deletion(query, db, (0, 0))
        verify_plan(query, db, plan)

    def test_rejects_missing_target(self):
        db, query, _ = chain_workload(3, 4, seed=1)
        with pytest.raises(InfeasibleError, match="not in the view"):
            chain_join_source_deletion(
                query, db, (99, 99), prov=why_provenance(query, db)
            )


class TestGuards:
    def test_rejects_union(self):
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0)]),
                Relation("R2", ["B", "C"], [(0, 0)]),
            ]
        )
        query = parse_query(
            "PROJECT[A, C](R1 JOIN R2) UNION PROJECT[A, C](R1 JOIN R2)"
        )
        with pytest.raises(QueryClassError):
            chain_join_source_deletion(query, db, (0, 0))

    def test_rejects_selection(self):
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0)]),
                Relation("R2", ["B", "C"], [(0, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, C](SELECT[A = 0](R1 JOIN R2))")
        with pytest.raises(QueryClassError):
            chain_join_source_deletion(query, db, (0, 0))

    def test_rejects_non_chain(self):
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0)]),
                Relation("R2", ["B", "C"], [(0, 0)]),
                Relation("R3", ["C", "A"], [(0, 0)]),
            ]
        )
        query = parse_query("PROJECT[A, C](R1 JOIN R2 JOIN R3)")
        with pytest.raises(QueryClassError):
            chain_join_source_deletion(query, db, (0, 0))

    def test_rejects_missing_target(self):
        db, query, _ = chain_workload(3, 4, seed=1)
        with pytest.raises(InfeasibleError):
            chain_join_source_deletion(query, db, (99, 99))

    def test_rejects_missing_projection(self):
        db = Database(
            [
                Relation("R1", ["A", "B"], [(0, 0)]),
                Relation("R2", ["B", "C"], [(0, 0)]),
            ]
        )
        query = parse_query("R1 JOIN R2")
        with pytest.raises(QueryClassError):
            chain_join_source_deletion(query, db, (0, 0, 0))
