"""Theorem 2.6: minimum source deletions for chain-join PJ queries, by min cut.

For PJ queries in normal form whose joins form a *chain* — only consecutive
relations share attributes — the source side-effect problem is solvable in
polynomial time with a flow network:

1. eliminate from each relation the tuples that do not agree with the doomed
   output tuple ``t0`` on the projected attributes;
2. build a layered graph, one layer per relation in chain order, with an
   edge between consecutive-layer tuples that agree on the relations' shared
   attributes;
3. split every tuple node ``v`` into ``v_in → v_out`` with capacity 1 (all
   other edges ∞), add ``s`` before the first layer and ``t`` after the last;
4. every ``s–t`` path is a witness for ``t0``, so a minimum ``s–t`` cut is a
   minimum set of tuple deletions destroying all witnesses.

:func:`chain_join_source_deletion` implements the construction on top of
:class:`repro.solvers.maxflow.FlowNetwork` and returns a verified optimal
:class:`~repro.deletion.plan.DeletionPlan`.

The nodes on ``s–t`` paths are exactly the tuples of ``t0``'s minimal
witnesses, and the tuples step 1 keeps but no path uses carry no flow and
never reach the cut.  So a caller holding the why-provenance passes it as
``prov=``: the layers are then read off ``t0``'s witnesses, in the order
step 1 would scan them, the view check and the side effects come from the
witness kernel, and the database is never scanned or re-evaluated.  The
cut is the same either way (the serving engine takes this route from its
warm witness table; one-shot callers omit ``prov``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleError, QueryClassError
from repro.algebra.ast import Query
from repro.algebra.classify import (
    branch_parts,
    chain_join_order,
    flatten_union,
    leaf_base_name,
)
from repro.algebra.evaluate import view_rows
from repro.algebra.relation import Database, Row, row_sort_key
from repro.algebra.schema import Schema
from repro.deletion.plan import DeletionPlan, apply_deletions
from repro.provenance.why import WhyProvenance
from repro.solvers.maxflow import INF, FlowNetwork

__all__ = ["chain_join_source_deletion", "build_chain_network"]


def _require_chain_pj(
    query: Query, catalog: Mapping[str, Schema]
) -> Tuple[Tuple[str, ...], List[Query]]:
    """Validate the query shape; return (projection attributes, chain leaves)."""
    branches = flatten_union(query)
    if len(branches) != 1:
        raise QueryClassError("chain-join algorithm requires a union-free PJ query")
    project, select, _ = branch_parts(branches[0])
    if select is not None:
        raise QueryClassError(
            "chain-join algorithm requires a pure PJ query (no selection); "
            "Theorem 2.6 is stated for PJ queries in normal form"
        )
    if project is None:
        raise QueryClassError("chain-join algorithm requires a projection at the root")
    chain = chain_join_order(query, catalog)
    if chain is None:
        raise QueryClassError("the query's joins do not form a chain")
    return tuple(project.attributes), chain


def build_chain_network(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> Tuple[FlowNetwork, List[Tuple[str, Row]]]:
    """Construct the layered node-split flow network for ``target``.

    Returns the network and the list of candidate source tuples (one
    node-split pair per candidate).  Node labels: ``"s"``, ``"t"``, and
    ``("in"/"out", layer_index, row)`` for tuple nodes.  Each layer holds
    the relation's rows that agree with ``target``, or, given ``prov`` (a
    view containing ``target``), its rows in ``target``'s witnesses;
    both in :meth:`~repro.algebra.relation.Relation.sorted_rows` order.
    """
    catalog = {name: db[name].schema for name in db}
    projection, chain = _require_chain_pj(query, catalog)
    target = tuple(target)
    if len(target) != len(projection):
        raise InfeasibleError(
            f"target {target!r} does not match projection {projection!r}"
        )
    target_value = dict(zip(projection, target))
    witnessed: Dict[str, List[Row]] = {}
    if prov is not None:
        # Chain relations are distinct, so a witness tuple's relation
        # names its layer.
        for name, row in prov.witness_universe(target):
            witnessed.setdefault(name, []).append(row)

    layers: List[List[Row]] = []
    layer_schemas: List[Schema] = []
    base_names: List[str] = []
    for leaf in chain:
        schema = leaf.output_schema(catalog)
        base = leaf_base_name(leaf)
        if prov is not None:
            rows = sorted(witnessed.get(base, ()), key=row_sort_key)
        else:
            # The leaf's schema equals the base schema up to renaming, in
            # the same attribute order, so row values align with `schema`.
            rows = [
                row
                for row in db[base].sorted_rows()
                if all(
                    row[schema.index_of(attr)] == target_value[attr]
                    for attr in schema.attributes
                    if attr in target_value
                )
            ]
        layers.append(rows)
        layer_schemas.append(schema)
        base_names.append(base)

    network = FlowNetwork()
    candidates: List[Tuple[str, Row]] = []
    for index, rows in enumerate(layers):
        for row in rows:
            network.add_edge(("in", index, row), ("out", index, row), 1)
            candidates.append((base_names[index], row))
    for row in layers[0]:
        network.add_edge("s", ("in", 0, row), INF)
    for row in layers[-1]:
        network.add_edge(("out", len(layers) - 1, row), "t", INF)
    for index in range(len(layers) - 1):
        left_schema = layer_schemas[index]
        right_schema = layer_schemas[index + 1]
        shared = left_schema.common(right_schema)
        left_positions = left_schema.positions(shared)
        right_positions = right_schema.positions(shared)
        buckets: Dict[Tuple[object, ...], List[Row]] = {}
        for row in layers[index + 1]:
            key = tuple(row[i] for i in right_positions)
            buckets.setdefault(key, []).append(row)
        for row in layers[index]:
            key = tuple(row[i] for i in left_positions)
            for other in buckets.get(key, ()):
                network.add_edge(("out", index, row), ("in", index + 1, other), INF)
    return network, candidates


def chain_join_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Optimal minimum source deletion for a chain-join PJ query (Thm 2.6).

    Polynomial time: one max-flow computation on a network with one node
    pair per agreeing source tuple.  Raises :class:`QueryClassError` when
    the query is not a normal-form chain-join PJ query and
    :class:`InfeasibleError` when the target is not in the view.

    ``prov``, the why-provenance of ``query`` over ``db``, builds the
    network from ``target``'s witnesses and reports the view check and
    side effects from the witness kernel; the plan is the same.
    """
    target = tuple(target)
    if prov is None:
        before = view_rows(query, db)
        in_view = target in before
    else:
        in_view = target in prov
    if not in_view:
        raise InfeasibleError(f"target {target!r} is not in the view")

    network, _ = build_chain_network(query, db, target, prov)
    if not network.has_node("s") or not network.has_node("t"):
        raise InfeasibleError(
            f"no agreeing source tuples for target {target!r}; "
            "the tuple cannot be in the view"
        )
    value, source_side, cut_edges = network.min_cut("s", "t")
    if value == INF or value != int(value):
        raise InfeasibleError(
            f"degenerate cut value {value!r}; the layered network is malformed"
        )
    deletions = set()
    catalog = {name: db[name].schema for name in db}
    _, chain = _require_chain_pj(query, catalog)
    base_names = [leaf_base_name(leaf) for leaf in chain]
    for edge_source, edge_target in cut_edges:
        # Cut edges of finite capacity are exactly the node-split edges.
        kind, index, row = edge_source
        assert kind == "in" and edge_target[0] == "out"
        deletions.add((base_names[index], row))

    deletions = frozenset(deletions)
    if prov is None:
        after = view_rows(query, apply_deletions(db, deletions))
        side_effects = frozenset(before - after - {target})
    else:
        side_effects = prov.side_effects(target, deletions)
    return DeletionPlan(
        target=target,
        deletions=deletions,
        side_effects=side_effects,
        algorithm="chain-join-min-cut",
        objective="source",
        optimal=True,
    )
