"""The source side-effect problem (Section 2.2).

Find the *smallest* set ``T`` of source tuples whose deletion removes the
target view tuple, regardless of what else happens to the view.

The paper's dichotomy (its second table):

===================  ==============================================
Query class          Finding the minimum source deletions
===================  ==============================================
involves P and J     NP-hard, set-cover-hard (Theorem 2.5); chain
                     joins polynomial via min cut (Theorem 2.6)
involves J and U     NP-hard, set-cover-hard, with renaming
                     (Theorem 2.7)
SPU                  P — the minimal set is unique (Theorem 2.8)
SJ                   P — delete any single component (Theorem 2.9)
===================  ==============================================

Minimum source deletion is exactly *minimum hitting set over the target's
minimal witnesses*: ``T`` removes the target iff it intersects every
witness.  The implementations:

* :func:`spu_source_deletion` — Theorem 2.8 (same unique set as the view
  problem: every witness is a singleton and all must go);
* :func:`sj_source_deletion` — Theorem 2.9 (a single witness; delete any
  one component, so the optimum is 1);
* :func:`chain_join_source_deletion` — Theorem 2.6, re-exported from
  :mod:`repro.deletion.chain_join`;
* :func:`greedy_source_deletion` — the H_m-approximation the set-cover
  hardness says is essentially best possible for the hard fragments;
* :func:`exact_source_deletion` — optimal branch-and-bound baseline,
  budget-guarded.

Side effects on the view are reported but not optimized — that is the
defining difference from Section 2.1.  Every solver here holds the
why-provenance it searched, so the report is read off the same witness
masks (:meth:`~repro.provenance.why.WhyProvenance.side_effects`), never by
re-evaluating the query over the hypothetical database.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import QueryClassError
from repro.algebra.ast import Query
from repro.algebra.classify import is_sj, is_spu
from repro.algebra.relation import Database, Row
from repro.provenance.cache import cached_why_provenance
from repro.provenance.locations import SourceTuple
from repro.provenance.why import WhyProvenance
from repro.deletion.chain_join import chain_join_source_deletion
from repro.deletion.plan import DeletionPlan
from repro.solvers.setcover import exact_min_hitting_set, greedy_hitting_set

__all__ = [
    "spu_source_deletion",
    "sj_source_deletion",
    "greedy_source_deletion",
    "exact_source_deletion",
    "chain_join_source_deletion",
]

#: Default branch-and-bound budget for the exact solver.
DEFAULT_NODE_BUDGET = 2_000_000


def _finish(
    prov: WhyProvenance,
    target: Row,
    deletions: Iterable[SourceTuple],
    algorithm: str,
    optimal: bool,
) -> DeletionPlan:
    """Build a plan, reporting side effects from ``prov``'s witness masks."""
    target = tuple(target)
    deletions = frozenset(deletions)
    return DeletionPlan(
        target=target,
        deletions=deletions,
        side_effects=prov.side_effects(target, deletions),
        algorithm=algorithm,
        objective="source",
        optimal=optimal,
    )


def spu_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Theorem 2.8: the unique minimum source deletion for SPU queries.

    Every minimal witness of an SPU view tuple is a single source tuple, and
    the target survives as long as any of them remains — so the unique
    minimal (and minimum) deletion set is all of them.
    """
    if not is_spu(query):
        raise QueryClassError(
            f"spu_source_deletion requires an SPU query, got class "
            f"{query.operators()!r}"
        )
    if prov is None:
        prov = cached_why_provenance(query, db)
    deletions = prov.witness_universe(target)
    return _finish(prov, target, deletions, "spu-unique", optimal=True)


def sj_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Theorem 2.9: minimum source deletion for SJ queries.

    The target has exactly one witness; deleting any single component
    removes it, so the optimum is one tuple.  We pick the lexicographically
    first component for determinism (the theorem allows any).
    """
    if not is_sj(query):
        raise QueryClassError(
            f"sj_source_deletion requires an SJ query, got class "
            f"{query.operators()!r}"
        )
    if prov is None:
        prov = cached_why_provenance(query, db)
    witnesses = prov.witnesses(target)
    if len(witnesses) != 1:
        raise QueryClassError(
            f"SJ tuple {target!r} should have exactly one witness, "
            f"found {len(witnesses)}"
        )
    (witness,) = witnesses
    component = min(witness, key=repr)
    return _finish(
        prov, target, {component}, "sj-single-component", optimal=True
    )


def greedy_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Greedy hitting set over the target's witnesses.

    The classical H_m-approximation (m = number of minimal witnesses); by
    the paper's Theorems 2.5/2.7 and Feige's threshold, no polynomial
    algorithm does asymptotically better on the hard fragments unless
    NP ⊆ DTIME(n^{log log n}).  The returned plan is *not* marked optimal.
    """
    if prov is None:
        prov = cached_why_provenance(query, db)
    monomials = list(prov.witnesses(target))
    deletions = greedy_hitting_set(monomials)
    return _finish(
        prov, target, deletions, "greedy-hitting-set", optimal=False
    )


def exact_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    node_budget: int = DEFAULT_NODE_BUDGET,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Optimal minimum source deletion by branch and bound.

    Exponential in the worst case (set-cover-hard for PJ/JU queries), so
    guarded by ``node_budget``.
    """
    if prov is None:
        prov = cached_why_provenance(query, db)
    monomials = list(prov.witnesses(target))
    deletions = exact_min_hitting_set(monomials, node_budget=node_budget)
    return _finish(
        prov, target, deletions, "exact-min-hitting-set", optimal=True
    )
