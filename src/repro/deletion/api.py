"""Dispatchers for the deletion problems: the dichotomy tables, executable.

:func:`delete_view_tuple` (view objective, Section 2.1) and
:func:`minimum_source_deletion` (source objective, Section 2.2) inspect the
query's class and route to the algorithm the paper's tables promise:

* SPU → the unique-solution polynomial algorithm (Theorems 2.3 / 2.8);
* SJ → the component-scan polynomial algorithm (Theorems 2.4 / 2.9);
* chain-join PJ (source objective only) → min cut (Theorem 2.6);
* anything else is in the NP-hard territory of Theorems 2.1/2.2/2.5/2.7:
  the dispatcher falls back to the exact solver when ``allow_exponential``
  is set, or (source objective) the greedy approximation otherwise.

Each returned plan records the algorithm used, so callers can see which side
of the dichotomy their query landed on.

Each solver obtains the why-provenance itself — through the shared
:mod:`repro.provenance.cache` — unless the caller passes ``prov``, so
dispatch never costs an extra annotated evaluation;
:func:`minimum_source_deletion` looks it up once for the exact/greedy pair
it may try in turn.  The chain-join min cut needs no provenance when none
is passed: it builds its network by scanning the database; a caller that
passes ``prov`` (the serving engine, from its warm witness table) gets the
same cut built from the target's witnesses.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExponentialGuardError, QueryClassError
from repro.algebra.ast import Query
from repro.algebra.classify import chain_join_order, is_sj, is_spu
from repro.algebra.relation import Database, Row
from repro.provenance.cache import cached_why_provenance
from repro.provenance.why import WhyProvenance
from repro.deletion.plan import DeletionPlan
from repro.deletion.source_side_effect import (
    chain_join_source_deletion,
    exact_source_deletion,
    greedy_source_deletion,
    sj_source_deletion,
    spu_source_deletion,
)
from repro.deletion.view_side_effect import (
    exact_view_deletion,
    sj_view_deletion,
    spu_view_deletion,
)

__all__ = ["delete_view_tuple", "minimum_source_deletion"]


def delete_view_tuple(
    query: Query,
    db: Database,
    target: Row,
    allow_exponential: bool = True,
    node_budget: int = 200_000,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Delete ``target`` from the view minimizing view side effects.

    Routes to the polynomial algorithm when the query class admits one (SPU,
    SJ), otherwise to the exact exponential search — which Theorem 2.1 says
    cannot be avoided in general.  With ``allow_exponential=False`` the
    dispatcher refuses the hard fragments instead
    (:class:`QueryClassError`).
    """
    if is_spu(query):
        return spu_view_deletion(query, db, target, prov=prov)
    if is_sj(query):
        return sj_view_deletion(query, db, target, prov=prov)
    if not allow_exponential:
        # Refuse before computing provenance: on the hard fragments the
        # annotated evaluation is itself the worst-case-exponential cost
        # this flag exists to avoid.
        raise QueryClassError(
            "query involves projection+join or join+union; the view "
            "side-effect problem is NP-hard for this class (Theorems 2.1, "
            "2.2) — pass allow_exponential=True to run the exact search"
        )
    return exact_view_deletion(
        query, db, target, node_budget=node_budget, prov=prov
    )


def minimum_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    allow_exponential: bool = True,
    node_budget: int = 2_000_000,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Delete ``target`` from the view with the fewest source deletions.

    Routing: SPU → unique solution; SJ → single component; chain-join PJ →
    min cut; otherwise exact branch-and-bound (set-cover-hard fragments,
    Theorems 2.5/2.7) or, when ``allow_exponential=False`` or the exact
    search exceeds its budget, the greedy H_m-approximation (plan marked
    non-optimal).
    """
    if is_spu(query):
        return spu_source_deletion(query, db, target, prov=prov)
    if is_sj(query):
        return sj_source_deletion(query, db, target, prov=prov)
    catalog = {name: db[name].schema for name in db}
    try:
        if chain_join_order(query, catalog) is not None:
            return chain_join_source_deletion(query, db, target, prov=prov)
    except QueryClassError:
        pass  # e.g. a selection inside the branch: fall through to search
    if prov is None:
        prov = cached_why_provenance(query, db)
    if not allow_exponential:
        return greedy_source_deletion(query, db, target, prov=prov)
    try:
        return exact_source_deletion(
            query, db, target, node_budget=node_budget, prov=prov
        )
    except ExponentialGuardError:
        return greedy_source_deletion(query, db, target, prov=prov)
