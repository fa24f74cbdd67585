"""The view side-effect problem (Section 2.1).

Given source ``S``, monotone query ``Q``, view ``V = Q(S)`` and ``t ∈ V``,
find ``T ⊆ S`` with ``Q(S \\ T) = V \\ (ΔV ∪ {t})`` minimizing ``|ΔV|`` —
delete ``t`` while disturbing as little of the rest of the view as possible.

The paper's dichotomy (its first table):

===================  =============================================
Query class          Deciding whether a side-effect-free deletion
                     exists
===================  =============================================
involves P and J     NP-hard (Theorem 2.1)
involves J and U     NP-hard (Theorem 2.2)
SPU                  P — always side-effect-free (Theorem 2.3)
SJ                   P (Theorem 2.4)
===================  =============================================

This module implements:

* :func:`spu_view_deletion` — Theorem 2.3's algorithm.  For SP (and SPU
  without renaming) the minimal deletion is *unique*: every source tuple
  that selects-and-projects onto ``t`` must go, and nothing else changes.
* :func:`sj_view_deletion` — Theorem 2.4's algorithm.  An SJ output tuple
  has exactly one witness ``(t.R1, ..., t.Rk)``; deleting component ``t.Ri``
  has a side effect iff another output tuple shares that component, so the
  minimum side-effect deletion is a linear scan over components.
* :func:`exact_view_deletion` — optimal baseline for the hard fragments:
  the optimum deletion set is WLOG an inclusion-minimal hitting set of the
  target's minimal witnesses (deleting anything else only hurts), so we
  enumerate minimal hitting sets with a budget and keep the best.
* :func:`side_effect_free_exists` — the decision problem of the table.

The candidate scans run **batched**: candidate deletion sets are collected
into vectors (the hitting-set enumeration in chunks, to preserve its lazy
budget-guarded behaviour) and answered through
:meth:`~repro.provenance.why.WhyProvenance.batch_side_effects`, which on the
bitset kernel encodes the whole vector to id tuples and shares the
inverted-index lookups across candidates instead of re-answering each one
from scratch.

Every algorithm returns a verified :class:`~repro.deletion.plan.DeletionPlan`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional

from repro.errors import ExponentialGuardError, QueryClassError
from repro.algebra.ast import Query
from repro.algebra.classify import is_sj, is_spu
from repro.algebra.relation import Database, Row
from repro.provenance.cache import cached_why_provenance
from repro.provenance.locations import SourceTuple
from repro.provenance.why import WhyProvenance
from repro.deletion.plan import DeletionPlan
from repro.solvers.setcover import enumerate_minimal_hitting_sets

__all__ = [
    "spu_view_deletion",
    "sj_view_deletion",
    "exact_view_deletion",
    "side_effect_free_exists",
]

#: Default search budget for the exact solver on the NP-hard fragments.
DEFAULT_NODE_BUDGET = 200_000

#: Candidates per batched side-effect evaluation.  Chunking keeps the
#: hitting-set enumeration lazy (a zero-side-effect hit stops the search at
#: most one chunk late) while amortizing the kernel's per-batch setup.
CANDIDATE_CHUNK = 16


def _chunked(iterator: Iterator, size: int) -> "Iterator[List]":
    """Consume a budget-guarded iterator in lists of at most ``size`` items.

    If ``iterator`` raises :class:`ExponentialGuardError` while a chunk is
    being filled, the partially filled chunk is yielded first and the error
    is re-raised only when the caller asks for the next chunk.  An early
    exit on a candidate already in hand therefore behaves exactly like the
    unchunked scan: the guard only propagates when every enumerated
    candidate has been examined without an answer.
    """
    while True:
        chunk: List = []
        guard: "ExponentialGuardError | None" = None
        try:
            for _ in range(size):
                chunk.append(next(iterator))
        except StopIteration:
            pass
        except ExponentialGuardError as error:
            guard = error
        if chunk:
            yield chunk
        if guard is not None:
            raise guard
        if len(chunk) < size:
            return


def _plan(
    prov: WhyProvenance,
    target: Row,
    deletions: FrozenSet[SourceTuple],
    algorithm: str,
    optimal: bool,
    side_effects: Optional[FrozenSet[Row]] = None,
) -> DeletionPlan:
    if side_effects is None:
        side_effects = prov.side_effects(target, deletions)
    return DeletionPlan(
        target=tuple(target),
        deletions=deletions,
        side_effects=side_effects,
        algorithm=algorithm,
        objective="view",
        optimal=optimal,
    )


def spu_view_deletion(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Theorem 2.3: the (unique) minimal deletion for an SPU query.

    Without joins every minimal witness is a single source tuple, and all of
    them must be deleted.  For rename-free SPU queries the paper shows this
    is always side-effect-free; the returned plan reports the actual side
    effects either way (renaming can make distinct view tuples share source
    tuples, in which case the plan is still the unique minimal one).

    Runs in polynomial time: with no joins, each view tuple's witness set
    has at most one source tuple per monomial and at most ``|S|`` monomials.
    """
    if not is_spu(query):
        raise QueryClassError(
            f"spu_view_deletion requires an SPU query, got class "
            f"{query.operators()!r}"
        )
    if prov is None:
        prov = cached_why_provenance(query, db)
    deletions = prov.witness_universe(target)
    return _plan(prov, target, deletions, "spu-unique", optimal=True)


def sj_view_deletion(
    query: Query,
    db: Database,
    target: Row,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Theorem 2.4: minimum side-effect deletion for an SJ query.

    The target has a single witness; for each of its components, the side
    effect of deleting that component alone is the number of other view
    tuples whose witness uses it.  Pick the component with the fewest.
    """
    if not is_sj(query):
        raise QueryClassError(
            f"sj_view_deletion requires an SJ query, got class "
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
    candidates = [
        frozenset({component}) for component in sorted(witness, key=repr)
    ]
    best: Optional[FrozenSet[SourceTuple]] = None
    best_effects = None
    for deletions, effects in zip(
        candidates, prov.batch_side_effects(target, candidates)
    ):
        if best_effects is None or len(effects) < len(best_effects):
            best, best_effects = deletions, effects
            if not effects:
                break
    assert best is not None
    return _plan(
        prov, target, best, "sj-component-scan", optimal=True,
        side_effects=best_effects,
    )


def exact_view_deletion(
    query: Query,
    db: Database,
    target: Row,
    node_budget: int = DEFAULT_NODE_BUDGET,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Optimal view side-effect deletion by minimal-hitting-set search.

    Correctness: any ``T`` deleting the target must hit every minimal
    witness; deleting tuples outside the witness universe can only destroy
    more view tuples (monotonicity), and enlarging a hitting set never helps,
    so some inclusion-minimal hitting set attains the optimum.

    Exponential in the worst case — Theorem 2.1 shows even the
    side-effect-free decision is NP-hard for PJ queries — and therefore
    guarded by ``node_budget`` (:class:`ExponentialGuardError`).
    """
    if prov is None:
        prov = cached_why_provenance(query, db)
    monomials = list(prov.witnesses(target))
    candidates = enumerate_minimal_hitting_sets(monomials, node_budget=node_budget)
    best = next(candidates)  # a hittable family yields at least one set
    best_effects = prov.side_effects(target, best)
    if best_effects:
        best_key = (len(best_effects), len(best))
        for chunk in _chunked(candidates, CANDIDATE_CHUNK):
            done = False
            for candidate, effects in zip(
                chunk, prov.batch_side_effects(target, chunk)
            ):
                key = (len(effects), len(candidate))
                if key < best_key:
                    best, best_effects, best_key = candidate, effects, key
                    if not effects:
                        done = True
                        break
            if done:
                break
    return DeletionPlan(
        target=tuple(target),
        deletions=best,
        side_effects=best_effects,
        algorithm="exact-minimal-hitting-sets",
        objective="view",
        optimal=True,
    )


def side_effect_free_exists(
    query: Query,
    db: Database,
    target: Row,
    node_budget: int = DEFAULT_NODE_BUDGET,
    prov: Optional[WhyProvenance] = None,
) -> bool:
    """Decide whether a side-effect-free deletion of ``target`` exists.

    This is the decision problem of the paper's first dichotomy table:
    polynomial for SPU and SJ, NP-hard as soon as the query involves both
    projection and join (Theorem 2.1) or join and union (Theorem 2.2).
    The generic implementation searches minimal hitting sets; for SPU/SJ
    queries callers should prefer the dedicated polynomial algorithms.
    """
    if prov is None:
        prov = cached_why_provenance(query, db)
    monomials = list(prov.witnesses(target))
    candidates = enumerate_minimal_hitting_sets(monomials, node_budget=node_budget)
    for chunk in _chunked(candidates, CANDIDATE_CHUNK):
        for effects in prov.batch_side_effects(target, chunk):
            if not effects:
                return True
    return False
