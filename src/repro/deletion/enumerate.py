"""Enumerating deletion translations: the ambiguity, made visible.

The paper's related-work discussion stresses that *"the view update
translation process is generally ambiguous since there are usually many
possible ways to translate a view update to source update(s)"* — and its
own results show that even finding **one** witness-respecting translation
with good properties is hard.

:func:`enumerate_deletion_plans` materializes the ambiguity: it yields every
inclusion-minimal deletion translation for a view tuple (each one a verified
:class:`~repro.deletion.plan.DeletionPlan` with its side effects), ordered
so that side-effect-free translations — Dayal/Bernstein's "clean sources" —
come first when ``prefer_clean`` is set.  Downstream tooling can present the
alternatives to a user, exactly the interaction Keller's dialog-based
translators [2] envisioned.

Exponential in the worst case (there can be exponentially many minimal
translations; Corollary 3.1 applies), so budget-guarded like the other
exact machinery.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.ast import Query
from repro.algebra.relation import Database, Row
from repro.deletion.plan import DeletionPlan
from repro.provenance.cache import cached_why_provenance
from repro.provenance.why import WhyProvenance
from repro.solvers.setcover import enumerate_minimal_hitting_sets

__all__ = ["enumerate_deletion_plans", "count_minimal_translations"]


def enumerate_deletion_plans(
    query: Query,
    db: Database,
    target: Row,
    limit: Optional[int] = None,
    prefer_clean: bool = True,
    node_budget: int = 200_000,
    prov: Optional[WhyProvenance] = None,
) -> List[DeletionPlan]:
    """Every inclusion-minimal deletion translation for ``target``.

    Each plan is an inclusion-minimal hitting set of the target's minimal
    witnesses, annotated with its actual view side effects.  With
    ``prefer_clean`` the result is sorted by (side effects, deletions,
    repr) — side-effect-free translations first; otherwise by (deletions,
    side effects, repr).  ``limit`` truncates *after* sorting, so the best
    translations are always retained.

    ``prov`` lets callers share one provenance computation across several
    calls; by default the shared cache supplies it, so back-to-back calls
    on the same ``(query, db)`` pair pay for the annotated evaluation once.

    Raises :class:`~repro.errors.InfeasibleError` when the target is not in
    the view and :class:`~repro.errors.ExponentialGuardError` when the
    enumeration exceeds ``node_budget``.
    """
    if prov is None:
        prov = cached_why_provenance(query, db)
    target = tuple(target)
    monomials = list(prov.witnesses(target))
    # The enumeration has no early exit (every translation is reported), so
    # the whole candidate vector batches through one side-effect pass.
    candidates = list(
        enumerate_minimal_hitting_sets(monomials, node_budget=node_budget)
    )
    plans = [
        DeletionPlan(
            target=target,
            deletions=deletions,
            side_effects=effects,
            algorithm="enumerate-minimal-translations",
            objective="view",
            optimal=False,  # individual plans carry no optimality claim
        )
        for deletions, effects in zip(
            candidates,
            prov.batch_side_effects(target, candidates),
        )
    ]
    if prefer_clean:
        plans.sort(
            key=lambda p: (p.num_side_effects, p.num_deletions, repr(p.deletions))
        )
    else:
        plans.sort(
            key=lambda p: (p.num_deletions, p.num_side_effects, repr(p.deletions))
        )
    if limit is not None:
        plans = plans[:limit]
    return plans


def count_minimal_translations(
    query: Query,
    db: Database,
    target: Row,
    node_budget: int = 200_000,
    prov: Optional[WhyProvenance] = None,
) -> int:
    """The number of inclusion-minimal deletion translations for ``target``.

    A direct measure of the ambiguity the paper's related-work section
    describes; 1 means the translation is unambiguous (e.g. SPU queries,
    Theorem 2.8's unique solution).  ``prov`` shares a provenance
    computation with other calls, as in :func:`enumerate_deletion_plans`;
    the shared cache supplies it by default.
    """
    if prov is None:
        prov = cached_why_provenance(query, db)
    monomials = list(prov.witnesses(tuple(target)))
    return sum(
        1
        for _ in enumerate_minimal_hitting_sets(monomials, node_budget=node_budget)
    )
