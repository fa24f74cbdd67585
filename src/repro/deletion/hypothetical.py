"""Delta-aware hypothetical deletion evaluation.

The exact deletion solvers all ask the same question in their inner loops:
*what does the view look like after hypothetically deleting the source set
``T``?* — for hundreds or thousands of candidate ``T``.  This module pairs a
compiled physical plan (:mod:`repro.algebra.plan`) with a why-provenance
kernel (:class:`~repro.provenance.bitset.BitsetProvenance`) behind one
object, :class:`HypotheticalDeletions`, that answers the question two ways:

* **mask path** (default): candidates are encoded to ascending id tuples
  over the kernel's :class:`~repro.provenance.interning.SourceIndex`;
  survival is answered by the kernel's one survival kernel through its
  inverted source-bit index without touching the database, and whole
  vectors of candidates are answered in one batch
  (:meth:`HypotheticalDeletions.batch_view_after`);
* **compiled-plan fallback**: when provenance was refused — on the NP-hard
  fragments the annotated evaluation itself can be exponential, which is
  exactly what ``allow_exponential=False`` exists to avoid — the same
  object re-executes the compiled plan against ``db.delete(T)``.  The plan
  is compiled once and shared through the plan memo, so even the fallback
  never re-resolves schemas or positions.

Both paths return identical answers; the property tests pin the equivalence
against the independent recursive interpreter.

The serving engine keeps one oracle per (database, query) as the warm
entry every request kind reads: besides hypothetical answers it carries the
view's rows in wire order (:attr:`HypotheticalDeletions.wire_rows`), and
its provenance answers ``why``, ``where`` and ``delete``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ExponentialGuardError
from repro.algebra.ast import Query
from repro.algebra.plan import CompiledPlan
from repro.algebra.relation import Database, Row
from repro.provenance.cache import cached_plan, cached_why_provenance
from repro.provenance.locations import SourceTuple
from repro.provenance.why import WhyProvenance

__all__ = ["HypotheticalDeletions"]

#: A candidate deletion: a set of (relation name, row) source tuples.
DeletionSet = FrozenSet[SourceTuple]


class HypotheticalDeletions:
    """Batch oracle for "the view after deleting ``T``" questions.

    ``prov`` may be passed by callers that already computed the provenance;
    with ``use_provenance=False`` the oracle never computes provenance and
    always re-executes the compiled plan (the safe mode for queries whose
    witness sets were refused as exponential).  If computing the provenance
    itself trips an :class:`~repro.errors.ExponentialGuardError`, the
    oracle degrades to that same compiled-plan mode instead of failing.

    ``store`` (a :class:`repro.columnar.store.ColumnStore` over ``db``)
    routes a cold provenance computation through the vectorized columnar
    kernels; the resulting oracle is bit-identical either way.
    """

    __slots__ = (
        "_query",
        "_db",
        "_plan",
        "_prov",
        "_baseline",
        "_wire",
    )

    def __init__(
        self,
        query: Query,
        db: Database,
        prov: Optional[WhyProvenance] = None,
        use_provenance: bool = True,
        store: "object | None" = None,
    ):
        self._query = query
        self._db = db
        self._plan: CompiledPlan = cached_plan(query, db)
        if prov is None and use_provenance:
            try:
                prov = cached_why_provenance(query, db, store=store)
            except ExponentialGuardError:
                prov = None  # refused as exponential: compiled-plan fallback
        self._prov = prov
        self._baseline: Optional[FrozenSet[Row]] = None
        self._wire: Optional[Tuple[Row, ...]] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        """The query this oracle answers for."""
        return self._query

    @property
    def db(self) -> Database:
        """The database snapshot every answer is about."""
        return self._db

    @property
    def plan(self) -> CompiledPlan:
        """The compiled physical plan shared by every answer."""
        return self._plan

    @property
    def provenance(self) -> Optional[WhyProvenance]:
        """The provenance backing the mask path, if any."""
        return self._prov

    @property
    def uses_masks(self) -> bool:
        """True when answers come from witness masks, not plan re-runs."""
        return self._prov is not None

    @property
    def rows(self) -> FrozenSet[Row]:
        """The baseline view (no deletions)."""
        if self._baseline is None:
            self._baseline = frozenset(self.wire_rows)
        return self._baseline

    @property
    def wire_rows(self) -> Tuple[Row, ...]:
        """The baseline view sorted by ``repr``, the order answers ship in."""
        if self._wire is None:
            if self._prov is not None:
                self._wire = self._prov.rows  # already in repr order
            else:
                self._wire = tuple(sorted(self._plan.rows(self._db), key=repr))
        return self._wire

    # ------------------------------------------------------------------
    # Hypothetical answers
    # ------------------------------------------------------------------
    def view_after(self, deletions: DeletionSet) -> FrozenSet[Row]:
        """The view's rows after hypothetically deleting ``deletions``."""
        if self._prov is not None:
            return self._prov.surviving_rows(deletions)
        return self._plan.rows(self._db.delete(deletions))

    def batch_view_after(
        self, deletion_sets: Sequence[DeletionSet]
    ) -> List[FrozenSet[Row]]:
        """:meth:`view_after` for a whole vector of candidates.

        On the mask path the candidates are encoded once and answered in
        one batch call on the witness kernel; the fallback loops the
        compiled plan over the hypothetical databases.
        """
        if self._prov is not None:
            kernel = self._prov.kernel
            encoded = [kernel.encode_deletions_auto(d) for d in deletion_sets]
            return kernel.batch_surviving_rows(encoded)
        return [self.view_after(d) for d in deletion_sets]

    def side_effects(
        self, target: Row, deletions: DeletionSet
    ) -> FrozenSet[Row]:
        """View rows other than ``target`` destroyed by ``deletions``."""
        target = tuple(target)
        if self._prov is not None:
            return self._prov.side_effects(target, deletions)
        after = self._plan.rows(self._db.delete(deletions))
        return frozenset(self.rows - after - {target})

    def batch_side_effects(
        self, target: Row, deletion_sets: Sequence[DeletionSet]
    ) -> List[FrozenSet[Row]]:
        """:meth:`side_effects` for a whole vector of candidates."""
        target = tuple(target)
        if self._prov is not None:
            return self._prov.batch_side_effects(target, deletion_sets)
        return [self.side_effects(target, d) for d in deletion_sets]

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def rebased(
        self,
        db: Database,
        prov: Optional[WhyProvenance] = None,
        keep_baseline: bool = False,
    ) -> "HypotheticalDeletions":
        """This oracle re-pointed at ``db``, reusing what survives a write.

        ``prov`` is the already-maintained provenance over ``db`` (a
        delta-patched kernel wrapped as ``WhyProvenance(kernel)``);
        when omitted, the current provenance carries over unchanged —
        sound exactly when the write left this query's relations untouched
        — and an oracle that was in compiled-plan fallback mode stays in
        fallback mode: *no* cold provenance build is ever triggered by a
        write.  ``keep_baseline`` carries the materialized baseline view
        over, with its wire order, which is only sound when the write
        provably left this query's answer unchanged.
        """
        if prov is None:
            prov = self._prov
        rebased = HypotheticalDeletions(
            self._query,
            db,
            prov=prov,
            use_provenance=prov is not None,
        )
        if keep_baseline:
            rebased._baseline = self._baseline
            rebased._wire = self._wire
        return rebased
