"""Delta-aware hypothetical deletion evaluation.

The exact deletion solvers all ask the same question in their inner loops:
*what does the view look like after hypothetically deleting the source set
``T``?* — for hundreds or thousands of candidate ``T``.  This module pairs a
compiled physical plan (:mod:`repro.algebra.plan`) with a why-provenance
kernel (:class:`~repro.provenance.bitset.BitsetProvenance`) behind one
object, :class:`HypotheticalDeletions`, that answers it from the witness
masks: candidates are encoded to ascending id tuples over the kernel's
:class:`~repro.provenance.interning.SourceIndex`, survival is answered by
the kernel's survival kernel through its inverted source-bit index without
touching the database, and whole vectors of candidates are answered in one
batch (:meth:`HypotheticalDeletions.batch_view_after`).

Building the witnesses never refuses: the hardness of the deletion
problems (Theorems 2.1, 2.5 and 2.7) lives in the hitting-set *search* over
them (:mod:`repro.solvers.setcover`), which is the only place the budget
guard fires.  So there is one mode, and the property tests pin its answers
against the independent recursive interpreter over ``db.delete(T)``.

The serving engine keeps one oracle per (database, query) as the warm
entry every request kind reads: besides hypothetical answers it carries the
view's rows in wire order (:attr:`HypotheticalDeletions.wire_rows`), and
its provenance answers ``why``, ``where`` and ``delete``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

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
    otherwise it comes from the shared provenance cache.  ``store`` (a
    :class:`repro.columnar.store.ColumnStore` over ``db``) routes a cold
    provenance computation through the vectorized columnar kernels; the
    resulting oracle is bit-identical either way.
    """

    __slots__ = ("_query", "_db", "_plan", "_prov", "_baseline", "_wire")

    def __init__(
        self,
        query: Query,
        db: Database,
        prov: Optional[WhyProvenance] = None,
        store: "object | None" = None,
    ):
        self._query = query
        self._db = db
        self._plan: CompiledPlan = cached_plan(query, db)
        if prov is None:
            prov = cached_why_provenance(query, db, store=store)
        self._prov: WhyProvenance = prov
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
    def provenance(self) -> WhyProvenance:
        """The provenance every answer is read from."""
        return self._prov

    @property
    def rows(self) -> FrozenSet[Row]:
        """The baseline view (no deletions)."""
        if self._baseline is None:
            self._baseline = frozenset(self.wire_rows)
        return self._baseline

    @property
    def wire_rows(self) -> Tuple[Row, ...]:
        """The baseline view sorted by ``repr``, the order answers ship in.

        The kernel sorts on every read, so the entry keeps the first one.
        """
        if self._wire is None:
            self._wire = self._prov.rows
        return self._wire

    # ------------------------------------------------------------------
    # Hypothetical answers
    # ------------------------------------------------------------------
    def view_after(self, deletions: DeletionSet) -> FrozenSet[Row]:
        """The view's rows after hypothetically deleting ``deletions``."""
        return self._prov.surviving_rows(deletions)

    def batch_view_after(
        self, deletion_sets: Sequence[DeletionSet]
    ) -> List[FrozenSet[Row]]:
        """:meth:`view_after` for a whole vector of candidates, encoded
        once and answered in one batch call on the witness kernel."""
        kernel = self._prov.kernel
        return kernel.batch_surviving_rows(
            [kernel.encode_deletions_auto(d) for d in deletion_sets]
        )

    def side_effects(
        self, target: Row, deletions: DeletionSet
    ) -> FrozenSet[Row]:
        """View rows other than ``target`` destroyed by ``deletions``."""
        return self._prov.side_effects(target, deletions)

    def batch_side_effects(
        self, target: Row, deletion_sets: Sequence[DeletionSet]
    ) -> List[FrozenSet[Row]]:
        """:meth:`side_effects` for a whole vector of candidates."""
        return self._prov.batch_side_effects(target, deletion_sets)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def rebased(
        self, db: Database, prov: Optional[WhyProvenance] = None
    ) -> "HypotheticalDeletions":
        """This oracle re-pointed at ``db``, reusing what survives a write.

        ``prov`` is the already-maintained provenance over ``db`` (a
        delta-patched kernel wrapped as ``WhyProvenance(kernel)``).  When
        omitted, the current provenance and its materialized baseline view
        carry over unchanged — sound exactly when the write left this
        query's relations untouched.  A write never triggers a cold
        provenance build.
        """
        rebased = HypotheticalDeletions(
            self._query, db, prov=self._prov if prov is None else prov
        )
        if prov is None:
            rebased._baseline = self._baseline
            rebased._wire = self._wire
        return rebased
