"""Why-provenance: minimal witnesses.

A *witness* for a tuple ``t`` in the view ``Q(S)`` is a minimal sub-instance
``S' ⊆ S`` with ``t ∈ Q(S')`` (footnote 4 of the paper).  Why-provenance —
the set of witnesses — is the notion of provenance underlying the deletion
problems of Section 2: deleting ``t`` from the view requires *destroying
every witness*, i.e. deleting at least one source tuple from each.

This module computes, for every view tuple, the complete set of
inclusion-minimal witnesses, by evaluating the query compositionally over a
"witness DNF" annotation: every intermediate tuple carries a set of
*monomials* (a monomial = a set of source tuples sufficient to derive the
tuple), kept minimal under absorption (a monomial that contains another is
redundant).  For monotone SPJRU queries the minimal monomials are exactly
the minimal witnesses:

* base relation: tuple ``t`` of ``R`` has the single monomial ``{(R, t)}``;
* selection keeps the surviving tuples' monomials;
* projection unions the monomials of all contributing tuples;
* join multiplies monomial sets (pairwise union of monomials);
* union unions the two sides' monomial sets;
* renaming leaves monomials untouched;
* after every step, absorption removes non-minimal monomials.

The evaluation runs natively on the **bitset kernel**
(:mod:`repro.provenance.bitset`): monomials are integer bitmasks over
interned source-tuple ids, absorption is ``a & b == a``, and join products
are integer ORs.  Witnesses are decoded back to the ``frozenset``
representation below only at the API boundary, lazily and per row.  The
annotated evaluation itself runs on the platform's one executor: the numpy
columnar kernels when the caller holds a column store, the tuple
``PlanNode`` executor otherwise.  The seed frozenset evaluator, the oracle
both are tested against, lives in :mod:`repro.oracle` as
``legacy_witnesses``.

The number of minimal witnesses can be exponential in the query size — the
paper's Corollary 3.1 shows even deciding membership of a source tuple in
some witness is NP-hard — so this computation is exponential in the worst
case, but linear-ish on the practical instances the benchmarks use.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import ReproError
from repro.algebra.ast import Query
from repro.algebra.evaluate import DEFAULT_VIEW_NAME
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.schema import Schema
from repro.provenance.bitset import BitsetProvenance, bitset_why_provenance
from repro.provenance.locations import SourceTuple

__all__ = ["WhyProvenance", "why_provenance", "witnesses_of"]

#: A monomial: a set of source tuples jointly sufficient to derive a tuple.
Monomial = FrozenSet[SourceTuple]

#: A tuple's witness basis: its set of minimal monomials.
WitnessSet = FrozenSet[Monomial]


class WhyProvenance:
    """The why-provenance of a view: every view tuple's minimal witnesses.

    Obtained from :func:`why_provenance`.  Also exposes the derived
    quantities the deletion algorithms need: the witness *universe* (all
    source tuples in any witness of a given view tuple) and the survival
    test (does a view tuple survive a hypothetical deletion set?).

    Always wraps a :class:`~repro.provenance.bitset.BitsetProvenance`:
    survival and side-effect queries run on its witness tables, and
    witnesses decode to frozensets lazily, per row, on first access.
    """

    __slots__ = ("_kernel", "_decoded")

    def __init__(self, kernel: BitsetProvenance):
        if not isinstance(kernel, BitsetProvenance):
            raise ReproError(
                f"WhyProvenance wraps a BitsetProvenance kernel, got {kernel!r}"
            )
        self._kernel = kernel
        self._decoded: Dict[Row, WitnessSet] = {}

    @property
    def schema(self) -> Schema:
        """Schema of the view."""
        return self._kernel.schema

    @property
    def view_name(self) -> str:
        """Name the view was evaluated under."""
        return self._kernel.view_name

    @property
    def kernel(self) -> BitsetProvenance:
        """The bitmask engine underneath."""
        return self._kernel

    @property
    def rows(self) -> Tuple[Row, ...]:
        """All view rows, deterministically ordered."""
        return self._kernel.rows

    def relation(self) -> Relation:
        """The view as a plain relation (provenance dropped)."""
        return self._kernel.relation()

    def witnesses(self, row: Row) -> WitnessSet:
        """The minimal witnesses of ``row``.

        Raises :class:`InfeasibleError` if the row is not in the view.
        """
        row = tuple(row)
        cached = self._decoded.get(row)
        if cached is None:
            cached = self._kernel.decode_witnesses(row)  # InfeasibleError
            self._decoded[row] = cached
        return cached

    def witness_universe(self, row: Row) -> FrozenSet[SourceTuple]:
        """All source tuples participating in some minimal witness of ``row``."""
        return self._kernel.index.decode_mask(self._kernel.universe_mask(row))

    def survives(self, row: Row, deletions: FrozenSet[SourceTuple]) -> bool:
        """True if ``row`` still has a witness disjoint from ``deletions``.

        Because every witness contains a minimal witness, checking the
        minimal ones is sound: the view tuple survives a deletion set iff
        some *minimal* witness is untouched.
        """
        kernel = self._kernel
        return kernel.survives_mask(row, kernel.encode_deletions_auto(deletions))

    def side_effects(
        self, target: Row, deletions: FrozenSet[SourceTuple]
    ) -> FrozenSet[Row]:
        """View rows other than ``target`` destroyed by ``deletions``."""
        kernel = self._kernel
        return kernel.side_effects_mask(
            tuple(target), kernel.encode_deletions_auto(deletions)
        )

    def surviving_rows(self, deletions: FrozenSet[SourceTuple]) -> FrozenSet[Row]:
        """The view after hypothetically deleting ``deletions``.

        Equal to re-evaluating the query over ``db.delete(deletions)`` but
        answered from the witnesses, without touching the database.
        """
        kernel = self._kernel
        return kernel.surviving_rows(kernel.encode_deletions_auto(deletions))

    def batch_side_effects(
        self,
        target: Row,
        deletion_sets: "Sequence[FrozenSet[SourceTuple]]",
        workers: "int | None" = None,
    ) -> "List[FrozenSet[Row]]":
        """:meth:`side_effects` for a whole vector of candidate deletions.

        The batched inner loop of the exact deletion solvers: the whole
        candidate vector is answered from the witness tables through the
        inverted index — sharded across ``workers`` when more than one is
        requested (:mod:`repro.parallel`).
        """
        kernel = self._kernel
        encoded = [kernel.encode_deletions_auto(d) for d in deletion_sets]
        return kernel.batch_side_effects_mask(tuple(target), encoded, workers=workers)

    def __len__(self) -> int:
        return len(self._kernel)

    def __contains__(self, row: object) -> bool:
        return row in self._kernel

    def as_dict(self) -> Dict[Row, WitnessSet]:
        """A copy of the underlying row → witness-set mapping."""
        return self._kernel.decode_all()


def why_provenance(
    query: Query,
    db: Database,
    view_name: str = DEFAULT_VIEW_NAME,
    store: "object | None" = None,
) -> WhyProvenance:
    """Evaluate ``query`` over ``db`` carrying minimal-witness annotations.

    Returns a :class:`WhyProvenance` for the whole view, backed by the
    integer-bitmask kernel.  ``store`` (a
    :class:`repro.columnar.store.ColumnStore` over this exact ``db``) runs
    the annotated evaluation on the columnar kernels; the resulting witness
    table is bit-identical either way.
    """
    return WhyProvenance(bitset_why_provenance(query, db, view_name, store=store))


def witnesses_of(query: Query, db: Database, row: Row) -> WitnessSet:
    """Convenience: the minimal witnesses of a single view row."""
    return why_provenance(query, db).witnesses(row)
