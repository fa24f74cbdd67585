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
pre-kernel frozenset evaluator is kept as ``engine="legacy"`` — it is the
oracle the equivalence property tests and the benchmarks compare against.

The number of minimal witnesses can be exponential in the query size — the
paper's Corollary 3.1 shows even deciding membership of a source tuple in
some witness is NP-hard — so this computation is exponential in the worst
case, but linear-ish on the practical instances the benchmarks use.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError, InfeasibleError, ReproError
from repro.algebra.ast import (
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.evaluate import DEFAULT_VIEW_NAME
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.schema import Schema
from repro.provenance.bitset import BitsetProvenance, bitset_why_provenance
from repro.provenance.locations import SourceTuple

__all__ = ["WhyProvenance", "why_provenance", "witnesses_of", "minimize_monomials"]

#: A monomial: a set of source tuples jointly sufficient to derive a tuple.
Monomial = FrozenSet[SourceTuple]

#: A tuple's witness basis: its set of minimal monomials.
WitnessSet = FrozenSet[Monomial]


def minimize_monomials(monomials: Set[Monomial]) -> WitnessSet:
    """Remove monomials that strictly contain another (absorption).

    ``{a} + {a, b} = {a}`` in witness algebra: if a sub-instance containing
    only ``a`` already derives the tuple, the larger one is not minimal.
    """
    by_size = sorted(monomials, key=len)
    kept: List[Monomial] = []
    for monomial in by_size:
        if not any(existing <= monomial for existing in kept):
            kept.append(monomial)
    return frozenset(kept)


class WhyProvenance:
    """The why-provenance of a view: every view tuple's minimal witnesses.

    Obtained from :func:`why_provenance`.  Also exposes the derived
    quantities the deletion algorithms need: the witness *universe* (all
    source tuples in any witness of a given view tuple) and the survival
    test (does a view tuple survive a hypothetical deletion set?).

    When backed by a :class:`~repro.provenance.bitset.BitsetProvenance`
    kernel (the default engine), survival and side-effect queries run on
    its witness tables and witnesses decode to frozensets lazily, per row,
    on first access; constructing from a plain witnesses dict still works and keeps
    the pre-kernel behaviour.
    """

    __slots__ = ("_schema", "_witnesses", "_view_name", "_kernel")

    def __init__(
        self,
        schema: Schema,
        witnesses: Optional[Dict[Row, WitnessSet]] = None,
        view_name: str = DEFAULT_VIEW_NAME,
        kernel: Optional[BitsetProvenance] = None,
    ):
        if witnesses is None and kernel is None:
            raise ReproError("WhyProvenance needs a witnesses dict or a kernel")
        self._schema = schema
        self._witnesses: Dict[Row, WitnessSet] = (
            dict(witnesses) if witnesses is not None else {}
        )
        self._view_name = view_name
        self._kernel = kernel

    @classmethod
    def from_kernel(cls, kernel: BitsetProvenance) -> "WhyProvenance":
        """Wrap a bitset kernel, decoding witnesses only on demand."""
        return cls(kernel.schema, None, kernel.view_name, kernel=kernel)

    @property
    def schema(self) -> Schema:
        """Schema of the view."""
        return self._schema

    @property
    def view_name(self) -> str:
        """Name the view was evaluated under."""
        return self._view_name

    @property
    def kernel(self) -> Optional[BitsetProvenance]:
        """The bitmask engine underneath, when built by the default engine."""
        return self._kernel

    @property
    def rows(self) -> Tuple[Row, ...]:
        """All view rows, deterministically ordered."""
        if self._kernel is not None:
            return self._kernel.rows
        return tuple(sorted(self._witnesses, key=repr))

    def relation(self) -> Relation:
        """The view as a plain relation (provenance dropped)."""
        if self._kernel is not None:
            return self._kernel.relation()
        return Relation(self._view_name, self._schema, self._witnesses.keys())

    def witnesses(self, row: Row) -> WitnessSet:
        """The minimal witnesses of ``row``.

        Raises :class:`InfeasibleError` if the row is not in the view.
        """
        row = tuple(row)
        if self._kernel is not None:
            cached = self._witnesses.get(row)
            if cached is None:
                cached = self._kernel.decode_witnesses(row)  # InfeasibleError
                self._witnesses[row] = cached
            return cached
        if row not in self._witnesses:
            raise InfeasibleError(f"row {row!r} is not in the view")
        return self._witnesses[row]

    def witness_universe(self, row: Row) -> FrozenSet[SourceTuple]:
        """All source tuples participating in some minimal witness of ``row``."""
        if self._kernel is not None:
            return self._kernel.index.decode_mask(self._kernel.universe_mask(row))
        universe: Set[SourceTuple] = set()
        for monomial in self.witnesses(row):
            universe |= monomial
        return frozenset(universe)

    def survives(self, row: Row, deletions: FrozenSet[SourceTuple]) -> bool:
        """True if ``row`` still has a witness disjoint from ``deletions``.

        Because every witness contains a minimal witness, checking the
        minimal ones is sound: the view tuple survives a deletion set iff
        some *minimal* witness is untouched.
        """
        if self._kernel is not None:
            return self._kernel.survives_mask(
                row, self._kernel.encode_deletions_auto(deletions)
            )
        return any(not (monomial & deletions) for monomial in self.witnesses(row))

    def side_effects(
        self, target: Row, deletions: FrozenSet[SourceTuple]
    ) -> FrozenSet[Row]:
        """View rows other than ``target`` destroyed by ``deletions``."""
        target = tuple(target)
        if self._kernel is not None:
            return self._kernel.side_effects_mask(
                target, self._kernel.encode_deletions_auto(deletions)
            )
        destroyed = {
            row
            for row in self._witnesses
            if row != target and not self.survives(row, deletions)
        }
        return frozenset(destroyed)

    def surviving_rows(self, deletions: FrozenSet[SourceTuple]) -> FrozenSet[Row]:
        """The view after hypothetically deleting ``deletions``.

        Equal to re-evaluating the query over ``db.delete(deletions)`` but
        answered from the witnesses, without touching the database.
        """
        if self._kernel is not None:
            return self._kernel.surviving_rows(
                self._kernel.encode_deletions_auto(deletions)
            )
        return frozenset(
            row for row in self._witnesses if self.survives(row, deletions)
        )

    def batch_side_effects(
        self,
        target: Row,
        deletion_sets: "Sequence[FrozenSet[SourceTuple]]",
        workers: "int | None" = None,
    ) -> "List[FrozenSet[Row]]":
        """:meth:`side_effects` for a whole vector of candidate deletions.

        The batched inner loop of the exact deletion solvers: on the bitset
        kernel the whole candidate vector is answered from the witness
        tables through the inverted index — sharded across ``workers`` when
        more than one is requested (:mod:`repro.parallel`).  Without a
        kernel (legacy engine) this degrades to a per-candidate loop with
        identical answers, and ``workers`` is ignored.
        """
        if self._kernel is not None:
            kernel = self._kernel
            encoded = [kernel.encode_deletions_auto(d) for d in deletion_sets]
            return kernel.batch_side_effects_mask(target, encoded, workers=workers)
        return [self.side_effects(target, d) for d in deletion_sets]

    def __len__(self) -> int:
        if self._kernel is not None:
            return len(self._kernel)
        return len(self._witnesses)

    def __contains__(self, row: object) -> bool:
        if self._kernel is not None:
            return row in self._kernel
        return row in self._witnesses

    def as_dict(self) -> Dict[Row, WitnessSet]:
        """A copy of the underlying row → witness-set mapping."""
        if self._kernel is not None:
            return self._kernel.decode_all()
        return dict(self._witnesses)


def why_provenance(
    query: Query,
    db: Database,
    view_name: str = DEFAULT_VIEW_NAME,
    engine: str = "bitset",
    store: "object | None" = None,
) -> WhyProvenance:
    """Evaluate ``query`` over ``db`` carrying minimal-witness annotations.

    Returns a :class:`WhyProvenance` for the whole view.  ``engine`` selects
    the evaluator: ``"bitset"`` (default) runs on the integer-bitmask kernel;
    ``"legacy"`` runs the original frozenset evaluator — kept as the oracle
    for the equivalence tests and the old-vs-new benchmarks.  ``store`` (a
    :class:`repro.columnar.store.ColumnStore` over this exact ``db``) lets
    the bitset engine run the annotated evaluation on the columnar kernels;
    the resulting witness table is bit-identical either way.
    """
    if engine == "bitset":
        kernel = bitset_why_provenance(query, db, view_name, store=store)
        return WhyProvenance.from_kernel(kernel)
    if engine == "legacy":
        schema, table = _eval(query, db)
        return WhyProvenance(schema, table, view_name)
    raise ReproError(f"unknown why-provenance engine {engine!r}")


def witnesses_of(query: Query, db: Database, row: Row) -> WitnessSet:
    """Convenience: the minimal witnesses of a single view row."""
    return why_provenance(query, db).witnesses(row)


def _eval(query: Query, db: Database) -> Tuple[Schema, Dict[Row, WitnessSet]]:
    """Legacy frozenset evaluation: (schema, row → minimal monomials)."""
    if isinstance(query, RelationRef):
        relation = db[query.name]
        table = {
            row: frozenset({frozenset({(query.name, row)})}) for row in relation.rows
        }
        return relation.schema, table

    if isinstance(query, Select):
        schema, table = _eval(query.child, db)
        query.predicate.validate(schema)
        kept = {
            row: wits
            for row, wits in table.items()
            if query.predicate.evaluate(schema, row)
        }
        return schema, kept

    if isinstance(query, Project):
        schema, table = _eval(query.child, db)
        out_schema = schema.project(query.attributes)
        positions = schema.positions(query.attributes)
        merged: Dict[Row, Set[Monomial]] = {}
        for row, wits in table.items():
            image = tuple(row[i] for i in positions)
            merged.setdefault(image, set()).update(wits)
        return out_schema, {
            row: minimize_monomials(monomials) for row, monomials in merged.items()
        }

    if isinstance(query, Join):
        left_schema, left_table = _eval(query.left, db)
        right_schema, right_table = _eval(query.right, db)
        out_schema = left_schema.join(right_schema)
        shared = left_schema.common(right_schema)
        left_key = left_schema.positions(shared)
        right_key = right_schema.positions(shared)
        right_extra = [
            i
            for i, attr in enumerate(right_schema.attributes)
            if attr not in left_schema
        ]
        buckets: Dict[Tuple[object, ...], List[Row]] = {}
        for row in right_table:
            buckets.setdefault(tuple(row[i] for i in right_key), []).append(row)
        out: Dict[Row, Set[Monomial]] = {}
        for lrow, lwits in left_table.items():
            key = tuple(lrow[i] for i in left_key)
            for rrow in buckets.get(key, ()):
                joined = lrow + tuple(rrow[i] for i in right_extra)
                products = {
                    lm | rm for lm in lwits for rm in right_table[rrow]
                }
                out.setdefault(joined, set()).update(products)
        return out_schema, {
            row: minimize_monomials(monomials) for row, monomials in out.items()
        }

    if isinstance(query, Union):
        left_schema, left_table = _eval(query.left, db)
        right_schema, right_table = _eval(query.right, db)
        if not left_schema.is_union_compatible(right_schema):
            raise EvaluationError(
                f"union of incompatible schemas {left_schema.attributes} "
                f"and {right_schema.attributes}"
            )
        reorder = right_schema.positions(left_schema.attributes)
        merged: Dict[Row, Set[Monomial]] = {
            row: set(wits) for row, wits in left_table.items()
        }
        for row, wits in right_table.items():
            image = tuple(row[i] for i in reorder)
            merged.setdefault(image, set()).update(wits)
        return left_schema, {
            row: minimize_monomials(monomials) for row, monomials in merged.items()
        }

    if isinstance(query, Rename):
        schema, table = _eval(query.child, db)
        return schema.rename(query.mapping_dict), table

    raise EvaluationError(f"unknown query node {query!r}")
