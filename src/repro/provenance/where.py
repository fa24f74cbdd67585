"""Where-provenance: annotation propagation from source to view.

Section 3 of the paper defines five *forward propagation rules*, one per
monotone operator, describing how an annotation placed on a source location
``(R, t', A)`` is carried into the view:

* **Selection** ``σ_C(R)``: propagates to ``(σ_C(R), t, A)`` iff ``t = t'``.
* **Projection** ``Π_B(R)``: propagates to ``(Π_B(R), t, A)`` iff ``A ∈ B``
  and ``t'.B = t``.
* **Join** ``R1 ⋈ R2``: an annotation on ``(R1, t1, A)`` (resp. ``R2``)
  propagates to ``(R1 ⋈ R2, t, A)`` iff ``t.R1 = t1`` (resp. ``t.R2 = t2``).
* **Union** ``R1 ∪ R2``: propagates iff ``t = t1`` (resp. ``t = t2``).
* **Renaming** ``δ_θ(R)``: ``(R, t, A)`` propagates to ``(δ_θ(R), t, θ(A))``.

The rules use *equality of similarly named fields* — there is no flow across
differently named attributes, even under an explicit equality selection
``σ_{A=A'}``; the test suite pins this consequence down.

This module computes the full relation ``R(Q, S)`` between source locations
and view locations:

* :func:`where_provenance` — for each view location, the set of source
  locations whose annotation reaches it (the *backward* image);
* :meth:`WhereProvenance.forward` — for a source location, the set of view
  locations it propagates to (the *forward* image, i.e. what happens if you
  annotate that source field);
* :meth:`WhereProvenance.forward_closure` — forward images for all source
  locations at once.

Because the rules compose tuple-by-tuple, the backward image is computed by
one annotated evaluation pass, mirroring :mod:`repro.provenance.why`.  That
pass runs on the **compiled plan layer**: :func:`where_provenance` compiles
the query once through the shared plan memo and executes the plan's
where-annotated semantics
(:meth:`~repro.algebra.plan.CompiledPlan.where_rows`), where positions and
attribute lineage through joins are resolved at compile time.

For union-free plans that scan each relation once, the backward image of a
single field needs no pass at all: :func:`where_from_witnesses` reads it
off the field's minimal witnesses through the plan's compile-time column
map (:attr:`~repro.algebra.plan.CompiledPlan.where_columns`).  The serving
engine answers ``where`` that way from its warm witness table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Set, Tuple

from repro.errors import InfeasibleError
from repro.algebra.ast import Query
from repro.algebra.evaluate import DEFAULT_VIEW_NAME
from repro.algebra.plan import CompiledPlan
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.schema import Schema
from repro.provenance.cache import cached_plan
from repro.provenance.locations import Location

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.provenance.why import WhyProvenance

__all__ = [
    "WhereProvenance",
    "where_provenance",
    "where_from_witnesses",
    "annotate",
]

#: A view field: (row, attribute).  The view's name is carried separately.
ViewField = Tuple[Row, str]


class WhereProvenance:
    """The relation ``R(Q, S)`` between source locations and view locations.

    Stores the backward image (view field → source locations) and derives
    forward images on demand.
    """

    __slots__ = ("_schema", "_backward", "_view_name", "_forward_cache")

    def __init__(
        self,
        schema: Schema,
        backward: Dict[ViewField, FrozenSet[Location]],
        view_name: str = DEFAULT_VIEW_NAME,
    ):
        self._schema = schema
        self._backward = backward
        self._view_name = view_name
        self._forward_cache: "Dict[Location, FrozenSet[Location]] | None" = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """Schema of the view."""
        return self._schema

    @property
    def view_name(self) -> str:
        """Name used for view locations."""
        return self._view_name

    @property
    def rows(self) -> Tuple[Row, ...]:
        """All view rows, deterministically ordered."""
        return tuple(sorted({row for row, _ in self._backward}, key=repr))

    def relation(self) -> Relation:
        """The view as a plain relation."""
        return Relation(
            self._view_name, self._schema, {row for row, _ in self._backward}
        )

    def view_locations(self) -> Tuple[Location, ...]:
        """Every location of the view, deterministically ordered."""
        out = [
            Location(self._view_name, row, attr) for row, attr in self._backward
        ]
        return tuple(sorted(out, key=lambda loc: (repr(loc.row), loc.attribute)))

    # ------------------------------------------------------------------
    # Backward image
    # ------------------------------------------------------------------
    def backward(self, row: Row, attribute: str) -> FrozenSet[Location]:
        """Source locations that propagate to view field ``(row, attribute)``.

        Raises :class:`InfeasibleError` when the field is not in the view.
        """
        key = (tuple(row), attribute)
        if key not in self._backward:
            raise InfeasibleError(
                f"({row!r}, {attribute!r}) is not a field of the view"
            )
        return self._backward[key]

    def as_dict(self) -> Dict[ViewField, FrozenSet[Location]]:
        """A copy of the backward map."""
        return dict(self._backward)

    # ------------------------------------------------------------------
    # Forward image
    # ------------------------------------------------------------------
    def forward(self, source: Location) -> FrozenSet[Location]:
        """View locations an annotation on ``source`` propagates to.

        The inverse image of the backward map: all view fields whose
        where-provenance contains ``source``.
        """
        return self.forward_closure().get(source, frozenset())

    def forward_closure(self) -> Dict[Location, FrozenSet[Location]]:
        """Forward images for every source location that reaches the view.

        Source locations with an empty forward image do not appear as keys.
        """
        if self._forward_cache is None:
            forward: Dict[Location, Set[Location]] = {}
            for (row, attr), sources in self._backward.items():
                view_loc = Location(self._view_name, row, attr)
                for src in sources:
                    forward.setdefault(src, set()).add(view_loc)
            self._forward_cache = {
                src: frozenset(locs) for src, locs in forward.items()
            }
        return dict(self._forward_cache)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WhereProvenance):
            return NotImplemented
        return self._schema == other._schema and self._backward == other._backward


def where_provenance(
    query: Query,
    db: Database,
    view_name: str = DEFAULT_VIEW_NAME,
    optimizer_level: "int | None" = None,
) -> WhereProvenance:
    """Compute the full annotation-propagation relation of ``query`` on ``db``.

    ``optimizer_level`` selects the plan-compiler level (``None`` = the
    library default).  The relation ``R(Q, S)`` is invariant under the
    optimizer's rewrites — they preserve attribute names and the natural
    join structure, which is exactly what the paper's propagation rules
    key on — so every level returns the same annotations (pinned by the
    soundness property tests).
    """
    plan = cached_plan(query, db, optimizer_level)
    return WhereProvenance(plan.schema, plan.where_rows(db), view_name)


def where_from_witnesses(
    plan: CompiledPlan, prov: "WhyProvenance", row: Row, attribute: str
) -> FrozenSet[Location]:
    """``where_provenance(...).backward(row, attribute)``, from witnesses.

    ``plan.where_columns`` must not be None: then every derivation of
    ``row`` is one of its minimal witnesses, holding one tuple per base
    relation, and the field's source locations are the column's base
    fields read off each witness.  ``prov`` is the why-provenance of the
    plan's query over the same database.  Raises the same
    :class:`InfeasibleError` as :meth:`WhereProvenance.backward` for a
    field outside the view.
    """
    key = tuple(row)
    if key not in prov or attribute not in plan.schema:
        raise InfeasibleError(
            f"({row!r}, {attribute!r}) is not a field of the view"
        )
    fields = plan.where_columns[plan.schema.index_of(attribute)]
    locations = set()
    for witness in prov.witnesses(key):
        tuples = dict(witness)
        locations.update(
            Location(name, tuples[name], attr) for name, attr in fields
        )
    return frozenset(locations)


def annotate(
    query: Query, db: Database, source: Location, view_name: str = DEFAULT_VIEW_NAME
) -> FrozenSet[Location]:
    """Forward-propagate an annotation on ``source`` through ``query``.

    Convenience wrapper over :meth:`WhereProvenance.forward`.
    """
    return where_provenance(query, db, view_name).forward(source)
