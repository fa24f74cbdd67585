"""Compiled physical query plans: compile once, evaluate many times.

The exact deletion solvers evaluate the same query against thousands of
hypothetical databases that differ from the original by a handful of deleted
tuples.  The recursive interpreters (plain, witness-annotated, and
where-annotated) re-resolved schemas, re-validated predicates, and recomputed
join/projection column positions on **every** call.  This module separates
those two costs:

* :func:`compile_plan` is a **staged compiler**: it validates the query
  tree once against a catalog (relation name →
  :class:`~repro.algebra.schema.Schema`), optionally rewrites it through
  the statistics-driven rule pipeline of :mod:`repro.algebra.optimizer`
  (selection pushdown, greedy join reordering, projection pruning), and
  produces a tree of physical operator nodes — :class:`ScanOp`,
  :class:`FilterOp`, :class:`ProjectOp`, :class:`HashJoinOp`,
  :class:`UnionOp`, :class:`RenameOp` — with all schema resolution,
  predicate binding, column positions, join keys, and union reorders
  frozen into the nodes (and, on the optimized path, residual predicates
  and column masks fused into the scans);
* the resulting :class:`CompiledPlan` then executes against any database
  with the catalog's schemas, in three semantics sharing one operator tree:

  - :meth:`CompiledPlan.rows` — plain set semantics (the
    :func:`repro.algebra.evaluate.evaluate` front);
  - :meth:`CompiledPlan.annotated_rows` — witness-DNF annotation as integer
    bitmasks over a :class:`~repro.provenance.interning.SourceIndex` (the
    :func:`repro.provenance.bitset.bitset_why_provenance` front);
  - :meth:`CompiledPlan.where_rows` — where-provenance location sets per
    view field (the :func:`repro.provenance.where.where_provenance` front).

  Where numpy imports, the serving engine runs the first two on the
  columnar kernels instead (:meth:`CompiledPlan.rows_columnar`,
  :meth:`CompiledPlan.annotated_table_columnar`) over the same tree; this
  tuple executor is the only one on hosts without numpy.

Compilation also *moves validation forward*: union schema compatibility,
predicate attribute resolution, projection positions, and rename injectivity
are all checked at compile time, so a malformed query fails once, at
:func:`compile_plan`, with the same exception types the interpreters used to
raise mid-evaluation (:class:`~repro.errors.SchemaError` for static schema
problems, :class:`~repro.errors.EvaluationError` for unknown relations and
incompatible unions).  Children are compiled before their parent node is
validated, mirroring the old interpreter's bottom-up error order.

This module deliberately imports nothing from :mod:`repro.provenance` at
module level (the provenance cache imports :func:`compile_plan`); the two
annotated execution modes receive their provenance-layer collaborators —
the interning function, the mask minimizer, the location constructor — as
call-time arguments supplied by the thin fronts.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import EvaluationError, SchemaError
from repro.algebra.ast import (
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.predicates import (
    And,
    AttributeRef,
    COMPARATORS,
    Comparison,
    Constant,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.algebra.optimizer import optimize
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.schema import Schema

__all__ = [
    "DEFAULT_VIEW_NAME",
    "PlanNode",
    "ScanOp",
    "FilterOp",
    "ProjectOp",
    "HashJoinOp",
    "UnionOp",
    "RenameOp",
    "CompiledPlan",
    "compile_plan",
]

#: Name given to evaluated views when the caller does not supply one.
#: (Re-exported by :mod:`repro.algebra.evaluate`, historically its home.)
DEFAULT_VIEW_NAME = "V"

#: A compiled row-level predicate: row → bool, positions pre-resolved.
RowTest = Callable[[Row], bool]

#: A tuple's minimal witnesses as integer bitmasks (see provenance.bitset).
MaskWitnesses = Tuple[int, ...]


def _getter(positions: "List[int] | Tuple[int, ...]"):
    """A C-speed row projector that always returns a tuple."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        only = positions[0]
        return lambda row: (row[only],)
    return itemgetter(*positions)


# ----------------------------------------------------------------------
# Predicate binding: resolve attribute positions once, at compile time.
# ----------------------------------------------------------------------

def _bind_operand(operand, schema: Schema):
    """Compile a comparison operand to a row → value closure."""
    if isinstance(operand, AttributeRef):
        position = schema.index_of(operand.attribute)  # SchemaError if absent
        return lambda row: row[position]
    if isinstance(operand, Constant):
        literal = operand.literal
        return lambda row: literal
    # Unknown operand subtype: fall back to the interpreted protocol.
    return lambda row: operand.value(schema, row)


def bind_predicate(predicate: Predicate, schema: Schema) -> RowTest:
    """Compile ``predicate`` against ``schema`` into a row-level test.

    Attribute positions are resolved once here; unknown attributes raise
    :class:`SchemaError` immediately (compile time), exactly as
    ``predicate.validate(schema)`` would.  Comparing incomparable values at
    run time still raises :class:`EvaluationError`, matching the
    interpreted :meth:`Comparison.evaluate` behaviour.
    """
    if isinstance(predicate, TruePredicate):
        return lambda row: True
    if isinstance(predicate, Comparison):
        left = _bind_operand(predicate.left, schema)
        right = _bind_operand(predicate.right, schema)
        compare = COMPARATORS[predicate.op]
        op = predicate.op

        def test(row: Row) -> bool:
            lhs = left(row)
            rhs = right(row)
            try:
                return compare(lhs, rhs)
            except TypeError:
                raise EvaluationError(
                    f"cannot compare {lhs!r} {op} {rhs!r} (incompatible types)"
                ) from None

        return test
    if isinstance(predicate, And):
        lt = bind_predicate(predicate.left, schema)
        rt = bind_predicate(predicate.right, schema)
        return lambda row: lt(row) and rt(row)
    if isinstance(predicate, Or):
        lt = bind_predicate(predicate.left, schema)
        rt = bind_predicate(predicate.right, schema)
        return lambda row: lt(row) or rt(row)
    if isinstance(predicate, Not):
        ct = bind_predicate(predicate.child, schema)
        return lambda row: not ct(row)
    # Unknown predicate subtype: validate now, interpret per row.
    predicate.validate(schema)
    return lambda row: predicate.evaluate(schema, row)


# ----------------------------------------------------------------------
# Physical operator nodes
# ----------------------------------------------------------------------

class PlanNode:
    """A physical operator with all positions resolved at compile time.

    Every node executes in three semantics over the same compiled structure:

    * :meth:`rows` — plain set-semantics rows;
    * :meth:`annotated` — row → minimal witness masks (witness DNF on ints);
    * :meth:`where` — row → per-attribute source-location sets, positional.
    """

    __slots__ = ("schema",)

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """Child operators, for plan rendering and introspection."""
        return ()

    def describe(self) -> str:
        """One-line operator description with its resolved positions."""
        raise NotImplementedError

    def rows(self, db: Database) -> "Iterable[Row]":
        """Duplicate-free rows of this operator's result over ``db``."""
        raise NotImplementedError

    def annotated(
        self, db: Database, intern: Callable, minimize: Callable
    ) -> Dict[Row, MaskWitnesses]:
        """row → minimal witness masks; ``intern`` maps source tuples to ids."""
        raise NotImplementedError

    def where(
        self, db: Database, make_location: Callable
    ) -> "Dict[Row, List[Set[object]]]":
        """row → per-output-position sets of propagating source locations."""
        raise NotImplementedError


class ScanOp(PlanNode):
    """Scan a base relation; validates the runtime schema still matches.

    The optimized physical planner may fuse work into the scan:

    * a **residual predicate** (``predicate``/``test``), applied to each
      base row before anything else — the landing site of selection
      pushdown;
    * a **column mask** (``columns``), base-schema positions the scan
      emits — the landing site of projection pruning.

    Provenance semantics are untouched by fusion: witness masks intern the
    *full* base row before the column mask applies, and where-locations
    always carry the full base row, exactly as a ``Filter``/``Project``
    pair over an unfused scan would produce.  Filtering before interning is
    sound because a filtered-out base row contributes no witness downstream.
    """

    __slots__ = ("name", "base_schema", "predicate", "test", "columns", "image_of")

    def __init__(
        self,
        name: str,
        schema: Schema,
        predicate: Optional[Predicate] = None,
        test: Optional[RowTest] = None,
        columns: Optional[Tuple[int, ...]] = None,
    ):
        self.name = name
        self.base_schema = schema
        self.predicate = predicate
        self.test = test
        self.columns = columns
        if columns is None:
            self.schema = schema
            self.image_of = None
        else:
            self.schema = Schema(
                tuple(schema.attributes[i] for i in columns)
            )
            self.image_of = _getter(columns)

    # -- fusion (used only when compiling an optimized logical tree) ----
    def fuse_filter(self, predicate: Predicate) -> "ScanOp":
        """This scan with ``predicate`` conjoined into the residual filter.

        The predicate mentions only visible (emitted) attributes, whose
        names and values are identical on the full base row, so it binds
        against the base schema and runs before the column mask.
        """
        test = bind_predicate(predicate, self.base_schema)  # SchemaError
        if self.test is None:
            fused_pred, fused_test = predicate, test
        else:
            previous = self.test
            fused_pred = And(self.predicate, predicate)
            fused_test = lambda row: previous(row) and test(row)
        return ScanOp(
            self.name, self.base_schema, fused_pred, fused_test, self.columns
        )

    def fuse_project(self, attributes: "Tuple[str, ...]") -> "ScanOp":
        """This scan emitting only ``attributes`` (composed column mask)."""
        visible_positions = self.schema.positions(attributes)  # SchemaError
        if self.columns is None:
            columns = visible_positions
        else:
            columns = tuple(self.columns[p] for p in visible_positions)
        return ScanOp(
            self.name, self.base_schema, self.predicate, self.test, columns
        )

    def describe(self) -> str:
        text = f"Scan {self.name} schema=({', '.join(self.base_schema.attributes)})"
        if self.predicate is not None:
            text += f" filter=[{self.predicate!r}]"
        if self.columns is not None:
            text += f" cols={self.columns}"
        return text

    def _relation(self, db: Database) -> Relation:
        relation = db[self.name]  # EvaluationError when missing
        if relation.schema != self.base_schema:
            raise EvaluationError(
                f"compiled plan is stale: relation {self.name!r} has schema "
                f"{relation.schema.attributes}, plan was compiled against "
                f"{self.base_schema.attributes}"
            )
        return relation

    def _base_rows(self, db: Database) -> "Iterable[Row]":
        rows = self._relation(db).rows
        test = self.test
        if test is None:
            return rows
        return [row for row in rows if test(row)]

    def rows(self, db: Database) -> "Iterable[Row]":
        rows = self._base_rows(db)
        image_of = self.image_of
        if image_of is None:
            return rows
        return {image_of(row) for row in rows}

    def annotated(self, db, intern, minimize) -> Dict[Row, MaskWitnesses]:
        name = self.name
        rows = self._base_rows(db)
        image_of = self.image_of
        if image_of is None:
            return {row: (1 << intern((name, row)),) for row in rows}
        merged: Dict[Row, Set[int]] = {}
        merged_get = merged.get
        for row in rows:
            image = image_of(row)
            mask = 1 << intern((name, row))
            masks = merged_get(image)
            if masks is None:
                merged[image] = {mask}
            else:
                masks.add(mask)
        return {row: minimize(masks) for row, masks in merged.items()}

    def where(self, db, make_location):
        name = self.name
        rows = self._base_rows(db)
        attrs = self.schema.attributes
        image_of = self.image_of
        if image_of is None:
            return {
                row: [{make_location(name, row, attr)} for attr in attrs]
                for row in rows
            }
        merged: "Dict[Row, List[Set[object]]]" = {}
        merged_get = merged.get
        for row in rows:
            image = image_of(row)
            existing = merged_get(image)
            if existing is None:
                merged[image] = [
                    {make_location(name, row, attr)} for attr in attrs
                ]
            else:
                for position, attr in enumerate(attrs):
                    existing[position].add(make_location(name, row, attr))
        return merged


class FilterOp(PlanNode):
    """Selection with the predicate bound to column positions at compile."""

    __slots__ = ("child", "predicate", "test")

    def __init__(self, child: PlanNode, predicate: Predicate, test: RowTest):
        self.child = child
        self.predicate = predicate
        self.test = test
        self.schema = child.schema

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter [{self.predicate!r}]"

    def rows(self, db: Database) -> "Iterable[Row]":
        test = self.test
        return [row for row in self.child.rows(db) if test(row)]

    def annotated(self, db, intern, minimize) -> Dict[Row, MaskWitnesses]:
        test = self.test
        return {
            row: wits
            for row, wits in self.child.annotated(db, intern, minimize).items()
            if test(row)
        }

    def where(self, db, make_location):
        test = self.test
        return {
            row: sets
            for row, sets in self.child.where(db, make_location).items()
            if test(row)
        }


class ProjectOp(PlanNode):
    """Projection with output positions resolved at compile time."""

    __slots__ = ("child", "positions", "image_of")

    def __init__(self, child: PlanNode, attributes: Tuple[str, ...]):
        self.child = child
        self.schema = child.schema.project(attributes)  # SchemaError if bad
        self.positions = child.schema.positions(attributes)
        self.image_of = _getter(self.positions)

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        attrs = ", ".join(self.schema.attributes)
        return f"Project [{attrs}] cols={self.positions}"

    def rows(self, db: Database) -> "Iterable[Row]":
        image_of = self.image_of
        return {image_of(row) for row in self.child.rows(db)}

    def annotated(self, db, intern, minimize) -> Dict[Row, MaskWitnesses]:
        image_of = self.image_of
        merged: Dict[Row, Set[int]] = {}
        merged_get = merged.get
        for row, wits in self.child.annotated(db, intern, minimize).items():
            image = image_of(row)
            masks = merged_get(image)
            if masks is None:
                merged[image] = set(wits)
            else:
                masks.update(wits)
        return {row: minimize(masks) for row, masks in merged.items()}

    def where(self, db, make_location):
        image_of = self.image_of
        positions = self.positions
        merged: "Dict[Row, List[Set[object]]]" = {}
        merged_get = merged.get
        for row, sets in self.child.where(db, make_location).items():
            image = image_of(row)
            existing = merged_get(image)
            if existing is None:
                merged[image] = [set(sets[p]) for p in positions]
            else:
                for out_pos, p in enumerate(positions):
                    existing[out_pos] |= sets[p]
        return merged


class HashJoinOp(PlanNode):
    """Natural join with keys, extras, and attribute lineage precomputed.

    Degenerates to a hash-free cross product when the operand schemas share
    no attributes (empty keys bucket everything together).
    """

    __slots__ = (
        "left",
        "right",
        "shared",
        "left_key_positions",
        "right_key_positions",
        "right_extra_positions",
        "left_key_of",
        "right_key_of",
        "extra_of",
        "where_pairs",
    )

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right
        left_schema, right_schema = left.schema, right.schema
        self.schema = left_schema.join(right_schema)
        self.shared = left_schema.common(right_schema)
        self.left_key_positions = left_schema.positions(self.shared)
        self.right_key_positions = right_schema.positions(self.shared)
        self.right_extra_positions = tuple(
            i
            for i, attr in enumerate(right_schema.attributes)
            if attr not in left_schema
        )
        self.left_key_of = _getter(self.left_key_positions)
        self.right_key_of = _getter(self.right_key_positions)
        self.extra_of = _getter(self.right_extra_positions)
        # For where-provenance: each output position's source positions in
        # the left and right operands (None when the attribute is absent).
        pairs = []
        for attr in self.schema.attributes:
            left_pos = left_schema.index_of(attr) if attr in left_schema else None
            right_pos = (
                right_schema.index_of(attr) if attr in right_schema else None
            )
            pairs.append((left_pos, right_pos))
        self.where_pairs: Tuple[Tuple[Optional[int], Optional[int]], ...] = (
            tuple(pairs)
        )

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        if not self.shared:
            return "HashJoin (cross product: no shared attributes)"
        return (
            f"HashJoin on ({', '.join(self.shared)}) "
            f"keysL={self.left_key_positions} keysR={self.right_key_positions} "
            f"extraR={self.right_extra_positions}"
        )

    def _buckets(self, right_items, value_of):
        """Partition right items by join key, carrying ``value_of(item)``."""
        right_key_of = self.right_key_of
        extra_of = self.extra_of
        buckets: Dict[Tuple[object, ...], List[Tuple[Row, object]]] = {}
        for row, payload in right_items:
            buckets.setdefault(right_key_of(row), []).append(
                (extra_of(row), value_of(payload))
            )
        return buckets

    def rows(self, db: Database) -> "Iterable[Row]":
        right_key_of = self.right_key_of
        extra_of = self.extra_of
        buckets: Dict[Tuple[object, ...], List[Row]] = {}
        for row in self.right.rows(db):
            buckets.setdefault(right_key_of(row), []).append(extra_of(row))
        left_key_of = self.left_key_of
        out: Set[Row] = set()
        for lrow in self.left.rows(db):
            matches = buckets.get(left_key_of(lrow))
            if matches:
                for extra in matches:
                    out.add(lrow + extra)
        return out

    def annotated(self, db, intern, minimize) -> Dict[Row, MaskWitnesses]:
        left_table = self.left.annotated(db, intern, minimize)
        right_table = self.right.annotated(db, intern, minimize)
        buckets = self._buckets(right_table.items(), lambda wits: wits)
        left_key_of = self.left_key_of
        out: Dict[Row, Set[int]] = {}
        out_get = out.get
        for lrow, lwits in left_table.items():
            matches = buckets.get(left_key_of(lrow))
            if not matches:
                continue
            for extra, rwits in matches:
                joined = lrow + extra
                if len(lwits) == 1 and len(rwits) == 1:
                    products = {lwits[0] | rwits[0]}
                else:
                    products = {lm | rm for lm in lwits for rm in rwits}
                masks = out_get(joined)
                if masks is None:
                    out[joined] = products
                else:
                    masks.update(products)
        return {row: minimize(masks) for row, masks in out.items()}

    def where(self, db, make_location):
        left_table = self.left.where(db, make_location)
        right_table = self.right.where(db, make_location)
        buckets = self._buckets(right_table.items(), lambda sets: sets)
        left_key_of = self.left_key_of
        where_pairs = self.where_pairs
        out: "Dict[Row, List[Set[object]]]" = {}
        out_get = out.get
        for lrow, lsets in left_table.items():
            matches = buckets.get(left_key_of(lrow))
            if not matches:
                continue
            for extra, rsets in matches:
                joined = lrow + extra
                existing = out_get(joined)
                if existing is None:
                    derived = []
                    for left_pos, right_pos in where_pairs:
                        sources: Set[object] = set()
                        if left_pos is not None:
                            sources |= lsets[left_pos]
                        if right_pos is not None:
                            sources |= rsets[right_pos]
                        derived.append(sources)
                    out[joined] = derived
                else:
                    for position, (left_pos, right_pos) in enumerate(where_pairs):
                        if left_pos is not None:
                            existing[position] |= lsets[left_pos]
                        if right_pos is not None:
                            existing[position] |= rsets[right_pos]
        return out


class UnionOp(PlanNode):
    """Union with the right operand's attribute reorder precomputed."""

    __slots__ = ("left", "right", "reorder", "reorder_of")

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right
        if not left.schema.is_union_compatible(right.schema):
            raise EvaluationError(
                f"union of incompatible schemas {left.schema.attributes} "
                f"and {right.schema.attributes}"
            )
        self.schema = left.schema
        reorder = right.schema.positions(left.schema.attributes)
        # Identity reorders (same attribute order both sides) skip remapping.
        self.reorder: Optional[Tuple[int, ...]] = (
            None if reorder == tuple(range(len(reorder))) else reorder
        )
        self.reorder_of = (lambda row: row) if self.reorder is None else _getter(
            reorder
        )

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        reorder = "identity" if self.reorder is None else str(self.reorder)
        return f"Union reorderR={reorder}"

    def rows(self, db: Database) -> "Iterable[Row]":
        merged = set(self.left.rows(db))
        reorder_of = self.reorder_of
        merged.update(reorder_of(row) for row in self.right.rows(db))
        return merged

    def annotated(self, db, intern, minimize) -> Dict[Row, MaskWitnesses]:
        left_table = self.left.annotated(db, intern, minimize)
        right_table = self.right.annotated(db, intern, minimize)
        reorder_of = self.reorder_of
        merged: Dict[Row, Set[int]] = {
            row: set(wits) for row, wits in left_table.items()
        }
        merged_get = merged.get
        for row, wits in right_table.items():
            image = reorder_of(row)
            masks = merged_get(image)
            if masks is None:
                merged[image] = set(wits)
            else:
                masks.update(wits)
        return {row: minimize(masks) for row, masks in merged.items()}

    def where(self, db, make_location):
        left_table = self.left.where(db, make_location)
        right_table = self.right.where(db, make_location)
        reorder = self.reorder
        reorder_of = self.reorder_of
        merged: "Dict[Row, List[Set[object]]]" = {
            row: [set(s) for s in sets] for row, sets in left_table.items()
        }
        merged_get = merged.get
        for row, sets in right_table.items():
            image = reorder_of(row)
            if reorder is not None:
                sets = [sets[p] for p in reorder]
            existing = merged_get(image)
            if existing is None:
                merged[image] = [set(s) for s in sets]
            else:
                for position, sources in enumerate(sets):
                    existing[position] |= sources
        return merged


class RenameOp(PlanNode):
    """Renaming: schema relabelled at compile, rows pass through untouched."""

    __slots__ = ("child", "mapping")

    def __init__(self, child: PlanNode, mapping: Dict[str, str]):
        self.child = child
        self.mapping = dict(mapping)
        self.schema = child.schema.rename(self.mapping)  # SchemaError if bad

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        pairs = ", ".join(f"{old}->{new}" for old, new in sorted(self.mapping.items()))
        return f"Rename [{pairs}]"

    def rows(self, db: Database) -> "Iterable[Row]":
        return self.child.rows(db)

    def annotated(self, db, intern, minimize) -> Dict[Row, MaskWitnesses]:
        return self.child.annotated(db, intern, minimize)

    def where(self, db, make_location):
        # Location sets are positional; renaming only relabels the schema.
        return self.child.where(db, make_location)


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------

class CompiledPlan:
    """A compiled physical plan: one operator tree, three evaluators.

    Immutable once built; safe to share across hypothetical databases as
    long as the base relation schemas match the catalog the plan was
    compiled against (scans verify this and raise
    :class:`EvaluationError` on a stale plan).
    """

    __slots__ = (
        "query",
        "root",
        "schema",
        "source_names",
        "logical",
        "optimizer_level",
        "rewrites",
    )

    def __init__(
        self,
        query: Query,
        root: PlanNode,
        logical: "Query | None" = None,
        optimizer_level: int = 0,
        rewrites: Tuple[str, ...] = (),
    ):
        self.query = query
        self.root = root
        self.schema = root.schema
        self.source_names: Tuple[str, ...] = tuple(sorted(query.relation_names()))
        #: The logical tree the physical plan was compiled from: the input
        #: query at level 0, the rewritten tree otherwise.
        self.logical: Query = query if logical is None else logical
        self.optimizer_level = optimizer_level
        #: Names of the optimizer rules that fired, in order.
        self.rewrites = rewrites

    # -- plain set semantics ------------------------------------------
    def rows(self, db: Database) -> FrozenSet[Row]:
        """The view's rows over ``db`` under set semantics."""
        return frozenset(self.root.rows(db))

    def relation(self, db: Database, name: str = DEFAULT_VIEW_NAME) -> Relation:
        """The view over ``db`` as a named :class:`Relation`."""
        # Operator output rows come from validated base relations, so the
        # trusted constructor skips per-row re-validation.
        return Relation._trusted(name, self.schema, frozenset(self.root.rows(db)))

    def rows_columnar(self, store) -> FrozenSet[Row]:
        """Like :meth:`rows`, executed over a ColumnStore of the database.

        Answer-identical to ``rows(db)`` for the store's database, on the
        vectorized numpy kernels.
        """
        # Local import: plan.py must not import repro.columnar at module
        # level (the columnar kernels import this module).
        from repro.columnar.kernels import columnar_rows

        return columnar_rows(self, store)

    def annotated_table_columnar(self, store, index):
        """The annotated evaluation over a ColumnStore as a CSR table.

        Returns a :class:`repro.provenance.witness_table.WitnessTable` —
        the array form the bitset kernel consumes directly; its
        ``to_masks()`` view equals :meth:`annotated_rows` under a shared
        ``index``.
        """
        from repro.columnar.kernels import columnar_annotated_table

        return columnar_annotated_table(self, store, index)

    # -- witness-annotated semantics ----------------------------------
    def annotated_rows(self, db: Database, index) -> Dict[Row, MaskWitnesses]:
        """row → minimal witness bitmasks over ``index`` (a SourceIndex).

        This is the engine under
        :func:`repro.provenance.bitset.bitset_why_provenance`; masks index
        source tuples through ``index.intern``.
        """
        # Local import: plan.py must not import repro.provenance at module
        # level (the provenance cache imports compile_plan).
        from repro.provenance.bitset import minimize_masks

        return self.root.annotated(db, index.intern, minimize_masks)

    # -- where-annotated semantics ------------------------------------
    def where_rows(self, db: Database):
        """(row, attribute) → source locations, the backward image of §3.

        This is the engine under
        :func:`repro.provenance.where.where_provenance`.
        """
        from repro.provenance.locations import Location  # see annotated_rows

        table = self.root.where(db, Location)
        attributes = self.schema.attributes
        return {
            (row, attribute): frozenset(sets[position])
            for row, sets in table.items()
            for position, attribute in enumerate(attributes)
        }

    # -- introspection ------------------------------------------------
    def explain(self) -> str:
        """The physical plan as an indented tree of operator descriptions."""
        # Local import: render imports this module at load time.
        from repro.algebra.render import render_plan

        return render_plan(self)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(schema={list(self.schema.attributes)!r}, "
            f"sources={list(self.source_names)!r})"
        )


def compile_plan(
    query: Query,
    catalog: Mapping[str, Schema],
    optimizer_level: int = 0,
    stats: "object | None" = None,
) -> CompiledPlan:
    """Compile ``query`` against ``catalog`` into a :class:`CompiledPlan`.

    This is a **staged pipeline**:

    1. *validation / baseline physical planning* — the query is compiled
       exactly as written.  All static validation happens here, once:
       unknown base relations raise :class:`EvaluationError` (matching the
       interpreter's runtime lookup), incompatible unions raise
       :class:`EvaluationError` with the historical message, and
       predicate/projection/rename schema problems raise
       :class:`SchemaError`.  Children compile before their parent
       validates, so error precedence matches the old bottom-up
       interpreters — at every optimizer level.
    2. *logical rewriting* (``optimizer_level >= 1``) — the rule pipeline
       of :mod:`repro.algebra.optimizer` (selection pushdown, greedy join
       reordering driven by ``stats``, projection pruning) rewrites the
       validated tree.
    3. *physical planning with fusion* — the rewritten tree is compiled
       with Filter/Project fusion into :class:`ScanOp` (residual
       predicates and column masks).

    ``stats`` is an optional :class:`repro.algebra.stats.TableStatistics`;
    without it the optimizer falls back to uniform default cardinalities
    (pushdown and pruning still apply; join reordering degrades to
    avoiding cross products).  Level 0 is byte-for-byte the historical
    single-shot compiler.
    """
    if optimizer_level <= 0:
        return CompiledPlan(query, _compile(query, catalog))
    _validate(query, catalog)  # same errors, same order, no throwaway tree
    result = optimize(query, catalog, stats=stats, level=optimizer_level)
    return CompiledPlan(
        query,
        _compile(result.query, catalog, fuse=True),
        logical=result.query,
        optimizer_level=optimizer_level,
        rewrites=result.applied,
    )


def _validate(query: Query, catalog: Mapping[str, Schema]) -> Schema:
    """Validate ``query`` bottom-up with :func:`_compile`'s exact errors.

    Mirrors the checks the physical compiler performs — same exception
    types, messages, and child-before-parent precedence — without
    building the operator tree the optimized path would immediately
    discard.
    """
    if isinstance(query, RelationRef):
        try:
            return catalog[query.name]
        except KeyError:
            raise EvaluationError(
                f"catalog has no relation named {query.name!r}; "
                f"known relations: {sorted(catalog)}"
            ) from None

    if isinstance(query, Select):
        schema = _validate(query.child, catalog)
        bind_predicate(query.predicate, schema)  # SchemaError
        return schema

    if isinstance(query, Project):
        return _validate(query.child, catalog).project(query.attributes)

    if isinstance(query, Join):
        left = _validate(query.left, catalog)
        return left.join(_validate(query.right, catalog))

    if isinstance(query, Union):
        left = _validate(query.left, catalog)
        right = _validate(query.right, catalog)
        if not left.is_union_compatible(right):
            raise EvaluationError(
                f"union of incompatible schemas {left.attributes} "
                f"and {right.attributes}"
            )
        return left

    if isinstance(query, Rename):
        return _validate(query.child, catalog).rename(query.mapping_dict)

    raise EvaluationError(f"unknown query node {query!r}")


def _compile(
    query: Query, catalog: Mapping[str, Schema], fuse: bool = False
) -> PlanNode:
    if isinstance(query, RelationRef):
        try:
            schema = catalog[query.name]
        except KeyError:
            raise EvaluationError(
                f"catalog has no relation named {query.name!r}; "
                f"known relations: {sorted(catalog)}"
            ) from None
        return ScanOp(query.name, schema)

    if isinstance(query, Select):
        child = _compile(query.child, catalog, fuse)
        if fuse and isinstance(child, ScanOp):
            # Validate against the visible schema first (same SchemaError a
            # FilterOp would raise), then bind to the base row.
            query.predicate.validate(child.schema)
            return child.fuse_filter(query.predicate)
        test = bind_predicate(query.predicate, child.schema)  # SchemaError
        return FilterOp(child, query.predicate, test)

    if isinstance(query, Project):
        child = _compile(query.child, catalog, fuse)
        if fuse and isinstance(child, ScanOp):
            return child.fuse_project(tuple(query.attributes))
        return ProjectOp(child, query.attributes)

    if isinstance(query, Join):
        return HashJoinOp(
            _compile(query.left, catalog, fuse),
            _compile(query.right, catalog, fuse),
        )

    if isinstance(query, Union):
        return UnionOp(
            _compile(query.left, catalog, fuse),
            _compile(query.right, catalog, fuse),
        )

    if isinstance(query, Rename):
        return RenameOp(_compile(query.child, catalog, fuse), query.mapping_dict)

    raise EvaluationError(f"unknown query node {query!r}")
