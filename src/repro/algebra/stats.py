"""Table statistics and cardinality estimation for the plan optimizer.

The rule-based logical rewriter (:mod:`repro.algebra.optimizer`) needs two
things the catalog alone cannot provide: how large each base relation is,
and how selective a predicate or join key is likely to be.  This module
computes both from a :class:`~repro.algebra.relation.Database`:

* :class:`RelationStats` — exact row count and per-column distinct counts of
  one relation (cheap: one pass over the rows);
* :class:`TableStatistics` — the catalog-wide collection, restrictable to
  the relations one query touches;
* :func:`estimate_query` — the classical System-R style cardinality model
  over the SPJRU algebra: equality selectivity ``1/distinct``, join
  cardinality ``|L|·|R| / ∏ max(dL(a), dR(a))`` over the shared attributes,
  projection capped by the product of the kept columns' distinct counts.

Estimates are *heuristics*, used only to rank alternative plans (join
orders); correctness never depends on them — the soundness property tests
compare optimized and unoptimized plans row-for-row and mask-for-mask.

Because optimized plans depend on cardinalities, the plan memo
(:mod:`repro.provenance.cache`) must not serve a plan optimized against a
grossly different database.  :func:`stats_version` provides the invalidation
key: per-relation row counts bucketed by powers of two, so the thousands of
hypothetical databases the deletion solvers derive with
``Database.delete`` (which change counts by a handful of rows) share one
compiled plan, while an order-of-magnitude change recompiles.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

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
    Comparison,
    Constant,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import Schema

__all__ = [
    "RelationStats",
    "TableStatistics",
    "Estimate",
    "estimate_query",
    "selectivity",
    "stats_version",
]

#: Assumed row count for relations the statistics have never seen.
DEFAULT_ROWS = 1000

#: Assumed distinct count for columns the statistics have never seen.
DEFAULT_DISTINCT = 10

#: Selectivity assumed for range comparisons (<, <=, >, >=) and unknown
#: predicate shapes — the textbook 1/3.
RANGE_SELECTIVITY = 1.0 / 3.0


class RelationStats:
    """Row count and per-column distinct counts of one relation."""

    __slots__ = ("rows", "distinct")

    def __init__(self, rows: int, distinct: Mapping[str, int]):
        self.rows = int(rows)
        self.distinct: Dict[str, int] = {a: int(d) for a, d in distinct.items()}

    @classmethod
    def from_relation(cls, relation: Relation) -> "RelationStats":
        """Exact statistics from one pass over the relation's rows."""
        attrs = relation.schema.attributes
        columns: Tuple[set, ...] = tuple(set() for _ in attrs)
        for row in relation.rows:
            for column, value in zip(columns, row):
                column.add(value)
        return cls(
            len(relation), {a: len(c) for a, c in zip(attrs, columns)}
        )

    def distinct_of(self, attribute: str) -> int:
        """Distinct count of ``attribute`` (≥ 1; default when unknown)."""
        d = self.distinct.get(attribute, DEFAULT_DISTINCT)
        return max(1, min(d, max(self.rows, 1)))

    def __repr__(self) -> str:
        return f"RelationStats(rows={self.rows}, distinct={self.distinct!r})"


class TableStatistics:
    """Per-relation statistics for the relations a query may touch.

    Missing relations fall back to :data:`DEFAULT_ROWS` /
    :data:`DEFAULT_DISTINCT`, so the optimizer degrades to uniform
    assumptions instead of failing when no statistics are available.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Mapping[str, RelationStats] = ()):
        self._relations: Dict[str, RelationStats] = dict(relations or {})

    @classmethod
    def from_database(
        cls, db: Database, names: Optional[Iterable[str]] = None
    ) -> "TableStatistics":
        """Collect statistics for ``names`` (default: every relation)."""
        wanted = db.names() if names is None else tuple(names)
        return cls(
            {
                name: RelationStats.from_relation(db[name])
                for name in wanted
                if name in db
            }
        )

    def relation(self, name: str) -> RelationStats:
        """Statistics for ``name`` (a default object when unknown)."""
        stats = self._relations.get(name)
        if stats is None:
            return RelationStats(DEFAULT_ROWS, {})
        return stats

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        return f"TableStatistics({sorted(self._relations)!r})"


def stats_version(db: Database, names: Iterable[str]) -> Tuple:
    """The statistics invalidation key for ``names`` over ``db``.

    Row counts are bucketed by ``int.bit_length`` (powers of two): deleting
    a handful of tuples — the deletion solvers' hypothetical databases —
    keeps the bucket, so those databases share one optimized plan, while a
    database whose cardinalities changed by ~2× or more gets a fresh
    compile.  Relations missing from the database contribute ``None`` (the
    compile will fail with the historical unknown-relation error anyway).
    """
    return tuple(
        (name, len(db[name]).bit_length() if name in db else None)
        for name in names
    )


# ----------------------------------------------------------------------
# Cardinality estimation
# ----------------------------------------------------------------------

class Estimate:
    """Estimated output of a query node: row count + per-attribute distincts."""

    __slots__ = ("rows", "distinct")

    def __init__(self, rows: float, distinct: Mapping[str, float]):
        self.rows = max(0.0, float(rows))
        cap = max(1.0, self.rows)
        self.distinct: Dict[str, float] = {
            a: max(1.0, min(float(d), cap)) for a, d in distinct.items()
        }

    def distinct_of(self, attribute: str) -> float:
        return self.distinct.get(attribute, float(DEFAULT_DISTINCT))

    def __repr__(self) -> str:
        return f"Estimate(rows={self.rows:.1f})"


def selectivity(predicate: Predicate, estimate: Estimate) -> float:
    """Estimated fraction of rows satisfying ``predicate``.

    The classical model: equality against a constant is ``1/distinct``,
    attribute-attribute equality ``1/max(d1, d2)``, ranges 1/3, with
    independence for conjunction and inclusion-exclusion for disjunction.
    """
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(predicate, estimate)
    if isinstance(predicate, And):
        return selectivity(predicate.left, estimate) * selectivity(
            predicate.right, estimate
        )
    if isinstance(predicate, Or):
        left = selectivity(predicate.left, estimate)
        right = selectivity(predicate.right, estimate)
        return min(1.0, left + right - left * right)
    if isinstance(predicate, Not):
        return 1.0 - selectivity(predicate.child, estimate)
    return RANGE_SELECTIVITY


def _comparison_selectivity(comparison: Comparison, estimate: Estimate) -> float:
    left, right = comparison.left, comparison.right
    if comparison.op in ("<", "<=", ">", ">="):
        return RANGE_SELECTIVITY
    if isinstance(left, AttributeRef) and isinstance(right, Constant):
        eq = 1.0 / estimate.distinct_of(left.attribute)
    elif isinstance(left, Constant) and isinstance(right, AttributeRef):
        eq = 1.0 / estimate.distinct_of(right.attribute)
    elif isinstance(left, AttributeRef) and isinstance(right, AttributeRef):
        eq = 1.0 / max(
            estimate.distinct_of(left.attribute),
            estimate.distinct_of(right.attribute),
        )
    elif isinstance(left, Constant) and isinstance(right, Constant):
        eq = 1.0 if left.literal == right.literal else 0.0
    else:
        return RANGE_SELECTIVITY
    if comparison.op == "=":
        return min(1.0, eq)
    if comparison.op == "!=":
        return max(0.0, 1.0 - eq)
    return RANGE_SELECTIVITY  # pragma: no cover - ops are exhaustive above


def estimate_query(
    query: Query, catalog: Mapping[str, Schema], stats: TableStatistics
) -> Estimate:
    """Estimated cardinality (and distincts) of ``query`` over ``catalog``.

    The query must be well-typed over the catalog; schema errors propagate.
    """
    if isinstance(query, RelationRef):
        relation = stats.relation(query.name)
        schema = query.output_schema(catalog)
        return Estimate(
            max(relation.rows, 0),
            {a: relation.distinct_of(a) for a in schema.attributes},
        )

    if isinstance(query, Select):
        child = estimate_query(query.child, catalog, stats)
        fraction = min(1.0, max(0.0, selectivity(query.predicate, child)))
        return Estimate(child.rows * fraction, child.distinct)

    if isinstance(query, Project):
        child = estimate_query(query.child, catalog, stats)
        ceiling = 1.0
        for attribute in query.attributes:
            ceiling *= child.distinct_of(attribute)
            if ceiling >= child.rows:
                ceiling = child.rows
                break
        return Estimate(
            min(child.rows, max(ceiling, 1.0 if child.rows >= 1 else 0.0)),
            {a: child.distinct_of(a) for a in query.attributes},
        )

    if isinstance(query, Join):
        left = estimate_query(query.left, catalog, stats)
        right = estimate_query(query.right, catalog, stats)
        left_schema = query.left.output_schema(catalog)
        right_schema = query.right.output_schema(catalog)
        shared = left_schema.common(right_schema)
        rows = left.rows * right.rows
        for attribute in shared:
            rows /= max(
                left.distinct_of(attribute), right.distinct_of(attribute)
            )
        distinct: Dict[str, float] = dict(left.distinct)
        for attribute, d in right.distinct.items():
            distinct[attribute] = (
                min(distinct[attribute], d) if attribute in distinct else d
            )
        return Estimate(rows, distinct)

    if isinstance(query, Union):
        left = estimate_query(query.left, catalog, stats)
        right = estimate_query(query.right, catalog, stats)
        distinct = {
            a: left.distinct_of(a) + right.distinct_of(a)
            for a in query.left.output_schema(catalog).attributes
        }
        return Estimate(left.rows + right.rows, distinct)

    if isinstance(query, Rename):
        child = estimate_query(query.child, catalog, stats)
        mapping = query.mapping_dict
        return Estimate(
            child.rows,
            {mapping.get(a, a): d for a, d in child.distinct.items()},
        )

    # Unknown node: assume nothing beyond the default.
    return Estimate(DEFAULT_ROWS, {})
