"""Reference evaluators: the oracles every executor is checked against.

Production runs one executor per semantics — the numpy columnar kernels
(:mod:`repro.columnar`) when numpy imports, the tuple ``PlanNode``
executor (:mod:`repro.algebra.plan`) otherwise.  This module keeps the two
independent evaluators those executors are tested against:

* :func:`interpret_view_rows` — the seed recursive interpreter of the view
  ``Q(S)``: it re-resolves schemas and positions on every call and shares
  no code with the compiled plans;
* :func:`legacy_witnesses` — the seed frozenset witness-DNF evaluator of
  why-provenance (minimal witnesses as sets of source tuples, kept minimal
  by :func:`minimize_monomials`), sharing no code with the bitmask kernels.

Only tests and benchmarks import this module; nothing under ``src/repro``
does (a guard test walks the package to keep it that way).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import EvaluationError
from repro.algebra.ast import (
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.relation import Database, Row
from repro.algebra.schema import Schema
from repro.provenance.why import Monomial, WitnessSet

__all__ = ["interpret_view_rows", "legacy_witnesses", "minimize_monomials"]


# ----------------------------------------------------------------------
# The view: recursive interpretation
# ----------------------------------------------------------------------

def interpret_view_rows(query: Query, db: Database) -> frozenset:
    """The row set by direct recursive interpretation (no compiled plan)."""
    _, rows = _eval(query, db)
    return frozenset(rows)


def _eval(query: Query, db: Database) -> Tuple[Schema, List[Row]]:
    """Recursive reference interpreter returning (schema, rows)."""
    if isinstance(query, RelationRef):
        rel = db[query.name]
        return rel.schema, list(rel.rows)

    if isinstance(query, Select):
        schema, rows = _eval(query.child, db)
        query.predicate.validate(schema)
        kept = [row for row in rows if query.predicate.evaluate(schema, row)]
        return schema, kept

    if isinstance(query, Project):
        schema, rows = _eval(query.child, db)
        out_schema = schema.project(query.attributes)
        positions = schema.positions(query.attributes)
        projected = {tuple(row[i] for i in positions) for row in rows}
        return out_schema, list(projected)

    if isinstance(query, Join):
        left_schema, left_rows = _eval(query.left, db)
        right_schema, right_rows = _eval(query.right, db)
        return _natural_join(left_schema, left_rows, right_schema, right_rows)

    if isinstance(query, Union):
        left_schema, left_rows = _eval(query.left, db)
        right_schema, right_rows = _eval(query.right, db)
        if not left_schema.is_union_compatible(right_schema):
            raise EvaluationError(
                f"union of incompatible schemas {left_schema.attributes} "
                f"and {right_schema.attributes}"
            )
        reorder = right_schema.positions(left_schema.attributes)
        merged = set(left_rows)
        merged.update(tuple(row[i] for i in reorder) for row in right_rows)
        return left_schema, list(merged)

    if isinstance(query, Rename):
        schema, rows = _eval(query.child, db)
        return schema.rename(query.mapping_dict), rows

    raise EvaluationError(f"unknown query node {query!r}")


def _natural_join(
    left_schema: Schema,
    left_rows: List[Row],
    right_schema: Schema,
    right_rows: List[Row],
) -> Tuple[Schema, List[Row]]:
    """Hash-based natural join.

    Partitions the right rows by their shared-attribute key, then streams the
    left rows.  Degenerates to a cross product when no attributes are shared.
    """
    out_schema = left_schema.join(right_schema)
    shared = left_schema.common(right_schema)
    left_key = left_schema.positions(shared)
    right_key = right_schema.positions(shared)
    right_extra = [
        i for i, a in enumerate(right_schema.attributes) if a not in left_schema
    ]

    buckets: Dict[Tuple[object, ...], List[Row]] = {}
    for row in right_rows:
        key = tuple(row[i] for i in right_key)
        buckets.setdefault(key, []).append(row)

    out: set = set()
    for lrow in left_rows:
        key = tuple(lrow[i] for i in left_key)
        for rrow in buckets.get(key, ()):
            out.add(lrow + tuple(rrow[i] for i in right_extra))
    return out_schema, list(out)


# ----------------------------------------------------------------------
# Why-provenance: frozenset witness DNF
# ----------------------------------------------------------------------

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


def legacy_witnesses(query: Query, db: Database) -> Dict[Row, WitnessSet]:
    """Every view row's minimal witnesses, by the frozenset evaluator."""
    _, table = _witness_eval(query, db)
    return table


def _witness_eval(
    query: Query, db: Database
) -> Tuple[Schema, Dict[Row, WitnessSet]]:
    """Frozenset evaluation: (schema, row → minimal monomials)."""
    if isinstance(query, RelationRef):
        relation = db[query.name]
        table = {
            row: frozenset({frozenset({(query.name, row)})}) for row in relation.rows
        }
        return relation.schema, table

    if isinstance(query, Select):
        schema, table = _witness_eval(query.child, db)
        query.predicate.validate(schema)
        kept = {
            row: wits
            for row, wits in table.items()
            if query.predicate.evaluate(schema, row)
        }
        return schema, kept

    if isinstance(query, Project):
        schema, table = _witness_eval(query.child, db)
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
        left_schema, left_table = _witness_eval(query.left, db)
        right_schema, right_table = _witness_eval(query.right, db)
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
        left_schema, left_table = _witness_eval(query.left, db)
        right_schema, right_table = _witness_eval(query.right, db)
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
        schema, table = _witness_eval(query.child, db)
        return schema.rename(query.mapping_dict), table

    raise EvaluationError(f"unknown query node {query!r}")
