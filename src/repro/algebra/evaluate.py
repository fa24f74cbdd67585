"""Set-semantics evaluation of SPJRU queries.

:func:`evaluate` runs a :class:`~repro.algebra.ast.Query` against a
:class:`~repro.algebra.relation.Database` and returns the view as a
:class:`~repro.algebra.relation.Relation`.  The semantics are the textbook
ones:

* selection filters rows by the predicate;
* projection keeps the named attributes and collapses duplicates (sets);
* natural join hash-joins on the shared attributes;
* union canonicalizes the right operand's attribute order to the left's;
* renaming relabels the schema without touching rows.

The public entry points are thin fronts over **compiled physical plans**
(:mod:`repro.algebra.plan`): the query is compiled once per (query, schema
catalog) — schema resolution, predicate binding, column positions, join keys
and union reorders all happen at compile time — and the plan is shared
through :func:`repro.provenance.cache.cached_plan`, so the deletion solvers'
thousands of re-evaluations against hypothetical databases pay only the
per-row work.

Which executor runs the plan is fixed per platform: the tuple ``PlanNode``
executor here, and the numpy columnar kernels (:mod:`repro.columnar`) when
the serving engine holds a column store.  The seed recursive interpreter,
the independent oracle both are tested against, lives in
:mod:`repro.oracle`, which only tests and benchmarks import.
"""

from __future__ import annotations

from typing import Tuple

from repro.algebra.ast import Query
from repro.algebra.plan import DEFAULT_VIEW_NAME
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.schema import Schema

__all__ = ["evaluate", "output_schema", "view_rows"]

#: Lazily bound plan supplier (the provenance cache imports this module, so
#: the import runs at first evaluation instead of module load).
_cached_plan = None


def _shared_plan(query: Query, db: Database):
    """The compiled plan of ``query`` over ``db``, via the shared cache."""
    global _cached_plan
    if _cached_plan is None:
        from repro.provenance.cache import cached_plan

        _cached_plan = cached_plan
    return _cached_plan(query, db)


def output_schema(query: Query, db: Database) -> Schema:
    """Static result schema of ``query`` over ``db``'s catalog."""
    catalog = {name: db[name].schema for name in db}
    return query.output_schema(catalog)


def evaluate(query: Query, db: Database, name: str = DEFAULT_VIEW_NAME) -> Relation:
    """Evaluate ``query`` against ``db``; return the view named ``name``.

    Raises :class:`EvaluationError` for references to missing relations and
    :class:`SchemaError` for ill-typed queries.  Both are raised by plan
    compilation, before any data is touched.
    """
    plan = _shared_plan(query, db)
    return plan.relation(db, name)


def view_rows(query: Query, db: Database) -> frozenset:
    """Evaluate ``query`` and return just the row set.

    This is the hot path for the exact solvers, which compare row sets of the
    view before and after hypothetical deletions and do not need a full
    :class:`Relation` object.
    """
    return _shared_plan(query, db).rows(db)


def join_components(
    schema_left: Schema, schema_right: Schema, row: Row
) -> Tuple[Row, Row]:
    """Split a joined row back into its left and right components.

    For a natural join, an output row determines both join operands uniquely:
    the left component is the row restricted to the left schema and the right
    component the row restricted to the right schema.  Provenance and
    annotation propagation both rely on this fact (the paper's join rule is
    stated via ``t.R1`` and ``t.R2``).
    """
    out_schema = schema_left.join(schema_right)
    left = tuple(row[out_schema.index_of(a)] for a in schema_left.attributes)
    right = tuple(row[out_schema.index_of(a)] for a in schema_right.attributes)
    return left, right
