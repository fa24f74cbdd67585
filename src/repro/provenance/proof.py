"""Proof trees: derivations of view tuples, made explicit.

The paper describes why-provenance as "the reason, e.g., a proof tree, for
the existence of a data item in the output".  The witness DNF of
:mod:`repro.provenance.why` compresses all proofs into their leaf sets; this
module materializes the proofs themselves:

* :class:`Fact` — a leaf: a base-relation tuple;
* :class:`Derivation` — an internal node: one operator application with the
  sub-proofs of its inputs;
* :func:`derivations` — enumerate the proof trees of a view tuple (bounded
  by ``limit``; there can be exponentially many);
* :func:`render_proof` — an indented ASCII rendering for humans.

The bridge back to witnesses — every proof tree's leaf set is a witness,
and every *minimal* witness is the leaf set of some proof tree — is checked
by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

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
from repro.algebra.evaluate import evaluate
from repro.algebra.relation import Database, Row
from repro.algebra.schema import Schema
from repro.provenance.locations import SourceTuple

__all__ = ["Fact", "Derivation", "ProofTree", "derivations", "render_proof"]


@dataclass(frozen=True)
class Fact:
    """A proof leaf: tuple ``row`` is in base relation ``relation``."""

    relation: str
    row: Row

    def leaves(self) -> FrozenSet[SourceTuple]:
        """The leaf set (a singleton)."""
        return frozenset({(self.relation, self.row)})

    def __repr__(self) -> str:
        return f"{self.relation}{tuple(self.row)!r}"


@dataclass(frozen=True)
class Derivation:
    """An operator application deriving ``row`` from child proofs.

    ``operator`` is one of ``"select"``, ``"project"``, ``"join"``,
    ``"union"``, ``"rename"``; ``detail`` is a short human-readable
    description of the operator instance.
    """

    operator: str
    detail: str
    row: Row
    children: Tuple["ProofTree", ...]

    def leaves(self) -> FrozenSet[SourceTuple]:
        """All base facts this proof rests on — a witness for ``row``."""
        out: FrozenSet[SourceTuple] = frozenset()
        for child in self.children:
            out |= child.leaves()
        return out

    def __repr__(self) -> str:
        return f"{self.operator}->{tuple(self.row)!r}"


#: A proof tree is a fact or a derivation.
ProofTree = "Fact | Derivation"


def derivations(
    query: Query, db: Database, row: Row, limit: Optional[int] = 100
) -> List["Fact | Derivation"]:
    """All proof trees of ``row`` in ``query(db)``, up to ``limit``.

    Returns an empty list when the row is not in the view.  The enumeration
    is exhaustive when it terminates below the limit; the count of proof
    trees can be exponential (that is Corollary 3.1's point), so the default
    limit is conservative.
    """
    row = tuple(row)
    budget = [limit if limit is not None else float("inf")]
    out: List[Fact | Derivation] = []
    for tree in _derive(query, db, row, {}):
        out.append(tree)
        budget[0] -= 1
        if budget[0] <= 0:
            break
    return out


#: Per-derivation memo of node evaluations, keyed by AST node identity; the
#: query tree keeps every node alive for the duration of the call, so ids
#: are stable.  Without it the recursion re-evaluates shared subtrees once
#: per enumerated child row — exponentially often on nested operators.
_EvalMemo = Dict[int, Tuple[Schema, FrozenSet[Row]]]


def _node_eval(query: Query, db: Database, memo: _EvalMemo):
    """(schema, rows) of a sub-query, through its shared compiled plan."""
    cached = memo.get(id(query))
    if cached is None:
        view = evaluate(query, db)
        cached = (view.schema, view.rows)
        memo[id(query)] = cached
    return cached


def _derive(
    query: Query, db: Database, row: Row, memo: _EvalMemo
) -> Iterator["Fact | Derivation"]:
    if isinstance(query, RelationRef):
        if row in db[query.name]:
            yield Fact(query.name, row)
        return

    if isinstance(query, Select):
        schema, _rows = _node_eval(query.child, db, memo)
        query.predicate.validate(schema)
        if not query.predicate.evaluate(schema, row):
            return
        for child in _derive(query.child, db, row, memo):
            yield Derivation("select", f"σ[{query.predicate!r}]", row, (child,))
        return

    if isinstance(query, Project):
        schema, rows = _node_eval(query.child, db, memo)
        positions = schema.positions(query.attributes)
        for child_row in sorted(set(rows), key=repr):
            if tuple(child_row[i] for i in positions) != row:
                continue
            for child in _derive(query.child, db, child_row, memo):
                yield Derivation(
                    "project", f"Π[{', '.join(query.attributes)}]", row, (child,)
                )
        return

    if isinstance(query, Join):
        left_schema, _ = _node_eval(query.left, db, memo)
        right_schema, _ = _node_eval(query.right, db, memo)
        out_schema = left_schema.join(right_schema)
        left_row = tuple(
            row[out_schema.index_of(a)] for a in left_schema.attributes
        )
        right_row = tuple(
            row[out_schema.index_of(a)] for a in right_schema.attributes
        )
        for left in _derive(query.left, db, left_row, memo):
            for right in _derive(query.right, db, right_row, memo):
                yield Derivation("join", "⋈", row, (left, right))
        return

    if isinstance(query, Union):
        left_schema = query.left.output_schema(
            {name: db[name].schema for name in db}
        )
        right_schema = query.right.output_schema(
            {name: db[name].schema for name in db}
        )
        if not left_schema.is_union_compatible(right_schema):
            raise EvaluationError("union of incompatible schemas")
        yield from (
            Derivation("union", "∪ (left)", row, (child,))
            for child in _derive(query.left, db, row, memo)
        )
        reorder = left_schema.positions(right_schema.attributes)
        right_row = tuple(row[i] for i in reorder)
        yield from (
            Derivation("union", "∪ (right)", row, (child,))
            for child in _derive(query.right, db, right_row, memo)
        )
        return

    if isinstance(query, Rename):
        for child in _derive(query.child, db, row, memo):
            pairs = ", ".join(f"{o}->{n}" for o, n in query.mapping)
            yield Derivation("rename", f"δ[{pairs}]", row, (child,))
        return

    raise EvaluationError(f"unknown query node {query!r}")


def render_proof(tree: "Fact | Derivation", indent: str = "") -> str:
    """Render a proof tree as indented ASCII.

    >>> print(render_proof(Fact("R", (1, 2))))
    R(1, 2)
    """
    if isinstance(tree, Fact):
        values = ", ".join(str(v) for v in tree.row)
        return f"{indent}{tree.relation}({values})"
    values = ", ".join(str(v) for v in tree.row)
    head = f"{indent}{tree.detail} => ({values})"
    parts = [head]
    for child in tree.children:
        parts.append(render_proof(child, indent + "  "))
    return "\n".join(parts)
