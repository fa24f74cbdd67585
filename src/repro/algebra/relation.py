"""Relations and databases under set semantics.

The paper's model is the classical set-semantics relational model: a relation
is a finite set of tuples over a schema, and a database is a finite map from
relation names to relations.  Both classes here are immutable; update
operations (``delete_tuples`` etc.) return new objects.  Immutability matters
because the deletion-propagation algorithms explore many hypothetical source
databases, and sharing the underlying ``frozenset`` objects keeps that cheap.

A *tuple* is a plain Python tuple of hashable atomic values, aligned with the
relation's schema order.  Tuple identity is value identity — the paper has no
tuple ids, and a *location* ``(R, t, A)`` identifies a field by the relation
name, the tuple's value, and an attribute name.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Tuple,
)

from repro.errors import EvaluationError, SchemaError
from repro.algebra.schema import Schema

__all__ = ["Relation", "Database", "Row", "row_sort_key"]

#: A database row: a tuple of atomic (hashable) values.
Row = Tuple[object, ...]


def _freeze_rows(schema: Schema, rows: Iterable[Sequence[object]]) -> FrozenSet[Row]:
    """Validate and freeze an iterable of rows against ``schema``."""
    frozen = set()
    arity = schema.arity
    for row in rows:
        t = tuple(row)
        if len(t) != arity:
            raise SchemaError(
                f"row {t!r} has arity {len(t)}, schema expects {arity}"
            )
        for value in t:
            try:
                hash(value)
            except TypeError:
                raise SchemaError(
                    f"row {t!r} contains unhashable value {value!r}"
                ) from None
        frozen.add(t)
    return frozenset(frozen)


class Relation:
    """An immutable named relation: a schema plus a set of rows.

    >>> r = Relation("R", ["A", "B"], [("a", 1), ("b", 2)])
    >>> len(r)
    2
    >>> ("a", 1) in r
    True
    >>> r.value_of(("a", 1), "B")
    1
    """

    __slots__ = ("_name", "_schema", "_rows")

    def __init__(
        self,
        name: str,
        schema: "Schema | Sequence[str]",
        rows: Iterable[Sequence[object]] = (),
    ):
        if not isinstance(name, str) or not name:
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self._name = name
        self._schema = schema
        self._rows = _freeze_rows(schema, rows)

    @classmethod
    def _trusted(cls, name: str, schema: Schema, rows: FrozenSet[Row]) -> "Relation":
        """Internal constructor for pre-validated rows.

        ``rows`` must already be a frozenset of hashable tuples matching the
        schema's arity — operator outputs, snapshot restores, and columnar
        decodes qualify because their rows come from relations that were
        validated on public construction.  Skipping ``_freeze_rows`` here
        keeps those hot paths from re-validating every row.
        """
        relation = cls.__new__(cls)
        relation._name = name
        relation._schema = schema
        relation._rows = rows
        return relation

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The relation's name."""
        return self._name

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def rows(self) -> FrozenSet[Row]:
        """The set of rows, as a frozenset of value tuples."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._name == other._name
            and self._schema == other._schema
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._name, self._schema, self._rows))

    def __repr__(self) -> str:
        return (
            f"Relation({self._name!r}, {list(self._schema.attributes)!r}, "
            f"{len(self._rows)} rows)"
        )

    def value_of(self, row: Row, attribute: str) -> object:
        """The value of ``attribute`` in ``row``.

        ``row`` need not be a member of the relation (the evaluator uses this
        on candidate rows), but must match the schema's arity.
        """
        idx = self._schema.index_of(attribute)
        if len(row) != self._schema.arity:
            raise SchemaError(
                f"row {row!r} does not match schema {self._schema.attributes}"
            )
        return row[idx]

    def sorted_rows(self) -> Tuple[Row, ...]:
        """Rows in a deterministic order (sorted by repr, then value).

        Used by renderers and benchmarks so output is reproducible across
        runs; hash randomization makes raw frozenset order unstable.
        """
        return tuple(sorted(self._rows, key=row_sort_key))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_rows(self, rows: Iterable[Sequence[object]]) -> "Relation":
        """A copy of this relation with a different row set."""
        return Relation(self._name, self._schema, rows)

    def delete_rows(self, rows: Iterable[Row]) -> "Relation":
        """A copy of this relation with ``rows`` removed.

        Rows not present are ignored (deletion is idempotent).
        """
        doomed = {tuple(r) for r in rows}
        return Relation._trusted(self._name, self._schema, self._rows - doomed)

    def insert_rows(self, rows: Iterable[Sequence[object]]) -> "Relation":
        """A copy of this relation with ``rows`` added."""
        extra = _freeze_rows(self._schema, rows)
        return Relation._trusted(self._name, self._schema, self._rows | extra)

    def renamed(self, name: str) -> "Relation":
        """A copy of this relation carrying a different name."""
        return Relation._trusted(name, self._schema, self._rows)


def _sort_key(value: object) -> Tuple[str, str]:
    """Total order over heterogeneous atomic values for deterministic output."""
    return (type(value).__name__, repr(value))


def row_sort_key(row: Row) -> Tuple[Tuple[str, str], ...]:
    """The key :meth:`Relation.sorted_rows` orders rows by."""
    return tuple(map(_sort_key, row))


class Database:
    """An immutable map from relation names to relations.

    >>> db = Database([Relation("R", ["A"], [(1,)])])
    >>> db["R"].schema.attributes
    ('A',)
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: "Iterable[Relation] | Mapping[str, Relation]" = ()):
        rels: Dict[str, Relation] = {}
        items: Iterable[Relation]
        if isinstance(relations, Mapping):
            items = relations.values()
        else:
            items = relations
        for rel in items:
            if not isinstance(rel, Relation):
                raise SchemaError(f"expected a Relation, got {rel!r}")
            if rel.name in rels:
                raise SchemaError(f"duplicate relation name {rel.name!r}")
            rels[rel.name] = rel
        self._relations = rels

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise EvaluationError(
                f"database has no relation named {name!r}; "
                f"known relations: {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._relations))

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relations(self) -> Tuple[Relation, ...]:
        """All relations, ordered by name."""
        return tuple(self._relations[n] for n in sorted(self._relations))

    def names(self) -> Tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(sorted(self._relations))

    def total_rows(self) -> int:
        """Total number of rows across all relations (the size ``|S|``)."""
        return sum(len(r) for r in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}({len(self._relations[n])})" for n in sorted(self._relations))
        return f"Database({parts})"

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_relation(self, relation: Relation) -> "Database":
        """A copy of this database with ``relation`` added or replaced."""
        rels = dict(self._relations)
        rels[relation.name] = relation
        return Database(rels)

    def delete(self, deletions: "Iterable[tuple[str, Row]]") -> "Database":
        """A copy of this database with the given ``(relation, row)`` pairs removed.

        This is the source-update operation ``S \\ T`` of the paper: ``T`` is a
        set of source tuples, here identified by (relation name, row value).
        Unknown relation names raise :class:`EvaluationError`; missing rows are
        ignored.
        """
        by_rel: Dict[str, set] = {}
        for rel_name, row in deletions:
            if rel_name not in self._relations:
                raise EvaluationError(
                    f"cannot delete from unknown relation {rel_name!r}"
                )
            by_rel.setdefault(rel_name, set()).add(tuple(row))
        rels = dict(self._relations)
        for rel_name, rows in by_rel.items():
            rels[rel_name] = rels[rel_name].delete_rows(rows)
        return Database(rels)

    def insert(self, insertions: "Iterable[tuple[str, Row]]") -> "Database":
        """A copy of this database with the given ``(relation, row)`` pairs added.

        The mirror of :meth:`delete` for the write path.  Unknown relation
        names raise :class:`EvaluationError` (inserting cannot invent a
        schema); rows are validated against the target relation's schema and
        rows already present are ignored (set semantics).
        """
        by_rel: Dict[str, list] = {}
        for rel_name, row in insertions:
            if rel_name not in self._relations:
                raise EvaluationError(
                    f"cannot insert into unknown relation {rel_name!r}"
                )
            by_rel.setdefault(rel_name, []).append(tuple(row))
        rels = dict(self._relations)
        for rel_name, rows in by_rel.items():
            rels[rel_name] = rels[rel_name].insert_rows(rows)
        return Database(rels)

    def apply(
        self,
        deletions: "Iterable[tuple[str, Row]]" = (),
        inserts: "Iterable[tuple[str, Row]]" = (),
    ) -> "Database":
        """Delete then insert in one step: ``(S \\ T) ∪ T'``.

        Applying the deletions first means a pair appearing in both lists
        ends up *present* — the write-path convention the versioned delta
        log relies on.
        """
        return self.delete(deletions).insert(inserts)

    def all_source_tuples(self) -> Tuple[Tuple[str, Row], ...]:
        """Every ``(relation name, row)`` pair in the database, sorted.

        This enumerates the candidate deletion universe for the exact solvers.
        """
        out = []
        for name in sorted(self._relations):
            rel = self._relations[name]
            out.extend((name, row) for row in rel.sorted_rows())
        return tuple(out)
