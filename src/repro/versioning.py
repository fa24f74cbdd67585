"""Versioned databases: the write path's snapshot, epoch, and deltas.

The library's :class:`~repro.algebra.relation.Database` stays immutable —
every cache in the system is identity-keyed on the snapshot object, and the
deletion solvers rely on cheap structural sharing.  What the write path
adds is a *versioned handle* over a succession of snapshots:

* :class:`Delta` — one applied write, *normalized to its net effect*:
  deleting an absent row or re-inserting a present one is a no-op under
  set semantics, and a row deleted and re-inserted in the same call never
  left the database.  Downstream incremental maintenance (witness-table
  patching, the columnar store) consumes exactly these net sets.
* :class:`VersionedDatabase` — the handle: the current snapshot and its
  epoch, the number of effective deltas applied so far.

Thread safety: mutation is guarded by a lock; readers grab the immutable
snapshot reference and work off it unversioned, exactly as before.
"""

from __future__ import annotations

import threading
from typing import Iterable, Tuple

from repro.errors import EvaluationError
from repro.algebra.relation import Database, Row

__all__ = ["Delta", "VersionedDatabase"]

#: One source tuple on the write path: (relation name, row value).
SourcePair = Tuple[str, Row]


class Delta:
    """One applied write, normalized to its net effect.

    ``deletions`` are pairs that were present before and are absent after;
    ``inserts`` are pairs absent before and present after.  Both are
    sorted tuples, so a delta is a deterministic value.  ``epoch`` is the
    epoch the database reached *by applying* this delta.
    """

    __slots__ = ("epoch", "deletions", "inserts")

    def __init__(
        self,
        epoch: int,
        deletions: Iterable[SourcePair],
        inserts: Iterable[SourcePair],
    ):
        self.epoch = int(epoch)
        self.deletions: Tuple[SourcePair, ...] = tuple(
            sorted(deletions, key=repr)
        )
        self.inserts: Tuple[SourcePair, ...] = tuple(sorted(inserts, key=repr))

    def __bool__(self) -> bool:
        return bool(self.deletions or self.inserts)

    def touched_relations(self) -> Tuple[str, ...]:
        """Sorted names of the relations this delta changed."""
        return tuple(
            sorted(
                {name for name, _ in self.deletions}
                | {name for name, _ in self.inserts}
            )
        )

    def __repr__(self) -> str:
        return (
            f"Delta(epoch={self.epoch}, -{len(self.deletions)}, "
            f"+{len(self.inserts)})"
        )


def _normalize_pairs(
    pairs: Iterable[SourcePair], db: Database, verb: str
) -> "set[SourcePair]":
    """Freeze ``(name, row)`` pairs, rejecting unknown relation names."""
    out: "set[SourcePair]" = set()
    for name, row in pairs:
        if name not in db:
            raise EvaluationError(
                f"cannot {verb} unknown relation {name!r}; "
                f"known relations: {list(db.names())}"
            )
        out.add((name, tuple(row)))
    return out


class VersionedDatabase:
    """A mutable handle over a succession of immutable database snapshots."""

    __slots__ = ("_db", "_epoch", "_lock")

    def __init__(self, db: Database):
        if not isinstance(db, Database):
            raise EvaluationError(f"expected a Database, got {db!r}")
        self._db = db
        self._epoch = 0
        self._lock = threading.Lock()

    @property
    def db(self) -> Database:
        """The current immutable snapshot."""
        return self._db

    @property
    def epoch(self) -> int:
        """How many effective deltas have been applied."""
        return self._epoch

    def apply_delta(
        self,
        deletions: Iterable[SourcePair] = (),
        inserts: Iterable[SourcePair] = (),
    ) -> Delta:
        """Apply a write; the normalized :class:`Delta` that took effect.

        Validation happens before any state moves: an unknown relation
        name raises :class:`~repro.errors.EvaluationError` and leaves the
        handle untouched.  A write whose net effect is empty returns a
        falsy delta and does **not** bump the epoch — nothing changed, so
        nothing downstream needs invalidating.
        """
        with self._lock:
            db = self._db
            del_pairs = _normalize_pairs(deletions, db, "delete from")
            ins_pairs = _normalize_pairs(inserts, db, "insert into")
            # Arity/hashability of genuinely new rows is checked by
            # Relation.insert_rows below, before any state moves.
            removed = {
                (name, row) for name, row in del_pairs if row in db[name].rows
            }
            # Delete-then-insert semantics: a pair in both lists stays
            # present, so only rows absent *before* are net inserts.
            removed -= ins_pairs
            added = {
                (name, row)
                for name, row in ins_pairs
                if row not in db[name].rows
            }
            if not removed and not added:
                return Delta(self._epoch, (), ())
            self._db = db.apply(removed, added)
            self._epoch += 1
            return Delta(self._epoch, removed, added)

    def __repr__(self) -> str:
        return f"VersionedDatabase(epoch={self._epoch}, {self._db!r})"
