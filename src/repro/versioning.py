"""Versioned databases: the write path's epoch, delta log, and stats.

The library's :class:`~repro.algebra.relation.Database` stays immutable —
every cache in the system is identity-keyed on the snapshot object, and the
deletion solvers rely on cheap structural sharing.  What the write path
adds is a *versioned handle* over a succession of snapshots:

* :class:`DatabaseVersion` — a monotone per-database epoch token.  Every
  applied delta bumps the epoch, so snapshots and caches stamped with
  an epoch can detect staleness instead of silently
  serving stale answers (the accountable-log stance of PAPERS.md).
* :class:`Delta` — one applied write, *normalized to its net effect*:
  deleting an absent row or re-inserting a present one is a no-op under
  set semantics, and a row deleted and re-inserted in the same call never
  left the database.  Downstream incremental maintenance (witness-table
  patching, statistics) consumes exactly these net sets.
* :class:`VersionedDatabase` — the handle: current snapshot + epoch + a
  bounded log of applied deltas + :class:`~repro.algebra.stats.
  MaintainedStatistics` kept current in O(delta) per write.  When a write
  moves a relation's row count across a power-of-two bucket — the
  compiled-plan memo's ``stats_version`` key — the handle notes a version
  bump on the shared provenance cache; most writes don't, which is what
  lets compiled plans survive them.

Thread safety: mutation is guarded by a lock; readers grab the immutable
snapshot reference and work off it unversioned, exactly as before.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.algebra.relation import Database, Row
from repro.algebra.stats import MaintainedStatistics, TableStatistics
from repro.provenance.cache import provenance_cache

__all__ = ["DatabaseVersion", "Delta", "VersionedDatabase", "DEFAULT_LOG_LIMIT"]

#: How many applied deltas the handle's log retains (oldest dropped first).
DEFAULT_LOG_LIMIT = 256

#: One source tuple on the write path: (relation name, row value).
SourcePair = Tuple[str, Row]


class DatabaseVersion:
    """A monotone version token: which database lineage, at which epoch.

    Tokens from the same :class:`VersionedDatabase` are totally ordered by
    epoch; tokens from different handles never compare ordered (a snapshot
    of database A says nothing about database B's history).
    """

    __slots__ = ("name", "epoch")

    def __init__(self, name: str, epoch: int):
        self.name = name
        self.epoch = int(epoch)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseVersion):
            return NotImplemented
        return self.name == other.name and self.epoch == other.epoch

    def __hash__(self) -> int:
        return hash((self.name, self.epoch))

    def __lt__(self, other: "DatabaseVersion") -> bool:
        if not isinstance(other, DatabaseVersion):
            return NotImplemented
        if self.name != other.name:
            raise ValueError(
                f"versions of different databases are unordered: "
                f"{self.name!r} vs {other.name!r}"
            )
        return self.epoch < other.epoch

    def __repr__(self) -> str:
        return f"DatabaseVersion({self.name!r}, epoch={self.epoch})"


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

    __slots__ = ("_name", "_db", "_epoch", "_log", "_log_limit", "_stats", "_lock")

    def __init__(
        self,
        db: Database,
        name: str = "db",
        log_limit: int = DEFAULT_LOG_LIMIT,
    ):
        if not isinstance(db, Database):
            raise EvaluationError(f"expected a Database, got {db!r}")
        if log_limit < 0:
            raise ValueError("log_limit must be non-negative")
        self._name = name
        self._db = db
        self._epoch = 0
        self._log: List[Delta] = []
        self._log_limit = log_limit
        self._stats = MaintainedStatistics(db)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def db(self) -> Database:
        """The current immutable snapshot."""
        return self._db

    @property
    def epoch(self) -> int:
        """How many effective deltas have been applied."""
        return self._epoch

    @property
    def version(self) -> DatabaseVersion:
        """The current version token."""
        return DatabaseVersion(self._name, self._epoch)

    def log(self) -> Tuple[Delta, ...]:
        """The retained applied-delta log, oldest first."""
        with self._lock:
            return tuple(self._log)

    def statistics(self) -> TableStatistics:
        """Maintained statistics, equal to a fresh full collection."""
        return self._stats.snapshot()

    def stats_version(self, names: Iterable[str]) -> Tuple:
        """The plan-memo key tuple, from the maintained counts."""
        return self._stats.version(names)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
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
            new_db = db.apply(removed, added)
            bumped = self._stats.apply_delta(removed, added)
            for _name in bumped:
                provenance_cache.note_version_bump()
            self._epoch += 1
            delta = Delta(self._epoch, removed, added)
            self._db = new_db
            if self._log_limit:
                self._log.append(delta)
                while len(self._log) > self._log_limit:
                    del self._log[0]
            return delta

    def __repr__(self) -> str:
        return (
            f"VersionedDatabase({self._name!r}, epoch={self._epoch}, "
            f"{self._db!r})"
        )
