"""A shared memo for provenance computations and compiled plans.

Every deletion solver, the annotation engine, and the enumeration tooling
start by computing the provenance of the same ``(query, db)`` pair — and the
dispatchers routinely call two or three of them back-to-back on identical
inputs.  This module gives them one shared, bounded, identity-keyed cache so
the annotated evaluation runs once per (query, database) instead of once per
call.

Keying and invalidation rules:

* Keys are *object identities* (``id(query)``, ``id(db)``), not values.
  Both :class:`~repro.algebra.ast.Query` and
  :class:`~repro.algebra.relation.Database` are immutable, so a given object
  can never change meaning — identity keying is sound and costs O(1)
  regardless of database size.
* Each entry keeps strong references to its query and database, so an id is
  never reused while its entry is alive (Python ids are only unique among
  live objects).
* The cache is a bounded LRU: inserting past ``maxsize`` evicts the least
  recently used entry, releasing its references.  Updated databases are
  *new* objects (``Database.delete`` returns a copy), which simply miss;
  the write path (:mod:`repro.service`) also drops a displaced
  snapshot's entries (:meth:`ProvenanceCache.invalidate_database`) so
  they do not pin a dead database until LRU eviction reaches them.
* The hit/miss/eviction/invalidation counters live here, under the lock
  every lookup already takes, and nowhere else; a serving engine exposes
  them through one metrics-registry collector
  (:meth:`ProvenanceCache.stats`).
* All operations are **thread-safe**: a lock guards lookup, insert, and
  the counters, so concurrent readers never tear the stats, and per-key
  *in-flight claims* make a given ``(query, db)`` pair compute/compile at
  most once under races — the first thread claims the key and computes
  **outside** the lock (so a slow cold build never serializes unrelated
  requests, and the compute may freely reenter the cache); racers on the
  same key wait for the claim to resolve and count as hits.

The cache also memoizes **compiled physical plans**
(:func:`repro.algebra.plan.compile_plan`).  A plan depends only on the
query, the *schemas* of the relations it references, and the optimizer
level: the optimizer reads schemas, never rows.  The plan memo therefore
keys on ``(id(query), schema signature, optimizer level)``, so every
snapshot a write produces, and every hypothetical database
``Database.delete`` derives, reuses one compiled plan whatever its row
counts.  Optimized and unoptimized plans for the same query coexist under
distinct keys.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple, TYPE_CHECKING

from repro.algebra.ast import Query
from repro.algebra.optimizer import DEFAULT_OPTIMIZER_LEVEL
from repro.algebra.plan import CompiledPlan, DEFAULT_VIEW_NAME, compile_plan
from repro.algebra.relation import Database

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.provenance.where import WhereProvenance
    from repro.provenance.why import WhyProvenance

__all__ = [
    "ProvenanceCache",
    "provenance_cache",
    "cached_why_provenance",
    "cached_where_provenance",
    "cached_plan",
]

#: (kind, id(query), id(db), view_name)
_Key = Tuple[str, int, int, str]


def _plan_key(query: Query, db: Database, level: int) -> Tuple:
    """``(id(query), schema signature, level)``: the plan-memo key."""
    signature = tuple(
        (name, db[name].schema.attributes if name in db else None)
        for name in sorted(query.relation_names())
    )
    return (id(query), signature, level)


class ProvenanceCache:
    """Bounded identity-keyed LRU memo for provenance objects.

    >>> cache = ProvenanceCache(maxsize=2)
    >>> cache.stats()["hits"], cache.stats()["misses"], cache.stats()["size"]
    (0, 0, 0)
    """

    __slots__ = (
        "_entries",
        "_maxsize",
        "_hits",
        "_misses",
        "_evictions",
        "_plans",
        "_plan_maxsize",
        "_plan_hits",
        "_plan_misses",
        "_plan_evictions",
        "_lock",
        "_inflight",
        "_plan_inflight",
        "_invalidations",
    )

    def __init__(self, maxsize: int = 64, plan_maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        if plan_maxsize < 1:
            raise ValueError("plan_maxsize must be positive")
        #: key -> (query, db, value); query/db kept alive to pin their ids.
        self._entries: "OrderedDict[_Key, Tuple[Query, Database, Any]]" = (
            OrderedDict()
        )
        self._maxsize = maxsize
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        #: Entries dropped because the write path displaced their database.
        self._invalidations = 0
        #: (id(query), schema signature, optimizer level) -> plan;
        #: CompiledPlan.query keeps the query alive, so its id is never
        #: recycled while the entry lives.
        self._plans: "OrderedDict[Tuple[int, Tuple], CompiledPlan]" = (
            OrderedDict()
        )
        self._plan_maxsize = plan_maxsize
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_evictions = 0
        # Reentrant for the bookkeeping paths; computes run *outside* it.
        self._lock = threading.RLock()
        #: key -> (owner thread id, event): claims for in-flight computes,
        #: so racers wait instead of duplicating work — and so the owner
        #: thread itself may reenter the cache mid-compute.
        self._inflight: Dict[_Key, Tuple[int, threading.Event]] = {}
        self._plan_inflight: "Dict[Tuple[int, Tuple], Tuple[int, threading.Event]]" = {}

    def _evict_entries(self) -> None:
        """Drop LRU entries until the entry bound holds."""
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def _claim(self, inflight: Dict, key) -> "threading.Event | None":
        """Under the lock: claim ``key`` for this thread, or return the
        event to wait on.  ``None`` means we own the compute (including
        the reentrant case: this thread already owns it)."""
        holder = inflight.get(key)
        if holder is None:
            inflight[key] = (threading.get_ident(), threading.Event())
            return None
        if holder[0] == threading.get_ident():
            return None  # reentrant compute on our own claim
        return holder[1]

    def _release(self, inflight: Dict, key) -> None:
        """Under the lock: resolve our claim and wake the waiters."""
        holder = inflight.get(key)
        if holder is not None and holder[0] == threading.get_ident():
            del inflight[key]
            holder[1].set()

    def get_or_compute(
        self,
        kind: str,
        query: Query,
        db: Database,
        view_name: str,
        compute: Callable[[], Any],
    ) -> Any:
        """The cached value for ``(kind, query, db, view_name)``, or compute it.

        Under concurrency the first caller claims the key and runs
        ``compute`` *outside* the lock; racing callers wait for the claim
        and take the cached value (counted as hits).  Only the claimant
        counts a miss, so each key computes once however many threads race.
        """
        key = (kind, id(query), id(db), view_name)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    return entry[2]
                event = self._claim(self._inflight, key)
                if event is None:
                    self._misses += 1
                    break
            # Another thread is computing this key: wait off-lock, then
            # re-check (its compute may also have failed — then we claim).
            event.wait()
        try:
            value = compute()
        except BaseException:
            with self._lock:
                self._release(self._inflight, key)
            raise
        with self._lock:
            if key not in self._entries:  # reentrant compute may have won
                self._entries[key] = (query, db, value)
                self._evict_entries()
            self._release(self._inflight, key)
            return value

    def seed(
        self,
        kind: str,
        query: Query,
        db: Database,
        view_name: str,
        value: Any,
    ) -> None:
        """Insert a value computed elsewhere (the write path's patched state).

        Incremental maintenance produces provenance/store objects for a
        *new* database snapshot without going through
        :meth:`get_or_compute`; seeding them here means the next read over
        that snapshot hits instead of rebuilding.  An existing entry for
        the key is replaced.
        """
        key = (kind, id(query), id(db), view_name)
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (query, db, value)
            self._evict_entries()

    def peek(
        self, kind: str, query: Query, db: Database, view_name: str
    ) -> Any:
        """The cached value for the key, or None — never computes.

        Does not touch the hit/miss counters: the write path uses this to
        ask "is there warm state worth patching?", which is not a serving
        request.
        """
        key = (kind, id(query), id(db), view_name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[2]

    def invalidate_database(self, db: Database) -> int:
        """Drop every entry keyed on this database object; how many dropped.

        The versioned write path calls this after swapping a new snapshot
        in: entries for the displaced snapshot can never be requested
        again (all lookups go through the new object's identity), so
        keeping them would pin the dead database in memory.  The plan memo
        is untouched — plans key on schemas, not database identity.  Dropped entries count into ``invalidations``.
        """
        dropped = 0
        with self._lock:
            for key in [k for k, e in self._entries.items() if e[1] is db]:
                del self._entries[key]
                dropped += 1
            self._invalidations += dropped
        return dropped

    def plan_for(
        self,
        query: Query,
        db: Database,
        optimizer_level: "int | None" = None,
    ) -> CompiledPlan:
        """The compiled physical plan of ``query`` over ``db``'s schemas.

        ``optimizer_level`` ``None`` means the library default
        (:data:`repro.algebra.optimizer.DEFAULT_OPTIMIZER_LEVEL`); 0
        compiles the query exactly as written.  Plans are memoized by
        query identity, the attribute tuples of the referenced relations,
        and the optimizer level, so every database with the same schemas
        (a written snapshot, a hypothetical one from ``Database.delete``)
        reuses one compiled plan.  Unknown relation names are not cached —
        compilation raises :class:`~repro.errors.EvaluationError` each
        call, matching the old interpreter.
        """
        level = DEFAULT_OPTIMIZER_LEVEL if optimizer_level is None else optimizer_level
        key = _plan_key(query, db, level)
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plan_hits += 1
                    self._plans.move_to_end(key)
                    return plan
                event = self._claim(self._plan_inflight, key)
                if event is None:
                    self._plan_misses += 1
                    break
            event.wait()
        try:
            catalog = {
                name: db[name].schema for name in query.relation_names() if name in db
            }
            plan = compile_plan(query, catalog, optimizer_level=level)
        except BaseException:
            with self._lock:
                self._release(self._plan_inflight, key)
            raise
        with self._lock:
            if key not in self._plans:
                self._plans[key] = plan
                while len(self._plans) > self._plan_maxsize:
                    self._plans.popitem(last=False)
                    self._plan_evictions += 1
            self._release(self._plan_inflight, key)
            return plan

    def peek_plan(
        self,
        query: Query,
        db: Database,
        optimizer_level: "int | None" = None,
    ) -> "CompiledPlan | None":
        """The memoized plan for the key, or None — never compiles.

        Does not touch the plan hit/miss counters or the LRU order: the
        slow-query log uses this to attach the rendered plan of an
        already-served request, which is diagnostics, not serving.
        """
        level = DEFAULT_OPTIMIZER_LEVEL if optimizer_level is None else optimizer_level
        with self._lock:
            return self._plans.get(_plan_key(query, db, level))

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters.

        Benchmarks clear the cache to time cold paths and then report the
        counters; resetting them here keeps those reports scoped to the
        timed run instead of polluted by whatever ran earlier.  Use
        :meth:`reset_stats` to zero the counters without dropping entries.
        """
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters, keeping the cached entries."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._plan_hits = 0
            self._plan_misses = 0
            self._plan_evictions = 0
            self._invalidations = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters and current sizes, for diagnostics."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "evictions": self._evictions,
                "plan_hits": self._plan_hits,
                "plan_misses": self._plan_misses,
                "plan_size": len(self._plans),
                "plan_evictions": self._plan_evictions,
                "invalidations": self._invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache all solvers share.
provenance_cache = ProvenanceCache()


def cached_why_provenance(
    query: Query,
    db: Database,
    view_name: str = DEFAULT_VIEW_NAME,
    store: "Any | None" = None,
) -> "WhyProvenance":
    """:func:`~repro.provenance.why.why_provenance` through the shared cache.

    ``store`` (a :class:`repro.columnar.store.ColumnStore` over ``db``) only
    changes *how* a miss computes, never the result, so it is not part of
    the cache key.
    """
    from repro.provenance.why import why_provenance

    return provenance_cache.get_or_compute(
        "why",
        query,
        db,
        view_name,
        lambda: why_provenance(query, db, view_name, store=store),
    )


def cached_plan(
    query: Query, db: Database, optimizer_level: "int | None" = None
) -> CompiledPlan:
    """:func:`~repro.algebra.plan.compile_plan` through the shared cache."""
    return provenance_cache.plan_for(query, db, optimizer_level)


def cached_where_provenance(
    query: Query, db: Database, view_name: str = DEFAULT_VIEW_NAME
) -> "WhereProvenance":
    """:func:`~repro.provenance.where.where_provenance` through the shared cache."""
    from repro.provenance.where import where_provenance

    return provenance_cache.get_or_compute(
        "where",
        query,
        db,
        view_name,
        lambda: where_provenance(query, db, view_name=view_name),
    )
