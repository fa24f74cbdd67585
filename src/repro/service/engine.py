"""The long-lived serving engine.

:class:`ServiceEngine` turns the library into an engine a process keeps
alive across requests:

* a **named-database registry** — requests address databases by name, and
  re-registering a name atomically swaps in the new snapshot (databases
  are immutable, so in-flight answers keep the object they started with);
* an **interned query parse** per DSL text — every cache in the library
  (:mod:`repro.provenance.cache`, the plan memo) is identity-keyed, so
  handing equal texts the *same* :class:`~repro.algebra.ast.Query` object
  is what makes the shared caches hit across requests;
* **one warm entry per (database, query)** — a
  :class:`~repro.deletion.hypothetical.HypotheticalDeletions` oracle per
  pair, holding the compiled plan, the
  :class:`~repro.provenance.interning.SourceIndex`, the
  :class:`~repro.provenance.bitset.BitsetProvenance` witness table and the
  view's rows in wire order.  The first request of any kind builds it,
  :meth:`ServiceEngine.apply_delta` patches it, and every read kind
  answers from it: ``evaluate`` ships its wire-sorted rows, ``why`` its
  witnesses, ``hypothetical`` its survival kernel, ``delete`` hands its
  provenance to the solvers (the chain-join min cut builds its network
  from the target's witnesses), and ``where`` reads the field's sources
  off the row's witnesses through the plan's column map
  (:attr:`~repro.algebra.plan.CompiledPlan.where_columns`).  Only plans
  with a union or a relation scanned twice, where that map does not
  exist, answer ``where`` from the shared where-provenance memo.

The engine keeps no counters of its own: every count it serves (requests,
errors, batch calls, write outcomes, warm and cold oracle lookups) is an
instrument in the process default metrics registry
(:func:`repro.observability.default_registry`), and :meth:`ServiceEngine.
stats` is a digest read from one registry snapshot.  The digest's
``cache`` section adds the warm-entry lookups (``service.oracle.
warm_hits``/``cold_builds``) to the shared memo's ``hits``/``misses``,
since reads look up the entry, not the memo.

The engine itself is synchronous and thread-safe; batching and the async
front door live in :mod:`repro.service.batcher` and
:mod:`repro.service.server`.  Every answer is **bit-identical** to the
corresponding direct library call — the engine only routes to the same
shared caches and kernels the library uses standalone (pinned by
``tests/test_service.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.algebra.ast import Query
from repro.algebra.parser import parse_query
from repro.algebra.relation import Database, Row
from repro.columnar import HAVE_NUMPY, cached_column_store
from repro.columnar.store import ColumnStore
from repro.deletion.api import delete_view_tuple, minimum_source_deletion
from repro.deletion.hypothetical import HypotheticalDeletions
from repro.observability import MetricsRegistry, SlowQueryLog, default_registry
from repro.observability.tracing import tracer as _tracer
from repro.provenance.cache import cached_where_provenance, provenance_cache
from repro.provenance.locations import SourceTuple
from repro.provenance.where import where_from_witnesses
from repro.provenance.why import WhyProvenance
from repro.service.requests import (
    ApplyDeltaRequest,
    ApplyDeltaResponse,
    DeleteRequest,
    DeleteResponse,
    EvaluateRequest,
    EvaluateResponse,
    HealthRequest,
    HealthResponse,
    HypotheticalRequest,
    HypotheticalResponse,
    Response,
    ServiceError,
    StatsRequest,
    StatsResponse,
    WhereRequest,
    WhereResponse,
    WhyRequest,
    WhyResponse,
    error_response,
)
from repro.versioning import VersionedDatabase

__all__ = ["ServiceEngine"]


#: stats() key -> the registry counter it reads.
_STATS_COUNTERS = (
    ("requests", "service.requests"),
    ("errors", "service.errors"),
    ("batch_calls", "service.batch.calls"),
    ("batched_candidates", "service.batch.candidates"),
    ("deduped_candidates", "service.batch.deduped"),
    ("deltas_applied", "service.delta.applied"),
    ("oracles_patched", "service.delta.oracles_patched"),
    ("oracles_reused", "service.delta.oracles_reused"),
)


def _sorted_rows(rows) -> Tuple[Row, ...]:
    return tuple(sorted(rows, key=repr))


class ServiceEngine:
    """A registry of databases plus warm execution state, behind one lock.

    Counts land in the metrics registry that is the process default when
    the engine is built, as do the library's own instruments; a caller
    that wants a private registry installs it with
    :func:`~repro.observability.set_default_registry` first.  Counts are
    therefore process-wide, like the shared provenance cache's.

    Evaluation and cold provenance builds run on the columnar substrate
    (:mod:`repro.columnar`) exactly when numpy imports: each registered
    database gets one :class:`~repro.columnar.store.ColumnStore`, built on
    first touch through the shared cache and reused by every query over
    that snapshot.  Without numpy they run on the tuple plan executor;
    answers are bit-identical either way.  Plans compile at
    :data:`~repro.algebra.optimizer.DEFAULT_OPTIMIZER_LEVEL`.

    Use as a context manager, or call :meth:`close` when done: it drops
    the warm state.
    """

    def __init__(
        self,
        databases: "Dict[str, Database] | None" = None,
        *,
        slow_query_log: Optional[SlowQueryLog] = None,
        slow_query_s: Optional[float] = None,
    ):
        self._lock = threading.RLock()
        self._databases: Dict[str, Database] = {}
        self._queries: Dict[str, Query] = {}
        #: (database name, query text) -> warm oracle; incrementally
        #: maintained on writes, selectively kept across re-registration.
        self._oracles: Dict[Tuple[str, str], HypotheticalDeletions] = {}
        #: Versioned write handle (snapshot + epoch) per registered name.
        self._versions: Dict[str, VersionedDatabase] = {}
        self._closed = False
        # Observability: the registry every count lands in, the
        # per-request-kind latency histograms (created on first touch),
        # and the slow-query log.
        self._metrics = default_registry()
        self._latency: Dict[str, object] = {}
        # Hot-path instruments resolved once: the registry accessor takes
        # its lock per lookup, which the per-request path should not pay.
        m = self._metrics
        self._m_requests = m.counter("service.requests")
        self._m_errors = m.counter("service.errors")
        self._m_warm_hits = m.counter("service.oracle.warm_hits")
        self._m_cold_builds = m.counter("service.oracle.cold_builds")
        self._m_batch_calls = m.counter("service.batch.calls")
        self._m_batch_candidates = m.counter("service.batch.candidates")
        self._m_batch_deduped = m.counter("service.batch.deduped")
        self._m_deltas = m.counter("service.delta.applied")
        self._m_patched = m.counter("service.delta.oracles_patched")
        self._m_reused = m.counter("service.delta.oracles_reused")
        if slow_query_log is None and slow_query_s is not None:
            slow_query_log = SlowQueryLog(threshold_s=slow_query_s)
        self._slow_log = slow_query_log
        self._started = time.time()
        m.register_collector("provenance_cache", provenance_cache.stats)
        for name, db in (databases or {}).items():
            self.register_database(name, db)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register_database(self, name: str, db: Database) -> None:
        """Add or atomically replace the database served under ``name``.

        Warm per-(database, query) oracles survive the swap when the new
        snapshot leaves every relation their query reads **value-equal** —
        a schema migration that adds relations, or replaces some while
        keeping others, does not cold-start the queries it didn't touch.
        Everything else (and the displaced snapshot's shared cache
        entries) is dropped, so the registry never pins dead databases
        alive.
        """
        if not isinstance(db, Database):
            raise ServiceError(f"expected a Database for {name!r}, got {db!r}")
        with self._lock:
            self._check_open()
            old_db = self._databases.get(name)
            if old_db is db:
                return  # same snapshot: warm state and epoch both stand
            self._databases[name] = db
            self._versions[name] = VersionedDatabase(db)
            for key in [k for k in self._oracles if k[0] == name]:
                oracle = self._oracles[key]
                if old_db is not None and all(
                    rel in db and rel in old_db and db[rel] == old_db[rel]
                    for rel in oracle.query.relation_names()
                ):
                    self._oracles[key] = oracle.rebased(db)
                    self._m_reused.inc()
                else:
                    del self._oracles[key]
            if old_db is not None:
                provenance_cache.invalidate_database(old_db)

    def database(self, name: str) -> Database:
        """The database registered under ``name``."""
        with self._lock:
            try:
                return self._databases[name]
            except KeyError:
                raise ServiceError(
                    f"no database registered as {name!r}; known: "
                    f"{sorted(self._databases)}"
                ) from None

    def database_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._databases))

    def query(self, text: str) -> Query:
        """The interned parse of ``text`` (one Query object per text)."""
        with self._lock:
            query = self._queries.get(text)
            if query is None:
                query = parse_query(text)
                self._queries[text] = query
            return query

    def register_query(self, text: str, query: Query) -> None:
        """Pre-intern ``query`` under the alias ``text``.

        Callers that already hold an AST (workload generators, benchmarks)
        can serve it under any name without round-tripping through the DSL
        renderer; requests naming ``text`` hit this exact object — and
        therefore its warm identity-keyed cache entries.
        """
        if not isinstance(query, Query):
            raise ServiceError(f"expected a Query for {text!r}, got {query!r}")
        with self._lock:
            self._check_open()
            self._queries[text] = query

    def _column_store(self, db: Database) -> "ColumnStore | None":
        """The shared columnar lowering of ``db``, or None without numpy.

        Built once per registered database snapshot through the shared
        provenance cache (identity-keyed, in-flight-deduplicated), so
        every query over the same snapshot scans the same encoded
        columns.
        """
        return cached_column_store(db) if HAVE_NUMPY else None

    def oracle(self, database: str, query_text: str) -> HypotheticalDeletions:
        """The warm per-(database, query) oracle, built on first touch.

        The build (provenance, compiled plan) runs *outside* the engine
        lock so a cold pair never stalls unrelated requests; rare racing
        builds are cheap because the underlying provenance/plan come from
        the shared in-flight-deduplicated cache, and one build wins the
        slot.  A build only installs while the snapshot it read is still
        the one registered: when a write or re-registration landed during
        the build, the built oracle answers this one request (about the
        snapshot the request read) and the slot stays empty.
        """
        key = (database, query_text)
        with self._lock:
            self._check_open()
            oracle = self._oracles.get(key)
            if oracle is not None:
                self._m_warm_hits.inc()
                return oracle
            query = self.query(query_text)
            db = self.database(database)
        self._m_cold_builds.inc()
        with _tracer.span("witness_build", database=database):
            oracle = HypotheticalDeletions(
                query, db, store=self._column_store(db)
            )
        with self._lock:
            self._check_open()
            if self._databases.get(database) is not db:
                return oracle
            return self._oracles.setdefault(key, oracle)

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def version(self, name: str) -> "VersionedDatabase":
        """The versioned write handle for the database under ``name``."""
        with self._lock:
            self.database(name)  # raises ServiceError when unknown
            return self._versions[name]

    def apply_delta(
        self, name: str, deletions=(), inserts=()
    ) -> ApplyDeltaResponse:
        """Apply a real write to the named database, maintaining warm state.

        ``deletions``/``inserts`` are ``(relation, row)`` pairs.  The
        versioned handle normalizes them to the net delta and bumps the
        epoch; then every warm structure is *patched*, not rebuilt:

        * the columnar store grows an append/tombstone form sharing the
          old store's value pool and source index;
        * each warm oracle whose query reads only untouched relations is
          re-pointed with its provenance and baseline intact (``reused``);
        * every other oracle gets its witness kernel delta-patched —
          witness-table row drops for deletions, delta-branch
          re-annotation for inserts (``patched``).

        Finally the displaced snapshot's shared cache entries are
        invalidated.  Answers after the write are bit-identical to a cold
        engine over the post-delta database (pinned by the maintenance
        property suite).
        """
        with self._lock:
            self._check_open()
            old_db = self.database(name)
            vdb = self._versions[name]
            delta = vdb.apply_delta(deletions, inserts)
            if not delta:
                return ApplyDeltaResponse(epoch=delta.epoch)
            new_db = vdb.db
            self._databases[name] = new_db
            deleted_by: Dict[str, List[Row]] = {}
            for rel, row in delta.deletions:
                deleted_by.setdefault(rel, []).append(row)
            inserted_by: Dict[str, List[Row]] = {}
            for rel, row in delta.inserts:
                inserted_by.setdefault(rel, []).append(row)
            store = provenance_cache.peek("columnar", old_db, old_db, "")
            new_store = None
            if store is not None:
                new_store = store.apply_delta(new_db, deleted_by, inserted_by)
                provenance_cache.seed("columnar", new_db, new_db, "", new_store)
            changed = set(delta.touched_relations())
            patched = reused = 0
            for key in [k for k in self._oracles if k[0] == name]:
                oracle = self._oracles[key]
                query = oracle.query
                if changed.isdisjoint(query.relation_names()):
                    # The write cannot change this query's answer or its
                    # witnesses: carry everything over, baseline included.
                    self._oracles[key] = oracle.rebased(new_db)
                    reused += 1
                    continue
                new_kernel = oracle.provenance.kernel.apply_delta(
                    new_db,
                    deleted_sources=delta.deletions,
                    inserted_by_name=inserted_by,
                    query=query,
                    store=new_store,
                )
                self._oracles[key] = oracle.rebased(
                    new_db, prov=WhyProvenance(new_kernel)
                )
                patched += 1
            provenance_cache.invalidate_database(old_db)
            self._m_deltas.inc()
            self._m_patched.inc(patched)
            self._m_reused.inc(reused)
            return ApplyDeltaResponse(
                epoch=delta.epoch,
                deleted=len(delta.deletions),
                inserted=len(delta.inserts),
                patched=patched,
                reused=reused,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, request) -> Response:
        """Answer one request; failures become ``ok=False`` responses.

        *Every* exception converts — not just :class:`ReproError`.  A
        malformed payload that slips past the wire decoder (an unhashable
        row value, a non-string database name) must answer an error, never
        take down the serving loop that called us.

        Each request counts once in ``service.requests`` (and, when it
        fails, in ``service.errors``), records its wall time into the
        per-kind latency histogram (``service.latency.<kind>``), runs
        under a ``request`` trace span, and is noted in the slow-query log
        when it exceeds the configured threshold.  A hypothetical request
        is recorded by :meth:`execute_hypothetical_batch`, the path the
        batcher also takes, so it is recorded there and only there.
        """
        kind = getattr(request, "kind", type(request).__name__)
        if isinstance(request, HypotheticalRequest):
            with _tracer.span("request", kind=kind):
                return self._dispatch(request)
        # Counted before dispatch: a stats request counts itself.
        self._m_requests.inc()
        started = time.perf_counter()
        with _tracer.span("request", kind=kind):
            response = self._dispatch(request)
        elapsed = time.perf_counter() - started
        self._latency_histogram(kind).observe(elapsed)
        if not response.ok:
            self._m_errors.inc()
        slow_log = self._slow_log
        if slow_log is not None and kind not in ("stats", "health"):
            if elapsed >= slow_log.threshold_s:
                slow_log.note(
                    kind,
                    getattr(request, "database", ""),
                    getattr(request, "query", ""),
                    elapsed,
                    detail=self._slow_detail(request, response),
                )
        return response

    def _dispatch(self, request) -> Response:
        try:
            if isinstance(request, EvaluateRequest):
                return self._evaluate(request)
            if isinstance(request, WhyRequest):
                return self._why(request)
            if isinstance(request, WhereRequest):
                return self._where(request)
            if isinstance(request, HypotheticalRequest):
                return self.execute_hypothetical_batch(
                    request.database, request.query, [request.deletions]
                )[0]
            if isinstance(request, DeleteRequest):
                return self._delete(request)
            if isinstance(request, ApplyDeltaRequest):
                return self.apply_delta(
                    request.database, request.deletions, request.inserts
                )
            if isinstance(request, StatsRequest):
                return self._stats_response(request)
            if isinstance(request, HealthRequest):
                return self._health_response(request)
            raise ServiceError(f"unknown request type {type(request).__name__}")
        except ReproError as err:
            return error_response(str(err))
        except Exception as err:  # noqa: BLE001 - the serving boundary
            return error_response(f"{type(err).__name__}: {err}")

    def _latency_histogram(self, kind: str):
        hist = self._latency.get(kind)
        if hist is None:
            hist = self._metrics.histogram(f"service.latency.{kind}")
            self._latency[kind] = hist
        return hist

    def _slow_detail(self, request, response: Response) -> Dict[str, object]:
        """Rendered plan + witness build stats for a slow-query entry.

        Best-effort: only warm state is consulted (``peek``-style) so the
        log itself never triggers a compile or build.
        """
        detail: Dict[str, object] = {"ok": response.ok}
        if response.error:
            detail["error"] = response.error
        query_text = getattr(request, "query", "")
        database = getattr(request, "database", "")
        if query_text and database:
            detail.update(self._slow_detail_for(database, query_text))
        return detail

    def _slow_detail_for(
        self, database: str, query_text: str
    ) -> Dict[str, object]:
        detail: Dict[str, object] = {}
        try:
            with self._lock:
                query = self._queries.get(query_text)
                db = self._databases.get(database)
                oracle = self._oracles.get((database, query_text))
            if query is not None and db is not None:
                plan = provenance_cache.peek_plan(query, db)
                if plan is not None:
                    detail["plan"] = plan.explain()
            if oracle is not None:
                build_stats = getattr(
                    oracle.provenance.kernel, "build_stats", None
                )
                if build_stats:
                    detail["build_stats"] = dict(build_stats)
        except Exception:  # the log must never fail the request it observed
            pass
        return detail

    def _evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        oracle = self.oracle(request.database, request.query)
        return EvaluateResponse(
            schema=oracle.plan.schema.attributes, rows=oracle.wire_rows
        )

    def _why(self, request: WhyRequest) -> WhyResponse:
        oracle = self.oracle(request.database, request.query)
        witnesses = oracle.provenance.witnesses(request.row)
        return WhyResponse(
            witnesses=tuple(
                sorted(
                    (tuple(sorted(w, key=repr)) for w in witnesses), key=repr
                )
            )
        )

    def _where(self, request: WhereRequest) -> WhereResponse:
        oracle = self.oracle(request.database, request.query)
        if oracle.plan.where_columns is not None:
            locations = where_from_witnesses(
                oracle.plan, oracle.provenance, request.row, request.attribute
            )
        else:
            # A union, or a relation scanned twice: absorption can hide a
            # derivation's locations from the witnesses, so the annotated
            # where pass answers.
            locations = cached_where_provenance(
                oracle.query, oracle.db
            ).backward(request.row, request.attribute)
        return WhereResponse(locations=tuple(sorted(locations, key=repr)))

    def _delete(self, request: DeleteRequest) -> DeleteResponse:
        oracle = self.oracle(request.database, request.query)
        solve = (
            delete_view_tuple
            if request.objective == "view"
            else minimum_source_deletion
        )
        plan = solve(
            oracle.query,
            oracle.db,
            request.target,
            allow_exponential=request.exact,
            prov=oracle.provenance,
        )
        return DeleteResponse(
            algorithm=plan.algorithm,
            optimal=plan.optimal,
            deletions=plan.sorted_deletions(),
            side_effects=_sorted_rows(plan.side_effects),
        )

    def execute_hypothetical_batch(
        self,
        database: str,
        query_text: str,
        deletion_sets: Sequence[FrozenSet[SourceTuple]],
    ) -> List[HypotheticalResponse]:
        """Answer a whole vector of hypothetical-deletion candidates.

        The batcher's entry point: identical candidates are answered once
        (the vector is de-duplicated here as well, so direct callers get
        the same interning), and the distinct vector is answered by one
        batch call on the witness kernel.  Answer lists are
        positionally aligned with ``deletion_sets`` and bit-identical to
        per-candidate :meth:`~repro.deletion.hypothetical.
        HypotheticalDeletions.view_after` calls.

        This is where every hypothetical request is recorded, whether
        :meth:`execute` or the batcher called: each candidate counts once
        in ``service.requests`` (and in ``service.errors`` when the batch
        raises) and once in the latency histogram at the batch's wall
        time, and a slow batch is logged once.
        """
        n = len(deletion_sets)
        started = time.perf_counter()
        ok = False
        try:
            oracle = self.oracle(database, query_text)
            distinct: Dict[FrozenSet[SourceTuple], int] = {}
            order: List[FrozenSet[SourceTuple]] = []
            for deletions in deletion_sets:
                if deletions not in distinct:
                    distinct[deletions] = len(order)
                    order.append(deletions)
            self._m_batch_calls.inc()
            self._m_batch_candidates.inc(n)
            self._m_batch_deduped.inc(n - len(order))
            answers = self._destroyed_vector(oracle, order)
            ok = True
        finally:
            elapsed = time.perf_counter() - started
            self._m_requests.inc(n)
            if not ok:
                self._m_errors.inc(n)
            self._latency_histogram("hypothetical").observe(elapsed, n)
        view_size = len(oracle.rows)
        by_candidate = [
            HypotheticalResponse(
                destroyed=answer, surviving=view_size - len(answer)
            )
            for answer in answers
        ]
        slow_log = self._slow_log
        if slow_log is not None and elapsed >= slow_log.threshold_s:
            slow_log.note(
                "hypothetical",
                database,
                query_text,
                elapsed,
                detail=dict(
                    self._slow_detail_for(database, query_text),
                    batch=n,
                    distinct=len(order),
                ),
            )
        return [by_candidate[distinct[d]] for d in deletion_sets]

    def _destroyed_vector(
        self,
        oracle: HypotheticalDeletions,
        deletion_sets: Sequence[FrozenSet[SourceTuple]],
    ) -> List[Tuple[Row, ...]]:
        """Sorted destroyed-row tuples per candidate, from one batch call
        on the witness kernel."""
        kernel = oracle.provenance.kernel
        encoded = [kernel.encode_deletions_auto(d) for d in deletion_sets]
        destroyed = kernel.batch_destroyed(encoded)
        return [_sorted_rows(rows) for rows in destroyed]

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A digest of the registry's serving counts plus live sizes.

        Every count is read from one registry snapshot (the single store;
        see the module docstring), so the answer is a fresh dict that no
        later request changes and nobody can mutate the engine through.
        """
        return self._digest(self._metrics.snapshot())

    def _digest(self, snap: Dict[str, object]) -> Dict[str, object]:
        counters = snap["counters"]
        stats: Dict[str, object] = {
            key: counters.get(name, 0) for key, name in _STATS_COUNTERS
        }
        with self._lock:
            stats["databases"] = len(self._databases)
            stats["warm_oracles"] = len(self._oracles)
        stats["columnar"] = HAVE_NUMPY
        # Reads look up the warm entry, not the shared memo, so the entry
        # lookups count as cache hits and misses too (read from their
        # service.oracle counters, which stay their only store).
        cache = dict(snap["collected"]["provenance_cache"])
        cache["hits"] += counters.get("service.oracle.warm_hits", 0)
        cache["misses"] += counters.get("service.oracle.cold_builds", 0)
        stats["cache"] = cache
        # A batcher records into the same registry; its section appears
        # once one has been built.
        batches = snap["histograms"].get("batcher.batch_size")
        if batches is not None:
            stats["batcher"] = {
                "pending": int(snap["gauges"].get("batcher.queue_depth", 0)),
                "batches_issued": batches["count"],
                "coalesced_requests": int(batches["sum"]) - batches["count"],
                "expired": counters.get("batcher.expired", 0),
                "overloads": counters.get("batcher.overload", 0),
            }
        return stats

    def _stats_response(self, request: StatsRequest) -> StatsResponse:
        if request.database:
            self.database(request.database)  # raises ServiceError if unknown
        slow = self._slow_log
        snap = self._metrics.snapshot()
        return StatsResponse(
            stats=self._digest(snap),
            metrics=snap,
            text=self._metrics.render_text() if request.format == "text" else "",
            slow_queries=tuple(slow.entries()) if slow is not None else (),
        )

    def _health_response(self, request: HealthRequest) -> HealthResponse:
        with self._lock:
            if request.database and request.database not in self._databases:
                return HealthResponse(
                    status="unknown-database",
                    databases=tuple(sorted(self._databases)),
                    warm_oracles=len(self._oracles),
                    uptime_s=time.time() - self._started,
                )
            return HealthResponse(
                status="closed" if self._closed else "ok",
                databases=tuple(sorted(self._databases)),
                warm_oracles=len(self._oracles),
                uptime_s=time.time() - self._started,
            )

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine's instrumentation records to."""
        return self._metrics

    @property
    def slow_query_log(self) -> Optional[SlowQueryLog]:
        return self._slow_log

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("engine is closed")

    def close(self) -> None:
        """Drop warm state.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._oracles.clear()
            self._databases.clear()
            self._queries.clear()
            self._versions.clear()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
