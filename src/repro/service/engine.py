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
* **warm per-(database, query) state** — a
  :class:`~repro.deletion.hypothetical.HypotheticalDeletions` oracle per
  pair, holding the compiled plan, the
  :class:`~repro.provenance.interning.SourceIndex`, and the
  :class:`~repro.provenance.bitset.BitsetProvenance` witness masks, built
  on first touch and reused by every later request;
* the **persistent worker pool** (:mod:`repro.parallel.executor`) — batch
  calls shard over pools that are created once and reused, not rebuilt per
  call; ``close()`` (or the context-manager exit) releases them.

The engine itself is synchronous and thread-safe; batching and the async
front door live in :mod:`repro.service.batcher` and
:mod:`repro.service.server`.  Every answer is **bit-identical** to the
corresponding direct library call — the engine only routes to the same
shared caches and kernels the library uses standalone (pinned by
``tests/test_service.py``).
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ExponentialGuardError, ReproError
from repro.algebra.ast import Query
from repro.algebra.evaluate import evaluate
from repro.algebra.parser import parse_query
from repro.algebra.plan import DEFAULT_VIEW_NAME
from repro.algebra.relation import Database, Row
from repro.columnar import HAVE_NUMPY, cached_column_store
from repro.columnar.store import ColumnStore
from repro.deletion.api import delete_view_tuple, minimum_source_deletion
from repro.deletion.hypothetical import HypotheticalDeletions
from repro.observability import MetricsRegistry, SlowQueryLog, default_registry
from repro.observability.tracing import tracer as _tracer
from repro.parallel.executor import close_pools, pool_registry
from repro.provenance.cache import (
    cached_plan,
    cached_where_provenance,
    cached_why_provenance,
    provenance_cache,
)
from repro.provenance.locations import SourceTuple
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


def _sorted_rows(rows) -> Tuple[Row, ...]:
    return tuple(sorted(rows, key=repr))


class ServiceEngine:
    """A registry of databases plus warm execution state, behind one lock.

    ``workers`` is the shard count batch calls run with (``None`` = serial;
    the sharded path falls back to serial below its amortization floor
    regardless).  ``cache_entries``/``cache_bytes`` bound the shared
    process-wide :data:`~repro.provenance.cache.provenance_cache` for
    long-lived operation — they apply :meth:`~repro.provenance.cache.
    ProvenanceCache.set_capacity` on construction and default to leaving
    the library defaults untouched.  Note the bound is **process state**:
    the cache (like the worker-pool registry) is shared by every engine
    and library caller in the process, so it persists after this engine
    closes, and when several engines set bounds the last constructor wins.
    ``cache_spill_dir`` additionally lets byte-bound evictions page
    spillable values (the per-database column stores) out to disk and
    re-attach them on the next miss instead of rebuilding.

    Evaluation and cold provenance builds run on the columnar substrate
    (:mod:`repro.columnar`) exactly when numpy imports: each registered
    database gets one :class:`~repro.columnar.store.ColumnStore`, built on
    first touch through the shared cache and reused by every query over
    that snapshot.  Without numpy they run on the tuple plan executor;
    answers are bit-identical either way.

    Use as a context manager, or call :meth:`close` when done: it drops
    the warm state and releases the **process-wide** persistent worker
    pools — in-flight batch calls of other engines fall back to fresh
    pools or serial execution, with identical answers.
    """

    def __init__(
        self,
        databases: "Dict[str, Database] | None" = None,
        *,
        workers: Optional[int] = None,
        optimizer_level: Optional[int] = None,
        cache_entries: Optional[int] = None,
        cache_bytes: Optional[int] = None,
        cache_spill_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_query_log: Optional[SlowQueryLog] = None,
        slow_query_s: Optional[float] = None,
    ):
        self._lock = threading.RLock()
        self._databases: Dict[str, Database] = {}
        self._queries: Dict[str, Query] = {}
        #: (database name, query text) -> warm oracle; incrementally
        #: maintained on writes, selectively kept across re-registration.
        self._oracles: Dict[Tuple[str, str], HypotheticalDeletions] = {}
        #: Versioned write handle per registered name (epoch + delta log
        #: + maintained statistics).
        self._versions: Dict[str, VersionedDatabase] = {}
        #: How many times each name has been (re-)registered; version
        #: tokens embed it so epochs never collide across registrations.
        self._generations: Dict[str, int] = {}
        self._workers = workers
        self._optimizer_level = optimizer_level
        self._closed = False
        self._counters = {
            "requests": 0,
            "errors": 0,
            "batch_calls": 0,
            "batched_candidates": 0,
            "deduped_candidates": 0,
            # Witness-table builds behind the oracles this engine warmed
            # (wall time and shape of the annotated evaluations).
            "witness_builds": 0,
            "witness_build_seconds": 0.0,
            "witness_rows": 0,
            "witness_count": 0,
            # Write-path accounting: applied deltas and what happened to
            # the warm oracles they touched.
            "deltas_applied": 0,
            "oracles_patched": 0,
            "oracles_reused": 0,
            "oracles_rebuilt": 0,
        }
        # Observability: the metrics registry the serving layers record to
        # (defaults to the process-wide one), the per-request-kind latency
        # histograms (created on first touch), and the slow-query log.
        self._metrics = metrics if metrics is not None else default_registry()
        self._latency: Dict[str, object] = {}
        # Hot-path instruments resolved once: the registry accessor takes
        # its lock per lookup, which the per-request path should not pay.
        self._m_requests = self._metrics.counter("service.requests")
        self._m_errors = self._metrics.counter("service.errors")
        self._m_warm_hits = self._metrics.counter("service.oracle.warm_hits")
        self._m_cold_builds = self._metrics.counter("service.oracle.cold_builds")
        if slow_query_log is None and slow_query_s is not None:
            slow_query_log = SlowQueryLog(threshold_s=slow_query_s)
        self._slow_log = slow_query_log
        self._started = time.time()
        #: Extra stats() sections pulled live (the batcher self-registers
        #: as "batcher" so a StatsRequest sees queue depth mid-traffic).
        self._stats_sources: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._metrics.register_collector("provenance_cache", provenance_cache.stats)
        self._metrics.register_collector("pools", lambda: pool_registry().stats())
        if (
            cache_entries is not None
            or cache_bytes is not None
            or cache_spill_dir is not None
        ):
            provenance_cache.set_capacity(
                maxsize=cache_entries,
                max_bytes=cache_bytes if cache_bytes is not None else ...,
                spill_dir=cache_spill_dir if cache_spill_dir is not None else ...,
            )
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
            generation = self._generations.get(name, 0) + 1
            self._generations[name] = generation
            self._versions[name] = VersionedDatabase(
                db, name=f"{name}@{generation}"
            )
            for key in [k for k in self._oracles if k[0] == name]:
                oracle = self._oracles[key]
                query = self._queries.get(key[1])
                if (
                    old_db is not None
                    and old_db is not db
                    and query is not None
                    and all(
                        rel in db and rel in old_db and db[rel] == old_db[rel]
                        for rel in query.relation_names()
                    )
                ):
                    rebased = oracle.rebased(db, keep_baseline=True)
                    prov = rebased.provenance
                    if prov is not None:
                        provenance_cache.seed(
                            "why", query, db, DEFAULT_VIEW_NAME, prov
                        )
                    self._oracles[key] = rebased
                    self._counters["oracles_reused"] += 1
                else:
                    del self._oracles[key]
            if old_db is not None and old_db is not db:
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
        slot.
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
                query,
                db,
                optimizer_level=self._optimizer_level,
                workers=self._workers,
                store=self._column_store(db),
            )
        prov = oracle.provenance
        build_stats = (
            getattr(prov.kernel, "build_stats", None) if prov is not None else None
        )
        with self._lock:
            self._check_open()
            winner = self._oracles.setdefault(key, oracle)
            if winner is oracle and build_stats:
                self._counters["witness_builds"] += 1
                self._counters["witness_build_seconds"] += build_stats["seconds"]
                self._counters["witness_rows"] += build_stats["rows"]
                self._counters["witness_count"] += build_stats["witnesses"]
        if winner is oracle and build_stats:
            self._metrics.histogram("service.witness_build.seconds").observe(
                build_stats["seconds"]
            )
        return winner

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
        versioned handle normalizes them to the net delta, bumps the
        epoch, and keeps statistics current; then every warm structure is
        *patched*, not rebuilt:

        * the columnar store grows an append/tombstone form sharing the
          old store's value pool and source index;
        * each warm oracle whose query reads only untouched relations is
          re-pointed with its provenance and baseline intact (``reused``);
        * each oracle with a witness kernel gets the kernel delta-patched
          — witness-table row drops for deletions, delta-branch
          re-annotation for inserts (``patched``);
        * oracles whose patch is refused (exponential-guard) are dropped
          for lazy rebuild on next touch (``rebuilt``).

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
            patched = reused = rebuilt = 0
            for key in [k for k in self._oracles if k[0] == name]:
                oracle = self._oracles[key]
                query = self._queries.get(key[1])
                # ``is not None``: a provenance over an empty view is
                # falsy (``len() == 0``) but still has a kernel to patch.
                kernel = (
                    oracle.provenance.kernel
                    if oracle.provenance is not None
                    else None
                )
                if query is not None and changed.isdisjoint(
                    query.relation_names()
                ):
                    # The write cannot change this query's answer or its
                    # witnesses: carry everything over, baseline included.
                    new_oracle = oracle.rebased(new_db, keep_baseline=True)
                    reused += 1
                elif kernel is None:
                    # Compiled-plan fallback mode: nothing warm to patch
                    # beyond the plan itself, which the memo carries.
                    new_oracle = oracle.rebased(new_db)
                    reused += 1
                else:
                    try:
                        new_kernel = kernel.apply_delta(
                            new_db,
                            deleted_sources=delta.deletions,
                            inserted_by_name=inserted_by,
                            query=query,
                            optimizer_level=self._optimizer_level,
                            store=new_store,
                        )
                    except ExponentialGuardError:
                        del self._oracles[key]
                        rebuilt += 1
                        continue
                    new_oracle = oracle.rebased(
                        new_db, prov=WhyProvenance(new_kernel)
                    )
                    patched += 1
                prov = new_oracle.provenance
                if prov is not None and query is not None:
                    provenance_cache.seed(
                        "why", query, new_db, DEFAULT_VIEW_NAME, prov
                    )
                self._oracles[key] = new_oracle
            provenance_cache.invalidate_database(old_db)
            self._counters["deltas_applied"] += 1
            self._counters["oracles_patched"] += patched
            self._counters["oracles_reused"] += reused
            self._counters["oracles_rebuilt"] += rebuilt
            self._metrics.counter("service.delta.applied").inc()
            self._metrics.counter("service.delta.oracles_patched").inc(patched)
            self._metrics.counter("service.delta.oracles_reused").inc(reused)
            self._metrics.counter("service.delta.oracles_rebuilt").inc(rebuilt)
            return ApplyDeltaResponse(
                epoch=delta.epoch,
                deleted=len(delta.deletions),
                inserted=len(delta.inserts),
                patched=patched,
                reused=reused,
                rebuilt=rebuilt,
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

        Each request records its wall time into the per-kind latency
        histogram (``service.latency.<kind>``), runs under a ``request``
        trace span, and is noted in the slow-query log when it exceeds
        the configured threshold.
        """
        with self._lock:
            self._counters["requests"] += 1
        self._m_requests.inc()
        kind = getattr(request, "kind", type(request).__name__)
        started = time.perf_counter()
        with _tracer.span("request", kind=kind):
            response = self._dispatch(request)
        elapsed = time.perf_counter() - started
        if kind != "hypothetical":
            # Hypothetical latency is recorded per candidate inside
            # execute_hypothetical_batch — the batcher reaches it without
            # passing through here, and this path would double-count.
            self._latency_histogram(kind).observe(elapsed)
        if not response.ok:
            with self._lock:
                self._counters["errors"] += 1
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
                plan = provenance_cache.peek_plan(
                    query, db, self._optimizer_level
                )
                if plan is not None:
                    detail["plan"] = plan.explain()
            if oracle is not None and oracle.provenance is not None:
                build_stats = getattr(
                    oracle.provenance.kernel, "build_stats", None
                )
                if build_stats:
                    detail["build_stats"] = dict(build_stats)
        except Exception:  # the log must never fail the request it observed
            pass
        return detail

    def _evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        query = self.query(request.query)
        db = self.database(request.database)
        store = self._column_store(db)
        if store is not None:
            plan = cached_plan(query, db, self._optimizer_level)
            return EvaluateResponse(
                schema=plan.schema.attributes,
                rows=_sorted_rows(plan.rows_columnar(store)),
            )
        view = evaluate(query, db)
        return EvaluateResponse(
            schema=view.schema.attributes, rows=_sorted_rows(view.rows)
        )

    def _why(self, request: WhyRequest) -> WhyResponse:
        query = self.query(request.query)
        db = self.database(request.database)
        prov = cached_why_provenance(
            query, db, store=self._column_store(db)
        )
        witnesses = prov.witnesses(request.row)
        return WhyResponse(
            witnesses=tuple(
                sorted(
                    (tuple(sorted(w, key=repr)) for w in witnesses), key=repr
                )
            )
        )

    def _where(self, request: WhereRequest) -> WhereResponse:
        prov = cached_where_provenance(
            self.query(request.query), self.database(request.database)
        )
        locations = prov.backward(request.row, request.attribute)
        return WhereResponse(locations=tuple(sorted(locations, key=repr)))

    def _delete(self, request: DeleteRequest) -> DeleteResponse:
        query = self.query(request.query)
        db = self.database(request.database)
        solve = (
            delete_view_tuple
            if request.objective == "view"
            else minimum_source_deletion
        )
        plan = solve(
            query,
            db,
            request.target,
            allow_exponential=request.exact,
            workers=self._workers,
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
        mask-vector kernel pass — sharded over the persistent worker pool
        when the engine was built with ``workers`` > 1.  Answer lists are
        positionally aligned with ``deletion_sets`` and bit-identical to
        per-candidate :meth:`~repro.deletion.hypothetical.
        HypotheticalDeletions.view_after` calls.
        """
        started = time.perf_counter()
        oracle = self.oracle(database, query_text)
        distinct: Dict[FrozenSet[SourceTuple], int] = {}
        order: List[FrozenSet[SourceTuple]] = []
        for deletions in deletion_sets:
            if deletions not in distinct:
                distinct[deletions] = len(order)
                order.append(deletions)
        with self._lock:
            self._counters["batch_calls"] += 1
            self._counters["batched_candidates"] += len(deletion_sets)
            self._counters["deduped_candidates"] += len(deletion_sets) - len(order)
        answers = self._destroyed_vector(oracle, order)
        view_size = len(oracle.rows)
        by_candidate = [
            HypotheticalResponse(
                destroyed=answer, surviving=view_size - len(answer)
            )
            for answer in answers
        ]
        # Every candidate in the batch experienced the batch's wall time;
        # the batcher reaches this entry point without passing through
        # execute(), so per-request hypothetical latency lands here.
        elapsed = time.perf_counter() - started
        hist = self._latency_histogram("hypothetical")
        for _ in deletion_sets:
            hist.observe(elapsed)
        slow_log = self._slow_log
        if slow_log is not None and elapsed >= slow_log.threshold_s:
            slow_log.note(
                "hypothetical",
                database,
                query_text,
                elapsed,
                detail=dict(
                    self._slow_detail_for(database, query_text),
                    batch=len(deletion_sets),
                    distinct=len(order),
                ),
            )
        return [by_candidate[distinct[d]] for d in deletion_sets]

    def _destroyed_vector(
        self,
        oracle: HypotheticalDeletions,
        deletion_sets: Sequence[FrozenSet[SourceTuple]],
    ) -> List[Tuple[Row, ...]]:
        """Sorted destroyed-row tuples per candidate, mask path or fallback."""
        prov = oracle.provenance
        kernel = prov.kernel if prov is not None else None
        if kernel is not None:
            encoded = [kernel.encode_deletions_auto(d) for d in deletion_sets]
            destroyed = kernel.batch_destroyed(encoded, workers=self._workers)
            return [_sorted_rows(rows) for rows in destroyed]
        baseline = oracle.rows
        return [
            _sorted_rows(baseline - after)
            for after in oracle.batch_view_after(deletion_sets)
        ]

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Request counters plus the shared cache and pool-registry stats.

        The answer is a **deep-copied snapshot**: mutating it, or the
        engine serving more requests, never changes a dict already handed
        out, and nested sections are never seen torn mid-update (pinned
        by a regression test).
        """
        with self._lock:
            counters: Dict[str, object] = copy.deepcopy(self._counters)
            counters["databases"] = len(self._databases)
            counters["warm_oracles"] = len(self._oracles)
            counters["columnar"] = HAVE_NUMPY
            sources = dict(self._stats_sources)
        counters["cache"] = copy.deepcopy(provenance_cache.stats())
        counters["pools"] = copy.deepcopy(pool_registry().stats())
        for name, fn in sources.items():
            try:
                counters[name] = copy.deepcopy(dict(fn()))
            except Exception as err:  # a dead source must not kill stats
                counters[name] = {"error": f"{type(err).__name__}: {err}"}
        return counters

    def add_stats_source(
        self, name: str, fn: Callable[[], Dict[str, object]]
    ) -> None:
        """Attach a live stats section pulled on every :meth:`stats` call.

        The batcher registers itself as ``"batcher"`` so a mid-traffic
        ``StatsRequest`` sees current queue depth and coalescing counts.
        """
        with self._lock:
            self._stats_sources[name] = fn

    def _stats_response(self, request: StatsRequest) -> StatsResponse:
        if request.database:
            self.database(request.database)  # raises ServiceError if unknown
        slow = self._slow_log
        return StatsResponse(
            stats=self.stats(),
            metrics=self._metrics.snapshot(),
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

    @property
    def workers(self) -> Optional[int]:
        return self._workers

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("engine is closed")

    def close(self) -> None:
        """Drop warm state and release the persistent worker pools."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._oracles.clear()
            self._databases.clear()
            self._queries.clear()
            self._versions.clear()
            self._generations.clear()
        close_pools()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
