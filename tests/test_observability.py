"""The observability layer: metrics, traces, slow queries, stats/health.

The invariant every test here circles: observing the serving stack never
changes what it answers — instrumentation is pure side channel.  Counters
count exactly what happened (each failure path bumps its counter exactly
once), snapshots are deep copies nobody can mutate through, and the whole
layer collapses to a single branch when disabled.
"""

import json
import threading
import time

import pytest

from repro.algebra import Database, Relation, parse_query
from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    TraceSink,
    Tracer,
    default_registry,
    set_default_registry,
)
from repro.provenance.cache import ProvenanceCache
from repro.service.requests import ApplyDeltaRequest
from repro.service import (
    EvaluateRequest,
    HealthRequest,
    HealthResponse,
    HypotheticalRequest,
    MicroBatcher,
    ServiceEngine,
    ServiceOverloadError,
    StatsRequest,
    StatsResponse,
    WhereRequest,
    WhyRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

QUERY = "PROJECT[user, file](UserGroup JOIN GroupFile)"


@pytest.fixture
def db(usergroup_db):
    return usergroup_db


@pytest.fixture
def registry():
    """A private process default registry for one test, so counter
    assertions are exact: nothing else in the process records into it."""
    fresh = MetricsRegistry()
    displaced = set_default_registry(fresh)
    try:
        yield fresh
    finally:
        set_default_registry(displaced)


@pytest.fixture
def engine(db, registry):
    with ServiceEngine({"db": db}, slow_query_s=0.0) as eng:
        yield eng


# ----------------------------------------------------------------------
# MetricsRegistry / instruments
# ----------------------------------------------------------------------
class TestMetrics:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_same_name_different_kind_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_counter_and_gauge_values(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5
        reg.gauge("g").set(7)
        reg.gauge("g").dec(2)
        assert reg.gauge("g").value == 5

    def test_histogram_quantiles_are_bucket_upper_bounds(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for v in (1e-6, 2e-6, 4e-6, 8e-6):
            hist.observe(v)
        # Upper-bound convention: the reported quantile is never below
        # the true one.
        assert hist.quantile(0.5) >= 2e-6
        assert hist.quantile(0.99) >= 8e-6
        assert hist.count == 4 and hist.sum == pytest.approx(15e-6)

    def test_observe_with_a_count_equals_repeated_observes(self):
        batched = MetricsRegistry().histogram("h")
        repeated = MetricsRegistry().histogram("h")
        batched.observe(3e-6, 5)
        for _ in range(5):
            repeated.observe(3e-6)
        assert batched.snapshot() == repeated.snapshot()
        assert batched.count == 5 and batched.sum == pytest.approx(15e-6)
        batched.observe(1.0, 0)  # zero observations record nothing
        assert batched.snapshot() == repeated.snapshot()

    def test_empty_histogram_answers_none(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["p99"] is None

    def test_overflow_bucket_answers_the_recorded_max(self):
        hist = MetricsRegistry().histogram("big")
        hist.observe(1e9)  # beyond the last bound → +Inf bucket
        assert hist.quantile(0.99) == 1e9
        assert hist.snapshot()["buckets"] == {"+Inf": 1}

    def test_histograms_merge_by_adding_buckets(self):
        a = MetricsRegistry().histogram("h")
        b = MetricsRegistry().histogram("h")
        a.observe(1e-6)
        b.observe(3e-6)
        b.observe(1e-3)
        a.merge(b)
        assert a.count == 3
        assert a.sum == pytest.approx(1e-6 + 3e-6 + 1e-3)
        snap = a.snapshot()
        assert snap["min"] == 1e-6 and snap["max"] == 1e-3

    def test_merge_rejects_different_bounds(self):
        reg = MetricsRegistry()
        a = reg.histogram("a", buckets=DEFAULT_BUCKETS)
        b = reg.histogram("b", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_disabled_registry_drops_everything(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc()
        reg.gauge("g").set(9)
        reg.histogram("h").observe(0.5)
        assert reg.counter("c").value == 0
        assert reg.gauge("g").value == 0.0
        assert reg.histogram("h").count == 0
        # Instruments stay valid across the flip: re-enabling records.
        reg.set_enabled(True)
        reg.counter("c").inc()
        assert reg.counter("c").value == 1

    def test_snapshot_shape_and_collectors(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1e-4)
        reg.register_collector("extra", lambda: {"k": 1})
        reg.register_collector("broken", lambda: 1 / 0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["collected"]["extra"] == {"k": 1}
        # A raising collector reports an error entry, never kills a scrape.
        assert "ZeroDivisionError" in snap["collected"]["broken"]["error"]
        assert json.loads(json.dumps(snap)) == snap  # JSON-ready

    def test_render_text_prometheus_conventions(self):
        reg = MetricsRegistry()
        reg.counter("service.requests").inc(3)
        reg.gauge("batcher.queue_depth").set(2)
        reg.histogram("service.latency.evaluate").observe(1e-6)
        text = reg.render_text()
        assert "# TYPE service_requests counter" in text
        assert "service_requests_total 3" in text
        assert "batcher_queue_depth 2" in text
        # Bucket counts are cumulative and end at +Inf == _count.
        assert 'service_latency_evaluate_bucket{le="+Inf"} 1' in text
        assert "service_latency_evaluate_count 1" in text

    def test_reset_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        h = reg.histogram("h")
        c.inc(5)
        h.observe(1.0)
        reg.reset()
        assert c.value == 0 and h.count == 0
        assert reg.counter("c") is c  # registration survives

    def test_default_registry_swap_and_restore(self):
        fresh = MetricsRegistry()
        old = set_default_registry(fresh)
        try:
            assert default_registry() is fresh
        finally:
            assert set_default_registry(old) is fresh
        assert default_registry() is old


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_no_sink_no_parent_is_a_noop(self):
        tracer = Tracer()
        with tracer.span("request") as span:
            assert span is None  # the shared null context
            assert tracer.current() is None

    def test_span_tree_lands_in_the_sink(self):
        tracer = Tracer()
        sink = TraceSink()
        tracer.install_sink(sink)
        with tracer.span("request", kind="evaluate") as root:
            with tracer.span("witness_build") as child:
                assert tracer.current() is child
        traces = sink.traces()
        assert len(traces) == 1 and traces[0] is root
        assert root.attrs["kind"] == "evaluate"
        assert [c.name for c in root.children] == ["witness_build"]
        assert root.duration is not None and root.duration >= 0

    def test_exception_marks_the_span(self):
        tracer = Tracer()
        sink = TraceSink()
        tracer.install_sink(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("request"):
                raise RuntimeError("boom")
        (root,) = sink.traces()
        assert "RuntimeError" in root.attrs["error"]

    def test_capture_adopt_across_threads(self):
        # The batcher hand-off: capture on the submitting thread, adopt on
        # the scheduler thread — child spans join the original tree.
        tracer = Tracer()
        sink = TraceSink()
        tracer.install_sink(sink)
        with tracer.span("request") as root:
            captured = tracer.capture()
            assert captured is root

            def worker():
                with tracer.adopt(captured):
                    with tracer.span("batch_kernel"):
                        pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert [c.name for c in sink.traces()[0].children] == ["batch_kernel"]

    def test_sink_ring_drops_oldest(self):
        tracer = Tracer()
        sink = TraceSink(capacity=2)
        tracer.install_sink(sink)
        for i in range(5):
            with tracer.span(f"r{i}"):
                pass
        assert len(sink) == 2 and sink.dropped == 3
        assert [s.name for s in sink.traces()] == ["r3", "r4"]

    def test_chrome_trace_events_and_dump(self, tmp_path):
        tracer = Tracer()
        sink = TraceSink()
        tracer.install_sink(sink)
        with tracer.span("request"):
            with tracer.span("inner"):
                pass
        events = sink.to_events()
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 for e in events)
        path = tmp_path / "trace.json"
        assert sink.dump(str(path)) == 2
        doc = json.loads(path.read_text())
        assert {e["name"] for e in doc["traceEvents"]} == {"request", "inner"}

    def test_install_sink_returns_the_displaced_sink(self):
        tracer = Tracer()
        first = TraceSink()
        assert tracer.install_sink(first) is None
        assert tracer.install_sink(None) is first
        assert not tracer.enabled


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_gates_entries(self):
        log = SlowQueryLog(threshold_s=0.1)
        assert not log.note("evaluate", "db", QUERY, 0.05)
        assert log.note("evaluate", "db", QUERY, 0.2, detail={"plan": "Scan"})
        (entry,) = log.entries()
        assert entry["kind"] == "evaluate" and entry["seconds"] == 0.2
        assert entry["plan"] == "Scan"

    def test_ring_keeps_the_newest_but_counts_all(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=2)
        for i in range(5):
            log.note("evaluate", "db", f"q{i}", float(i + 1))
        assert len(log) == 2 and log.total == 5
        assert [e["query"] for e in log.entries()] == ["q3", "q4"]
        log.clear()
        assert len(log) == 0

    def test_sink_streams_and_a_raising_sink_is_swallowed(self):
        seen = []
        log = SlowQueryLog(threshold_s=0.0, sink=seen.append)
        log.note("why", "db", QUERY, 1.0)
        assert len(seen) == 1 and seen[0]["kind"] == "why"
        bad = SlowQueryLog(threshold_s=0.0, sink=lambda e: 1 / 0)
        assert bad.note("why", "db", QUERY, 1.0)  # noted despite the sink


# ----------------------------------------------------------------------
# Stats / health wire types
# ----------------------------------------------------------------------
class TestStatsHealthCodec:
    def test_stats_request_round_trip(self):
        for request in (StatsRequest(), StatsRequest(database="db", format="text")):
            assert decode_request(encode_request(request)) == request

    def test_health_request_round_trip(self):
        for request in (HealthRequest(), HealthRequest(database="db")):
            assert decode_request(encode_request(request)) == request

    def test_stats_request_rejects_bad_format(self):
        with pytest.raises(Exception):
            StatsRequest(format="xml")

    def test_stats_response_round_trip(self):
        response = StatsResponse(
            ok=True,
            stats={"requests": {"evaluate": 3}},
            metrics={"counters": {"service.requests": 3}},
            text="service_requests_total 3\n",
            slow_queries=({"kind": "evaluate", "seconds": 0.5},),
        )
        assert decode_response(encode_response(response)) == response

    def test_health_response_round_trip(self):
        response = HealthResponse(
            ok=True,
            status="ok",
            databases=("db",),
            warm_oracles=2,
            uptime_s=1.5,
        )
        assert decode_response(encode_response(response)) == response


# ----------------------------------------------------------------------
# Engine instrumentation and the stats/health requests
# ----------------------------------------------------------------------
class TestEngineObservability:
    def test_requests_and_latency_counted_per_kind(self, engine):
        assert engine.execute(EvaluateRequest("db", QUERY)).ok
        assert engine.execute(WhyRequest("db", QUERY, ("joe", "f1"))).ok
        snap = engine.metrics.snapshot()
        assert snap["counters"]["service.requests"] == 2
        assert snap["histograms"]["service.latency.evaluate"]["count"] == 1
        assert snap["histograms"]["service.latency.why"]["count"] == 1
        assert snap["histograms"]["service.latency.evaluate"]["p50"] > 0

    def test_errors_counted(self, engine):
        assert not engine.execute(EvaluateRequest("nope", QUERY)).ok
        assert engine.metrics.counter("service.errors").value == 1

    def test_warm_and_cold_oracle_counters(self, engine):
        request = HypotheticalRequest("db", QUERY, frozenset())
        assert engine.execute(request).ok  # cold build
        assert engine.execute(request).ok  # warm hit
        snap = engine.metrics.snapshot()
        assert snap["counters"]["service.oracle.cold_builds"] == 1
        assert snap["counters"]["service.oracle.warm_hits"] == 1
        # The build is recorded once, by the kernel, in the same registry.
        assert snap["histograms"]["provenance.witness_build_seconds"]["count"] == 1
        assert "service.witness_build.seconds" not in snap["histograms"]

    def test_stats_request_answers_a_live_snapshot(self, engine):
        engine.execute(EvaluateRequest("db", QUERY))
        response = engine.execute(StatsRequest())
        assert response.ok
        # The stats request counts itself: evaluate + stats.
        assert response.stats["requests"] == 2
        assert response.metrics["counters"]["service.requests"] >= 1
        assert response.metrics["histograms"]["service.latency.evaluate"]["count"] == 1
        assert response.text == ""  # json format carries no exposition
        # threshold 0.0 → the evaluate request is already a slow entry
        assert any(e["kind"] == "evaluate" for e in response.slow_queries)

    def test_stats_request_text_format(self, engine):
        engine.execute(EvaluateRequest("db", QUERY))
        response = engine.execute(StatsRequest(format="text"))
        assert "service_requests_total" in response.text

    def test_stats_request_unknown_database_errors(self, engine):
        response = engine.execute(StatsRequest(database="nope"))
        assert not response.ok and "no database registered" in response.error

    def test_health_request(self, engine):
        response = engine.execute(HealthRequest())
        assert response.ok and response.status == "ok"
        assert response.databases == ("db",)
        assert response.uptime_s >= 0.0
        assert engine.execute(HealthRequest(database="nope")).status == (
            "unknown-database"
        )

    @pytest.mark.parametrize("knob", ["metrics", "cache_entries", "cache_bytes"])
    def test_engine_has_no_second_store_knobs(self, db, knob):
        with pytest.raises(TypeError):
            ServiceEngine({"db": db}, **{knob: None})

    def test_health_reports_closed_engine(self, db):
        engine = ServiceEngine({"db": db})
        engine.close()
        assert engine._health_response(HealthRequest()).status == "closed"

    def test_slow_log_attaches_the_rendered_plan(self, engine):
        engine.execute(EvaluateRequest("db", QUERY))
        (entry,) = [
            e for e in engine.slow_query_log.entries() if e["kind"] == "evaluate"
        ]
        assert entry["ok"] is True
        assert "PROJECT" in entry["plan"] or "Project" in entry["plan"]

    def test_stats_and_health_are_not_slow_logged(self, engine):
        engine.execute(StatsRequest())
        engine.execute(HealthRequest())
        assert engine.slow_query_log.total == 0

    def test_batched_hypotheticals_count_into_the_latency_histogram(
        self, engine, db
    ):
        # The batcher bypasses execute(); the batch path must still record
        # per-candidate hypothetical latency and slow-log entries.
        candidates = [frozenset({s}) for s in list(db.all_source_tuples())[:3]]
        with MicroBatcher(engine, max_delay_s=0.05) as batcher:
            futures = [
                batcher.submit(HypotheticalRequest("db", QUERY, c))
                for c in candidates
            ]
            assert all(f.result(timeout=10).ok for f in futures)
        snap = engine.metrics.snapshot()
        assert snap["histograms"]["service.latency.hypothetical"]["count"] == 3
        assert snap["histograms"]["batcher.queue_wait_seconds"]["count"] == 3
        assert any(
            e["kind"] == "hypothetical" for e in engine.slow_query_log.entries()
        )


# ----------------------------------------------------------------------
# One record per request, whichever path served it
# ----------------------------------------------------------------------
class TestOneRecordPerRequest:
    def test_slow_hypothetical_is_logged_once_through_execute(self, engine):
        request = HypotheticalRequest("db", QUERY, frozenset())
        assert engine.execute(request).ok
        assert engine.execute(request).ok
        entries = engine.slow_query_log.entries()
        assert [e["kind"] for e in entries] == ["hypothetical"] * 2
        assert engine.slow_query_log.total == 2
        snap = engine.metrics.snapshot()
        assert snap["counters"]["service.requests"] == 2
        assert snap["histograms"]["service.latency.hypothetical"]["count"] == 2

    def test_slow_hypotheticals_are_logged_once_per_batch(self, engine, db):
        candidates = [frozenset({s}) for s in list(db.all_source_tuples())[:4]]
        with MicroBatcher(engine, max_delay_s=0.05) as batcher:
            futures = [
                batcher.submit(HypotheticalRequest("db", QUERY, c))
                for c in candidates
            ]
            assert all(f.result(timeout=10).ok for f in futures)
            batches = batcher.stats()["batches_issued"]
        entries = engine.slow_query_log.entries()
        assert [e["kind"] for e in entries] == ["hypothetical"] * batches
        assert sum(e["batch"] for e in entries) == len(candidates)

    def test_batched_probes_count_as_requests(self, engine, db):
        sources = sorted(db.all_source_tuples(), key=repr)
        candidates = [frozenset({sources[i % len(sources)]}) for i in range(10)]
        with MicroBatcher(engine, max_delay_s=0.05) as batcher:
            futures = [
                batcher.submit(HypotheticalRequest("db", QUERY, c))
                for c in candidates
            ]
            futures.append(batcher.submit(EvaluateRequest("db", QUERY)))
            assert all(f.result(timeout=10).ok for f in futures)
        stats = engine.stats()
        assert stats["batched_candidates"] == 10
        assert stats["requests"] == 11
        assert engine.metrics.counter("service.requests").value == 11
        assert stats["errors"] == 0

    def test_each_failed_answer_is_one_error_on_either_path(self, engine):
        bad = HypotheticalRequest("nope", QUERY, frozenset())
        assert not engine.execute(bad).ok
        with MicroBatcher(engine, max_delay_s=0.05) as batcher:
            futures = [batcher.submit(bad) for _ in range(3)]
            futures.append(batcher.submit(EvaluateRequest("nope", QUERY)))
            assert not any(f.result(timeout=10).ok for f in futures)
        stats = engine.stats()
        assert stats["requests"] == stats["errors"] == 5

    def test_a_batch_and_a_write_move_every_key_perfbench_reads(self, engine, db):
        """perfbench turns a missing stats key into 0, so a key that
        stopped moving would zero a per-layer number without an error."""
        source = sorted(db.all_source_tuples(), key=repr)[0]
        with MicroBatcher(engine, max_delay_s=0.05) as batcher:
            assert batcher.request(HypotheticalRequest("db", QUERY, frozenset())).ok
            before = engine.stats()
            futures = [
                batcher.submit(HypotheticalRequest("db", QUERY, frozenset({source})))
                for _ in range(3)
            ]
            assert all(f.result(timeout=10).ok for f in futures)
            assert engine.execute(WhyRequest("db", QUERY, ("joe", "f1"))).ok
            assert engine.execute(EvaluateRequest("db", QUERY)).ok
            assert batcher.request(
                ApplyDeltaRequest("db", deletions=frozenset({source}))
            ).ok
            assert engine.execute(WhyRequest("db", QUERY, ("joe", "f2"))).ok
            # A displaced snapshot's where-provenance is a cold miss, and
            # a first-seen query a plan miss.
            assert engine.execute(WhereRequest("db", QUERY, ("joe", "f2"), "file")).ok
            assert engine.execute(EvaluateRequest("db", "PROJECT[user](UserGroup)")).ok
            after = engine.stats()
        moved = {
            "batch_calls": after["batch_calls"] - before["batch_calls"],
            "batched_candidates": (
                after["batched_candidates"] - before["batched_candidates"]
            ),
            "oracles_patched": after["oracles_patched"] - before["oracles_patched"],
        }
        for key in ("hits", "misses", "plan_hits", "plan_misses", "invalidations"):
            moved["cache." + key] = after["cache"][key] - before["cache"][key]
        assert all(delta > 0 for delta in moved.values()), sorted(moved.items())


# ----------------------------------------------------------------------
# Satellite 1: stats() is a deep-copied snapshot
# ----------------------------------------------------------------------
class TestStatsSnapshotIsolation:
    def test_mutating_a_snapshot_never_reaches_the_engine(self, engine):
        engine.execute(EvaluateRequest("db", QUERY))
        first = engine.stats()
        first["requests"] = 999
        first["cache"].clear()
        second = engine.stats()
        assert second["requests"] == 1
        assert second["cache"] != {}

    def test_served_requests_never_mutate_a_handed_out_snapshot(self, engine):
        engine.execute(EvaluateRequest("db", QUERY))
        before = engine.stats()
        engine.execute(EvaluateRequest("db", QUERY))
        assert before["requests"] == 1
        assert engine.stats()["requests"] == 2

    def test_batcher_section_appears_via_stats_source(self, engine):
        assert "batcher" not in engine.stats()  # no batcher has run yet
        with MicroBatcher(engine) as batcher:
            future = batcher.submit(HypotheticalRequest("db", QUERY, frozenset()))
            assert future.result(timeout=10).ok
            section = engine.stats()["batcher"]
        assert section["batches_issued"] == 1
        assert {"pending", "expired", "overloads"} <= set(section)


# ----------------------------------------------------------------------
# Satellite 2: ProvenanceCache.reset_stats is a full round trip
# ----------------------------------------------------------------------
class TestCacheResetStats:
    def test_every_counter_zeroes_and_sizes_survive(self, db):
        cache = ProvenanceCache()
        query = parse_query(QUERY)
        # Drive every counter the stats dict reports.
        cache.get_or_compute("why", query, db, "view", lambda: "v")  # miss
        cache.get_or_compute("why", query, db, "view", lambda: "v")  # hit
        cache.plan_for(query, db)  # plan miss
        cache.plan_for(query, db)  # plan hit
        other = Database([Relation("R", ["A"], [(1,)])])
        cache.get_or_compute("why", query, other, "view", lambda: "w")
        assert cache.invalidate_database(other) == 1
        before = cache.stats()
        for key in (
            "hits",
            "misses",
            "plan_hits",
            "plan_misses",
            "invalidations",
        ):
            assert before[key] > 0, key
        cache.reset_stats()
        after = cache.stats()
        for key in (
            "hits",
            "misses",
            "evictions",
            "plan_hits",
            "plan_misses",
            "plan_evictions",
            "invalidations",
        ):
            assert after[key] == 0, key
        # Entries and plans survive: reset_stats zeroes counters only.
        assert after["size"] == before["size"] == 1
        assert after["plan_size"] == before["plan_size"] == 1
        assert cache.peek("why", query, db, "view") == "v"


# ----------------------------------------------------------------------
# Satellite 3: failure paths bump their counter exactly once
# ----------------------------------------------------------------------
class TestFailureCounters:
    def test_expired_request_counts_exactly_once(self, engine):
        with MicroBatcher(engine) as batcher:
            future = batcher.submit(
                HypotheticalRequest("db", QUERY, frozenset()), timeout_s=0.0
            )
            response = future.result(timeout=5)
            assert not response.ok and "deadline exceeded" in response.error
            stats = batcher.stats()
        assert stats["expired"] == 1
        assert engine.metrics.counter("batcher.expired").value == 1
        assert engine.metrics.counter("batcher.overload").value == 0

    def test_overload_counts_each_rejected_submit(self, engine):
        release = threading.Event()
        original = engine.execute_hypothetical_batch

        def stalled(*args, **kwargs):
            release.wait(timeout=10)
            return original(*args, **kwargs)

        engine.execute_hypothetical_batch = stalled
        try:
            with MicroBatcher(engine, max_pending=1, max_delay_s=0.0) as batcher:
                first = batcher.submit(HypotheticalRequest("db", QUERY, frozenset()))
                deadline = time.monotonic() + 5
                overloaded = False
                while time.monotonic() < deadline and not overloaded:
                    try:
                        batcher.submit(HypotheticalRequest("db", QUERY, frozenset()))
                    except ServiceOverloadError:
                        overloaded = True
                assert overloaded
                release.set()
                assert first.result(timeout=10).ok
                stats = batcher.stats()
        finally:
            engine.execute_hypothetical_batch = original
            release.set()
        assert stats["overloads"] == 1
        assert engine.metrics.counter("batcher.overload").value == 1
        assert engine.metrics.counter("batcher.expired").value == 0

    def test_server_overload_counts_exactly_once(self, engine):
        import asyncio

        from repro.service import ServiceServer

        # A closed batcher refuses every submit — the deterministic way to
        # drive the server's overload answer path.
        batcher = MicroBatcher(engine)
        batcher.close()

        async def session():
            server = ServiceServer(engine, batcher=batcher)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            envelope = encode_request(EvaluateRequest("db", QUERY))
            envelope["id"] = 1
            writer.write((json.dumps(envelope) + "\n").encode())
            await writer.drain()
            raw = json.loads(await asyncio.wait_for(reader.readline(), timeout=10))
            writer.close()
            await server.aclose()
            return raw

        raw = asyncio.run(session())
        assert not raw["ok"]
        assert engine.metrics.counter("server.overload").value == 1
        assert engine.metrics.counter("server.deadline_exceeded").value == 0

    def test_server_deadline_counts_exactly_once(self, engine):
        import asyncio

        from repro.service import ServiceServer

        original = engine.execute

        def slow(request):
            time.sleep(0.3)
            return original(request)

        engine.execute = slow
        try:

            async def session():
                server = ServiceServer(engine)
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                envelope = encode_request(EvaluateRequest("db", QUERY))
                envelope.update(id=1, timeout_ms=30)
                writer.write((json.dumps(envelope) + "\n").encode())
                await writer.drain()
                raw = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10)
                )
                writer.close()
                await server.aclose()
                return raw

            raw = asyncio.run(session())
        finally:
            engine.execute = original
        assert not raw["ok"] and "deadline exceeded" in raw["error"]
        assert engine.metrics.counter("server.deadline_exceeded").value == 1
        assert engine.metrics.counter("server.overload").value == 0
