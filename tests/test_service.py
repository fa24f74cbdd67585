"""The serving engine: bit-identical answers, batching, deadlines, wire.

The invariant every test here circles: the serving path — engine dispatch,
micro-batched execution, the same-process client, the TCP front door —
answers **bit-identically** to the corresponding direct library call.
Batching and pooling change cost, never semantics.
"""

import asyncio
import json
import os
import socket
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import Database, Relation, evaluate, parse_query
from repro.deletion import HypotheticalDeletions, delete_view_tuple, minimum_source_deletion
from repro.provenance import where_provenance, why_provenance
from repro.service import (
    DeleteRequest,
    DeleteResponse,
    EvaluateRequest,
    HypotheticalRequest,
    MicroBatcher,
    Response,
    ServiceClient,
    ServiceEngine,
    ServiceError,
    ServiceOverloadError,
    ServiceServer,
    WhereRequest,
    WhyRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.requests import REQUEST_KINDS
from repro.workloads import usergroup_workload

QUERY = "PROJECT[user, file](UserGroup JOIN GroupFile)"


@pytest.fixture
def db(usergroup_db):
    return usergroup_db


@pytest.fixture
def engine(db):
    with ServiceEngine({"db": db}) as eng:
        yield eng


def _candidates(db):
    """Every single-tuple deletion: the component scans' vector."""
    return [frozenset({source}) for source in db.all_source_tuples()]


def _requests(db):
    """One request of every kind plus a spread of hypothetical candidates."""
    reqs = [
        EvaluateRequest("db", QUERY),
        WhyRequest("db", QUERY, ("joe", "f1")),
        WhereRequest("db", QUERY, ("joe", "f1"), "file"),
        DeleteRequest("db", QUERY, ("joe", "f1")),
        DeleteRequest("db", QUERY, ("ann", "f1"), objective="source"),
    ]
    reqs.extend(HypotheticalRequest("db", QUERY, c) for c in _candidates(db))
    return reqs


class TestEngineAnswersMatchDirectCalls:
    def test_evaluate(self, engine, db):
        query = parse_query(QUERY)
        response = engine.execute(EvaluateRequest("db", QUERY))
        view = evaluate(query, db)
        assert response.ok
        assert response.schema == view.schema.attributes
        assert frozenset(response.rows) == view.rows
        assert list(response.rows) == sorted(response.rows, key=repr)

    def test_why(self, engine, db):
        response = engine.execute(WhyRequest("db", QUERY, ("joe", "f1")))
        direct = why_provenance(parse_query(QUERY), db).witnesses(("joe", "f1"))
        assert response.ok
        assert frozenset(frozenset(w) for w in response.witnesses) == direct

    def test_where(self, engine, db):
        response = engine.execute(
            WhereRequest("db", QUERY, ("joe", "f1"), "file")
        )
        direct = where_provenance(parse_query(QUERY), db).backward(
            ("joe", "f1"), "file"
        )
        assert response.ok
        assert frozenset(response.locations) == direct

    def test_hypothetical(self, engine, db):
        oracle = HypotheticalDeletions(parse_query(QUERY), db)
        for candidate in _candidates(db):
            response = engine.execute(
                HypotheticalRequest("db", QUERY, candidate)
            )
            after = oracle.view_after(candidate)
            assert response.ok
            assert frozenset(response.destroyed) == oracle.rows - after
            assert response.surviving == len(after)

    @pytest.mark.parametrize("objective", ["view", "source"])
    def test_delete(self, engine, db, objective):
        solve = delete_view_tuple if objective == "view" else minimum_source_deletion
        response = engine.execute(
            DeleteRequest("db", QUERY, ("joe", "f1"), objective=objective)
        )
        plan = solve(parse_query(QUERY), db, ("joe", "f1"))
        assert response.ok
        assert response.algorithm == plan.algorithm
        assert response.optimal == plan.optimal
        assert frozenset(response.deletions) == plan.deletions
        assert frozenset(response.side_effects) == plan.side_effects

    def test_inexact_delete_routes_like_allow_exponential_false(self, engine, db):
        response = engine.execute(
            DeleteRequest("db", QUERY, ("joe", "f1"), objective="source", exact=False)
        )
        plan = minimum_source_deletion(
            parse_query(QUERY), db, ("joe", "f1"), allow_exponential=False
        )
        assert response.ok and response.algorithm == plan.algorithm


class TestEngineErrorsAndRegistry:
    def test_unknown_database(self, engine):
        response = engine.execute(EvaluateRequest("nope", QUERY))
        assert not response.ok and "no database" in response.error

    def test_unknown_relation(self, engine):
        response = engine.execute(EvaluateRequest("db", "PROJECT[x](Missing)"))
        assert not response.ok and "Missing" in response.error

    def test_parse_error(self, engine):
        response = engine.execute(EvaluateRequest("db", "PROJECT[("))
        assert not response.ok

    def test_row_not_in_view(self, engine):
        response = engine.execute(WhyRequest("db", QUERY, ("zoe", "f9")))
        assert not response.ok and "not in the view" in response.error

    def test_exponential_refusal_is_an_error_response(self, engine):
        response = engine.execute(
            DeleteRequest("db", QUERY, ("joe", "f1"), exact=False)
        )
        assert not response.ok and "NP-hard" in response.error

    def test_interned_query_object(self, engine):
        assert engine.query(QUERY) is engine.query(QUERY)

    def test_reregister_swaps_answers_and_drops_warm_state(self, engine, db):
        engine.execute(HypotheticalRequest("db", QUERY, frozenset()))
        assert engine.stats()["warm_oracles"] == 1
        smaller = db.delete([("GroupFile", ("g3", "f3"))])
        engine.register_database("db", smaller)
        assert engine.stats()["warm_oracles"] == 0
        response = engine.execute(EvaluateRequest("db", QUERY))
        assert frozenset(response.rows) == evaluate(parse_query(QUERY), smaller).rows

    def test_closed_engine_refuses(self, db):
        engine = ServiceEngine({"db": db})
        engine.close()
        assert not engine.execute(EvaluateRequest("db", QUERY)).ok
        with pytest.raises(ServiceError):
            engine.register_database("db", db)
        engine.close()  # idempotent

    def test_register_rejects_non_database(self, engine):
        with pytest.raises(ServiceError):
            engine.register_database("x", {"not": "a database"})


class TestWireCodec:
    def test_request_round_trip(self, db):
        for request in _requests(db):
            wire = json.loads(json.dumps(encode_request(request)))
            assert decode_request(wire) == request

    def test_response_round_trip(self, engine, db):
        for request in _requests(db):
            response = engine.execute(request)
            wire = json.loads(json.dumps(encode_response(response)))
            assert decode_response(wire) == response

    def test_error_response_round_trip(self):
        wire = encode_response(Response(ok=False, error="boom"))
        decoded = decode_response(json.loads(json.dumps(wire)))
        assert decoded == Response(ok=False, error="boom")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError):
            decode_request(["not", "a", "dict"])
        with pytest.raises(ServiceError):
            decode_request({"kind": "teleport"})
        with pytest.raises(ServiceError):
            decode_request({"kind": "why", "database": "db"})  # row missing
        with pytest.raises(ServiceError):
            decode_response({"kind": "why"})  # no ok
        with pytest.raises(ServiceError):
            DeleteRequest("db", QUERY, ("joe", "f1"), objective="sideways")


class TestBatchedExecution:
    def test_batch_alignment_and_dedup(self, engine, db):
        candidates = _candidates(db)
        vector = candidates + candidates[::-1] + [candidates[0]] * 5
        before = engine.stats()
        responses = engine.execute_hypothetical_batch("db", QUERY, vector)
        after = engine.stats()
        oracle = HypotheticalDeletions(parse_query(QUERY), db)
        assert len(responses) == len(vector)
        for deletions, response in zip(vector, responses):
            assert frozenset(response.destroyed) == (
                oracle.rows - oracle.view_after(deletions)
            )
        # Identical candidates share one answer object and were deduped.
        assert responses[0] is responses[-1]
        assert (
            after["deduped_candidates"] - before["deduped_candidates"]
            == len(vector) - len(candidates)
        )

    def test_batcher_coalesces_concurrent_candidates(self, engine, db):
        candidates = _candidates(db)
        serial = [
            engine.execute(HypotheticalRequest("db", QUERY, c))
            for c in candidates
        ]
        with MicroBatcher(engine, max_batch=256, max_delay_s=0.05) as batcher:
            before = batcher.stats()
            futures = [
                batcher.submit(HypotheticalRequest("db", QUERY, c))
                for c in candidates * 10
            ]
            answers = [f.result(timeout=10) for f in futures]
            stats = batcher.stats()
        assert answers == serial * 10  # bit-identical to unbatched execution
        assert stats["batches_issued"] - before["batches_issued"] < len(futures)
        assert stats["coalesced_requests"] > before["coalesced_requests"]

    def test_mixed_kinds_through_batcher(self, engine, db):
        requests = _requests(db)
        serial = [engine.execute(r) for r in requests]
        with ServiceClient(engine) as client:
            answers = [client.request(r) for r in requests]
        assert answers == serial

    def test_overlapping_client_requests_match_serial(self, engine, db):
        requests = _requests(db) * 4
        serial = [engine.execute(r) for r in requests]
        results: dict = {}
        with ServiceClient(engine, max_delay_s=0.01) as client:

            def worker(indices):
                for i in indices:
                    results[i] = client.request(requests[i])

            threads = [
                threading.Thread(target=worker, args=(range(k, len(requests), 8),))
                for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert [results[i] for i in range(len(requests))] == serial


class TestDeadlinesAndBackpressure:
    def test_expired_request_fails_fast(self, engine, db):
        with MicroBatcher(engine) as batcher:
            # A deadline already in the past when the scheduler pops it.
            future = batcher.submit(
                HypotheticalRequest("db", QUERY, frozenset()), timeout_s=0.0
            )
            response = future.result(timeout=5)
        assert not response.ok and "deadline exceeded" in response.error

    def test_bounded_queue_overloads(self, engine, db):
        release = threading.Event()
        original = engine.execute_hypothetical_batch

        def stalled(*args, **kwargs):
            release.wait(timeout=10)
            return original(*args, **kwargs)

        engine.execute_hypothetical_batch = stalled
        try:
            with MicroBatcher(engine, max_pending=1, max_delay_s=0.0) as batcher:
                first = batcher.submit(
                    HypotheticalRequest("db", QUERY, frozenset())
                )
                deadline = time.monotonic() + 5
                overloaded = False
                pending = []
                while time.monotonic() < deadline and not overloaded:
                    try:
                        pending.append(
                            batcher.submit(
                                HypotheticalRequest("db", QUERY, frozenset())
                            )
                        )
                    except ServiceOverloadError:
                        overloaded = True
                assert overloaded
                release.set()
                assert first.result(timeout=10).ok
        finally:
            engine.execute_hypothetical_batch = original
            release.set()

    def test_closed_batcher_rejects_and_drains(self, engine, db):
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(ServiceOverloadError):
            batcher.submit(EvaluateRequest("db", QUERY))

    def test_malformed_payload_cannot_kill_the_scheduler(self, engine, db):
        """Regression: a request whose payload blows up outside ReproError
        (an unhashable row that slipped past the decoder) must answer an
        error — and the scheduler must keep serving afterwards."""
        poison = WhyRequest.__new__(WhyRequest)
        object.__setattr__(poison, "database", "db")
        object.__setattr__(poison, "query", QUERY)
        object.__setattr__(poison, "row", ([1],))  # unhashable inside
        direct = engine.execute(poison)
        assert not direct.ok and "TypeError" in direct.error
        with MicroBatcher(engine) as batcher:
            bad = batcher.submit(poison).result(timeout=10)
            assert not bad.ok
            good = batcher.submit(EvaluateRequest("db", QUERY)).result(timeout=10)
            assert good.ok  # the scheduler survived the poison request


def _run_server_session(engine, lines, max_requests=None, **server_kw):
    """Start a server, pipeline ``lines``, return the decoded responses."""

    async def session():
        server = ServiceServer(engine, max_requests=max_requests, **server_kw)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        for line in lines:
            writer.write((line + "\n").encode())
        await writer.drain()
        writer.write_eof()
        responses = []
        while len(responses) < len(lines):
            raw = await asyncio.wait_for(reader.readline(), timeout=15)
            if not raw:
                break
            responses.append(json.loads(raw))
        writer.close()
        await server.aclose()
        return responses

    return asyncio.run(session())


class TestServer:
    def test_pipelined_mixed_traffic_matches_direct(self, engine, db):
        requests = _requests(db)
        lines = []
        for i, request in enumerate(requests):
            envelope = encode_request(request)
            envelope["id"] = i
            lines.append(json.dumps(envelope))
        raw = _run_server_session(engine, lines)
        assert len(raw) == len(requests)
        by_id = {r["id"]: r for r in raw}
        for i, request in enumerate(requests):
            assert decode_response(by_id[i]) == engine.execute(request)

    def test_malformed_lines_answer_errors(self, engine):
        raw = _run_server_session(
            engine,
            [
                "this is not json",
                json.dumps({"id": 9, "kind": "teleport"}),
                json.dumps({"id": 10, "kind": "why", "database": "db"}),
            ],
        )
        assert [r["ok"] for r in raw] == [False, False, False]
        by_id = {r.get("id"): r for r in raw}
        assert "invalid JSON" in by_id[None]["error"]
        assert "unknown request kind" in by_id[9]["error"]
        assert "malformed" in by_id[10]["error"]

    def test_deadline_exceeded_on_slow_request(self, engine, db):
        original = engine.execute

        def slow(request):
            time.sleep(0.3)
            return original(request)

        engine.execute = slow
        try:
            envelope = encode_request(EvaluateRequest("db", QUERY))
            envelope.update(id=1, timeout_ms=30)
            raw = _run_server_session(engine, [json.dumps(envelope)])
        finally:
            engine.execute = original
        assert not raw[0]["ok"] and "deadline exceeded" in raw[0]["error"]

    def test_max_requests_stops_the_server(self, engine):
        async def session():
            server = ServiceServer(engine, max_requests=2)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            for i in range(2):
                envelope = encode_request(EvaluateRequest("db", QUERY))
                envelope["id"] = i
                writer.write((json.dumps(envelope) + "\n").encode())
            await writer.drain()
            out = [json.loads(await reader.readline()) for _ in range(2)]
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            await server.aclose()
            return out, server.requests_served

        # The server answers both, then closes itself.
        out, served = asyncio.run(session())
        assert all(r["ok"] for r in out) and served == 2

    def test_max_requests_counts_sequential_requests_once(self, engine):
        # Regression: with one request awaited at a time, earlier requests
        # are finished (counted in ``requests_served``) while still in the
        # connection's task list — summing the two made the server stop one
        # request early, drop the final response, and never shut down.
        async def session():
            server = ServiceServer(engine, max_requests=3)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            out = []
            for i in range(3):
                envelope = encode_request(EvaluateRequest("db", QUERY))
                envelope["id"] = i
                writer.write((json.dumps(envelope) + "\n").encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), timeout=15)
                assert raw, f"connection dropped before response {i}"
                out.append(json.loads(raw))
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            await server.aclose()
            return out, server.requests_served

        out, served = asyncio.run(session())
        assert [r["id"] for r in out] == [0, 1, 2]
        assert all(r["ok"] for r in out) and served == 3


class TestServeCli:
    def test_serve_cli_end_to_end(self, tmp_path):
        from repro.cli import main

        db_path = tmp_path / "db.json"
        db_path.write_text(
            json.dumps(
                {
                    "relations": [
                        {
                            "name": "UserGroup",
                            "schema": ["user", "group"],
                            "rows": [["joe", "g1"], ["ann", "g1"]],
                        },
                        {
                            "name": "GroupFile",
                            "schema": ["group", "file"],
                            "rows": [["g1", "f1"]],
                        },
                    ]
                }
            )
        )
        port_file = tmp_path / "port"
        exit_codes: list = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(
                main(
                    [
                        "serve",
                        str(db_path),
                        "--port",
                        "0",
                        "--port-file",
                        str(port_file),
                        "--max-requests",
                        "2",
                    ]
                )
            )
        )
        thread.start()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.02)
        host, port = port_file.read_text().split()
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            payload = (
                json.dumps(
                    {
                        "id": 1,
                        "kind": "evaluate",
                        "database": "db",
                        "query": QUERY,
                    }
                )
                + "\n"
                + json.dumps(
                    {
                        "id": 2,
                        "kind": "hypothetical",
                        "database": "db",
                        "query": QUERY,
                        "deletions": [["GroupFile", ["g1", "f1"]]],
                    }
                )
                + "\n"
            )
            sock.sendall(payload.encode())
            buf = b""
            while buf.count(b"\n") < 2:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert exit_codes == [0]
        responses = {r["id"]: r for r in map(json.loads, buf.splitlines())}
        assert responses[1]["ok"]
        assert sorted(responses[1]["rows"]) == [["ann", "f1"], ["joe", "f1"]]
        assert responses[2]["ok"]
        assert sorted(responses[2]["destroyed"]) == [["ann", "f1"], ["joe", "f1"]]

    def test_serve_is_in_the_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "DB.json", "--port", "0", "--max-requests", "3"]
        )
        assert args.command == "serve" and args.max_requests == 3
        with pytest.raises(SystemExit):  # the retired --workers flag
            build_parser().parse_args(["serve", "DB.json", "--workers", "2"])


class TestScaledServingEquivalence:
    def test_scaling_workload_served_answers_match(self):
        db, query, target = usergroup_workload(40, 12, 12, seed=9)
        text = "PROJECT[user, file](UserGroup JOIN GroupFile)"
        assert parse_query(text) == query
        candidates = [frozenset({s}) for s in db.all_source_tuples()]
        oracle = HypotheticalDeletions(query, db)
        with ServiceEngine({"big": db}) as engine:
            with ServiceClient(engine, max_delay_s=0.01) as client:
                futures = [
                    client.submit(HypotheticalRequest("big", text, c))
                    for c in candidates
                ]
                for candidate, future in zip(candidates, futures):
                    response = future.result(timeout=30)
                    assert response.ok
                    assert frozenset(response.destroyed) == (
                        oracle.rows - oracle.view_after(candidate)
                    )


class TestServerAnswersEveryLine:
    def test_malformed_deletions_nan_timeout_and_deep_query(self, engine, db):
        good = encode_request(EvaluateRequest("db", QUERY))
        good["id"] = 4
        deep = "(" * 3000 + "UserGroup" + ")" * 3000
        deep_predicate = "SELECT[" + "NOT " * 3000 + "TRUE](UserGroup)"
        internal = engine.metrics.counter("server.internal_errors")
        internal_before = internal.value
        lines = [
            json.dumps(
                {"id": 1, "kind": "hypothetical", "database": "db",
                 "query": QUERY, "deletions": "zz"}
            ),
            # json.dumps writes NaN as the bare literal json.loads accepts.
            json.dumps(dict(good, id=2, timeout_ms=float("nan"))),
            json.dumps(
                {"id": 3, "kind": "hypothetical", "database": "db",
                 "query": deep, "deletions": []}
            ),
            json.dumps(good),
            json.dumps(
                {"id": 5, "kind": "evaluate", "database": "db",
                 "query": deep_predicate}
            ),
        ]
        raw = _run_server_session(engine, lines)
        assert len(raw) == 5
        by_id = {r["id"]: r for r in raw}
        assert sorted(by_id) == [1, 2, 3, 4, 5]
        assert not by_id[1]["ok"] and "relation, row" in by_id[1]["error"]
        assert not by_id[2]["ok"] and "timeout_ms" in by_id[2]["error"]
        # Too-deep input is a parse error, not a crash behind the catch-all.
        for deep_id in (3, 5):
            assert not by_id[deep_id]["ok"]
            assert "nesting deeper than" in by_id[deep_id]["error"]
            assert "internal error" not in by_id[deep_id]["error"]
        assert by_id[4]["ok"]
        assert internal.value == internal_before

    def test_unexpected_error_still_answers_and_counts(self, engine, monkeypatch):
        from repro.service import server as server_module

        def boom(payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(server_module, "decode_request", boom)
        envelope = dict(encode_request(EvaluateRequest("db", QUERY)), id=5)

        async def session():
            server = ServiceServer(engine, max_requests=1)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((json.dumps(envelope) + "\n").encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=15)
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            writer.close()
            await server.aclose()
            return json.loads(raw), server.requests_served

        raw, served = asyncio.run(session())
        assert raw["id"] == 5 and not raw["ok"]
        assert "internal error: RuntimeError: boom" in raw["error"]
        assert served == 1

    @pytest.mark.parametrize(
        "deletions",
        ["zz", 5, [["R"]], [[1, [2]]], [["R", "ab"]], [["R", [[1]]]], None],
    )
    def test_decode_rejects_non_pair_deletions(self, deletions):
        payload = {"kind": "hypothetical", "database": "db", "query": QUERY,
                   "deletions": deletions}
        with pytest.raises(ServiceError):
            decode_request(payload)
        with pytest.raises(ServiceError):
            decode_request(dict(payload, kind="apply_delta"))

    def test_connection_holds_only_pending_tasks(self, engine):
        import gc
        import weakref

        from repro.service import server as server_module

        refs = []
        original = server_module.ServiceServer._serve_line

        async def recording(self, *args):
            refs.append(weakref.ref(asyncio.current_task()))
            await original(self, *args)

        requests = 60

        async def session():
            server = ServiceServer(engine, max_requests=requests)
            server._serve_line = recording.__get__(server)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            envelope = encode_request(EvaluateRequest("db", QUERY))
            live = []
            for i in range(requests):
                writer.write((json.dumps(dict(envelope, id=i)) + "\n").encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), timeout=15)
                assert json.loads(raw)["ok"]
                await asyncio.sleep(0)  # let the finished task's callbacks run
                gc.collect()
                live.append(sum(ref() is not None for ref in refs))
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            writer.close()
            await server.aclose()
            return live, server.requests_served

        live, served = asyncio.run(session())
        # One request in flight at a time: finished tasks are released,
        # so the handler never holds more than a couple alive.
        assert served == requests
        assert max(live) <= 2, live

    @pytest.mark.parametrize(
        "timeout_ms", [float("nan"), float("inf"), float("-inf"), "5", True]
    )
    def test_non_finite_or_non_numeric_timeout_is_rejected(self, engine, timeout_ms):
        envelope = dict(encode_request(EvaluateRequest("db", QUERY)), id=7)
        envelope["timeout_ms"] = timeout_ms
        (raw,) = _run_server_session(engine, [json.dumps(envelope)])
        assert raw["id"] == 7 and not raw["ok"]
        assert "timeout_ms must be a finite number" in raw["error"]


#: Arbitrary JSON values, NaN and infinities included (the server's
#: json.loads accepts the bare literals json.dumps writes for them).
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)

#: Request-shaped objects: a real or fuzzed kind, plausible or fuzzed fields.
_fuzzed_requests = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(sorted(REQUEST_KINDS)), _json_values)},
    optional={
        "database": st.one_of(st.just("db"), _json_values),
        "query": st.one_of(st.just(QUERY), _json_values),
        "deletions": st.one_of(st.just([["GroupFile", ["g1", "f1"]]]), _json_values),
        "inserts": _json_values,
        "timeout_ms": st.one_of(
            st.floats(), st.integers(min_value=-(2**70), max_value=2**70), _json_values
        ),
        "row": st.one_of(st.just(["joe", "f1"]), _json_values),
        "target": st.one_of(st.just(["joe", "f1"]), _json_values),
        "attribute": st.one_of(st.just("user"), _json_values),
        "objective": _json_values,
        "format": _json_values,
    },
)


def _answerable(line: bytes) -> bool:
    """One request line the server must answer: no newline, not blank."""
    return b"\n" not in line and bool(line.decode("utf-8", "replace").strip())


_wire_lines = st.lists(
    st.one_of(
        _json_values.map(lambda v: json.dumps(v).encode()),
        _fuzzed_requests.map(lambda v: json.dumps(v).encode()),
        st.binary(min_size=1, max_size=40).filter(_answerable),
    ),
    min_size=1,
    max_size=6,
)


class TestWireFuzz:
    """Arbitrary lines over a live socket: one answer each, server unharmed."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=_wire_lines)
    def test_every_line_answered_and_server_keeps_serving(self, db, lines):
        probe = dict(encode_request(EvaluateRequest("db", QUERY)), id="probe")

        async def session(engine):
            server = ServiceServer(engine, default_timeout_s=10.0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            for line in lines:
                writer.write(line + b"\n")
            await writer.drain()
            answers = [
                json.loads(await asyncio.wait_for(reader.readline(), timeout=15))
                for _ in lines
            ]
            writer.write((json.dumps(probe) + "\n").encode())
            writer.write_eof()
            probe_answer = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=15)
            )
            trailing = await asyncio.wait_for(reader.read(), timeout=15)
            writer.close()
            await server.aclose()
            return answers, probe_answer, trailing

        with ServiceEngine({"db": db}) as engine:
            internal = engine.metrics.counter("server.internal_errors")
            before = internal.value
            answers, probe_answer, trailing = asyncio.run(session(engine))
            expected = encode_response(engine.execute(decode_request(probe)))
        assert all(isinstance(answer.get("ok"), bool) for answer in answers)
        assert trailing == b""  # exactly one answer per line, nothing more
        assert probe_answer.pop("id") == "probe"
        assert probe_answer == expected and probe_answer["ok"]
        assert internal.value == before
