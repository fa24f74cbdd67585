"""Command-line interface.

Operates on a JSON database file of the form::

    {
      "relations": [
        {"name": "UserGroup", "schema": ["user", "group"],
         "rows": [["joe", "g1"], ["ann", "g1"]]},
        {"name": "GroupFile", "schema": ["group", "file"],
         "rows": [["g1", "f1"]]}
      ]
    }

Sub-commands (query syntax is the DSL of :mod:`repro.algebra.parser`)::

    repro show DB.json
    repro eval DB.json "PROJECT[user, file](UserGroup JOIN GroupFile)"
    repro classify "PROJECT[user, file](UserGroup JOIN GroupFile)"
    repro normalize DB.json QUERY
    repro plan DB.json QUERY
    repro witnesses DB.json QUERY '["joe", "f1"]'
    repro delete DB.json QUERY '["joe", "f1"]' --objective view
    repro annotate DB.json QUERY '["joe", "f1"]' file
    repro apply DB.json --delete '["UserGroup", ["joe", "g1"]]'
    repro apply DB.json --insert '["GroupFile", ["g2", "f9"]]' --dry-run
    repro serve DB.json --port 7464
    repro serve DB.json --slow-query-ms 50 --trace-dir /tmp/traces
    repro stats 127.0.0.1:7464
    repro stats 127.0.0.1:7464 --format text

``apply`` performs a *real* write: the pair flags are repeatable, the
delta is normalized to its net effect (delete-then-insert of the same row
is a no-op), and the updated database is written back to the file unless
``--dry-run`` is given.

``serve`` starts the long-lived serving engine (:mod:`repro.service`): an
asyncio front door speaking newline-delimited JSON request/response
envelopes (see :mod:`repro.service.requests`), with micro-batching of
hypothetical-deletion candidates.  ``--name``
sets the registry name requests address the database by (default ``db``);
``--max-requests N`` serves N requests and exits (smoke tests);
``--port-file PATH`` writes the bound ``host port`` once listening, so
callers that passed ``--port 0`` learn the kernel-chosen port.

Serving is observable (:mod:`repro.observability`): ``--slow-query-ms T``
streams every request slower than ``T`` milliseconds to stderr (with the
rendered plan and witness build stats attached) and keeps the offenders
in the slow-query ring a ``StatsRequest`` reads back; ``--trace-dir DIR``
buffers per-request span trees and dumps them as Chrome trace-event JSON
(``DIR/repro-trace-<pid>.json``, loadable in ``chrome://tracing`` or
Perfetto) on shutdown.

``stats`` asks a running server for its live observability snapshot over
one NDJSON request — request counters, per-kind latency histograms
(p50/p95/p99), batcher queue stats, cache counters, and recent
slow-query entries.  Every request the engine answers counts once in
``requests``, batched hypotheticals included (here 871 of the 1042, in
112 kernel calls).  The ``cache`` line counts lookups of the warm
per-(database, query) entries every read answers from, plus the shared
provenance memo's own (which cold entry builds reach).  ``--format text``
prints the Prometheus-style text exposition instead (the HTTP-free
``/metrics`` equivalent)::

    $ repro stats 127.0.0.1:7464
    requests: 1042   errors: 0
    service.latency.hypothetical: p50=512.0us p95=2.0ms p99=4.1ms (n=871)
    batcher: pending=3 batches_issued=112 coalesced_requests=759 expired=0 overloads=0
    cache: hits=1650 misses=12 evictions=0
    slow queries (threshold 50.0ms): 2 logged
      0.0613s hypothetical db PROJECT[user, file](UserGroup JOIN GroupFile)

Exit status is 0 on success, 2 on usage errors, 1 on library errors (which
are printed, not raised).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.errors import ParseError, ReproError
from repro.algebra import (
    Database,
    Relation,
    compile_plan,
    evaluate,
    is_normal_form,
    normalize,
    parse_query,
    query_class,
    render_query_tree,
    render_relation,
)
from repro.algebra.ast import Query
from repro.algebra.render import render_plan
from repro.annotation import place_annotation
from repro.deletion import delete_view_tuple, minimum_source_deletion, verify_plan
from repro.provenance import Location, why_provenance

__all__ = ["main", "load_database"]


def load_database(path: str) -> Database:
    """Load a JSON database file (see module docstring for the format)."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "relations" not in payload:
        raise ReproError(f"{path}: expected an object with a 'relations' key")
    entries = payload["relations"]
    if not isinstance(entries, list):
        raise ReproError(
            f"{path}: 'relations' must be a list of relation objects, "
            f"got {type(entries).__name__}"
        )
    relations = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ReproError(
                f"{path}: relations[{position}] must be an object with "
                f"name, schema and rows, got {entry!r}"
            )
        try:
            name, schema, rows = entry["name"], entry["schema"], entry["rows"]
        except KeyError as missing:
            raise ReproError(
                f"{path}: relation entry is missing key {missing}"
            ) from None
        if not isinstance(schema, list) or not (
            isinstance(rows, list) and all(isinstance(r, list) for r in rows)
        ):
            raise ReproError(
                f"{path}: relation {name!r} needs a list schema and a list "
                f"of row lists, got schema {schema!r} and rows {rows!r}"
            )
        relations.append(Relation(name, schema, [tuple(row) for row in rows]))
    return Database(relations)


def _parse_query_cli(text: str) -> Query:
    """Parse a query, pointing at the offending token on failure.

    A :class:`ParseError` carries the character offset of the problem; the
    CLI renders the query with a caret under that position so the error
    names the offending subexpression instead of just describing it.
    """
    try:
        return parse_query(text)
    except ParseError as err:
        if err.position is None or err.position < 0:
            raise
        caret = " " * err.position + "^"
        raise ReproError(
            f"{err}\nin query:\n  {text}\n  {caret}"
        ) from None


def _locate_ill_typed_subquery(query: Query, catalog) -> "Query | None":
    """The smallest subquery that fails schema inference over ``catalog``.

    Children are smaller than their parents, so scanning subqueries in
    size order finds the innermost offender first.
    """
    for sub in sorted(query.subqueries(), key=Query.size):
        try:
            sub.output_schema(catalog)
        except ReproError:
            return sub
    return None


def _reraise_with_subexpression(err: ReproError, query: Query, catalog) -> None:
    """Re-raise ``err`` naming the offending subexpression, rendered."""
    offender = _locate_ill_typed_subquery(query, catalog)
    if offender is None:
        raise err
    raise ReproError(
        f"{err}\nin subexpression:\n{render_query_tree(offender, '  ')}"
    ) from None


def _positive_int(text: str) -> int:
    """argparse type for flags that must be a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid positive integer {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _parse_row(text: str) -> tuple:
    """Parse a view row given as a JSON array on the command line."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReproError(f"invalid row {text!r}: {err}") from None
    if not isinstance(values, list):
        raise ReproError(f"row must be a JSON array, got {text!r}")
    return tuple(values)


def _cmd_show(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    for name in db:
        print(render_relation(db[name]))
        print()


def _cmd_eval(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    query = _parse_query_cli(args.query)
    print(render_relation(evaluate(query, db)))


def _cmd_classify(args: argparse.Namespace) -> None:
    query = _parse_query_cli(args.query)
    letters = query_class(query, include_rename=True)
    print(f"operators: {letters or '(none)'}")
    print(f"normal form: {is_normal_form(query)}")
    print(render_query_tree(query))


def _cmd_normalize(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    query = _parse_query_cli(args.query)
    catalog = {name: db[name].schema for name in db}
    try:
        print(render_query_tree(normalize(query, catalog)))
    except ReproError as err:
        _reraise_with_subexpression(err, query, catalog)


def _cmd_plan(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    query = _parse_query_cli(args.query)
    catalog = {name: db[name].schema for name in db}
    plan = compile_plan(query, catalog, optimizer_level=int(args.optimize))
    print(f"output schema: ({', '.join(plan.schema.attributes)})")
    print("logical plan (input):")
    print(render_query_tree(query, "  "))
    if args.optimize:
        print("logical plan (optimized):")
        print(render_query_tree(plan.logical, "  "))
        applied = ", ".join(plan.rewrites) if plan.rewrites else "none"
        print(f"applied rewrites: {applied}")
    print("physical plan:")
    print(render_plan(plan, "  "))


def _cmd_witnesses(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    query = _parse_query_cli(args.query)
    row = _parse_row(args.row)
    prov = why_provenance(query, db)
    for index, witness in enumerate(sorted(prov.witnesses(row), key=repr), 1):
        parts = ", ".join(f"{rel}{list(r)!r}" for rel, r in sorted(witness, key=repr))
        print(f"witness {index}: {parts}")


def _cmd_delete(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    query = _parse_query_cli(args.query)
    row = _parse_row(args.row)
    if args.objective == "view":
        plan = delete_view_tuple(
            query,
            db,
            row,
            allow_exponential=not args.no_exponential,
        )
    else:
        plan = minimum_source_deletion(
            query,
            db,
            row,
            allow_exponential=not args.no_exponential,
        )
    verify_plan(query, db, plan)
    print(f"algorithm: {plan.algorithm}")
    print(f"optimal: {plan.optimal}")
    for rel, r in plan.sorted_deletions():
        print(f"delete: {rel}{list(r)!r}")
    if plan.side_effects:
        for effect in sorted(plan.side_effects, key=repr):
            print(f"side effect: view row {list(effect)!r} also removed")
    else:
        print("side effects: none")


def _parse_pair(text: str) -> tuple:
    """Parse a ``'["Relation", [v1, v2]]'`` pair from the command line."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReproError(f"invalid pair {text!r}: {err}") from None
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
        or not isinstance(value[1], list)
    ):
        raise ReproError(
            f"pair must be a JSON array [relation, row], got {text!r}"
        )
    return (value[0], tuple(value[1]))


def _save_database(db: Database, path: str) -> None:
    """Write ``db`` back to the JSON file format ``load_database`` reads."""
    payload = {
        "relations": [
            {
                "name": name,
                "schema": list(db[name].schema.attributes),
                "rows": [list(row) for row in db[name].sorted_rows()],
            }
            for name in db
        ]
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _cmd_apply(args: argparse.Namespace) -> None:
    from repro.versioning import VersionedDatabase

    db = load_database(args.database)
    vdb = VersionedDatabase(db)
    delta = vdb.apply_delta(
        deletions=[_parse_pair(text) for text in args.delete or ()],
        inserts=[_parse_pair(text) for text in args.insert or ()],
    )
    print(f"epoch: {vdb.epoch}")
    print(f"deleted: {len(delta.deletions)}")
    print(f"inserted: {len(delta.inserts)}")
    for rel, row in delta.deletions:
        print(f"- {rel}{list(row)!r}")
    for rel, row in delta.inserts:
        print(f"+ {rel}{list(row)!r}")
    if args.dry_run:
        print("dry run: file not modified")
    elif delta:
        _save_database(vdb.db, args.database)
    else:
        print("no net change: file not modified")


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import os

    from repro.observability import SlowQueryLog, TraceSink, install_sink
    from repro.service import MicroBatcher, ServiceEngine, ServiceServer

    db = load_database(args.database)

    slow_log = None
    if args.slow_query_ms is not None:

        def _report(entry: dict) -> None:
            line = (
                f"slow query: {entry['seconds']:.4f}s {entry['kind']} "
                f"{entry['database']} {entry['query']}"
            )
            if "plan" in entry:
                line += f"\n  plan:\n    " + str(entry["plan"]).replace(
                    "\n", "\n    "
                )
            if "build_stats" in entry:
                line += f"\n  build_stats: {entry['build_stats']}"
            print(line, file=sys.stderr, flush=True)

        slow_log = SlowQueryLog(
            threshold_s=args.slow_query_ms / 1000.0, sink=_report
        )

    sink = None
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        sink = TraceSink()
        install_sink(sink)

    async def run() -> None:
        with ServiceEngine(
            {args.name: db}, slow_query_log=slow_log
        ) as engine:
            with MicroBatcher(
                engine,
                max_batch=args.max_batch,
                max_delay_s=args.batch_delay_ms / 1000.0,
                max_pending=args.max_pending,
            ) as batcher:
                server = ServiceServer(
                    engine,
                    host=args.host,
                    port=args.port,
                    batcher=batcher,
                    max_requests=args.max_requests,
                )
                host, port = await server.start()
                print(f"serving {args.name!r} on {host}:{port}", flush=True)
                if args.port_file:
                    with open(args.port_file, "w") as handle:
                        handle.write(f"{host} {port}\n")
                try:
                    await server.wait_closed()
                finally:
                    await server.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        if sink is not None:
            install_sink(None)
            path = os.path.join(
                args.trace_dir, f"repro-trace-{os.getpid()}.json"
            )
            events = sink.dump(path)
            print(f"trace: {events} events -> {path}", file=sys.stderr)


def _format_latency(seconds: "float | None") -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.3f}s"


def _cmd_stats(args: argparse.Namespace) -> None:
    import socket

    from repro.service import StatsRequest, encode_request

    host, _, port_text = args.address.rpartition(":")
    if not host or not port_text.isdigit():
        raise ReproError(
            f"address must be host:port, got {args.address!r}"
        )
    payload = encode_request(StatsRequest(format=args.format))
    payload["id"] = 1
    try:
        with socket.create_connection(
            (host, int(port_text)), timeout=args.timeout_s
        ) as conn:
            conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
    except OSError as err:
        raise ReproError(f"cannot reach {args.address}: {err}") from None
    envelope = json.loads(data.decode("utf-8"))
    if not envelope.get("ok"):
        raise ReproError(f"server answered: {envelope.get('error')}")
    if args.format == "text":
        print(envelope.get("text", ""), end="")
        return
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
        return
    stats = envelope.get("stats", {})
    metrics = envelope.get("metrics", {})
    print(f"requests: {stats.get('requests', 0)}   errors: {stats.get('errors', 0)}")
    for name, snap in sorted(metrics.get("histograms", {}).items()):
        if not snap.get("count"):
            continue
        # Histograms are latencies unless the name says otherwise
        # (batcher.batch_size counts requests, not seconds).
        timed = "seconds" in name or ".latency." in name
        fmt = _format_latency if timed else (lambda v: "-" if v is None else f"{v:g}")
        print(
            f"{name}: p50={fmt(snap.get('p50'))} "
            f"p95={fmt(snap.get('p95'))} "
            f"p99={fmt(snap.get('p99'))} (n={snap['count']})"
        )
    batcher = stats.get("batcher")
    if isinstance(batcher, dict):
        print(
            f"batcher: pending={batcher.get('pending', 0)} "
            f"batches_issued={batcher.get('batches_issued', 0)} "
            f"coalesced_requests={batcher.get('coalesced_requests', 0)} "
            f"expired={batcher.get('expired', 0)} "
            f"overloads={batcher.get('overloads', 0)}"
        )
    cache = stats.get("cache")
    if isinstance(cache, dict):
        print(
            f"cache: hits={cache.get('hits', 0)} misses={cache.get('misses', 0)} "
            f"evictions={cache.get('evictions', 0)}"
        )
    slow = envelope.get("slow_queries", [])
    if slow:
        threshold = slow[-1].get("threshold_s", 0.0)
        print(f"slow queries (threshold {threshold * 1e3:.1f}ms): {len(slow)} logged")
        for entry in slow[-args.slow_limit:]:
            print(
                f"  {entry.get('seconds', 0.0):.4f}s {entry.get('kind', '?')} "
                f"{entry.get('database', '?')} {entry.get('query', '')}"
            )


def _cmd_annotate(args: argparse.Namespace) -> None:
    db = load_database(args.database)
    query = _parse_query_cli(args.query)
    row = _parse_row(args.row)
    target = Location("V", row, args.attribute)
    placement = place_annotation(
        query, db, target, allow_exponential=not args.no_exponential
    )
    print(f"algorithm: {placement.algorithm}")
    print(f"annotate: {placement.source}")
    for location in sorted(map(str, placement.propagated)):
        print(f"propagates to: {location}")
    print(f"side effects: {placement.num_side_effects}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deletion and annotation propagation through views "
        "(Buneman, Khanna, Tan — PODS 2002).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="print every relation of a database")
    p_show.add_argument("database", help="path to a JSON database file")
    p_show.set_defaults(handler=_cmd_show)

    p_eval = sub.add_parser("eval", help="evaluate a query and print the view")
    p_eval.add_argument("database")
    p_eval.add_argument("query", help="query in the DSL syntax")
    p_eval.set_defaults(handler=_cmd_eval)

    p_classify = sub.add_parser("classify", help="show a query's class and tree")
    p_classify.add_argument("query")
    p_classify.set_defaults(handler=_cmd_classify)

    p_norm = sub.add_parser("normalize", help="print the Theorem 3.1 normal form")
    p_norm.add_argument("database")
    p_norm.add_argument("query")
    p_norm.set_defaults(handler=_cmd_normalize)

    p_plan = sub.add_parser(
        "plan",
        help="print the logical (before/after rewriting) and physical plans",
    )
    p_plan.add_argument("database")
    p_plan.add_argument("query")
    p_plan.add_argument(
        "--optimize",
        default=True,
        action=argparse.BooleanOptionalAction,
        help="run the logical rewriter: selection pushdown, connectivity "
        "join order, projection pruning (default: on; --no-optimize "
        "compiles the query exactly as written)",
    )
    p_plan.set_defaults(handler=_cmd_plan)

    p_wit = sub.add_parser("witnesses", help="list a view tuple's minimal witnesses")
    p_wit.add_argument("database")
    p_wit.add_argument("query")
    p_wit.add_argument("row", help="view row as a JSON array")
    p_wit.set_defaults(handler=_cmd_witnesses)

    p_del = sub.add_parser("delete", help="plan a view-tuple deletion")
    p_del.add_argument("database")
    p_del.add_argument("query")
    p_del.add_argument("row", help="view row as a JSON array")
    p_del.add_argument(
        "--objective",
        choices=("view", "source"),
        default="view",
        help="minimize view side effects (default) or source deletions",
    )
    p_del.add_argument(
        "--no-exponential",
        action="store_true",
        help="refuse/avoid exponential algorithms on the NP-hard fragments",
    )
    p_del.set_defaults(handler=_cmd_delete)

    p_apply = sub.add_parser(
        "apply", help="apply deletions/inserts to a database file"
    )
    p_apply.add_argument("database")
    p_apply.add_argument(
        "--delete",
        action="append",
        metavar="PAIR",
        help='a ["Relation", [v1, ...]] pair to delete (repeatable)',
    )
    p_apply.add_argument(
        "--insert",
        action="append",
        metavar="PAIR",
        help='a ["Relation", [v1, ...]] pair to insert (repeatable)',
    )
    p_apply.add_argument(
        "--dry-run",
        action="store_true",
        help="report the net delta without writing the file back",
    )
    p_apply.set_defaults(handler=_cmd_apply)

    p_serve = sub.add_parser(
        "serve",
        help="serve the database long-lived over newline-delimited JSON",
    )
    p_serve.add_argument("database", help="path to a JSON database file")
    p_serve.add_argument(
        "--name",
        default="db",
        help="registry name requests address the database by (default: db)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=7464,
        help="TCP port (0 lets the kernel choose; see --port-file)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=256,
        metavar="N",
        help="most deletion candidates coalesced into one kernel call",
    )
    p_serve.add_argument(
        "--batch-delay-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="longest a candidate waits for company before executing",
    )
    p_serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=10_000,
        metavar="N",
        help="bounded request queue; beyond it requests answer overload",
    )
    p_serve.add_argument(
        "--max-requests",
        type=_positive_int,
        default=None,
        metavar="N",
        help="serve N requests then exit (smoke tests; default: forever)",
    )
    p_serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound 'host port' here once listening",
    )
    p_serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log requests slower than MS milliseconds to stderr and keep "
        "them in the slow-query ring a StatsRequest reads back",
    )
    p_serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="buffer per-request span trees and dump Chrome trace-event "
        "JSON to DIR/repro-trace-<pid>.json on shutdown",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_stats = sub.add_parser(
        "stats",
        help="print a running server's live metrics/stats snapshot",
        description="Print a running server's live metrics/stats snapshot. "
        "The digest's cache hits and misses count warm-entry lookups "
        "(service.oracle.warm_hits / cold_builds: every read answers from "
        "its per-(database, query) entry) plus the shared provenance "
        "memo's own lookups.",
    )
    p_stats.add_argument(
        "address", help="the server's host:port (e.g. 127.0.0.1:7464)"
    )
    p_stats.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="json (default: a human-readable digest of the JSON snapshot) "
        "or text (the raw Prometheus-style exposition)",
    )
    p_stats.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON envelope instead of the digest",
    )
    p_stats.add_argument(
        "--timeout-s",
        type=float,
        default=10.0,
        metavar="S",
        help="connect/read timeout (default: 10s)",
    )
    p_stats.add_argument(
        "--slow-limit",
        type=_positive_int,
        default=10,
        metavar="N",
        help="most slow-query entries printed in the digest (default: 10)",
    )
    p_stats.set_defaults(handler=_cmd_stats)

    p_ann = sub.add_parser("annotate", help="plan an annotation placement")
    p_ann.add_argument("database")
    p_ann.add_argument("query")
    p_ann.add_argument("row", help="view row as a JSON array")
    p_ann.add_argument("attribute", help="view attribute to annotate")
    p_ann.add_argument("--no-exponential", action="store_true")
    p_ann.set_defaults(handler=_cmd_annotate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
