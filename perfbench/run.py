"""The repository's end-to-end benchmark: ``repro serve`` measured over TCP.

Run from the repository root::

    python3 perfbench/run.py --workload probe_small --seed 1 --seconds 10 --trace 0

It starts the unmodified ``repro serve`` (default flags, a kernel-chosen
port) on a database generated from the seed, drives one of the workloads
in ``workloads.py`` through the closed-loop client in ``loadgen.py``, then
checks every answer against the in-process library and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A readable summary goes to standard error.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
of ``SETUP_STARTS`` server starts, each timed from spawning the process
until every warm-up request (one per query and kind the workload uses,
cold builds included) has answered; the last server started serves the
measured window.

``--trace 1`` reports the per-layer metrics.  It measures two windows of
half the length each: one untraced, whose ``StatsRequest`` snapshots
(taken before and after it) give the counts, and one through
``traced_serve.py``, whose spans give each layer's time.  Their throughput
ratio is ``trace.overhead_pct``.  Layer times are thread CPU time, so time
a thread spends waiting for the interpreter lock is not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

import loadgen

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

#: Server starts per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_STARTS = 9
#: The pre-encoded stream holds this many requests per measured second;
#: a window that exhausts it ends early (and says so).
STREAM_RATE_CAP = {"probe_small": 12000, "probe_wide": 4000, "write_mix": 2000}
#: Solver algorithms the workloads reach (``deletion.solve_us.<algorithm>``).
SOLVE_ALGORITHMS = ("chain-join-min-cut",)
#: Throughput and latency percentiles are medians over consecutive
#: sub-windows this many seconds long.  Stalls of the host (CPU steal, a
#: neighbour's burst) hit a few sub-windows and the median passes over
#: them; a slower program is slower in every sub-window.
SUBWINDOW_S = 2.0
KINDS = ("hypothetical", "why", "where", "evaluate", "delete", "apply_delta")
CLASSES = ("probe", "read", "write", "solve")
#: Layers, named by their module under src/repro/; a span's layer is the
#: part of its name before the first dot.
LAYERS = ("server", "batcher", "engine", "algebra", "cache", "bitset", "why", "where", "columnar", "deletion", "versioning")


def _quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation between order statistics)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """One benchmark invocation: a workload, its files and its servers."""

    def __init__(self, name: str, seed: int, seconds: float):
        import workloads

        self.workload = workloads.WORKLOADS[name](seed, int(seconds * STREAM_RATE_CAP[name]) + 1)
        self.workdir = os.path.join(HERE, "_work", f"{name}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.db_path = os.path.join(self.workdir, "db.json")
        with open(self.db_path, "w") as handle:
            json.dump(self.workload.db_payload(), handle)
        bodies = [json.dumps(wire)[1:].encode("utf-8") for wire in self.workload.pool]
        self.encoded = [b'{"id": %d, ' % i + bodies[slot] + b"\n" for i, slot in enumerate(self.workload.order)]
        self.warm_lines = [loadgen.encode_line(-1 - k, wire) for k, wire in enumerate(self.workload.warmup)]
        self.classes = [workloads.KIND_CLASS[self.workload.pool[slot]["kind"]] for slot in self.workload.order]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        self.serve_args = ["serve", self.db_path]
        #: The raw warm-up answers of every server start.
        self.warm_answers: List[List[bytes]] = []

    def start(self, traced_spans: Optional[str] = None):
        """Start a server and answer the warm-up; returns (server, seconds)."""
        if traced_spans is None:
            argv = [sys.executable, "-m", "repro.cli"] + self.serve_args
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"), traced_spans] + self.serve_args
        started = time.perf_counter()
        server = loadgen.Server(argv, ROOT, self.env, self.workdir)
        try:
            answers = loadgen.call(server.address, self.warm_lines)
        except BaseException:
            server.stop()
            raise
        elapsed = time.perf_counter() - started
        self.warm_answers.append(answers)
        return server, elapsed

    def measure(self, server, seconds: float) -> dict:
        """One closed-loop window plus the server-side readings around it."""
        wl = self.workload
        before = loadgen.stats_snapshot(server.address)
        cpu0 = server.cpu_seconds()
        window = loadgen.run_window(
            server.address, self.encoded, seconds, wl.connections, wl.depth, align=wl.align
        )
        cpu1 = server.cpu_seconds()
        rss = server.peak_rss_mb()
        after = loadgen.stats_snapshot(server.address)
        return {"window": window, "cpu_s": cpu1 - cpu0, "rss_mb": rss, "before": before, "after": after}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def check(run: Run, windows: List[dict]) -> dict:
    """Compare every answer with the in-process reference; count failures."""
    import workloads

    served = max(m["window"].attempted for m in windows)
    warm_expected, expected = workloads.reference_answers(run.workload, run.db_path, range(served))
    attempted = failed = mismatched = 0
    for answers in run.warm_answers:
        for line, want in zip(answers, warm_expected):
            answer = json.loads(line)
            del answer["id"]
            attempted += 1
            if not answer.get("ok"):
                failed += 1
            elif answer != want:
                mismatched += 1
    for m in windows:
        window = m["window"]
        ok = []
        for i in range(window.attempted):
            line = window.lines.get(i)
            if line is None:
                failed += 1
                continue
            answer = json.loads(line)
            del answer["id"]
            if not answer.get("ok"):
                failed += 1
            elif answer != expected[i]:
                mismatched += 1
            else:
                ok.append(i)
        attempted += window.attempted
        m["ok"] = ok
    return {"attempted": attempted, "failed": failed, "mismatched": mismatched}


def _subwindows(window, ids: Sequence[int], stamps: Sequence[int]) -> List[List[int]]:
    """``ids`` grouped by the whole sub-window their stamp falls in."""
    width = int(SUBWINDOW_S * 1e9)
    groups: List[List[int]] = [[] for _ in range(max(1, int(window.seconds // SUBWINDOW_S)))]
    for i in ids:
        k = (stamps[i] - window.start_ns) // width
        if k < len(groups):
            groups[k].append(i)
    return groups


def throughput_rps(m: dict) -> float:
    """Median over sub-windows of the OK answers each one received."""
    window = m["window"]
    return statistics.median(len(g) / SUBWINDOW_S for g in _subwindows(window, m["ok"], window.recv_ns))


def latency_ms(run: Run, window, cls: str, q: float) -> float:
    """Median over sub-windows of the ``q`` quantile of the send-to-answer
    latency of class ``cls`` requests sent in each; 0 without any."""
    ids = [i for i in window.lines if run.classes[i] == cls]
    per_window = [
        _quantile([(window.recv_ns[i] - window.sent_ns[i]) / 1e6 for i in group], q)
        for group in _subwindows(window, ids, window.sent_ns)
        if group
    ]
    return statistics.median(per_window) if per_window else 0.0


def end_to_end(run: Run, setups: List[float], m: dict) -> Dict[str, float]:
    window = m["window"]
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": throughput_rps(m),
        "probe_p50_ms": latency_ms(run, window, "probe", 0.50),
        "probe_p95_ms": latency_ms(run, window, "probe", 0.95),
        "server_cpu_us_per_req": m["cpu_s"] * 1e6 / len(window.lines),
        "server_rss_mb": m["rss_mb"],
    }


def _delta(after: dict, before: dict, *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return (a or 0) - (b or 0)


def _histogram_p50(after: dict, before: dict, name: str) -> float:
    """Median of a registry histogram over the window, from bucket deltas."""
    hist_a = after["metrics"]["histograms"].get(name, {"buckets": {}})["buckets"]
    hist_b = before["metrics"]["histograms"].get(name, {"buckets": {}})["buckets"]
    counts = sorted(
        (float(bound), hist_a[bound] - hist_b.get(bound, 0)) for bound in hist_a if bound != "+Inf"
    )
    total = sum(c for _, c in counts)
    running = 0
    for bound, c in counts:
        running += c
        if total and running >= total / 2:
            return bound
    return 0.0


def counts(m: dict) -> Dict[str, float]:
    """Per-layer counts over the untraced window, from StatsRequest."""
    a, b = m["after"], m["before"]
    n = len(m["window"].lines)

    def stat(*path):
        return _delta(a, b, "stats", *path)

    def counter(name):
        return _delta(a, b, "metrics", "counters", name)

    calls = stat("batch_calls")
    lookups = stat("cache", "hits") + stat("cache", "misses")
    plans = stat("cache", "plan_hits") + stat("cache", "plan_misses")
    return {
        "engine.kernel_calls_per_kreq": calls * 1000 / n,
        "batcher.requests_per_call": stat("batched_candidates") / calls if calls else 0.0,
        "batcher.queue_wait_us_p50": _histogram_p50(a, b, "batcher.queue_wait_seconds") * 1e6,
        "batcher.expired": counter("batcher.expired"),
        "batcher.overload": counter("batcher.overload") + counter("server.overload"),
        "engine.oracle_warm_hits_per_kreq": counter("service.oracle.warm_hits") * 1000 / n,
        "engine.oracle_cold_builds_per_kreq": counter("service.oracle.cold_builds") * 1000 / n,
        "engine.oracles_patched_per_kreq": stat("oracles_patched") * 1000 / n,
        "engine.oracles_rebuilt_per_kreq": stat("oracles_rebuilt") * 1000 / n,
        "cache.hit_ratio": stat("cache", "hits") / lookups if lookups else 0.0,
        "cache.plan_hit_ratio": stat("cache", "plan_hits") / plans if plans else 0.0,
        "cache.invalidations_per_kreq": stat("cache", "invalidations") * 1000 / n,
    }


def layer_times(run: Run, spans_path: str, m: dict, plain: dict) -> Dict[str, float]:
    """Per-layer times from the traced window's spans (thread CPU time).

    ``plain`` is the untraced window, whose server CPU per request less the
    engine's busy time is the front door's cost.
    """
    with open(spans_path) as handle:
        dump = json.load(handle)
    window = m["window"]
    requests = len(window.lines)
    kinds = {k: 0 for k in KINDS}
    for i in window.lines:
        kinds[run.workload.pool[run.workload.order[i]]["kind"]] += 1
    # Per-call figures cover the traced server's whole life (the witness
    # build and parses happen in set-up); per-request figures only spans
    # that started inside the window.
    calls: Dict[str, List[int]] = {}
    window_cpu: Dict[str, int] = {}
    self_by_layer = {layer: 0 for layer in LAYERS}
    engine_busy = 0
    spans = [dict(zip(dump["fields"], span)) for span in dump["spans"]]
    names = {span["id"]: span["name"] for span in spans}
    for span in spans:
        name = span["name"]
        total = calls.setdefault(name, [0, 0, 0])
        total[0] += 1
        total[1] += span["weight"]
        total[2] += span["cpu_ns"]
        if not window.start_ns <= span["start_ns"] <= window.end_ns:
            continue
        window_cpu[name] = window_cpu.get(name, 0) + span["cpu_ns"]
        self_by_layer[name.split(".", 1)[0]] += span["self_cpu_ns"]
        if name.startswith("engine.") and not names.get(span["parent"], "").startswith("engine."):
            engine_busy += span["cpu_ns"]

    def per_call_us(name: str, per_weight: bool = False) -> float:
        count, weight, cpu = calls.get(name, (0, 0, 0))
        n = weight if per_weight else count
        return cpu / n / 1e3 if n else 0.0

    def window_us(name: str) -> float:
        return window_cpu.get(name, 0) / 1e3

    traced_cpu_us = m["cpu_s"] * 1e6 / requests
    below = sum(self_by_layer[layer] for layer in LAYERS if layer != "server") / 1e3 / requests
    out = {
        "server.decode_us": (window_us("server.json_loads") + window_us("server.decode_request")) / requests,
        "server.encode_us": (window_us("server.encode_response") + window_us("server.json_dumps")) / requests,
        "engine.busy_us_per_req": engine_busy / 1e3 / requests,
        "server.frontdoor_us_per_req": plain["cpu_s"] * 1e6 / len(plain["window"].lines) - engine_busy / 1e3 / requests,
        "algebra.parse_us": per_call_us("algebra.parse"),
        "algebra.plan_compile_us": per_call_us("algebra.plan_compile"),
        "bitset.encode_us_per_cand": per_call_us("bitset.encode"),
        "bitset.destroyed_us_per_cand": per_call_us("bitset.destroyed", per_weight=True),
        "bitset.witness_build_s": per_call_us("bitset.witness_build") / 1e6,
        "bitset.delta_patch_us": per_call_us("bitset.delta_patch"),
        "why.witnesses_us": per_call_us("why.witnesses"),
        "where.backward_us": per_call_us("where.backward"),
        "columnar.store_build_s": per_call_us("columnar.store_build") / 1e6,
        "columnar.eval_us": per_call_us("columnar.eval"),
        "versioning.apply_us": per_call_us("versioning.apply"),
    }
    for algorithm in SOLVE_ALGORITHMS:
        out[f"deletion.solve_us.{algorithm}"] = per_call_us(f"deletion.solve.{algorithm}")
    for kind in KINDS:
        name = "engine.hypothetical_batch" if kind == "hypothetical" else f"engine.execute.{kind}"
        out[f"engine.{kind}_us"] = window_us(name) / kinds[kind] if kinds[kind] else 0.0
    # The front door is every server CPU microsecond no span below it holds:
    # the event loop, sockets, the codec and the batcher's hand-offs.
    self_by_layer["server"] = max(0.0, traced_cpu_us - below) * 1e3 * requests
    for layer in LAYERS:
        out[f"{layer}.self_us_per_req"] = self_by_layer[layer] / 1e3 / requests
    return out


UNITS = {
    "_pct": "%",
    "_s": "s",
    "_ms": "ms",
    "_ratio": "ratio",
    "_per_kreq": "1/kreq",
    "_per_call": "count",
}


def unit_of(name: str) -> str:
    if name == "throughput_rps":
        return "1/s"
    if name == "server_rss_mb":
        return "MB"
    if name in ("batcher.expired", "batcher.overload"):
        return "count"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "us"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("probe_small", "probe_wide", "write_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace == 0:
            setups = []
            server = None
            for k in range(SETUP_STARTS):
                if server is not None:
                    server.stop()
                server, seconds = run.start()
                setups.append(seconds)
            try:
                plain = run.measure(server, args.seconds)
            finally:
                server.stop()
            windows = [plain]
        else:
            server, _ = run.start()
            try:
                plain = run.measure(server, args.seconds / 2)
            finally:
                server.stop()
            spans_path = os.path.join(run.workdir, "spans.json")
            server, _ = run.start(traced_spans=spans_path)
            try:
                traced = run.measure(server, args.seconds / 2)
            finally:
                server.stop()
            windows = [plain, traced]
        verdict = check(run, windows)
        if args.trace == 0:
            metrics = end_to_end(run, setups, plain)
        else:
            metrics = counts(plain)
            metrics.update(layer_times(run, spans_path, traced, plain))
            metrics["trace.overhead_pct"] = 100.0 * (
                throughput_rps(plain) / throughput_rps(traced) - 1.0
            )
            metrics["client.cpu_us_per_req"] = plain["window"].client_cpu_s * 1e6 / plain["window"].attempted
            for cls in CLASSES:
                metrics[f"latency.{cls}_p50_ms"] = latency_ms(run, plain["window"], cls, 0.50)
                metrics[f"latency.{cls}_p95_ms"] = latency_ms(run, plain["window"], cls, 0.95)
    finally:
        run.close()

    failed = verdict["failed"]
    correct = verdict["mismatched"] == 0 and not any(
        m["window"].exhausted for m in windows
    )
    for m in windows:
        w = m["window"]
        print(
            f"{args.workload} seed={args.seed}: {w.attempted} requests in {w.seconds:.2f}s, "
            f"{len(w.lines)} answered, exhausted={w.exhausted}",
            file=sys.stderr,
        )
    print(
        f"failed={failed} mismatched={verdict['mismatched']} failed_frac={failed / max(1, verdict['attempted']):.6f}",
        file=sys.stderr,
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit_of(name)}", file=sys.stderr)
    if args.trace == 1:
        total = sum(metrics[f"{layer}.self_us_per_req"] for layer in LAYERS)
        shares = ", ".join(
            f"{layer} {100 * metrics[f'{layer}.self_us_per_req'] / total:.1f}%" for layer in LAYERS
        )
        print(f"share of traced server CPU per request: {shares}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
