"""The observability layer, measured: serving overhead and the live probe.

Two questions, one harness:

1. **What does observing cost?**  The same popularity-skewed mixed
   request schedule (warm hypothetical-deletion probes plus evaluates,
   driven through the :class:`~repro.service.batcher.MicroBatcher` — the
   configuration the metrics were built for) runs twice per round over a
   fresh engine: once with observability **off** (a disabled
   :class:`~repro.observability.MetricsRegistry` installed as the process
   default, no trace sink, no slow-query log) and once **fully on**
   (enabled registry, an installed :class:`~repro.observability.TraceSink`
   recording every request's span tree, and a slow-query log whose
   threshold check runs on every request).  Rounds interleave off/on to
   cancel drift; the reported ``overhead_pct`` compares the medians of the
   per-round median latencies.  The acceptance bar is **≤ 5%** — tracked
   as a *ceiling* by ``run_all.py --compare`` (``observability.
   overhead_pct``), the one tracked metric where smaller is better.

2. **Does the live endpoint answer mid-traffic?**  A second leg starts
   the real TCP front door (:class:`~repro.service.server.ServiceServer`)
   with a zero-threshold slow-query log, drives mixed traffic over a
   socket, and interleaves a :class:`~repro.service.StatsRequest`: the
   answer must carry non-zero per-kind latency histograms, the batcher's
   live stats section, and at least one slow-query entry.  The probe's
   pass/fail is asserted, not just recorded.

Results merge into ``BENCH_plan.json`` under the ``observability`` key.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

import pytest

from repro.observability import (
    MetricsRegistry,
    SlowQueryLog,
    TraceSink,
    set_default_registry,
)
from repro.observability.tracing import tracer
from repro.provenance import provenance_cache
from repro.service import (
    EvaluateRequest,
    HypotheticalRequest,
    MicroBatcher,
    ServiceEngine,
    ServiceServer,
    StatsRequest,
    encode_request,
)
from repro.workloads import usergroup_workload

from _report import format_table, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

QUERY = "PROJECT[user, file](UserGroup JOIN GroupFile)"
DB_NAME = "db"

#: Interleaved off/on rounds in the full run; the headline is the median
#: of per-round medians, so one noisy round cannot move the gate.
ROUNDS = 7

#: Requests per leg per round.
REQUESTS_PER_ROUND = 400

#: Fraction of traffic that is warm hypothetical-deletion probes (the
#: fastest request kind — the one where fixed instrumentation cost is the
#: largest relative slice, i.e. the conservative mix).
HYPOTHETICAL_FRACTION = 0.7

#: Distinct deletion candidates the hypothetical traffic draws from.
CANDIDATE_POOL = 16

#: The acceptance bar: enabled-vs-disabled median latency regression.
TARGET_OVERHEAD_PCT = 5.0

#: Batching knobs (mirrors the serving benchmark's configuration).
MAX_DELAY_S = 0.001


def _workload():
    return usergroup_workload(40, 10, 10, seed=1)


def _build_requests(db, rng: random.Random, count: int) -> List[object]:
    candidates = [
        frozenset({source})
        for source in sorted(db.all_source_tuples())[:CANDIDATE_POOL]
    ]
    requests: List[object] = []
    for _ in range(count):
        if rng.random() < HYPOTHETICAL_FRACTION:
            requests.append(
                HypotheticalRequest(
                    DB_NAME, QUERY, candidates[rng.randrange(len(candidates))]
                )
            )
        else:
            requests.append(EvaluateRequest(DB_NAME, QUERY))
    return requests


def _run_leg(enabled: bool, seed: int, count: int) -> Dict[str, float]:
    """Median/p95 per-request latency for one leg of one round.

    ``enabled=False`` is the no-op configuration: a disabled registry
    installed process-wide (so the executor's and kernels' module-level
    instruments are no-ops too), no trace sink, no slow-query log.
    ``enabled=True`` is everything on at once.
    """
    registry = MetricsRegistry(enabled=enabled)
    displaced = set_default_registry(registry)
    displaced_sink = tracer.install_sink(TraceSink() if enabled else None)
    # High threshold: the per-request threshold *check* is paid, entries
    # are not accumulated — the steady-state production configuration.
    slow_log = SlowQueryLog(threshold_s=30.0) if enabled else None
    db, _query, _target = _workload()
    rng = random.Random(seed)
    try:
        with ServiceEngine({DB_NAME: db}, slow_query_log=slow_log) as engine:
            requests = _build_requests(db, rng, count)
            # Warm the oracle and the plan memo outside the timed window.
            engine.execute(HypotheticalRequest(DB_NAME, QUERY, frozenset()))
            engine.execute(EvaluateRequest(DB_NAME, QUERY))
            latencies: List[float] = []
            with MicroBatcher(engine, max_delay_s=MAX_DELAY_S) as batcher:
                for request in requests:
                    started = time.perf_counter()
                    response = batcher.submit(request).result(timeout=30)
                    latencies.append(time.perf_counter() - started)
                    assert response.ok, response.error
            latencies.sort()
            return {
                "median_us": median(latencies) * 1e6,
                "p95_us": latencies[int(0.95 * (len(latencies) - 1))] * 1e6,
            }
    finally:
        set_default_registry(displaced)
        tracer.install_sink(displaced_sink)


def _measure_overhead(
    rounds: int = ROUNDS, count: int = REQUESTS_PER_ROUND
) -> Dict[str, object]:
    """Interleaved off/on rounds; overhead from the medians of medians."""
    off_medians: List[float] = []
    on_medians: List[float] = []
    entries: List[Dict[str, object]] = []
    for i in range(rounds):
        off = _run_leg(False, seed=100 + i, count=count)
        on = _run_leg(True, seed=100 + i, count=count)
        off_medians.append(off["median_us"])
        on_medians.append(on["median_us"])
        entries.append({"round": i, "off": off, "on": on})
    off_median = median(off_medians)
    on_median = median(on_medians)
    overhead_pct = 100.0 * (on_median - off_median) / off_median
    return {
        "rounds": entries,
        "median_off_us": off_median,
        "median_on_us": on_median,
        "overhead_pct": overhead_pct,
    }


# ----------------------------------------------------------------------
# The live stats probe
# ----------------------------------------------------------------------
def _probe_live_stats(traffic: int = 40) -> Dict[str, object]:
    """Drive the TCP server and answer a StatsRequest mid-traffic.

    Returns the probe verdicts; every ``*_ok`` flag must be True.
    """
    db, _query, _target = _workload()
    slow_log = SlowQueryLog(threshold_s=0.0)
    rng = random.Random(5)

    async def session(engine) -> Tuple[dict, dict]:
        server = ServiceServer(engine)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def roundtrip(payload: dict) -> dict:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            return json.loads(await asyncio.wait_for(reader.readline(), 30))

        requests = _build_requests(db, rng, traffic)
        half = len(requests) // 2
        for i, request in enumerate(requests[:half]):
            envelope = encode_request(request)
            envelope["id"] = i
            answer = await roundtrip(envelope)
            assert answer["ok"], answer
        # Mid-traffic: the stats answer reflects the live half-way state.
        stats_envelope = encode_request(StatsRequest())
        stats_envelope["id"] = "stats"
        stats_answer = await roundtrip(stats_envelope)
        for i, request in enumerate(requests[half:]):
            envelope = encode_request(request)
            envelope["id"] = half + i
            answer = await roundtrip(envelope)
            assert answer["ok"], answer
        writer.close()
        await server.aclose()
        return stats_answer, engine.stats()

    displaced = set_default_registry(MetricsRegistry())
    try:
        with ServiceEngine({DB_NAME: db}, slow_query_log=slow_log) as engine:
            stats_answer, final_stats = asyncio.run(session(engine))
    finally:
        set_default_registry(displaced)

    histograms = stats_answer["metrics"]["histograms"]
    latency_counts = {
        name: snap["count"]
        for name, snap in histograms.items()
        if name.startswith("service.latency.") and snap["count"]
    }
    batcher_section = stats_answer["stats"].get("batcher", {})
    slow_entries = stats_answer["slow_queries"]
    return {
        "latency_histograms_nonzero_ok": bool(latency_counts),
        "latency_counts": latency_counts,
        "batcher_stats_ok": "pending" in batcher_section
        and "batches_issued" in batcher_section,
        "batcher_stats": batcher_section,
        "slow_query_ok": len(slow_entries) >= 1,
        "slow_queries_seen": len(slow_entries),
        "requests_served_final": final_stats["requests"],
    }


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
def _emit(
    overhead: Dict[str, object],
    probe: Dict[str, object],
    json_path: str = JSON_PATH,
) -> Dict[str, object]:
    section: Dict[str, object] = {
        "generated_by": "benchmarks/bench_observability.py",
        "ablation": "identical mixed serving schedule "
        f"(~{HYPOTHETICAL_FRACTION:.0%} warm hypothetical probes through "
        "the micro-batcher) with observability fully off (disabled "
        "registry, no sink, no slow log) vs fully on (metrics + trace "
        f"sink + slow-log threshold check); {ROUNDS} interleaved rounds, "
        "overhead from medians of per-round median latencies",
        "median_off_us": overhead["median_off_us"],
        "median_on_us": overhead["median_on_us"],
        "overhead_pct": overhead["overhead_pct"],
        "target_overhead_pct": TARGET_OVERHEAD_PCT,
        "rounds": overhead["rounds"],
        "stats_probe": probe,
        "cache": provenance_cache.stats(),
    }
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["observability"] = section
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            entry["round"],
            f"{entry['off']['median_us']:.0f} us",
            f"{entry['on']['median_us']:.0f} us",
            f"{entry['off']['p95_us']:.0f} us",
            f"{entry['on']['p95_us']:.0f} us",
        )
        for entry in overhead["rounds"]
    ]
    lines = [
        "Observability — serving latency with the layer off vs fully on",
        "(same schedule per round; off installs a disabled registry)",
        "",
    ]
    lines += format_table(
        ("Round", "Off median", "On median", "Off p95", "On p95"), rows
    )
    lines += [
        "",
        f"median latency off {overhead['median_off_us']:.1f} us, "
        f"on {overhead['median_on_us']:.1f} us -> overhead "
        f"{overhead['overhead_pct']:+.2f}% "
        f"(ceiling {TARGET_OVERHEAD_PCT:.0f}%)",
        f"live stats probe: latency histograms {probe['latency_counts']}, "
        f"batcher {probe['batcher_stats_ok']}, "
        f"slow queries seen {probe['slow_queries_seen']}",
        f"json: {json_path} (key: observability)",
    ]
    write_report("observability", lines, json_path)
    return section


def _run_full(json_path: str = JSON_PATH) -> Dict[str, object]:
    provenance_cache.clear()
    overhead = _measure_overhead()
    probe = _probe_live_stats()
    return _emit(overhead, probe, json_path=json_path)


def _probe_ok(probe: Dict[str, object]) -> bool:
    return bool(
        probe["latency_histograms_nonzero_ok"]
        and probe["batcher_stats_ok"]
        and probe["slow_query_ok"]
    )


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_observability_smoke(benchmark):
    """bench-smoke: one off/on round plus the live stats probe."""
    overhead = _measure_overhead(rounds=1, count=60)
    assert overhead["median_off_us"] > 0 and overhead["median_on_us"] > 0
    probe = _probe_live_stats(traffic=12)
    assert _probe_ok(probe), probe
    benchmark(lambda: None)  # correctness-, not time-bound


def test_regenerate_bench_observability(benchmark):
    """Full run; asserts the overhead ceiling and the probe verdicts."""
    section = _run_full()
    assert _probe_ok(section["stats_probe"]), section["stats_probe"]
    assert section["overhead_pct"] <= TARGET_OVERHEAD_PCT, section["overhead_pct"]
    benchmark(lambda: None)


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=JSON_PATH,
        help="path of the BENCH_plan.json file to merge results into",
    )
    args = parser.parse_args(argv)
    section = _run_full(json_path=args.json)
    if not _probe_ok(section["stats_probe"]):
        raise SystemExit(f"live stats probe failed: {section['stats_probe']}")
    if section["overhead_pct"] > TARGET_OVERHEAD_PCT:
        raise SystemExit(
            f"observability overhead {section['overhead_pct']:.2f}% exceeds "
            f"the {TARGET_OVERHEAD_PCT:.0f}% ceiling"
        )
    print(
        f"observability overhead {section['overhead_pct']:+.2f}% "
        f"(ceiling {TARGET_OVERHEAD_PCT:.0f}%); live stats probe ok"
    )


if __name__ == "__main__":
    main()
