"""The serving engine, measured: per-request vs batched execution.

The serving scenario the ROADMAP's north star names: a long-lived process
answering a high-volume mix of evaluate / provenance / hypothetical-deletion
traffic against curated views.  This harness drives the
:mod:`repro.service` stack with an **open-loop load generator** — request
arrival times are scheduled up front at a rate the system does not control
(``RATE_MULTIPLIER`` × the calibrated per-request capacity, i.e. saturating)
— and compares two execution strategies over the *same* arrival schedule:

* **naive (unbatched per-request)** — one request at a time, in arrival
  order, the way a per-request frontend without this serving layer answers
  them: each hypothetical-deletion probe re-executes the compiled physical
  plan against the hypothetical database ``db.delete(T)``
  (``cached_plan(query, db).rows(db.delete(T))`` — it still enjoys the
  compile-once plan memo, so the baseline is the strongest per-request
  execution the library offers without the serving engine's warm state),
  and nothing is coalesced;
* **batched** — the same requests submitted to the
  :class:`~repro.service.batcher.MicroBatcher` at their arrival times:
  concurrently queued deletion candidates for the same (database, query)
  coalesce into one mask-vector call on the engine's **warm witness-mask
  oracle** with identical candidates de-duplicated; batches of at least
  128 distinct candidates run on the vectorized survival kernel.

The ablation is the serving engine's whole value proposition — warm
per-(database, query) provenance state and micro-batching with
de-duplication — against per-request library calls; the contribution of
each ingredient separately is measured by ``bench_plan_compile.py``
(batched vs per-candidate) and ``bench_sharded.py`` (vectorized vs
survival-index batches).

Traffic per instance: ~80% hypothetical-deletion probes drawn with a
popularity skew (popular candidates repeat — the realistic "many users ask
about the same tuple" distribution that makes de-duplication matter), the
rest evaluate/why/where.  Recorded per leg: throughput (completed requests
per second of wall clock) and p50/p95 latency measured from each request's
*scheduled arrival* — the open-loop convention, so queueing delay counts.

Every response of both legs is checked **bit-identical** to the direct
library call for that request; a mismatch fails the harness.

Results merge into ``BENCH_plan.json`` under the ``service`` key.  The
acceptance bar is batched/naive **median-throughput speedup ≥ 2× on the
largest scaling workload**; ``run_all.py --compare`` tracks
``service.median_throughput_batched``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import threading
import time
from collections import deque
from statistics import median
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import pytest

from repro.algebra.evaluate import evaluate
from repro.deletion import HypotheticalDeletions
from repro.provenance import (
    provenance_cache,
    where_provenance,
    why_provenance,
)
from repro.provenance.cache import cached_plan
from repro.provenance.locations import SourceTuple
from repro.provenance.witness_table import scipy_sparse
from repro.service import (
    EvaluateRequest,
    HypotheticalRequest,
    HypotheticalResponse,
    MicroBatcher,
    ServiceEngine,
    WhereRequest,
    WhyRequest,
)
from repro.workloads import (
    chain_workload,
    sj_workload,
    spu_workload,
    usergroup_workload,
)

from _report import format_table, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

#: Requests per instance in the full run.
REQUESTS_PER_INSTANCE = 1500

#: Arrival rate as a multiple of the calibrated naive capacity — open-loop
#: at saturation, so the batched leg's capacity (not the generator) is the
#: limit being measured.
RATE_MULTIPLIER = 8.0

#: Fraction of traffic that is hypothetical-deletion probes.
HYPOTHETICAL_FRACTION = 0.8

#: The acceptance bar on the largest scaling workload.
TARGET_LARGEST_SPEEDUP = 2.0

#: Batching knobs the measured leg runs with.
MAX_BATCH = 512
MAX_DELAY_S = 0.002

DB_NAME = "db"


def _instances() -> Dict[str, Tuple[str, Tuple]]:
    """name -> (group, (db, query, target)); 'largest' is by source rows."""
    return {
        "service_spu_rows200": ("scaling", spu_workload(200, seed=11)),
        "service_sj_rows100": ("scaling", sj_workload(100, seed=11)),
        "service_chain_4rels_rows40": ("scaling", chain_workload(4, 40, seed=11)),
        "service_usergroup_users600": (
            "scaling",
            usergroup_workload(600, 120, 120, seed=11),
        ),
    }


def _largest_instance(instances: Dict[str, Tuple[str, Tuple]]) -> str:
    return max(
        instances, key=lambda name: instances[name][1][0].total_rows()
    )


# ----------------------------------------------------------------------
# Traffic generation
# ----------------------------------------------------------------------

def _candidate_pool(db, oracle: HypotheticalDeletions, target, seed: int):
    """Single-tuple deletions plus small witness-universe subsets."""
    rng = random.Random(seed)
    pool: List[FrozenSet[SourceTuple]] = [
        frozenset({source}) for source in db.all_source_tuples()
    ]
    kernel = oracle.provenance.kernel if oracle.provenance else None
    if kernel is not None:
        universe = sorted(
            kernel.index.decode_mask(kernel.universe_mask(tuple(target))),
            key=repr,
        )
        for _ in range(min(256, len(pool))):
            size = rng.randint(1, min(4, len(universe)))
            pool.append(frozenset(rng.sample(universe, size)))
    return pool


def _traffic(db, query_text: str, pool, target, attribute: str, n: int, seed: int):
    """A mixed request schedule with popularity-skewed candidates."""
    rng = random.Random(seed)
    # Zipf-ish weights over a shuffled pool: rank r gets weight 1/(r+1).
    shuffled = list(pool)
    rng.shuffle(shuffled)
    weights = [1.0 / (rank + 1) for rank in range(len(shuffled))]
    view_row = tuple(target)
    requests = []
    for _ in range(n):
        toss = rng.random()
        if toss < HYPOTHETICAL_FRACTION:
            candidate = rng.choices(shuffled, weights=weights, k=1)[0]
            requests.append(HypotheticalRequest(DB_NAME, query_text, candidate))
        elif toss < HYPOTHETICAL_FRACTION + 0.1:
            requests.append(EvaluateRequest(DB_NAME, query_text))
        elif toss < HYPOTHETICAL_FRACTION + 0.15:
            requests.append(WhyRequest(DB_NAME, query_text, view_row))
        else:
            requests.append(
                WhereRequest(DB_NAME, query_text, view_row, attribute)
            )
    return requests


def _expected_responses(engine: ServiceEngine, db, query, requests):
    """Ground truth per request, from *direct library calls* (no serving).

    The serving path must reproduce these bit-for-bit; computing them from
    the library keeps the check independent of the engine under test.
    """
    oracle = HypotheticalDeletions(query, db)
    view = evaluate(query, db)
    why = why_provenance(query, db)
    where = where_provenance(query, db)
    expected = []
    for request in requests:
        if isinstance(request, HypotheticalRequest):
            destroyed = oracle.rows - oracle.view_after(request.deletions)
            expected.append(("hypothetical", frozenset(destroyed)))
        elif isinstance(request, EvaluateRequest):
            expected.append(("evaluate", view.rows))
        elif isinstance(request, WhyRequest):
            expected.append(("why", why.witnesses(request.row)))
        else:
            expected.append(
                ("where", where.backward(request.row, request.attribute))
            )
    return expected


def _check_responses(responses, expected) -> bool:
    for response, (kind, truth) in zip(responses, expected):
        if response is None or not response.ok:
            return False
        if kind == "hypothetical":
            if frozenset(response.destroyed) != truth:
                return False
        elif kind == "evaluate":
            if frozenset(response.rows) != truth:
                return False
        elif kind == "why":
            if frozenset(frozenset(w) for w in response.witnesses) != truth:
                return False
        elif frozenset(response.locations) != truth:
            return False
    return True


# ----------------------------------------------------------------------
# The two execution legs
# ----------------------------------------------------------------------

def _percentiles(latencies: Sequence[float]) -> Tuple[float, float]:
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p95 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]
    return p50, p95


def _naive_executor(engine: ServiceEngine, query, db) -> Callable:
    """The unbatched per-request answerer (no warm witness-mask state).

    Hypotheticals re-execute the compiled plan over ``db.delete(T)``;
    other kinds go through the engine's ordinary dispatch, which is
    already a single warm cache hit.
    """
    plan = cached_plan(query, db)
    rows = plan.rows(db)

    def execute(request):
        if isinstance(request, HypotheticalRequest):
            after = plan.rows(db.delete(request.deletions))
            return HypotheticalResponse(
                destroyed=tuple(sorted(rows - after, key=repr)),
                surviving=len(after),
            )
        return engine.execute(request)

    return execute


def _run_naive(execute: Callable, requests, arrivals) -> Dict[str, object]:
    """Per-request execution in arrival order: feeder + one worker."""
    n = len(requests)
    queue: deque = deque()
    cond = threading.Condition()
    responses: List[Optional[object]] = [None] * n
    completions = [0.0] * n
    done = threading.Event()

    def worker():
        served = 0
        while served < n:
            with cond:
                while not queue:
                    cond.wait()
                index = queue.popleft()
            responses[index] = execute(requests[index])
            completions[index] = time.perf_counter()
            served += 1
        done.set()

    thread = threading.Thread(target=worker, daemon=True)
    start = time.perf_counter()
    thread.start()
    for index, offset in enumerate(arrivals):
        now = time.perf_counter()
        wait = start + offset - now
        if wait > 0:
            time.sleep(wait)
        with cond:
            queue.append(index)
            cond.notify()
    done.wait()
    thread.join()
    finish = max(completions)
    latencies = [
        completions[i] - (start + arrivals[i]) for i in range(n)
    ]
    p50, p95 = _percentiles(latencies)
    return {
        "throughput_rps": n / max(finish - start, 1e-9),
        "p50_ms": p50 * 1e3,
        "p95_ms": p95 * 1e3,
        "responses": responses,
    }


def _run_batched(
    engine: ServiceEngine, requests, arrivals
) -> Dict[str, object]:
    """The serving path: micro-batcher, open-loop feed."""
    n = len(requests)
    responses: List[Optional[object]] = [None] * n
    completions = [0.0] * n
    remaining = threading.Semaphore(0)

    with MicroBatcher(
        engine,
        max_batch=MAX_BATCH,
        max_delay_s=MAX_DELAY_S,
        max_pending=max(10_000, 2 * n),
    ) as batcher:
        start = time.perf_counter()
        for index, offset in enumerate(arrivals):
            now = time.perf_counter()
            wait = start + offset - now
            if wait > 0:
                time.sleep(wait)

            def record(future, index=index):
                responses[index] = future.result()
                completions[index] = time.perf_counter()
                remaining.release()

            batcher.submit(requests[index]).add_done_callback(record)
        for _ in range(n):
            remaining.acquire()
        stats = batcher.stats()
    finish = max(completions)
    latencies = [completions[i] - (start + arrivals[i]) for i in range(n)]
    p50, p95 = _percentiles(latencies)
    return {
        "throughput_rps": n / max(finish - start, 1e-9),
        "p50_ms": p50 * 1e3,
        "p95_ms": p95 * 1e3,
        "responses": responses,
        "batches_issued": stats["batches_issued"],
        "coalesced_requests": stats["coalesced_requests"],
    }


def _measure_instance(
    name: str, group: str, db, query, target, n_requests: int, seed: int = 0
) -> Dict[str, object]:
    engine = ServiceEngine({DB_NAME: db})
    # The workload hands us an AST; serve it under an alias so the traffic
    # needs no DSL round trip and hits this exact interned object.
    query_text = f"<workload:{name}>"
    engine.register_query(query_text, query)
    oracle = engine.oracle(DB_NAME, query_text)  # warm state up front
    # A process imports scipy on its first long candidate vector; that is
    # start-up cost, so it stays out of the timed serving window.
    scipy_sparse()
    pool = _candidate_pool(db, oracle, target, seed)
    attribute = oracle.plan.schema.attributes[-1]
    requests = _traffic(
        db, query_text, pool, target, attribute, n_requests, seed + 1
    )
    expected = _expected_responses(engine, db, query, requests)

    # Calibrate the naive per-request capacity on a prefix, then schedule
    # open-loop arrivals at RATE_MULTIPLIER × that capacity for both legs.
    naive_execute = _naive_executor(engine, query, db)
    sample = requests[: min(100, n_requests)]
    t0 = time.perf_counter()
    for request in sample:
        naive_execute(request)
    per_request = (time.perf_counter() - t0) / len(sample)
    rate = RATE_MULTIPLIER / max(per_request, 1e-9)
    arrivals = [index / rate for index in range(n_requests)]

    naive = _run_naive(naive_execute, requests, arrivals)
    batched = _run_batched(engine, requests, arrivals)
    match = _check_responses(naive.pop("responses"), expected) and (
        _check_responses(batched.pop("responses"), expected)
    )
    engine.close()
    speedup = batched["throughput_rps"] / max(naive["throughput_rps"], 1e-9)
    return {
        "name": name,
        "group": group,
        "requests": n_requests,
        "arrival_rate_rps": rate,
        "naive": naive,
        "batched": batched,
        "speedup_batched": speedup,
        "match": match,
    }


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def _emit(
    entries: List[Dict[str, object]],
    largest: str,
    json_path: str = JSON_PATH,
) -> Dict[str, object]:
    scaling = [e for e in entries if e["group"] == "scaling"]
    largest_entry = next(e for e in entries if e["name"] == largest)
    section: Dict[str, object] = {
        "generated_by": "benchmarks/bench_service.py",
        "ablation": "open-loop mixed evaluate/provenance/deletion traffic "
        f"(~{HYPOTHETICAL_FRACTION:.0%} hypothetical-deletion probes, "
        "popularity-skewed candidates) at "
        f"{RATE_MULTIPLIER:.0f}x calibrated naive capacity: unbatched "
        "per-request execution (hypotheticals re-execute the compiled "
        "plan over db.delete(T); no warm witness-mask state, no "
        "coalescing) vs serving-engine execution (warm per-(db, query) "
        "witness-mask oracle, micro-batched with de-duplication; "
        f"max_batch={MAX_BATCH}, max_delay={MAX_DELAY_S * 1e3:.0f}ms)",
        "entries": entries,
        "largest_instance": largest,
        "largest_speedup_batched": largest_entry["speedup_batched"],
        "median_throughput_naive": median(
            e["naive"]["throughput_rps"] for e in scaling
        ),
        "median_throughput_batched": median(
            e["batched"]["throughput_rps"] for e in scaling
        ),
        "median_speedup_batched": median(
            e["speedup_batched"] for e in scaling
        ),
        "all_answers_match": all(e["match"] for e in entries),
        # Shared-cache memory telemetry for the whole run: high-water mark
        # of the byte-bounded LRU plus the eviction counters.
        "cache": provenance_cache.stats(),
    }
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["service"] = section
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            f"{e['naive']['throughput_rps']:.0f} rps",
            f"{e['batched']['throughput_rps']:.0f} rps",
            f"{e['speedup_batched']:.2f}x",
            f"{e['naive']['p95_ms']:.0f} ms",
            f"{e['batched']['p95_ms']:.0f} ms",
            e["match"],
        )
        for e in entries
    ]
    lines = [
        "Serving engine — per-request vs batched execution",
        "(open-loop arrivals at saturation; latency from scheduled arrival)",
        "",
    ]
    lines += format_table(
        (
            "Instance",
            "Naive",
            "Batched",
            "Speedup",
            "Naive p95",
            "Batched p95",
            "Match",
        ),
        rows,
    )
    lines += [
        "",
        f"median batched throughput (scaling): "
        f"{section['median_throughput_batched']:.0f} rps "
        f"(naive {section['median_throughput_naive']:.0f} rps, median "
        f"speedup {section['median_speedup_batched']:.2f}x)",
        f"largest instance {largest}: "
        f"{section['largest_speedup_batched']:.2f}x "
        f"(target >= {TARGET_LARGEST_SPEEDUP}x)",
        f"provenance cache during the run: {provenance_cache.stats()}",
        f"json: {os.path.basename(json_path)} (key: service)",
    ]
    write_report("service", lines, json_path)
    return section


def _run_full(json_path: str = JSON_PATH) -> Dict[str, object]:
    provenance_cache.clear()
    instances = _instances()
    largest = _largest_instance(instances)
    entries = [
        _measure_instance(
            name, group, db, query, target, REQUESTS_PER_INSTANCE
        )
        for name, (group, (db, query, target)) in instances.items()
    ]
    return _emit(entries, largest, json_path=json_path)


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

def _smoke_instances() -> Dict[str, Tuple]:
    return {
        "smoke_service_spu_rows30": spu_workload(30, seed=2),
        "smoke_service_usergroup_users20": usergroup_workload(20, 6, 6, seed=2),
    }


@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(_smoke_instances()))
def test_service_smoke(benchmark, name):
    """bench-smoke: in-process engine, mixed traffic, answers == direct."""
    db, query, target = _smoke_instances()[name]
    entry = _measure_instance(name, "smoke", db, query, target, 120, seed=3)
    assert entry["match"], f"service answers diverged on {name}"
    benchmark(lambda: None)  # equivalence-, not time-bound


def test_regenerate_bench_service(benchmark):
    """Full comparison; asserts the acceptance bar and answer equality."""
    section = _run_full()
    assert section["all_answers_match"]
    assert section["largest_speedup_batched"] >= TARGET_LARGEST_SPEEDUP, section[
        "largest_speedup_batched"
    ]
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
    if not section["all_answers_match"]:
        raise SystemExit("service answers diverged from direct calls — see report")
    if section["largest_speedup_batched"] < TARGET_LARGEST_SPEEDUP:
        raise SystemExit(
            f"batched serving speedup {section['largest_speedup_batched']:.2f}x "
            f"on {section['largest_instance']} is below "
            f"{TARGET_LARGEST_SPEEDUP}x"
        )


if __name__ == "__main__":
    main()
