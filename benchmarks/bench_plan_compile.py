"""Compiled plans and batched hypothetical deletion, measured.

Two ablations over the largest instances of the Table 1 / Table 2 harnesses
(the same instances ``bench_provenance_kernel.py`` uses):

1. **interpreter vs compiled** — evaluating the query over the base database
   plus a handful of hypothetical deletion variants, with the seed recursive
   interpreter (:func:`repro.oracle.interpret_view_rows`, which
   re-resolves schemas/positions per call) versus the compiled physical plan
   (:mod:`repro.algebra.plan`, compiled once through the shared plan memo).

2. **per-candidate vs batched** — the exact solvers' inner question, "which
   view rows survive deleting candidate ``T``?", for every single-tuple
   candidate in the database: re-executing the compiled plan against
   ``db.delete(T)`` per candidate versus answering the whole candidate
   vector from witness masks through the inverted ``SourceIndex``
   (:meth:`repro.deletion.hypothetical.HypotheticalDeletions.batch_view_after`),
   never re-running the query.  The batched timing includes building the
   provenance cold — the honest one-time cost of the mask path.

Answers are asserted identical in both ablations; results land in
``BENCH_plan.json`` at the repository root.  The acceptance number is the
median batched speedup over the Table 1 / Table 2 instances (must be ≥ 2×).
"""

from __future__ import annotations

import json
import os
import random
from statistics import median
from typing import Callable, Dict, List, Tuple

import pytest

from repro.algebra.evaluate import view_rows
from repro.deletion import HypotheticalDeletions
from repro.oracle import interpret_view_rows
from repro.provenance import provenance_cache
from repro.provenance.cache import cached_plan
from repro.workloads import sj_workload, spu_workload

from _report import format_table, time_call, write_report
from bench_provenance_kernel import _instances

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

#: Pair of same-answer callables: (baseline path, compiled/batched path).
Scenario = Tuple[Callable[[], object], Callable[[], object]]

#: Hypothetical databases per instance in the interpreter-vs-compiled run.
HYPOTHETICAL_DBS = 8


def _compile_scenario(db, query, seed: int = 0) -> Scenario:
    """Interpreter vs compiled plan over base + hypothetical databases."""
    candidates = db.all_source_tuples()
    rng = random.Random(seed)
    databases = [db] + [
        db.delete([rng.choice(candidates)]) for _ in range(HYPOTHETICAL_DBS)
    ]

    def interpreter():
        return [interpret_view_rows(query, d) for d in databases]

    def compiled():
        provenance_cache.clear()  # compile once, reuse across the variants
        return [view_rows(query, d) for d in databases]

    return interpreter, compiled


def _batch_scenario(db, query) -> Scenario:
    """Per-candidate compiled-plan re-evaluation vs batched mask answers."""
    deletion_sets = [frozenset({s}) for s in db.all_source_tuples()]

    def per_candidate():
        provenance_cache.clear()
        plan = cached_plan(query, db)
        return [plan.rows(db.delete(d)) for d in deletion_sets]

    def batched():
        provenance_cache.clear()  # provenance built cold, inside the timer
        oracle = HypotheticalDeletions(query, db)
        return oracle.batch_view_after(deletion_sets)

    return per_candidate, batched


def build_scenarios() -> Dict[str, Tuple[str, str, Scenario]]:
    """name -> (group, ablation, (baseline, new)) over the largest instances."""
    scenarios: Dict[str, Tuple[str, str, Scenario]] = {}
    for name, (group, (db, query, _target)) in _instances().items():
        scenarios[f"compile_{name}"] = (
            group,
            "interpreter_vs_compiled",
            _compile_scenario(db, query),
        )
        scenarios[f"batch_{name}"] = (
            group,
            "percand_vs_batched",
            _batch_scenario(db, query),
        )
    return scenarios


def build_smoke_scenarios() -> Dict[str, Scenario]:
    """Tiny-size equivalence subset for ``run_all.py --smoke``."""
    spu_db, spu_query, _ = spu_workload(30, seed=1)
    sj_db, sj_query, _ = sj_workload(15, seed=1)
    return {
        "smoke_compile_spu_rows30": _compile_scenario(spu_db, spu_query),
        "smoke_batch_spu_rows30": _batch_scenario(spu_db, spu_query),
        "smoke_batch_sj_rows15": _batch_scenario(sj_db, sj_query),
    }


def _measure(
    scenarios: Dict[str, Tuple[str, str, Scenario]], repeats: int
) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for name, (group, ablation, (baseline, new)) in scenarios.items():
        match = baseline() == new()
        baseline_s = time_call(baseline, repeats=repeats)
        new_s = time_call(new, repeats=repeats)
        entries.append(
            {
                "name": name,
                "group": group,
                "ablation": ablation,
                "match": match,
                "baseline_s": baseline_s,
                "new_s": new_s,
                "speedup": baseline_s / max(new_s, 1e-9),
            }
        )
    return entries


def _emit(
    entries: List[Dict[str, object]], json_path: str = JSON_PATH
) -> Dict[str, object]:
    def ablation_median(ablation: str) -> float:
        return median(
            e["speedup"]
            for e in entries
            if e["ablation"] == ablation and e["group"] in ("table1", "table2")
        )

    data = {
        "generated_by": "benchmarks/bench_plan_compile.py",
        "ablations": {
            "interpreter_vs_compiled": "seed recursive interpreter vs "
            "compile-once physical plan, base + hypothetical databases",
            "percand_vs_batched": "compiled-plan re-evaluation per deletion "
            "candidate vs batched witness-mask answers (provenance built "
            "cold inside the timer)",
        },
        "entries": entries,
        # The acceptance number: batched hypothetical deletion must beat
        # per-candidate re-evaluation ≥2x on the table1/table2 instances.
        "batch_median_speedup": ablation_median("percand_vs_batched"),
        "compile_median_speedup": ablation_median("interpreter_vs_compiled"),
        "all_answers_match": all(e["match"] for e in entries),
    }
    # Preserve bench_optimizer.py's section when regenerating this one.
    if os.path.exists(json_path):
        with open(json_path) as handle:
            previous = json.load(handle)
        if "optimizer" in previous:
            data["optimizer"] = previous["optimizer"]
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            f"{e['baseline_s'] * 1e3:.2f} ms",
            f"{e['new_s'] * 1e3:.2f} ms",
            f"{e['speedup']:.1f}x",
            e["match"],
        )
        for e in entries
    ]
    lines = [
        "Compiled plans — interpreter vs compiled, per-candidate vs batched",
        "",
    ]
    lines += format_table(
        ("Scenario", "Baseline", "New", "Speedup", "Match"), rows
    )
    lines += [
        "",
        f"median batched-deletion speedup (table1/table2): "
        f"{data['batch_median_speedup']:.1f}x; "
        f"median compiled-evaluation speedup: "
        f"{data['compile_median_speedup']:.1f}x",
        f"json: {json_path}",
    ]
    write_report("plan_compile", lines)
    return data


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_scenarios()))
def test_plan_matches_baseline_smoke(benchmark, name):
    """bench-smoke: tiny-size equivalence of both ablations, in milliseconds."""
    baseline, new = build_smoke_scenarios()[name]
    assert baseline() == new()
    benchmark(new)


def test_regenerate_bench_plan(benchmark):
    """Full comparison at the largest Table 1 / Table 2 harness sizes."""
    entries = _measure(build_scenarios(), repeats=5)
    data = _emit(entries)
    assert data["all_answers_match"]
    assert data["batch_median_speedup"] >= 2.0, data["batch_median_speedup"]
    benchmark(lambda: None)  # regeneration is correctness-, not time-bound


def main(argv: "list[str] | None" = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=JSON_PATH,
        help="path of the BENCH_plan.json file to write",
    )
    args = parser.parse_args(argv)
    entries = _measure(build_scenarios(), repeats=5)
    data = _emit(entries, json_path=args.json)
    if not data["all_answers_match"]:
        raise SystemExit("answer mismatch — see report")
    if data["batch_median_speedup"] < 2.0:
        raise SystemExit(
            f"batched speedup {data['batch_median_speedup']:.2f}x below 2x"
        )


if __name__ == "__main__":
    main()
