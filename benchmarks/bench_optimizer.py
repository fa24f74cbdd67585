"""Optimized vs unoptimized compiled plans, measured.

The staged compiler (:mod:`repro.algebra.plan` +
:mod:`repro.algebra.optimizer`) claims that selection pushdown, projection
pruning, and connectivity join ordering make the *same* compiled-plan workload
faster on join-heavy queries with selective predicates.  This harness
measures exactly that on the Table 1 / Table 2 scaling shapes
(:mod:`repro.workloads.scaling` chains, stars, and the paper's
UserGroup ⋈ GroupFile example) with a selective predicate on top, plus a
deliberately mis-ordered join bush that only reordering can save:

* both plans are compiled **once, outside the timer** (production compiles
  amortize through the plan memo, keyed by query, schemas and level);
* the timed workload evaluates the view over the base database plus a
  handful of hypothetical deletion variants — the deletion solvers' actual
  evaluation pattern;
* answers are asserted identical (the soundness property tests pin the
  same invariant exhaustively on random workloads).

Results merge into ``BENCH_plan.json`` at the repository root under the
``optimizer`` key; the acceptance number is a **median speedup ≥ 1.3×**
over the join-heavy instances.  ``benchmarks/run_all.py --compare`` uses
the recorded medians as the CI regression baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from statistics import median
from typing import Callable, Dict, List, Tuple

import pytest

from repro.algebra.ast import Join, Project, Query, RelationRef, Select
from repro.algebra.parser import parse_predicate
from repro.algebra.plan import CompiledPlan, compile_plan
from repro.workloads import chain_workload, star_workload, usergroup_workload

from _report import format_table, time_call, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

#: Pair of same-answer callables: (unoptimized plan, optimized plan).
Scenario = Tuple[Callable[[], object], Callable[[], object]]

#: Hypothetical databases per instance (mirrors bench_plan_compile).
HYPOTHETICAL_DBS = 8

#: The acceptance bar: median optimized-vs-unoptimized speedup.
TARGET_MEDIAN = 1.3


def _bad_order_chain(num_relations: int, rows_per_relation: int, seed: int = 0):
    """A chain-join database with the query's join bush deliberately
    mis-ordered (pairing non-adjacent relations first → cross products
    unless the optimizer reorders)."""
    db, _, _ = chain_workload(num_relations, rows_per_relation, seed=seed)
    odd = [RelationRef(f"R{i}") for i in range(1, num_relations + 1, 2)]
    even = [RelationRef(f"R{i}") for i in range(2, num_relations + 1, 2)]
    interleaved: Query = odd[0]
    for leaf in odd[1:] + even:
        interleaved = Join(interleaved, leaf)
    query = Project(interleaved, ["A1", f"A{num_relations + 1}"])
    return db, query


def _scenario(db, query, seed: int = 0) -> Scenario:
    """Unoptimized vs optimized compiled evaluation, base + hypotheticals."""
    catalog = {name: db[name].schema for name in db}
    unoptimized = compile_plan(query, catalog)
    optimized = compile_plan(query, catalog, optimizer_level=1)
    candidates = db.all_source_tuples()
    rng = random.Random(seed)
    databases = [db] + [
        db.delete([rng.choice(candidates)]) for _ in range(HYPOTHETICAL_DBS)
    ]

    def run(plan: CompiledPlan):
        return [plan.rows(d) for d in databases]

    return (lambda: run(unoptimized)), (lambda: run(optimized))


def build_scenarios() -> Dict[str, Scenario]:
    """name -> (unoptimized, optimized) over join-heavy selective instances."""
    scenarios: Dict[str, Scenario] = {}

    chain_db, chain_query, _ = chain_workload(4, 40, seed=3)
    scenarios["chain4x40_selective"] = _scenario(
        chain_db, Select(chain_query, parse_predicate("A1 = 0"))
    )

    chain5_db, chain5_query, _ = chain_workload(5, 30, seed=5)
    scenarios["chain5x30_selective"] = _scenario(
        chain5_db, Select(chain5_query, parse_predicate("A1 = 0"))
    )

    # star_workload's value domain caps arm relations at 9 rows.
    star_db, star_query, _ = star_workload(4, 8, seed=7)
    scenarios["star4x8_selective"] = _scenario(
        star_db, Select(star_query, parse_predicate("V1 = 0"))
    )

    ug_db, ug_query, _ = usergroup_workload(150, 40, 60, seed=11)
    scenarios["usergroup150_selective"] = _scenario(
        ug_db, Select(ug_query, parse_predicate("user = 'u0'"))
    )

    bad_db, bad_query = _bad_order_chain(4, 30, seed=13)
    scenarios["chain4x30_bad_join_order"] = _scenario(bad_db, bad_query)

    return scenarios


def build_smoke_scenarios() -> Dict[str, Scenario]:
    """Tiny-size equivalence subset for ``run_all.py --smoke``."""
    chain_db, chain_query, _ = chain_workload(3, 10, seed=1)
    bad_db, bad_query = _bad_order_chain(4, 6, seed=1)
    return {
        "smoke_chain3x10_selective": _scenario(
            chain_db, Select(chain_query, parse_predicate("A1 = 0"))
        ),
        "smoke_chain4x6_bad_join_order": _scenario(bad_db, bad_query),
    }


def _measure(scenarios: Dict[str, Scenario], repeats: int) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for name, (unoptimized, optimized) in scenarios.items():
        match = unoptimized() == optimized()
        baseline_s = time_call(unoptimized, repeats=repeats)
        new_s = time_call(optimized, repeats=repeats)
        entries.append(
            {
                "name": name,
                "match": match,
                "baseline_s": baseline_s,
                "new_s": new_s,
                "speedup": baseline_s / max(new_s, 1e-9),
            }
        )
    return entries


def _emit(entries: List[Dict[str, object]], json_path: str = JSON_PATH) -> Dict[str, object]:
    section = {
        "generated_by": "benchmarks/bench_optimizer.py",
        "ablation": "unoptimized compiled plan vs staged-compiler plan "
        "(pushdown + pruning + join reordering; both compiled outside the "
        "timer), base + hypothetical databases",
        "entries": entries,
        "median_speedup": median(e["speedup"] for e in entries),
        "all_answers_match": all(e["match"] for e in entries),
    }
    # Merge into BENCH_plan.json, preserving bench_plan_compile's sections.
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["optimizer"] = section
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
    lines = ["Plan optimizer — unoptimized vs optimized compiled plans", ""]
    lines += format_table(
        ("Scenario", "Unoptimized", "Optimized", "Speedup", "Match"), rows
    )
    lines += [
        "",
        f"median optimizer speedup: {section['median_speedup']:.1f}x "
        f"(target ≥ {TARGET_MEDIAN}x)",
        f"json: {json_path} (key: optimizer)",
    ]
    write_report("optimizer", lines, json_path)
    return section


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_scenarios()))
def test_optimizer_matches_baseline_smoke(benchmark, name):
    """bench-smoke: tiny-size equivalence of optimized plans, in ms."""
    unoptimized, optimized = build_smoke_scenarios()[name]
    assert unoptimized() == optimized()
    benchmark(optimized)


def test_regenerate_bench_optimizer(benchmark):
    """Full comparison on the join-heavy selective instances."""
    entries = _measure(build_scenarios(), repeats=5)
    section = _emit(entries)
    assert section["all_answers_match"]
    assert section["median_speedup"] >= TARGET_MEDIAN, section["median_speedup"]
    benchmark(lambda: None)  # regeneration is correctness-, not time-bound


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=JSON_PATH,
        help="path of the BENCH_plan.json file to merge results into",
    )
    args = parser.parse_args(argv)
    entries = _measure(build_scenarios(), repeats=5)
    section = _emit(entries, json_path=args.json)
    if not section["all_answers_match"]:
        raise SystemExit("answer mismatch — see report")
    if section["median_speedup"] < TARGET_MEDIAN:
        raise SystemExit(
            f"optimizer speedup {section['median_speedup']:.2f}x below "
            f"{TARGET_MEDIAN}x"
        )


if __name__ == "__main__":
    main()
