"""Old vs. new provenance engine: the bitset kernel, measured.

Every deletion algorithm in this repository reduces to operations over
minimal witnesses — computing them, testing survival, and scanning the side
effects of candidate deletions.  The seed implementation ran all of that on
``frozenset``-of-``frozenset`` witness sets, rescanned the whole view for
every candidate, and recomputed the provenance from scratch in every entry
point.  The bitset kernel (:mod:`repro.provenance.bitset`) interns source
tuples to integer ids, represents monomials as int bitmasks, answers
side-effect queries through an inverted source-bit → view-row index, and
shares one memoized computation per ``(query, db)`` through
:mod:`repro.provenance.cache`.

This harness compares the two paths on the **largest instances of the
Table 1 and Table 2 harnesses** (``bench_table1_view_side_effect.py`` /
``bench_table2_source_side_effect.py``).  The headline entries time the
*provenance workload* a solver performs on each instance:

1. build the why-provenance of the view;
2. scan the side effects of every single-tuple candidate deletion — the
   inner loop of the component scans, the exact searches, and
   ``side_effect_free_exists``;
3. batch-test survival of every view row under random deletion sets.

Transparency entries isolate the evaluator alone (``build_only``).  The
seed path is rebuilt from :func:`repro.oracle.legacy_witnesses` (the
frozenset evaluator) plus the seed's full-view survival scan.  Answers are
asserted identical everywhere; results land in ``BENCH_provenance.json``
at the repository root with per-entry timings and the median speedup.
"""

from __future__ import annotations

import json
import os
import random
from statistics import median
from typing import Callable, Dict, List, Tuple

import pytest

from repro.oracle import legacy_witnesses
from repro.provenance import provenance_cache
from repro.provenance.why import why_provenance
from repro.reductions import (
    encode_ju_source,
    encode_ju_view,
    encode_pj_source,
    encode_pj_view,
    random_hitting_set,
    random_monotone_3sat,
)
from repro.workloads import (
    chain_workload,
    sj_workload,
    spu_workload,
    star_workload,
)

from _report import format_table, time_call, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_provenance.json")

#: Pair of same-answer callables: (legacy seed path, bitset kernel path).
Scenario = Tuple[Callable[[], object], Callable[[], object]]

#: Number of random deletion sets in the survival batch.
SURVIVAL_BATCH = 20


def _legacy_survives(witnesses, deletions) -> bool:
    """The seed survival test: some minimal witness misses ``deletions``."""
    return any(not (monomial & deletions) for monomial in witnesses)


# ----------------------------------------------------------------------
# Scenario builders.  Each returns (legacy_callable, kernel_callable);
# both must return comparable (==) results.
# ----------------------------------------------------------------------

def _provenance_workload(db, query, target, seed: int = 0) -> Scenario:
    """Build + per-candidate side-effect scan + survival batch."""
    candidates = db.all_source_tuples()
    rng = random.Random(seed)
    deletion_sets = [
        frozenset(rng.sample(candidates, min(4, len(candidates))))
        for _ in range(SURVIVAL_BATCH)
    ]

    def legacy():
        table = legacy_witnesses(query, db)
        effects = [
            frozenset(
                row
                for row, witnesses in table.items()
                if row != target
                and not _legacy_survives(witnesses, frozenset({s}))
            )
            for s in candidates
        ]
        rows = sorted(table, key=repr)
        survival = [
            _legacy_survives(table[row], dels)
            for dels in deletion_sets
            for row in rows
        ]
        return effects, survival

    def kernel():
        provenance_cache.clear()
        prov = why_provenance(query, db)
        k = prov.kernel
        effects = [
            k.side_effects_mask(target, k.encode_deletions_auto(frozenset({s})))
            for s in candidates
        ]
        rows = prov.rows
        survival = []
        for dels in deletion_sets:
            mask = k.encode_deletions_auto(dels)
            survival.extend(k.survives_mask(row, mask) for row in rows)
        return effects, survival

    return legacy, kernel


def _build_only(db, query) -> Scenario:
    """The annotated evaluator alone, decoded at the boundary."""

    def legacy():
        return legacy_witnesses(query, db)

    def kernel():
        provenance_cache.clear()
        return why_provenance(query, db).as_dict()

    return legacy, kernel


def _instances() -> Dict[str, Tuple[str, Tuple]]:
    """The largest (db, query, target) of each Table 1 / Table 2 harness row."""
    pj_view = encode_pj_view(random_monotone_3sat(6, 8, seed=7))
    ju_view = encode_ju_view(random_monotone_3sat(6, 8, seed=7))
    pj_sets, pj_n = random_hitting_set(5, 5, 2, seed=5)
    pj_source = encode_pj_source(pj_sets, pj_n)
    ju_sets, ju_n = random_hitting_set(8, 16, 3, seed=16)
    ju_source = encode_ju_source(ju_sets, ju_n)
    return {
        "table1_spu_view_rows200": ("table1", spu_workload(200, seed=1)),
        "table1_sj_view_rows100": ("table1", sj_workload(100, seed=1)),
        "table1_pj_decision_6v8c": (
            "table1",
            (pj_view.db, pj_view.query, pj_view.target),
        ),
        "table1_ju_decision_6v8c": (
            "table1",
            (ju_view.db, ju_view.query, ju_view.target),
        ),
        "table2_spu_source_rows200": ("table2", spu_workload(200, seed=2)),
        "table2_sj_source_rows100": ("table2", sj_workload(100, seed=2)),
        "table2_pj_source_encoded_n5": (
            "table2",
            (pj_source.db, pj_source.query, pj_source.target),
        ),
        "table2_ju_source_encoded_16sets": (
            "table2",
            (ju_source.db, ju_source.query, ju_source.target),
        ),
        "table2_chain_4rels_rows40": ("table2", chain_workload(4, 40, seed=3)),
        "table2_star_exact_3arms_rows6": ("table2", star_workload(3, 6, seed=3)),
    }


def build_scenarios() -> Dict[str, Tuple[str, Scenario]]:
    """All benchmark entries: name -> (group, (legacy, kernel))."""
    scenarios: Dict[str, Tuple[str, Scenario]] = {}
    for name, (group, (db, query, target)) in _instances().items():
        scenarios[name] = (group, _provenance_workload(db, query, target))

    t1_spu = spu_workload(200, seed=1)
    t1_sj = sj_workload(100, seed=1)
    scenarios["build_only_spu_rows200"] = ("build", _build_only(t1_spu[0], t1_spu[1]))
    scenarios["build_only_sj_rows100"] = ("build", _build_only(t1_sj[0], t1_sj[1]))
    return scenarios


#: Tiny-size variants for the bench-smoke subset.
def build_smoke_scenarios() -> Dict[str, Scenario]:
    spu = spu_workload(30, seed=1)
    sj = sj_workload(15, seed=1)
    return {
        "smoke_spu_view_rows30": _provenance_workload(*spu),
        "smoke_sj_view_rows15": _provenance_workload(*sj),
    }


def _measure(
    scenarios: Dict[str, Tuple[str, Scenario]], repeats: int
) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for name, (group, (legacy, kernel)) in scenarios.items():
        match = legacy() == kernel()
        legacy_s = time_call(legacy, repeats=repeats)
        kernel_s = time_call(kernel, repeats=repeats)
        entries.append(
            {
                "name": name,
                "group": group,
                "match": match,
                "legacy_s": legacy_s,
                "kernel_s": kernel_s,
                "speedup": legacy_s / max(kernel_s, 1e-9),
            }
        )
    return entries


def _emit(entries: List[Dict[str, object]]) -> Dict[str, object]:
    speedups = [e["speedup"] for e in entries]

    def group_median(group: str) -> float:
        return median(e["speedup"] for e in entries if e["group"] == group)

    table_speedups = [
        e["speedup"] for e in entries if e["group"] in ("table1", "table2")
    ]
    data = {
        "generated_by": "benchmarks/bench_provenance_kernel.py",
        "old_path": "frozenset witness DNF, full-view side-effect scans, "
        "provenance recomputed per call (seed)",
        "new_path": "bitset kernel (interned ids, int bitmasks, inverted "
        "source-bit index) + shared provenance cache",
        "entries": entries,
        # The headline number: median over the largest Table 1 / Table 2
        # harness instances (the acceptance metric for this kernel).
        "median_speedup": median(table_speedups),
        "table1_median_speedup": group_median("table1"),
        "table2_median_speedup": group_median("table2"),
        # Median over every entry, including the diagnostic build_only
        # group that isolates the evaluator.
        "overall_median_speedup": median(speedups),
        "all_answers_match": all(e["match"] for e in entries),
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            f"{e['legacy_s'] * 1e3:.2f} ms",
            f"{e['kernel_s'] * 1e3:.2f} ms",
            f"{e['speedup']:.1f}x",
            e["match"],
        )
        for e in entries
    ]
    lines = ["Provenance kernel — old (frozenset, uncached) vs new (bitset, cached)", ""]
    lines += format_table(("Scenario", "Legacy", "Kernel", "Speedup", "Match"), rows)
    lines += [
        "",
        f"median speedup on the table1/table2 instances: "
        f"{data['median_speedup']:.1f}x "
        f"(table1 {data['table1_median_speedup']:.1f}x, "
        f"table2 {data['table2_median_speedup']:.1f}x); "
        f"all entries incl. diagnostics: "
        f"{data['overall_median_speedup']:.1f}x",
        f"json: {JSON_PATH}",
    ]
    write_report("provenance_kernel", lines)
    return data


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_scenarios()))
def test_kernel_matches_legacy_smoke(benchmark, name):
    """bench-smoke: tiny-size equivalence of the two engines, in milliseconds."""
    legacy, kernel = build_smoke_scenarios()[name]
    assert legacy() == kernel()
    benchmark(kernel)


def test_regenerate_bench_provenance(benchmark):
    """Full comparison at the largest Table 1 / Table 2 harness sizes."""
    entries = _measure(build_scenarios(), repeats=5)
    data = _emit(entries)
    assert data["all_answers_match"]
    assert data["median_speedup"] >= 5.0, data["median_speedup"]
    benchmark(lambda: None)  # regeneration is correctness-, not time-bound


def main() -> None:
    entries = _measure(build_scenarios(), repeats=5)
    data = _emit(entries)
    if not data["all_answers_match"]:
        raise SystemExit("engine mismatch — see report")


if __name__ == "__main__":
    main()
