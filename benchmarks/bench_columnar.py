"""Columnar substrate, measured: tuple-based compiled plans vs ColumnStore.

PR 7 lowers relations into dictionary-encoded numpy columns
(:class:`~repro.columnar.store.ColumnStore`) and executes the same
physical plans over them (:func:`~repro.columnar.kernels.columnar_rows`):
vectorized scan predicates, packed-key hash joins on encoded columns, and
decode back to Python tuples only at the frozenset API boundary.  This
harness measures that ablation on the compiled level-1 plans the serving
engine runs: the identical :class:`~repro.algebra.plan.CompiledPlan`
answered once through ``plan.rows(db)`` (the tuple interpreter over
frozensets, the construction-time source of truth and the oracle here)
and once through ``columnar_rows(plan, store)`` with a pre-built store —
the warm-oracle regime, where the store is built once per snapshot and
reused across requests.

Two instance groups:

* **scale (tracked)** — the largest scan/join-heavy scaling families
  (SPU, SJ, chain, usergroup) at sizes where per-row interpreter overhead
  dominates the tuple path.  This is the regime the columnar kernels
  target, and the one the ``columnar.median_speedup`` gate tracks
  (target ≥ :data:`TARGET_MEDIAN`).
* **mid (reported, untracked)** — the same families an order of magnitude
  smaller, where fixed vectorization overheads (array setup, decode) eat
  a larger share and the honest expectation is a smaller win.

Plus the **memory footprint** per tracked instance — the store's encoded
column/id-vector bytes against an estimate of the tuple-side row objects.

Both paths are warmed (and asserted equal) before timing, so plan
compilation and store construction are excluded from both sides.
Results merge into ``BENCH_plan.json`` under the ``columnar`` key;
``run_all.py --compare`` gates ``columnar.median_speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median
from typing import Callable, Dict, List, Tuple

import pytest

# The column store this harness measures exists only where numpy imports.
pytest.importorskip("numpy")

from repro.columnar import ColumnStore, columnar_rows
from repro.provenance import provenance_cache
from repro.provenance.cache import cached_plan
from repro.workloads import (
    chain_workload,
    sj_workload,
    spu_workload,
    usergroup_workload,
)

from _report import format_table, time_call, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

#: The acceptance bar on the scale group's median tuple-vs-columnar speedup.
TARGET_MEDIAN = 3.0

#: The optimizer level whose compiled plans both paths execute.
PLAN_LEVEL = 1


def _scenario(db, query):
    """(tuple callable, columnar callable, store) for one instance.

    Plan and store are built up front: the ablation times warm execution,
    the per-request cost a serving engine pays after
    ``cached_plan``/``cached_column_store`` hits.
    """
    plan = cached_plan(query, db, PLAN_LEVEL)
    store = ColumnStore(db)

    def tuple_path():
        return plan.rows(db)

    def col_path():
        return columnar_rows(plan, store)

    return tuple_path, col_path, store


def _tuple_bytes(db) -> int:
    """Rough tuple-side bytes: row tuples + their container sets.

    Deliberately an *underestimate* (shared value objects are not charged),
    so the reported store-vs-tuple ratio never flatters the columnar side.
    """
    total = 0
    for relation in db.relations:
        rows = relation.rows
        total += sys.getsizeof(rows)
        total += sum(sys.getsizeof(row) for row in rows)
    return total


def build_scenarios() -> Dict[str, Tuple[str, tuple]]:
    """name -> (group, scenario); group "scale" feeds the tracked median."""
    scenarios: Dict[str, Tuple[str, tuple]] = {}
    families: Dict[str, Tuple[str, tuple]] = {
        "spu_rows10000": ("scale", spu_workload(10000, seed=3)),
        "sj_rows4000": ("scale", sj_workload(4000, seed=4)),
        "chain_3rels_rows8000": ("scale", chain_workload(3, 8000, seed=5)),
        "ug_users8000": ("scale", usergroup_workload(8000, 120, 4000, seed=6)),
        "spu_rows1000": ("mid", spu_workload(1000, seed=3)),
        "sj_rows400": ("mid", sj_workload(400, seed=4)),
        "chain_3rels_rows800": ("mid", chain_workload(3, 800, seed=5)),
        "ug_users800": ("mid", usergroup_workload(800, 40, 400, seed=6)),
    }
    for name, (group, (db, query, _target)) in families.items():
        scenarios[f"columnar_{name}"] = (group, _scenario(db, query) + (db,))
    return scenarios


def build_smoke_scenarios() -> Dict[str, tuple]:
    """Tiny equivalence subset for ``run_all.py --smoke``."""
    out: Dict[str, tuple] = {}
    for name, (db, query, _target) in {
        "spu_rows300": spu_workload(300, seed=1),
        "chain_3rels_rows200": chain_workload(3, 200, seed=1),
    }.items():
        out[f"smoke_columnar_{name}"] = _scenario(db, query)
    return out


def _measure(
    scenarios: Dict[str, Tuple[str, tuple]], repeats: int
) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for name, (group, (tuple_path, col_path, store, db)) in scenarios.items():
        # Warm both paths and pin the equivalence before anything is timed.
        oracle = tuple_path()
        match = col_path() == oracle
        tuple_s = time_call(tuple_path, repeats=repeats)
        col_s = time_call(col_path, repeats=repeats)
        entries.append(
            {
                "name": name,
                "group": group,
                "tuple_s": tuple_s,
                "col_s": col_s,
                "speedup": tuple_s / max(col_s, 1e-9),
                "match": match,
                "rows_out": len(oracle),
                "store_bytes": store.memory_bytes(),
                "tuple_bytes": _tuple_bytes(db),
            }
        )
    return entries


def _emit(
    entries: List[Dict[str, object]],
    json_path: str = JSON_PATH,
) -> Dict[str, object]:
    def group_median(group: str) -> float:
        return median(e["speedup"] for e in entries if e["group"] == group)

    section: Dict[str, object] = {
        "generated_by": "benchmarks/bench_columnar.py",
        "ablation": "compiled level-1 plans answered via plan.rows(db) "
        "(tuple interpreter over frozensets, the oracle) vs "
        "columnar_rows(plan, store) (dictionary-encoded numpy columns, "
        "vectorized scan/filter/join kernels), both warmed before timing",
        "tracked_group": "scale (largest scan/join-heavy scaling "
        "families; order-of-magnitude-smaller mid instances are reported "
        "but untracked)",
        "plan_level": PLAN_LEVEL,
        "entries": entries,
        "all_answers_match": all(e["match"] for e in entries),
        "median_speedup": group_median("scale"),
        "median_speedup_mid": group_median("mid"),
    }
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["columnar"] = section
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            f"{e['tuple_s'] * 1e3:.2f} ms",
            f"{e['col_s'] * 1e3:.2f} ms",
            f"{e['speedup']:.2f}x",
            e["match"],
        )
        for e in entries
    ]
    lines = ["Columnar substrate — tuple-based compiled plans vs ColumnStore", ""]
    lines += format_table(
        ("Scenario", "Tuple plan", "Columnar", "Speedup", "Match"), rows
    )
    lines += ["", "Memory footprint (encoded store vs tuple-side rows):", ""]
    lines += format_table(
        ("Scenario", "Store", "Tuples", "Ratio"),
        [
            (
                e["name"],
                f"{e['store_bytes'] / 1024:.0f} KiB",
                f"{e['tuple_bytes'] / 1024:.0f} KiB",
                f"{e['store_bytes'] / max(e['tuple_bytes'], 1):.2f}",
            )
            for e in entries
            if e["group"] == "scale"
        ],
    )
    lines += [
        "",
        f"median speedup (scale group, tracked): "
        f"{section['median_speedup']:.2f}x (target ≥ {TARGET_MEDIAN}x)",
        f"median speedup (mid group, untracked): "
        f"{section['median_speedup_mid']:.2f}x",
        f"provenance cache during the run: {provenance_cache.stats()}",
        f"json: {json_path} (key: columnar)",
    ]
    write_report("columnar", lines, json_path)
    return section


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_scenarios()))
def test_columnar_matches_tuple_smoke(benchmark, name):
    """bench-smoke: tiny equivalence of tuple and columnar answers."""
    tuple_path, col_path, _store = build_smoke_scenarios()[name]
    oracle = tuple_path()
    assert col_path() == oracle
    benchmark(col_path)


def test_regenerate_bench_columnar(benchmark):
    """Full comparison: scale + mid scaling families."""
    provenance_cache.clear()  # counters scoped to this run (reset by clear)
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
    provenance_cache.clear()  # counters scoped to this run (reset by clear)
    entries = _measure(build_scenarios(), repeats=5)
    section = _emit(entries, json_path=args.json)
    if not section["all_answers_match"]:
        raise SystemExit("answer mismatch — see report")
    if section["median_speedup"] < TARGET_MEDIAN:
        raise SystemExit(
            f"columnar speedup {section['median_speedup']:.2f}x is below "
            f"{TARGET_MEDIAN}x on the scale group"
        )


if __name__ == "__main__":
    main()
