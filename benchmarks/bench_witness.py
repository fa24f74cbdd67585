"""Array-native witnesses, measured: tuple-space annotation vs CSR tables.

PR 8 rewrites the annotated executor to stay in arrays end to end: scan
witnesses are row-id vectors, Project/Union group-merges and HashJoin
witness products run as sort/reduce kernels over padded bit matrices, and
the result lands as a :class:`~repro.provenance.witness_table.WitnessTable`
— per-row offsets, per-witness offsets, one flat int64 array of source-id
bits — instead of a dict of whole-universe int masks.  This harness
measures that ablation on the compiled level-1 plans the serving engine
runs: the identical :class:`~repro.algebra.plan.CompiledPlan` annotated
once through ``plan.annotated_rows(db, index)`` (the tuple executor, the
bit-identical oracle) and once through
``plan.annotated_table_columnar(store, index)`` over a pre-built store
and a shared :class:`~repro.provenance.interning.SourceIndex`.

Two instance groups, mirroring ``bench_columnar.py``:

* **scale (tracked)** — the largest scan/join-heavy scaling families
  (SPU, SJ, chain, usergroup); this is the regime the vectorized witness
  kernels target and the one the ``witness.median_speedup`` gate tracks
  (target ≥ :data:`TARGET_MEDIAN`).
* **mid (reported, untracked)** — the same families an order of magnitude
  smaller, where fixed array-setup overheads eat a larger share.

Plus the **memory footprint** per tracked instance — the three CSR arrays
against an estimate of the dict-of-int-masks table — and a **batched
hypothetical-deletion leg** pinning that a kernel built from the CSR table
answers ``batch_surviving_rows`` identically to one built from the tuple
table.

Both paths are warmed (and the CSR table's ``to_masks()`` view asserted
equal to the oracle, element for element) before timing.  Results merge
into ``BENCH_plan.json`` under the ``witness`` key; ``run_all.py
--compare`` gates ``witness.median_speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from statistics import median
from typing import Dict, List, Tuple

import pytest

# The columnar witness kernels this harness measures exist only where numpy imports.
pytest.importorskip("numpy")

from repro.columnar import ColumnStore
from repro.provenance import provenance_cache
from repro.provenance.bitset import BitsetProvenance, bitset_why_provenance
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

#: The acceptance bar on the scale group's median tuple-vs-CSR speedup.
TARGET_MEDIAN = 3.0

#: The optimizer level whose compiled plans both paths execute.
PLAN_LEVEL = 1

#: Candidate deletions per instance in the batched survival leg.
BATCH_CANDIDATES = 64


def _scenario(db, query):
    """(tuple callable, CSR callable, store) for one instance.

    Plan and store are built up front: the ablation times warm annotated
    evaluation, the cost :func:`~repro.provenance.bitset.
    bitset_why_provenance` pays per cold ``(query, db)`` pair after the
    plan and store caches hit.  Both paths intern through the store's own
    index, so the masks land in the same bit space.
    """
    plan = cached_plan(query, db, PLAN_LEVEL)
    store = ColumnStore(db)
    index = store.index

    def tuple_path():
        return plan.annotated_rows(db, index)

    def csr_path():
        return plan.annotated_table_columnar(store, index)

    return tuple_path, csr_path, store


def _mask_dict_bytes(table: Dict[tuple, Tuple[int, ...]]) -> int:
    """Rough bytes of the dict-of-int-masks form: dict + tuples + ints.

    Deliberately an *underestimate* (row-key tuples are not charged, they
    exist on both sides), so the reported CSR-vs-dict ratio never flatters
    the array side.
    """
    total = sys.getsizeof(table)
    for masks in table.values():
        total += sys.getsizeof(masks)
        total += sum(sys.getsizeof(m) for m in masks)
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
        scenarios[f"witness_{name}"] = (group, _scenario(db, query) + (db, query))
    return scenarios


def build_smoke_scenarios() -> Dict[str, tuple]:
    """Tiny (db, query) instances for ``run_all.py --smoke``."""
    out: Dict[str, tuple] = {}
    for name, (db, query, _target) in {
        "spu_rows300": spu_workload(300, seed=1),
        "ug_users200": usergroup_workload(200, 10, 100, seed=1),
    }.items():
        out[f"smoke_witness_{name}"] = (db, query)
    return out


def _batch_survival_check(db, query, store, candidates: int) -> bool:
    """CSR-built and tuple-built kernels answer batched survival equally.

    Both kernels share the store's index, so the same random masks mean
    the same hypothetical deletions; the answers must be identical row
    frozensets.
    """
    prov_csr = bitset_why_provenance(query, db, store=store)
    prov_tuple = bitset_why_provenance(query, db, index=store.index)
    rng = random.Random(99)
    nbits = max(len(store.index), 1)
    batch = []
    for _ in range(candidates):
        mask = 0
        for bit in rng.sample(range(nbits), min(nbits, 4)):
            mask |= 1 << bit
        batch.append(mask)
    return prov_csr.batch_surviving_rows(batch) == prov_tuple.batch_surviving_rows(
        batch
    )


def _measure(
    scenarios: Dict[str, Tuple[str, tuple]], repeats: int
) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for name, (group, (tuple_path, csr_path, store, db, query)) in scenarios.items():
        # Warm both paths and pin the equivalence before anything is timed.
        oracle = tuple_path()
        table = csr_path()
        match = table.to_masks() == oracle
        batch_match = _batch_survival_check(db, query, store, BATCH_CANDIDATES)
        tuple_s = time_call(tuple_path, repeats=repeats)
        csr_s = time_call(csr_path, repeats=repeats)
        entries.append(
            {
                "name": name,
                "group": group,
                "tuple_s": tuple_s,
                "csr_s": csr_s,
                "speedup": tuple_s / max(csr_s, 1e-9),
                "match": match and batch_match,
                "rows_out": len(oracle),
                "witnesses": table.witness_count,
                "csr_bytes": table.memory_bytes(),
                "mask_dict_bytes": _mask_dict_bytes(oracle),
            }
        )
    return entries


def _emit(
    entries: List[Dict[str, object]], json_path: str = JSON_PATH
) -> Dict[str, object]:
    def group_median(group: str) -> float:
        return median(e["speedup"] for e in entries if e["group"] == group)

    section: Dict[str, object] = {
        "generated_by": "benchmarks/bench_witness.py",
        "ablation": "compiled level-1 plans annotated via "
        "plan.annotated_rows(db, index) (tuple executor over big-int "
        "masks, the oracle) vs plan.annotated_table_columnar(store, "
        "index) (vectorized kernels landing in a CSR WitnessTable), "
        "both warmed and asserted bit-identical before timing",
        "tracked_group": "scale (largest scan/join-heavy scaling "
        "families; order-of-magnitude-smaller mid instances are reported "
        "but untracked)",
        "plan_level": PLAN_LEVEL,
        "entries": entries,
        "all_answers_match": all(e["match"] for e in entries),
        "median_speedup": group_median("scale"),
        "median_speedup_mid": group_median("mid"),
        "cache_stats": provenance_cache.stats(),
    }
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["witness"] = section
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            f"{e['tuple_s'] * 1e3:.2f} ms",
            f"{e['csr_s'] * 1e3:.2f} ms",
            f"{e['speedup']:.2f}x",
            e["match"],
        )
        for e in entries
    ]
    lines = ["Array-native witnesses — tuple-space annotation vs CSR tables", ""]
    lines += format_table(
        ("Scenario", "Tuple exec", "CSR kernels", "Speedup", "Match"), rows
    )
    lines += ["", "Memory footprint (CSR arrays vs dict-of-int-masks):", ""]
    lines += format_table(
        ("Scenario", "CSR", "Mask dict", "Ratio"),
        [
            (
                e["name"],
                f"{e['csr_bytes'] / 1024:.0f} KiB",
                f"{e['mask_dict_bytes'] / 1024:.0f} KiB",
                f"{e['csr_bytes'] / max(e['mask_dict_bytes'], 1):.2f}",
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
        f"json: {json_path} (key: witness)",
    ]
    write_report("witness", lines)
    return section


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_scenarios()))
def test_witness_matches_tuple_smoke(benchmark, name):
    """bench-smoke: tiny equivalence of tuple and CSR witness tables."""
    db, query = build_smoke_scenarios()[name]
    tuple_path, csr_path, _store = _scenario(db, query)
    oracle = tuple_path()
    assert csr_path().to_masks() == oracle
    benchmark(csr_path)


@pytest.mark.bench_smoke
def test_witness_batch_survival_smoke(benchmark):
    """bench-smoke: CSR-built kernels answer batched survival identically."""
    db, query, _target = spu_workload(200, seed=2)
    store = ColumnStore(db)
    assert _batch_survival_check(db, query, store, candidates=16)
    benchmark(lambda: None)


def test_regenerate_bench_witness(benchmark):
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
            f"witness speedup {section['median_speedup']:.2f}x is below "
            f"{TARGET_MEDIAN}x on the scale group"
        )


if __name__ == "__main__":
    main()
