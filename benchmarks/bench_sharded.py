"""Long candidate vectors, measured: vectorized kernel vs survival index.

The exact deletion solvers spend their time asking "what survives after
deleting ``T``?" for whole vectors of candidate sets.
:class:`~repro.provenance.bitset.BitsetProvenance` answers a vector of at
least :data:`~repro.provenance.bitset.VECTORIZED_MIN_BATCH` candidates on
the vectorized kernel (:class:`~repro.provenance.witness_table.
VectorSurvival`: two sparse matrix products per chunk, numpy + scipy, with
identical answers interned) and shorter vectors on the pure-Python
:class:`~repro.provenance.witness_table.SurvivalIndex`.  This harness
measures that choice on solver-realistic vectors: every single-tuple
deletion plus :data:`UNIVERSE_CANDIDATES` random subsets of the target's
witness universe, the population the hitting-set enumerators draw from.

* **vectorized** — :meth:`~repro.deletion.hypothetical.
  HypotheticalDeletions.batch_view_after` over the whole vector in one
  call;
* **survival index** — the same candidates in consecutive calls of
  ``VECTORIZED_MIN_BATCH - 1``, each short enough to stay on the survival
  index.

The instances are the largest Table 1 / Table 2 rows
(``bench_provenance_kernel.py``) plus chain/star extras.  The tracked
median covers the **size-scaled families** (SPU, SJ, chain, star); the
``pj_``/``ju_`` rows are constant-size hardness gadgets whose views hold a
handful of rows, reported (group ``encoded``) but untracked.  Per-instance
ratios below 1× are reported as-is.

Answers are asserted identical.  Results merge into ``BENCH_plan.json``
under the ``sharded`` key (the name predates the worker pools' removal);
the harness's own bar is a median of at least :data:`TARGET_MEDIAN`, and
``run_all.py --compare`` gates ``sharded.median_speedup_vectorized``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from statistics import median
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.deletion import HypotheticalDeletions
from repro.provenance import provenance_cache
from repro.provenance.bitset import VECTORIZED_MIN_BATCH
from repro.provenance.locations import SourceTuple
from repro.workloads import chain_workload, sj_workload, spu_workload, star_workload

from _report import format_table, time_call, write_report
from bench_provenance_kernel import _instances

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

#: Random universe-subset candidates appended to the single-tuple vector.
UNIVERSE_CANDIDATES = 16000

#: The harness's own bar on the scaling families' median.
TARGET_MEDIAN = 2.0

#: Calls of this many candidates never reach the vectorized kernel.
SHORT_CALL = VECTORIZED_MIN_BATCH - 1


def _candidate_vector(
    db, oracle: HypotheticalDeletions, target, extra: int, seed: int = 0
):
    """Every single-tuple deletion plus ``extra`` random small subsets of
    the target's witness universe."""
    kernel = oracle.provenance.kernel
    universe = sorted(
        kernel.index.decode_mask(kernel.universe_mask(tuple(target))), key=repr
    )
    rng = random.Random(seed)
    candidates: List[FrozenSet[SourceTuple]] = [
        frozenset({source}) for source in db.all_source_tuples()
    ]
    for _ in range(extra):
        size = rng.randint(1, min(4, len(universe)))
        candidates.append(frozenset(rng.sample(universe, size)))
    return candidates


def _scenario(db, query, target, extra: int = UNIVERSE_CANDIDATES):
    """(survival-index callable, vectorized callable), same answers."""
    oracle = HypotheticalDeletions(query, db)
    candidates = _candidate_vector(db, oracle, target, extra)

    def survival_index():
        out: List[FrozenSet] = []
        for start in range(0, len(candidates), SHORT_CALL):
            out += oracle.batch_view_after(candidates[start : start + SHORT_CALL])
        return out

    def vectorized():
        return oracle.batch_view_after(candidates)

    return survival_index, vectorized


def build_scenarios() -> Dict[str, Tuple[str, Tuple]]:
    """name -> (group, scenario); group "scaling" feeds the tracked median."""
    scenarios: Dict[str, Tuple[str, Tuple]] = {}
    for name, (_table, (db, query, target)) in _instances().items():
        encoded = "_pj_" in name or "_ju_" in name
        group = "encoded" if encoded else "scaling"
        scenarios[f"sharded_{name}"] = (group, _scenario(db, query, target))
    # Extra chain/star shapes beyond the tracked harness rows.
    chain5 = chain_workload(5, 30, seed=5)
    scenarios["sharded_chain_5rels_rows30"] = ("scaling", _scenario(*chain5))
    star4 = star_workload(4, 8, seed=7)
    scenarios["sharded_star_4arms_rows8"] = ("scaling", _scenario(*star4))
    return scenarios


def build_smoke_scenarios() -> Dict[str, Tuple]:
    """Tiny-size equivalence subset for ``run_all.py --smoke``."""
    return {
        "smoke_sharded_spu_rows30": _scenario(*spu_workload(30, seed=1), extra=400),
        "smoke_sharded_sj_rows15": _scenario(*sj_workload(15, seed=1), extra=400),
    }


def _measure(
    scenarios: Dict[str, Tuple[str, Tuple]], repeats: int
) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for name, (group, (survival_index, vectorized)) in scenarios.items():
        match = vectorized() == survival_index()
        survival_s = time_call(survival_index, repeats=repeats)
        vectorized_s = time_call(vectorized, repeats=repeats)
        entries.append(
            {
                "name": name,
                "group": group,
                "survival_index_s": survival_s,
                "vectorized_s": vectorized_s,
                "speedup_vectorized": survival_s / max(vectorized_s, 1e-9),
                "match": match,
            }
        )
    return entries


def _emit(
    entries: List[Dict[str, object]], json_path: str = JSON_PATH
) -> Dict[str, object]:
    def group_median(groups: Tuple[str, ...]) -> float:
        return median(
            e["speedup_vectorized"] for e in entries if e["group"] in groups
        )

    section: Dict[str, object] = {
        "generated_by": "benchmarks/bench_sharded.py",
        "ablation": "batch_view_after over single-tuple + witness-universe "
        f"candidate vectors ({UNIVERSE_CANDIDATES} random subsets): one "
        "call (vectorized sparse kernel, interned answers) vs consecutive "
        f"calls of {SHORT_CALL} candidates (SurvivalIndex)",
        "tracked_group": "scaling (size-scaled SPU/SJ/chain/star families; "
        "constant-size pj/ju hardness gadgets are reported but untracked)",
        "entries": entries,
        "all_answers_match": all(e["match"] for e in entries),
        "median_speedup_vectorized": group_median(("scaling",)),
        "median_speedup_all_vectorized": group_median(("scaling", "encoded")),
    }
    # Merge into BENCH_plan.json, preserving the other harnesses' sections.
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["sharded"] = section
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            e["group"],
            f"{e['survival_index_s'] * 1e3:.2f} ms",
            f"{e['vectorized_s'] * 1e3:.2f} ms",
            f"{e['speedup_vectorized']:.2f}x",
            e["match"],
        )
        for e in entries
    ]
    lines = ["Long candidate vectors — vectorized kernel vs survival index", ""]
    lines += format_table(
        ("Scenario", "Group", "SurvivalIndex", "Vectorized", "Speedup", "Match"),
        rows,
    )
    lines += [
        "",
        f"median vectorized speedup (scaling families, tracked): "
        f"{section['median_speedup_vectorized']:.2f}x "
        f"(target ≥ {TARGET_MEDIAN}x)",
        f"median over every entry incl. encoded gadgets: "
        f"{section['median_speedup_all_vectorized']:.2f}x",
        f"provenance cache during the run: {provenance_cache.stats()}",
        f"json: {json_path} (key: sharded)",
    ]
    write_report("sharded", lines, json_path)
    return section


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_scenarios()))
def test_sharded_matches_serial_smoke(benchmark, name):
    """bench-smoke: long vectors answer as on the survival index."""
    survival_index, vectorized = build_smoke_scenarios()[name]
    assert vectorized() == survival_index()
    benchmark(vectorized)


def test_regenerate_bench_sharded(benchmark):
    """Full comparison at the largest tracked sizes, plus chain/star extras."""
    provenance_cache.clear()  # counters scoped to this run (reset by clear)
    data = _emit(_measure(build_scenarios(), repeats=5))
    assert data["all_answers_match"]
    assert data["median_speedup_vectorized"] >= TARGET_MEDIAN, data[
        "median_speedup_vectorized"
    ]
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
    section = _emit(_measure(build_scenarios(), repeats=5), json_path=args.json)
    if not section["all_answers_match"]:
        raise SystemExit("answer mismatch — see report")
    if section["median_speedup_vectorized"] < TARGET_MEDIAN:
        raise SystemExit(
            f"vectorized speedup {section['median_speedup_vectorized']:.2f}x "
            f"is below {TARGET_MEDIAN}x"
        )


if __name__ == "__main__":
    main()
