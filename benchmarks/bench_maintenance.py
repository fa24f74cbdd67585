"""Incremental maintenance, measured: delta patching vs re-registration.

PR 9 turns the read-only serving stack into a versioned write path:
``ServiceEngine.apply_delta`` threads one net delta through the layers —
the witness kernel drops deleted source bits and merges delta-branch
annotations for inserts (the compiled-plan memo, keyed on log2-bucketed
row counts of the snapshot, survives most writes), the ColumnStore grows an
append/tombstone form, and the warm per-(database, query) oracles are
patched where they stand.  The alternative this harness prices is the only
write path the engine had before: ``register_database(new_db)`` — drop the
warm state the delta touched and pay a cold provenance build on the next
probe.

Per scaling family (the same SPU / SJ / chain / usergroup instances the
other harnesses track), a sequence of :data:`N_DELTAS` single-row
deletes+inserts is applied twice over identical database snapshots:

* **incremental (measured)** — ``engine.apply_delta(...)`` followed by one
  hypothetical-deletion probe against the patched warm oracle;
* **re-registration (baseline)** — ``engine.register_database(new_db)``
  followed by the same probe, now paying the cold rebuild.

The two legs run in *separate engines over distinct (value-equal) Database
objects*, so the identity-keyed provenance cache cannot leak warm state
from one leg into the other.  Every probe answer of the incremental leg is
asserted equal to the re-registration leg's answer for the same snapshot —
a mismatch fails the harness before anything is reported.

Results merge into ``BENCH_plan.json`` under the ``maintenance`` key; the
acceptance bar is a **median per-delta speedup ≥ 5×** on the scale group,
and ``run_all.py --compare`` gates ``maintenance.median_speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time
from statistics import median
from typing import Dict, List, Tuple

import pytest

from repro.provenance import provenance_cache
from repro.service import HypotheticalRequest, ServiceEngine
from repro.workloads import (
    chain_workload,
    sj_workload,
    spu_workload,
    usergroup_workload,
)

from _report import format_table, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_plan.json")

#: The acceptance bar on the scale group's median per-delta speedup.
TARGET_MEDIAN = 5.0

#: Writes applied per instance in the full run.
N_DELTAS = 6

DB_NAME = "db"


def _fresh_row(row: tuple, step: int) -> tuple:
    """A type-compatible row guaranteed absent from the workload domains.

    Workload rows are small ints or short ``u<i>``/``g<i>``/``f<i>``
    strings; shifting ints by a large offset and suffixing strings lands
    outside both.  Predicates stay evaluable because column types are
    preserved.
    """
    out = []
    for value in row:
        if isinstance(value, bool) or not isinstance(value, int):
            out.append(f"{value}~w{step}")
        else:
            out.append(value + 1_000_000 + step)
    return tuple(out)


def _delta_sequence(db, query, n: int, seed: int):
    """``n`` effective single-row (deletions, inserts) pairs over ``db``.

    Each step deletes one row currently present in a relation the query
    reads and inserts one fresh row into the next; the pairs are computed
    against the *evolving* database so every delta is net-effective (the
    engine never short-circuits them as no-ops).
    """
    rng = random.Random(seed)
    names = sorted(frozenset(query.relation_names()) & frozenset(db.names()))
    deltas = []
    cur = db
    for step in range(n):
        del_name = names[step % len(names)]
        ins_name = names[(step + 1) % len(names)]
        del_rows = sorted(cur[del_name].rows, key=repr)
        deleted = [(del_name, del_rows[rng.randrange(len(del_rows))])]
        template = sorted(cur[ins_name].rows, key=repr)[0]
        inserted = [(ins_name, _fresh_row(template, step))]
        deltas.append((deleted, inserted))
        cur = cur.apply(deleted, inserted)
    return deltas


def _probe(engine: ServiceEngine, query_text: str):
    """One hypothetical-deletion probe against the current snapshot."""
    db = engine.database(DB_NAME)
    name = sorted(db.names())[0]
    candidate = frozenset({(name, sorted(db[name].rows, key=repr)[0])})
    return engine.execute(HypotheticalRequest(DB_NAME, query_text, candidate))


def _measure_family(name: str, db, query, n_deltas: int) -> Dict[str, object]:
    """Per-delta incremental vs re-registration timings for one instance."""
    query_text = f"<workload:{name}>"
    deltas = _delta_sequence(db, query, n_deltas, seed=17)

    with ServiceEngine({DB_NAME: db}) as inc, ServiceEngine({DB_NAME: db}) as reb:
        for engine in (inc, reb):
            engine.register_query(query_text, query)
            engine.oracle(DB_NAME, query_text)  # warm both up front

        # Engine counts are process-wide registry counters: report this
        # family's share.
        counted = inc.stats()
        inc_times: List[float] = []
        reb_times: List[float] = []
        match = True
        reb_db = db
        for deleted, inserted in deltas:
            start = time.perf_counter()
            resp = inc.apply_delta(DB_NAME, deleted, inserted)
            inc_answer = _probe(inc, query_text)
            inc_times.append(time.perf_counter() - start)
            assert resp.ok and resp.epoch > 0

            # A freshly computed (value-equal, distinct-identity) snapshot:
            # the identity-keyed caches cannot serve the incremental leg's
            # seeded state to the baseline.
            reb_db = reb_db.apply(deleted, inserted)
            start = time.perf_counter()
            reb.register_database(DB_NAME, reb_db)
            reb_answer = _probe(reb, query_text)
            reb_times.append(time.perf_counter() - start)
            match = match and inc_answer == reb_answer

        speedups = [r / max(i, 1e-9) for i, r in zip(inc_times, reb_times)]
        return {
            "name": name,
            "group": "scale",
            "deltas": n_deltas,
            "incremental_total_s": sum(inc_times),
            "rebuild_total_s": sum(reb_times),
            "median_delta_speedup": median(speedups),
            "match": match,
            "patched": inc.stats()["oracles_patched"] - counted["oracles_patched"],
        }


def build_instances() -> Dict[str, Tuple]:
    """name -> (db, query); the families the tracked median runs over."""
    return {
        "maint_spu_rows10000": spu_workload(10000, seed=3)[:2],
        "maint_sj_rows4000": sj_workload(4000, seed=4)[:2],
        "maint_chain_3rels_rows8000": chain_workload(3, 8000, seed=5)[:2],
        "maint_ug_users8000": usergroup_workload(8000, 120, 4000, seed=6)[:2],
    }


def build_smoke_instances() -> Dict[str, Tuple]:
    """Tiny instances for ``run_all.py --smoke``."""
    return {
        "smoke_maint_spu_rows300": spu_workload(300, seed=1)[:2],
        "smoke_maint_ug_users200": usergroup_workload(200, 10, 100, seed=1)[:2],
    }


def _measure(instances: Dict[str, Tuple], n_deltas: int) -> List[Dict[str, object]]:
    return [
        _measure_family(name, db, query, n_deltas)
        for name, (db, query) in instances.items()
    ]


def _emit(
    entries: List[Dict[str, object]], json_path: str = JSON_PATH
) -> Dict[str, object]:
    section: Dict[str, object] = {
        "generated_by": "benchmarks/bench_maintenance.py",
        "ablation": "per single-row write: engine.apply_delta (kernel "
        "patch + ColumnStore append/tombstone + warm-oracle "
        "rebase) plus one hypothetical probe, vs register_database(new_db) "
        "plus the same probe paying the cold provenance rebuild; separate "
        "engines over distinct value-equal snapshots, probe answers "
        "asserted equal every step",
        "tracked_group": "scale (same scaling families the witness/"
        "columnar harnesses track)",
        "deltas_per_instance": N_DELTAS,
        "entries": entries,
        "all_answers_match": all(e["match"] for e in entries),
        "median_speedup": median(e["median_delta_speedup"] for e in entries),
        "cache_stats": provenance_cache.stats(),
    }
    data: Dict[str, object] = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            data = json.load(handle)
    data["maintenance"] = section
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=2)

    rows = [
        (
            e["name"],
            f"{e['incremental_total_s'] * 1e3:.2f} ms",
            f"{e['rebuild_total_s'] * 1e3:.2f} ms",
            f"{e['median_delta_speedup']:.2f}x",
            e["match"],
        )
        for e in entries
    ]
    lines = [
        "Incremental maintenance — apply_delta vs re-registration "
        f"({N_DELTAS} single-row writes each)",
        "",
    ]
    lines += format_table(
        ("Scenario", "Incremental", "Re-register", "Median speedup", "Match"),
        rows,
    )
    lines += [
        "",
        f"median per-delta speedup (scale group, tracked): "
        f"{section['median_speedup']:.2f}x (target ≥ {TARGET_MEDIAN}x)",
        f"provenance cache during the run: {provenance_cache.stats()}",
        f"json: {json_path} (key: maintenance)",
    ]
    write_report("maintenance", lines, json_path)
    return section


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------

@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", sorted(build_smoke_instances()))
def test_maintenance_matches_rebuild_smoke(benchmark, name):
    """bench-smoke: tiny apply_delta-vs-re-registration equivalence."""
    db, query = build_smoke_instances()[name]
    entry = _measure_family(name, db, query, n_deltas=3)
    assert entry["match"], entry
    benchmark(lambda: None)


def test_regenerate_bench_maintenance(benchmark):
    """Full comparison: the tracked scaling families."""
    provenance_cache.clear()  # counters scoped to this run (reset by clear)
    entries = _measure(build_instances(), N_DELTAS)
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
    entries = _measure(build_instances(), N_DELTAS)
    section = _emit(entries, json_path=args.json)
    if not section["all_answers_match"]:
        raise SystemExit("answer mismatch — see report")
    if section["median_speedup"] < TARGET_MEDIAN:
        raise SystemExit(
            f"maintenance speedup {section['median_speedup']:.2f}x is below "
            f"{TARGET_MEDIAN}x on the scale group"
        )


if __name__ == "__main__":
    main()
