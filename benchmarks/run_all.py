#!/usr/bin/env python
"""Run the benchmark harnesses.

Three modes:

* ``python benchmarks/run_all.py`` — the full sweep: every harness at every
  size, with pytest-benchmark timing enabled.  Slow; regenerates all the
  paper tables/figures plus the kernel comparison.
* ``python benchmarks/run_all.py --smoke`` — the ``bench_smoke`` subset:
  each harness once at its smallest size, timing collection disabled.
  Finishes in seconds, so kernel regressions (correctness or a gross perf
  cliff tripping an assertion) surface without paying full benchmark cost.
* ``python benchmarks/run_all.py --compare BASELINE.json`` — the CI perf
  gate: regenerate the tracked plan/optimizer/sharded/columnar/
  witness/service/maintenance/observability medians into a scratch file
  (``bench_plan_compile.py`` + ``bench_optimizer.py`` +
  ``bench_sharded.py`` + ``bench_columnar.py`` +
  ``bench_witness.py`` + ``bench_service.py`` +
  ``bench_maintenance.py`` + ``bench_observability.py``), then fail if
  any tracked
  median regressed more than 25% against the committed baseline (normally
  the repository's ``BENCH_plan.json``).  The harnesses' reports go to a
  ``reports/`` directory beside the scratch file, so a gate run leaves the
  tracked ``benchmarks/reports/`` as it found them.  Most medians are speedup
  *ratios* measured baseline-vs-new on the same machine, so they transfer
  across hosts far better than absolute timings;
  ``service.median_throughput_batched`` is requests/second — absolute, so
  host-sensitive, but it is the serving number the ROADMAP's north star
  cares about and the same 25% tolerance applies (the host-transferable
  ``service.median_speedup_batched`` ratio is gated alongside it; on a
  slower host the throughput line may warn/fail while the ratio still
  pins the batching win).  One tracked value is a **ceiling**, not a
  floor: ``observability.overhead_pct`` (the enabled-vs-disabled serving
  latency regression) is lower-is-better and fails the gate when a fresh
  run exceeds its absolute limit (5%), independent of the baseline.
  Degenerate baselines
  (missing keys, zero/near-zero medians) are skipped with a named
  warning, never a traceback.

The ``--smoke`` sweep includes the **service smoke leg**
(``bench_service.py``'s ``bench_smoke`` entries): an in-process engine is
spun up, driven with mixed evaluate/provenance/deletion traffic through
the micro-batcher, and every answer is asserted bit-identical to the
direct library call.

Extra arguments are forwarded to pytest (smoke/full modes), e.g.::

    python benchmarks/run_all.py --smoke -k provenance
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Dotted paths of the medians the --compare gate tracks, and the fraction
#: of the baseline value a fresh run must reach (1 - tolerance).
TRACKED_MEDIANS = (
    "batch_median_speedup",
    "compile_median_speedup",
    "optimizer.median_speedup",
    "sharded.median_speedup_vectorized",
    "columnar.median_speedup",
    "witness.median_speedup",
    "service.median_speedup_batched",
    "service.median_throughput_batched",
    "maintenance.median_speedup",
)
REGRESSION_TOLERANCE = 0.25

#: Dotted paths gated as **ceilings**: lower is better, and the limit is
#: an absolute bound on the *fresh* value — a baseline that happened to
#: record a lucky low number must not ratchet the bar.  (The floor gate
#: above cannot express these: it rewards growth.)
TRACKED_CEILINGS = (
    ("observability.overhead_pct", 5.0),
)

#: Baseline medians at or below this are meaningless as gates: the recorded
#: value is zero/garbage, and 75% of nothing would pass anything.
NEAR_ZERO_MEDIAN = 1e-6


def _bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _lookup(data: dict, dotted: str):
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def evaluate_gate(
    baseline: dict,
    fresh: dict,
    tracked=TRACKED_MEDIANS,
    tolerance: float = REGRESSION_TOLERANCE,
    ceilings=TRACKED_CEILINGS,
) -> "tuple[list[str], list[str]]":
    """Gate ``fresh`` medians against ``baseline``: (report lines, failures).

    Degenerate baselines never crash the gate: a tracked key missing from
    the baseline, or whose recorded median is non-numeric or zero/near-zero
    (75% of nothing would pass anything), is *skipped with a named warning*
    instead of raising ``KeyError``/``ZeroDivisionError`` or silently
    passing garbage.  A tracked key missing from the *fresh* run is a
    failure — the benchmark that should have produced it did not.

    ``ceilings`` are lower-is-better metrics gated against an **absolute
    limit on the fresh value** (the baseline is reported for context but
    never moves the bar): a fresh value above the limit fails, a missing
    fresh value fails, and no baseline is required at all — a ceiling
    metric added after the committed baseline still gates.
    """
    floor_factor = 1.0 - tolerance
    lines: "list[str]" = []
    failures: "list[str]" = []
    for dotted in tracked:
        base = _lookup(baseline, dotted)
        new = _lookup(fresh, dotted)
        if base is None:
            lines.append(f"  {dotted}: not in baseline — skipped (warning)")
            continue
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            lines.append(
                f"  {dotted}: baseline value {base!r} is not a number — "
                "skipped (warning)"
            )
            continue
        if base <= NEAR_ZERO_MEDIAN:
            lines.append(
                f"  {dotted}: baseline median {base!r} is zero/near-zero — "
                "skipped (warning; regenerate the baseline)"
            )
            continue
        if new is None:
            failures.append(f"{dotted}: missing from the fresh run")
            continue
        if not isinstance(new, (int, float)) or isinstance(new, bool):
            failures.append(f"{dotted}: fresh value {new!r} is not a number")
            continue
        floor = base * floor_factor
        verdict = "ok" if new >= floor else "REGRESSED"
        lines.append(
            f"  {dotted}: baseline {base:.2f}x, fresh {new:.2f}x "
            f"(floor {floor:.2f}x) — {verdict}"
        )
        if new < floor:
            failures.append(
                f"{dotted}: {new:.2f}x is below {floor:.2f}x "
                f"(baseline {base:.2f}x - {tolerance:.0%})"
            )
    for dotted, limit in ceilings:
        base = _lookup(baseline, dotted)
        new = _lookup(fresh, dotted)
        context = (
            f"baseline {base:.2f}"
            if isinstance(base, (int, float)) and not isinstance(base, bool)
            else "no baseline"
        )
        if new is None:
            failures.append(f"{dotted}: missing from the fresh run")
            continue
        if not isinstance(new, (int, float)) or isinstance(new, bool):
            failures.append(f"{dotted}: fresh value {new!r} is not a number")
            continue
        verdict = "ok" if new <= limit else "EXCEEDED"
        lines.append(
            f"  {dotted}: fresh {new:.2f} (ceiling {limit:.2f}, {context}) "
            f"— {verdict}"
        )
        if new > limit:
            failures.append(
                f"{dotted}: {new:.2f} exceeds the {limit:.2f} ceiling"
            )
    return lines, failures


def run_compare(baseline_path: str) -> int:
    """Regenerate the tracked medians and gate them against ``baseline_path``."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)

    with tempfile.TemporaryDirectory(prefix="bench-compare-") as scratch:
        fresh_path = os.path.join(scratch, "BENCH_plan.json")
        for script in (
            "bench_plan_compile.py",
            "bench_optimizer.py",
            "bench_sharded.py",
            "bench_columnar.py",
            "bench_witness.py",
            "bench_service.py",
            "bench_maintenance.py",
            "bench_observability.py",
        ):
            code = subprocess.call(
                [
                    sys.executable,
                    os.path.join(BENCH_DIR, script),
                    "--json",
                    fresh_path,
                ],
                cwd=REPO_ROOT,
                env=_bench_env(),
            )
            if code != 0:
                print(f"compare: {script} failed with exit code {code}")
                return code
        with open(fresh_path) as handle:
            fresh = json.load(handle)

    print(f"\nperf gate vs {baseline_path} (tolerance {REGRESSION_TOLERANCE:.0%}):")
    lines, failures = evaluate_gate(baseline, fresh)
    for line in lines:
        print(line)
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf gate passed")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the bench_smoke subset (smallest sizes, no timing)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help="regenerate the tracked medians and fail if any regresses "
        f"more than {REGRESSION_TOLERANCE:.0%} vs this baseline",
    )
    args, passthrough = parser.parse_known_args(argv)

    if args.compare:
        if passthrough:
            print(
                "error: --compare runs the full gate and forwards nothing "
                f"to pytest; unexpected arguments: {passthrough}"
            )
            return 2
        return run_compare(args.compare)

    env = _bench_env()
    cmd = [sys.executable, "-m", "pytest", BENCH_DIR, "-q"]
    if args.smoke:
        cmd += ["-m", "bench_smoke", "--benchmark-disable"]
    cmd += passthrough

    return subprocess.call(cmd, cwd=REPO_ROOT, env=env)


if __name__ == "__main__":
    raise SystemExit(main())
