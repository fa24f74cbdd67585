"""Repeatability report: run the benchmark many times and show its spread.

Run from the repository root::

    python3 perfbench/repeat.py --runs 10 --seconds 10 probe_small probe_wide write_mix

Each run uses its own seed (``--first-seed``, then the next ones).  For
every workload and metric the report gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  The bound a
metric may worsen by before a change counts as a regression must exceed
that spread; ``BENCHMARK.json`` records the bounds chosen from it.

``--trace 1`` repeats the traced per-layer run instead.  With
``--same-seed`` every run gets the first seed; with both, the report exits
with status 1 unless every count (``_per_kreq``, ``_ratio``,
``requests_per_call``, ``expired``, ``overload``) repeats exactly, which
holds on ``write_mix``.  ``--markdown FILE`` also appends the table to
FILE; ``--raw FILE`` writes every run's result object to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
#: Name endings of the per-layer metrics that are counts, not times.
COUNTS = ("_per_kreq", "_ratio", "requests_per_call", ".expired", ".overload")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--markdown", default=None)
    parser.add_argument("--raw", default=None)
    args = parser.parse_args()

    lines = [
        f"runs={args.runs} seconds={args.seconds} trace={args.trace} "
        f"seeds={'same' if args.same_seed else 'distinct'} from {args.first_seed}",
        "",
        "| workload | metric | unit | median | q1 | q3 | spread |",
        "| --- | --- | --- | ---: | ---: | ---: | ---: |",
    ]
    raw: Dict[str, List[dict]] = {}
    unrepeated = 0
    for workload in args.workloads:
        results = raw[workload] = []
        for k in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else k)
            started = time.monotonic()
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(
                f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} ({time.monotonic() - started:.1f}s)",
                file=sys.stderr,
            )
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            lines.append(
                f"| {workload} | {name} | {first['unit']} | {s['median']:.4g} | {s['q1']:.4g} | "
                f"{s['q3']:.4g} | {100 * s['spread']:.1f}% |"
            )
            if args.same_seed and args.trace == 1 and len(set(values)) > 1 and name.endswith(COUNTS):
                unrepeated += 1
                lines.append(f"| {workload} | {name} | NOT REPEATED: {sorted(set(values))} | | | | |")
        bad = [r for r in results if not r["correct"] or r["failed"]]
        lines.append(f"| {workload} | runs correct with no failures | | {len(results) - len(bad)}/{len(results)} | | | |")
    if args.raw:
        with open(args.raw, "w") as handle:
            json.dump(raw, handle)
    text = "\n".join(lines)
    print(text)
    if args.markdown:
        with open(args.markdown, "a") as handle:
            handle.write(text + "\n\n")
    return 1 if unrepeated else 0


if __name__ == "__main__":
    sys.exit(main())
