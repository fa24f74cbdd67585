"""Shared reporting helpers for the benchmark harnesses.

Each benchmark regenerates one of the paper's tables or figures.  Besides
the pytest-benchmark timing table, every harness writes a plain-text report
to ``benchmarks/reports/<name>.txt`` containing the regenerated rows — these
artifacts are what EXPERIMENTS.md references as "measured".  A harness run
with ``--json`` elsewhere than the repository's ``BENCH_plan.json`` (the CI
perf gate writes a scratch file) puts its report in a ``reports/``
directory beside that json instead, so a gate run leaves the tracked
reports untouched.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Sequence

import pytest

REPORT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
REPO_PLAN_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_plan.json"
)


def smoke(*values: object) -> object:
    """Mark one parametrize entry as part of the bench-smoke subset.

    Each harness tags its smallest size with this, so
    ``benchmarks/run_all.py --smoke`` (pytest ``-m bench_smoke``) runs every
    harness once at minimal cost — a seconds-long perf/correctness smoke
    instead of the full sweep.
    """
    return pytest.param(*values, marks=pytest.mark.bench_smoke)


def report_dir(json_path: "str | None" = None) -> str:
    """``benchmarks/reports/`` for the repository's ``BENCH_plan.json`` (or
    no json), else a ``reports/`` directory beside ``json_path``."""
    if json_path is None or os.path.abspath(json_path) == REPO_PLAN_JSON:
        return REPORT_DIR
    return os.path.join(os.path.dirname(os.path.abspath(json_path)), "reports")


def write_report(
    name: str, lines: Sequence[str], json_path: "str | None" = None
) -> str:
    """Write a report file and echo its content to stdout.

    ``json_path`` is the harness's ``--json`` file; it picks the report
    directory (:func:`report_dir`).  Returns the path written.
    """
    directory = report_dir(json_path)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    print(f"\n--- report: {name} ---\n{text}")
    return path


def format_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    """Format a list-of-rows as aligned text lines."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def time_call(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]
