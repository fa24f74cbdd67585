"""The --compare perf gate handles degenerate baselines cleanly.

``benchmarks/run_all.py`` is a script, not a package module; load it by
path and exercise :func:`evaluate_gate` — the pure decision function the
CI gate runs — against healthy, regressed, and degenerate baselines.  A
missing or zero/near-zero baseline median must produce a named skip
warning (never a ``KeyError``/``ZeroDivisionError`` traceback), and a
median missing from the fresh run must fail by name.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_RUN_ALL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "run_all.py",
)


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location("bench_run_all", _RUN_ALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACKED = ("alpha", "nested.beta")


def test_healthy_baseline_passes(run_all):
    baseline = {"alpha": 4.0, "nested": {"beta": 2.0}}
    fresh = {"alpha": 3.9, "nested": {"beta": 2.2}}
    lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert failures == []
    assert any("alpha" in line and "ok" in line for line in lines)


def test_regression_fails_by_name(run_all):
    baseline = {"alpha": 4.0, "nested": {"beta": 2.0}}
    fresh = {"alpha": 1.0, "nested": {"beta": 2.0}}
    _lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert len(failures) == 1
    assert failures[0].startswith("alpha:")


def test_missing_baseline_key_skips_with_warning(run_all):
    baseline = {"nested": {"beta": 2.0}}
    fresh = {"alpha": 9.0, "nested": {"beta": 2.0}}
    lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert failures == []
    assert any("alpha" in line and "skipped" in line for line in lines)


def test_zero_baseline_median_skips_with_warning(run_all):
    baseline = {"alpha": 0.0, "nested": {"beta": 2.0}}
    fresh = {"alpha": 0.0, "nested": {"beta": 2.0}}
    lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert failures == []
    assert any(
        "alpha" in line and "zero/near-zero" in line for line in lines
    )


def test_near_zero_baseline_median_skips(run_all):
    baseline = {"alpha": 1e-9, "nested": {"beta": 2.0}}
    fresh = {"alpha": 5.0, "nested": {"beta": 2.0}}
    _lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert failures == []


def test_non_numeric_baseline_skips_with_warning(run_all):
    baseline = {"alpha": "fast", "nested": {"beta": True}}
    fresh = {"alpha": 5.0, "nested": {"beta": 2.0}}
    lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert failures == []
    assert sum("not a number" in line for line in lines) == 2


def test_missing_fresh_median_fails(run_all):
    baseline = {"alpha": 4.0, "nested": {"beta": 2.0}}
    fresh = {"alpha": 4.0}
    _lines, failures = run_all.evaluate_gate(baseline, fresh, TRACKED, 0.25, ceilings=())
    assert failures == ["nested.beta: missing from the fresh run"]


def test_tracked_medians_include_sharded(run_all):
    # The long-vector gate: the vectorized kernel against the survival
    # index on the same vectors.  The worker-pool gate retired with the
    # pools.
    assert "sharded.median_speedup_vectorized" in run_all.TRACKED_MEDIANS
    assert "sharded.median_speedup_workers4" not in run_all.TRACKED_MEDIANS


def test_tracked_medians_include_maintenance(run_all):
    # The write-path gate that depends on a warm survival index being
    # patched across apply_delta, not rebuilt.
    assert "maintenance.median_speedup" in run_all.TRACKED_MEDIANS


CEILINGS = (("obs.overhead_pct", 5.0),)


def test_ceiling_under_limit_passes(run_all):
    baseline = {"obs": {"overhead_pct": 1.0}}
    fresh = {"obs": {"overhead_pct": 3.5}}
    lines, failures = run_all.evaluate_gate(
        baseline, fresh, (), 0.25, ceilings=CEILINGS
    )
    assert failures == []
    assert any("obs.overhead_pct" in line and "ok" in line for line in lines)


def test_ceiling_exceeded_fails_by_name(run_all):
    baseline = {"obs": {"overhead_pct": 1.0}}
    fresh = {"obs": {"overhead_pct": 6.2}}
    _lines, failures = run_all.evaluate_gate(
        baseline, fresh, (), 0.25, ceilings=CEILINGS
    )
    assert failures == ["obs.overhead_pct: 6.20 exceeds the 5.00 ceiling"]


def test_ceiling_is_absolute_not_baseline_relative(run_all):
    # A lucky low baseline must not ratchet the bar: 0.1% -> 4.9% is a
    # large relative jump but still under the absolute ceiling.
    baseline = {"obs": {"overhead_pct": 0.1}}
    fresh = {"obs": {"overhead_pct": 4.9}}
    _lines, failures = run_all.evaluate_gate(
        baseline, fresh, (), 0.25, ceilings=CEILINGS
    )
    assert failures == []


def test_ceiling_gates_without_any_baseline(run_all):
    # A ceiling metric added after the committed baseline still gates.
    _lines, failures = run_all.evaluate_gate(
        {}, {"obs": {"overhead_pct": 9.0}}, (), 0.25, ceilings=CEILINGS
    )
    assert failures == ["obs.overhead_pct: 9.00 exceeds the 5.00 ceiling"]
    _lines, ok = run_all.evaluate_gate(
        {}, {"obs": {"overhead_pct": 2.0}}, (), 0.25, ceilings=CEILINGS
    )
    assert ok == []


def test_ceiling_missing_fresh_value_fails(run_all):
    _lines, failures = run_all.evaluate_gate(
        {}, {}, (), 0.25, ceilings=CEILINGS
    )
    assert failures == ["obs.overhead_pct: missing from the fresh run"]


def test_ceiling_non_numeric_fresh_value_fails(run_all):
    _lines, failures = run_all.evaluate_gate(
        {}, {"obs": {"overhead_pct": "low"}}, (), 0.25, ceilings=CEILINGS
    )
    assert failures == ["obs.overhead_pct: fresh value 'low' is not a number"]


def test_tracked_ceilings_include_observability(run_all):
    assert ("observability.overhead_pct", 5.0) in run_all.TRACKED_CEILINGS


def test_reports_follow_the_json_path(tmp_path):
    """A harness run on a scratch json writes its report beside that json,
    so a gate run never rewrites the tracked ``benchmarks/reports``."""
    path = os.path.join(os.path.dirname(_RUN_ALL), "_report.py")
    spec = importlib.util.spec_from_file_location("bench_report", path)
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    assert report.report_dir() == report.REPORT_DIR
    assert report.report_dir(report.REPO_PLAN_JSON) == report.REPORT_DIR
    scratch_json = str(tmp_path / "BENCH_plan.json")
    assert report.report_dir(scratch_json) == str(tmp_path / "reports")
    written = report.write_report("probe", ["a line"], scratch_json)
    assert written == str(tmp_path / "reports" / "probe.txt")
    assert open(written).read() == "a line\n"
