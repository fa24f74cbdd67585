"""Packaging and start-up cost.

``setup.py`` must describe the real package, and importing the serving
stack and the CLI must not import scipy: only long candidate vectors need
it, and importing it costs start-up time and resident memory on every
``repro serve``.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    done = subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_setup_py_names_the_package():
    import repro

    lines = _run("setup.py", "--name", "--version").split()
    assert lines[-2:] == ["repro", repro.__version__]


def test_serving_stack_does_not_import_scipy():
    out = _run(
        "-c",
        "import sys, repro.service, repro.cli; "
        "print('scipy' in sys.modules)",
    )
    assert out.strip() == "False"
