"""Smoke test: every script under ``examples/`` runs to completion.

Each example is run as a user would, in a fresh interpreter with the
package on ``PYTHONPATH``, and must exit 0.  The three slower examples
run in tier 2.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
FAST = ("quickstart.py", "focused_selection.py", "minic_merging.py")
SLOW = ("production_pipeline.py", "adaptive_tuning.py", "large_app_lto.py")


def _run(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("script", FAST)
def test_example_runs(script):
    _run(script)


@pytest.mark.tier2
@pytest.mark.parametrize("script", SLOW)
def test_slow_example_runs(script):
    _run(script)


def test_every_example_is_covered():
    assert {p.name for p in EXAMPLES.glob("*.py")} == set(FAST + SLOW)
