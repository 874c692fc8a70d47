"""Shared test data and helpers, and the acceptance-verdict summary hook.

The optical table is a small synthetic n,k set: low rows sit below the
free-electron dissipation (so the interband subtraction clamps them to
zero), high rows sit above it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlcasimir

# verdict lines registered by test_acceptance.py, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

OPTICAL_TEXT = """\
# photon energy [eV]   n      k
0.5    1.20   9.00
1.0    0.80   6.50
1.5    0.60   4.80
2.0    0.90   3.90
3.0    1.60   2.60
4.0    1.55   1.90
6.0    1.30   1.40
"""


@pytest.fixture
def optical_text():
    return OPTICAL_TEXT


def run_python(args, cwd=None):
    """Run a fresh interpreter that imports this nlcasimir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nlcasimir.__file__).parent.parent),
         *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, cwd=cwd, timeout=120)
