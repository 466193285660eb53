"""The subcommands that never call into scipy.stats or scipy.integrate do
not import them.

Importing ``scipy.stats`` takes about a second, most of a cold start, so
only the code paths that use it load it: the Sobol stream and ``verify``.
The state algebra in ``sepscope.qstate`` loads no scipy module at all.
Each check runs in a fresh interpreter, since this test session has long
loaded these modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
from sepscope.cli import main

def heavy():
    return [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]

loaded = {"import sepscope.cli": heavy()}
for argv in (
    ["desf", "--engine", "prng", "--n", "20000", "--bins", "11", "--out", "hist.csv"],
    ["curves", "--residual", "hist.csv", "--tags", "conjecture", "--out", "resid.csv"],
    ["bounds", "--tol", "1e-6", "--out", "bounds.csv"],
    ["curves", "--out", "curves.csv"],
    ["estimate", "--engine", "prng", "--n", "20000", "--out", "prng.json"],
    ["estimate", "--engine", "lds", "--n", "20000", "--out", "lds.json"],
):
    assert main(argv) == 0, argv
    loaded[" ".join(argv[:3])] = heavy()
print(json.dumps(loaded))
"""


def test_only_sobol_and_verify_load_scipy_stats(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    lds = loaded.pop("estimate --engine lds")
    assert loaded == {
        "import sepscope.cli": [],
        "desf --engine prng": [],
        "curves --residual hist.csv": [],
        "bounds --tol 1e-6": [],
        "curves --out curves.csv": [],
        "estimate --engine prng": [],
    }
    # the first Sobol draw loads scipy.stats, which brings scipy.integrate
    assert lds == ["scipy.stats", "scipy.integrate"]


def test_qstate_loads_no_scipy():
    """The state algebra, partial transpose included, is numpy alone."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sepscope.qstate; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
