"""Only ``verify`` loads scipy.

A cold start is mostly imports: ``scipy.special`` costs about 0.3 s and
``scipy.stats`` about a second.  So every other subcommand loads no scipy
module at all: the quadrature commands (``bounds``, ``curves``, ``curves
--residual``) and ``--version`` run on the Gauss-Jacobi rule, ``lgamma``
and the state algebra in ``sepscope.qstate``, and ``estimate`` and
``desf`` on the numpy Sobol stream and the numpy Beta quantiles of the
cube-to-state map.  ``verify`` loads ``scipy.stats`` and
``scipy.integrate``.  Each check runs in a fresh interpreter, since this
test session has long loaded these modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepscope.cli import main

ROOT = Path(__file__).resolve().parent.parent

# One interpreter runs the commands in this order, recording after each the
# scipy subpackages loaded so far; the commands that must load none run
# first.  ``hist.csv`` is written beforehand by this test session.
_SCRIPT = """
import json, sys

def scipy_loaded():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m.split(".")[0] == "scipy"})

from sepscope.cli import main
loaded = {"import sepscope.cli": scipy_loaded()}
try:
    main(["--version"])
except SystemExit:
    pass
loaded["--version"] = scipy_loaded()
for argv in (
    ["bounds", "--tol", "1e-6", "--out", "bounds.csv"],
    ["curves", "--out", "curves.csv"],
    ["curves", "--tags", "jacobian", "--beta", "2", "--out", "beta2.csv"],
    ["curves", "--residual", "hist.csv", "--tags", "conjecture", "--out", "resid.csv"],
    ["desf", "--engine", "prng", "--n", "20000", "--bins", "11", "--out", "hist2.csv"],
    ["estimate", "--engine", "prng", "--n", "20000", "--out", "prng.json"],
    ["estimate", "--engine", "lds", "--n", "20000", "--out", "lds.json"],
    ["desf", "--engine", "lds", "--n", "20000", "--bins", "11", "--out", "hist3.csv"],
):
    assert main(argv) == 0, argv
    loaded[" ".join(argv[:3])] = scipy_loaded()
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    assert main(["desf", "--engine", "prng", "--n", "20000", "--bins", "11",
                 "--out", str(work / "hist.csv")]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_quadrature_commands_load_no_scipy(loaded):
    for step in ("import sepscope.cli", "--version", "bounds --tol 1e-6",
                 "curves --out curves.csv", "curves --tags jacobian",
                 "curves --residual hist.csv"):
        assert loaded[step] == [], step


def test_sampling_commands_load_no_scipy(loaded):
    """``estimate`` and ``desf`` on either engine load no scipy module: the
    Sobol stream and the map's Beta quantiles are numpy."""
    for step in ("desf --engine prng", "estimate --engine prng",
                 "estimate --engine lds", "desf --engine lds"):
        assert loaded[step] == [], step


def _fresh_import(module):
    """The scipy and sepscope modules a fresh ``import module`` loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {module}; "
         "print(json.dumps(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'sepscope'))))"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_qstate_loads_no_scipy():
    """The state algebra, partial transpose included, is numpy alone: a
    fresh ``import sepscope.qstate`` loads no scipy module and no other
    sepscope submodule."""
    assert _fresh_import("sepscope.qstate") == ["sepscope", "sepscope.qstate"]


def test_estimator_loads_no_curves_and_no_scipy():
    """The estimators sample, test and count; curves are evaluated by their
    callers.  A fresh ``import sepscope.estimator`` loads no scipy module
    and no ``sepscope.sepfun``."""
    assert _fresh_import("sepscope.estimator") == [
        "sepscope", "sepscope.errors", "sepscope.estimator", "sepscope.qstate",
        "sepscope.sampling",
    ]
