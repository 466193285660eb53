"""The benchmark's traced runs still find every function they hook.

``perfbench/child.py --spans`` wraps functions by name in the ``estimator``
and ``cli`` modules; a renamed or bypassed function silently loses its
spans.  Each traced workload must record spans in every layer that
``perfbench/workloads.py`` lists for it.
"""

import collections
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workload_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return {name: w.layers for name, w in module.WORKLOADS.items()}


def _traced(tmp_path, name, *cli_args):
    """Run one traced CLI operation; return the names of its spans."""
    spans = tmp_path / f"{name}.spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--spans", str(spans),
         "cli", *cli_args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [s["name"] for s in json.loads(spans.read_text())]


def _layers(names):
    return {name.split(".")[0] for name in names}


def test_traced_runs_record_every_workload_layer(tmp_path):
    layers = _workload_layers()
    hist, resid = tmp_path / "H.csv", tmp_path / "residual.json"
    desf = _traced(tmp_path, "desf", "desf", "--engine", "lds", "--n", "8192",
                   "--bins", "11", "--seed", "5", "--workers", "2", "--out", str(hist))
    residual = _traced(tmp_path, "residual", "curves", "--residual", str(hist),
                       "--tags", "conjecture", "--format", "json", "--out", str(resid))
    assert set(layers["desf-lds"]) <= _layers(desf + residual)
    # every stage of a batch is traced once per batch
    counts = collections.Counter(desf)
    assert counts["estimator.batch"] == 1
    for stage in ("sampling.next_points", "sampling.cube_to_bloore_batch",
                  "qstate.z_psd_mask", "qstate.xi_from_diag", "qstate.pt_corr_det4"):
        assert counts[stage] == counts["estimator.batch"], stage

    bounds = _traced(tmp_path, "bounds", "bounds", "--tol", "1e-6",
                     "--out", str(tmp_path / "bounds.csv"))
    beta2 = _traced(tmp_path, "beta2", "curves", "--tags", "jacobian", "--beta", "2",
                    "--grid", "-2:2:9", "--out", str(tmp_path / "beta2.csv"))
    assert set(layers["quad"]) <= _layers(bounds + beta2)
