"""Record a baseline: every workload, untraced on ten seeds twice, then traced.

    python3 perfbench/record.py [--out perfbench/baseline.json]

For each workload in ``BENCHMARK.json`` this runs ``run.py`` untraced on
seeds 1..10, as two sets one after the other (all workloads of the first set,
then all of the second), the way two measurements of one commit are compared.
Then, per workload, it runs seed 1 untraced and traced back to back
``OVERHEAD_PAIRS`` times, and untraced with ``--workers 1`` for one cycle.
Every run on seed 1 must give the output digests of the first one; each
operation whose digest differs counts as failed in ``fail_frac``.
It writes, beside the results, the environment they were measured in and
the table of which end-to-end metric each per-layer metric should move on
which workload, so that later changes can quote both.  End-to-end figures
are medians over seeds with their quartiles; ``spread`` is the quartile
distance over the median, to be compared with the metric's bound, and
``set2_change`` is the second set's median over the first's, minus one.
The unscaled times and the calibration time of every run are kept beside
them under ``raw_times``; the tracing overhead is the traced wall time minus
the unscaled wall time of the untraced run just before it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKERS  # noqa: E402

#: Seeds of each set of untraced runs.
SEEDS = range(1, 11)
#: Back-to-back untraced and traced runs on seed 1 that give the tracing overhead.
OVERHEAD_PAIRS = 2

#: Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = [
    ("sampling.sobol_ms_per_batch", "wall_ref_s", ["desf-lds"], ""),
    ("sampling.map_ms_per_batch", "wall_ref_s, estimator.eff_samples_per_s",
     ["desf-lds"], "no change on quad"),
    ("sampling.map_rows_per_effective", "wall_ref_s, estimator.eff_samples_per_s",
     ["desf-lds"], "the count a survivors-only map should drive to 1"),
    ("qstate.accept_ratio", "estimator.eff_samples_per_s",
     ["desf-lds"], "useful / attempted cube points"),
    ("qstate.psd_mask_ms_per_batch", "wall_ref_s", ["desf-lds"], ""),
    ("qstate.sep_test_ms_per_batch", "wall_ref_s", ["desf-lds"], ""),
    ("estimator.desf.self_ms_per_batch", "wall_ref_s", ["desf-lds"],
     "includes the histogram tally"),
    ("quadrature.bound_table_ms", "wall_ref_s", ["quad"],
     "small share while setup_s dominates"),
    ("quadrature.beta2_ms", "wall_ref_s", ["quad"], "small share while setup_s dominates"),
    ("quadrature.evals_per_row", "wall_ref_s", ["quad"], "repeats exactly"),
    ("sepfun.jacobian_beta_ms_per_kpoint", "wall_ref_s", ["quad"], ""),
    ("sepfun.curves_ms", "wall_ref_s", ["quad"], ""),
    ("cli.self_ms", "wall_ref_s", ["desf-lds", "quad"],
     "argument parsing, formatting, sha256, artifact read and write"),
    ("cli.artifact_bytes", "wall_ref_s", ["desf-lds", "quad"], "computed from output sizes"),
]


def run_once(workload: str, seed: int, seconds: int, trace: int, workers: int = WORKERS):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    lines = {line.split(" ", 1)[0]: line.split(" ", 1)[1]
             for line in proc.stderr.splitlines() if line.startswith(("digests ", "raw "))}
    digests = json.loads(lines["digests"])
    result["raw"] = json.loads(lines.get("raw", "{}"))
    print(f"{workload} seed={seed} trace={trace} workers={workers}: "
          + ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                      for k, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return result, digests


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "workers": WORKERS,
        "pinned_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"},
    }


def summarize(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def mismatched(digests: dict, ref: dict) -> int:
    """Operations that passed their gate in both runs but gave another digest."""
    return sum(1 for op, d in digests.items() if d and ref.get(op) and d != ref[op])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    report = {"environment": environment(), "run_seconds": seconds,
              "seeds": list(SEEDS), "overhead_pairs": OVERHEAD_PAIRS, "workloads": {}}
    sets = [{name: [run_once(name, seed, seconds, 0) for seed in SEEDS] for name in names}
            for _ in range(2)]
    ok = True
    for name in names:
        first, second = sets[0][name], sets[1][name]
        ref = first[0][1]
        pairs = [(run_once(name, 1, seconds, 0), run_once(name, 1, seconds, 1))
                 for _ in range(OVERHEAD_PAIRS)]
        single = run_once(name, 1, 1, 0, workers=1)
        seed1 = [first[0], second[0], *(r for pair in pairs for r in pair), single]
        every = first + second + seed1[2:]
        attempted = sum(r["attempted"] for r, _ in every)
        failed = sum(r["failed"] for r, _ in every)
        digest_failures = sum(mismatched(d, ref) for _, d in seed1)
        end_to_end = {}
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            s1, s2 = (summarize([r["metrics"][key]["value"] for r, _ in runs], bound)
                      for runs in (first, second))
            change = s2["median"] / s1["median"] - 1.0
            end_to_end[key] = {"set1": s1, "set2": s2, "set2_change": change}
            ok &= change <= bound and (key == "setup_s" or max(s1["spread"],
                                                               s2["spread"]) <= bound)
        raw = {key: {f"set{i + 1}": summarize([r["raw"][key] for r, _ in runs], None)
                     for i, runs in enumerate((first, second))}
               for key in ("wall_s", "setup_s", "cal_s")}
        traced = [t for _, (t, _) in pairs]
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "raw_times": raw,
            "fail_frac": (failed + digest_failures) / attempted,
            "digest_mismatches": digest_failures,
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "evals_per_row_repeats": len({t["metrics"]["quadrature.evals_per_row"]["value"]
                                          for t in traced}) == 1,
            "tracing_overhead_s": statistics.median(
                t["metrics"]["trace.wall_s"]["value"] - u["raw"]["wall_s"]
                for (u, _), (t, _) in pairs),
            "digests_seed1": ref,
        }
    report["predictions"] = [
        {"layer_metric": metric, "moves": moves, "workloads": wls, "note": note,
         "baseline": {w: report["workloads"][w]["per_layer"][metric]
                      for w in wls}}
        for metric, moves, wls, note in PREDICTIONS
    ]
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for w, r in report["workloads"].items():
        print(f"{w}: fail_frac={r['fail_frac']} digest_mismatches={r['digest_mismatches']} "
              f"tracing_overhead_s={r['tracing_overhead_s']:.3f}", file=sys.stderr)
        for m, e in r["end_to_end"].items():
            print(f"  {m}: median {e['set1']['median']:.4g} / {e['set2']['median']:.4g} "
                  f"(change {e['set2_change']:+.4f}), spread {e['set1']['spread']:.4f} / "
                  f"{e['set2']['spread']:.4f} (bound {e['set1']['bound']})", file=sys.stderr)
    ok &= all(r["fail_frac"] == 0 for r in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
