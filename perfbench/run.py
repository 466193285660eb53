"""sepscope benchmark: one workload, closed loop, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.
The seed fixes every input the workload generates.  A run repeats the
workload's operations in turn, each a fresh child process started after
the previous one exited (sampling operations with ``--workers 2``, BLAS and
OpenMP pinned to one thread), and starts no operation that would end past
S seconds once every operation has run once.  Every output is checked by
its gate, and every repeat of an operation must give the digest of its
first run.  Untraced runs also time ``sepscope --version`` cold starts
(set-up) after the first few operations, and a fixed calibration kernel
before every child they start (see ``calibrate``).

The end-to-end times are reference-speed seconds: the measured median times
scaled by ``CAL_REF_S`` over the run's median calibration time.  On a
shared host the speed of the same code drifts by tens of percent over
minutes as other tenants' load comes and goes; a kernel timed within the
same run slows with that drift, so the scaling cancels its slow part,
while the medians damp short bursts.  The calibration runs no sepscope
code, so a change to the program moves these times in full.  The raw times
are printed on stderr.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics (from spans recorded around the
calls into each sepscope module) with ``--trace 1``.  A human-readable
summary, the raw times and the per-operation digests go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
from workloads import WORKERS, WORKLOADS  # noqa: E402

CHILD = HERE / "child.py"
#: Cold starts timed per run; set-up time is their median.
SETUP_REPEATS = 5
#: The calibration kernel's median pass time at reference speed (about its
#: median on the 2-vCPU Xeon host the baseline was recorded on): end-to-end
#: times are scaled by CAL_REF_S / (the run's median calibration time).
CAL_REF_S = 0.07
#: Timed passes of the calibration kernel per call.
CAL_PASSES = 3
#: A run must end within 180 s; no cycle starts that could overrun this.
RUN_LIMIT_S = 165.0
LAYERS = ("sampling", "qstate", "estimator", "quadrature", "sepfun", "cli")

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
}
PER_LAYER = {
    "sampling.sobol_ms_per_batch": "ms",
    "sampling.map_ms_per_batch": "ms",
    "sampling.map_rows_per_effective": "count",
    "qstate.accept_ratio": "ratio",
    "qstate.psd_mask_ms_per_batch": "ms",
    "qstate.sep_test_ms_per_batch": "ms",
    "estimator.desf.self_ms_per_batch": "ms",
    "estimator.eff_samples_per_s": "samples/s",
    "quadrature.bound_table_ms": "ms",
    "quadrature.beta2_ms": "ms",
    "quadrature.evals_per_row": "count",
    "sepfun.jacobian_beta_ms_per_kpoint": "ms",
    "sepfun.curves_ms": "ms",
    "cli.self_ms": "ms",
    "cli.artifact_bytes": "bytes",
    **{f"{layer}.spans": "count" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.peak_rss_mb": "MB",
}


class LayerError(Exception):
    """A traced run recorded no span in a layer its workload must hit."""


@dataclass
class OpRun:
    name: str
    wall: float
    rss_mb: float
    failure: str = ""
    digest: str = ""
    n_effective: int = 0
    compute_s: float = 0.0
    out_bytes: int = 0
    spans: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SEPSCOPE_WORKERS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(argv, log_prefix: Path, deadline: float):
    """Run ``child.py argv`` to completion.

    Returns ``(wall seconds, exit code, peak RSS in MB, stdout, stderr)``;
    the child is killed if it is still running at ``deadline``.
    """
    out_path, err_path = log_prefix.with_suffix(".out"), log_prefix.with_suffix(".err")
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], stdout=so,
                                stderr=se, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _compute_seconds(stderr: str) -> float:
    for line in stderr.splitlines():
        if line.startswith("wall time:"):
            return float(line.split()[2])
    return 0.0


def execute(op, work: Path, run_id: str, trace: bool, deadline: float) -> OpRun:
    """Run one operation and gate its output."""
    prefix = work / f"op-{run_id.replace(':', '-')}"
    spans_path = prefix.with_suffix(".spans.json")
    argv = (["--spans", str(spans_path), "--run-id", run_id] if trace else []) + list(op.argv)
    if os.path.exists(op.out):
        os.remove(op.out)
    wall, code, rss, _, err = spawn(argv, prefix, deadline)
    run = OpRun(op.name, wall, rss)
    if trace and spans_path.exists():
        with open(spans_path, encoding="utf-8") as fh:
            run.spans = json.load(fh)
    if code != 0:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        run.failure = f"exit code {code}: {last}"
        return run
    try:
        checked = op.gate(op.out)
    except Exception as exc:  # any error reading the output fails the gate
        run.failure = f"gate: {type(exc).__name__}: {exc}"
        return run
    run.digest, run.n_effective = checked.digest, checked.n_effective
    run.compute_s = _compute_seconds(err)
    run.out_bytes = os.path.getsize(op.out)
    return run


def measure_setup(work: Path, k: int, deadline: float) -> OpRun:
    """One cold start: ``sepscope --version`` in a fresh interpreter."""
    wall, code, rss, out, _ = spawn(["cli", "--version"], work / f"setup-{k}", deadline)
    run = OpRun("setup", wall, rss)
    if code != 0 or not out.startswith("sepscope "):
        run.failure = f"--version exited {code} printing {out!r}"
    return run


_CAL_INPUT = []


def calibrate() -> list:
    """Times of a few passes of a fixed kernel that runs no sepscope code.

    A pass evaluates the inverse regularized incomplete beta function
    (``scipy.special.betaincinv``) at 2**15 fixed points on one thread: the
    kind of special-function arithmetic the operations spend their time on.
    An untimed pass goes first, so that no timed pass pays for cold caches.
    """
    if not _CAL_INPUT:
        import numpy as np
        from scipy.special import betaincinv

        _CAL_INPUT.extend((betaincinv, np.random.default_rng(0).random(1 << 15)))
    betaincinv, x = _CAL_INPUT
    times = []
    for _ in range(CAL_PASSES + 1):
        t0 = time.perf_counter()
        betaincinv(2.5, 1.5, x)
        times.append(time.perf_counter() - t0)
    return times[1:]


def check_digest(run: OpRun, first: OpRun) -> None:
    """Fail ``run`` if its digest differs from its operation's first run."""
    if not run.failure and not first.failure and run.digest != first.digest:
        run.failure = f"digest {run.digest} != first run's {first.digest}"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workers: int, work: Path):
    """Measure one workload.

    Returns ``(runs, setup, cal)``: the runs of each operation by name, in
    the workload's order, the set-up runs and the calibration times.  An
    untraced run calibrates before every child it starts and once at the end.
    """
    t_measure = time.monotonic()
    deadline = t_measure + RUN_LIMIT_S
    ops = WORKLOADS[name].ops(seed, str(work), workers)
    runs = {op.name: [] for op in ops}
    setup, cal = [], []
    for k in itertools.count():
        op = ops[k % len(ops)]
        done = runs[op.name]
        if k >= len(ops):
            expected = statistics.median(r.wall for r in done)
            now = time.monotonic()
            if now + expected > min(t_measure + seconds, deadline):
                break
        if not trace:
            cal += calibrate()
        run = execute(op, work, f"{len(done)}:{k % len(ops)}", trace, deadline)
        check_digest(run, done[0] if done else run)
        done.append(run)
        if not trace and len(setup) < SETUP_REPEATS:
            cal += calibrate()
            setup.append(measure_setup(work, len(setup), deadline))
    while not trace and len(setup) < SETUP_REPEATS:
        cal += calibrate()
        setup.append(measure_setup(work, len(setup), deadline))
    if not trace:
        cal += calibrate()
    return runs, setup, cal


def cycle_wall(runs) -> float:
    """One cycle's wall time: each operation's median wall, summed."""
    return sum(statistics.median(r.wall for r in rs) for rs in runs.values())


def per_cycle(runs, value) -> float:
    """``value(run)`` per cycle: its mean over each operation's runs, summed."""
    return sum(statistics.fmean(value(r) for r in rs) for rs in runs.values())


def raw_times(runs, setup, cal) -> dict:
    return {"wall_s": cycle_wall(runs),
            "setup_s": statistics.median(r.wall for r in setup),
            "cal_s": statistics.median(cal)}


def end_to_end_metrics(raw: dict) -> dict:
    scale = CAL_REF_S / raw["cal_s"]
    return {"wall_ref_s": scale * raw["wall_s"], "setup_s": scale * raw["setup_s"]}


class _Tally:
    """Totals for one span key: calls, self seconds and summed counts."""

    def __init__(self):
        self.calls, self.self_s, self.counts = 0, 0.0, {}

    def add(self, self_s: float, counts: dict):
        self.calls += 1
        self.self_s += self_s
        for key, value in counts.items():
            if not isinstance(value, str):
                self.counts[key] = self.counts.get(key, 0) + value

    def ms_per(self, calls: int | None = None) -> float:
        """Self milliseconds per call, or per ``calls`` units of work."""
        calls = self.calls if calls is None else calls
        return 1000.0 * self.self_s / calls if calls else 0.0

    def ratio(self, num: str, den: str) -> float:
        return self.counts[num] / self.counts[den] if self.calls else 0.0


def layer_metrics(runs_by_op) -> dict:
    """Per-layer metrics from the spans of every operation of a traced run.

    Span keys are span names, except that the stream is split by engine and
    the estimator's per-batch spans are pooled with its entry point, so that
    the estimator's self time per batch covers its thread pool, merge and
    tally.
    """
    tallies = {}

    def t(key) -> _Tally:
        return tallies.setdefault(key, _Tally())

    runs = [r for rs in runs_by_op.values() for r in rs]
    for run in runs:
        selfs = spanlib.self_times(run.spans)
        for s in run.spans:
            key = s["name"]
            if key == "sampling.next_points":
                key = f"{key}.{s['counts']['engine']}"
            elif key == "estimator.batch":
                t("estimator.desf_batches").add(0.0, {})
                key = "estimator.estimate_desf"
            t(key).add(selfs[s["id"]], s["counts"])
    cli_runs = [r for r in runs if any(s["name"] == "cli.main" for s in r.spans)]
    curves_ops = sum(1 for r in cli_runs if r.name.startswith("curves"))
    sampling_runs = [r for r in runs if r.n_effective]
    compute_s = sum(r.compute_s for r in sampling_runs)
    mask, map_, det = t("qstate.z_psd_mask"), t("sampling.cube_to_bloore_batch"), \
        t("qstate.pt_corr_det4")
    bounds, beta = t("quadrature.bound_table"), t("sepfun.jacobian_general_beta")
    sobol = t("sampling.next_points.low_discrepancy")
    beta2 = t("quadrature.complex_speculation_probability")
    sepfun_s = beta.self_s + t("sepfun.jacobian_xi").self_s \
        + t("sepfun.eval_desf_array").self_s
    return {
        "sampling.sobol_ms_per_batch": sobol.ms_per(),
        "sampling.map_ms_per_batch": map_.ms_per(),
        "sampling.map_rows_per_effective": (
            map_.counts["rows_in"] / mask.counts["rows_out"] if map_.calls else 0.0),
        "qstate.accept_ratio": mask.ratio("rows_out", "rows_in"),
        "qstate.psd_mask_ms_per_batch": mask.ms_per(),
        "qstate.sep_test_ms_per_batch": (det.ms_per()
                                         + t("qstate.xi_from_diag").ms_per(det.calls)),
        "estimator.desf.self_ms_per_batch": t("estimator.estimate_desf").ms_per(
            t("estimator.desf_batches").calls),
        "estimator.eff_samples_per_s": (
            sum(r.n_effective for r in sampling_runs) / compute_s if compute_s else 0.0),
        "quadrature.bound_table_ms": bounds.ms_per(),
        "quadrature.beta2_ms": beta2.ms_per(),
        "quadrature.evals_per_row": bounds.ratio("evals", "rows_out"),
        "sepfun.jacobian_beta_ms_per_kpoint": (
            1e6 * beta.self_s / beta.counts["rows_in"] if beta.calls else 0.0),
        "sepfun.curves_ms": 1000.0 * sepfun_s / curves_ops if curves_ops else 0.0,
        "cli.self_ms": t("cli.main").ms_per(),
        "cli.artifact_bytes": per_cycle(runs_by_op, lambda r: r.out_bytes),
        **{f"{layer}.spans": per_cycle(runs_by_op, lambda r, layer=layer: sum(
            1 for s in r.spans if s["name"].split(".")[0] == layer)) for layer in LAYERS},
        "trace.wall_s": cycle_wall(runs_by_op),
        # Peak memory is not an end-to-end metric: a two-worker sampling
        # operation peaks at one of a few levels (about 450 or 600 MB),
        # depending on whether the workers' batch temporaries overlap in
        # time, so a few operations per run cannot hold it to a 25% bound.
        "trace.peak_rss_mb": max(r.rss_mb for r in runs),
    }


def check_layers(name: str, metrics: dict) -> None:
    """Raise if a layer the workload must hit recorded no span."""
    missing = [layer for layer in WORKLOADS[name].layers
               if not metrics[f"{layer}.spans"]]
    if missing:
        raise LayerError(f"traced {name} run recorded no spans in: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help="worker threads per sampling operation")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sepscope" / "__init__.py").is_file():
        print(f"run.py: no sepscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runs, setup, cal = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), args.workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    every = setup + [r for rs in runs.values() for r in rs]
    failed = [r for r in every if r.failure]
    if args.trace:
        values, units = layer_metrics(runs), PER_LAYER
    else:
        raw = raw_times(runs, setup, cal)
        values, units = end_to_end_metrics(raw), END_TO_END
    for r in failed:
        print(f"FAILED {r.name}: {r.failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} workers={args.workers} "
          f"runs={ {name: len(rs) for name, rs in runs.items()} } "
          f"fail_frac={len(failed) / len(every):.4f}", file=sys.stderr)
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {units[key]}", file=sys.stderr)
    if not args.trace:
        print("raw " + json.dumps(raw), file=sys.stderr)
    print("digests " + json.dumps({name: rs[0].digest for name, rs in runs.items()}),
          file=sys.stderr)
    if args.trace:
        check_layers(args.workload, values)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except LayerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
