"""Command-line interface.

Subcommands
-----------

* ``bounds``   -- quadrature of every closed-form curve against its exact
  reference value, plus the squared-curve value in the beta = 2 ensemble.
* ``estimate`` -- Monte Carlo / quasi-Monte Carlo estimate of the separable
  or absolutely separable fraction.
* ``desf``     -- binned estimate of the separability function of xi
  (consumable by ``curves --residual``).
* ``curves``   -- tabulate closed-form curves and the density on a grid, or
  compare a stored histogram against a curve.
* ``verify``   -- run the built-in check suite (quick or full).

Outputs are deterministic byte-for-byte for fixed parameters: the worker
count never appears in an output file, and wall-clock timing goes to
stderr.  Every CSV/JSON payload embeds a manifest whose ``output_sha256``
is the digest of the data section that follows it.

Exit codes: 0 success, 2 usage error, 3 numeric/validation error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import SepscopeError
from .estimator import (
    DesfHistogram,
    compare_curves,
    estimate_abs_sep_probability,
    estimate_desf,
    estimate_sep_probability,
)
from .quadrature import (
    SPECULATION_REF_EXPR,
    SPECULATION_REF_VALUE,
    bound_row,
    bound_table,
    complex_speculation_probability,
)
from .sampling import SequenceSpec
from .sepfun import TAGS, DesfCurve, eval_desf_array, jacobian_general_beta, jacobian_xi
from .verify import run_checks

__all__ = ["main"]

_ENGINE_NAMES = {"prng": "pseudo_random", "lds": "low_discrepancy"}

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_VERIFY = 4


class _UsageError(Exception):
    """Bad invocation detected after argparse (e.g. an unknown curve tag)."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _manifest(subcommand: str, params: dict, sequence, sha: str) -> dict:
    return {
        "tool": "sepscope",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "sequence": sequence,
        "output_sha256": sha,
    }


def _emit_csv(args, subcommand, params, sequence, header, rows, preamble=()):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for line in preamble:
        buf.write(f"# {line}\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    sha = hashlib.sha256(data.encode("utf-8")).hexdigest()
    manifest = _manifest(subcommand, params, sequence, sha)
    text = (
        f"# sepscope {__version__} {subcommand}\n"
        f"# manifest: {_canonical(manifest)}\n" + data
    )
    _write_out(args.out, text)


def _emit_json(args, subcommand, params, sequence, data):
    sha = hashlib.sha256(_canonical(data).encode("utf-8")).hexdigest()
    payload = {
        "manifest": _manifest(subcommand, params, sequence, sha),
        "data": data,
    }
    _write_out(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_out(out, text: str):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sequence_spec(args, dimension=9) -> SequenceSpec:
    return SequenceSpec(
        engine=_ENGINE_NAMES[args.engine],
        seed=args.seed,
        dimension=dimension,
        scramble=not args.no_scramble,
    )


def _workers(args) -> int:
    if args.workers is not None:
        w = args.workers
    else:
        w = int(os.environ.get("SEPSCOPE_WORKERS", "1"))
    if w < 1:
        raise ValueError(f"workers must be >= 1, got {w}")
    return w


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ValueError(f"grid must look like 'min:max:count', got {text!r}") from None
    if count < 1 or not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"bad grid specification {text!r}")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    rows = bound_table(tol=args.tol)
    rows.append(bound_row(
        "conjecture_sq_beta2", SPECULATION_REF_EXPR, SPECULATION_REF_VALUE,
        complex_speculation_probability, max(args.tol, 1e-10),
    ))
    header = (
        "tag", "ref_expr", "ref_value", "value",
        "abs_err_est", "evals", "abs_diff", "half", "converged",
    )
    out_rows = [
        (
            r.tag, r.ref_expr, r.ref_value, r.result.value,
            r.result.abs_err_est, r.result.evals, r.diff, r.half, r.converged,
        )
        for r in rows
    ]
    params = {"tol": args.tol, "format": args.format}
    if args.format == "json":
        data = {"rows": [dict(zip(header, row)) for row in out_rows]}
        _emit_json(args, "bounds", params, None, data)
    else:
        _emit_csv(args, "bounds", params, None, header, out_rows)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    spec = _sequence_spec(args)
    workers = _workers(args)
    fn = {
        "sep": estimate_sep_probability,
        "abs_sep": estimate_abs_sep_probability,
    }[args.target]
    t0 = time.perf_counter()
    res = fn(spec, args.n, workers=workers, replicates=args.replicates)
    dt = time.perf_counter() - t0
    print(f"wall time: {dt:.2f} s", file=sys.stderr)
    n_replicates = len(res.replicate_means) if res.replicate_means else 1
    params = {
        "target": args.target,
        "n": args.n,
        "replicates": n_replicates,
        "format": args.format,
    }
    sequence = spec.to_dict()
    header = (
        "target", "mean", "stderr", "n_effective", "n_total",
        "ci95_lo", "ci95_hi", "replicates",
    )
    row = (
        args.target, res.mean, res.stderr, res.n_effective, res.n_total,
        res.ci95[0], res.ci95[1], n_replicates,
    )
    if args.format == "json":
        data = dict(zip(header, row))
        if res.replicate_means is not None:
            data["replicate_means"] = list(res.replicate_means)
        _emit_json(args, "estimate", params, sequence, data)
    else:
        _emit_csv(args, "estimate", params, sequence, header, [row])
    return _EXIT_OK


# ---------------------------------------------------------------------------
# desf
# ---------------------------------------------------------------------------


def _cmd_desf(args) -> int:
    spec = _sequence_spec(args)
    workers = _workers(args)
    t0 = time.perf_counter()
    hist = estimate_desf(
        spec, args.n, bins=args.bins, ximax=args.ximax, workers=workers
    )
    dt = time.perf_counter() - t0
    print(f"wall time: {dt:.2f} s", file=sys.stderr)
    params = {
        "n": args.n,
        "bins": args.bins,
        "ximax": args.ximax,
        "format": args.format,
    }
    sequence = spec.to_dict()
    header = ("bin_lo", "bin_hi", "xi_mid", "n_psd", "n_sep", "ratio", "stderr")
    mids, ratio, se = hist.xi_mid, hist.ratio, hist.stderr
    rows = [
        (
            hist.bin_edges[i], hist.bin_edges[i + 1], mids[i],
            int(hist.n_psd[i]), int(hist.n_sep[i]),
            ratio[i], se[i],
        )
        for i in range(len(mids))
    ]
    outside = (
        f"outside: n_psd={hist.n_psd_outside} n_sep={hist.n_sep_outside} "
        f"n_total={hist.n_total}"
    )
    if args.format == "json":
        data = {
            "bin_edges": [float(e) for e in hist.bin_edges],
            "n_psd": [int(v) for v in hist.n_psd],
            "n_sep": [int(v) for v in hist.n_sep],
            "n_psd_outside": hist.n_psd_outside,
            "n_sep_outside": hist.n_sep_outside,
            "n_total": hist.n_total,
        }
        _emit_json(args, "desf", params, sequence, data)
    else:
        _emit_csv(args, "desf", params, sequence, header, rows, preamble=(outside,))
    return _EXIT_OK


def _load_desf_csv(path: str) -> DesfHistogram:
    """Read back a histogram written by ``desf --format csv``.

    The data section must match the ``output_sha256`` of its manifest, and
    every row must carry every column; otherwise ``ValueError``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    _, _, rest = text.partition("\n")
    man_line, _, data = rest.partition("\n")
    if not man_line.startswith("# manifest: "):
        raise ValueError(f"{path} has no manifest line")
    manifest = json.loads(man_line[len("# manifest: "):])
    digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
    if not isinstance(manifest, dict) or manifest.get("output_sha256") != digest:
        raise ValueError(f"{path}: the data does not match its manifest's digest")
    outside = {"n_psd": 0, "n_sep": 0, "n_total": 0}
    body = []
    for line in data.splitlines():
        if line.startswith("#"):
            stripped = line.lstrip("# ").strip()
            if stripped.startswith("outside:"):
                for part in stripped[len("outside:"):].split():
                    key, val = part.split("=")
                    outside[key] = int(val)
            continue
        if line:
            body.append(line)
    if len(body) < 2:
        raise ValueError(f"no data rows in {path}")
    reader = csv.reader(body)
    header = next(reader)
    idx = {name: k for k, name in enumerate(header)}
    for need in ("bin_lo", "bin_hi", "n_psd", "n_sep"):
        if need not in idx:
            raise ValueError(f"{path} lacks required column {need!r}")
    lows, highs, n_psd, n_sep = [], [], [], []
    for row in reader:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: a row has {len(row)} columns, the header {len(header)}"
            )
        lows.append(float(row[idx["bin_lo"]]))
        highs.append(float(row[idx["bin_hi"]]))
        n_psd.append(int(row[idx["n_psd"]]))
        n_sep.append(int(row[idx["n_sep"]]))
    edges = np.asarray(lows + [highs[-1]])
    n_total = outside["n_total"]
    if n_total == 0:
        n_total = int(sum(n_psd)) + outside["n_psd"]
    return DesfHistogram(
        bin_edges=edges,
        n_psd=np.asarray(n_psd, dtype=np.int64),
        n_sep=np.asarray(n_sep, dtype=np.int64),
        n_psd_outside=outside["n_psd"],
        n_sep_outside=outside["n_sep"],
        n_total=n_total,
    )


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def _cmd_curves(args) -> int:
    if args.residual is not None:
        return _cmd_curves_residual(args)
    tags = [t.strip() for t in args.tags.split(",")] if args.tags else []
    if not tags:
        tags = list(TAGS) + ["jacobian"]
    valid = set(TAGS) | {"jacobian"}
    for tag in tags:
        if tag not in valid:
            raise _UsageError(
                f"unknown curve tag {tag!r}; valid tags: "
                + ", ".join(sorted(valid))
            )
    if args.beta != 1.0 and any(t != "jacobian" for t in tags):
        raise ValueError(
            "--beta only applies to the 'jacobian' column; the closed-form "
            "curves are specific to the real ensemble"
        )
    grid = _parse_grid(args.grid)
    cols = {}
    for tag in tags:
        if tag == "jacobian":
            if args.beta == 1.0:
                cols[tag] = jacobian_xi(grid)
            else:
                cols[tag] = jacobian_general_beta(args.beta, grid, tol=args.tol)
        else:
            cols[tag] = eval_desf_array(DesfCurve(tag), grid)
    params = {
        "tags": tags,
        "grid": args.grid,
        "beta": args.beta,
        "tol": args.tol,
        "format": args.format,
    }
    header = ["xi"] + tags
    rows = [
        [grid[i]] + [float(cols[t][i]) for t in tags] for i in range(len(grid))
    ]
    if args.format == "json":
        data = {"xi": [float(x) for x in grid]}
        data.update({t: [float(v) for v in cols[t]] for t in tags})
        _emit_json(args, "curves", params, None, data)
    else:
        _emit_csv(args, "curves", params, None, header, rows)
    return _EXIT_OK


def _cmd_curves_residual(args) -> int:
    if not args.tags or "," in args.tags:
        raise ValueError("residual mode needs exactly one tag via --tags")
    tag = args.tags.strip()
    hist = _load_desf_csv(args.residual)
    cmp_ = compare_curves(hist, DesfCurve(tag), min_count=args.min_count)
    params = {
        "tags": [tag],
        "residual": os.path.basename(args.residual),
        "min_count": args.min_count,
        "format": args.format,
    }
    summary = (
        f"summary: max_abs_z={_fmt(cmp_.max_abs_z)} "
        f"mean_signed={_fmt(cmp_.mean_signed)} "
        f"used={cmp_.n_used} skipped={cmp_.n_skipped}"
    )
    header = ("xi_mid", "ratio", "ref", "residual", "sigma", "zscore")
    ref = eval_desf_array(DesfCurve(tag), hist.xi_mid)
    rows = [
        (
            hist.xi_mid[i], hist.ratio[i], ref[i],
            cmp_.residual[i], cmp_.sigma[i], cmp_.zscore[i],
        )
        for i in range(len(hist.xi_mid))
    ]
    if args.format == "json":
        data = {
            "xi_mid": [float(v) for v in hist.xi_mid],
            "residual": [float(v) for v in cmp_.residual],
            "sigma": [float(v) for v in cmp_.sigma],
            "zscore": [float(v) for v in cmp_.zscore],
            "max_abs_z": cmp_.max_abs_z,
            "mean_signed": cmp_.mean_signed,
            "n_used": cmp_.n_used,
            "n_skipped": cmp_.n_skipped,
        }
        _emit_json(args, "curves", params, None, data)
    else:
        _emit_csv(args, "curves", params, None, header, rows, preamble=(summary,))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    workers = _workers(args)
    t0 = time.perf_counter()

    def report(result):
        print(result.line, flush=True)
        print(f"{result.name}: {result.seconds:.2f} s", file=sys.stderr)

    results = run_checks(args.level, workers=workers, report=report)
    dt = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"({dt:.1f} s, level={args.level})",
        file=sys.stderr,
    )
    if args.out:
        _write_out(args.out, "\n".join(r.line for r in results) + "\n")
    return _EXIT_VERIFY if failed else _EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_output_args(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def _add_sequence_args(p):
    p.add_argument(
        "--engine", choices=("prng", "lds"), default="prng",
        help="pseudorandom (Philox) or low-discrepancy (scrambled Sobol)",
    )
    p.add_argument("--seed", type=int, default=0, help="stream seed")
    p.add_argument(
        "--no-scramble", action="store_true",
        help="disable scrambling of the low-discrepancy stream",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker threads (default: $SEPSCOPE_WORKERS or 1); "
        "never affects output bytes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepscope",
        description="Separability probabilities of real two-qubit states",
    )
    parser.add_argument(
        "--version", action="version", version=f"sepscope {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="closed-form probabilities vs quadrature")
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    _add_output_args(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("estimate", help="sample the separable fraction")
    p.add_argument(
        "--target", choices=("sep", "abs_sep"), default="sep",
        help="separable or absolutely separable fraction",
    )
    p.add_argument("--n", type=int, required=True, help="total sample budget")
    p.add_argument(
        "--replicates", type=int, default=None,
        help="independent replicates to pool (default: 8 for scrambled lds, else 1)",
    )
    _add_sequence_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_estimate, format="json")

    p = sub.add_parser("desf", help="histogram the separability function of xi")
    p.add_argument("--n", type=int, required=True, help="total sample budget")
    p.add_argument("--bins", type=int, default=101, help="bin count (odd centers 0)")
    p.add_argument("--ximax", type=float, default=4.0, help="bin range half-width")
    _add_sequence_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_desf)

    p = sub.add_parser("curves", help="tabulate curves, or residuals vs a histogram")
    p.add_argument(
        "--tags", default="",
        help="comma-separated curve tags (default: all closed forms + jacobian)",
    )
    p.add_argument("--grid", default="-4:4:161", help="xi grid as min:max:count")
    p.add_argument(
        "--beta", type=float, default=1.0,
        help="ensemble parameter for the jacobian column",
    )
    p.add_argument("--tol", type=float, default=1e-10, help="density quadrature tolerance")
    p.add_argument(
        "--residual", default=None, metavar="HIST_CSV",
        help="compare the single --tags curve against a stored desf histogram",
    )
    p.add_argument(
        "--min-count", type=int, default=10,
        help="minimum per-bin positives for a residual z-score",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("verify", help="run built-in self checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker threads (default: $SEPSCOPE_WORKERS or 1)",
    )
    p.add_argument("--out", default=None, help="also write the report lines here")
    p.set_defaults(func=_cmd_verify)

    return parser


def _attach_grid_values(argv):
    """Merge ``--grid -3:3:601`` into ``--grid=-3:3:601``.

    A grid whose lower bound is negative starts with ``-``, which argparse
    would otherwise reject as an unknown option unless the value is attached
    with ``=``.
    """
    out, it = [], iter(argv)
    for tok in it:
        if tok == "--grid":
            value = next(it, None)
            if value is None:
                out.append(tok)
            else:
                out.append(f"--grid={value}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_grid_values(argv))
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"sepscope: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (SepscopeError, ValueError) as exc:
        print(f"sepscope: error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
