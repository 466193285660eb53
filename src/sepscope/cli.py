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
is the digest of the data section that follows it: ``_emit`` writes every
artifact, and ``_read_artifact``, its inverse, reads one back.  A JSON
artifact's data is its result's fields (``dataclasses.asdict``);
``_json_texts`` is the one place an array becomes JSON text, and it writes
both the digest body and the file from one rendering of each number.

Exit codes: 0 success, 2 usage error, 3 numeric/validation error (an
unreadable or unwritable path included), 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import SepscopeError
from .estimator import (
    TARGETS,
    DesfHistogram,
    compare_curves,
    estimate_desf,
    estimate_probability,
)
from .quadrature import (
    SPECULATION_REF_EXPR,
    SPECULATION_REF_VALUE,
    bound_row,
    bound_table,
    complex_speculation_probability,
)
from .sampling import SequenceSpec
from .sepfun import (
    TAGS,
    check_tol,
    eval_desf_array,
    jacobian_general_beta,
    jacobian_xi,
)

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


def _json_texts(obj, pad="\n"):
    """``obj`` as two JSON texts, the bytes of ``json.dumps(obj,
    sort_keys=True)`` with ``separators=(",", ":")`` (compact: the digest
    body) and with ``indent=2`` from the line start ``pad`` (the file).

    Each array is written as a list and each non-finite float as ``null``
    (``NaN`` and ``Infinity`` are not JSON).  Every number is rendered once
    and both texts join the same strings: a 1-D float array costs one
    ``float.__repr__`` per element, where ``json.dumps`` with ``indent``
    runs its pure-Python encoder."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and not (obj.ndim == 1 and obj.dtype.kind == "f"):
        obj = obj.tolist()
    if isinstance(obj, np.ndarray):
        compact = list(map(float.__repr__, obj.tolist()))
        for k in np.flatnonzero(~np.isfinite(obj)).tolist():
            compact[k] = "null"
        brackets, indented = "[]", compact
    elif isinstance(obj, dict):
        brackets, compact, indented = "{}", [], []
        for key in sorted(obj):
            name = encode_basestring_ascii(key)
            c, i = _json_texts(obj[key], inner)
            compact.append(f"{name}:{c}")
            indented.append(f"{name}: {i}")
    elif isinstance(obj, (list, tuple)):
        texts = [_json_texts(v, inner) for v in obj]
        brackets, compact, indented = "[]", [c for c, _ in texts], [i for _, i in texts]
    else:
        if isinstance(obj, str):
            text = encode_basestring_ascii(obj)
        elif obj is None:
            text = "null"
        elif obj is True or obj is False:
            text = "true" if obj else "false"
        elif isinstance(obj, int):
            text = int.__repr__(obj)
        elif isinstance(obj, float):
            text = float.__repr__(obj) if math.isfinite(obj) else "null"
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        return text, text
    if not compact:
        return brackets, brackets
    return (brackets[0] + ",".join(compact) + brackets[1],
            brackets[0] + inner + ("," + inner).join(indented) + pad + brackets[1])


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):  # first: most cells are np.float64
        return format(float(v), ".17g")
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _emit(fh, args, subcommand, params, sequence, header, rows, data,
          preamble=()) -> int:
    """Write one artifact to the stream ``fh`` in ``args.format``: the CSV
    ``# preamble`` lines, ``header`` and ``rows``, or the JSON object
    ``data`` (a result's fields, arrays included), under a manifest whose
    ``output_sha256`` is the digest of that data section.
    :func:`_read_artifact` is its inverse.  :func:`_json_texts` writes
    the JSON digest body and file text, each array as a list and a
    non-finite float as ``null``; the CSV keeps ``nan`` and ``inf``."""
    as_json = args.format == "json"
    if as_json:
        body, data_text = _json_texts(data, "\n  ")
    else:
        buf = io.StringIO()
        for line in preamble:
            buf.write(f"# {line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        body = buf.getvalue()
    manifest = {
        "tool": "sepscope",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": {**params, "format": args.format},
        "sequence": sequence,
        "output_sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }
    if as_json:
        # {"manifest": ..., "data": ...} with sorted keys and indent=2
        _, manifest_text = _json_texts(manifest, "\n  ")
        text = f'{{\n  "data": {data_text},\n  "manifest": {manifest_text}\n}}\n'
    else:
        text = (
            f"# sepscope {__version__} {subcommand}\n"
            f"# manifest: {_canonical(manifest)}\n" + body
        )
    fh.write(text)
    return _EXIT_OK


def _read_artifact(path: str):
    """``(manifest, data)`` of a file written by :func:`_emit`: for JSON,
    ``data`` is the parsed object; for CSV, the text after the manifest line.

    The data must match the manifest's ``output_sha256``; otherwise
    ``ValueError``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text.startswith("{"):
        payload = json.loads(text)
        manifest, data = payload.get("manifest"), payload.get("data")
        body = _canonical(data)
    else:
        _, _, rest = text.partition("\n")
        man_line, _, data = rest.partition("\n")
        if not man_line.startswith("# manifest: "):
            raise ValueError(f"{path} has no manifest line")
        manifest = json.loads(man_line[len("# manifest: "):])
        body = data
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if not isinstance(manifest, dict) or manifest.get("output_sha256") != digest:
        raise ValueError(f"{path}: the data does not match its manifest's digest")
    return manifest, data


def _open_out(out):
    """The stream ``--out`` names, opened now: stdout for None or ``-``."""
    if out is None or out == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def _sequence_spec(args) -> SequenceSpec:
    return SequenceSpec(_ENGINE_NAMES[args.engine], args.seed,
                        scramble=not args.no_scramble)


def _workers(args) -> int:
    """``--workers``, else ``$SEPSCOPE_WORKERS``, else 1; an error names the
    one it read."""
    w, name = args.workers, "workers"
    if w is None:
        name = "SEPSCOPE_WORKERS"
        text = os.environ.get(name, "1")
        try:
            w = int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if w < 1:
        raise ValueError(f"{name} must be >= 1, got {w}")
    return w


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ValueError(f"grid must look like 'min:max:count', got {text!r}") from None
    if count < 1 or not (lo <= hi and np.isfinite(hi - lo)):  # so lo and hi are finite
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
    header = ("tag", "ref_expr", "ref_value", "value",
              "abs_err_est", "evals", "abs_diff", "half", "converged")
    out_rows = [
        (r.tag, r.ref_expr, r.ref_value, r.result.value,
         r.result.abs_err_est, r.result.evals, r.diff, r.half, r.converged)
        for r in rows
    ]
    data = {"rows": [dict(zip(header, row)) for row in out_rows]}
    with _open_out(args.out) as fh:
        return _emit(fh, args, "bounds", {"tol": args.tol}, None, header,
                     out_rows, data)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _split_notes(spec, n, replicates, n_total):
    """What a replicate split gives up, one line per loss: the points that
    ``n // replicates`` drops, and the balance of a Sobol replicate whose
    length is not a power of two."""
    n_per = n_total // replicates
    notes = []
    if n_total < n:
        notes.append(
            f"n={n} does not split evenly into {replicates} replicates; "
            f"{n - n_total} points dropped (n_total={n_total})"
        )
    if spec.engine == "low_discrepancy" and n_per & (n_per - 1):
        notes.append(
            f"each lds replicate reads {n_per} points, not a power of two, "
            "so its Sobol points lose their balance properties"
        )
    return notes


def _cmd_estimate(args) -> int:
    spec = _sequence_spec(args)
    workers = _workers(args)
    # opened before sampling, so a bad path fails at once
    with _open_out(args.out) as fh:
        t0 = time.perf_counter()
        res = estimate_probability(args.target, spec, args.n, workers=workers,
                                   replicates=args.replicates)
        dt = time.perf_counter() - t0
        print(f"wall time: {dt:.2f} s", file=sys.stderr)
        n_replicates = len(res.replicate_means) if res.replicate_means else 1
        for note in _split_notes(spec, args.n, n_replicates, res.n_total):
            print(f"note: {note}", file=sys.stderr)
        params = {"target": args.target, "n": args.n, "replicates": n_replicates}
        header = (
            "target", "mean", "stderr", "n_effective", "n_total",
            "ci95_lo", "ci95_hi", "replicates",
        )
        row = (
            args.target, res.mean, res.stderr, res.n_effective, res.n_total,
            res.ci95[0], res.ci95[1], n_replicates,
        )
        data = dict(zip(header, row))
        if res.replicate_means is not None:
            data["replicate_means"] = list(res.replicate_means)
        return _emit(fh, args, "estimate", params, spec.to_dict(), header,
                     [row], data)


# ---------------------------------------------------------------------------
# desf
# ---------------------------------------------------------------------------


_DESF_FIELDS = tuple(f.name for f in dataclasses.fields(DesfHistogram))
#: The columns of a ``desf`` CSV, in the order ``desf`` writes them.
_DESF_COLUMNS = ("bin_lo", "bin_hi", "xi_mid", "n_psd", "n_sep", "ratio", "stderr")
#: Each key of a ``desf`` CSV's ``# outside:`` line: the field it holds.
_OUTSIDE = {"n_psd": "n_psd_outside", "n_sep": "n_sep_outside", "n_total": "n_total"}


def _cmd_desf(args) -> int:
    spec = _sequence_spec(args)
    workers = _workers(args)
    # opened before sampling, so a bad path fails at once
    with _open_out(args.out) as fh:
        t0 = time.perf_counter()
        hist = estimate_desf(
            spec, args.n, bins=args.bins, ximax=args.ximax, workers=workers
        )
        dt = time.perf_counter() - t0
        print(f"wall time: {dt:.2f} s", file=sys.stderr)
        for note in _split_notes(spec, args.n, 1, args.n):
            print(f"note: {note}", file=sys.stderr)
        params = {"n": args.n, "bins": args.bins, "ximax": args.ximax}
        edges = hist.bin_edges
        rows = zip(edges[:-1], edges[1:], hist.xi_mid, hist.n_psd, hist.n_sep,
                   hist.ratio, hist.stderr)
        outside = "outside: " + " ".join(
            f"{key}={getattr(hist, field)}" for key, field in _OUTSIDE.items())
        return _emit(fh, args, "desf", params, spec.to_dict(), _DESF_COLUMNS, rows,
                     dataclasses.asdict(hist), preamble=(outside,))


def _csv_value(text: str, parse):
    """``parse(text)``, or ``text`` itself when it does not parse, so that
    :func:`_load_desf` rejects it by the name of its field."""
    try:
        return parse(text)
    except ValueError:
        return text


def _desf_csv_fields(path: str, text: str) -> dict:
    """The fields of a ``desf`` CSV data section, keyed as its JSON data is."""
    fields, body = {}, []
    for line in text.splitlines():
        if line.startswith("# outside: "):
            for part in line[len("# outside: "):].split():
                key, eq, val = part.partition("=")
                if not eq:
                    raise ValueError(f"{path}: cannot read {part!r} on the '# outside:' line")
                if key not in _OUTSIDE:
                    raise ValueError(f"{path}: unknown entry {part!r} on the '# outside:' "
                                     f"line; desf writes {', '.join(_OUTSIDE)}")
                fields[_OUTSIDE[key]] = _csv_value(val, int)
        elif line and not line.startswith("#"):
            body.append(line)
    if len(body) < 2:
        raise ValueError(f"no data rows in {path}")
    header, *rows = csv.reader(body)
    if tuple(header) != _DESF_COLUMNS:
        raise ValueError(f"{path}: the header {','.join(header)} is not desf's "
                         f"{','.join(_DESF_COLUMNS)}")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: a row has {len(row)} columns, the header {len(header)}"
            )
    lo, hi, _, n_psd, n_sep, _, _ = zip(*rows)
    lo, hi = ([_csv_value(v, float) for v in column] for column in (lo, hi))
    if hi[:-1] != lo[1:]:
        raise ValueError(f"{path}: a row's bin_hi is not the next row's bin_lo")
    fields["bin_edges"] = lo + hi[-1:]
    fields["n_psd"], fields["n_sep"] = (
        [_csv_value(v, int) for v in column] for column in (n_psd, n_sep))
    return fields


def _is_count(v) -> bool:
    """A non-negative integer that fits an int64 (a bool is not a count)."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < 2**63


def _load_desf(path: str) -> DesfHistogram:
    """Read back a histogram written by ``desf``, in either format.

    On top of :func:`_read_artifact`'s digest check, the artifact must come
    from ``desf`` and carry every field of its JSON data (a CSV its
    ``# outside:`` line).  Counts are non-negative integers; no ``n_sep``
    exceeds its ``n_psd``, nor the positives ``n_total``; the bin edges are
    finite, increasing, one more than each count column and (in a CSV) each
    ``bin_hi`` the next ``bin_lo``.  Otherwise ``ValueError``, naming the field.
    """
    manifest, data = _read_artifact(path)
    if manifest.get("subcommand") != "desf":
        raise ValueError(
            f"{path} is a {manifest.get('subcommand')!r} artifact, not a desf histogram"
        )
    if isinstance(data, str):
        data = _desf_csv_fields(path, data)
    missing = [k for k in _DESF_FIELDS if not isinstance(data, dict) or k not in data]
    if missing:
        raise ValueError(f"{path} lacks the histogram fields {', '.join(missing)}")
    for key in _DESF_FIELDS[1:]:
        value = data[key]
        many = key in ("n_psd", "n_sep") and isinstance(value, list)
        if not all(map(_is_count, value if many else [value])):
            raise ValueError(f"{path}: {key} must hold non-negative integer counts")
    raw_edges = data["bin_edges"]
    if not (isinstance(raw_edges, list) and all(
            isinstance(e, (int, float)) and not isinstance(e, bool) for e in raw_edges)):
        raise ValueError(f"{path}: bin_edges must be a list of numbers")
    edges = np.asarray(raw_edges, dtype=float)
    n_psd = np.asarray(data["n_psd"], dtype=np.int64)
    n_sep = np.asarray(data["n_sep"], dtype=np.int64)
    if not (edges.ndim == n_psd.ndim == n_sep.ndim == 1
            and edges.size == n_psd.size + 1 == n_sep.size + 1):
        raise ValueError(
            f"{path}: {edges.size} bin edges for {n_psd.size} n_psd "
            f"and {n_sep.size} n_sep counts"
        )
    if edges.size < 2 or not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        raise ValueError(f"{path}: bin_edges must be finite and strictly increasing")
    totals = {k: data[k] for k in ("n_psd_outside", "n_sep_outside", "n_total")}
    if np.any(n_sep > n_psd) or totals["n_sep_outside"] > totals["n_psd_outside"]:
        raise ValueError(f"{path}: an n_sep count exceeds its n_psd count")
    if sum(data["n_psd"]) + totals["n_psd_outside"] > totals["n_total"]:
        raise ValueError(f"{path}: n_total is below the positives the histogram counts")
    return DesfHistogram(bin_edges=edges, n_psd=n_psd, n_sep=n_sep, **totals)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def _check_tags(tags, valid) -> None:
    for k, tag in enumerate(tags):
        if tag not in valid:
            raise _UsageError(
                f"unknown curve tag {tag!r}; valid tags: "
                + ", ".join(sorted(valid))
            )
        if tag in tags[:k]:
            raise _UsageError(f"curve tag {tag!r} is given twice")


#: Each ``curves`` option that one mode reads: that mode and its default.
_CURVES_OPTIONS = {"grid": ("table", "-4:4:161"), "beta": ("table", 1.0),
                   "tol": ("table", 1e-10), "min_count": ("residual", 10)}


def _cmd_curves(args) -> int:
    mode = "table" if args.residual is None else "residual"
    for name, (owner, default) in _CURVES_OPTIONS.items():
        if owner != mode and getattr(args, name) is not None:
            raise _UsageError(f"--{name.replace('_', '-')} applies to {owner} mode only")
        if getattr(args, name) is None:
            setattr(args, name, default)
    if mode == "residual":
        return _cmd_curves_residual(args)
    check_tol(args.tol)
    tags = [t.strip() for t in args.tags.split(",")] if args.tags else []
    if not tags:
        tags = list(TAGS) + ["jacobian"]
    _check_tags(tags, set(TAGS) | {"jacobian"})
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
            cols[tag] = eval_desf_array(tag, grid)
    params = {"tags": tags, "grid": args.grid, "beta": args.beta, "tol": args.tol}
    header = ["xi"] + tags
    rows = zip(grid, *(cols[t] for t in tags))
    with _open_out(args.out) as fh:
        return _emit(fh, args, "curves", params, None, header, rows,
                     {"xi": grid, **cols})


def _cmd_curves_residual(args) -> int:
    if not args.tags or "," in args.tags:
        raise ValueError("residual mode needs exactly one tag via --tags")
    tag = args.tags.strip()
    _check_tags([tag], set(TAGS))
    hist = _load_desf(args.residual)
    ref = eval_desf_array(tag, hist.xi_mid)
    cmp_ = compare_curves(hist, ref, min_count=args.min_count)
    params = {"tags": [tag], "residual": os.path.basename(args.residual),
              "min_count": args.min_count}
    summary = (
        f"summary: max_abs_z={_fmt(cmp_.max_abs_z)} "
        f"mean_signed={_fmt(cmp_.mean_signed)} "
        f"used={cmp_.n_used} skipped={cmp_.n_skipped}"
    )
    header = ("xi_mid", "ratio", "ref", "residual", "sigma", "zscore")
    rows = zip(hist.xi_mid, hist.ratio, ref, cmp_.residual, cmp_.sigma, cmp_.zscore)
    # opened after the histogram is read, so --out may name that file
    with _open_out(args.out) as fh:
        return _emit(fh, args, "curves", params, None, header, rows,
                     dataclasses.asdict(cmp_), preamble=(summary,))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    # imported here: verify loads scipy.stats and scipy.integrate, about a
    # second of start-up that the other subcommands do not need
    from .verify import run_checks

    workers = _workers(args)
    t0 = time.perf_counter()

    def report(result):
        print(result.line, flush=True)
        print(f"{result.name}: {result.seconds:.2f} s", file=sys.stderr)

    # opened before the first check, so a bad path fails at once
    with _open_out(args.out) if args.out else contextlib.nullcontext() as out:
        results = run_checks(args.level, workers=workers, report=report)
        dt = time.perf_counter() - t0
        failed = [r for r in results if not r.passed]
        print(
            f"{len(results) - len(failed)}/{len(results)} checks passed "
            f"({dt:.1f} s, level={args.level})",
            file=sys.stderr,
        )
        if out is not None:
            out.write("\n".join(r.line for r in results) + "\n")
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
        "--engine", choices=_ENGINE_NAMES, default="prng",
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
        "--target", choices=TARGETS, default="sep",
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
    p.add_argument("--grid", help="xi grid as min:max:count (table mode; "
                   f"default {_CURVES_OPTIONS['grid'][1]})")
    p.add_argument(
        "--beta", type=float, help="ensemble parameter for the jacobian column "
        f"(table mode; default {_CURVES_OPTIONS['beta'][1]})",
    )
    p.add_argument(
        "--tol", type=float,
        help="absolute tolerance of the --beta density quadrature (table "
        f"mode; default {_CURVES_OPTIONS['tol'][1]}; tail values far below "
        "it carry no relative accuracy)",
    )
    p.add_argument(
        "--residual", default=None, metavar="HIST",
        help="residual mode: compare the single --tags curve against a "
        "stored desf histogram (CSV or JSON)",
    )
    p.add_argument(
        "--min-count", type=int, help="minimum per-bin positives for a residual "
        f"z-score (residual mode; default {_CURVES_OPTIONS['min_count'][1]})",
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
        value = next(it, None) if tok == "--grid" else None
        out.append(tok if value is None else f"--grid={value}")
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
    except (SepscopeError, ValueError, OSError) as exc:
        print(f"sepscope: error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
