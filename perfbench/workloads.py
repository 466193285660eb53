"""The benchmark's workloads: the operations each one runs, and their gates.

A workload turns a seed into a fixed list of operations.  Every operation
is one fresh ``perfbench/child.py`` process that writes one output file, and
its gate checks that file: the digest in the manifest is recomputed, the
manifest must name the requested parameters, and the values must sit
within the same statistical bounds that ``sepscope verify`` applies
(|z| <= 5 at the quick level), never looser.  A gate returns the output's
digest, which the runner compares across cycles of one run, and the number
of effective samples (those that passed positivity).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

#: Points per estimator batch; sampling budgets are whole batches.
BATCH = 1 << 20
#: Worker threads for the sampling operations: one batch per worker.
WORKERS = 2
Z_MAX = 5.0

REF_DESF_INTERCEPT = 135.0 * math.pi**2 / 2176.0
#: The "conjecture" curve at xi = 0, the centre of an odd bin count.
CONJECTURE_AT_ZERO = 0.6166996768563984

_PI2 = math.pi**2
#: Closed-form integrals of each curve against the xi density.  The product
#: curve's reference is a 6-digit literature value, so its row is held to
#: half a unit in that last digit; the beta = 2 row is computed by the CLI
#: at max(tol, 1e-10).
BOUND_REFS = {
    "dom": (1024.0 / (135.0 * _PI2), None),
    "int": (22.0 / 35.0, None),
    "three_right": (128.0 / 165.0, None),
    "three_left": (128.0 / 165.0, None),
    "two_right": (0.5 + 512.0 / (135.0 * _PI2), None),
    "two_left": (0.5 + 512.0 / (135.0 * _PI2), None),
    "conjecture": (29.0 / 64.0, None),
    "previous": (8.0 / 17.0, None),
    "product_int": (0.576219, 5e-7),
    "conjecture_sq_beta2": (30660525.0 * math.pi**4 / 11811160064.0, 1e-10),
}

class GateError(Exception):
    """An output failed its correctness gate."""


@dataclass(frozen=True)
class Checked:
    digest: str
    n_effective: int = 0


@dataclass(frozen=True)
class Op:
    """One operation: ``child.py`` arguments, its output file and its gate."""

    name: str
    argv: tuple
    out: str
    gate: Callable[[str], Checked]


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple  # layers whose spans the traced run must record
    ops: Callable[[int, str, int], list]  # (seed, work dir, workers) -> ops


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _check_manifest(man: dict, subcommand: str, params: dict, sequence: dict,
                    sha: str) -> None:
    _require(man.get("tool") == "sepscope" and man.get("subcommand") == subcommand,
             f"manifest is not a sepscope {subcommand} manifest")
    for section, wanted in (("parameters", params), ("sequence", sequence)):
        for key, want in wanted.items():
            got = man[section].get(key)
            _require(got == want, f"manifest {key}={got!r}, requested {want!r}")
    _require(man.get("output_sha256") == sha,
             "output_sha256 does not match the data it covers")


def read_json_artifact(path: str, subcommand: str, params: dict, sequence=None):
    """The manifest and data of a JSON output, after checking its digest."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    man, data = payload["manifest"], payload["data"]
    _check_manifest(man, subcommand, params, sequence or {}, _sha(_canonical(data)))
    return man, data


def read_csv_artifact(path: str, subcommand: str, params: dict, sequence=None):
    """The manifest and data section of a CSV output, after checking its digest."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    _, _, rest = text.partition("\n")
    man_line, _, data = rest.partition("\n")
    _require(man_line.startswith("# manifest: "), "no manifest line")
    man = json.loads(man_line[len("# manifest: "):])
    _check_manifest(man, subcommand, params, sequence or {}, _sha(data))
    return man, data


def _z(p_hat: float, ref: float, n: int) -> float:
    return (p_hat - ref) / math.sqrt(ref * (1.0 - ref) / n)


def _trapezoid(xs, ys) -> float:
    return math.fsum(0.5 * (xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i])
                     for i in range(len(xs) - 1))


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _desf_bins(data: str):
    outside = {}
    body = []
    for line in data.splitlines():
        if line.startswith("# outside:"):
            outside = dict(part.split("=") for part in line.split()[2:])
        elif line and not line.startswith("#"):
            body.append(line)
    return list(csv.DictReader(body)), {k: int(v) for k, v in outside.items()}


def _central(rows) -> int:
    return next(i for i, r in enumerate(rows)
                if float(r["bin_lo"]) <= 0.0 < float(r["bin_hi"]))


def desf_gate(n: int, bins: int, seed: int):
    def gate(path):
        man, data = read_csv_artifact(path, "desf", {"n": n, "bins": bins},
                                      {"seed": seed, "engine": "low_discrepancy"})
        rows, outside = _desf_bins(data)
        _require(len(rows) == bins, f"{len(rows)} bins, expected {bins}")
        _require(outside.get("n_total") == n, "outside line lacks n_total = n")
        for r in rows:
            _require(int(r["n_sep"]) <= int(r["n_psd"]),
                     f"n_sep > n_psd in bin at {r['xi_mid']}")
        c = rows[_central(rows)]
        z = _z(int(c["n_sep"]) / int(c["n_psd"]), REF_DESF_INTERCEPT, int(c["n_psd"]))
        _require(abs(z) <= Z_MAX, f"central bin z = {z:+.2f}")
        n_eff = sum(int(r["n_psd"]) for r in rows) + outside["n_psd"]
        return Checked(man["output_sha256"], n_eff)
    return gate


def residual_gate(hist_path: str, bins: int):
    def gate(path):
        man, d = read_json_artifact(path, "curves", {
            "tags": ["conjecture"], "residual": os.path.basename(hist_path)})
        _require(len(d["residual"]) == bins, "residual length != bins")
        _require(d["n_used"] + d["n_skipped"] == bins and d["n_used"] >= 1,
                 "used/skipped bins do not add up")
        rows, _ = _desf_bins(read_csv_artifact(hist_path, "desf", {})[1])
        i = _central(rows)
        n_psd = int(rows[i]["n_psd"])
        want = int(rows[i]["n_sep"]) / n_psd - CONJECTURE_AT_ZERO
        _require(abs(d["residual"][i] - want) <= 1e-12,
                 f"central residual {d['residual'][i]} != {want}")
        z = _z(int(rows[i]["n_sep"]) / n_psd, CONJECTURE_AT_ZERO, n_psd)
        _require(abs(d["zscore"][i] - z) <= 1e-9 and abs(z) <= Z_MAX,
                 f"central z-score {d['zscore'][i]} (expected {z:+.2f})")
        return Checked(man["output_sha256"])
    return gate


def bounds_gate(tol: float):
    def gate(path):
        man, d = read_json_artifact(path, "bounds", {"tol": tol})
        rows = {r["tag"]: r for r in d["rows"]}
        _require(set(rows) == set(BOUND_REFS), f"bound rows {sorted(rows)}")
        for tag, (ref, row_tol) in BOUND_REFS.items():
            r = rows[tag]
            lim = max(tol, row_tol or 0.0)
            _require(r["converged"] is True, f"{tag}: not converged")
            _require(r["abs_diff"] <= lim and abs(r["value"] - ref) <= lim,
                     f"{tag}: {r['value']} vs {ref} (limit {lim:g})")
        return Checked(man["output_sha256"])
    return gate


def curves_gate(grid: str, tags: list, beta: float):
    count = int(grid.split(":")[2])

    def gate(path):
        man, d = read_json_artifact(path, "curves", {
            "tags": tags, "grid": grid, "beta": beta})
        xs = d["xi"]
        _require(len(xs) == count, f"{len(xs)} grid points, expected {count}")
        for tag in tags:
            ys = d[tag]
            _require(all(math.isfinite(y) for y in ys), f"{tag}: non-finite value")
            if tag == "jacobian":
                _require(min(ys) > 0.0, "density not positive")
                mass = _trapezoid(xs, ys)
                _require(abs(mass - 1.0) <= 1e-5, f"density integrates to {mass}")
                worst = max(abs(a - b) / a for a, b in zip(ys, reversed(ys)))
                _require(worst <= 1e-9, f"density asymmetric (rel {worst:.1e})")
            else:
                _require(0.0 <= min(ys) and max(ys) <= 1.0, f"{tag} outside [0, 1]")
        return Checked(man["output_sha256"])
    return gate


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _seeds(seed: int, salt: str, k: int):
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(k)]


def _desf_lds(seed, work, workers):
    n, bins = WORKERS * BATCH, 401
    (s,) = _seeds(seed, "desf-lds", 1)
    hist = os.path.join(work, "H.csv")
    resid = os.path.join(work, "residual.json")
    return [
        Op("desf",
           ("cli", "desf", "--engine", "lds", "--n", str(n), "--bins", str(bins),
            "--seed", str(s), "--workers", str(workers), "--out", hist),
           hist, desf_gate(n, bins, s)),
        Op("curves-residual",
           ("cli", "curves", "--residual", hist, "--tags", "conjecture",
            "--format", "json", "--out", resid),
           resid, residual_gate(hist, bins)),
    ]


def _quad(seed, work, workers):
    rng = random.Random(f"quad:{seed}")
    tol = 1e-12
    half_wide, half_fine = 8.0 + 0.5 * rng.random(), 6.0 + 0.5 * rng.random()
    wide = f"{-half_wide!r}:{half_wide!r}:4001"
    fine = f"{-half_fine!r}:{half_fine!r}:12001"
    all_tags = list(CLOSED_FORM_TAGS) + ["jacobian"]
    paths = [os.path.join(work, f) for f in ("bounds.json", "beta2.json", "curves.json")]
    return [
        Op("bounds", ("cli", "bounds", "--tol", repr(tol), "--format", "json",
                      "--out", paths[0]),
           paths[0], bounds_gate(tol)),
        Op("curves-beta2", ("cli", "curves", "--tags", "jacobian", "--beta", "2",
                            "--grid", wide, "--format", "json", "--out", paths[1]),
           paths[1], curves_gate(wide, ["jacobian"], 2.0)),
        Op("curves-all", ("cli", "curves", "--grid", fine, "--format", "json",
                          "--out", paths[2]),
           paths[2], curves_gate(fine, all_tags, 1.0)),
    ]


#: The closed-form curve tags, in the order ``sepscope curves`` lists them.
CLOSED_FORM_TAGS = ("dom", "int", "three_right", "three_left", "two_right",
                    "two_left", "conjecture", "previous", "product_int")

# Why each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("desf-lds", ("sampling", "qstate", "estimator", "sepfun", "cli"),
             _desf_lds),
    Workload("quad", ("quadrature", "sepfun", "cli"), _quad),
)}
