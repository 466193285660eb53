"""CLI tests: exit codes, manifests, digests, and byte determinism.

Everything runs in-process through ``main(argv)`` so coverage tools and
monkeypatching see the same module state as the tests.
"""

import csv
import hashlib
import json
import math
import re

import numpy as np
import pytest

import sepscope.cli as cli
import sepscope.estimator as estimator
import sepscope.sepfun as sepfun
import sepscope.verify as verify
from sepscope.cli import _load_desf, main
from sepscope.errors import QuadratureError
from sepscope.estimator import estimate_desf, estimate_sep_probability
from sepscope.quadrature import QuadratureResult
from sepscope.sampling import SequenceSpec
from sepscope.sepfun import eval_desf_array, jacobian_xi


def _read_csv_payload(text):
    """Split a CSV emission into (manifest, data string, data rows)."""
    lines = text.split("\n")
    assert lines[0].startswith("# sepscope ")
    assert lines[1].startswith("# manifest: ")
    manifest = json.loads(lines[1][len("# manifest: "):])
    data = "\n".join(lines[2:])
    digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
    assert digest == manifest["output_sha256"]
    body = [ln for ln in lines[2:] if ln and not ln.startswith("#")]
    reader = csv.reader(body)
    header = next(reader)
    rows = [dict(zip(header, row)) for row in reader]
    return manifest, data, rows


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _read_json_payload(text):
    payload = json.loads(text, parse_constant=_refuse_constant)
    canonical = json.dumps(
        payload["data"], sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == payload["manifest"]["output_sha256"]
    return payload["manifest"], payload["data"]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_csv_digest_and_rows(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--tol", "1e-8", "--out", str(out)]) == 0
    manifest, _, rows = _read_csv_payload(out.read_text())
    assert manifest["tool"] == "sepscope"
    assert manifest["subcommand"] == "bounds"
    assert manifest["parameters"]["tol"] == 1e-8
    assert [r["tag"] for r in rows] == [
        "dom", "int", "three_right", "three_left", "two_right", "two_left",
        "conjecture", "previous", "product_int", "conjecture_sq_beta2",
    ]
    for r in rows:
        assert r["converged"] == "true"
        limit = 1e-5 if r["tag"] in ("product_int", "conjecture_sq_beta2") else 1e-7
        assert float(r["abs_diff"]) < limit
    dom = rows[0]
    assert float(dom["ref_value"]) == pytest.approx(1024 / (135 * math.pi**2))
    assert float(dom["half"]) == pytest.approx(float(dom["value"]) / 2, abs=1e-15)


def test_bounds_json_digest(tmp_path):
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--tol", "1e-6", "--format", "json",
                 "--out", str(out)]) == 0
    manifest, data = _read_json_payload(out.read_text())
    assert manifest["version"] == cli.__version__
    assert len(data["rows"]) == 10
    assert data["rows"][1]["tag"] == "int"
    assert data["rows"][1]["ref_value"] == pytest.approx(22 / 35)


def test_bounds_reports_unconverged_beta2_row(tmp_path, monkeypatch):
    """A beta=2 quadrature that misses its tolerance is a row with its best
    estimate and converged=false, not an aborted table."""

    def gives_up(tol):
        raise QuadratureError("budget spent", result=QuadratureResult(0.25, 1e-3, 30))

    monkeypatch.setattr(cli, "complex_speculation_probability", gives_up)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--tol", "1e-6", "--out", str(out)]) == 0
    _, _, rows = _read_csv_payload(out.read_text())
    assert [r["converged"] for r in rows] == ["true"] * 9 + ["false"]
    assert rows[-1]["tag"] == "conjecture_sq_beta2"
    assert (rows[-1]["value"], rows[-1]["evals"]) == ("0.25", "30")


def test_repeat_invocations_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--tol", "1e-6", "--out", str(a)]) == 0
    assert main(["bounds", "--tol", "1e-6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_PINNED_OUTPUTS = {
    "est.json": "367d4a8df428ac41cd65f3e1270a33c0c4471953520bd1adbbd57e662b5dd6fc",
    "est.csv": "9be0d908b7310bdeb45de7146f65fafd7e255618a2bf0bbb36ad3e1ed84cec50",
    "hist.csv": "5695e829d1e212cf204d62f023de976c7eae8eac18ebb18cc2d1f9cb392934ce",
    "hist.json": "031c51609f86fcf41364b7ac167718a330d44e7496b8c8f6651c50214e0ba647",
    "curves.csv": "d641496ec462ea1c31b381a3c7d0b831d0447858de1213bf7bd44fff2be20327",
    "curves.json": "816a8ac554a872360654b72aeefeca855286ac29d8a726876034e8d9015e0c00",
    "res.csv": "030b1dde3123129ab454a097afabc1901fb11630bbc21d9f7153f44dfd0b1851",
    "res.json": "1955ef4f29d8de26cb033aed9c0c0c0f6d4e2c7e4fe25da23ff2c83f01b681e2",
}


def test_outputs_are_pinned(tmp_path):
    """The whole output file of each artifact-writing subcommand, in both
    formats, is pinned by its sha256: a refactor of the envelope (title,
    manifest, digest, data) must not move a byte.  ``bounds`` and
    ``--beta 2`` are left out, because their last ulp depends on the
    Gauss-Jacobi nodes."""
    hist = ["desf", "--engine", "prng", "--n", "30000", "--seed", "7", "--bins", "11"]
    est = ["estimate", "--engine", "prng", "--n", "20000", "--seed", "5"]
    runs = {
        "est.json": est,
        "est.csv": est + ["--format", "csv"],
        "hist.csv": hist,
        "hist.json": hist + ["--format", "json"],
        "curves.csv": ["curves", "--grid", "-3:3:61"],
        "curves.json": ["curves", "--grid", "-3:3:61", "--format", "json"],
        "res.csv": ["curves", "--residual", str(tmp_path / "hist.csv"),
                    "--tags", "conjecture"],
        "res.json": ["curves", "--residual", str(tmp_path / "hist.csv"),
                     "--tags", "conjecture", "--format", "json"],
    }
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == _PINNED_OUTPUTS


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_defaults_to_json_and_matches_library(tmp_path, capsys):
    out = tmp_path / "est.json"
    assert main(["estimate", "--n", "50000", "--seed", "5",
                 "--out", str(out)]) == 0
    assert "wall time" in capsys.readouterr().err
    manifest, data = _read_json_payload(out.read_text())
    spec = SequenceSpec("pseudo_random", 5, dimension=9)
    assert manifest["sequence"] == spec.to_dict()
    assert "workers" not in manifest["parameters"]
    res = estimate_sep_probability(spec, 50_000)
    assert data["target"] == "sep"
    assert data["mean"] == res.mean
    assert data["stderr"] == res.stderr
    assert data["n_effective"] == res.n_effective
    assert data["n_total"] == 50_000
    assert data["replicates"] == 1
    assert data["ci95_lo"] == res.ci95[0] and data["ci95_hi"] == res.ci95[1]
    assert 0.3 < data["mean"] < 0.6


def test_estimate_csv_format(tmp_path):
    out = tmp_path / "est.csv"
    assert main(["estimate", "--n", "20000", "--seed", "5", "--format", "csv",
                 "--out", str(out)]) == 0
    _, _, rows = _read_csv_payload(out.read_text())
    assert len(rows) == 1 and rows[0]["target"] == "sep"


def test_estimate_lds_reports_replicates(tmp_path):
    out = tmp_path / "lds.json"
    assert main(["estimate", "--n", "40000", "--engine", "lds", "--seed", "3",
                 "--out", str(out)]) == 0
    _, data = _read_json_payload(out.read_text())
    assert data["replicates"] == 8
    assert len(data["replicate_means"]) == 8


@pytest.mark.parametrize("argv, notes", [
    (["--n", "20003", "--replicates", "4"],
     ["note: n=20003 does not split evenly into 4 replicates; "
      "3 points dropped (n_total=20000)"]),
    (["--n", "40000", "--engine", "lds"],
     ["note: each lds replicate reads 5000 points, not a power of two, "
      "so its Sobol points lose their balance properties"]),
    (["--n", str(8 * 2**12), "--engine", "lds"], []),
], ids=["dropped-points", "unbalanced-sobol", "power-of-two"])
def test_estimate_notes_replicate_splits(tmp_path, capsys, argv, notes):
    """A split that drops points or unbalances a Sobol replicate says so on
    stderr, one line each."""
    out = tmp_path / "est.json"
    assert main(["estimate", *argv, "--seed", "3", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "wall time" in err
    assert [line for line in err.splitlines() if line.startswith("note: ")] == notes
    _, data = _read_json_payload(out.read_text())
    assert data["n_total"] == int(argv[1]) // data["replicates"] * data["replicates"]


def test_worker_count_is_invisible_in_output(tmp_path, monkeypatch):
    monkeypatch.setattr(estimator, "BATCH_SIZE", 4096)
    p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(["estimate", "--n", "20000", "--seed", "9", "--workers", "1",
                 "--out", str(p1)]) == 0
    assert main(["estimate", "--n", "20000", "--seed", "9", "--workers", "4",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_multi_batch_outputs_are_byte_identical_across_workers(tmp_path):
    n = str(3 * (1 << 20) + 17)  # spans four batches
    digests = {}
    for sub, extra in (("estimate", ["--n", n]),
                       ("desf", ["--n", n, "--bins", "61"])):
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"{sub}_w{w}.out"
            code = main([sub, *extra, "--seed", "777",
                         "--workers", str(w), "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        digests[sub] = outs[0] == outs[1] == outs[2]
    assert all(digests.values()), (
        f"byte-identical outputs across 1/2/8 workers at n={n}: "
        f"estimate={'yes' if digests['estimate'] else 'NO'}, "
        f"histogram={'yes' if digests['desf'] else 'NO'}"
    )


# ---------------------------------------------------------------------------
# desf + curves --residual roundtrip
# ---------------------------------------------------------------------------


def test_desf_roundtrip_and_residuals(tmp_path, capsys):
    hist_path = tmp_path / "hist.csv"
    argv = ["desf", "--n", "200000", "--seed", "2024", "--bins", "61",
            "--ximax", "6.0", "--out", str(hist_path)]
    assert main(argv) == 0
    manifest, _, rows = _read_csv_payload(hist_path.read_text())
    assert manifest["subcommand"] == "desf"
    assert len(rows) == 61

    # the CSV round-trips to the exact histogram the library produced
    spec = SequenceSpec("pseudo_random", 2024, dimension=9)
    direct = estimate_desf(spec, 200_000, bins=61, ximax=6.0)
    loaded = _load_desf(str(hist_path))
    assert np.array_equal(loaded.bin_edges, direct.bin_edges)
    assert np.array_equal(loaded.n_psd, direct.n_psd)
    assert np.array_equal(loaded.n_sep, direct.n_sep)
    assert loaded.n_psd_outside == direct.n_psd_outside
    assert loaded.n_sep_outside == direct.n_sep_outside
    assert loaded.n_total == direct.n_total

    def residual_summary(tag):
        out = tmp_path / f"res_{tag}.csv"
        code = main(["curves", "--residual", str(hist_path), "--tags", tag,
                     "--min-count", "20", "--out", str(out)])
        assert code == 0
        _, data, _ = _read_csv_payload(out.read_text())
        summary = next(
            ln for ln in data.split("\n") if ln.startswith("# summary:")
        )
        fields = dict(
            part.split("=") for part in summary[len("# summary:"):].split()
        )
        return {k: float(v) for k, v in fields.items()}

    good = residual_summary("conjecture")
    wrong = residual_summary("int")
    assert good["used"] + good["skipped"] == 61
    assert good["max_abs_z"] < 4.0
    assert wrong["max_abs_z"] > 10.0


def test_desf_json_payload(tmp_path):
    out = tmp_path / "hist.json"
    assert main(["desf", "--n", "30000", "--bins", "11", "--format", "json",
                 "--out", str(out)]) == 0
    _, data = _read_json_payload(out.read_text())
    assert len(data["bin_edges"]) == 12
    assert len(data["n_psd"]) == 11
    assert data["n_total"] == 30_000
    total = sum(data["n_psd"]) + data["n_psd_outside"]
    assert 0 < total < 30_000


def test_residual_json_writes_non_finite_values_as_null(tmp_path):
    """Skipped bins (NaN) and flat-reference bins (an infinite z-score) are
    written as null, so a strict JSON parser reads the residual table."""
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--bins", "11", "--seed", "1",
                 "--out", str(hist_path)]) == 0
    out = tmp_path / "res.json"
    assert main(["curves", "--residual", str(hist_path), "--tags", "two_left",
                 "--format", "json", "--out", str(out)]) == 0
    _, data = _read_json_payload(out.read_text())
    hist = _load_desf(str(hist_path))
    cmp_ = cli.compare_curves(hist, eval_desf_array("two_left", hist.xi_mid))
    assert cmp_.n_skipped > 0 and np.isinf(cmp_.zscore).any()
    for key in ("residual", "sigma", "zscore"):
        want = [v if math.isfinite(v) else None for v in getattr(cmp_, key).tolist()]
        assert data[key] == want
    assert data["max_abs_z"] is None
    assert data["n_skipped"] == cmp_.n_skipped


def test_residual_may_overwrite_its_histogram(tmp_path):
    """``curves --residual H --out H`` reads the histogram before it opens
    the output, so it writes the residual table it would write elsewhere."""
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--bins", "11", "--seed", "1",
                 "--out", str(hist_path)]) == 0
    elsewhere = tmp_path / "res.csv"
    argv = ["curves", "--residual", str(hist_path), "--tags", "conjecture", "--out"]
    assert main(argv + [str(elsewhere)]) == 0
    assert main(argv + [str(hist_path)]) == 0
    assert hist_path.read_bytes() == elsewhere.read_bytes()


def test_residual_needs_exactly_one_tag(tmp_path):
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--out", str(hist_path)]) == 0
    assert main(["curves", "--residual", str(hist_path)]) == 3
    assert main(["curves", "--residual", str(hist_path),
                 "--tags", "dom,int"]) == 3


@pytest.mark.parametrize("tag", ["nope", "empirical", "jacobian"])
def test_residual_unknown_tag_is_a_usage_error(tmp_path, capsys, tag):
    """Residual mode accepts the closed-form tags only, and refuses any
    other tag as table mode does, before reading the histogram."""
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--bins", "11", "--out", str(hist_path)]) == 0
    capsys.readouterr()
    assert main(["curves", "--residual", str(hist_path), "--tags", tag]) == 2
    assert f"unknown curve tag {tag!r}" in capsys.readouterr().err


@pytest.mark.parametrize("min_count", ["0", "-3"])
def test_residual_min_count_below_one_is_a_numeric_error(tmp_path, capsys, min_count):
    """An empty bin has no ratio, so a threshold that admits one is refused
    rather than summarized as nan."""
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--bins", "11", "--out", str(hist_path)]) == 0
    capsys.readouterr()
    assert main(["curves", "--residual", str(hist_path), "--tags", "conjecture",
                 f"--min-count={min_count}"]) == 3
    assert "min_count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("n, notes", [
    ("20000", ["note: each lds replicate reads 20000 points, not a power of two, "
               "so its Sobol points lose their balance properties"]),
    ("16384", []),
], ids=["unbalanced-sobol", "power-of-two"])
def test_desf_lds_notes_unbalanced_sobol(tmp_path, capsys, n, notes):
    out = tmp_path / "hist.csv"
    assert main(["desf", "--engine", "lds", "--n", n, "--bins", "11",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "wall time" in err
    assert [line for line in err.splitlines() if line.startswith("note: ")] == notes


def _resealed(text, data):
    """``text``'s first two lines with the digest recomputed for ``data``."""
    title, man_line = text.split("\n")[:2]
    manifest = json.loads(man_line[len("# manifest: "):])
    manifest["output_sha256"] = hashlib.sha256(data.encode("utf-8")).hexdigest()
    return f"{title}\n# manifest: {cli._canonical(manifest)}\n{data}"


@pytest.mark.parametrize("case", ["header_only", "short_row", "cut", "no_outside"])
def test_residual_rejects_truncated_histogram(tmp_path, capsys, case):
    """A truncated histogram is a validation error (exit 3), not a crash.
    The first two cases carry a digest that matches, so the row checks
    themselves are exercised."""
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--bins", "11", "--out", str(hist_path)]) == 0
    text = hist_path.read_text()
    lines = text.split("\n")
    header = next(i for i, ln in enumerate(lines) if ln.startswith("bin_lo,"))
    if case == "header_only":
        bad = _resealed(text, "\n".join(lines[2:header + 1]) + "\n")
        message = "no data rows"
    elif case == "short_row":
        lines[header + 3] = ",".join(lines[header + 3].split(",")[:3])
        bad = _resealed(text, "\n".join(lines[2:]))
        message = "columns"
    elif case == "cut":
        bad = text[: len(text) // 2]
        message = "digest"
    else:
        assert lines[2].startswith("# outside: ")
        bad = _resealed(text, "\n".join(lines[3:]))
        message = "lacks the histogram fields n_psd_outside, n_sep_outside, n_total"
    hist_path.write_text(bad)
    capsys.readouterr()
    assert main(["curves", "--residual", str(hist_path), "--tags", "conjecture"]) == 3
    assert message in capsys.readouterr().err


def test_residual_rejects_tampered_histogram(tmp_path, capsys):
    """Changing one stored count, or dropping or garbling the manifest, fails
    the digest check: the tampered counts are never z-scored."""
    hist_path = tmp_path / "hist.csv"
    assert main(["desf", "--n", "20000", "--bins", "11", "--out", str(hist_path)]) == 0
    text = hist_path.read_text()
    lines = text.split("\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith("bin_lo,")) + 6
    cells = lines[k].split(",")
    cells[3] = str(int(cells[3]) + 1)  # n_psd of the central bin
    lines[k] = ",".join(cells)
    for bad in ("\n".join(lines), "\n".join(lines[:1] + lines[2:]),
                "\n".join(lines[:1] + ["# manifest: []"] + lines[2:])):
        hist_path.write_text(bad)
        capsys.readouterr()
        code = main(["curves", "--residual", str(hist_path), "--tags", "conjecture"])
        assert code == 3
        assert "manifest" in capsys.readouterr().err


def _desf_pair(tmp_path):
    """One desf run, written as CSV and as JSON."""
    argv = ["desf", "--n", "20000", "--seed", "11", "--bins", "11"]
    csv_path, json_path = tmp_path / "hist.csv", tmp_path / "hist.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    return csv_path, json_path


def test_residual_reads_json_histogram(tmp_path):
    """The JSON and CSV of one desf run load to equal histograms, and the
    residual tables computed from them carry the same data."""
    csv_path, json_path = _desf_pair(tmp_path)
    a, b = _load_desf(str(csv_path)), _load_desf(str(json_path))
    for field in ("bin_edges", "n_psd", "n_sep"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.n_psd_outside, a.n_sep_outside, a.n_total) == (
        b.n_psd_outside, b.n_sep_outside, b.n_total
    )
    digests = []
    for path in (csv_path, json_path):
        out = tmp_path / f"res_{path.suffix[1:]}.json"
        assert main(["curves", "--residual", str(path), "--tags", "conjecture",
                     "--format", "json", "--out", str(out)]) == 0
        digests.append(_read_json_payload(out.read_text())[0]["output_sha256"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("case, message", [
    ("count", "digest"),
    ("short_edges", "11 bin edges for 11 n_psd and 11 n_sep counts"),
    ("missing_field", "lacks the histogram fields n_total"),
    ("not_desf", "'curves' artifact, not a desf histogram"),
    ("small_total", "n_total is below the positives"),
])
def test_residual_rejects_bad_json_histogram(tmp_path, capsys, case, message):
    """A JSON histogram gets the CSV reader's checks: a count changed under
    a stale digest, and (resealed, so the digest matches) a missing bin
    edge, a missing field, another subcommand's manifest or an ``n_total``
    below the positives counted, each exit 3."""
    _, json_path = _desf_pair(tmp_path)
    payload = json.loads(json_path.read_text())
    data = payload["data"]
    if case == "count":
        data["n_psd"][5] += 1
    else:
        if case == "short_edges":
            data["bin_edges"].pop()
        elif case == "missing_field":
            del data["n_total"]
        elif case == "small_total":
            data["n_total"] = 5
        else:
            payload["manifest"]["subcommand"] = "curves"
        payload["manifest"]["output_sha256"] = hashlib.sha256(
            cli._canonical(data).encode("utf-8")
        ).hexdigest()
    json_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["curves", "--residual", str(json_path), "--tags", "conjecture"]) == 3
    assert message in capsys.readouterr().err


def _swapped(edges):
    return edges[:3] + edges[4:5] + edges[3:4] + edges[5:]


@pytest.mark.parametrize("field, value, message", [
    ("n_total", None, "n_total must hold non-negative integer counts"),
    ("n_psd", [{}] * 11, "n_psd must hold non-negative integer counts"),
    ("n_psd", [1.5] * 11, "n_psd must hold non-negative integer counts"),
    ("n_sep_outside", True, "n_sep_outside must hold non-negative integer counts"),
    ("n_psd_outside", -1, "n_psd_outside must hold non-negative integer counts"),
    ("n_sep", lambda d: [p + 1 for p in d["n_psd"]], "an n_sep count exceeds"),
    ("bin_edges", [None] * 12, "bin_edges must be a list of numbers"),
    ("bin_edges", lambda d: _swapped(d["bin_edges"]),
     "bin_edges must be finite and strictly increasing"),
    ("bin_edges", lambda d: [-math.inf] + d["bin_edges"][1:],
     "bin_edges must be finite and strictly increasing"),
], ids=["null-total", "object-counts", "fractional-counts", "bool-count",
        "negative-count", "sep-exceeds-psd", "null-edges", "unsorted-edges",
        "infinite-edge"])
def test_residual_rejects_ill_typed_json_histogram(tmp_path, capsys, field, value,
                                                   message):
    """A resealed JSON histogram whose fields have the wrong type or break
    the count and edge invariants exits 3 with a message naming the field,
    rather than crashing or being silently coerced."""
    _, json_path = _desf_pair(tmp_path)
    payload = json.loads(json_path.read_text())
    data = payload["data"]
    data[field] = value(data) if callable(value) else value
    payload["manifest"]["output_sha256"] = hashlib.sha256(
        cli._canonical(data).encode("utf-8")
    ).hexdigest()
    json_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["curves", "--residual", str(json_path), "--tags", "conjecture"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [("n_psd", "1.5"), ("n_sep", "-2")])
def test_residual_rejects_ill_typed_csv_histogram(tmp_path, capsys, column, value):
    """The CSV reader names the column of a count that is not a
    non-negative integer."""
    csv_path, _ = _desf_pair(tmp_path)
    text = csv_path.read_text()
    lines = text.split("\n")
    header = next(i for i, ln in enumerate(lines) if ln.startswith("bin_lo,"))
    k = lines[header].split(",").index(column)
    cells = lines[header + 4].split(",")
    cells[k] = value
    lines[header + 4] = ",".join(cells)
    csv_path.write_text(_resealed(text, "\n".join(lines[2:])))
    capsys.readouterr()
    assert main(["curves", "--residual", str(csv_path), "--tags", "conjecture"]) == 3
    assert f"{column} must hold non-negative integer counts" in capsys.readouterr().err


def test_residual_names_a_malformed_outside_entry(tmp_path, capsys):
    """An entry of the ``# outside:`` line without ``=`` is reported by the
    line and the entry, not as a Python unpacking error."""
    csv_path, _ = _desf_pair(tmp_path)
    text = csv_path.read_text()
    lines = text.split("\n")
    assert lines[2].startswith("# outside: ") and " n_total=20000" in lines[2]
    lines[2] = lines[2].replace(" n_total=", " n_total")
    csv_path.write_text(_resealed(text, "\n".join(lines[2:])))
    capsys.readouterr()
    assert main(["curves", "--residual", str(csv_path), "--tags", "conjecture"]) == 3
    err = capsys.readouterr().err
    assert "cannot read 'n_total20000' on the '# outside:' line" in err


def test_residual_rejects_a_bin_hi_off_the_next_bin_lo(tmp_path, capsys):
    """``desf`` prints ``bin_lo`` and ``bin_hi`` from one edge array, so each
    row's ``bin_hi`` is the next row's ``bin_lo``; a file where one is not
    exits 3 naming ``bin_hi``."""
    csv_path, _ = _desf_pair(tmp_path)
    text = csv_path.read_text()
    lines = text.split("\n")
    header = next(i for i, ln in enumerate(lines) if ln.startswith("bin_lo,"))
    cells = lines[header + 3].split(",")
    cells[1] = "9.5"
    lines[header + 3] = ",".join(cells)
    csv_path.write_text(_resealed(text, "\n".join(lines[2:])))
    capsys.readouterr()
    assert main(["curves", "--residual", str(csv_path), "--tags", "conjecture"]) == 3
    assert "a row's bin_hi is not the next row's bin_lo" in capsys.readouterr().err


def test_residual_evaluates_the_curve_once(tmp_path, monkeypatch):
    """Residual mode evaluates its curve at the bin midpoints once, and the
    same values feed the comparison and the ``ref`` column."""
    csv_path, _ = _desf_pair(tmp_path)
    calls = []

    def counted(branch):
        def call(x):
            calls.append(len(x))
            return branch(x)
        return call

    pos, neg, at_zero = sepfun._CURVES["conjecture"]
    monkeypatch.setitem(sepfun._CURVES, "conjecture", (counted(pos), counted(neg), at_zero))
    out = tmp_path / "res.csv"
    assert main(["curves", "--residual", str(csv_path), "--tags", "conjecture",
                 "--out", str(out)]) == 0
    assert calls == [5, 5]  # one positive and one negative branch call


def test_residual_refuses_a_bounds_artifact(tmp_path, capsys):
    """A well-formed artifact of another subcommand is not a histogram."""
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--tol", "1e-6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["curves", "--residual", str(out), "--tags", "conjecture"]) == 3
    assert "'bounds' artifact, not a desf histogram" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_curves_wide_table(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--tags", "dom,int", "--grid", "-3:3:601",
                 "--out", str(out)]) == 0
    _, data, rows = _read_csv_payload(out.read_text())
    assert data.split("\n")[0] == "xi,dom,int"
    assert len(rows) == 601
    xi = np.array([float(r["xi"]) for r in rows])
    assert np.array_equal(xi, np.linspace(-3, 3, 601))
    dom = np.array([float(r["dom"]) for r in rows])
    upper = np.array([float(r["int"]) for r in rows])
    assert np.all(upper <= dom + 1e-13)


def test_curves_default_tags_and_intercepts(capsys):
    assert main(["curves", "--grid", "0:0:1"]) == 0
    text = capsys.readouterr().out
    _, data, rows = _read_csv_payload(text)
    header = data.split("\n")[0].split(",")
    assert header[0] == "xi" and header[-1] == "jacobian"
    assert len(header) == 11  # xi + nine curves + jacobian
    row = rows[0]
    for tag in ("dom", "int", "conjecture", "previous"):
        assert float(row[tag]) == eval_desf_array(tag, 0.0)
    assert float(row["jacobian"]) == jacobian_xi(0.0)


def test_curves_general_beta_column(tmp_path):
    out = tmp_path / "jac2.csv"
    assert main(["curves", "--tags", "jacobian", "--beta", "2",
                 "--grid", "-1:1:5", "--out", str(out)]) == 0
    _, _, rows = _read_csv_payload(out.read_text())
    vals = [float(r["jacobian"]) for r in rows]
    assert vals[0] == pytest.approx(vals[-1], rel=1e-12)  # even in xi
    assert vals[2] == max(vals)
    # mixing beta with the real-ensemble closed forms is refused
    assert main(["curves", "--tags", "dom", "--beta", "2"]) == 3


def test_unknown_curve_tag_is_a_usage_error(capsys):
    assert main(["curves", "--tags", "nope"]) == 2
    assert "unknown curve tag" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_repeated_curve_tag_is_a_usage_error(capsys, fmt):
    """A JSON table keys its columns by tag, so a repeated tag would give
    the two formats different columns: it is refused in both."""
    assert main(["curves", "--tags", "dom,int,dom", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert "curve tag 'dom' is given twice" in captured.err
    assert captured.out == ""


def test_bad_grid_is_a_numeric_error():
    assert main(["curves", "--grid", "1:0:5"]) == 3
    assert main(["curves", "--grid", "a:b:c"]) == 3
    assert main(["curves", "--grid", "0:1"]) == 3


# ---------------------------------------------------------------------------
# exit codes / misc plumbing
# ---------------------------------------------------------------------------


def test_numeric_errors_exit_3(capsys):
    assert main(["estimate", "--n", "0"]) == 3
    assert main(["estimate", "--n", "100", "--workers", "0"]) == 3
    assert main(["desf", "--n", "100", "--bins", "1"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["curves", "--residual", "{tmp}/missing.csv", "--tags", "conjecture"],
    ["bounds", "--tol", "1e-6", "--out", "{tmp}/nodir/x.csv"],
    ["verify", "--out", "{tmp}/nodir/report.txt"],
    ["desf", "--engine", "lds", "--n", "1048576", "--bins", "41",
     "--out", "{tmp}/nodir/x.csv"],
    ["estimate", "--engine", "prng", "--n", "1048576", "--out", "{tmp}/nodir/x.json"],
], ids=["unreadable-residual", "unwritable-out", "unwritable-verify-report",
        "unwritable-desf", "unwritable-estimate"])
def test_os_errors_exit_3(tmp_path, capsys, monkeypatch, argv):
    """A path that cannot be read or written is a defined error, not a
    traceback; ``verify``, ``desf`` and ``estimate`` find their output path
    bad before any check runs or any point is sampled."""

    def never(*args, **kwargs):
        raise AssertionError("work ran before --out was opened")

    monkeypatch.setattr(verify, "run_checks", never)
    monkeypatch.setattr(cli, "estimate_desf", never)
    monkeypatch.setattr(cli, "estimate_sep_probability", never)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("sepscope: error: ") and "No such file" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_bounds_bad_tol_exits_3(capsys, tol):
    """A tolerance that is not positive and finite is refused before any
    row is integrated."""
    assert main(["bounds", f"--tol={tol}"]) == 3
    assert "tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
@pytest.mark.parametrize("tags", [["dom"], ["jacobian", "--beta", "2"]],
                         ids=["closed-form", "beta2"])
def test_curves_bad_tol_exits_3(capsys, tags, tol):
    """``curves`` checks ``--tol`` on every call, not only when a ``--beta``
    column uses it, so no manifest ever records a NaN tolerance."""
    argv = ["curves", "--grid", "0:1:2", "--tags", *tags, f"--tol={tol}",
            "--format", "json"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "tol must be positive and finite" in err


@pytest.mark.parametrize("beta,message", [
    ("inf", "beta must be positive and finite"),
    ("nan", "beta must be positive and finite"),
    ("1e6", "not finite at beta=1000000.0"),
], ids=["inf", "nan", "1e6"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_curves_bad_beta_exits_3(capsys, beta, message):
    """A beta too large for the slice rule is one error, with no numpy
    warning before it."""
    assert main(["curves", "--grid", "0:1:2", "--tags", "jacobian",
                 f"--beta={beta}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("sepscope: error: ") and message in err


def test_unscrambled_replicates_exit_3(capsys):
    """Replicates of an unscrambled net would all read the same points."""
    assert main(["estimate", "--engine", "lds", "--no-scramble", "--n", "65536",
                 "--replicates", "4"]) == 3
    assert "unscrambled" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "sepscope" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify wiring
# ---------------------------------------------------------------------------


def _stub_checks(monkeypatch, *outcomes):
    rows = [
        verify.Check(f"stub-{k}", "quick", lambda workers, ok=ok: (ok, f"ok={ok}"))
        for k, ok in enumerate(outcomes)
    ]
    monkeypatch.setattr(verify, "CHECKS", rows + [
        verify.Check("stub-full", "full", lambda workers: (False, "not run"))
    ])


def test_verify_passing_run(tmp_path, capsys, monkeypatch):
    """Report lines carry no timing, so two runs write identical reports;
    each check's duration goes to stderr."""
    _stub_checks(monkeypatch, True, True)
    reports = []
    for k in range(2):
        report = tmp_path / f"report{k}.txt"
        assert main(["verify", "--level", "quick", "--out", str(report)]) == 0
        reports.append(report.read_bytes())
        captured = capsys.readouterr()
        assert captured.out == "[PASS] stub-0: ok=True\n[PASS] stub-1: ok=True\n"
        for name in ("stub-0", "stub-1"):
            assert re.search(rf"^{name}: \d+\.\d\d s$", captured.err, re.M)
        assert "2/2 checks passed" in captured.err
    assert reports[0] == reports[1] == b"[PASS] stub-0: ok=True\n[PASS] stub-1: ok=True\n"


def test_verify_failure_exits_4(capsys, monkeypatch):
    _stub_checks(monkeypatch, True, False)
    assert main(["verify"]) == 4
    captured = capsys.readouterr()
    assert "[FAIL] stub-1: ok=False" in captured.out
    assert "1/2 checks passed" in captured.err
