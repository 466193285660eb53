"""End-to-end self checks wiring the analytic and sampling halves together.

``run_checks("quick")`` finishes in well under a minute and exercises every
cross-module identity at low sample counts; ``run_checks("full")`` repeats
the statistical comparisons at the sample sizes the published reference
values were verified at (minutes of CPU; honors ``workers``).

Each check prints one ``[PASS]``/``[FAIL]`` line through the supplied
``echo`` callable.  Sample-based checks run from frozen seeds, so a passing
level stays passing: there is no run-to-run flakiness to tolerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimator, quadrature, sampling, sepfun
from .qstate import is_separable, partial_transpose, werner

__all__ = ["CheckResult", "run_checks", "REFERENCES"]

#: Published statistical reference values (probabilities under the
#: Hilbert-Schmidt measure) reproduced by the full-level checks.
REFERENCES = {
    "sep_probability": 0.4528427,
    "abs_sep_probability": 0.0348338,
    "desf_intercept": 135.0 * math.pi**2 / 2176.0,
}

_XI_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_CHECKS = []


def _check(name, level="quick"):
    def deco(fn):
        _CHECKS.append((name, level, fn))
        return fn

    return deco


def _prng(seed, dimension=9):
    return sampling.SequenceSpec("pseudo_random", seed, dimension=dimension)


def _lds(seed, dimension=9):
    return sampling.SequenceSpec("low_discrepancy", seed, dimension=dimension)


# ---------------------------------------------------------------------------
# Analytic layer
# ---------------------------------------------------------------------------


@_check("jacobian-normalization")
def _chk_jacobian_norm(workers):
    res = quadrature.integrate_real_line(sepfun.jacobian_xi, 1e-12)
    err = abs(res.value - 1.0)
    return err <= 1e-11, f"integral of density = 1 {'+' if err else ''}{err:.2e}"


@_check("jacobian-series-overlap")
def _chk_series_overlap(workers):
    xs = np.linspace(0.02, 0.12, 401)
    near = sepfun.jacobian_xi(xs, series_cutoff=1.0)
    far = sepfun.jacobian_xi(xs, series_cutoff=1e-9)
    rel = float(np.max(np.abs(near - far) / far))
    return rel <= 1e-9, f"series vs direct max rel diff {rel:.2e} on [0.02, 0.12]"


@_check("jacobian-general-beta-matches-closed-form")
def _chk_general_beta(workers):
    xs = np.linspace(-3.0, 3.0, 121)
    gen = sepfun.jacobian_general_beta(1.0, xs, tol=1e-12)
    ref = sepfun.jacobian_xi(xs)
    rel = float(np.max(np.abs(gen - ref) / ref))
    return rel <= 1e-9, f"beta=1 quadrature vs closed form max rel diff {rel:.2e}"


@_check("bound-table")
def _chk_bounds(workers):
    rows = quadrature.bound_table(tol=1e-10)
    worst_tag, worst = None, -1.0
    for row in rows:
        tolr = 1e-5 if row.tag == "product_int" else 1e-8
        if row.diff > tolr:
            return False, f"{row.tag}: |value - ref| = {row.diff:.2e} > {tolr:g}"
        if row.diff > worst:
            worst_tag, worst = row.tag, row.diff
    return True, f"9 rows within tolerance (worst {worst_tag}: {worst:.2e})"


@_check("even-shortcut-consistency")
def _chk_even_shortcut(workers):
    worst = 0.0
    for tag in ("dom", "int", "conjecture", "previous", "product_int"):
        curve = sepfun.DesfCurve(tag)
        a = quadrature.separability_probability(curve, 1e-12, even_shortcut=True)
        b = quadrature.separability_probability(curve, 1e-12, even_shortcut=False)
        worst = max(worst, abs(a.value - b.value))
    return worst <= 1e-11, f"half-line doubling vs full line, max diff {worst:.2e}"


@_check("quadrature-error-estimate-valid")
def _chk_err_estimate(workers):
    worst = 0.0
    for tag in ("dom", "three_left", "product_int"):
        curve = sepfun.DesfCurve(tag)
        loose = quadrature.separability_probability(curve, 1e-6)
        tight = quadrature.separability_probability(curve, 1e-8)
        excess = abs(loose.value - tight.value) - (loose.abs_err_est + 1e-8)
        worst = max(worst, excess)
    ok = worst <= 0.0
    return ok, f"|loose - tight| - bound <= {worst:.2e} (must be <= 0)"


@_check("beta2-speculation")
def _chk_speculation(workers):
    res = quadrature.complex_speculation_probability(tol=1e-6)
    diff = abs(res.value - quadrature.SPECULATION_REF_VALUE)
    return diff <= 2e-6, f"|value - exact| = {diff:.2e} at tol 1e-6"


@_check("isotropic-mixture-threshold")
def _chk_werner(workers):
    for w in (0.0, 0.2, 1.0 / 3.0, 1.0 / 3.0 + 1e-9, 0.6, 1.0):
        want = w <= 1.0 / 3.0 + 1e-12
        if is_separable(werner(w)) != want:
            return False, f"separability flips at the wrong w = {w}"
        ev_min = float(np.linalg.eigvalsh(partial_transpose(werner(w)).matrix)[0])
        if abs(ev_min - (1.0 - 3.0 * w) / 4.0) > 1e-12:
            return False, f"PT minimum eigenvalue wrong at w = {w}"
    return True, "separable exactly up to w = 1/3; PT eigenvalue (1-3w)/4"


# ---------------------------------------------------------------------------
# Sampling layer
# ---------------------------------------------------------------------------


@_check("stream-skippability")
def _chk_skippable(workers):
    for spec in (_prng(101), _lds(101), _lds(101, dimension=6)):
        whole = sampling.next_points(spec, 1000)
        parts = np.vstack([
            sampling.next_points(spec, 137, 0),
            sampling.next_points(spec, 751, 137),
            sampling.next_points(spec, 112, 888),
        ])
        if not np.array_equal(whole, parts):
            return False, f"chunked != whole for {spec.engine}"
    return True, "chunked reads reproduce whole reads bit-for-bit"


@_check("low-discrepancy-spread")
def _chk_star_discrepancy(workers):
    n, d = 64, 3
    lds = sampling.next_points(_lds(7, dimension=d), n)
    prng = sampling.next_points(_prng(7, dimension=d), n)
    d_lds = sampling.star_discrepancy(lds)
    d_prng = sampling.star_discrepancy(prng)
    return d_lds < d_prng, f"star discrepancy {d_lds:.4f} (lds) vs {d_prng:.4f} (prng)"


@_check("diagonal-marginal-moments")
def _chk_beta_moments(workers):
    pts = sampling.next_points(_prng(202), 200_000)
    diag, _ = sampling.cube_to_bloore_batch(pts)
    x = diag[:, 0]
    n = x.size
    zm = (x.mean() - 0.25) / (x.std(ddof=1) / math.sqrt(n))
    x2 = x * x
    zv = (x2.mean() - 7.0 / 88.0) / (x2.std(ddof=1) / math.sqrt(n))
    ok = abs(zm) <= 5.0 and abs(zv) <= 5.0
    return ok, f"first-entry moments z = {zm:+.2f} (mean), {zv:+.2f} (second)"


def _xi_histogram_check(seed, n):
    spec = _prng(seed)
    pts = sampling.next_points(spec, n)
    diag, _ = sampling.cube_to_bloore_batch(pts)
    xi = np.log(diag[:, 0] * diag[:, 3] / (diag[:, 1] * diag[:, 2])) * 0.5
    edges = np.linspace(-6.0, 6.0, 61)
    counts = np.histogram(xi, bins=edges)[0]
    outside = n - counts.sum()
    probs = np.array([
        quadrature._adaptive(
            sepfun.jacobian_xi, [a, b], 1e-13, 10_000
        ).value
        for a, b in zip(edges[:-1], edges[1:])
    ])
    worst_z = 0.0
    for k, p in zip(counts, probs):
        expected = n * p
        if expected >= 10.0:
            z = (k - expected) / math.sqrt(expected * (1.0 - p))
            worst_z = max(worst_z, abs(z))
        else:
            pv = estimator.binomial_two_sided_pvalue(int(k), n, p)
            if pv < 6.3e-5:
                return False, f"sparse bin p-value {pv:.1e} at count {k}"
    p_out = max(1.0 - probs.sum(), 0.0)
    pv = estimator.binomial_two_sided_pvalue(int(outside), n, p_out)
    if pv < 6.3e-5:
        return False, f"outside-range mass p-value {pv:.1e}"
    ok = worst_z <= 4.0
    return ok, f"xi histogram vs density, worst bin z = {worst_z:.2f} (n={n:.0e})"


@_check("xi-distribution-matches-density")
def _chk_xi_hist_quick(workers):
    return _xi_histogram_check(303, 400_000)


@_check("xi-distribution-matches-density-large", level="full")
def _chk_xi_hist_full(workers):
    return _xi_histogram_check(304, 4_000_000)


# ---------------------------------------------------------------------------
# Estimator layer
# ---------------------------------------------------------------------------


@_check("separable-fraction-smoke")
def _chk_sep_quick(workers):
    res = estimator.estimate_sep_probability(_prng(404), 200_000, workers=workers)
    z = (res.mean - REFERENCES["sep_probability"]) / res.stderr
    return abs(z) <= 5.0, f"{res.mean:.5f} vs {REFERENCES['sep_probability']} (z = {z:+.2f})"


@_check("absolutely-separable-fraction-smoke")
def _chk_abs_quick(workers):
    res = estimator.estimate_abs_sep_probability(_prng(505), 200_000, workers=workers)
    z = (res.mean - REFERENCES["abs_sep_probability"]) / res.stderr
    return abs(z) <= 5.0, f"{res.mean:.5f} vs {REFERENCES['abs_sep_probability']} (z = {z:+.2f})"


@_check("histogram-sum-identity")
def _chk_sum_identity(workers):
    spec = _prng(606)
    n = 200_000
    hist = estimator.estimate_desf(spec, n, bins=41, workers=workers)
    direct = estimator.estimate_sep_probability(spec, n, workers=workers)
    lhs = (hist.n_sep.sum() + hist.n_sep_outside) / (
        hist.n_psd.sum() + hist.n_psd_outside
    )
    ok = lhs == direct.mean
    return ok, f"pooled histogram ratio equals direct estimate exactly ({lhs:.6f})"


@_check("curve-reconstruction-consistency")
def _chk_eq4(workers):
    spec = _prng(707)
    n = 400_000
    hist = estimator.estimate_desf(spec, n, bins=81, ximax=6.0, workers=workers)
    direct = estimator.estimate_sep_probability(spec, n, workers=workers)
    via_curve = quadrature.separability_probability(hist.to_curve(), 1e-9)
    # The curve integral re-weights bins by the exact density instead of the
    # sampled one; at these sizes the two agree to a couple of direct-method
    # standard errors.
    diff = abs(via_curve.value - direct.mean)
    ok = diff <= 2.0 * direct.stderr + 1e-3
    return ok, f"integral of empirical curve vs direct estimate, diff {diff:.2e}"


@_check("stderr-scaling")
def _chk_stderr_scaling(workers):
    small = estimator.estimate_sep_probability(_prng(808), 100_000, workers=workers)
    large = estimator.estimate_sep_probability(_prng(808), 400_000, workers=workers)
    ratio = large.stderr / small.stderr
    return ratio <= 0.6, f"stderr(4n)/stderr(n) = {ratio:.3f} (want <= 0.6)"


@_check("worker-count-invariance")
def _chk_worker_invariance(workers):
    runs = [
        estimator.estimate_sep_probability(_prng(909), 300_000, workers=w)
        for w in (1, 2, 4)
    ]
    same = all(
        r.mean == runs[0].mean and r.n_effective == runs[0].n_effective
        for r in runs
    )
    return same, "identical tallies with 1, 2 and 4 workers"


@_check("minor-branch-smoke")
def _chk_minor_quick(workers):
    minor = estimator.MinorSelector.parse("delete:4")
    hist = estimator.estimate_minor_desf(
        _prng(111, dimension=6), 200_000, minor, [0.5], workers=workers
    )
    got, se = hist.ratio[0], hist.stderr[0]
    ref = sepfun.eval_desf("three_right", 0.5)
    z = (got - ref) / se
    return abs(z) <= 5.0, f"delete:4 at xi=0.5: {got:.4f} vs {ref:.4f} (z = {z:+.2f})"


def _lds_vs_prng(seed, n_total):
    lds = estimator.estimate_sep_probability(
        _lds(seed), n_total, replicates=8, workers=1
    )
    prng = estimator.estimate_sep_probability(
        _prng(seed), n_total, replicates=8, workers=1
    )
    ok = lds.stderr < prng.stderr
    return ok, (
        f"replicate spread {lds.stderr:.2e} (lds) vs {prng.stderr:.2e} (prng)"
        f" at n={n_total:.0e}"
    )


@_check("low-discrepancy-beats-prng-smoke")
def _chk_lds_quick(workers):
    return _lds_vs_prng(212, 400_000)


@_check("low-discrepancy-beats-prng", level="full")
def _chk_lds_full(workers):
    return _lds_vs_prng(212, 1_000_000)


# ---------------------------------------------------------------------------
# Full-level statistical reproduction
# ---------------------------------------------------------------------------


@_check("separable-fraction", level="full")
def _chk_sep_full(workers):
    res = estimator.estimate_sep_probability(_prng(1404), 10_000_000, workers=workers)
    z = (res.mean - REFERENCES["sep_probability"]) / res.stderr
    return abs(z) <= 3.0, f"{res.mean:.6f} vs {REFERENCES['sep_probability']} (z = {z:+.2f})"


@_check("absolutely-separable-fraction", level="full")
def _chk_abs_full(workers):
    res = estimator.estimate_abs_sep_probability(
        _prng(1505), 10_000_000, workers=workers
    )
    z = (res.mean - REFERENCES["abs_sep_probability"]) / res.stderr
    return abs(z) <= 3.0, f"{res.mean:.6f} vs {REFERENCES['abs_sep_probability']} (z = {z:+.2f})"


@_check("minor-branch-calibration", level="full")
def _chk_minors_full(workers):
    worst = 0.0
    worst_lbl = ""
    for k, (key, tag) in enumerate(sorted(estimator.MINOR_BRANCH_TABLE.items())):
        minor = estimator.MinorSelector(*key)
        hist = estimator.estimate_minor_desf(
            _prng(7001 + k, dimension=6), 10_000_000, minor, _XI_GRID,
            workers=workers,
        )
        for i, xi in enumerate(_XI_GRID):
            ref = sepfun.eval_desf(tag, xi)
            got, se = hist.ratio[i], hist.stderr[i]
            if se == 0.0:
                if got != ref:
                    return False, f"{minor} at xi={xi}: flat reference missed"
                continue
            z = abs(got - ref) / se
            if z > worst:
                worst, worst_lbl = z, f"{minor} at xi={xi:+.1f}"
    return worst <= 3.0, f"30 minor/xi cells, worst |z| = {worst:.2f} ({worst_lbl})"


@_check("desf-intercept", level="full")
def _chk_intercept_full(workers):
    hist = estimator.estimate_desf(
        _prng(1606), 100_000_000, bins=401, ximax=4.0, workers=workers
    )
    i = hist.bin_index(0.0)
    ref = REFERENCES["desf_intercept"]
    sigma = math.sqrt(ref * (1.0 - ref) / hist.n_psd[i])
    z = (hist.ratio[i] - ref) / sigma
    return abs(z) <= 3.0, (
        f"central bin {hist.ratio[i]:.6f} vs {ref:.6f} "
        f"(z = {z:+.2f}, n_bin = {hist.n_psd[i]})"
    )


def run_checks(level: str = "quick", *, workers: int = 1, echo=print):
    """Run all checks for ``level`` ("quick" or "full"); returns the results.

    ``echo`` receives one formatted line per check (pass ``None`` to
    silence).  Full level includes every quick check.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = []
    for name, check_level, fn in _CHECKS:
        if check_level == "full" and level != "full":
            continue
        try:
            passed, detail = fn(workers)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CheckResult(name=name, passed=passed, detail=detail)
        results.append(result)
        if echo is not None:
            echo(f"[{'PASS' if result.passed else 'FAIL'}] {name}: {detail}")
    return results
