"""The check registry and its runner, with stub rows where a real check
would cost sample time."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepscope.estimator as estimator
import sepscope.verify as verify
from sepscope.qstate import EVENTS, xi_from_diag, z_psd_mask
from sepscope.sampling import cube_to_bloore_batch, next_points

ROOT = Path(__file__).resolve().parent.parent


def test_registry_names_are_unique_and_levels_known():
    names = [check.name for check in verify.CHECKS]
    assert len(names) == len(set(names))
    assert {check.level for check in verify.CHECKS} == set(verify.LEVELS)


def test_minor_rows_name_known_events():
    """Every minor-curve row, quick or full, names only labels of the branch
    table, which are events of ``qstate.EVENTS``, and pairs only its own
    minors; checked without running a row."""
    rows = [check for check in verify.CHECKS if check.fn is verify._minor_curves]
    assert {check.level for check in rows} == set(verify.LEVELS)
    assert set(verify._MINORS) <= set(EVENTS)
    for check in rows:
        minors = check.params["minors"]
        assert set(minors) <= set(verify._MINORS), check.name
        for pair in check.params.get("pairs", ()):
            assert set(pair) <= set(minors), check.name


def test_a_raising_check_is_a_failed_check(monkeypatch):
    def crashes(workers):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "CHECKS", [
        verify.Check("crashes", "quick", crashes),
        verify.Check("passes", "quick", lambda workers: (True, "fine")),
    ])
    results = verify.run_checks("quick")
    assert [r.line for r in results] == [
        "[FAIL] crashes: raised RuntimeError: boom",
        "[PASS] passes: fine",
    ]
    assert all(r.seconds >= 0.0 for r in results)


def test_psd_sample_matches_map_then_mask(monkeypatch):
    """Drawn batch by batch, masked before it is mapped, on one worker or
    three, the sample is the one a single map-then-mask call over the whole
    stream gives."""
    monkeypatch.setattr(estimator, "BATCH_SIZE", 1000)
    n = 3500
    pts = next_points(verify._prng(9108), n)
    diag, z = cube_to_bloore_batch(pts[:, :3]), 2.0 * pts[:, 3:] - 1.0
    keep = z_psd_mask(z)
    assert len(estimator._batch_plan(n)) == 4
    for workers in (1, 3):
        got_diag, got_z = verify._psd_sample(workers, 9108, n)
        assert len(got_z) > 0
        assert np.array_equal(got_diag, diag[keep])
        assert np.array_equal(got_z, z[keep])


def test_xi_counts_add_over_batches(monkeypatch):
    """Drawn and mapped one batch at a time, on one worker or two, the xi
    histogram has the counts of one map over the whole stream."""
    edges = np.linspace(-6.0, 6.0, 61)
    diag = cube_to_bloore_batch(next_points(verify._prng(303), 3500)[:, :3])
    whole = np.histogram(xi_from_diag(diag), bins=edges)[0]
    monkeypatch.setattr(estimator, "BATCH_SIZE", 1000)
    assert len(estimator._batch_plan(3500)) == 4
    for workers in (1, 2):
        assert np.array_equal(verify._xi_counts(workers, 303, 3500, edges), whole)


def test_lds_vs_prng_runs_on_the_requested_workers(monkeypatch):
    """Both estimates of the lds-against-prng rows run on ``--workers``, and
    the row's detail does not depend on it."""
    monkeypatch.setattr(estimator, "BATCH_SIZE", 1000)
    seen = []
    estimate = estimator.estimate_probability

    def spy(*args, workers, **kwargs):
        seen.append(workers)
        return estimate(*args, workers=workers, **kwargs)

    monkeypatch.setattr(estimator, "estimate_probability", spy)
    details = [verify._lds_vs_prng(workers, seed=212, n=16_000)[1] for workers in (1, 2)]
    assert seen == [1, 1, 2, 2]
    assert details[0] == details[1]


def test_binomial_two_sided_pvalue():
    assert verify.binomial_two_sided_pvalue(0, 10, 0.5) == pytest.approx(2.0 / 1024.0)
    assert verify.binomial_two_sided_pvalue(5, 10, 0.5) == 1.0  # clamped at 1
    assert verify.binomial_two_sided_pvalue(2, 2, 1.0) == 1.0
    with pytest.raises(ValueError):
        verify.binomial_two_sided_pvalue(11, 10, 0.5)
    with pytest.raises(ValueError):
        verify.binomial_two_sided_pvalue(-1, 10, 0.5)
    with pytest.raises(ValueError):
        verify.binomial_two_sided_pvalue(1, 10, 1.5)


def test_unknown_level_is_rejected():
    with pytest.raises(ValueError, match="level"):
        verify.run_checks("medium")


def test_acceptance_runner_collects_exactly_the_quick_rows():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "tests/test_acceptance.py"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    collected = [
        line.split("[", 1)[1][:-1]
        for line in out.splitlines() if "::test_quick_row[" in line
    ]
    assert collected == [c.name for c in verify.CHECKS if c.level == "quick"]
