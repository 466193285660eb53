"""The check registry and its runner, with stub rows where a real check
would cost sample time."""

import subprocess
import sys
from pathlib import Path

import pytest

import sepscope.verify as verify

ROOT = Path(__file__).resolve().parent.parent


def test_registry_names_are_unique_and_levels_known():
    names = [check.name for check in verify.CHECKS]
    assert len(names) == len(set(names))
    assert {check.level for check in verify.CHECKS} == set(verify.LEVELS)


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
