"""Acceptance suite: one test per quick row of ``sepscope.verify.CHECKS``.

Every criterion, with its seed, sample budget, reference value and bound,
lives in that registry; this file only runs it.  ``pytest -rP`` shows each
row's measured values, and ``sepscope verify --level full`` runs the full
rows as well.  ``SEPSCOPE_WORKERS`` sets estimator threading, which never
changes a result.
"""

import os

import pytest

from sepscope.verify import CHECKS

WORKERS = int(os.environ.get("SEPSCOPE_WORKERS", "1"))
QUICK = [check for check in CHECKS if check.level == "quick"]


@pytest.mark.parametrize("check", QUICK, ids=[check.name for check in QUICK])
def test_quick_row(check):
    passed, detail = check.fn(WORKERS, **check.params)
    print(f"[{'PASS' if passed else 'FAIL'}] {check.name}: {detail}")
    assert passed, detail
