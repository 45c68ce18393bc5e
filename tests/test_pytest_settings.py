"""The repo's pytest settings: under its warning filters, a failing test is reported and the run goes on."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_that_fails(number):
    assert number != number


def test_a_test_after_it():
    pass
'''


def test_a_failing_given_test_leaves_the_next_test_to_run(tmp_path):
    """Hypothesis's failure report reads mypy_extensions.TypedDict. Were
    its DeprecationWarning an error, the session would stop there with an
    INTERNALERROR, and the next test would never run."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_given.py").write_text(TESTS, encoding="utf-8")
    # Plain asserts: rewriting every module of the hypothesis plugin would more than double the run's time.
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain", "test_given.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
