"""The repository's pytest settings: a failing property is reported, not fatal."""

import subprocess
import sys

from conftest import REPO_ROOT

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_property_that_fails(n):
    assert n != n


def test_that_passes():
    pass
"""


def test_failing_property_does_not_abort_the_session(tmp_path):
    # Hypothesis raises a DeprecationWarning inside its own report hook.
    # Under filterwarnings = ["error"] alone, that ends the session with
    # INTERNALERROR at the first failing property, and later tests go
    # unreported.
    (tmp_path / "test_guard.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(REPO_ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "test_guard.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
