"""The suite's own pytest settings, run on a test file of their own."""
import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "pyproject.toml")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_reports_a_failure(tmp_path):
    # hypothesis' failure report imports libcst, whose import warns; under
    # filterwarnings = ["error"] alone that ended the session with
    # INTERNALERROR (exit 3) and left the remaining tests unrun
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", PYPROJECT,
                          "-p", "no:cacheprovider", "-q", "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
