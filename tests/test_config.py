"""The test configuration in pyproject.toml: a failing test of any kind is
reported as a failure, and the run goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_fails(x):
    assert x < 0


def test_a_plain_test_fails():
    assert False


def test_the_last_test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # under filterwarnings = error, a warning raised while hypothesis
    # reports a failure ends the run with an internal error (exit code 3)
    # and hides every later test
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-rA", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout
    assert done.returncode == 1, out + done.stderr
    assert "INTERNALERROR" not in out + done.stderr
    # the summary names each test by its path from the configuration's folder
    summary = {line.split(" - ")[0].rsplit("::", 1)[-1]: line.split()[0]
               for line in out.splitlines() if line.startswith(("FAILED ", "PASSED "))}
    assert summary == {"test_a_property_fails": "FAILED", "test_a_plain_test_fails": "FAILED",
                       "test_the_last_test_passes": "PASSED"}, out
    assert "2 failed, 1 passed" in out
