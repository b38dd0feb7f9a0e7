"""numpy is the one runtime dependency: importing the package and running the CLI load no SciPy."""

import importlib.util
import subprocess
import sys

import pytest

# Prints the CLI's exit code and the SciPy modules loaded: the script reports
# through stdout, not assert, which python -O strips.
NO_SCIPY = """
import contextlib, io, sys
import svetbound, svetbound.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = svetbound.cli.main(["gme", "--family", "ghz-color", "--p", "1"])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

LAZY_ALIAS = """
import scipy.optimize
import svetbound.bounds
print(svetbound.bounds.minimize is scipy.optimize.minimize, "minimize" in vars(svetbound.bounds))
"""


def run_fresh(script):
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_and_cli_load_no_scipy():
    assert run_fresh(NO_SCIPY) == "0 []"


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="SciPy is not installed")
def test_bounds_minimize_resolves_lazily_into_module_globals():
    assert run_fresh(LAZY_ALIAS) == "True True"
