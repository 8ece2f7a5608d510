"""The benchmark tracer in benchmarks/child.py still finds every name it
wraps, so a renamed or unbound function fails here, not in a benchmark;
and one traced call per subcommand, and the e expansion and the sinks
and oracle suites, run through the wrapped names, so a change that
breaks a wrapped call (such as coloring_qsym, coeff_e_* or
m_in_basis_coords) fails here too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    paths = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; from child import Tracer; Tracer().install()"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "WrapError" not in done.stderr
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "s"),
        ("classes", "--poset", "2,3,4,5,5"),
        ("verify", "--max-n", "2"),
        ("expand", "--poset", "2,3,4,5,5", "--basis", "e"),
        ("verify", "--suite", "sinks", "--max-n", "3"),
        ("verify", "--suite", "oracle", "--max-n", "3"),
    ],
    ids=" ".join,
)
def test_a_traced_call_reports_once(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = [sys.executable, str(ROOT / "benchmarks" / "child.py"), "1", *argv]
    done = subprocess.run(child, capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    reports = [line for line in done.stderr.splitlines() if line.startswith("BENCHREPORT ")]
    assert len(reports) == 1, done.stderr
