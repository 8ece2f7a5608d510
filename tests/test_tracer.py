"""The benchmark tracer in benchmarks/child.py still finds every name it
wraps, so a renamed or unbound function fails here, not in a benchmark;
and one traced call per subcommand, and the e expansion and the sinks
and oracle suites, run through the wrapped names, so a change that
breaks a wrapped call (such as coloring_qsym, coeff_e_* or
m_in_basis_coords), or calls one past its wrapper, fails here too. The
tiny self-check instance of each benchmark workload runs traced as the
benchmark runs it, so a name the tracer cannot find fails a test
instead of the whole benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"


def _benchmark_run():
    """benchmarks/run.py, imported for its WORKLOADS table and the helpers
    that build a child's command and environment."""
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    return run


RUN = _benchmark_run()


def test_benchmark_tracer_installs():
    paths = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; from child import Tracer; Tracer().install()"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "WrapError" not in done.stderr
    assert done.returncode == 0, done.stderr


# Spans each call must open. The names child.py wraps in chromatic live
# in the modules of its routes, which are called through chromatic: a
# call by a bare name of the defining module would bypass the wrapper.
SPANS_SEEN = {
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "s"): ("chromatic.expansion",),
    ("expand", "--poset", "2,3,4,5,5", "--basis", "e"): (
        "chromatic.coeff_e_two_column",
        "chromatic.coeff_e_hook",
    ),
    ("verify", "--suite", "oracle", "--max-n", "3"): ("chromatic.coloring_qsym",),
}


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
    calls: dict = {}
    for name, _, n, *_ in json.loads(reports[0][len("BENCHREPORT "):])["spans"]:
        calls[name] = calls.get(name, 0) + n
    for span in SPANS_SEEN.get(argv, ()):
        assert calls.get(span, 0) > 0, (span, sorted(calls))


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_each_workload_self_check_runs_traced(workload):
    argv = RUN.cli_argv(RUN.WORKLOADS[workload]["tiny"], True)
    done = subprocess.run(argv, cwd=ROOT, env=RUN.child_env(0), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    reports = [line for line in done.stderr.splitlines() if line.startswith(RUN.MARKER)]
    assert len(reports) == 1, done.stderr
