"""The benchmark tracer in benchmarks/child.py still finds every name it
wraps, so a renamed or unbound function fails here, not in a benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    paths = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; from child import Tracer; Tracer().install()"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "WrapError" not in done.stderr
    assert done.returncode == 0, done.stderr
