"""Run every workload untraced and traced and write one BENCH file.

    python3 benchmarks/record.py --seed 1 --seconds 40 --out benchmarks/BENCH_baseline.json

The file holds, per workload and mode, the run record (metadata and
per-instance samples) and the result line that ``run.py`` printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            run_line, result_line = proc.stdout.splitlines()[-2:]
            results[f"{workload}/trace{trace}"] = {
                **json.loads(run_line), "result": json.loads(result_line)
            }
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
