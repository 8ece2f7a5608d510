"""Write golden.json: the SHA-256 digest of each instance's stdout.

    python3 benchmarks/make_golden.py

Run it only at a commit whose outputs are known to be right; the
benchmark counts any later difference as a failed call.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import GOLDEN, INSTANCE_TIMEOUT_S, WORKLOADS, child_env, cli_argv, execute, key_of


def main() -> int:
    golden = {}
    for spec in WORKLOADS.values():
        for argv in [*spec["instances"], spec["tiny"]]:
            res = execute(cli_argv(argv, False), child_env(0), INSTANCE_TIMEOUT_S)
            if res["rc"] != 0 or res["timed_out"]:
                print(f"failed: {key_of(argv)}", file=sys.stderr)
                return 1
            golden[key_of(argv)] = hashlib.sha256(res["stdout"]).hexdigest()
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
