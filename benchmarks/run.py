"""chromheap benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload words --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Every instance is a fresh Python
process that runs ``child.py``, which calls ``chromheap.cli.main`` with
``src`` on ``PYTHONPATH``. One process runs at a time, so no cache
survives from one call to the next. The seed sets each child's
``PYTHONHASHSEED`` and the order of instances in each pass; the program
only ever sees its CLI arguments. Every stdout is checked against the
SHA-256 digest in ``golden.json``. Times are scaled to a reference speed
by ``SpeedProbe``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` each instance runs once untraced and once traced, and the
run reports the per-layer metrics. The second to last stdout line is a
JSON record of the run (metadata and every call); the last line is the
result. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import MARKER

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"

# Seconds one CLI call may take before it is killed and counted as failed.
INSTANCE_TIMEOUT_S = 60.0
# No call starts later than this after the run began, so a run ends well
# within three minutes even when the program is much slower than today.
HARD_LIMIT_S = 150.0
# The speed probe: iterations of its loop, seconds between samples while
# a child runs, and the loop's time at the reference speed.
PROBE_LOOP = 20_000
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.0015


def _expand(poset, basis, mu=None):
    argv = ["expand", "--format", "json", "--poset", poset]
    return argv + (["--mu", mu] if mu else []) + ["--basis", basis]


def _classes(poset, mu=None):
    return ["classes", "--format", "json", "--poset", poset] + (["--mu", mu] if mu else [])


# Why each workload exists is in README.md. "largest" is the frontier
# instance whose time is reported on its own; "tiny" is the self-check.
WORKLOADS = {
    "words": {
        "instances": [
            _expand("2,3,4,5,6,6", "e"),
            _expand("2,4,5,6,7,7,7", "e"),
            _expand("2,3,4,5,6,7,8,8", "e"),
            _expand("2,3,4,5,6,7,8,8", "m"),
            _expand("2,3,3", "e", "3,2,2"),
            _expand("3,4,5,6,7,8,9,9,9", "e"),
        ],
        "largest": _expand("3,4,5,6,7,8,9,9,9", "e"),
        "tiny": _expand("2,3,3", "e", "1,1,2"),
    },
    "nc": {
        "instances": [
            _expand("2,3,4,5,6,6", "f"),
            _expand("2,3,4,5,6,6", "p"),
            _expand("2,3,4,5,6,6", "s"),
            _expand("2,3,3", "f", "1,1,2"),
            _expand("2,3,3", "p", "3,2,2"),
            _expand("2,3,3", "s", "3,2,2"),
            ["verify", "--max-n", "4"],
        ],
        "largest": _expand("2,3,4,5,6,6", "f"),
        "tiny": _expand("2,3,3", "p", "1,1,2"),
    },
    "classes-verify": {
        "instances": [
            _classes("3,4,5,6,7,8,9,9,9"),
            _classes("2,4,5,6,7,7,7", "2,1,1,1,1,1,2"),
            _classes("2,3,3", "3,2,2"),
            ["verify", "--suite", "oracle", "--max-n", "5"],
            ["verify", "--suite", "oracle", "--poset", "2,3,4,5,6,6"],
            ["verify", "--suite", "two-column", "--max-n", "5"],
            ["verify", "--suite", "hook", "--max-n", "5"],
            ["verify", "--suite", "positivity", "--max-n", "5"],
        ],
        "largest": ["verify", "--suite", "oracle", "--max-n", "5"],
        "tiny": _classes("2,3,3", "1,1,2"),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "largest_instance_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# Per-layer metrics: name -> (unit, how it is read from one traced call).
# ("self", span) sums self time; ("incl", span) sums inclusive time of
# the outermost spans of that name; ("calls", span) counts spans;
# ("under", span, parent) counts spans opened directly under parent;
# ("count", key) reads a tracer counter.
LAYER_SOURCES = {
    "chromatic.omega_qsym.calls": ("count", ("calls", "chromatic.omega_qsym")),
    "chromatic.omega_qsym.self_s": ("s", ("self", "chromatic.omega_qsym")),
    "chromatic.expansion.self_s": ("s", ("self", "chromatic.expansion")),
    "chromatic.coloring_qsym.s": ("s", ("incl", "chromatic.coloring_qsym")),
    "chromatic.colorings": ("count", ("count", "chromatic.colorings")),
    "chromatic.coeff_e_two_column.s": ("s", ("incl", "chromatic.coeff_e_two_column")),
    "chromatic.coeff_e_hook.s": ("s", ("incl", "chromatic.coeff_e_hook")),
    "chromatic.class_sym.s": ("s", ("incl", "chromatic.class_sym")),
    "partitions.words_yielded": ("count", ("count", "partitions.words_yielded")),
    "symfunc.fundamental.calls": ("count", ("calls", "symfunc.fundamental")),
    "symfunc.fundamental.terms": ("count", ("count", "symfunc.fundamental.terms")),
    "symfunc.fundamental.self_s": ("s", ("self", "symfunc.fundamental")),
    "symfunc.qsym_add.calls": ("count", ("count", "symfunc.qsym_add.calls")),
    "symfunc.to_symmetric.self_s": ("s", ("self", "symfunc.to_symmetric")),
    "symfunc.in_basis.calls": ("count", ("calls", "symfunc.in_basis")),
    "symfunc.in_basis.self_s": ("s", ("self", "symfunc.in_basis")),
    "symfunc.m_in_basis_coords.s": ("s", ("incl", "symfunc.m_in_basis_coords")),
    "heaps.from_word.calls": ("count", ("calls", "heaps.from_word")),
    "heaps.from_word.self_s": ("s", ("self", "heaps.from_word")),
    "heaps.enumerate_heaps.s": ("s", ("incl", "heaps.enumerate_heaps")),
    "heaps.heaps": ("count", ("count", "heaps.heaps")),
    "heaps.flip_closure.calls": ("count", ("calls", "heaps.flip_closure")),
    "heaps.flip_closure.members": ("count", ("count", "heaps.flip_closure.members")),
    "heaps.flip_closure.self_s": ("s", ("self", "heaps.flip_closure")),
    "heaps.enumerate_classes.s": ("s", ("incl", "heaps.enumerate_classes")),
    "heaps.classes": ("count", ("count", "heaps.classes")),
    "ncsf.class_rep.calls": ("count", ("calls", "ncsf.class_rep")),
    "ncsf.class_rep.misses": ("count", ("under", "heaps.flip_closure", "ncsf.class_rep")),
    "ncsf.class_rep.self_s": ("s", ("self", "ncsf.class_rep")),
    "ncsf.mul.calls": ("count", ("calls", "ncsf.mul")),
    "ncsf.mul.pairs": ("count", ("count", "ncsf.mul.pairs")),
    "ncsf.mul.self_s": ("s", ("self", "ncsf.mul")),
    "ncsf.gen.s": ("s", ("incl", "ncsf.gen")),
    "ncsf.pair_gamma.terms_in": ("count", ("count", "ncsf.pair_gamma.terms_in")),
    "ncsf.pair_gamma.terms_kept": ("count", ("count", "ncsf.pair_gamma.terms_kept")),
    "qpoly.constructed": ("count", ("count", "qpoly.constructed")),
    "qpoly.add.calls": ("count", ("count", "qpoly.add.calls")),
    "qpoly.mul.calls": ("count", ("count", "qpoly.mul.calls")),
    "posets.orders_swept": ("count", ("count", "posets.orders_swept")),
    "cli.main_s": ("s", ("incl", "cli.main")),
}
# Metrics derived from the sums above, or not additive over calls.
LAYER_DERIVED_UNITS = {
    "ncsf.class_rep.hit_ratio": "ratio",
    "ncsf.pair_gamma.yield": "ratio",
    "ncsf.rep_cache.entries": "count",
    "cli.output_bytes": "bytes",
    "chromatic.omega_qsym.share": "ratio",
    "ncsf.class_rep.expand_share": "ratio",
    "trace.overhead": "ratio",
}


class SpeedProbe:
    """Samples how fast this machine runs Python right now.

    On a shared machine the same CPU-bound call can take 1.5 times as
    long from one minute to the next, and each CPU slows on its own. The
    parent and its children are pinned to one CPU; the probe times a
    short fixed loop there before each call and every PROBE_PERIOD_S
    while a child runs, so a call's time can be scaled by the speed of
    its CPU while it ran.
    """

    def __init__(self):
        self.samples: list = []

    def sample(self) -> float:
        t0 = perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i % 7
        self.samples.append(perf_counter() - t0)
        return self.samples[-1]

    def scale(self, since: int) -> float:
        """Factor that maps times measured since sample number ``since``
        to the reference speed."""
        return PROBE_REF_S / statistics.median(self.samples[since:])


class BenchError(Exception):
    """The benchmark itself cannot run: missing program, golden digest or tracer target."""


def key_of(argv) -> str:
    return " ".join(argv)


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env.pop("CHROMHEAP_OUT", None)  # would send CLI output to files
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def execute(argv, env, timeout, probe=None):
    """Run one child to completion; return its wall time (less the time
    the probe took from it), exit code, stdout, stderr, and whether it
    timed out."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    probe_s = 0.0
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            events = sel.select(min(left, PROBE_PERIOD_S) if probe else left)
            if not events and probe:
                probe_s += probe.sample()
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status = os.waitpid(proc.pid, 0)
    wall = perf_counter() - t0 - probe_s
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "stdout": b"".join(chunks[proc.stdout]),
        "stderr": b"".join(chunks[proc.stderr]),
        "timed_out": timed_out,
    }


def cli_argv(argv, traced: bool):
    return [sys.executable, str(BENCH / "child.py"), "1" if traced else "0", *argv]


def run_instance(argv, traced, golden, env, time_left, speed=None):
    """One CLI call, checked against its golden digest."""
    key = key_of(argv)
    timeout = min(INSTANCE_TIMEOUT_S, time_left)
    if timeout <= 0:
        return {"instance": key, "traced": traced, "wall_s": 0.0, "rc": None,
                "timed_out": True, "ok": False, "rss_mb": 0.0, "bytes": 0}
    res = execute(cli_argv(argv, traced), env, timeout, speed)
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    lines = res["stderr"].decode(errors="replace").splitlines()
    reports = [ln[len(MARKER):] for ln in lines if ln.startswith(MARKER)]
    report = json.loads(reports[-1]) if reports else None
    ok = (
        res["rc"] == 0 and not res["timed_out"] and report is not None
        and digest == golden[key]
    )
    out = {
        "instance": key, "traced": traced, "wall_s": res["wall_s"], "rc": res["rc"],
        "timed_out": res["timed_out"], "ok": ok,
        "rss_mb": report["rss_mb"] if report else 0.0, "bytes": len(res["stdout"]),
    }
    if traced:
        out["trace"] = report
    if not out["ok"]:
        out["stderr"] = res["stderr"].decode(errors="replace")[-2000:]
    return out


def load_golden(spec) -> dict:
    if not (ROOT / "src" / "chromheap" / "cli.py").is_file():
        raise BenchError(f"no chromheap sources under {ROOT / 'src'}")
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN.name}")
    golden = json.loads(GOLDEN.read_text())
    for argv in [*spec["instances"], spec["tiny"]]:
        if key_of(argv) not in golden:
            raise BenchError(f"no golden digest for {key_of(argv)!r}")
    return golden


def self_check(spec, golden, env):
    """Tiny instance untraced and traced. The traced call fails loudly
    when the tracer cannot wrap a name it expects."""
    for traced in (False, True):
        rec = run_instance(spec["tiny"], traced, golden, env, INSTANCE_TIMEOUT_S)
        if not rec["ok"]:
            mode = "traced" if traced else "untraced"
            raise BenchError(
                f"self-check failed ({mode} {rec['instance']}, rc={rec['rc']}): "
                + rec.get("stderr", "").strip()
            )


def measure(spec, golden, seed, seconds, trace):
    """Closed loop, one child at a time. The first pass runs every
    instance; later passes run each instance whose slowest time so far
    still fits before the deadline, until no instance fits."""
    rng = random.Random(seed)
    # One CPU for the parent and every child (they inherit it), so the
    # speed probe measures the CPU the calls run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = perf_counter()
    deadline = start + seconds
    hard = start + HARD_LIMIT_S
    self_check(spec, golden, child_env(rng.randrange(2**32)))
    speed = SpeedProbe()
    records, setup = [], []
    est: dict = {}
    first = True
    while True:
        order = list(spec["instances"])
        rng.shuffle(order)
        ran = 0
        for argv in order:
            key = key_of(argv)
            if not first and perf_counter() + est[key] > deadline:
                continue
            env = child_env(rng.randrange(2**32))
            t0 = perf_counter()
            mark = len(speed.samples)
            speed.sample()
            if not trace:
                startup = execute([sys.executable, "-c", "import chromheap.cli"], env,
                                  INSTANCE_TIMEOUT_S, speed)
                if startup["rc"] != 0:
                    raise BenchError("cannot import chromheap.cli: "
                                     + startup["stderr"].decode(errors="replace"))
            modes = (False, True) if trace else (False,)
            slot = [
                run_instance(argv, traced, golden, env, hard - perf_counter(), speed)
                for traced in (modes if rng.random() < 0.5 else modes[::-1])
            ]
            scale = speed.scale(mark)
            if not trace:
                setup.append(startup["wall_s"] * scale)
            for rec in slot:
                rec["scale"] = scale
                rec["time_s"] = rec["wall_s"] * scale
            records.extend(slot)
            elapsed = perf_counter() - t0
            est[key] = max(est.get(key, 0.0), elapsed)
            ran += 1
        first = False
        if ran == 0 or perf_counter() >= deadline:
            break
    return records, setup, speed


def _median_by_instance(records, traced):
    by: dict = {}
    for r in records:
        if r["traced"] == traced:
            by.setdefault(r["instance"], []).append(r["time_s"])
    return {k: statistics.median(v) for k, v in by.items()}


def end_to_end(spec, records, setup) -> dict:
    walls = _median_by_instance(records, False)
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(walls.values()),
        "largest_instance_s": walls[key_of(spec["largest"])],
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "ok_share": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_values(summary, scale) -> dict:
    """Additive per-layer quantities of one traced call, with times
    scaled like the call's wall time."""
    incl, self_, calls, under = {}, {}, {}, {}
    for name, parent, n, total, self_s in summary["spans"]:
        calls[name] = calls.get(name, 0) + n
        self_[name] = self_.get(name, 0.0) + self_s
        if parent != name:
            incl[name] = incl.get(name, 0.0) + total
        under[(name, parent)] = under.get((name, parent), 0) + n
    out = {}
    for metric, (_, source) in LAYER_SOURCES.items():
        kind, name = source[0], source[1]
        if kind == "self":
            out[metric] = self_.get(name, 0.0) * scale
        elif kind == "incl":
            out[metric] = incl.get(name, 0.0) * scale
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "under":
            out[metric] = under.get((name, source[2]), 0)
        else:
            out[metric] = summary["counts"].get(name, 0)
    out["chromatic.omega_qsym.s"] = incl.get("chromatic.omega_qsym", 0.0) * scale
    out["ncsf.class_rep.s"] = incl.get("ncsf.class_rep", 0.0) * scale
    out["ncsf.rep_cache.entries"] = summary["rep_cache_entries"]
    return out


def per_layer(records) -> dict:
    by: dict = {}
    for r in records:
        if r["traced"] and r.get("trace") is not None:
            by.setdefault(r["instance"], []).append(r)
    per_instance = {}
    for key, recs in by.items():
        vals = [_layer_values(r["trace"], r["scale"]) for r in recs]
        per_instance[key] = {m: statistics.median(v[m] for v in vals) for m in vals[0]}
        per_instance[key]["cli.output_bytes"] = recs[0]["bytes"]

    def total(metric, keys=per_instance):
        return sum(per_instance[k][metric] for k in keys)

    values = {m: total(m) for m in LAYER_SOURCES}
    calls = values["ncsf.class_rep.calls"]
    values["ncsf.class_rep.hit_ratio"] = (
        (calls - values["ncsf.class_rep.misses"]) / calls if calls else 0.0
    )
    terms_in = values["ncsf.pair_gamma.terms_in"]
    values["ncsf.pair_gamma.yield"] = (
        values["ncsf.pair_gamma.terms_kept"] / terms_in if terms_in else 0.0
    )
    values["ncsf.rep_cache.entries"] = max(
        (v["ncsf.rep_cache.entries"] for v in per_instance.values()), default=0
    )
    values["cli.output_bytes"] = total("cli.output_bytes")
    main_s = values["cli.main_s"]
    values["chromatic.omega_qsym.share"] = (
        total("chromatic.omega_qsym.s") / main_s if main_s else 0.0
    )
    expand = [k for k in per_instance if k.startswith("expand ")]
    expand_main = total("cli.main_s", expand)
    values["ncsf.class_rep.expand_share"] = (
        total("ncsf.class_rep.s", expand) / expand_main if expand_main else 0.0
    )
    plain = _median_by_instance(records, False)
    traced = _median_by_instance(records, True)
    values["trace.overhead"] = sum(traced.values()) / sum(plain.values()) - 1
    units = {m: u for m, (u, _) in LAYER_SOURCES.items()} | LAYER_DERIVED_UNITS
    return {m: {"value": values[m], "unit": units[m]} for m in units}


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_loc() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "chromheap").glob("*.py")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    try:
        golden = load_golden(spec)
        records, setup, speed = measure(spec, golden, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(records) if args.trace else end_to_end(spec, records, setup)
    failed = sum(1 for r in records if not r["ok"])
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": git_commit(),
        "src_loc": src_loc(),
        "speed_samples_s": speed.samples,
        "setup_samples_s": setup,
        "instances": [{k: v for k, v in r.items() if k != "trace"} for r in records],
    }
    print(json.dumps({"run": run}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
