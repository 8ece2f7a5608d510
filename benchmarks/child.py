"""Entry point of every measured chromheap CLI call.

    python3 benchmarks/child.py <trace 0|1> <chromheap arguments>

Run with ``src`` on ``PYTHONPATH``. It calls ``chromheap.cli.main`` and
leaves stdout exactly as the CLI wrote it. When ``main`` returns, one
line prefixed with ``MARKER`` goes to stderr, holding the process's peak
resident set size and, when tracing, the aggregated spans and counts.
The peak is read from ``VmHWM`` in ``/proc/self/status``, because the
``ru_maxrss`` a parent gets from ``wait4`` also covers the parent's own
memory at the moment it spawned the child.

With tracing on, the public functions of each chromheap module are
replaced by span or counter wrappers before ``main`` runs, in every
module namespace that binds them, so the program itself carries no
instrumentation. A span is aggregated by (name, parent span name):
calls, inclusive seconds, and self seconds (inclusive minus the time
covered by child spans). Counters count calls or generator yields.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

MARKER = "BENCHREPORT "

# Wrapped names: (defining module, attribute, namespaces that must bind
# it, metric name). An attribute with a dot is a class attribute and is
# wrapped in place; a plain attribute is wrapped in every chromheap
# module that binds the same object, and must be found at least in the
# listed namespaces. Any miss fails the run loudly, so a rename in the
# program cannot silently zero a layer metric.
SPANS = [
    ("chromatic", "omega_chromatic_qsym", ("chromatic",), "chromatic.omega_qsym"),
    ("chromatic", "expansion", ("chromatic", "cli"), "chromatic.expansion"),
    ("chromatic", "coloring_qsym", ("chromatic", "cli"), "chromatic.coloring_qsym"),
    ("chromatic", "coeff_e_two_column", ("chromatic", "cli"), "chromatic.coeff_e_two_column"),
    ("chromatic", "coeff_e_hook", ("chromatic", "cli"), "chromatic.coeff_e_hook"),
    ("chromatic", "class_sym", ("chromatic",), "chromatic.class_sym"),
    ("symfunc", "QSymFunc.fundamental", (), "symfunc.fundamental"),
    ("symfunc", "QSymFunc.to_symmetric", (), "symfunc.to_symmetric"),
    ("symfunc", "SymFunc.in_basis", (), "symfunc.in_basis"),
    ("symfunc", "m_in_basis_coords", ("symfunc", "ncsf"), "symfunc.m_in_basis_coords"),
    ("heaps", "Heap.from_word", (), "heaps.from_word"),
    ("heaps", "enumerate_heaps", ("heaps", "chromatic", "cli"), "heaps.enumerate_heaps"),
    ("heaps", "flip_closure", ("heaps", "ncsf"), "heaps.flip_closure"),
    ("heaps", "enumerate_classes", ("heaps", "chromatic", "cli"), "heaps.enumerate_classes"),
    ("ncsf", "class_representative", ("ncsf",), "ncsf.class_rep"),
    ("ncsf", "NCElement.__mul__", (), "ncsf.mul"),
    ("ncsf", "nc_e", ("ncsf", "cli"), "ncsf.gen"),
    ("ncsf", "nc_h", ("ncsf", "chromatic", "cli"), "ncsf.gen"),
    ("ncsf", "nc_p", ("ncsf", "chromatic", "cli"), "ncsf.gen"),
    ("ncsf", "nc_s", ("ncsf", "chromatic", "cli"), "ncsf.gen"),
    ("ncsf", "nc_m", ("ncsf",), "ncsf.gen"),
    ("ncsf", "pair_gamma", ("ncsf", "chromatic"), "ncsf.pair_gamma"),
]

# Generators whose yields are counted.
YIELDS = [
    ("chromatic", "proper_colorings", ("chromatic",), "chromatic.colorings"),
    (
        "partitions",
        "multiset_permutations",
        ("partitions", "chromatic", "heaps", "symfunc"),
        "partitions.words_yielded",
    ),
    ("posets", "UnitIntervalOrder.all_orders", (), "posets.orders_swept"),
]

# Methods whose calls are counted; per-call spans would swamp the run.
CALLS = [
    ("qpoly", "QPoly.__init__", (), "qpoly.constructed"),
    ("qpoly", "QPoly.__add__", (), "qpoly.add.calls"),
    ("qpoly", "QPoly.__radd__", (), "qpoly.add.calls"),
    ("qpoly", "QPoly.__mul__", (), "qpoly.mul.calls"),
    ("qpoly", "QPoly.__rmul__", (), "qpoly.mul.calls"),
    ("symfunc", "QSymFunc.__add__", (), "symfunc.qsym_add.calls"),
]

MODULES = ("chromatic", "cli", "heaps", "ncsf", "partitions", "posets", "qpoly", "render", "symfunc")


class WrapError(RuntimeError):
    """A name the tracer must wrap is missing or bound where it is not expected."""


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, seconds covered by children]
        self.spans: dict = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict = {}

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, after=None):
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def yields(self, name, fn):
        add = self.add

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                add(name, n)

        return wrapper

    def calls(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that count work from a span's arguments and result

    def _after(self, metric):
        if metric == "heaps.enumerate_heaps":
            return lambda args, res: self.add("heaps.heaps", len(res))
        if metric == "heaps.enumerate_classes":
            return lambda args, res: self.add("heaps.classes", len(res))
        if metric == "heaps.flip_closure":
            return lambda args, res: self.add("heaps.flip_closure.members", len(res))
        if metric == "symfunc.fundamental":
            return lambda args, res: self.add("symfunc.fundamental.terms", len(res.terms))
        if metric == "ncsf.mul":
            return self._after_mul
        if metric == "ncsf.pair_gamma":
            return self._after_pair
        return None

    def _after_mul(self, args, res):
        a, b = args
        if hasattr(b, "terms"):
            self.add("ncsf.mul.pairs", len(a.terms) * len(b.terms))

    def _after_pair(self, args, res):
        from chromheap.partitions import word_type

        elem, mu = args
        mu = tuple(mu)
        n = elem.order.n
        self.add("ncsf.pair_gamma.terms_in", len(elem.terms))
        self.add(
            "ncsf.pair_gamma.terms_kept",
            sum(1 for w in elem.terms if word_type(w, n) == mu),
        )

    # -- installation

    def install(self):
        """Wrap every name in the tables; raise WrapError on any miss."""
        mods = {m: importlib.import_module(f"chromheap.{m}") for m in MODULES}
        mods[""] = importlib.import_module("chromheap")
        ncsf = mods["ncsf"]
        if not isinstance(getattr(ncsf, "_rep_cache", None), dict):
            raise WrapError("chromheap.ncsf._rep_cache is missing or not a dict")
        table = [(s, "span") for s in SPANS]
        table += [(s, "yields") for s in YIELDS]
        table += [(s, "calls") for s in CALLS]
        for (home, attr, namespaces, metric), kind in table:
            if kind == "span":
                make = lambda fn, m=metric: self.span(m, fn, self._after(m))
            elif kind == "yields":
                make = lambda fn, m=metric: self.yields(m, fn)
            else:
                make = lambda fn, m=metric: self.calls(m, fn)
            if "." in attr:
                _wrap_class_attr(mods[home], attr, make)
            else:
                _wrap_function(mods, home, attr, namespaces, make)

    def summary(self) -> dict:
        from chromheap import ncsf

        return {
            "spans": [[n, p, *rec] for (n, p), rec in sorted(self.spans.items())],
            "counts": dict(sorted(self.counts.items())),
            "rep_cache_entries": sum(len(v) for v in ncsf._rep_cache.values()),
        }


def _wrap_class_attr(module, attr, make):
    cls_name, name = attr.split(".")
    cls = getattr(module, cls_name, None)
    if cls is None or name not in vars(cls):
        raise WrapError(f"chromheap.{module.__name__.split('.')[-1]}.{attr} is missing")
    raw = vars(cls)[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    elif callable(raw):
        setattr(cls, name, make(raw))
    else:
        raise WrapError(f"{attr} is not callable")


def _wrap_function(mods, home, attr, namespaces, make):
    original = getattr(mods[home], attr, None)
    if not callable(original):
        raise WrapError(f"chromheap.{home}.{attr} is missing")
    bound = [m for m, mod in mods.items() if getattr(mod, attr, None) is original]
    missing = [ns for ns in namespaces if ns not in bound]
    if missing:
        raise WrapError(
            f"{attr} from chromheap.{home} is not bound in chromheap."
            + ", chromheap.".join(missing)
        )
    wrapped = make(original)
    for m in bound:
        setattr(mods[m], attr, wrapped)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    traced = argv[0] == "1"
    tracer = Tracer()
    if traced:
        try:
            tracer.install()
        except WrapError as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return 70
    from chromheap import cli

    rc = (tracer.span("cli.main", cli.main) if traced else cli.main)(argv[1:])
    sys.stdout.flush()
    report = tracer.summary() if traced else {}
    report["rss_mb"] = peak_rss_mb()
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
