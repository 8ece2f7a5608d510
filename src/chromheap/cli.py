"""Command-line interface: expansions, class listings, verify suites.

Exit codes: 0 on success, 1 on usage or validation errors, 2 on any
mathematical failure (a MathematicalError): a cross-check disagrees, a
function that must be symmetric is not, or an expansion that must be
integral is not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .chromatic import (
    chromatic_sym,
    closed_form_two_column,
    coeff_e_hook,
    coeff_e_two_column,
    coloring_qsym,
    expansion,
    positivity_report,
    sink_sum,
)
from .errors import MathematicalError
from .heaps import enumerate_classes

# unused here; bound for benchmarks/child.py, which wraps it in this namespace
from .heaps import enumerate_heaps  # noqa: F401
from .ncsf import hp_recurrence_check, nc_e, nc_h, nc_p, nc_s
from .partitions import check_type, multinomial, partitions, revlex_sorted
from .posets import UnitIntervalOrder
from .qpoly import QPoly
from .render import heap_svg
from .symfunc import NotSymmetricError

DEFAULT_SIZE_LIMIT = 10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="chromheap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--poset", help="bound sequence, e.g. 2,4,5,5,5")
        p.add_argument("--mu", help="type vector, e.g. 1,1,2")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            help="verify: largest n to sweep; otherwise overrides the "
            f"total-size guardrail (default {DEFAULT_SIZE_LIMIT})",
        )

    p_expand = sub.add_parser("expand", help="basis expansion of the chromatic function")
    common(p_expand)
    p_expand.add_argument("--basis", choices=list("fpsemh"), default="e")
    p_expand.add_argument(
        "--format", choices=["json", "csv", "pretty"], default="pretty"
    )

    p_classes = sub.add_parser("classes", help="heaps and flip-equivalence classes")
    common(p_classes)
    p_classes.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p_classes.add_argument("--svg", help="directory for per-heap SVG diagrams")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=[*SUITES, "all"],
    )
    return parser


def _parse_instance(args):
    if args.poset is None:
        raise UsageError("--poset is required")
    order = UnitIntervalOrder.from_text(args.poset)
    if args.mu:
        try:
            mu = tuple(int(x) for x in args.mu.split(","))
        except ValueError as exc:
            raise UsageError(f"cannot parse type vector {args.mu!r}") from exc
        try:
            check_type(mu, order.n)
        except ValueError as exc:
            raise UsageError(f"--mu: {exc}") from exc
    else:
        mu = (1,) * order.n
    limit = args.max_n if args.max_n is not None else DEFAULT_SIZE_LIMIT
    if sum(mu) > limit:
        raise UsageError(
            f"total size {sum(mu)} exceeds the guardrail {limit}; "
            "pass --max-n to raise it"
        )
    return order, mu


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_expand(args) -> int:
    order, mu = _parse_instance(args)
    report = expansion(order, mu, args.basis)
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2) + "\n"
    elif args.format == "csv":
        parts = revlex_sorted(report.coefficients)
        width = max((c.degree for c in report.coefficients.values()), default=0) + 1
        lines = ["partition," + ",".join(f"q^{k}" for k in range(width))]
        for lam in parts:
            c = report.coefficients[lam]
            row = ["+".join(map(str, lam))]
            row += [str(c.coeff(k)) for k in range(width)]
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"poset {order.text()}  mu {','.join(map(str, mu))}  "
            f"basis {args.basis}  positive={report.positive}"
        ]
        for lam in revlex_sorted(report.coefficients):
            c = report.coefficients[lam]
            lines.append(
                f"  {str(list(lam)):<16} {c.pretty():<30} [{report.provenance[lam]}]"
            )
        text = "\n".join(lines) + "\n"
    _write(args, text)
    return 0


def cmd_classes(args) -> int:
    order, mu = _parse_instance(args)
    words = multinomial(mu)
    classes = enumerate_classes(order, mu)
    heaps = sum(map(len, classes))
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
        index = []
        for ci, cls in enumerate(classes):
            entry = {"class": ci, "ascents": cls.ascents, "heaps": []}
            for h in cls.heaps:
                name = "heap_" + order.word_text(h.canonical_word) + ".svg"
                with open(os.path.join(args.svg, name), "w") as f:
                    f.write(heap_svg(h))
                entry["heaps"].append(name)
            index.append(entry)
        with open(os.path.join(args.svg, "classes.json"), "w") as f:
            json.dump(index, f, indent=2)
    summary = f"words={words} heaps={heaps} classes={len(classes)}"
    if args.format == "json":
        data = {
            "poset": order.text(),
            "mu": list(mu),
            "words": words,
            "heaps": heaps,
            "classes": [
                {
                    "representative": order.word_text(c.representative),
                    "size": len(c),
                    "ascents": c.ascents,
                    "members": [order.word_text(h.canonical_word) for h in c.heaps],
                }
                for c in classes
            ],
        }
        text = json.dumps(data, indent=2) + "\n"
    else:
        lines = [summary]
        for c in classes:
            members = " ".join(order.word_text(h.canonical_word) for h in c.heaps)
            lines.append(f"  asc={c.ascents} [{members}]")
        text = "\n".join(lines) + "\n"
    _write(args, text)
    return 0


# ---------------------------------------------------------------------------
# verify suites
#
# Each suite yields (label, check) pairs, and cmd_verify runs every check
# through _run_checked. A value that two checks share is computed once
# (functools.cache); a failure is raised again for the second check.


def _run_checked(check) -> bool:
    """Run one check: it fails when it returns False or raises a
    MathematicalError, and passes otherwise (whatever else it returns)."""
    try:
        return check() is not False
    except MathematicalError:
        return False


def _suite_oracle(order, mu):
    asc = cache(lambda: coloring_qsym(order, mu))
    yield "oracle-vs-words", lambda: chromatic_sym(order, mu) == asc().to_symmetric()
    yield "asc-vs-des", lambda: asc() == coloring_qsym(order, mu, "des")


def _suite_commutation(order, mu):
    h = order.height
    for k in range(1, h + 1):
        for l in range(k, h + 1):
            yield f"e{k}-e{l}-commute", lambda k=k, l=l: (
                nc_e(order, k) * nc_e(order, l) == nc_e(order, l) * nc_e(order, k)
            )
    for k in range(1, min(sum(mu), 6) + 1):
        yield f"h{k}-relation", lambda k=k: nc_h(order, k) == nc_h(order, k, "relation")


def _suite_p_equiv(order, mu):
    for k in range(1, min(sum(mu), 6) + 1):
        yield f"p{k}-words-vs-relation", lambda k=k: nc_p(order, k) == nc_p(order, k, "relation")


def _suite_s_equiv(order, mu):
    for d in range(1, min(sum(mu), 4) + 1):
        for lam in partitions(d):
            yield f"s{list(lam)}-tableaux-vs-jt", lambda lam=lam: (
                nc_s(order, lam) == nc_s(order, lam, "jacobi_trudi")
            )


def _suite_sinks(order, mu):
    for k in range(1, sum(mu) + 1):
        yield f"sinks-k{k}", lambda k=k: sink_sum(order, mu, k)


def _suite_two_column(order, mu):
    d = sum(mu)
    for l in range(0, d // 2 + 1):
        k = d - l
        if k >= l:
            yield f"two-column-k{k}-l{l}", lambda k=k, l=l: coeff_e_two_column(order, mu, k, l)

    def closed_form():
        report = expansion(order, mu, "e")
        for lam in partitions(d):
            if max(lam) <= 2:
                got = report.coefficients.get(lam, QPoly())
                if got != closed_form_two_column(order, lam) or not got.is_unimodal():
                    return False
        return True

    if mu == (1,) * order.n and order.triangle_free:
        yield "two-column-closed-form", closed_form


def _suite_hook(order, mu):
    d = sum(mu)
    for l in range(1, d - 1):
        a = d - l - 1
        if a >= 1:
            yield f"hook-a{a}-l{l}", lambda a=a, l=l: coeff_e_hook(order, mu, a, l)


def _suite_hp(order, mu):
    h = order.height
    found = False
    for d in range(h, min(sum(mu), 6) + 1):
        for lam in partitions(d):
            if len(lam) >= h:
                found = True
                yield f"hp-{list(lam)}", lambda lam=lam: hp_recurrence_check(order, lam)
    if not found:
        yield "hp-no-applicable-shape", lambda: True


def _suite_positivity(order, mu):
    report = cache(lambda: positivity_report(order, mu))
    yield "classes-h-positive", lambda: report()["all_classes_h_positive"]
    yield "x-e-positive", lambda: report()["e_positive"]


SUITES = {
    "oracle": _suite_oracle,
    "commutation": _suite_commutation,
    "p-equiv": _suite_p_equiv,
    "s-equiv": _suite_s_equiv,
    "sinks": _suite_sinks,
    "two-column": _suite_two_column,
    "hook": _suite_hook,
    "hp-recurrence": _suite_hp,
    "positivity": _suite_positivity,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.poset is not None:
        order, mu = _parse_instance(args)
        instances = [(order, mu)]
    else:
        if args.mu is not None:
            raise UsageError("--mu needs --poset")
        max_n = args.max_n if args.max_n is not None else 4
        instances = [
            (order, (1,) * order.n)
            for n in range(1, max_n + 1)
            for order in UnitIntervalOrder.all_orders(n)
        ]
    lines = []
    failed = False
    for order, mu in instances:
        tag = f"{order.text()}/{','.join(map(str, mu))}"
        for name in names:
            for label, check in SUITES[name](order, mu):
                ok = _run_checked(check)
                lines.append(f"{'PASS' if ok else 'FAIL'} {tag} {name}:{label}")
                failed = failed or not ok
    # a run where no check applies writes nothing, not a lone newline
    text = "".join(line + "\n" for line in lines)
    _write(args, text)
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_n is not None and args.max_n < 1:
            raise UsageError("--max-n must be at least 1")
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "classes":
            return cmd_classes(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MathematicalError as exc:
        # before ValueError: NotSymmetricError is one, but not a usage error
        kind = "not symmetric: " if isinstance(exc, NotSymmetricError) else ""
        print(f"cross-check failure: {kind}{exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        # an instance too large to hold, such as a table of 2^(d-1) descent masks
        print(f"error: instance too large to compute ({type(exc).__name__})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
