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

from . import _resolver
from .errors import MathematicalError
from .partitions import check_type, multinomial, revlex_sorted
from .posets import UnitIntervalOrder

# bound for benchmarks/child.py, which wraps these names in this namespace;
# the commands import what they read when they run
__getattr__ = _resolver(
    __name__,
    {
        "chromatic": ("expansion", "coloring_qsym", "coeff_e_two_column", "coeff_e_hook"),
        "ncsf": ("nc_e", "nc_h", "nc_p", "nc_s"),
        "heaps": ("enumerate_heaps", "enumerate_classes"),
    },
)

DEFAULT_SIZE_LIMIT = 10

# the verify suites as chromheap.suites.SUITES orders them; only the
# verify command imports that module
SUITE_NAMES = (
    "oracle", "commutation", "p-equiv", "s-equiv", "sinks",
    "two-column", "hook", "hp-recurrence", "positivity",
)


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
        choices=[*SUITE_NAMES, "all"],
    )
    return parser


def _parse_instance(args):
    if args.poset is None:
        raise UsageError("--poset is required")
    order = UnitIntervalOrder.from_text(args.poset)
    if args.mu is not None:
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


def _write(args, *parts: str):
    """Write the parts in turn, to --out or stdout, without joining them."""
    if args.out:
        with open(args.out, "w") as f:
            f.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def cmd_expand(args) -> int:
    from .chromatic import expansion

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
    """List the flip classes as the walk closes them (heaps._flip_classes),
    one text chunk per class, with no Heap unless --svg draws one. Each
    JSON chunk is json.dumps of its class, indented one level further,
    so the whole reads as json.dumps(..., indent=2) of one dict."""
    from .heaps import _ascents, _flip_classes

    order, mu = _parse_instance(args)
    word_text = order.word_text
    as_json = args.format == "json"
    if args.svg:
        from .heaps import Heap
        from .render import heap_svg

        os.makedirs(args.svg, exist_ok=True)
        index = []
    chunks = []
    heaps = 0
    for members in _flip_classes(order, mu):
        cols = sorted(members[0][0])
        ascents = _ascents(cols, members[0][1])
        names = [word_text(w) for w, _ in members]
        heaps += len(names)
        if as_json:
            cls = {
                "representative": names[0],
                "size": len(names),
                "ascents": ascents,
                "members": names,
            }
            text = json.dumps(cls, indent=2).replace("\n", "\n    ")
            chunks.append(f'{"," if chunks else ""}\n    {text}')
        else:
            chunks.append(f"  asc={ascents} [{' '.join(names)}]\n")
        if args.svg:
            files = []
            for name, (_, lower) in zip(names, members):
                files.append(f"heap_{name}.svg")
                with open(os.path.join(args.svg, files[-1]), "w") as f:
                    f.write(heap_svg(Heap(order, cols, lower)))
            index.append({"class": len(index), "ascents": ascents, "heaps": files})
    if args.svg:
        with open(os.path.join(args.svg, "classes.json"), "w") as f:
            json.dump(index, f, indent=2)
    words = multinomial(mu)
    if as_json:
        head = {"poset": order.text(), "mu": list(mu), "words": words, "heaps": heaps}
        head = json.dumps(head, indent=2)[:-2]  # open: the classes follow
        _write(args, head, ',\n  "classes": [', *chunks, "\n  ]\n}\n")
    else:
        _write(args, f"words={words} heaps={heaps} classes={len(chunks)}\n", *chunks)
    return 0


def cmd_verify(args) -> int:
    from .suites import SUITES, _run_checked

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
        from .symfunc import NotSymmetricError

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
