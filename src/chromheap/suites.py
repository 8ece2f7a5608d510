"""The verify suites, imported only by the verify command.

Each suite yields (label, check) pairs, and cli.cmd_verify runs every
check through _run_checked. A value that two checks share is computed
once (functools.cache); a failure is raised again for the second check.
A suite imports what it reads when it runs. coloring_qsym, expansion
and coeff_e_* are read from chromatic, where benchmarks/child.py wraps
them, so the wrappers see the calls of the suites.
"""

from __future__ import annotations

from functools import cache

from .errors import MathematicalError
from .partitions import partitions


def _run_checked(check) -> bool:
    """Run one check: it fails when it returns False or raises a
    MathematicalError, and passes otherwise (whatever else it returns)."""
    try:
        return check() is not False
    except MathematicalError:
        return False


def _suite_oracle(order, mu):
    from .chromatic import chromatic_sym, coloring_qsym

    asc = cache(lambda: coloring_qsym(order, mu))
    yield "oracle-vs-words", lambda: chromatic_sym(order, mu) == asc().to_symmetric()
    yield "asc-vs-des", lambda: asc() == coloring_qsym(order, mu, "des")


def _suite_commutation(order, mu):
    from .ncsf import nc_e, nc_h

    h = order.height
    for k in range(1, h + 1):
        for l in range(k, h + 1):
            yield f"e{k}-e{l}-commute", lambda k=k, l=l: (
                nc_e(order, k) * nc_e(order, l) == nc_e(order, l) * nc_e(order, k)
            )
    for k in range(1, min(sum(mu), 6) + 1):
        yield f"h{k}-relation", lambda k=k: nc_h(order, k) == nc_h(order, k, "relation")


def _suite_p_equiv(order, mu):
    from .ncsf import nc_p

    for k in range(1, min(sum(mu), 6) + 1):
        yield f"p{k}-words-vs-relation", lambda k=k: nc_p(order, k) == nc_p(order, k, "relation")


def _suite_s_equiv(order, mu):
    from .ncsf import nc_s

    for d in range(1, min(sum(mu), 4) + 1):
        for lam in partitions(d):
            yield f"s{list(lam)}-tableaux-vs-jt", lambda lam=lam: (
                nc_s(order, lam) == nc_s(order, lam, "jacobi_trudi")
            )


def _suite_sinks(order, mu):
    from .heap_sides import sink_sum

    for k in range(1, sum(mu) + 1):
        yield f"sinks-k{k}", lambda k=k: sink_sum(order, mu, k)


def _suite_two_column(order, mu):
    from .chromatic import coeff_e_two_column, expansion
    from .heap_sides import closed_form_two_column
    from .qpoly import QPoly

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
    from .chromatic import coeff_e_hook

    d = sum(mu)
    for l in range(1, d - 1):
        a = d - l - 1
        if a >= 1:
            yield f"hook-a{a}-l{l}", lambda a=a, l=l: coeff_e_hook(order, mu, a, l)


def _suite_hp(order, mu):
    from .ncsf import hp_recurrence_check

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
    from .heap_sides import positivity_report

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
