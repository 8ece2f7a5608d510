"""Chromatic quasisymmetric functions of unit interval orders: the word
route and the basis expansions.

The word route is primary: it assembles the omega image of the function
as the sum over words w of q^inv(w) F_Des(w): a dynamic program over
word prefixes, keyed by (used multiset, bounds below the last letter),
sums the q-weights of every descent set in one int per state, and a
subset-sum transform (shared with the class functions of heap_sides)
turns the fundamental expansion into the monomial one; the symmetry
check then guards the result. X itself comes from the same descent
masks, each complemented: F_S -> F_{S^c} is omega on symmetric
functions. That complement is the one way omega is taken on the
quasisymmetric side: the e-checks read X in e directly, and the
h-positivity of a class function is read as the e-positivity of its
omega image, taken from the class words' complemented masks, so no
route reads h-coordinates.

Each independent route has a module of its own, which imports nothing
from this one at module level, and which this one imports only when an
expansion takes that route: the coloring oracle (oracle), the pairing
transfer behind f, p and s (pairing), and the heap sides of the e-checks
with the class functions (heap_sides). Theorem-driven coefficient
formulas (pairings, rank profiles of heaps, sink counts) are always
cross-checked against the basis change of the word route; a
disagreement raises CrossCheckError.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import _resolver
from .errors import CrossCheckError
from .partitions import (
    check_type,
    multinomial,
    partitions,
    revlex_sorted,
    subset_to_composition,
    z_factor,
)
from .posets import UnitIntervalOrder
from .qpoly import QPoly
from .symfunc import QSymFunc, SymFunc

# bound for benchmarks/child.py, which wraps these names in this
# namespace. expansion and the verify suites call coloring_qsym and
# coeff_e_* through it, so the wrappers see those calls; each name is
# imported from its module on first access.
__getattr__ = _resolver(
    __name__,
    {
        "heaps": ("enumerate_heaps", "enumerate_classes"),
        "ncsf": ("nc_h", "nc_p", "nc_s", "pair_gamma"),
        "partitions": ("multiset_permutations",),
        "oracle": ("proper_colorings", "coloring_qsym"),
        "heap_sides": ("coeff_e_two_column", "coeff_e_hook", "class_sym"),
    },
)


# ---------------------------------------------------------------------------
# word route


def omega_chromatic_qsym(order: UnitIntervalOrder, mu) -> QSymFunc:
    """The omega image of the chromatic function: the sum over words of
    type mu of q^inversions times the fundamental function of the
    descent set, computed by a dynamic program over word prefixes."""
    mu = tuple(mu)
    check_type(mu, order.n)
    # every coefficient, before and after the F -> M transform, is at
    # most the word count, so slots of this width never carry
    width = multinomial(mu).bit_length()
    return _fundamental_to_monomial(sum(mu), _descent_polys(order, mu, width), width)


def _fundamental_to_monomial(d, by_mask, width) -> QSymFunc:
    """The function sum over masks S of c_S F_S in the monomial basis.

    by_mask maps a descent mask (bit i-1 for position i) to c_S, a
    q-polynomial packed into one int with `width` bits per power of q; a
    plain count is a constant polynomial. Every coefficient after the
    transform is at most the sum of all c_S, which must fit the width.
    """
    f = [0] * (1 << max(d - 1, 0))
    for mask, packed in by_mask.items():
        f[mask] = packed
    # F_S is the sum of M_T over supersets T of S, so the coefficient of
    # M_T is the sum of the F-coefficients over subsets S of T
    for i in range(d - 1):
        bit = 1 << i
        for t in range(len(f)):
            if t & bit:
                f[t] += f[t ^ bit]
    terms = {}
    for t, packed in enumerate(f):
        if packed:
            cuts = [i + 1 for i in range(d - 1) if t >> i & 1]
            terms[subset_to_composition(d, cuts)] = _unpack(packed, width)
    return QSymFunc(d, terms)


def _descent_polys(order, mu, width) -> dict:
    """Descent mask -> sum of q^inversions over the words of type mu with
    that descent set, packed into one int with `width` bits per power of
    q. Bit i-1 of a mask stands for descent position i.

    Appending letter a to a prefix adds one inversion per earlier copy of
    a letter b in a+1..m_a (the larger letters incomparable to a), and a
    descent exactly when the last letter lies above a, i.e. exceeds m_a.
    So the prefixes are summed per (used multiset, group of the last
    letter: the bounds below it). `used` is one int, letter a owning mu_a
    bits from the bottom, so the inversions are a popcount. A state
    holds all its descent masks in one int, the mask the high index: a
    slot of (most inversions + 1) * width bits, whole bytes, per mask.
    The new descent bit is above every bit set so far, so the child for
    a letter of bound t is the groups up to t plus the others shifted
    once, summed group by group as t grows; its inversions shift it
    once more. One to_bytes pass cuts the last sum into masks.
    """
    m, n, d = order.m, len(mu), sum(mu)
    low = [0] + [1 << sum(mu[:a]) for a in range(n + 1)]  # letter -> lowest bit
    field = [y - x for x, y in zip(low, low[1:])]  # letter -> its bits
    group = [sum(t < a for t in set(m)) for a in range(n + 1)]  # letter -> bounds below it
    most = sum(mu[a - 1] * sum(mu[a : m[a - 1]]) for a in range(1, n + 1))
    size = -(-(most + 1) * width // 8)  # bytes per mask
    layer = {0: {0: 1}}  # used -> group of the last letter -> packed masks
    for k in range(d):
        bit = 8 * size << k - 1 if k else 0
        nxt: dict = {}
        while layer:  # the old layer is consumed as the new one grows
            used, by_group = layer.popitem()
            total = sum(by_group.values())
            groups = sorted(by_group.items(), reverse=True)
            t = below = 0
            for a in range(1, n + 1):
                if used & field[a] == field[a]:
                    continue
                if m[a - 1] > t:
                    # the last letters not above t: groups up to t's own
                    t = m[a - 1]
                    while groups and groups[-1][0] <= group[t]:
                        below += groups.pop()[1]
                    child = below + (total - below << bit)
                shift = (used & (low[t + 1] - low[a + 1])).bit_count() * width
                to = nxt.setdefault(used | (used & field[a]) + low[a], {})
                to[group[a]] = to.get(group[a], 0) + (child << shift)
        layer = nxt
    total = sum(p for by_group in layer.values() for p in by_group.values())
    raw = total.to_bytes(-(-total.bit_length() // 8), "little")
    cut = (int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size))
    return {mask: p for mask, p in enumerate(cut) if p}


def _unpack(packed: int, width: int) -> QPoly:
    slot = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & slot)
        packed >>= width
    return QPoly(coeffs)


def omega_chromatic_sym(order: UnitIntervalOrder, mu) -> SymFunc:
    return omega_chromatic_qsym(order, mu).to_symmetric()


def chromatic_sym(order: UnitIntervalOrder, mu) -> SymFunc:
    """The chromatic function itself, from the word DP with every descent
    mask complemented.

    The linear map psi(F_S) = F_{S^c} on quasisymmetric functions
    restricts to omega on symmetric functions, so summing
    q^inv F_{Des^c} over the words gives X from the same masks that give
    omega X. Complementing only permutes the masks, so the F- and
    M-coefficients are bounded by the same word count and the width of
    the packed slots is unchanged. The symmetry check in to_symmetric
    still guards the result; omega_chromatic_sym(...).omega() is the
    reference the tests compare against.
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    d = sum(mu)
    width = multinomial(mu).bit_length()
    by_mask = _complemented(d, _descent_polys(order, mu, width))
    return _fundamental_to_monomial(d, by_mask, width).to_symmetric()


def _complemented(d, by_mask) -> dict:
    """by_mask with every descent mask complemented in [d-1]: the map
    F_S -> F_{S^c}, which is omega on symmetric functions."""
    full = (1 << (d - 1)) - 1
    return {mask ^ full: c for mask, c in by_mask.items()}


# ---------------------------------------------------------------------------
# basis expansions


class ExpansionReport(
    namedtuple("ExpansionReport", "order mu basis degree coefficients provenance positive")
):
    """Coefficients of the chromatic function (or its omega image) in a
    basis, with per-partition provenance and positivity flags."""

    __slots__ = ()

    def __new__(cls, order, mu, basis, degree, coefficients, provenance):
        positive = all(c.is_nonnegative() for c in coefficients.values())
        return super().__new__(cls, order, mu, basis, degree, coefficients, provenance, positive)

    def __getnewargs__(self):
        return tuple(self)[:-1]  # positive is computed again

    def to_json(self) -> dict:
        parts = revlex_sorted(self.coefficients)
        return {
            "poset": self.order.text(),
            "mu": list(self.mu),
            "basis": self.basis,
            "degree": self.degree,
            "positive": self.positive,
            "terms": [
                {
                    "partition": list(lam),
                    "poly": self.coefficients[lam].to_json(),
                    "provenance": self.provenance[lam],
                }
                for lam in parts
            ],
        }


def expansion(order: UnitIntervalOrder, mu, basis: str) -> ExpansionReport:
    """Expand the chromatic function in a basis of {f, p, s, e, m, h}.

    f/p/s coefficients come from theorem pairings (pairing._pairings)
    and are cross-checked against the basis change of the word-route
    function. e coefficients additionally get theorem cross-checks at
    two-column and hook shapes, from the heap sides (heap_sides). Each
    of those modules is imported only when its basis is asked for.
    """
    mu = tuple(mu)
    d = sum(mu)
    coeffs: dict = {}
    prov: dict = {}
    if basis in ("f", "p", "s"):
        from .pairing import _pairings

        # <h_lam, Gamma_mu> is the m-coefficient of omega X, which is the
        # f-coefficient of X; <p_lam, Gamma_mu> is z_lam times the
        # p-coefficient of omega X, and <s_lam, Gamma_mu> its s-coefficient
        change = omega_chromatic_sym(order, mu).in_basis("m" if basis == "f" else basis)
        pairings = _pairings(order, mu, basis)
        for lam in partitions(d):
            theorem = pairings.get(lam, QPoly())
            other = change.get(lam, QPoly())
            if basis == "p":
                other = other * z_factor(lam)
            if theorem != other:
                raise CrossCheckError(
                    f"{basis}-coefficient of {lam}: pairing {theorem.pretty()} vs "
                    f"basis change {other.pretty()}"
                )
            if theorem:
                coeffs[lam] = theorem
                prov[lam] = "theorem+basis-change"
    elif basis == "e":
        # X read in e; the theorem checks below read the same source,
        # and are read through this namespace (see __getattr__)
        from .chromatic import coeff_e_hook, coeff_e_two_column

        for lam, c in _e_coefficients(order, mu).items():
            coeffs[lam] = c
            prov[lam] = "basis-change"
        for lam in partitions(d):
            tc, hk = _two_column_params(lam), _hook_params(lam)
            if tc is not None:
                coeff_e_two_column(order, mu, *tc)
            if hk is not None:
                coeff_e_hook(order, mu, *hk)
            if lam in coeffs and (tc or hk):
                prov[lam] = "theorem+basis-change"
    elif basis == "m":
        for lam, c in chromatic_sym(order, mu).terms.items():
            coeffs[lam] = c
            prov[lam] = "basis-change"
    elif basis == "h":
        for lam, c in omega_chromatic_sym(order, mu).in_basis("e").items():
            coeffs[lam] = c
            prov[lam] = "basis-change"
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return ExpansionReport(order, mu, basis, d, coeffs, prov)


def _two_column_params(lam):
    """(k, l) with lam = (2^l, 1^(k-l)), or None."""
    if any(p > 2 for p in lam):
        return None
    l = sum(1 for p in lam if p == 2)
    k = len(lam)
    return (k, l)


def _hook_params(lam):
    """(a, l) with lam = (a+1, 1^l), a, l >= 1, or None."""
    if len(lam) < 2 or lam[0] < 3 or any(p != 1 for p in lam[1:]):
        return None
    return (lam[0] - 1, len(lam) - 1)


@lru_cache(maxsize=1)
def _e_coefficients(order, mu) -> dict:
    """The e-coordinates of the chromatic function, from the basis change
    of the word route: the one source every e-check compares against.
    The heap sides of those checks (heap_sides) read no basis change,
    and read this when they compare. Like every per-instance cache here
    it holds the last instance only: a sweep asks for one instance at a
    time."""
    return chromatic_sym(order, mu).in_basis("e")
