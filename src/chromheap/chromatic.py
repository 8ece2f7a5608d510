"""Chromatic quasisymmetric functions of unit interval orders.

Two independent routes are provided. The word route is primary: it
assembles the omega image of the function as the sum over words w of
q^inv(w) F_Des(w): a dynamic program over word prefixes, keyed by (used
multiset, bounds below the last letter), sums the q-weights of every
descent set in one int per state, and a subset-sum transform (shared
with the heap and class functions) turns the fundamental expansion into
the monomial one; the symmetry check then guards the result. X itself
comes from the same descent masks, each complemented: F_S -> F_{S^c} is
omega on symmetric functions. That complement is the one way omega is
taken on the quasisymmetric side: the e-checks read X in e directly,
and the h-positivity of a class function is read as the e-positivity of
its omega image, taken from the class words' complemented masks, so no
route reads h-coordinates. The coloring oracle checks it: a transfer
over the vertex use counts sums the gapless proper colorings with d =
sum(mu) colors one color class, a chain of the order, at a time, the
ascents and descents each on its own formula. It shares no code with
the word route. The loops over all words and all colorings of the type
live in the tests, as the references they compare against.
Theorem-driven coefficient formulas (pairings, rank profiles of heaps,
sink counts) are always cross-checked against the linear-algebra route;
a disagreement raises CrossCheckError. The heap sides of the two-column
and hook checks share one cached walk over the canonical words of a
type, which reads the statistics of each heap, W components included,
as its blocks drop and builds no Heap; the sink check sums the same
words by a transfer over prefix states.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb, prod

from .errors import MathematicalError
from .heaps import HeapClass, descent_positions, enumerate_classes
from .heaps import _drop_tables, _forbidden_paths

# unused here; bound for benchmarks/child.py, which wraps them in this namespace
from .heaps import enumerate_heaps  # noqa: F401
from .ncsf import nc_h, nc_p, nc_s, pair_gamma  # noqa: F401
from .partitions import multiset_permutations  # noqa: F401
from .partitions import (
    check_type,
    conjugate,
    multinomial,
    partitions,
    revlex_sorted,
    subset_to_composition,
    z_factor,
)
from .posets import UnitIntervalOrder
from .qpoly import QPoly
from .symfunc import QSymFunc, SymFunc


class CrossCheckError(MathematicalError, AssertionError):
    """Two supposedly equal computation paths disagreed."""


# ---------------------------------------------------------------------------
# coloring oracle


def proper_colorings(order: UnitIntervalOrder, mu, colors: int, *, gapless=False):
    """All proper multi-colorings: vertex a gets mu[a-1] colors from
    [colors], disjoint across incomparability edges. Each is a dict
    vertex -> color tuple over the vertices of positive type, collected
    by one recursion over the vertices in increasing order, before the
    first is yielded. A color set (bit c for color c) is blocked when it
    meets the OR of the sets of the earlier neighbours.

    With gapless=True only the colorings whose colors are exactly
    {1..k} for some k are yielded. A partial coloring is dropped as soon
    as its gaps (largest color used minus the number of distinct colors
    used) outnumber the color slots still to fill. Each slot fills at
    most one gap, so the prune is exact. A gapless coloring uses at most
    sum(mu) colors, so no more are offered.
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    if gapless:
        colors = min(colors, sum(mu))
    verts = [a for a in range(1, order.n + 1) if mu[a - 1] > 0]
    k = len(verts)
    # slots[i]: colors still to hand out once the first i vertices have theirs
    slots = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        slots[i] = slots[i + 1] + mu[verts[i] - 1]
    palette = range(1, colors + 1)
    choices = [
        [(sum(1 << c for c in combo), combo) for combo in combinations(palette, mu[a - 1])]
        for a in verts
    ]
    at = {a: i for i, a in enumerate(verts)}
    earlier = [[at[b] for b in order.neighbors(a) if b < a and b in at] for a in verts]
    masks = [0] * k
    picked = [()] * k
    found = []

    def rec(idx, used):
        if idx == k:
            found.append(dict(zip(verts, picked)))
            return
        blocked = 0
        for j in earlier[idx]:
            blocked |= masks[j]
        for mask, combo in choices[idx]:
            if mask & blocked:
                continue
            now = used | mask
            if gapless and now.bit_length() - 1 - now.bit_count() > slots[idx + 1]:
                continue
            masks[idx] = mask
            picked[idx] = combo
            rec(idx + 1, now)

    rec(0, 0)
    yield from found


def coloring_qsym(order: UnitIntervalOrder, mu, stat: str = "asc") -> QSymFunc:
    """The coloring generating function in the quasisymmetric monomial
    basis, summed over the proper colorings with d = sum(mu) colors.

    The coefficient of M_alpha counts the colorings that use color i
    exactly alpha_i times for i = 1..k, so only the gapless colorings
    (color set {1..k}, k <= d) reach a coefficient. One transfer over
    color classes (_coloring_tally) tallies both statistics, so the asc
    and des functions of one instance, asked for in turn, cost one.
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    if stat not in ("asc", "des"):
        raise ValueError(f"unknown statistic {stat!r}")
    asc, des = _coloring_tally(order, mu)
    return QSymFunc(sum(mu), asc if stat == "asc" else des)


@lru_cache(maxsize=1)
def _coloring_tally(order, mu) -> tuple:
    """({composition: QPoly in q^ascents}, {composition: QPoly in
    q^descents}) over the gapless proper colorings with sum(mu) colors.

    Each color class is a chain of the order, so the colors 1, 2, ... go
    out in turn, each to a nonempty chain of the vertices with room. All
    earlier colors are smaller, so putting x in the new class adds one
    ascent per earlier color on an incomparable b < x (lo_x <= b < x)
    and one descent per earlier color on an incomparable b > x (x < b <=
    m_x): two formulas, neither the complement of the other. The state
    is the use counts as one int, vertex a owning mu_a bits, so a gain is
    a popcount. It maps the cuts of the composition so far (bit k-1 for
    partial sum k) to the q^asc and q^des sums, packed with `width` bits
    per power of q. States are layered by the color slots filled; the
    last layer's one state is the tally. prod C(d, mu_a) bounds every
    coloring with d colors, and a partial sequence completes with
    singleton classes, so that bound fixes the width. It shares no code
    with the word route or the pairing and sink transfers. The cache
    holds the last instance, all that a sweep's asc-vs-des pair reads.
    """
    n, m, d = order.n, order.m, sum(mu)
    width = prod(comb(d, k) for k in mu).bit_length()
    low = [0] + [1 << sum(mu[:a]) for a in range(n + 1)]  # vertex -> lowest bit
    lo = [0] + [min(c for c in range(1, x + 1) if m[c - 1] >= x) for x in range(1, n + 1)]
    # per vertex x, falling: its bits, lowest bit, the incomparable vertices
    # below it (lo_x..x-1) and above it (x+1..m_x), the first vertex past m_x
    table = [
        (x, low[x + 1] - low[x], low[x], low[x] - low[lo[x]], low[y] - low[x + 1], y)
        for x, y in ((x, m[x - 1] + 1) for x in range(n, 0, -1))
    ]
    layers: list = [{} for _ in range(d + 1)]  # slots filled -> used -> cuts -> [asc, des]
    layers[0][0] = {0: [1, 1]}
    for k in range(d):
        cut = 1 << k - 1 if k else 0
        for used, by_cuts in layers[k].items():
            # (used after, asc shift, des shift, size) per chain, by falling
            # first vertex; ends[j]: how many start at j or above
            moves: list = []
            ends = [0] * (n + 2)
            for x, field, bit, under, over, past in table:
                if used & field != field:
                    grown = used | (used & field) + bit
                    a = (used & under).bit_count() * width
                    b = (used & over).bit_count() * width
                    moves += [(grown, a, b, 1)] + [
                        (grown | g, a + u, b + v, s + 1) for g, u, v, s in moves[: ends[past]]
                    ]
                ends[x] = len(moves)
            items = [(cuts | cut, p, q) for cuts, (p, q) in by_cuts.items()]
            for grown, up, down, size in moves:
                layer = layers[k + size]
                to = layer.get(grown)
                if to is None:
                    layer[grown] = {key: [p << up, q << down] for key, p, q in items}
                    continue
                for key, p, q in items:
                    if (pair := to.get(key)) is None:
                        to[key] = [p << up, q << down]
                    else:
                        pair[0] += p << up
                        pair[1] += q << down
        layers[k].clear()
    (tally,) = layers[d].values()
    slot, seen = (1 << width) - 1, {}  # packed -> QPoly, shared by equal sums
    out: tuple = ({}, {})
    for cuts, pair in tally.items():
        alpha = subset_to_composition(d, [i + 1 for i in range(d - 1) if cuts >> i & 1])
        for side, p in zip(out, pair):
            if p not in seen:
                seen[p] = QPoly([p >> i * width & slot for i in range(p.bit_length() // width + 1)])
            side[alpha] = seen[p]
    return out


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
# heap and class generating functions


def class_qsym(cls: HeapClass) -> QSymFunc:
    """Fundamental-basis sum over the words of every heap in the class."""
    return _fundamental_to_monomial(*_class_masks(cls))


def _class_masks(cls):
    first = cls.heaps[0]
    words = [w for h in cls.heaps for w in h.words()]
    return _word_masks(first.order, first.size, words)


def _word_masks(order, d, words):
    """(d, descent mask -> words with that descent set, slot width): the
    arguments of _fundamental_to_monomial for the sum of F_Des(w) over
    the words, which changes to the monomial basis once."""
    counts: dict = {}
    for w in words:
        mask = 0
        for i in descent_positions(order, w):
            mask |= 1 << (i - 1)
        counts[mask] = counts.get(mask, 0) + 1
    return d, counts, max(len(words).bit_length(), 1)


def class_sym(cls: HeapClass) -> SymFunc:
    """The class generating function, which is genuinely symmetric."""
    return class_qsym(cls).to_symmetric()


# ---------------------------------------------------------------------------
# basis expansions


class ExpansionReport:
    """Coefficients of the chromatic function (or its omega image) in a
    basis, with per-partition provenance and positivity flags."""

    _FIELDS = ("order", "mu", "basis", "degree", "coefficients", "provenance", "positive")

    def __init__(self, order, mu, basis, degree, coefficients, provenance):
        self.order = order
        self.mu = mu
        self.basis = basis
        self.degree = degree
        self.coefficients = coefficients
        self.provenance = provenance
        self.positive = all(c.is_nonnegative() for c in coefficients.values())

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # the fields are mutable

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._FIELDS, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

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

    f/p/s coefficients come from theorem pairings (see _pairings) and
    are cross-checked against the basis change of the word-route
    function. e coefficients additionally get theorem cross-checks at
    two-column and hook shapes.
    """
    mu = tuple(mu)
    d = sum(mu)
    coeffs: dict = {}
    prov: dict = {}
    if basis in ("f", "p", "s"):
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
        # X read in e; the theorem checks below read the same source
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


def _pairings(order, mu, basis) -> dict:
    """{lam: <g_lam, Gamma_mu>} over the partitions lam of sum(mu) with a
    nonzero pairing, g the noncommutative h, p or s for basis f, p or s:
    the sum of q^inv(w) over the words w of type mu that g_lam sums.

    Both straightening relations keep a word's type and inversion count,
    and a letter b after a prefix of type `used` adds #{a in used: b < a
    <= m_b} inversions. So one transfer over states sums the pairing a
    letter at a time without listing a word, each q-polynomial packed
    into an int of `width` bits per power of q. The words of h_lam and
    p_lam are cut into runs of lengths lam_1, lam_2, ...: in a run b may
    follow a when a <= m_b, and for p only when b is at most the largest
    bound m_x in the run so far, or b would lie above every earlier
    letter of the run. s_lam sums the reading words of the P-tableaux of
    shape lam, whose columns, P-chains of lengths lam', are filled
    top-down: a column read bottom-up has no inversion, so the order in
    which its letters are appended does not matter. The prefixes of lam
    (of lam') are walked depth first, so partitions share their states.

    It calls none of _descent_polys, _fundamental_to_monomial, _unpack,
    to_symmetric and in_basis, so the basis change checks it from the
    outside. The f side sums over the words whose descents lie among the
    breakpoints of lam, as the M_lam coefficient of the word route does:
    a check between two pieces of code. p (unique sinks) and s
    (P-tableaux) are checks between theorems.
    """
    n, m, d = order.n, order.m, sum(mu)
    width = multinomial(mu).bit_length()  # no coefficient exceeds the word count
    slot = (1 << width) - 1
    pairings: dict = {}

    @lru_cache(maxsize=None)
    def moves(state):
        """[(letter, next state)] for every letter that may come next."""
        if basis == "s":
            # the column grows downwards along a P-chain, and an entry x of
            # the column on its left needs x <= m_y of the entry y in its row
            left, col = state
            return [
                (y, (left, col + (y,)))
                for y in range(1, n + 1)
                if (not col or y > m[col[-1] - 1]) and (not left or left[len(col)] <= m[y - 1])
            ]
        last, top = state or (0, 0)
        return [
            (b, (b, max(top, m[b - 1]) if basis == "p" else n))
            for b in range(1, n + 1)
            if not last or last <= m[b - 1] and b <= top
        ]

    def step(layer):
        # layer: used -> state -> packed polynomial
        out: dict = {}
        for used, by_state in layer.items():
            # letter b with room left -> (used after it, its inversions as a shift)
            grow = {
                b: (used[: b - 1] + (used[b - 1] + 1,) + used[b:], sum(used[b:top]) * width)
                for b, top in enumerate(m, 1)
                if used[b - 1] < mu[b - 1]
            }
            for state, packed in by_state.items():
                for b, after in moves(state):
                    if b in grow:
                        t, shift = grow[b]
                        acc = out.setdefault(t, {})
                        acc[after] = acc.get(after, 0) + (packed << shift)
        return out

    def walk(parts, rest, layer):
        if not layer:
            return
        if not rest:
            packed = sum(layer[mu].values())
            pairings[conjugate(parts) if basis == "s" else parts] = QPoly(
                [packed >> i * width & slot for i in range(packed.bit_length() // width + 1)]
            )
            return
        if parts and (len(parts) == 1 or parts[-1] < parts[-2]):
            # the last run or column takes one more letter
            walk(parts[:-1] + (parts[-1] + 1,), rest - 1, step(layer))
        # a new run forgets the last one; a new column has it on its left
        fresh: dict = {}
        for used, by_state in layer.items():
            acc = fresh.setdefault(used, {})
            for state, packed in by_state.items():
                key = (state[1], ()) if basis == "s" else ()
                acc[key] = acc.get(key, 0) + packed
        walk(parts + (1,), rest - 1, step(fresh))

    walk((), d, {(0,) * n: {((), ()): 1}})  # the empty prefix only starts a part
    return pairings


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


# ---------------------------------------------------------------------------
# theorem-path e-coefficients


@lru_cache(maxsize=1)
def _e_coefficients(order, mu) -> dict:
    """The e-coordinates of the chromatic function, from the basis change
    of the word route: the one source every e-check compares against.
    The heap sides of those checks read no basis change. Like every
    per-instance cache here it holds the last instance only: a sweep
    asks for one instance at a time."""
    return chromatic_sym(order, mu).in_basis("e")


def _check_e(order, mu, lam, got, what):
    """Raise CrossCheckError unless the heaps give the basis-change
    e-coefficient of lam (zero when lam is not a partition of sum(mu))."""
    want = QPoly()
    if lam and sum(lam) == sum(mu):
        want = _e_coefficients(order, mu).get(lam, QPoly())
    if got != want:
        raise CrossCheckError(
            f"{what} e-coefficient of {lam}: heaps give {got.pretty()}, "
            f"basis change gives {want.pretty()}"
        )
    return got


# Sums of q^ascents over the heaps of one type, one q-polynomial per
# bucket; a heap may fall in both. The fields are dicts:
#   two_column: (n1, n2) -> rank <= 2 heaps, no W component
#   hooks: l -> heaps in the hook family for l (l + 1 sinks)
_EHeapSums = namedtuple("_EHeapSums", "two_column hooks")


@lru_cache(maxsize=1)
def _e_heap_sums(order, mu) -> _EHeapSums:
    """One walk over the descent-free words of type mu, the canonical
    words of its heaps, for the two-column and hook checks. It reads the
    heaps alone, never the basis change.

    Each block is read as it drops, as in heaps._drop and from the same
    tables (heaps._drop_tables): its lower mask is the blocks dropped so
    far in the columns touching its own. So its rank is one more than
    the highest top rank among those columns (a sink when that is 0),
    and its ascents are its lower blocks past the end of its column, as
    in Heap.ascents. The walk keeps the rank of each block and the lower
    masks of the rank-2 blocks, and builds no Heap. Blocks are adjacent
    exactly when their columns touch, so every heap of the type has the
    same components, one id range per run of its columns
    (UnitIntervalOrder.runs), taken once. A component of a rank <= 2
    heap is W when it has one rank-2 block more than rank-1 blocks: when
    twice its rank-2 blocks, read off the ranks, are its size plus one.
    Test (C) of a hook candidate whose two rank-2 blocks pass (A) and
    (B), that is, have equal lower masks (see coeff_e_hook), asks the
    masks for a first forbidden path (heaps._forbidden_paths).

    The walk enters a letter a only when the letters left can follow it
    in a descent-free word, that is, when the lowest run of their
    columns (UnitIntervalOrder.runs) reaches a column not below a. If
    it does not, that run is a component of every heap of the letters
    left, so the least sink, where a canonical word starts, lies below
    a. If it does, dropping the letters not below a first and then the
    others run by run puts every sink in a column not below a.

    It goes on past a block only while the heap can reach a bucket:
    rank <= 2, or a hook: at most two rank-2 blocks, two only with equal
    lower masks, and two sinks counting those that can still land, one
    per column left that touches no dropped block. Rank, the rank-2
    blocks and the sinks only grow, so no heap of a bucket is lost.
    _sink_polys sums the sinks of every heap.
    """
    check_type(mu, order.n)
    d, n = sum(mu), order.n
    alphabet = range(1, n + 1)
    below, touch = order.below, order.touch
    touching = [tuple(c for c in alphabet if t >> c & 1) for t in touch]
    follow = [tuple(b for b in alphabet if not below[a] >> b & 1) for a in range(n + 1)]
    cols, first, near = _drop_tables(order, mu)
    end = [f + x for f, x in zip(first, (0, *mu))]  # column -> id past its top
    comps = [(first[r[0]], end[r[-1]]) for r in order.runs(cols)]  # id ranges
    room = [0, *mu]
    top = [0] * (n + 1)  # column -> rank of its top block
    run_top: dict = {}  # mask of the columns left -> top of their lowest run
    lower = [0] * d  # block -> blocks directly below it, as it drops
    levels = [0] * d  # block -> its rank, as it drops
    rank2: list = []  # lower masks of the rank-2 blocks
    two_column: Counter = Counter()  # (bucket, ascents) -> heaps
    hooks: Counter = Counter()

    def leaf(k, asc, high):
        n2 = len(rank2)
        if high <= 2 and all(2 * levels[lo:hi].count(2) != hi - lo + 1 for lo, hi in comps):
            two_column[(d - n2, n2), asc] += 1
        # (A) and (B): two rank-2 blocks with equal lower masks; (C) stops at a path
        paired = n2 == 2 and rank2[0] == rank2[1]
        if k > 1 and (n2 == 1 or paired and not any(_forbidden_paths(touch, cols, lower, levels))):
            hooks[k - 1, asc] += 1

    def walk(letters, left, k, asc, high, dropped, fresh):
        # fresh: the columns touching no dropped block, where a sink can land
        if not left:
            return leaf(k, asc, high)
        for a in letters:
            if not room[a]:
                continue
            rest = left ^ 1 << a if room[a] == 1 else left
            if rest:
                if rest not in run_top:
                    run_top[rest] = order.runs(c for c in alphabet if rest >> c & 1)[0][-1]
                if below[a] >> run_top[rest] & 1:
                    continue
            r = 1 + max(map(top.__getitem__, touching[a]))
            b = first[a]
            under = lower[b] = dropped & near[a]
            levels[b] = r
            if r == 2:
                rank2.append(under)
            sinks, free = k + (r == 1), fresh & ~touch[a]
            if r <= 2 and high <= 2 or sinks + (rest & free).bit_count() > 1 and (
                len(rank2) < 2 or len(rank2) == 2 and rank2[0] == rank2[1]
            ):
                room[a] -= 1
                first[a] = b + 1
                was = top[a]
                top[a] = r
                up = (under >> end[a]).bit_count()
                high_now = r if r > high else high
                walk(follow[a], rest, sinks, asc + up, high_now, dropped | 1 << b, free)
                top[a] = was
                first[a] = b
                room[a] += 1
            if r == 2:
                rank2.pop()

    start = sum(1 << a for a in alphabet if mu[a - 1])
    walk(follow[0], start, 0, 0, 0, 0, start)
    return _EHeapSums(_polys(two_column), _polys(hooks))


@lru_cache(maxsize=1)
def _sink_polys(order, mu) -> dict:
    """{k: sum of q^ascents over the heaps of type mu with k sinks}, by a
    transfer over their descent-free words, no heap or word listed. A
    letter b may follow a when a <= m_b; it is a sink when no earlier
    letter lies in a column touching b, lo_b..m_b, and adds one ascent
    per earlier letter in b+1..m_b. So the words are summed per (used,
    last letter), packed in one int: `width` bits per power of q, and a
    stride past every power per sink. The word DP and the pairing
    transfer walk such states too; this shares no code with either.
    """
    check_type(mu, order.n)
    n, m, d = order.n, order.m, sum(mu)
    width = multinomial(mu).bit_length()  # no coefficient exceeds the heap count
    powers = d * (d - 1) // 2 + 1  # no heap has more ascents than block pairs
    lo = [min(c for c in range(1, b + 1) if m[c - 1] >= b) for b in range(1, n + 1)]
    layer = {(0,) * n: {0: 1}}  # used -> last letter -> packed sum
    for _ in range(d):
        nxt: dict = {}
        for used, by_last in layer.items():
            for b, top in enumerate(m, 1):
                if used[b - 1] == mu[b - 1]:
                    continue
                if p := sum(by_last.get(a, 0) for a in range(top + 1)):
                    sink = not any(used[lo[b - 1] - 1 : top])
                    shift = (sum(used[b:top]) + sink * powers) * width
                    grown = used[: b - 1] + (used[b - 1] + 1,) + used[b:]
                    nxt.setdefault(grown, {})[b] = p << shift
        layer = nxt
    total = sum(sum(by_last.values()) for by_last in layer.values())
    slots = range(total.bit_length() // width + 1)
    counts = {divmod(i, powers): total >> i * width & (1 << width) - 1 for i in slots}
    return _polys(+Counter(counts))  # (sinks, ascents) -> heaps


def _polys(counts) -> dict:
    """{(key, exponent): count} as {key: QPoly}."""
    by_key: dict = {}
    for (key, k), c in counts.items():
        by_key.setdefault(key, {})[k] = c
    return {
        key: QPoly([by_exp.get(k, 0) for k in range(max(by_exp) + 1)])
        for key, by_exp in by_key.items()
    }


def coeff_e_two_column(order: UnitIntervalOrder, mu, k: int, l: int) -> QPoly:
    """e-coefficient at (2^l, 1^(k-l)): heaps with k rank-1 blocks and
    l rank-2 blocks and no connected component of type W."""
    mu = tuple(mu)
    check_type(mu, order.n)
    if not k >= l >= 0:
        raise ValueError("need k >= l >= 0")
    out = QPoly()
    if k + l == sum(mu):
        out = _e_heap_sums(order, mu).two_column.get((k, l), out)
    return _check_e(order, mu, (2,) * l + (1,) * (k - l), out, "two-column")


def coeff_e_hook(order: UnitIntervalOrder, mu, a: int, l: int) -> QPoly:
    """e-coefficient at (a+1, 1^l): the sum of q^ascents over the heaps
    with a+l+1 blocks in the hook family for l.

    A heap is in the hook family for l when it has l+1 sinks and either
    exactly one rank-2 block, or exactly two rank-2 blocks p and r with
      (A) a rank-1 block q that makes (p, q, r) a flippable triple,
      (B) q the only block directly below p and the only one directly
          below r, and
      (C) no forbidden path anywhere in the heap (Heap.forbidden_paths).
    Together (A) and (B) say just that p and r have the same blocks
    directly below them, all of rank 1. Then the columns of p and r do
    not touch, or one of p, r would lie directly below the other. Nor
    can two blocks q1, q2 lie below: their columns would not touch each
    other (both have rank 1) but would touch those of p and r, so the
    four columns would span an induced 4-cycle of the incomparability
    graph, which is chordal. So one block q lies below, covered by both
    p and r, and (p, q, r) flips.
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    if a < 1 or l < 1:
        raise ValueError("need a, l >= 1")
    out = QPoly()
    if a + l + 1 == sum(mu):
        out = _e_heap_sums(order, mu).hooks.get(l, out)
    return _check_e(order, mu, (a + 1,) + (1,) * l, out, "hook")


def sink_sum(order: UnitIntervalOrder, mu, k: int) -> QPoly:
    """Sum of q^ascents over type-mu heaps with exactly k sinks, from the
    sink transfer (_sink_polys); equals the sum of e-coefficients over
    partitions of length k."""
    mu = tuple(mu)
    if k < 1:
        raise ValueError("need k >= 1")
    out = _sink_polys(order, mu).get(k, QPoly())
    want = sum((c for lam, c in _e_coefficients(order, mu).items() if len(lam) == k), QPoly())
    if out != want:
        raise CrossCheckError(
            f"sink sum k={k}: heaps give {out.pretty()}, e-report row "
            f"sums give {want.pretty()}"
        )
    return out


def closed_form_two_column(order: UnitIntervalOrder, lam) -> QPoly:
    """Closed form for two-column e-coefficients when the
    incomparability graph is triangle-free (a disjoint union of paths),
    with mu = (1^n)."""
    lam = tuple(lam)
    n = order.n
    if not order.triangle_free:
        return QPoly()  # a triangle forces every heap to rank >= 3
    sizes = [len(r) for r in order.runs(range(1, n + 1))]
    n_e = sum(1 for s in sizes if s % 2 == 0)
    n_o = len(sizes) - n_e
    if (n + n_o) % 2:
        return QPoly()
    target = tuple(c for c in ((n + n_o) // 2, (n - n_o) // 2) if c)
    if conjugate(lam) != target:
        return QPoly()
    power = (n - 2 * n_e - n_o) // 2
    return QPoly.monomial(power) * (QPoly((1, 1)) ** n_e)


# ---------------------------------------------------------------------------
# conjecture evidence


def positivity_report(order: UnitIntervalOrder, mu) -> dict:
    """Report (never assert) h-positivity of each class function and
    e-positivity of the chromatic function.

    A class function is h-positive when its omega image is e-positive,
    and that image comes from the class words' descent masks
    complemented, as X does in chromatic_sym."""
    mu = tuple(mu)
    classes = enumerate_classes(order, mu)
    class_reports = []
    for cls in classes:
        d, counts, width = _class_masks(cls)
        omega_cls = _fundamental_to_monomial(d, _complemented(d, counts), width)
        class_reports.append(
            {
                "representative": order.word_text(cls.representative),
                "size": len(cls),
                "ascents": cls.ascents,
                "h_positive": omega_cls.to_symmetric().is_positive_in("e"),
            }
        )
    e_report = expansion(order, mu, "e")
    return {
        "poset": order.text(),
        "mu": list(mu),
        "classes": class_reports,
        "all_classes_h_positive": all(r["h_positive"] for r in class_reports),
        "e_positive": e_report.positive,
    }
