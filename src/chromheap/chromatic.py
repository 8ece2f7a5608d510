"""Chromatic quasisymmetric functions of unit interval orders.

Two independent routes are provided. The oracle walks the proper
multi-colorings with a finite color supply, only the gapless ones that
reach a monomial coefficient, in one plain recursion that carries the
color use counts and the ascent and descent counts as running ints, each
statistic on its own formula; one walk tallies both. The word route
assembles the omega image of the function as the sum over words w of
q^inv(w) F_Des(w): a dynamic program over word prefixes, keyed by (used
multiset, last letter), sums the q-weights per descent set, and a
subset-sum transform (shared with the heap and class functions) turns
the fundamental expansion into the monomial one; the symmetry check then
guards the result. X itself comes from the same descent masks, each
complemented: F_S -> F_{S^c} is omega on symmetric functions. The word
route shares no code with the coloring walk. The loop over all words of
the type, omega_chromatic_qsym_by_words, is kept as the reference the
tests compare against. Theorem-driven coefficient formulas (pairings, rank
profiles of heaps, sink counts) are always cross-checked against the
linear-algebra route; a disagreement raises CrossCheckError. The heap
sides of the e-checks share one cached pass over the heaps of a type.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import MathematicalError
from .heaps import (
    Heap,
    HeapClass,
    descent_free_words,
    descent_positions,
    enumerate_classes,
    enumerate_heaps,
    inversion_count,
)
from .ncsf import enumerate_tableaux, reading_word, unique_sink_words

# unused here; bound for benchmarks/child.py, which wraps them in this namespace
from .ncsf import nc_h, nc_p, nc_s, pair_gamma  # noqa: F401
from .partitions import (
    check_type,
    conjugate,
    multinomial,
    multiset_permutations,
    partitions,
    revlex_sorted,
    subset_to_composition,
    word_type,
    z_factor,
)
from .posets import UnitIntervalOrder
from .qpoly import QPoly, q_factorial
from .symfunc import QSymFunc, SymFunc


class CrossCheckError(MathematicalError, AssertionError):
    """Two supposedly equal computation paths disagreed."""


# ---------------------------------------------------------------------------
# coloring oracle


def _coloring_walk(order, mu, colors, gapless, leaf):
    """Visit every proper multi-coloring of type mu with colors from
    [colors] once, calling leaf(picked, uses, top, asc, des) at each.

    The vertices of positive type are colored in increasing order, each
    from its color sets listed once as (bitmask, (vertex, colors))
    pairs, bit c for color c. A set is blocked when it meets the OR of
    the masks of the earlier neighbours. At a leaf, picked lists (vertex, colors) in
    vertex order, uses[c] counts the vertices holding color c, and top is
    the largest color used. asc and des are running counts of the color
    pairs across an edge that increase, resp. decrease, with the vertex
    labels: color c at a vertex adds, per earlier neighbour with mask M,
    the bits of M below c to asc and the bits above c to des. Each is
    counted on its own formula, never as the complement of the other.

    With gapless=True only the colorings whose colors are exactly
    {1..k} for some k reach the leaf. A partial coloring is dropped as
    soon as its gaps (largest color used minus the number of distinct
    colors used) outnumber the color slots still to fill. Each slot fills
    at most one gap, so no dropped branch could end gapless, and a leaf
    has no slot left, so every leaf is gapless.
    """
    verts = [a for a in range(1, order.n + 1) if mu[a - 1] > 0]
    k = len(verts)
    # slots[i]: colors still to hand out once the first i vertices have theirs
    slots = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        slots[i] = slots[i + 1] + mu[verts[i] - 1]
    choices = [
        [
            (sum(1 << c for c in combo), (a, combo))
            for combo in combinations(range(1, colors + 1), mu[a - 1])
        ]
        for a in verts
    ]
    at = {a: i for i, a in enumerate(verts)}
    earlier = [[at[b] for b in order.neighbors(a) if b < a and b in at] for a in verts]
    masks = [0] * k
    picked = [None] * k
    uses = [0] * (colors + 1)  # vertices holding each color

    def rec(idx, used, asc, des):
        if idx == k:
            leaf(picked, uses, used.bit_length() - 1, asc, des)
            return
        below = [masks[j] for j in earlier[idx]]
        blocked = 0
        for m in below:
            blocked |= m
        room = slots[idx + 1]
        for mask, entry in choices[idx]:
            if mask & blocked:
                continue
            now = used | mask
            if gapless and now.bit_length() - 1 - now.bit_count() > room:
                continue
            gain_asc = gain_des = 0
            for c in entry[1]:
                uses[c] += 1
                for m in below:
                    gain_asc += (m & ((1 << c) - 1)).bit_count()
                    gain_des += (m >> (c + 1)).bit_count()
            masks[idx] = mask
            picked[idx] = entry
            rec(idx + 1, now, asc + gain_asc, des + gain_des)
            for c in entry[1]:
                uses[c] -= 1

    rec(0, 0, 0, 0)


def proper_colorings(order: UnitIntervalOrder, mu, colors: int, *, gapless=False):
    """All proper multi-colorings: vertex a gets mu[a-1] colors from
    [colors], disjoint across incomparability edges. Each is a dict
    vertex -> color tuple over the vertices of positive type.

    One pass of the coloring walk collects them, in the walk's order,
    before the first is yielded. With gapless=True only the colorings
    whose colors are exactly {1..k} for some k are yielded; the walk
    prunes the others exactly (see _coloring_walk).
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    found = []
    _coloring_walk(
        order, mu, colors, gapless, lambda picked, *_: found.append(dict(picked))
    )
    yield from found


def coloring_ascents(order: UnitIntervalOrder, coloring) -> int:
    """Pairs of colors across an edge increasing with the vertex labels."""
    count = 0
    for i, j in order.edges:
        ci = coloring.get(i, ())
        cj = coloring.get(j, ())
        for r in ci:
            for s in cj:
                if r < s:
                    count += 1
    return count


def coloring_descents(order: UnitIntervalOrder, coloring) -> int:
    """Pairs of colors across an edge decreasing with the vertex labels.

    Written against the edge list directly, not as a complement of the
    ascent count. With coloring_ascents it is the per-coloring reference
    for the running counts of the coloring walk.
    """
    count = 0
    for i, j in order.edges:
        for r in coloring.get(i, ()):
            for s in coloring.get(j, ()):
                if r > s:
                    count += 1
    return count


def proper_coloring_count(order: UnitIntervalOrder, mu, colors: int) -> int:
    mu = tuple(mu)
    check_type(mu, order.n)
    count = 0

    def leaf(*_):
        nonlocal count
        count += 1

    _coloring_walk(order, mu, colors, False, leaf)
    return count


def coloring_qsym(
    order: UnitIntervalOrder, mu, colors: int | None = None, stat: str = "asc"
) -> QSymFunc:
    """The coloring generating function in the quasisymmetric monomial
    basis, from brute-force enumeration with a finite color supply.

    The coefficient of M_alpha counts the colorings that use color i
    exactly alpha_i times for i = 1..k, so only the gapless colorings
    (color set {1..k}) reach a coefficient, and only those are walked.
    One walk tallies both statistics (see _coloring_tally), so the asc
    and des functions of one instance, asked for one after the other,
    cost one walk.
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    d = sum(mu)
    if colors is None:
        colors = d
    if colors < d:
        raise ValueError(f"need at least {d} colors to determine the function")
    if stat not in ("asc", "des"):
        raise ValueError(f"unknown statistic {stat!r}")
    asc, des = _coloring_tally(order, mu, colors)
    return QSymFunc(d, asc if stat == "asc" else des)


@lru_cache(maxsize=1)
def _coloring_tally(order, mu, colors) -> tuple:
    """({composition: QPoly in q^ascents}, {composition: QPoly in
    q^descents}) over the gapless proper colorings, from one walk. The
    composition of a leaf is the use count of colors 1..top. The cache
    holds the last instance only, which is all the asc-vs-des pairs in a
    sweep read back."""
    counts: dict = {}  # (composition, ascents, descents) -> colorings

    def leaf(picked, uses, top, asc, des):
        key = (tuple(uses[1 : top + 1]), asc, des)
        counts[key] = counts.get(key, 0) + 1

    _coloring_walk(order, mu, colors, True, leaf)
    asc: Counter = Counter()  # (composition, ascents) -> colorings
    des: Counter = Counter()
    for (alpha, a, d), c in counts.items():
        asc[alpha, a] += c
        des[alpha, d] += c
    return _polys(asc), _polys(des)


def asc_des_symmetry_check(order: UnitIntervalOrder, mu, colors: int | None = None) -> bool:
    return coloring_qsym(order, mu, colors, "asc") == coloring_qsym(
        order, mu, colors, "des"
    )


# ---------------------------------------------------------------------------
# word route


def omega_chromatic_qsym(order: UnitIntervalOrder, mu) -> QSymFunc:
    """The omega image of the chromatic function: the sum over words of
    type mu of q^inversions times the fundamental function of the
    descent set, computed by a dynamic program over word prefixes."""
    mu = tuple(mu)
    check_type(mu, order.n)
    return _omega_chromatic_qsym(order, mu)


@lru_cache(maxsize=256)
def _omega_chromatic_qsym(order, mu):
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
    Both depend only on (used multiset, last letter), so the prefixes are
    summed per state; each state maps descent masks to polynomials.
    """
    m = order.m
    n = len(mu)
    layer = {(0,) * n: {0: {0: 1}}}  # used -> last letter -> mask -> poly
    for k in range(sum(mu)):
        bit = 1 << (k - 1) if k else 0
        nxt: dict = {}
        for used, by_last in layer.items():
            for a in range(1, n + 1):
                if used[a - 1] == mu[a - 1]:
                    continue
                top = m[a - 1]
                acc: dict = {}
                for last, masks in by_last.items():
                    extra = bit if last > top else 0
                    for mask, p in masks.items():
                        key = mask | extra
                        acc[key] = acc.get(key, 0) + p
                # every prefix reaching (grown, a) comes from this `used`,
                # so the inversion shift is applied once per mask
                shift = sum(used[a:top]) * width
                grown = used[: a - 1] + (used[a - 1] + 1,) + used[a:]
                nxt.setdefault(grown, {})[a] = {
                    mask: p << shift for mask, p in acc.items()
                }
        layer = nxt
    out: dict = {}
    for by_last in layer.values():
        for masks in by_last.values():
            for mask, p in masks.items():
                out[mask] = out.get(mask, 0) + p
    return out


def _unpack(packed: int, width: int) -> QPoly:
    slot = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & slot)
        packed >>= width
    return QPoly(coeffs)


def omega_chromatic_qsym_by_words(order: UnitIntervalOrder, mu) -> QSymFunc:
    """Reference for omega_chromatic_qsym: loops over all d!/prod(mu_a!)
    words of type mu, one fundamental function per descent set. Tests
    compare the dynamic program against it; keep d <= 8."""
    d = sum(mu)
    by_descents: dict = {}
    for w in multiset_permutations(mu):
        s = descent_positions(order, w)
        by_descents[s] = by_descents.get(s, QPoly()) + QPoly.monomial(
            inversion_count(order, w)
        )
    out = QSymFunc(d)
    for s, c in by_descents.items():
        out = out + QSymFunc.fundamental(d, s, c)
    return out


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
    full = (1 << (d - 1)) - 1
    by_mask = {mask ^ full: p for mask, p in _descent_polys(order, mu, width).items()}
    return _fundamental_to_monomial(d, by_mask, width).to_symmetric()


# ---------------------------------------------------------------------------
# heap and class generating functions


def heap_qsym(heap: Heap) -> QSymFunc:
    """Fundamental-basis sum over the words of one heap."""
    return _words_qsym(heap.order, heap.size, heap.words())


def class_qsym(cls: HeapClass) -> QSymFunc:
    """Fundamental-basis sum over the words of every heap in the class."""
    first = cls.heaps[0]
    words = [w for h in cls.heaps for w in h.words()]
    return _words_qsym(first.order, first.size, words)


def _words_qsym(order, d, words) -> QSymFunc:
    """Sum of F_Des(w) over the words: count the words per descent set,
    then change to the monomial basis once."""
    counts: dict = {}
    for w in words:
        mask = 0
        for i in descent_positions(order, w):
            mask |= 1 << (i - 1)
        counts[mask] = counts.get(mask, 0) + 1
    return _fundamental_to_monomial(d, counts, max(len(words).bit_length(), 1))


def class_sym(cls: HeapClass) -> SymFunc:
    """The class generating function, which is genuinely symmetric."""
    return class_qsym(cls).to_symmetric()


# ---------------------------------------------------------------------------
# basis expansions


@dataclass
class ExpansionReport:
    """Coefficients of the chromatic function (or its omega image) in a
    basis, with per-partition provenance and positivity flags."""

    order: UnitIntervalOrder
    mu: tuple
    basis: str
    degree: int
    coefficients: dict
    provenance: dict
    positive: bool = field(init=False)

    def __post_init__(self):
        self.positive = all(c.is_nonnegative() for c in self.coefficients.values())

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
        # X in e equals omega X in h; the theorem checks read the same source
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
    nonzero pairing, where g is the noncommutative h, p or s for basis
    f, p or s: the sum of q^inv(w) over the words w of type mu that g_lam
    sums, read off the words without forming a class.

    Both straightening relations keep a word's type and inversion count,
    so the pairing factors through u_w -> q^inv(w) x^type(w), which is
    multiplicative: a word of type t after one of type `used` adds
    cross(used, t) = sum_b t_b * #{letters a in used: b < a <= m_b}
    inversions. For f and p the image of g_k, the descent-free
    (resp. unique-sink) words of length k grouped as type -> {inv:
    count}, is folded over the parts of lam with states (used type) ->
    {inv: count} within mu. The states are memoized by prefix of lam, so
    partitions with a common prefix share them, and the last part only
    completes a state to mu. For s, q^inv of the reading word is summed
    over the P-tableaux of shape lam and type mu.

    It calls none of _descent_polys, _fundamental_to_monomial, _unpack,
    to_symmetric and in_basis, so the basis change checks it from the
    outside. The f side still sums over the words whose descents lie
    among the breakpoints of lam, as the M_lam coefficient of the word
    route does: a check between two pieces of code. p (unique sinks) and
    s (P-tableaux) are checks between theorems.
    """
    d = sum(mu)
    counts: Counter = Counter()  # (lam, inv) -> words
    if basis == "s":
        for lam in partitions(d):
            for t in enumerate_tableaux(order, lam, mu):
                counts[lam, inversion_count(order, reading_word(t))] += 1
        return _polys(counts)
    family = descent_free_words if basis == "f" else unique_sink_words
    # the image of g_k: type -> inv -> words of length k
    images = {k: defaultdict(Counter) for k in range(1, d + 1)}
    for k, image in images.items():
        for w in family(order, k, mu):
            image[word_type(w, order.n)][inversion_count(order, w)] += 1

    def fold(states, image, last):
        # append every word of the image to every state, within mu; with
        # last, only the words that complete a state to mu
        out: dict = {}
        for used, polys in states.items():
            # gain[b-1]: letters of `used` that a later letter b passes
            gain = [sum(used[b:top]) for b, top in enumerate(order.m, 1)]
            room = tuple(c - u for c, u in zip(mu, used))
            for t in (room,) if last else image:
                tail = image.get(t)
                if not tail or not all(x <= r for x, r in zip(t, room)):
                    continue
                shift = sum(x * g for x, g in zip(t, gain))
                acc = out.setdefault(tuple(u + x for u, x in zip(used, t)), {})
                for i, c in polys.items():
                    for j, c2 in tail.items():
                        acc[i + j + shift] = acc.get(i + j + shift, 0) + c * c2
        return out

    memo = {(): {(0,) * order.n: {0: 1}}}  # prefix of lam -> states

    def states(prefix):
        if prefix not in memo:
            memo[prefix] = fold(states(prefix[:-1]), images[prefix[-1]], False)
        return memo[prefix]

    for lam in partitions(d):
        for inv, c in fold(states(lam[:-1]), images[lam[-1]], True).get(mu, {}).items():
            counts[lam, inv] = c
    return _polys(counts)


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


@lru_cache(maxsize=256)
def _e_coefficients(order, mu) -> dict:
    """The e-coordinates of the chromatic function (the h-coordinates of
    omega X): the one source the theorem-path e-checks compare against."""
    return omega_chromatic_sym(order, mu).in_basis("h")


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


class _EHeapSums(NamedTuple):
    """Sums of q^ascents over the heaps of one type, one q-polynomial per
    bucket; a heap may fall in all three."""

    sinks: dict  # k -> heaps with k sinks
    two_column: dict  # (n1, n2) -> rank <= 2 heaps, no W component
    hooks: dict  # l -> heaps in the hook family for l (l + 1 sinks)


@lru_cache(maxsize=256)
def _e_heap_sums(order, mu) -> _EHeapSums:
    """One pass over the heaps of type mu for every theorem-side e check.
    It reads the heaps alone, never the basis change."""
    sinks: Counter = Counter()  # (bucket, ascents) -> heaps
    two_column: Counter = Counter()
    hooks: Counter = Counter()
    for h in enumerate_heaps(order, mu):
        asc = h.ascents
        k = h.sink_count
        sinks[k, asc] += 1
        if h.rank <= 2 and all(h.component_type(c) != "W" for c in h.components):
            n2 = h.levels.count(2)
            two_column[(h.size - n2, n2), asc] += 1
        if k > 1 and _in_hook_family(h, k - 1):
            hooks[k - 1, asc] += 1
    return _EHeapSums(_polys(sinks), _polys(two_column), _polys(hooks))


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
    if a < 1 or l < 1:
        raise ValueError("need a, l >= 1")
    out = QPoly()
    if a + l + 1 == sum(mu):
        out = _e_heap_sums(order, mu).hooks.get(l, out)
    return _check_e(order, mu, (a + 1,) + (1,) * l, out, "hook")


def _in_hook_family(h: Heap, l: int) -> bool:
    """Membership in the hook family for l, as defined at coeff_e_hook."""
    if h.sink_count != l + 1:
        return False
    rank2 = [b for b, r in enumerate(h.levels) if r == 2]
    if len(rank2) == 1:
        return True
    if len(rank2) != 2:
        return False
    p, r = rank2
    # (A) and (B), see coeff_e_hook
    if h.lower[p] != h.lower[r]:
        return False
    # (C)
    return not h.forbidden_paths()


def sink_sum(order: UnitIntervalOrder, mu, k: int) -> QPoly:
    """Sum of q^ascents over type-mu heaps with exactly k sinks; equals
    the sum of e-coefficients over partitions of length k."""
    mu = tuple(mu)
    if k < 1:
        raise ValueError("need k >= 1")
    out = _e_heap_sums(order, mu).sinks.get(k, QPoly())
    want = QPoly()
    for lam, c in _e_coefficients(order, mu).items():
        if len(lam) == k:
            want = want + c
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
    if any(order.m[i - 1] >= i + 2 for i in range(1, n - 1)):
        return QPoly()  # a triangle forces every heap to rank >= 3
    comps = _graph_components(order)
    n_e = sum(1 for c in comps if len(c) % 2 == 0)
    n_o = sum(1 for c in comps if len(c) % 2 == 1)
    if (n + n_o) % 2:
        return QPoly()
    target = tuple(c for c in ((n + n_o) // 2, (n - n_o) // 2) if c)
    if conjugate(lam) != target:
        return QPoly()
    power = (n - 2 * n_e - n_o) // 2
    return QPoly.monomial(power) * (QPoly((1, 1)) ** n_e)


def _graph_components(order: UnitIntervalOrder) -> list:
    seen = set()
    comps = []
    for v in range(1, order.n + 1):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in order.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# conjecture evidence


def positivity_report(order: UnitIntervalOrder, mu) -> dict:
    """Report (never assert) h-positivity of each class function and
    e-positivity of the chromatic function."""
    mu = tuple(mu)
    classes = enumerate_classes(order, mu)
    class_reports = []
    for cls in classes:
        hcoeffs = class_sym(cls).in_basis("h")
        class_reports.append(
            {
                "representative": "".join(map(str, cls.representative)),
                "size": len(cls),
                "ascents": cls.ascents,
                "h_positive": all(c.is_nonnegative() for c in hcoeffs.values()),
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


def scaling_check(order: UnitIntervalOrder, mu) -> bool:
    """Blow-up comparison: the plain chromatic function of the blown-up
    order equals the multi-color function times the product of
    q-factorials of the multiplicities."""
    mu = tuple(mu)
    blown = order.blow_up(mu)
    lhs = chromatic_sym(blown, (1,) * blown.n)
    factor = QPoly.one()
    for x in mu:
        factor = factor * q_factorial(x)
    rhs = chromatic_sym(order, mu).scale(factor)
    return lhs == rhs
