"""The coloring oracle: the chromatic function as a sum over proper
colorings, the independent check of the word route.

A transfer over the vertex use counts sums the gapless proper colorings
with d = sum(mu) colors one color class, a chain of the order, at a
time, the ascents and descents each on its own formula. It shares no
code with the word route (chromatic), the pairing transfer (pairing) or
the heap sides (heap_sides), and imports none of them. The loops over
all words and all colorings of the type live in the tests, as the
references they compare against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, prod

from .partitions import check_type, subset_to_composition
from .posets import UnitIntervalOrder
from .qpoly import QPoly
from .symfunc import QSymFunc


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
