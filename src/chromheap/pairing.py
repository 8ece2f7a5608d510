"""The pairing transfer: <g_lam, Gamma_mu> for the noncommutative h, p
and s, the theorem side of the f, p and s expansions.

It shares no code with the word route (chromatic), whose basis change
checks it from the outside, nor with the coloring oracle or the heap
sides, and imports none of them.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import conjugate, multinomial
from .qpoly import QPoly


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
