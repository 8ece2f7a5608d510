"""Partitions, compositions and word enumeration helpers."""

from __future__ import annotations

from functools import lru_cache
from math import factorial


@lru_cache(maxsize=None)
def partitions(d: int, max_part: int | None = None) -> tuple:
    """All partitions of d with parts at most max_part, as decreasing tuples."""
    if d < 0:
        return ()
    if d == 0:
        return ((),)
    if max_part is None or max_part > d:
        max_part = d
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam) -> tuple:
    """Conjugate partition (transpose of the diagram)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def z_factor(lam) -> int:
    """z_lambda = prod_i i^{m_i} m_i! over part multiplicities m_i."""
    out = 1
    for part in set(lam):
        m = lam.count(part)
        out *= part**m * factorial(m)
    return out


def multinomial(mu) -> int:
    """Number of words using letter a exactly mu[a-1] times."""
    out = factorial(sum(mu))
    for x in mu:
        out //= factorial(x)
    return out


def revlex_sorted(parts) -> list:
    """Partitions of equal size in decreasing reverse-lexicographic order.

    On partitions of the same number this coincides with decreasing tuple
    order, e.g. (3,1) before (2,2) before (2,1,1).
    """
    return sorted(parts, reverse=True)


def subset_to_composition(d: int, subset) -> tuple:
    """Composition of d whose partial sums are the subset of [d-1]."""
    cuts = sorted(subset)
    if cuts and (cuts[0] < 1 or cuts[-1] > d - 1):
        raise ValueError("subset must lie in [d-1]")
    prev = 0
    parts = []
    for c in cuts + [d]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def words(room, k=None, after=None):
    """Words of length k (default sum(room)) using letter a at most
    room[a-1] times, in lexicographic order, by pruned search.

    Letters are 1-based. With a follow table, letter b may come right
    after letter a only when bit b of after[a] is set. The search keeps
    one iterator over the candidates per letter of the word so far, in
    one frame, so a word costs no generator frame per letter.
    """
    n = len(room)
    if k is None:
        k = sum(room)
    if k == 0:
        yield ()
        return
    room = [0, *room]  # indexed by letter
    letters = range(1, n + 1)
    if after is None:
        nexts = [letters] * (n + 1)
    else:
        nexts = [tuple(b for b in letters if after[a] >> b & 1) for a in range(n + 1)]
    word = []
    last = k - 1  # the length at which a letter completes a word
    stack = [iter(letters)]  # candidates for the next letter, per prefix length
    while stack:
        for a in stack[-1]:
            if room[a] > 0:
                if len(word) == last:
                    word.append(a)
                    yield tuple(word)
                    word.pop()
                    continue
                room[a] -= 1
                word.append(a)
                stack.append(iter(nexts[a]))
                break
        else:
            stack.pop()
            if word:
                room[word.pop()] += 1


def multiset_permutations(mu):
    """All words using letter a exactly mu[a-1] times, in lexicographic order.

    Letters are 1-based; zero multiplicities are allowed and skipped.
    """
    return words(mu)


def check_type(mu, n: int) -> None:
    """Raise ValueError unless mu is a type vector over the alphabet [n]."""
    if len(mu) != n:
        raise ValueError("type vector length must equal n")
    if any(x < 0 for x in mu):
        raise ValueError("type vector entries must be nonnegative")
    if not any(mu):
        raise ValueError("type vector entries must not all be zero")


def word_type(w, n: int) -> tuple:
    """Multiplicity vector of a word over the alphabet [n]."""
    mu = [0] * n
    for a in w:
        mu[a - 1] += 1
    return tuple(mu)
