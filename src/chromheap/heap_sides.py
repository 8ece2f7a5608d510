"""The heap sides of the e-checks, and the class functions.

The two-column and hook checks share one cached walk over the canonical
words of a type (_e_heap_sums), which reads the statistics of each
heap, W components included, as its blocks drop and builds no Heap;
the sink check sums the same words by a transfer over prefix states
(_sink_polys). Each compares its heap sums with the e-coordinates of
the word route (chromatic._e_coefficients) and raises CrossCheckError
on a disagreement. The walk and the transfer read no basis change, and
this module imports nothing from chromatic at module level: a check
reads the word route's coordinates, and the class functions its
subset-sum transform, only when they run.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from .errors import CrossCheckError
from .heaps import HeapClass, _drop_tables, _forbidden_paths, descent_positions
from .partitions import check_type, conjugate, multinomial
from .posets import UnitIntervalOrder
from .qpoly import QPoly
from .symfunc import QSymFunc, SymFunc

# ---------------------------------------------------------------------------
# heap and class generating functions


def class_qsym(cls: HeapClass) -> QSymFunc:
    """Fundamental-basis sum over the words of every heap in the class."""
    from .chromatic import _fundamental_to_monomial

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
# theorem-path e-coefficients


def _check_e(order, mu, lam, got, what):
    """Raise CrossCheckError unless the heaps give the basis-change
    e-coefficient of lam (zero when lam is not a partition of sum(mu))."""
    from .chromatic import _e_coefficients

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
    first = list(first)  # advanced in place as blocks drop
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
      (C) no forbidden path anywhere in the heap (heaps._forbidden_paths).
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
    from .chromatic import _e_coefficients

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
    complemented, as X does in chromatic_sym. enumerate_classes and
    expansion are read from heaps and chromatic as it runs, where
    benchmarks/child.py wraps them."""
    from .chromatic import _complemented, _fundamental_to_monomial, expansion
    from .heaps import enumerate_classes

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
