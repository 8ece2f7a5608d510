"""Heaps of unit blocks over a unit interval order, and local flips.

A heap of type mu is an acyclic orientation of the graph whose vertices
are mu[a-1] copies of each interval a, with copies of a and b adjacent
exactly when a == b or a, b are incomparable; edges between copies of
the same interval always point toward the earlier copy. Words of type
mu correspond to heaps by dropping blocks onto the interval model in
reading order, and the words of a heap are its linear extensions.

A Heap stores its orientation as one bitmask per block, the blocks
directly below it, and reads ranks, sinks, covers, components and words
off these masks. A local flip reverses the two edges of a flippable
triple and keeps the block ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

from .partitions import check_type, multiset_permutations, word_type, words
from .posets import UnitIntervalOrder


# ---------------------------------------------------------------------------
# word statistics


def descent_positions(order: UnitIntervalOrder, w) -> frozenset:
    """Positions i (1-based) with w_i above w_{i+1} in the order."""
    return frozenset(
        i + 1 for i in range(len(w) - 1) if order.less(w[i + 1], w[i])
    )


def inversion_count(order: UnitIntervalOrder, w) -> int:
    """Pairs i < j with w_i, w_j incomparable and w_i > w_j."""
    m = order.m
    count = 0
    for j, b in enumerate(w):
        # the letters above b and incomparable to it are b+1..m_b
        top = m[b - 1]
        for a in w[:j]:
            if b < a <= top:
                count += 1
    return count


def ltr_maxima_positions(order: UnitIntervalOrder, w) -> tuple:
    """Positions i such that w_i lies above every earlier letter.

    Position 1 always qualifies (the trivial maximum).
    """
    below = order.below
    out = []
    seen = 0  # bit a set when letter a occurs before position i
    for i, a in enumerate(w):
        if not seen & ~below[a]:
            out.append(i + 1)
        seen |= 1 << a
    return tuple(out)


def has_nontrivial_ltr_maximum(order: UnitIntervalOrder, w) -> bool:
    return any(p > 1 for p in ltr_maxima_positions(order, w))


def is_descent_free(order: UnitIntervalOrder, w) -> bool:
    return not any(order.less(w[i + 1], w[i]) for i in range(len(w) - 1))


def descent_free_words(order: UnitIntervalOrder, k: int, bound=None):
    """Words of length k with no descents (canonical heap words), in
    lexicographic order; with a bound, letter a is used at most
    bound[a-1] times."""
    room = (k,) * order.n if bound is None else bound
    return words(room, k, [~b for b in order.below])


# ---------------------------------------------------------------------------
# lexicographic normal form


def lex_normal_form(order: UnitIntervalOrder, word) -> tuple:
    """Canonical word of the heap of a word, without building the heap.

    Letters in equal or incomparable columns never pass each other, so
    the heap is the trace of the word in the monoid where comparable
    letters commute, and its canonical word is the trace's
    lexicographically least word (Anisimov-Knuth normal form).

    Reading the heap from the bottom, the least word takes at each step
    the free block of least column. A new top block a leaves that order
    of the other blocks alone: it becomes free once the last block in a
    column touching a is taken, and is then taken before the first
    later block of larger column. So the normal form grows one letter
    at a time by inserting a at that place.
    """
    word = tuple(word)
    if word and not (1 <= min(word) and max(word) <= order.n):
        raise ValueError(f"word {word} leaves the alphabet [{order.n}]")
    touch = order.touch
    out = []
    for a in word:
        t = touch[a]
        i = len(out)
        while i and not t >> out[i - 1] & 1:
            i -= 1
        # blocks from i on are in columns comparable to a, never equal
        end = len(out)
        while i < end and out[i] < a:
            i += 1
        out.insert(i, a)
    return tuple(out)


# ---------------------------------------------------------------------------
# heaps


def _bits(mask: int):
    """Indices of the set bits of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Heap:
    """Immutable heap; block ids are 0..d-1, each with a column.

    The orientation is one int per block: bit u of lower[b] is set when
    block u lies directly below block b (their columns touch, and the
    edge between them points up to b). Every statistic is read off
    these masks. Flips keep the block ids, so in a flipped heap the ids
    need not run bottom-up.
    """

    __slots__ = ("order", "cols", "lower", "__dict__")

    def __init__(self, order: UnitIntervalOrder, cols, lower):
        self.order = order
        self.cols = tuple(cols)
        self.lower = tuple(lower)

    @classmethod
    def from_word(cls, order: UnitIntervalOrder, word) -> "Heap":
        """Drop the letters of the word in reading order."""
        word = tuple(word)
        if not word:
            raise ValueError("empty word")
        touch = order.touch
        dropped = [0] * (order.n + 1)  # column -> its blocks so far
        lower = []
        for j, a in enumerate(word):
            if not 1 <= a <= order.n:
                raise ValueError(f"letter {a} outside the alphabet")
            below = 0
            t = touch[a]
            while t:
                low = t & -t
                below |= dropped[low.bit_length() - 1]
                t ^= low
            lower.append(below)
            dropped[a] |= 1 << j
        return cls(order, word, lower)

    @classmethod
    def from_levels(cls, order: UnitIntervalOrder, levels) -> "Heap":
        """Build from a diagram given as {column: iterable of levels}.

        Raises ValueError for a column outside 1..n, for touching blocks
        on one level, and when the diagram is not gravity-stable, i.e.
        when the recomputed levels disagree with the given ones.
        """
        for a in levels:
            if not 1 <= a <= order.n:
                raise ValueError(f"column {a} outside the alphabet")
        blocks = []
        for a in sorted(levels):
            for lv in sorted(levels[a]):
                blocks.append((a, lv))
        cols = tuple(a for a, _ in blocks)
        lvls = tuple(lv for _, lv in blocks)
        touch = order.touch
        lower = [0] * len(blocks)
        for j in range(len(blocks)):
            for i in range(j):
                if touch[cols[i]] >> cols[j] & 1:
                    if lvls[i] == lvls[j]:
                        raise ValueError("adjacent blocks share a level")
                    if lvls[i] < lvls[j]:
                        lower[j] |= 1 << i
                    else:
                        lower[i] |= 1 << j
        heap = cls(order, cols, lower)
        if heap.levels != lvls:
            raise ValueError("diagram is not gravity-stable")
        return heap

    @property
    def size(self) -> int:
        return len(self.cols)

    @cached_property
    def mu(self) -> tuple:
        return word_type(self.cols, self.order.n)

    @cached_property
    def levels(self) -> tuple:
        """Rank of each block: one more than the longest downward path.

        Rank layers are peeled from the bottom: a block gets rank r in
        the first round r in which all of its lower blocks are done.
        Raises ValueError when the masks hold a cycle.
        """
        lower = self.lower
        out = [0] * self.size
        pending = (1 << self.size) - 1
        rank = 0
        while pending:
            rank += 1
            layer = 0
            m = pending
            while m:
                low = m & -m
                b = low.bit_length() - 1
                if not lower[b] & pending:
                    out[b] = rank
                    layer |= low
                m ^= low
            if not layer:
                raise ValueError("the orientation has a cycle")
            pending ^= layer
        return tuple(out)

    def _bottom_up(self) -> list:
        """Block ids by rank, lowest first: a linear extension."""
        return sorted(range(self.size), key=self.levels.__getitem__)

    @cached_property
    def rank(self) -> int:
        return max(self.levels)

    @cached_property
    def sinks(self) -> tuple:
        return tuple(b for b, below in enumerate(self.lower) if not below)

    @property
    def sink_count(self) -> int:
        return len(self.sinks)

    @cached_property
    def covers(self) -> tuple:
        """For each block, the blocks it covers in the heap order: the
        lower blocks that lie below none of its other lower blocks."""
        under = [0] * self.size  # blocks strictly below each block
        out = [()] * self.size
        for b in self._bottom_up():
            below = m = self.lower[b]
            deeper = 0
            while m:
                low = m & -m
                deeper |= under[low.bit_length() - 1]
                m ^= low
            under[b] = below | deeper
            out[b] = tuple(_bits(below & ~deeper))
        return tuple(out)

    @cached_property
    def covered_by(self) -> tuple:
        out = [[] for _ in self.cols]
        for b in range(self.size):
            for u in self.covers[b]:
                out[u].append(b)
        return tuple(tuple(v) for v in out)

    @cached_property
    def canonical_word(self) -> tuple:
        """The unique descent-free word of the heap: the normal form of
        any of its words, here the one read off rank by rank."""
        return lex_normal_form(self.order, [self.cols[b] for b in self._bottom_up()])

    def words(self) -> list:
        """All words of the heap (column readings of linear extensions)."""
        full = (1 << self.size) - 1
        word = []
        out = []

        def rec(done):
            if done == full:
                out.append(tuple(word))
                return
            for b in _bits(full & ~done):
                if not self.lower[b] & ~done:
                    word.append(self.cols[b])
                    rec(done | 1 << b)
                    word.pop()

        rec(0)
        return out

    @cached_property
    def ascents(self) -> int:
        """Oriented adjacencies whose lower block sits in a larger column."""
        cols = self.cols
        n = self.order.n
        in_col = [0] * (n + 1)
        for b, a in enumerate(cols):
            in_col[a] |= 1 << b
        greater = [0] * (n + 1)  # column a -> blocks in columns above a
        for a in range(n - 1, 0, -1):
            greater[a] = greater[a + 1] | in_col[a + 1]
        return sum(
            (below & greater[cols[b]]).bit_count()
            for b, below in enumerate(self.lower)
        )

    @cached_property
    def _columns(self) -> dict:
        """Column -> its block ids from the bottom up."""
        out: dict = {}
        for b in self._bottom_up():
            out.setdefault(self.cols[b], []).append(b)
        return out

    def block(self, a: int, i: int) -> int:
        """Id of the i-th lowest block (1-based) in column a."""
        col = self._columns.get(a, ())
        if not 1 <= i <= len(col):
            raise ValueError(f"column {a} has no block {i}")
        return col[i - 1]

    def block_label(self, b: int) -> tuple:
        """(column, position from the bottom) of a block id."""
        a = self.cols[b]
        return (a, self._columns[a].index(b) + 1)

    def flippable_triples(self) -> list:
        """Triples (p, q, r) with q covering both p and r, or covered by
        both, normalized so that the column of p is smaller."""
        out = []
        for q in range(self.size):
            for group in (self.covers[q], self.covered_by[q]):
                for x in range(len(group)):
                    for y in range(x + 1, len(group)):
                        p, r = group[x], group[y]
                        if self.order.adjacent(self.cols[p], self.cols[r]):
                            continue
                        if self.cols[p] > self.cols[r]:
                            p, r = r, p
                        out.append((p, q, r))
        out.sort(key=lambda t: (self.cols[t[0]], self.cols[t[1]], self.cols[t[2]], t))
        return out

    def flip(self, triple) -> "Heap":
        """Reverse the orientation on the two edges of a flippable triple."""
        p, q, r = triple
        triples = self.flippable_triples()
        if triple not in triples and (r, q, p) not in triples:
            raise ValueError(f"{triple} is not flippable")
        return self._flip(triple)

    def _flip(self, triple) -> "Heap":
        """flip without the check that the triple is flippable. Each of
        the edges p-q and q-r moves its bit to the other end's mask; the
        block ids stay."""
        p, q, r = triple
        lower = list(self.lower)
        for u, v in ((p, q), (q, r)):
            lower[u] ^= 1 << v
            lower[v] ^= 1 << u
        return Heap(self.order, self.cols, lower)

    @cached_property
    def components(self) -> tuple:
        """Connected components of the adjacency graph on blocks."""
        adjacent = list(self.lower)
        for b, below in enumerate(self.lower):
            for u in _bits(below):
                adjacent[u] |= 1 << b
        comps = []
        left = (1 << self.size) - 1
        while left:
            comp = grow = left & -left
            while grow:
                reach = 0
                for x in _bits(grow):
                    reach |= adjacent[x]
                grow = reach & ~comp
                comp |= grow
            left ^= comp
            comps.append(tuple(_bits(comp)))
        return tuple(comps)

    def component_type(self, comp) -> str:
        """Classify a rank <= 2 connected component as S, N, M or W."""
        ranks = [self.levels[b] for b in comp]
        if max(ranks) > 2:
            raise ValueError("component has a block of rank above 2")
        n1 = sum(1 for r in ranks if r == 1)
        n2 = sum(1 for r in ranks if r == 2)
        if n2 == 0:
            if n1 == 1:
                return "S"
            raise ValueError("disconnected rank-1 blocks cannot share a component")
        if n1 == n2:
            return "N"
        if n1 == n2 + 1:
            return "M"
        if n1 == n2 - 1:
            return "W"
        raise ValueError(f"impossible rank profile n1={n1}, n2={n2}")

    def forbidden_paths(self) -> list:
        """Block tuples forming a forbidden path, in lexicographic order
        of their column sequences. A heap with one is outside the hook
        family (see chromatic.coeff_e_hook).

        A forbidden path is a set of blocks, one per column a_1 < ... < a_k,
        whose columns induce a path in the incomparability graph, with
        rank(block in a_1) = 1 and rank(block in a_j) = k - j + 1 for
        j >= 2, such that the first three blocks form a flippable triple.

        The rank r of the second block fixes k = r + 1, and from there on
        each block has rank one less than the one before, so the search
        extends a path only by a later column that touches the last
        column, touches no earlier one, and holds a block of exactly that
        rank. The triple is settled with the second block already: a
        third block lies one rank below the second in a touching column,
        so the second covers it, and its column does not touch the
        first's; so the triple flips exactly when the second block also
        covers the first. Columns are tried in increasing order and at
        most one block of a column covers the first block, so the paths
        come out in lexicographic order.
        """
        touch = self.order.touch
        levels = self.levels
        by_col: dict = {}  # column -> rank -> block
        present = 0  # bit a set when column a holds a block
        for b, a in enumerate(self.cols):
            by_col.setdefault(a, {})[levels[b]] = b
            present |= 1 << a
        out = []

        def later(last, earlier):
            """Columns after `last` that touch it and nothing in `earlier`."""
            return _bits(touch[last] & present & ~earlier & ~((2 << last) - 1))

        def extend(path, last, earlier):
            want = levels[path[-1]] - 1
            if not want:
                out.append(tuple(path))
                return
            for a in later(last, earlier):
                b = by_col[a].get(want)
                if b is not None:
                    extend(path + [b], a, earlier | touch[last])

        for a1 in sorted(by_col):
            p = by_col[a1].get(1)
            if p is None:
                continue
            for a2 in later(a1, 0):
                for q in by_col[a2].values():
                    if p in self.covers[q]:
                        extend([p, q], a2, touch[a1])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Heap)
            and self.order == other.order
            and self.canonical_word == other.canonical_word
        )

    def __hash__(self):
        return hash((self.order.m, self.canonical_word))

    def __repr__(self):
        return f"Heap({self.order.text()!r}, word={''.join(map(str, self.canonical_word))})"


# ---------------------------------------------------------------------------
# enumeration and equivalence classes


def enumerate_heaps(order: UnitIntervalOrder, mu) -> tuple:
    """All heaps of the given type, sorted by canonical word.

    Each heap is built from its descent-free word, so its cols are its
    canonical word.
    """
    return _enumerate_heaps(order, tuple(mu))


@lru_cache(maxsize=512)
def _enumerate_heaps(order, mu):
    check_type(mu, order.n)
    canonical = descent_free_words(order, sum(mu), mu)
    return tuple(Heap.from_word(order, w) for w in canonical)


@dataclass(frozen=True)
class HeapClass:
    """A flip-equivalence class of heaps."""

    heaps: tuple

    @property
    def representative(self) -> tuple:
        """Least canonical word among the member heaps."""
        return min(h.canonical_word for h in self.heaps)

    @property
    def ascents(self) -> int:
        return self.heaps[0].ascents

    def __len__(self):
        return len(self.heaps)


def flip_closure(heap: Heap) -> list:
    """All heaps reachable from this one by local flips, sorted by
    canonical word.

    Members are told apart by their lower masks. Flips keep block ids
    and columns, and never reverse the edge between two blocks of one
    column (the blocks of a flippable triple lie in three distinct
    columns). So the i-th block from the bottom of column a has the same
    id in every member, and two members are the same heap exactly when
    their masks are equal.
    """
    seen = {heap.lower: heap}
    frontier = [heap]
    while frontier:
        h = frontier.pop()
        for t in h.flippable_triples():
            h2 = h._flip(t)
            if h2.lower not in seen:
                seen[h2.lower] = h2
                frontier.append(h2)
    return sorted(seen.values(), key=attrgetter("canonical_word"))


def enumerate_classes(order: UnitIntervalOrder, mu, method: str = "flips") -> list:
    """Flip-equivalence classes of heaps of the given type.

    method='flips' closes each heap under local flips; method='words'
    reads off components of the word graph instead. The two agree and
    are cross-checked in the test suite.
    """
    if method == "flips":
        classes = []
        done = set()
        for h in enumerate_heaps(order, mu):
            if h.cols in done:  # cols is the canonical word here
                continue
            members = flip_closure(h)
            done.update(m.canonical_word for m in members)
            classes.append(HeapClass(tuple(members)))
    elif method == "words":
        classes = []
        for comp in gamma_components(order, mu, barred=True):
            members = sorted(w for w in comp if is_descent_free(order, w))
            classes.append(
                HeapClass(tuple(Heap.from_word(order, w) for w in members))
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    classes.sort(key=lambda c: c.representative)
    return classes


# ---------------------------------------------------------------------------
# the word graph


def gamma_neighbors(order: UnitIntervalOrder, w, barred: bool = True) -> list:
    """Words adjacent to w in the word graph, with edge labels.

    Unbarred edges swap an adjacent comparable pair; barred edges apply
    the three-letter moves bac <-> acb and bca <-> cab for a < b < c with
    a, b incomparable, b, c incomparable and a below c.
    """
    w = tuple(w)
    out = []
    for i in range(len(w) - 1):
        if order.comparable(w[i], w[i + 1]):
            v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            out.append((v, i + 1))
    if barred:
        for i in range(len(w) - 2):
            trip = w[i : i + 3]
            if len(set(trip)) < 3:
                continue
            a, b, c = sorted(trip)
            if order.less(a, b) or order.less(b, c) or not order.less(a, c):
                continue
            moves = {
                (b, a, c): (a, c, b),
                (a, c, b): (b, a, c),
                (b, c, a): (c, a, b),
                (c, a, b): (b, c, a),
            }
            image = moves.get(trip)
            if image is not None:
                out.append((w[:i] + image + w[i + 3 :], (i + 2, "bar")))
    return out


def gamma_components(order: UnitIntervalOrder, mu, barred: bool = True) -> list:
    """Connected components of the word graph on words of type mu."""
    check_type(mu, order.n)
    words = set(multiset_permutations(mu))
    comps = []
    seen = set()
    for start in sorted(words):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            w = frontier.pop()
            for v, _ in gamma_neighbors(order, w, barred=barred):
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    frontier.append(v)
        comps.append(frozenset(comp))
    return comps
