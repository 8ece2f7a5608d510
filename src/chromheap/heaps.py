"""Heaps of unit blocks over a unit interval order, and local flips.

A heap of type mu is an acyclic orientation of the graph whose vertices
are mu[a-1] copies of each interval a, with copies of a and b adjacent
exactly when a == b or a, b are incomparable; edges between copies of
the same interval always point toward the earlier copy. Words of type
mu correspond to heaps by dropping blocks onto the interval model in
reading order, and the words of a heap are its linear extensions.

A Heap stores its orientation as one bitmask per block, the blocks
directly below it, and reads ranks, sinks, covers, block labels and
words off these masks; covers take one step, because the touch graph on
blocks is chordal (see Heap.covers); components depend on the columns
alone. A heap is built by dropping a word (from_word, through which
from_levels drops a diagram level by level), and a local flip reverses
the two edges of a flippable triple and keeps the block ids.

Flip classes are closed on plain mask tuples (_flip_class), from a
descent-free word dropped with block ids in (column, position) order:
each member's canonical word comes from a lowest-bit walk and its flips
from three mask XORs. Heap objects are built only for the members that
flip_closure and enumerate_classes return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .partitions import check_type, word_type, words

# unused here; bound for benchmarks/child.py, which counts its yields in this namespace
from .partitions import multiset_permutations  # noqa: F401
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

        The blocks are dropped with from_word, level by level and by
        column within a level. Each lands one level above the highest
        touching block dropped before it, so it lands on its given level
        exactly when the diagram is gravity-stable: it rests on a
        touching block one level down, and no touching block shares its
        level. Raises ValueError for a column outside 1..n, and when the
        diagram is empty or not gravity-stable.
        """
        for a in levels:
            if not 1 <= a <= order.n:
                raise ValueError(f"column {a} outside the alphabet")
        blocks = sorted((lv, a) for a in levels for lv in levels[a])
        heap = cls.from_word(order, [a for _, a in blocks])
        if heap.levels != tuple(lv for lv, _ in blocks):
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
        """For each block, the mask of the blocks it covers in the heap
        order: its lower blocks that are lower blocks of none of its
        other lower blocks.

        One step suffices. Suppose u lies below b through a longer
        chain u -> x_1 -> ... -> b while u is also a lower block of b.
        The chain and the edge u-b form a cycle in the touch graph on
        blocks. That graph is the incomparability graph of the order
        with each vertex blown up to a clique, and the incomparability
        graph of a unit interval order is chordal, so the touch graph
        is chordal too. The cycle therefore has a chord, and since the
        orientation is acyclic each chord points up the chain and
        shortens it. So the shortest such chain is u -> x -> b, with x
        a lower block of b and u a lower block of x.
        """
        lower = self.lower
        out = []
        for below in lower:
            deeper = 0
            m = below
            while m:
                low = m & -m
                deeper |= lower[low.bit_length() - 1]
                m ^= low
            out.append(below & ~deeper)
        return tuple(out)

    @cached_property
    def canonical_word(self) -> tuple:
        """The unique descent-free word of the heap: the normal form of
        any of its words, here the one read off rank by rank."""
        by_rank = sorted(range(self.size), key=self.levels.__getitem__)
        return lex_normal_form(self.order, [self.cols[b] for b in by_rank])

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

    def block(self, a: int, i: int) -> int:
        """Id of the i-th lowest block (1-based) in column a."""
        for b in range(self.size):
            if self.block_label(b) == (a, i):
                return b
        raise ValueError(f"column {a} has no block {i}")

    def block_label(self, b: int) -> tuple:
        """(column, position from the bottom) of a block id. The blocks
        of one column touch, so each one below b is a lower block of b."""
        a = self.cols[b]
        return (a, 1 + sum(self.cols[u] == a for u in _bits(self.lower[b])))

    def flippable_triples(self) -> list:
        """Triples (p, q, r) with q covering both p and r, or covered by
        both, normalized so that the column of p is smaller.

        The blocks covering q, like the blocks q covers, form an
        antichain of the heap order, and blocks whose columns touch are
        comparable. So p and r sit in distinct comparable columns, and
        every pair of one group gives a triple.
        """
        cols = self.cols
        covers = self.covers
        above = [0] * self.size  # blocks covering each block
        for b, below in enumerate(covers):
            for u in _bits(below):
                above[u] |= 1 << b
        out = []
        for q in range(self.size):
            for group in (covers[q], above[q]):
                if not group & group - 1:
                    continue  # fewer than two blocks
                for p in _bits(group):
                    for r in _bits(group):
                        if cols[p] < cols[r]:
                            out.append((p, q, r))
        out.sort(key=lambda t: (cols[t[0]], cols[t[1]], cols[t[2]], t))
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
        """Connected components of the adjacency graph on blocks, each
        as sorted block ids, ordered by least block. Blocks are adjacent
        exactly when their columns touch, whatever the orientation, so
        a component holds the blocks of one run of columns
        (UnitIntervalOrder.runs), and flips never change it."""
        run_of = {a: run for run in self.order.runs(self.cols) for a in run}
        groups: dict = {}  # run -> its blocks, in order of least block
        for b, a in enumerate(self.cols):
            groups.setdefault(run_of[a], []).append(b)
        return tuple(map(tuple, groups.values()))

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
                    if self.covers[q] >> p & 1:
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


@lru_cache(maxsize=1)
def _enumerate_heaps(order, mu):
    check_type(mu, order.n)
    canonical = descent_free_words(order, sum(mu), mu)
    return tuple(Heap.from_word(order, w) for w in canonical)


def _flip_class(order: UnitIntervalOrder, word) -> list:
    """The flip class of the heap of a descent-free word, as (canonical
    word, lower masks) pairs sorted by canonical word.

    The word is dropped once, with block ids in (column, position)
    order: the i-th block from the bottom of column a gets the id after
    the blocks of smaller columns and of the i - 1 lower blocks of a.
    Flips never reverse the edge between two blocks of one column (the
    blocks of a flippable triple lie in three distinct columns), so every
    member keeps these ids, and two members are the same heap exactly
    when their masks are equal. Each member then takes one pass: its
    covers (as in Heap.covers), the blocks covering each block, its
    canonical word, and the masks of its flips.

    The canonical word is the lex-least linear extension: at each step
    take the free block of least column, which is the lowest free id.
    A block becomes free when the last of its lower blocks is taken, and
    that block is one it covers (a lower block that it does not cover
    lies below another lower block, taken later). So the walk frees only
    blocks covering the block just taken.

    A start heap with no flippable triple is its own class, and its
    canonical word is the word given.
    """
    cols = tuple(sorted(word))
    d = len(cols)
    touch = order.touch
    first = {}  # column -> its least id, then its next id while dropping
    near = {}  # column -> ids in the columns touching it
    for b in range(d - 1, -1, -1):
        first[cols[b]] = b
    for b, a in enumerate(cols):
        for c in first:
            if touch[a] >> c & 1:
                near[c] = near.get(c, 0) | 1 << b
    lower = [0] * d
    dropped = 0
    for a in word:
        b = first[a]
        first[a] = b + 1
        lower[b] = dropped & near[a]
        dropped |= 1 << b
    start = tuple(lower)
    seen = {start}
    stack = [start]
    out = []
    while stack:
        lower = stack.pop()
        covers = []
        above = [0] * d
        free = 0  # blocks with nothing below
        for b, below in enumerate(lower):
            deeper = 0
            m = below
            while m:
                low = m & -m
                deeper |= lower[low.bit_length() - 1]
                m ^= low
            m = below & ~deeper
            covers.append(m)
            while m:
                low = m & -m
                above[low.bit_length() - 1] |= 1 << b
                m ^= low
            if not below:
                free |= 1 << b
        flips = []
        for q in range(d):
            bit_q = 1 << q
            for group in (covers[q], above[q]):
                if not group & group - 1:
                    continue  # fewer than two blocks
                while group:
                    low = group & -group
                    group ^= low
                    p = low.bit_length() - 1
                    rest = group
                    while rest:
                        low_r = rest & -rest
                        rest ^= low_r
                        flipped = list(lower)
                        flipped[p] ^= bit_q
                        flipped[low_r.bit_length() - 1] ^= bit_q
                        flipped[q] ^= low | low_r
                        flips.append(tuple(flipped))
        if not flips and lower is start:
            return [(tuple(word), start)]
        done = 0
        canonical = []
        while free:
            low = free & -free
            b = low.bit_length() - 1
            canonical.append(cols[b])
            done |= low
            free ^= low
            m = above[b]
            while m:
                low = m & -m
                if not lower[low.bit_length() - 1] & ~done:
                    free |= low
                m ^= low
        out.append((tuple(canonical), lower))
        for key in flips:
            if key not in seen:
                seen.add(key)
                stack.append(key)
    out.sort()  # canonical words differ, so the masks are never compared
    return out


def _member(order, cols, lower, word) -> Heap:
    heap = Heap(order, cols, lower)
    heap.canonical_word = word  # fills the cached_property
    return heap


@dataclass(frozen=True)
class HeapClass:
    """A flip-equivalence class of heaps, sorted by canonical word."""

    heaps: tuple

    @property
    def representative(self) -> tuple:
        """Least canonical word among the member heaps."""
        return self.heaps[0].canonical_word

    @property
    def ascents(self) -> int:
        return self.heaps[0].ascents

    def __len__(self):
        return len(self.heaps)


def flip_closure(heap: Heap) -> list:
    """All heaps reachable from this one by local flips, sorted by
    canonical word.

    The members are rebuilt from the canonical word, so their block ids
    run in (column, position) order (see _flip_class), whatever the ids
    of the given heap.
    """
    order = heap.order
    cols = tuple(sorted(heap.cols))
    return [
        _member(order, cols, lower, w)
        for w, lower in _flip_class(order, heap.canonical_word)
    ]


def enumerate_classes(order: UnitIntervalOrder, mu) -> list:
    """Flip-equivalence classes of heaps of the given type, sorted by
    representative.

    The descent-free words of the type come in lexicographic order, so
    the first word of a class met is its representative.
    """
    mu = tuple(mu)
    check_type(mu, order.n)
    cols = tuple(a for a, x in enumerate(mu, 1) for _ in range(x))
    classes = []
    done = set()
    for w in descent_free_words(order, len(cols), mu):
        if w in done:
            continue
        members = _flip_class(order, w)
        done.update(m for m, _ in members)
        classes.append(
            HeapClass(tuple(_member(order, cols, lower, m) for m, lower in members))
        )
    return classes
