"""Heaps of unit blocks over a unit interval order, and local flips.

A heap of type mu is an acyclic orientation of the graph whose vertices
are mu[a-1] copies of each interval a, with copies of a and b adjacent
exactly when a == b or a, b are incomparable; edges between copies of
the same interval always point toward the earlier copy. Words of type
mu correspond to heaps by dropping blocks onto the interval model in
reading order, and the words of a heap are its linear extensions.

A block is named by its column and its position in that column, as in
Viennot's heaps of pieces, and every heap numbers its blocks in that
(column, position) order (_drop_tables); one drop (_drop) builds the
masks of a word. A Heap stores its orientation as one bitmask per
block, the blocks directly below it, and reads ranks, sinks, covers,
ascents, words and its canonical word off these masks; covers take one
step, because the touch graph on blocks is chordal (see _cover_masks).
A local flip reverses the two edges of a flippable triple and keeps the
block ids, so all the words of a heap, and all the heaps of a flip
class, share one numbering and are told apart by their masks.

Flip classes are closed on plain mask tuples (_flip_class), with the
covers (_cover_masks), triples (_triples), flips (_flipped, three mask
XORs) and canonical words (_canonical, a lowest-bit walk) that a Heap
uses too. Heap objects are built only for the members that
flip_closure and enumerate_classes return. lex_normal_form reads the
canonical word of a word's heap off the word, for a cache keyed by
words (ncsf.class_representative).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property

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


def _drop_tables(order: UnitIntervalOrder, mu) -> tuple:
    """(cols, first, near) for the blocks of type mu in (column,
    position) order: cols is the column of each id, sorted; first[a] is
    the least id of column a (a fresh list, which a drop advances), and
    near[a] the mask of the ids in the columns touching a. Only the
    columns present are visited: those touching a run from the lowest
    set bit of touch[a] to its highest (bounds increase), so their ids
    are one range of cols.
    """
    cols = tuple(a for a, x in enumerate(mu, 1) for _ in range(x))
    touch = order.touch
    first = [0] * (order.n + 1)
    near = [0] * (order.n + 1)
    for a, x in enumerate(mu, 1):
        if x:
            first[a] = bisect_left(cols, a)
            t = touch[a]
            lo = bisect_left(cols, (t & -t).bit_length() - 1)
            near[a] = (1 << bisect_right(cols, t.bit_length() - 1)) - (1 << lo)
    return cols, first, near


def _drop(order: UnitIntervalOrder, word) -> tuple:
    """(cols, lower) of the heap of a word over 1..n, dropped in reading
    order. Ids run in (column, position) order (see _drop_tables), and
    the i-th block from the bottom of column a gets the id after the
    blocks of smaller columns and the i - 1 below it in a. A block's
    lower blocks are those dropped before it in the columns touching
    its own.

    Heap.from_word and _flip_class drop here, chromatic._e_heap_sums
    from the same tables. The test reference OrientedHeap.from_word
    orients every pair of letters on its own and must not call this, so
    that it checks the drop independently.
    """
    cols, first, near = _drop_tables(order, word_type(word, order.n))
    lower = [0] * len(cols)
    dropped = 0
    for a in word:
        b = first[a]
        first[a] = b + 1
        lower[b] = dropped & near[a]
        dropped |= 1 << b
    return cols, tuple(lower)


def _cover_masks(lower) -> tuple:
    """(covers, above) of a heap's lower masks: covers[b] is the mask of
    the blocks b covers in the heap order, its lower blocks that are
    lower blocks of none of its other lower blocks, and above[b] the
    mask of the blocks covering b.

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
    covers = []
    above = [0] * len(lower)
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
    return covers, above


def _triples(covers, above) -> list:
    """Flippable triples (p, q, r) with p < r, from _cover_masks: q
    covers both p and r, or is covered by both.

    The blocks covering q, like the blocks q covers, form an antichain
    of the heap order, and blocks whose columns touch are comparable.
    So p and r sit in distinct comparable columns, p < r puts the
    column of p first, and every pair of one group gives a triple.
    """
    out = []
    for groups in (covers, above):
        for q, group in enumerate(groups):
            if not group & group - 1:
                continue  # fewer than two blocks
            while group:
                low = group & -group
                group ^= low
                p = low.bit_length() - 1
                rest = group
                while rest:
                    low = rest & -rest
                    rest ^= low
                    out.append((p, q, low.bit_length() - 1))
    return out


def _canonical(cols, lower, above) -> tuple:
    """The canonical word of the heap with these columns, lower masks and
    blocks covering each block (_cover_masks): its lex-least linear
    extension, the unique descent-free word of the heap.

    At each step take the free block of least column, which is the
    lowest free id. A block becomes free when the last of its lower
    blocks is taken, and that block is one it covers (a lower block that
    it does not cover lies below another lower block, taken later). So
    the walk frees only blocks covering the block just taken.
    """
    free = sum(1 << b for b, below in enumerate(lower) if not below)
    done = 0
    out = []
    while free:
        low = free & -free
        b = low.bit_length() - 1
        out.append(cols[b])
        done |= low
        free ^= low
        m = above[b]
        while m:
            low = m & -m
            if not lower[low.bit_length() - 1] & ~done:
                free |= low
            m ^= low
    return tuple(out)


def _flipped(lower, triple) -> tuple:
    """The lower masks after flipping a triple (p, q, r): each of the
    edges p-q and q-r moves its bit to the other end's mask, three mask
    XORs; the block ids stay."""
    p, q, r = triple
    out = list(lower)
    bit_q = 1 << q
    out[p] ^= bit_q
    out[r] ^= bit_q
    out[q] ^= 1 << p | 1 << r
    return tuple(out)


def _forbidden_paths(touch, cols, lower, levels):
    """The forbidden paths of the heap with these columns, lower masks and
    ranks, yielded lazily in lexicographic order of their column sequences.

    A forbidden path is a set of blocks, one per column a_1 < ... < a_k,
    whose columns induce a path in the incomparability graph, with
    rank(block in a_1) = 1 and rank(block in a_j) = k - j + 1 for
    j >= 2, such that the first three blocks form a flippable triple.

    The rank r of the second block fixes k = r + 1, and each later block
    has rank one less than the one before, so a path grows only by a
    later column that touches the last one, no earlier one, and holds a
    block of exactly that rank. A third block lies one rank below the
    second in a touching column, so the second covers it, and its column
    does not touch the first's: the triple flips exactly when the second
    block covers the first too (see _cover_masks). Columns go in
    increasing order and at most one block of a column covers the first
    block, so the paths come out in lexicographic order.
    """
    by_col: dict = {}  # column -> rank -> block
    present = 0  # bit a set when column a holds a block
    for b, a in enumerate(cols):
        by_col.setdefault(a, {})[levels[b]] = b
        present |= 1 << a

    def later(last, earlier):  # the later columns touching last, none of earlier
        return _bits(touch[last] & present & ~earlier & ~((2 << last) - 1))

    def extend(path, last, earlier):
        want = levels[path[-1]] - 1
        if not want:
            yield tuple(path)
            return
        for a in later(last, earlier):
            if (b := by_col[a].get(want)) is not None:
                yield from extend(path + [b], a, earlier | touch[last])

    for a1 in sorted(by_col):
        if (p := by_col[a1].get(1)) is None:
            continue
        for a2 in later(a1, 0):
            for q in by_col[a2].values():
                if lower[q] >> p & 1 and not any(lower[x] >> p & 1 for x in _bits(lower[q])):
                    yield from extend([p, q], a2, touch[a1])


class Heap:
    """Immutable heap; block ids are 0..d-1, each with a column.

    The ids run in (column, position) order: cols is sorted, and the
    blocks of a column are numbered bottom-up. Every constructor keeps
    this, flips included, since a flip never reverses the edge between
    two blocks of one column. The orientation is one int per block: bit
    u of lower[b] is set when block u lies directly below block b (their
    columns touch, and the edge between them points up to b). Every
    statistic is read off these masks, and two heaps over one order are
    equal exactly when their cols and masks are.
    """

    __slots__ = ("order", "cols", "lower", "__dict__")

    def __init__(self, order: UnitIntervalOrder, cols, lower):
        self.order = order
        self.cols = tuple(cols)
        self.lower = tuple(lower)

    @classmethod
    def from_word(cls, order: UnitIntervalOrder, word) -> "Heap":
        """Drop the letters of the word in reading order (see _drop)."""
        word = tuple(word)
        if not word:
            raise ValueError("empty word")
        for a in word:
            if not 1 <= a <= order.n:
                raise ValueError(f"letter {a} outside the alphabet")
        return cls(order, *_drop(order, word))

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
        order, taken in one step (see _cover_masks)."""
        return tuple(_cover_masks(self.lower)[0])

    @cached_property
    def canonical_word(self) -> tuple:
        """The unique descent-free word of the heap (_canonical)."""
        return _canonical(self.cols, self.lower, _cover_masks(self.lower)[1])

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
        """Oriented adjacencies whose lower block sits in a larger column:
        the ids from the end of a block's column on."""
        end = {a: b + 1 for b, a in enumerate(self.cols)}  # column -> past its top
        return sum((below >> end[a]).bit_count() for a, below in zip(self.cols, self.lower))

    def block(self, a: int, i: int) -> int:
        """Id of the i-th lowest block (1-based) in column a."""
        b = bisect_left(self.cols, a) + i - 1
        if i < 1 or b >= self.size or self.cols[b] != a:
            raise ValueError(f"column {a} has no block {i}")
        return b

    def flippable_triples(self) -> list:
        """Triples (p, q, r) with q covering both p and r, or covered by
        both, normalized so that the column of p is smaller (see
        _triples)."""
        cols = self.cols
        out = _triples(*_cover_masks(self.lower))
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
        """flip without the check that the triple is flippable (see
        _flipped)."""
        return Heap(self.order, self.cols, _flipped(self.lower, triple))

    def forbidden_paths(self) -> list:
        """The block tuples of its forbidden paths (_forbidden_paths); a heap
        with one is outside the hook family (see chromatic.coeff_e_hook)."""
        return list(_forbidden_paths(self.order.touch, self.cols, self.lower, self.levels))

    def __eq__(self, other):
        return (
            isinstance(other, Heap)
            and self.order == other.order
            and self.cols == other.cols
            and self.lower == other.lower
        )

    def __hash__(self):
        return hash((self.order.m, self.cols, self.lower))

    def __repr__(self):
        return f"Heap({self.order.text()!r}, word={self.order.word_text(self.canonical_word)})"


# ---------------------------------------------------------------------------
# enumeration and equivalence classes


def enumerate_heaps(order: UnitIntervalOrder, mu) -> tuple:
    """All heaps of the given type, sorted by canonical word."""
    mu = tuple(mu)
    check_type(mu, order.n)
    return tuple(Heap.from_word(order, w) for w in descent_free_words(order, sum(mu), mu))


def _flip_class(order: UnitIntervalOrder, word) -> list:
    """The flip class of the heap of a descent-free word, as (canonical
    word, lower masks) pairs sorted by canonical word.

    The word is dropped once (_drop). Flips keep the block ids, so two
    members are the same heap exactly when their masks are equal. Each
    member then takes one pass: its covers and the blocks covering each
    block (_cover_masks, as Heap.covers does), its flippable triples
    (_triples) and their masks (_flipped), and its canonical word
    (_canonical, as Heap.canonical_word does).

    A start heap with no flippable triple is its own class, and its
    canonical word is the word given.
    """
    cols, start = _drop(order, word)
    seen = {start}
    stack = [start]
    out = []
    while stack:
        lower = stack.pop()
        covers, above = _cover_masks(lower)
        flips = [_flipped(lower, t) for t in _triples(covers, above)]
        if not flips and lower is start:
            return [(tuple(word), start)]
        out.append((_canonical(cols, lower, above), lower))
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


class HeapClass:
    """A flip-equivalence class of heaps, sorted by canonical word.
    Frozen and hashable; the heaps are kept as a tuple."""

    __slots__ = ("heaps",)

    def __init__(self, heaps):
        object.__setattr__(self, "heaps", tuple(heaps))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.heaps == other.heaps

    def __hash__(self):
        return hash(self.heaps)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(heaps={self.heaps!r})"

    def __reduce__(self):
        return (self.__class__, (self.heaps,))

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
    canonical word."""
    order = heap.order
    return [
        _member(order, heap.cols, lower, w)
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
            HeapClass(_member(order, cols, lower, m) for m, lower in members)
        )
    return classes
