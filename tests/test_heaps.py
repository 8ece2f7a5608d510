"""Heaps, canonical words, flips and the word graph."""

import itertools
from bisect import bisect_left
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import chromheap.heaps as heaps
import chromheap.ncsf as ncsf
from chromheap.heaps import (
    Heap,
    _flip_class,
    descent_free_words,
    descent_positions,
    enumerate_classes,
    enumerate_heaps,
    flip_closure,
    has_nontrivial_ltr_maximum,
    inversion_count,
    lex_normal_form,
    ltr_maxima_positions,
)
from chromheap.partitions import check_type, multiset_permutations, word_type
from chromheap.posets import UnitIntervalOrder
from chromheap.render import heap_svg

P233 = UnitIntervalOrder((2, 3, 3))
P2444 = UnitIntervalOrder((2, 4, 4, 4))
P24555 = UnitIntervalOrder((2, 4, 5, 5, 5))


def is_descent_free(order, w):
    return not any(order.less(w[i + 1], w[i]) for i in range(len(w) - 1))


def from_levels(order, levels):
    """The heap of a diagram given as {column: iterable of levels}.

    The blocks are dropped with Heap.from_word, level by level and by
    column within a level. Each lands one level above the highest
    touching block dropped before it, so it lands on its given level
    exactly when the diagram is gravity-stable: it rests on a touching
    block one level down, and no touching block shares its level.
    Raises ValueError for a column outside 1..n, and when the diagram is
    empty or not gravity-stable.
    """
    for a in levels:
        if not 1 <= a <= order.n:
            raise ValueError(f"column {a} outside the alphabet")
    cells = sorted((a, lv) for a in levels for lv in levels[a])  # in id order
    heap = Heap.from_word(order, [a for a, _ in sorted(cells, key=lambda c: c[::-1])])
    if heap.levels != tuple(lv for _, lv in cells):
        raise ValueError("diagram is not gravity-stable")
    return heap


def block_label(heap, b):
    """(column, position from the bottom) of a block id."""
    a = heap.cols[b]
    return (a, b + 1 - bisect_left(heap.cols, a))


def components(heap):
    """Connected components of the adjacency graph on blocks, each as
    sorted block ids, ordered by least block. Blocks are adjacent exactly
    when their columns touch, whatever the orientation, so a component
    holds the blocks of one run of columns (UnitIntervalOrder.runs), a
    range of ids."""
    cols = heap.cols
    return tuple(
        tuple(range(bisect_left(cols, run[0]), bisect_left(cols, run[-1] + 1)))
        for run in heap.order.runs(cols)
    )


def component_type(heap, comp):
    """Classify a rank <= 2 connected component as S, N, M or W."""
    ranks = [heap.levels[b] for b in comp]
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


# ---------------------------------------------------------------------------
# word statistics


def test_word_statistics_frozen_example():
    w = (4, 1, 3, 2, 3, 1)
    assert descent_positions(P2444, w) == frozenset({1, 5})
    assert inversion_count(P2444, w) == 5


def test_ltr_maxima():
    assert ltr_maxima_positions(P233, (1, 2, 3)) == (1,)
    assert ltr_maxima_positions(P233, (1, 3, 2)) == (1, 2)
    assert not has_nontrivial_ltr_maximum(P233, (2, 1, 3))
    assert has_nontrivial_ltr_maximum(P233, (1, 3, 2))


def test_ltr_maxima_equal_the_definition():
    for order in UnitIntervalOrder.all_orders(4):
        for w in itertools.product(range(1, 5), repeat=5):
            want = tuple(
                i + 1
                for i in range(len(w))
                if all(order.less(w[j], w[i]) for j in range(i))
            )
            assert ltr_maxima_positions(order, w) == want, (order.m, w)


def test_descent_free():
    assert is_descent_free(P233, (1, 2, 3))
    assert is_descent_free(P233, (2, 1, 3))  # 1, 2 incomparable
    assert not is_descent_free(P233, (3, 1, 2))


# ---------------------------------------------------------------------------
# heap construction


def test_heap_from_word_and_words():
    heap = Heap.from_word(P233, (1, 3, 1, 2, 1, 3))
    assert sorted("".join(map(str, w)) for w in heap.words()) == [
        "113213",
        "113231",
        "131213",
        "131231",
        "311213",
        "311231",
    ]
    assert heap.canonical_word == (1, 1, 3, 2, 1, 3)


def test_canonical_word_is_unique_descent_free_word():
    for order in (P233, UnitIntervalOrder((2, 2, 3))):
        for h in enumerate_heaps(order, (1, 1, 2)):
            dfree = [w for w in h.words() if is_descent_free(order, w)]
            assert dfree == [h.canonical_word]


@st.composite
def orders_and_words(draw, max_n=6, max_len=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bounds = []
    for i in range(1, n + 1):
        lowest = max([i] + bounds[-1:])  # i <= m_i, weakly increasing
        bounds.append(draw(st.integers(min_value=lowest, max_value=n)))
    word = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_len))
    return UnitIntervalOrder(bounds), tuple(word)


def _projection(w, a, b):
    return tuple(x for x in w if x in (a, b))


@settings(max_examples=200, deadline=None)
@given(orders_and_words())
def test_lex_normal_form_is_the_canonical_word(case):
    order, w = case
    nf = lex_normal_form(order, w)
    assert nf == Heap.from_word(order, w).canonical_word
    assert is_descent_free(order, nf)
    # same trace: every pair of letters that may not commute keeps its
    # relative order (the projection criterion for trace equivalence)
    for a in range(1, order.n + 1):
        for b in range(a, order.n + 1):
            if not order.comparable(a, b):
                assert _projection(nf, a, b) == _projection(w, a, b)


@settings(max_examples=200, deadline=None)
@given(orders_and_words(), st.data())
def test_heap_equality_is_trace_equality(case, data):
    """Two words of one type give equal heaps, equal hashes and equal
    lower masks exactly when they have one lex normal form; the diagram
    of a heap rebuilds it."""
    order, w = case
    v = list(data.draw(st.permutations(w)))
    if data.draw(st.booleans()):
        # swap adjacent comparable letters of w, which commute: one trace
        v = list(w)
        for i in data.draw(st.lists(st.integers(0, len(w) - 1))):
            if i + 1 < len(v) and order.comparable(v[i], v[i + 1]):
                v[i], v[i + 1] = v[i + 1], v[i]
    h, g = Heap.from_word(order, w), Heap.from_word(order, v)
    same = lex_normal_form(order, w) == lex_normal_form(order, v)
    assert h.cols == g.cols == tuple(sorted(w))
    assert (h == g) == same
    assert (hash(h) == hash(g)) == same
    assert (h.lower == g.lower) == same
    diagram: dict = {}
    for a, lv in zip(h.cols, h.levels):
        diagram.setdefault(a, []).append(lv)
    assert from_levels(order, diagram) == h


def test_lex_normal_form_edge_cases():
    assert lex_normal_form(P233, ()) == ()
    assert lex_normal_form(P233, (3, 1, 2)) == (1, 3, 2)
    with pytest.raises(ValueError):
        lex_normal_form(P233, (1, 4))
    with pytest.raises(ValueError):
        lex_normal_form(P233, (0, 1))


def test_words_partition_all_words():
    mu = (1, 1, 2)
    heaps = enumerate_heaps(P233, mu)
    seen = []
    for h in heaps:
        seen.extend(h.words())
    assert sorted(seen) == sorted(multiset_permutations(mu))


def test_inversions_constant_on_heap_and_equal_ascents():
    for mu in ((1, 1, 2), (2, 1, 1)):
        for h in enumerate_heaps(P233, mu):
            invs = {inversion_count(P233, w) for w in h.words()}
            assert invs == {h.ascents}


def test_from_levels():
    heap = from_levels(P233, {1: [1], 2: [2], 3: [1]})
    assert heap.canonical_word == (1, 3, 2)
    supported = from_levels(P233, {1: [2], 2: [1]})
    assert supported.canonical_word == (2, 1)
    with pytest.raises(ValueError):
        from_levels(P233, {1: [2]})  # floating block
    with pytest.raises(ValueError):
        from_levels(P233, {1: [1], 2: [1]})  # overlapping blocks
    with pytest.raises(ValueError):
        from_levels(P233, {1: [1, 1]})  # two blocks in one cell
    with pytest.raises(ValueError):
        from_levels(P233, {})  # no block, like the empty word


def test_from_levels_rejects_columns_outside_the_alphabet():
    for a in (0, 4):
        with pytest.raises(ValueError, match=f"column {a} outside the alphabet"):
            from_levels(P233, {a: [1]})


def test_block_label_round_trip():
    heap = Heap.from_word(P233, (1, 3, 1, 2, 1, 3))
    for b in range(heap.size):
        a, i = block_label(heap, b)
        assert heap.block(a, i) == b
    with pytest.raises(ValueError):
        heap.block(1, 9)


def test_rank_sinks_levels():
    heap = Heap.from_word(P233, (1, 2, 3))
    assert heap.levels == (1, 2, 3)
    assert heap.rank == 3
    assert heap.sink_count == 1
    flat = Heap.from_word(P233, (1, 3))
    assert flat.levels == (1, 1)
    assert flat.sink_count == 2


def test_levels_reject_a_cyclic_orientation():
    # blocks 0 and 1 (columns 1 and 2 touch) each listed below the other
    with pytest.raises(ValueError, match="cycle"):
        Heap(P233, (1, 2), (0b10, 0b01)).levels


# ---------------------------------------------------------------------------
# enumeration and classes


def test_running_example_counts():
    mu = (1, 1, 2)
    assert len(list(multiset_permutations(mu))) == 12
    assert len(enumerate_heaps(P233, mu)) == 6
    assert len(enumerate_classes(P233, mu)) == 4


def test_enumerate_heaps_rejects_wrong_type_length():
    with pytest.raises(ValueError, match="type vector length must equal n"):
        enumerate_heaps(P233, (1, 1))


@pytest.mark.parametrize("method", ["flips", "words"])
def test_both_class_methods_reject_a_bad_type(method):
    """Through enumerate_classes (flips) and gamma_components (words)."""
    classes = enumerate_classes if method == "flips" else classes_by_words
    with pytest.raises(ValueError, match="type vector length must equal n"):
        classes(P233, (1, 1))
    with pytest.raises(ValueError, match="entries must be nonnegative"):
        classes(P233, (1, -1, 1))


def test_class_methods_agree():
    cases = [(P233, (1, 1, 2)), (P233, (2, 2, 1)), (P2444, (1, 1, 1, 1))]
    for n in range(1, 5):
        for order in UnitIntervalOrder.all_orders(n):
            cases.append((order, (1,) * n))
    for order, mu in cases:
        by_flips = [[h.canonical_word for h in c.heaps] for c in enumerate_classes(order, mu)]
        assert by_flips == classes_by_words(order, mu), (order.m, mu)


def test_class_ascents_constant():
    for c in enumerate_classes(P233, (1, 1, 2)):
        assert len({h.ascents for h in c.heaps}) == 1
        assert word_type(c.representative, 3) == (1, 1, 2)


def test_class_ascent_values():
    classes = enumerate_classes(P233, (1, 1, 2))
    assert sorted(c.ascents for c in classes) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# flips


def test_flip_reconstruction_frozen_example():
    diagram = {1: [1, 2, 5], 2: [4], 4: [1, 3], 5: [2, 4]}
    flipped = from_levels(P24555, diagram)
    assert flipped.mu == (3, 1, 0, 2, 2)
    trip = (flipped.block(2, 1), flipped.block(4, 2), flipped.block(5, 2))
    orig = flipped.flip(trip)
    labels = sorted(
        tuple(block_label(orig, b) for b in t) for t in orig.flippable_triples()
    )
    assert labels == [
        ((1, 2), (2, 1), (4, 1)),
        ((1, 3), (2, 1), (4, 2)),
        ((2, 1), (4, 1), (5, 1)),
        ((2, 1), (4, 2), (5, 2)),
    ]
    back = orig.flip((orig.block(2, 1), orig.block(4, 2), orig.block(5, 2)))
    assert back == flipped


def test_flip_preserves_type_and_ascents():
    for h in enumerate_heaps(P233, (1, 1, 2)):
        for t in h.flippable_triples():
            h2 = h.flip(t)
            assert h2.mu == h.mu
            assert h2.ascents == h.ascents
            assert h2.flip(t) == h


def test_flip_rejects_non_flippable():
    heap = Heap.from_word(P233, (1, 2, 3))
    with pytest.raises(ValueError):
        heap.flip((0, 1, 2))


def flip_closure_by_canonical_word(heap):
    """Reference for flip_closure: members told apart by their
    canonical words instead of their lower masks."""
    seen = {heap.canonical_word: heap}
    frontier = [heap]
    while frontier:
        h = frontier.pop()
        for t in h.flippable_triples():
            h2 = h._flip(t)
            key = h2.canonical_word
            if key not in seen:
                seen[key] = h2
                frontier.append(h2)
    return [seen[k] for k in sorted(seen)]


def test_flip_closure_equals_the_canonical_word_reference():
    heaps = 0
    for order, mu in small_heap_types():
        for h in enumerate_heaps(order, mu):
            # ids run in (column, position) order, so every word of the
            # heap, the first ones and the last, drops to the same masks
            assert list(h.cols) == sorted(h.cols), h
            ws = h.words()
            for w in ws[:2] + ws[-1:]:
                assert Heap.from_word(order, w).lower == h.lower, (h, w)
            got = [m.canonical_word for m in flip_closure(h)]
            assert got == [m.canonical_word for m in flip_closure_by_canonical_word(h)], h
            heaps += 1
    assert heaps > 20000


def test_flip_class_words_equal_the_rank_sort_route():
    """The kernel's low-bit walk against lex_normal_form of one word of
    each member, its blocks read off rank by rank."""
    members = 0
    for order, mu in small_heap_types():
        cols = tuple(sorted(a for a, x in enumerate(mu, 1) for _ in range(x)))
        for w in descent_free_words(order, len(cols), mu):
            for word, lower in _flip_class(order, w):
                levels = Heap(order, cols, lower).levels
                by_rank = sorted(range(len(cols)), key=levels.__getitem__)
                assert word == lex_normal_form(order, [cols[b] for b in by_rank]), (order.m, w)
                members += 1
    assert members > 20000


def test_canonical_word_takes_no_normal_form(monkeypatch):
    """Heap.canonical_word walks the masks (heaps._canonical), so that
    lex_normal_form, which reads the word alone, checks it."""
    cases = [(P233, (1, 1, 2)), (P2444, (1, 1, 1, 1)), (P24555, (2, 1, 0, 1, 2))]
    ws = [(order, w) for order, mu in cases for w in multiset_permutations(mu)]
    want = [lex_normal_form(order, w) for order, w in ws]

    def refuse(order, word):
        raise AssertionError("Heap.canonical_word took a normal form")

    monkeypatch.setattr(heaps, "lex_normal_form", refuse)
    assert [Heap.from_word(order, w).canonical_word for order, w in ws] == want


def test_class_representative_equals_the_reference(monkeypatch):
    monkeypatch.setattr(ncsf, "_rep_cache", {})  # every class starts cold
    checked = 0
    for order, mu in small_heap_types():
        if sum(mu) < 3:
            continue
        for i, w in enumerate(multiset_permutations(mu)):
            if i % 5 or is_descent_free(order, w):
                continue
            members = flip_closure_by_canonical_word(Heap.from_word(order, w))
            want = min(m.canonical_word for m in members)
            assert ncsf.class_representative(order, w) == want, (order.m, w)
            checked += 1
    assert checked > 1000


def test_flip_closure_is_symmetric():
    for h in enumerate_heaps(P233, (1, 1, 2)):
        members = flip_closure(h)
        for m in members:
            assert {x.canonical_word for x in flip_closure(m)} == {
                x.canonical_word for x in members
            }


# ---------------------------------------------------------------------------
# component classification


def test_component_types():
    def types(heap):
        return [component_type(heap, c) for c in components(heap)]

    assert types(Heap.from_word(P233, (1,))) == ["S"]
    assert types(Heap.from_word(P233, (1, 3, 2))) == ["M"]
    assert types(Heap.from_word(P233, (2, 1, 3))) == ["W"]
    assert types(Heap.from_word(UnitIntervalOrder((2, 2)), (1, 2))) == ["N"]
    tall = Heap.from_word(UnitIntervalOrder((2, 2)), (1, 2, 1))
    with pytest.raises(ValueError):
        component_type(tall, components(tall)[0])


def test_component_type_exhaustive_rank_two():
    """Every rank <= 2 component over small orders gets a valid label,
    consistent with its rank profile."""
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            for h in enumerate_heaps(order, (1,) * n):
                if h.rank > 2:
                    continue
                for comp in components(h):
                    kind = component_type(h, comp)
                    n1 = sum(1 for b in comp if h.levels[b] == 1)
                    n2 = sum(1 for b in comp if h.levels[b] == 2)
                    assert kind == {0: "S"}.get(n2) if n2 == 0 else True
                    if kind == "S":
                        assert (n1, n2) == (1, 0)
                    elif kind == "N":
                        assert n1 == n2
                    elif kind == "M":
                        assert n1 == n2 + 1
                    else:
                        assert kind == "W" and n1 == n2 - 1


# ---------------------------------------------------------------------------
# forbidden paths


def test_forbidden_path_present():
    heap = Heap.from_word(P233, (1, 3, 2))
    paths = heap.forbidden_paths()
    assert len(paths) == 1
    assert [heap.cols[b] for b in paths[0]] == [1, 2, 3]


def test_forbidden_path_absent():
    assert Heap.from_word(P233, (1, 2, 3)).forbidden_paths() == []
    assert Heap.from_word(P233, (2, 1, 3)).forbidden_paths() == []


def test_forbidden_path_longer():
    # columns 1-2-3-4 form an induced path; ranks must run 1, 3, 2, 1
    order = UnitIntervalOrder((2, 3, 4, 4))
    heap = from_levels(order, {1: [1], 2: [3], 3: [2], 4: [1]})
    paths = heap.forbidden_paths()
    assert any([heap.cols[b] for b in p] == [1, 2, 3, 4] for p in paths)


def forbidden_paths_exhaustive(heap):
    """Reference for Heap.forbidden_paths: every induced column path in
    depth-first order, with the ranks and the flippable first triple
    checked only once a path is complete."""
    order = heap.order
    by_col = {}
    for b in range(heap.size):
        by_col.setdefault(heap.cols[b], {})[heap.levels[b]] = b
    columns = sorted(by_col)
    flips = set(heap.flippable_triples())
    flips |= {(r, q, p) for p, q, r in flips}
    out = []

    def is_path(cols_):
        for x in range(len(cols_)):
            for y in range(x + 1, len(cols_)):
                adj = order.adjacent(cols_[x], cols_[y])
                if y - x == 1 and not adj:
                    return False
                if y - x > 1 and adj:
                    return False
        return True

    def extend(path_cols):
        k = len(path_cols)
        if k >= 3:
            blocks = []
            ok = True
            for j, a in enumerate(path_cols, start=1):
                want = 1 if j == 1 else k - j + 1
                b = by_col[a].get(want)
                if b is None:
                    ok = False
                    break
                blocks.append(b)
            if ok and (blocks[0], blocks[1], blocks[2]) in flips:
                out.append(tuple(blocks))
        for a in columns:
            if a > path_cols[-1] and is_path(path_cols + [a]):
                extend(path_cols + [a])

    for a in columns:
        extend([a])
    return out


def refuse_heaps_from_words(monkeypatch):
    """Make Heap.from_word raise, so that any code building a heap by
    dropping a word fails the test that calls this."""

    def refuse(cls, order, word):
        raise RuntimeError(f"a heap was dropped from the word {word}")

    monkeypatch.setattr(Heap, "from_word", classmethod(refuse))


def small_heap_types():
    """(order, mu) for mu = 1^n over every order with n <= 6, and every
    other type with entries <= 2 over every order with n <= 4."""
    for n in range(1, 7):
        for order in UnitIntervalOrder.all_orders(n):
            yield order, (1,) * n
            if n > 4:
                continue
            for mu in itertools.product(range(3), repeat=n):
                if any(x != 1 for x in mu) and sum(mu):
                    yield order, mu


def test_forbidden_paths_equal_the_exhaustive_search():
    heaps = found = 0
    for order, mu in small_heap_types():
        for h in enumerate_heaps(order, mu):
            paths = h.forbidden_paths()
            assert paths == forbidden_paths_exhaustive(h), h
            heaps += 1
            found += bool(paths)
    # the sweep reaches heaps with and without forbidden paths
    assert heaps > 20000 and found > 1000


def test_flipped_heaps_keep_levels_and_lower_blocks():
    """Flips leave block ids out of topological order; levels and the
    lower masks still match the rebuilt diagram."""
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            for mu in ((1,) * n, (2,) + (1,) * (n - 1)):
                for cls in enumerate_classes(order, mu):
                    for h in cls.heaps:
                        _assert_matches_its_diagram(h)


def _assert_matches_its_diagram(h):
    diagram = {}
    for b in range(h.size):
        diagram.setdefault(h.cols[b], []).append(h.levels[b])
    rebuilt = from_levels(h.order, diagram)
    assert rebuilt == h
    where = {(rebuilt.cols[b], rebuilt.levels[b]): b for b in range(rebuilt.size)}
    for b in range(h.size):
        twin = where[h.cols[b], h.levels[b]]
        labels = {(h.cols[u], h.levels[u]) for u in _bits(h.lower[b])}
        assert labels == {(rebuilt.cols[u], rebuilt.levels[u]) for u in _bits(rebuilt.lower[twin])}


def _bits(mask):
    """Set bits of a mask, lowest first."""
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


# ---------------------------------------------------------------------------
# reference: the orientation as a set of pairs


class OrientedHeap:
    """Reference for the mask Heap: the orientation as a set of
    (lower, upper) block pairs, each statistic derived by its own walk."""

    def __init__(self, order, cols, orient):
        self.order = order
        self.cols = tuple(cols)
        self.orient = frozenset(orient)
        self.size = len(self.cols)

    @cached_property
    def _lower(self):
        lower = [[] for _ in self.cols]
        for lo, hi in self.orient:
            lower[hi].append(lo)
        return tuple(tuple(sorted(v)) for v in lower)

    @cached_property
    def _upper(self):
        upper = [[] for _ in self.cols]
        for lo, hi in self.orient:
            upper[lo].append(hi)
        return tuple(tuple(sorted(v)) for v in upper)

    @property
    def masks(self):
        """The orientation as Heap.lower masks."""
        lower = [0] * self.size
        for lo, hi in self.orient:
            lower[hi] |= 1 << lo
        return tuple(lower)

    @classmethod
    def from_word(cls, order, word):
        """Orient every pair of positions by comparability of their
        letters, the earlier one below, then name position j by its
        (column, position) id: the number of letters in smaller columns
        plus the number of earlier copies of its own letter. It shares
        no code with heaps._drop, which it checks."""
        ids = [
            sum(a < word[j] for a in word) + word[:j].count(word[j])
            for j in range(len(word))
        ]
        orient = [
            (ids[i], ids[j])
            for j in range(len(word))
            for i in range(j)
            if not order.comparable(word[i], word[j])
        ]
        return cls(order, sorted(word), orient)

    @classmethod
    def of(cls, heap):
        orient = [(u, b) for b in range(heap.size) for u in _bits(heap.lower[b])]
        return cls(heap.order, heap.cols, orient)

    @property
    def levels(self):
        memo = [0] * self.size

        def rank(b):
            if memo[b] == 0:
                memo[b] = 1 + max((rank(u) for u in self._lower[b]), default=0)
            return memo[b]

        return tuple(rank(b) for b in range(self.size))

    @property
    def sinks(self):
        return tuple(b for b in range(self.size) if not self._lower[b])

    @cached_property
    def _descendants(self):
        memo = [None] * self.size

        def desc(b):
            if memo[b] is None:
                mask = 0
                for u in self._lower[b]:
                    mask |= (1 << u) | desc(u)
                memo[b] = mask
            return memo[b]

        return tuple(desc(b) for b in range(self.size))

    @cached_property
    def covers(self):
        out = []
        for b in range(self.size):
            below = self._lower[b]
            cb = []
            for u in below:
                others = 0
                for v in below:
                    if v != u:
                        others |= (1 << v) | self._descendants[v]
                if not (others >> u) & 1:
                    cb.append(u)
            out.append(tuple(cb))
        return tuple(out)

    @property
    def covered_by(self):
        out = [[] for _ in self.cols]
        for b, cb in enumerate(self.covers):
            for u in cb:
                out[u].append(b)
        return tuple(tuple(v) for v in out)

    def flippable_triples(self):
        """Pairs from the covers tuple of q, or from its covered-by tuple,
        in nonadjacent columns, swapped so that p has the smaller column."""
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

    @property
    def canonical_word(self):
        pending = [len(v) for v in self._lower]
        free = [b for b in range(self.size) if not pending[b]]
        word = []
        while free:
            b = free.pop()
            word.append(self.cols[b])
            for v in self._upper[b]:
                pending[v] -= 1
                if not pending[v]:
                    free.append(v)
        return lex_normal_form(self.order, word)

    def words(self):
        pending = [len(v) for v in self._lower]
        remaining = set(range(self.size))
        word = []
        out = []

        def rec():
            if not remaining:
                out.append(tuple(word))
                return
            for b in sorted(remaining):
                if pending[b] == 0:
                    remaining.remove(b)
                    for v in self._upper[b]:
                        pending[v] -= 1
                    word.append(self.cols[b])
                    rec()
                    word.pop()
                    for v in self._upper[b]:
                        pending[v] += 1
                    remaining.add(b)

        rec()
        return out

    @property
    def ascents(self):
        return sum(1 for lo, hi in self.orient if self.cols[lo] > self.cols[hi])

    def _flip(self, triple):
        p, q, r = triple
        orient = set(self.orient)
        for u, v in ((p, q), (q, r)):
            if (u, v) in orient:
                orient.remove((u, v))
                orient.add((v, u))
            else:
                orient.remove((v, u))
                orient.add((u, v))
        return OrientedHeap(self.order, self.cols, orient)

    @property
    def components(self):
        seen = set()
        comps = []
        adj = [[] for _ in self.cols]
        for lo, hi in self.orient:
            adj[lo].append(hi)
            adj[hi].append(lo)
        for b in range(self.size):
            if b in seen:
                continue
            stack, comp = [b], []
            seen.add(b)
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


def _assert_matches_the_reference(h, ref):
    assert list(h.cols) == sorted(h.cols), h
    assert h.lower == ref.masks, h
    for name in ("levels", "sinks", "ascents", "canonical_word"):
        assert getattr(h, name) == getattr(ref, name), (h, name)
    assert components(h) == ref.components, h
    assert h.covers == tuple(sum(1 << u for u in c) for c in ref.covers), h
    levels = ref.levels
    for b, a in enumerate(h.cols):
        # blocks of one column touch, so their ranks order them
        column = sorted((u for u, c in enumerate(h.cols) if c == a), key=levels.__getitem__)
        i = column.index(b) + 1
        assert block_label(h, b) == (a, i), (h, b)
        assert h.block(a, i) == b, (h, b)
    if h.size <= 6:
        assert h.words() == ref.words(), h
    for t in h.flippable_triples():
        assert h._flip(t).lower == ref._flip(t).masks, (h, t)


def test_masks_equal_the_orientation_set_reference():
    """Every heap is built from its word, then every statistic is
    compared on every member of its flip closure, which holds each heap
    of the type once."""
    heaps = reordered = 0
    for order, mu in small_heap_types():
        for h in enumerate_heaps(order, mu):
            assert h.lower == OrientedHeap.from_word(order, h.canonical_word).masks, h
        for cls in enumerate_classes(order, mu):
            for h in cls.heaps:
                _assert_matches_the_reference(h, OrientedHeap.of(h))
                heaps += 1
                reordered += list(h.levels) != sorted(h.levels)
    # the sweep reaches flipped heaps whose levels do not rise with the ids
    assert heaps > 20000 and reordered > 1000


def test_flippable_triples_equal_the_tuple_reference():
    """The mask triples equal those paired from the reference's covers
    and covered-by tuples, with the column test, on every member of
    every flip closure."""
    heaps = flippable = 0
    for order, mu in small_heap_types():
        for cls in enumerate_classes(order, mu):
            for h in cls.heaps:
                triples = h.flippable_triples()
                assert triples == OrientedHeap.of(h).flippable_triples(), h
                heaps += 1
                flippable += bool(triples)
    assert heaps > 20000 and flippable > 10000


# ---------------------------------------------------------------------------
# word graph: the words route to the classes


def gamma_neighbors(order, w, barred=True):
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


def gamma_components(order, mu, barred=True):
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


def classes_by_words(order, mu):
    """Reference for enumerate_classes: the descent-free words of each
    component of the barred word graph, sorted within and across
    classes."""
    return sorted(
        sorted(w for w in comp if is_descent_free(order, w))
        for comp in gamma_components(order, mu, barred=True)
    )


def test_gamma_components_running_example():
    unbarred = gamma_components(P233, (1, 1, 2), barred=False)
    barred = gamma_components(P233, (1, 1, 2), barred=True)
    assert len(unbarred) == 6
    assert len(barred) == 4
    heaps = {frozenset(h.words()) for h in enumerate_heaps(P233, (1, 1, 2))}
    assert {frozenset(c) for c in unbarred} == heaps


def test_gamma_neighbors_moves():
    # unbarred: swap an adjacent comparable pair
    out = gamma_neighbors(P233, (1, 3, 2), barred=False)
    assert ((3, 1, 2), 1) in out
    # barred: the window patterns for a < b < c
    out = gamma_neighbors(P233, (2, 1, 3), barred=True)
    assert any(v == (1, 3, 2) for v, _ in out)
    # unbarred moves never touch incomparable pairs
    for v, _ in gamma_neighbors(P233, (2, 1, 3), barred=False):
        assert v != (1, 2, 3)


def test_gamma_preserves_inversions_and_type():
    for w in multiset_permutations((1, 1, 2)):
        for v, _ in gamma_neighbors(P233, w, barred=True):
            assert word_type(v, 3) == word_type(w, 3)
            assert inversion_count(P233, v) == inversion_count(P233, w)


# ---------------------------------------------------------------------------
# rendering


def test_svg_output():
    heap = Heap.from_word(P233, (1, 3, 1, 2, 1, 3))
    svg = heap_svg(heap)
    assert svg == heap_svg(heap)  # deterministic
    assert svg.count("<rect") == heap.size
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
