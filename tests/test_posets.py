"""Unit interval orders, the path encoding and blow-ups."""

from itertools import combinations

import pytest

from chromheap.posets import DyckPath, UnitIntervalOrder


def test_validation():
    with pytest.raises(ValueError):
        UnitIntervalOrder(())
    with pytest.raises(ValueError):
        UnitIntervalOrder((0, 2))
    with pytest.raises(ValueError):
        UnitIntervalOrder((2, 3, 2))
    with pytest.raises(ValueError):
        UnitIntervalOrder((1, 4, 4))  # m_2 exceeds n


def test_text_round_trip():
    order = UnitIntervalOrder.from_text("2,4,4,4")
    assert order.m == (2, 4, 4, 4)
    assert order.text() == "2,4,4,4"
    with pytest.raises(ValueError):
        UnitIntervalOrder.from_text("2,x")


def test_relations_running_example():
    order = UnitIntervalOrder((2, 3, 3))
    assert order.less(1, 3)
    assert not order.less(1, 2)
    assert not order.less(3, 1)
    assert order.adjacent(1, 2)
    assert order.adjacent(2, 3)
    assert not order.adjacent(1, 3)
    assert order.edges == frozenset({(1, 2), (2, 3)})
    assert order.neighbors(2) == (1, 3)


def test_runs_equal_a_search_over_neighbors():
    """On every vertex subset of every order with n <= 6, the runs are
    the components that a search over neighbors finds."""
    for n in range(1, 7):
        for order in UnitIntervalOrder.all_orders(n):
            for size in range(n + 1):
                for subset in combinations(range(1, n + 1), size):
                    left = set(subset)
                    comps = []
                    while left:
                        comp = set()
                        stack = [min(left)]
                        while stack:
                            a = stack.pop()
                            if a in left:
                                left.remove(a)
                                comp.add(a)
                                stack.extend(order.neighbors(a))
                        comps.append(tuple(sorted(comp)))
                    assert order.runs(subset) == tuple(comps), (order, subset)


def test_dyck_path_validation():
    with pytest.raises(ValueError):
        DyckPath(("E", "N"))
    with pytest.raises(ValueError):
        DyckPath(("N", "N", "E"))
    with pytest.raises(ValueError):
        DyckPath(("N", "X"))
    path = DyckPath(("N", "N", "E", "N", "E", "E"))
    assert path.n == 3
    assert path.bound_sequence() == (2, 3, 3)
    # any iterable of steps gives the same hashable value
    listed = DyckPath(["N", "N", "E", "N", "E", "E"])
    assert listed == path and hash(listed) == hash(path)


def test_dyck_round_trip_all_small_orders():
    for n in range(1, 7):
        for order in UnitIntervalOrder.all_orders(n):
            back = UnitIntervalOrder.from_dyck(order.dyck_path())
            assert back == order


def test_all_orders_are_catalan_many():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert sum(1 for _ in UnitIntervalOrder.all_orders(n)) == catalan[n]


def max_chain_length(order):
    """Longest chain by dynamic programming (independent of bounce)."""
    best = [1] * (order.n + 1)
    for j in range(1, order.n + 1):
        for i in range(1, j):
            if order.less(i, j):
                best[j] = max(best[j], best[i] + 1)
    return max(best[1:])


def test_height_matches_chain_dp():
    for n in range(1, 7):
        for order in UnitIntervalOrder.all_orders(n):
            assert order.height == max_chain_length(order)


def test_height_examples():
    assert UnitIntervalOrder((2, 4, 5, 5, 5)).height == 2
    assert UnitIntervalOrder((1, 2, 3)).height == 3
    assert UnitIntervalOrder((3, 3, 3)).height == 1


def _blown_up_by_graph(order, mu):
    """Oracle: rebuild the bound sequence of the blow-up from its
    incomparability graph (copies of a, b adjacent iff a == b or a, b
    adjacent)."""
    verts = [(a, i) for a in range(1, order.n + 1) for i in range(mu[a - 1])]
    m = []
    for v, (a, _) in enumerate(verts):
        top = v + 1
        for w in range(v + 1, len(verts)):
            b = verts[w][0]
            if a == b or order.adjacent(a, b):
                top = w + 1
        m.append(top)
    return tuple(m)


def test_blow_up_examples():
    assert UnitIntervalOrder((2, 3, 3)).blow_up((1, 1, 2)).m == (2, 4, 4, 4)
    assert UnitIntervalOrder((1, 2)).blow_up((2, 1)).m == (2, 2, 3)
    assert UnitIntervalOrder((1,)).blow_up((3,)).m == (3, 3, 3)


def test_blow_up_matches_graph_oracle():
    cases = [
        ((2, 3, 3), (1, 1, 2)),
        ((2, 3, 3), (3, 1, 2)),
        ((1, 2), (2, 1)),
        ((2, 2), (2, 2)),
        ((2, 3, 4, 5, 5), (1, 0, 2, 1, 1)),
        ((3, 3, 4, 4), (1, 2, 1, 1)),
    ]
    for m, mu in cases:
        order = UnitIntervalOrder(m)
        assert order.blow_up(mu).m == _blown_up_by_graph(order, mu)


def test_blow_up_exhaustive_small():
    from itertools import product

    for n in range(1, 4):
        for order in UnitIntervalOrder.all_orders(n):
            for mu in product(range(3), repeat=n):
                if sum(mu) == 0:
                    continue
                assert order.blow_up(mu).m == _blown_up_by_graph(order, mu)


def test_blow_up_validation():
    order = UnitIntervalOrder((1, 2))
    with pytest.raises(ValueError):
        order.blow_up((1,))
    with pytest.raises(ValueError):
        order.blow_up((0, 0))
    with pytest.raises(ValueError):
        order.blow_up((-1, 2))


def _has_induced(order, pattern):
    """Does the order contain an induced copy of the pattern poset?

    The pattern is given as (size, relation set on 0..size-1)."""
    size, rel = pattern
    verts = range(1, order.n + 1)
    for combo in combinations(verts, size):
        for perm in _perms(combo):
            ok = True
            for x in range(size):
                for y in range(size):
                    if x == y:
                        continue
                    want = (x, y) in rel
                    if order.less(perm[x], perm[y]) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def _perms(items):
    from itertools import permutations

    return permutations(items)


def test_orders_avoid_3_plus_1_and_2_plus_2():
    chain3_plus_1 = (4, {(0, 1), (1, 2), (0, 2)})
    two_plus_two = (4, {(0, 1), (2, 3)})
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            assert not _has_induced(order, chain3_plus_1)
            assert not _has_induced(order, two_plus_two)


def test_equality_and_hash():
    a = UnitIntervalOrder((2, 3, 3))
    b = UnitIntervalOrder([2, 3, 3])
    assert a == b and hash(a) == hash(b)
    assert a != UnitIntervalOrder((2, 2, 3))
