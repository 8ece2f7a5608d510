"""Chromatic functions: oracle, word route, expansions and theorems."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from chromheap.chromatic import (
    CrossCheckError,
    _coloring_tally,
    _e_heap_sums,
    _in_hook_family,
    asc_des_symmetry_check,
    chromatic_sym,
    class_qsym,
    class_sym,
    closed_form_two_column,
    coeff_e_hook,
    coeff_e_two_column,
    coloring_ascents,
    coloring_descents,
    coloring_qsym,
    expansion,
    heap_qsym,
    omega_chromatic_qsym,
    omega_chromatic_qsym_by_words,
    omega_chromatic_sym,
    positivity_report,
    proper_coloring_count,
    proper_colorings,
    scaling_check,
    sink_sum,
)
from chromheap.heaps import descent_positions, enumerate_classes, enumerate_heaps
from chromheap.ncsf import nc_h, pair_gamma
from chromheap.partitions import check_type
from chromheap.posets import UnitIntervalOrder
from chromheap.qpoly import QPoly, q_factorial
from chromheap.symfunc import NotSymmetricError, QSymFunc
from test_heaps import forbidden_paths_exhaustive, small_heap_types

P233 = UnitIntervalOrder((2, 3, 3))
P23455 = UnitIntervalOrder((2, 3, 4, 5, 5))


# ---------------------------------------------------------------------------
# coloring oracle


def _proper_colorings_by_generator(order, mu, colors, *, gapless=False):
    """Reference for proper_colorings: one generator frame per vertex,
    the chosen colors kept in a dict and copied at every leaf."""
    mu = tuple(mu)
    check_type(mu, order.n)
    verts = [a for a in range(1, order.n + 1) if mu[a - 1] > 0]
    slots = [0] * (len(verts) + 1)
    for i in range(len(verts) - 1, -1, -1):
        slots[i] = slots[i + 1] + mu[verts[i] - 1]
    palette = range(1, colors + 1)
    chosen: dict = {}
    uses = [0] * (colors + 1)

    def rec(idx, top, distinct):
        if idx == len(verts):
            yield dict(chosen)
            return
        a = verts[idx]
        blocked = set()
        for b in order.neighbors(a):
            blocked.update(chosen.get(b, ()))
        for combo in combinations(palette, mu[a - 1]):
            if not blocked.isdisjoint(combo):
                continue
            high = max(top, combo[-1])
            seen = distinct + sum(1 for c in combo if not uses[c])
            if gapless and high - seen > slots[idx + 1]:
                continue
            for c in combo:
                uses[c] += 1
            chosen[a] = combo
            yield from rec(idx + 1, high, seen)
            for c in combo:
                uses[c] -= 1
        chosen.pop(a, None)

    yield from rec(0, 0, 0)


def _small_coloring_cases():
    for n in range(1, 5):
        for order in UnitIntervalOrder.all_orders(n):
            for k in (1, 2):
                mu = (k,) * n
                d = sum(mu)
                for colors in (d, d + 1):
                    for gapless in (False, True):
                        # without the gap prune, type 2^4 has 10.1M
                        # colorings over these orders, too many to list
                        if k == 2 and n == 4 and not gapless:
                            continue
                        yield order, mu, colors, gapless


def test_coloring_walk_yields_what_the_generator_yields():
    for order, mu, colors, gapless in _small_coloring_cases():
        got = list(proper_colorings(order, mu, colors, gapless=gapless))
        want = list(_proper_colorings_by_generator(order, mu, colors, gapless=gapless))
        assert got == want, (order.m, mu, colors, gapless)
        if not gapless:
            assert proper_coloring_count(order, mu, colors) == len(want)


def test_coloring_statistics_frozen_example():
    # path on three vertices; vertex 1 gets {1,3,6}, vertex 2 gets {4},
    # vertex 3 gets {2,6}
    kappa = {1: (1, 3, 6), 2: (4,), 3: (2, 6)}
    assert coloring_ascents(P233, kappa) == 3
    assert coloring_descents(P233, kappa) == 2
    found = any(
        {a: frozenset(c) for a, c in k.items()}
        == {a: frozenset(c) for a, c in kappa.items()}
        for k in proper_colorings(P233, (3, 1, 2), 6)
    )
    assert found


def test_proper_colorings_disjointness():
    for kappa in proper_colorings(P233, (2, 1, 1), 4):
        assert not set(kappa[1]) & set(kappa[2])
        assert not set(kappa[2]) & set(kappa[3])
        assert len(kappa[1]) == 2


def test_coloring_counts_chain_and_antichain():
    chain = UnitIntervalOrder((1, 2, 3))
    assert proper_coloring_count(chain, (1, 1, 1), 2) == 8
    antichain = UnitIntervalOrder((3, 3, 3))
    assert proper_coloring_count(antichain, (1, 1, 1), 3) == 6


@pytest.mark.parametrize(
    "call",
    [
        lambda mu: coloring_qsym(P233, mu),
        lambda mu: list(proper_colorings(P233, mu, 3)),
        lambda mu: proper_coloring_count(P233, mu, 3),
        lambda mu: chromatic_sym(P233, mu),
        lambda mu: omega_chromatic_qsym(P233, mu),
        lambda mu: expansion(P233, mu, "m"),
        lambda mu: expansion(P233, mu, "f"),
        lambda mu: expansion(P233, mu, "p"),
        lambda mu: expansion(P233, mu, "s"),
        lambda mu: enumerate_heaps(P233, mu),
        lambda mu: enumerate_classes(P233, mu),
        lambda mu: pair_gamma(nc_h(P233, 1), mu),
    ],
    ids=[
        "coloring_qsym",
        "proper_colorings",
        "proper_coloring_count",
        "chromatic_sym",
        "omega_chromatic_qsym",
        "expansion",
        "expansion_f",
        "expansion_p",
        "expansion_s",
        "enumerate_heaps",
        "enumerate_classes",
        "pair_gamma",
    ],
)
def test_an_all_zero_type_is_rejected(call):
    with pytest.raises(ValueError, match="must not all be zero"):
        call((0, 0, 0))


def test_coloring_qsym_needs_enough_colors():
    with pytest.raises(ValueError):
        coloring_qsym(P233, (1, 1, 2), colors=3)


def test_oracle_color_supply_irrelevant():
    mu = (1, 1, 2)
    a = coloring_qsym(P233, mu, colors=4).to_symmetric()
    b = coloring_qsym(P233, mu, colors=5).to_symmetric()
    assert a == b


# ---------------------------------------------------------------------------
# word route agrees with the oracle


def test_oracle_vs_words_running_example():
    mu = (1, 1, 2)
    assert chromatic_sym(P233, mu) == coloring_qsym(P233, mu).to_symmetric()
    assert asc_des_symmetry_check(P233, mu)


def test_omega_route_rejects_a_negative_type():
    with pytest.raises(ValueError, match="entries must be nonnegative"):
        omega_chromatic_qsym(P233, (1, -1, 1))


def test_q_one_specialization_counts_colorings():
    for order, mu in [(P233, (1, 1, 2)), (UnitIntervalOrder((2, 2)), (2, 1))]:
        x = chromatic_sym(order, mu)
        d = sum(mu)
        for colors in (d, d + 1):
            assert x.eval_ones(colors, 1) == proper_coloring_count(order, mu, colors)


def test_chain_and_antichain_expansions():
    chain = UnitIntervalOrder((1, 2, 3, 4))
    x = chromatic_sym(chain, (1, 1, 1, 1))
    assert x.in_basis("e") == {(1, 1, 1, 1): QPoly.one()}
    antichain = UnitIntervalOrder((4, 4, 4, 4))
    x = chromatic_sym(antichain, (1, 1, 1, 1))
    assert x.in_basis("e") == {(4,): q_factorial(4)}


def test_word_dp_matches_word_loop_all_small_orders():
    for n in range(1, 7):
        for order in UnitIntervalOrder.all_orders(n):
            mu = (1,) * n
            assert omega_chromatic_qsym(order, mu) == omega_chromatic_qsym_by_words(
                order, mu
            ), order.m


@pytest.mark.parametrize("mu", [(1, 1, 2), (3, 2, 2), (2, 0, 2)])
def test_word_dp_matches_word_loop_multicolor(mu):
    assert omega_chromatic_qsym(P233, mu) == omega_chromatic_qsym_by_words(P233, mu)


def test_word_dp_matches_word_loop_n8():
    order = UnitIntervalOrder((2, 3, 4, 5, 6, 7, 8, 8))
    mu = (1,) * 8
    assert omega_chromatic_qsym(order, mu) == omega_chromatic_qsym_by_words(order, mu)


def test_word_dp_rejects_wrong_type_length():
    with pytest.raises(ValueError):
        omega_chromatic_qsym(P233, (1, 1))


@st.composite
def orders_and_types(draw, max_size=7):
    n = draw(st.integers(min_value=1, max_value=max_size))
    bounds = []
    for i in range(1, n + 1):
        lowest = max([i] + bounds[-1:])  # i <= m_i, weakly increasing
        bounds.append(draw(st.integers(min_value=lowest, max_value=n)))
    mu = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    assume(1 <= sum(mu) <= max_size)
    return UnitIntervalOrder(bounds), mu


@settings(max_examples=25, deadline=None)
@given(orders_and_types())
def test_word_dp_matches_word_loop_and_oracle(case):
    order, mu = case
    dp = omega_chromatic_qsym(order, mu)
    assert dp == omega_chromatic_qsym_by_words(order, mu)
    assert dp.to_symmetric().omega() == coloring_qsym(order, mu).to_symmetric()


@settings(max_examples=25, deadline=None)
@given(orders_and_types())
def test_pairing_fold_matches_the_basis_change(case):
    # expansion raises CrossCheckError when the fold and the basis change
    # of the word route disagree on any coefficient
    order, mu = case
    for basis in "fps":
        expansion(order, mu, basis)


@settings(max_examples=25, deadline=None)
@given(orders_and_types())
def test_omega_route_is_the_omega_image(case):
    # complementing the descent masks gives what omega gives
    order, mu = case
    want = omega_chromatic_sym(order, mu).omega()
    assert chromatic_sym(order, mu) == want
    assert expansion(order, mu, "m").coefficients == want.terms


def _is_gapless(kappa):
    used = {c for cs in kappa.values() for c in cs}
    return used == set(range(1, len(used) + 1))


def _coloring_qsym_by_monomials(order, mu, colors, stat):
    """Reference for coloring_qsym: every proper coloring, one monomial
    each, keeping the exponent vectors without a gap."""
    statistic = coloring_ascents if stat == "asc" else coloring_descents
    monos = {}
    for kappa in _proper_colorings_by_generator(order, mu, colors):
        exp = [0] * colors
        for cs in kappa.values():
            for c in cs:
                exp[c - 1] += 1
        key = tuple(exp)
        w = statistic(order, kappa)
        monos[key] = monos.get(key, QPoly()) + QPoly.monomial(w)
    terms = {}
    for exp, poly in monos.items():
        ell = colors
        while ell and exp[ell - 1] == 0:
            ell -= 1
        alpha = exp[:ell]
        if all(x > 0 for x in alpha):
            terms[tuple(alpha)] = poly
    return QSymFunc(sum(mu), terms)


@settings(max_examples=30, deadline=None)
@given(orders_and_types(max_size=6), st.integers(0, 1))
def test_gapless_colorings_match_the_filtered_stream(case, extra):
    order, mu = case
    colors = sum(mu) + extra
    full = list(proper_colorings(order, mu, colors))
    assert full == list(_proper_colorings_by_generator(order, mu, colors))
    pruned = list(proper_colorings(order, mu, colors, gapless=True))
    assert pruned == [k for k in full if _is_gapless(k)]
    want = {
        stat: _coloring_qsym_by_monomials(order, mu, colors, stat)
        for stat in ("asc", "des")
    }
    for first, second in (("asc", "des"), ("des", "asc")):
        _coloring_tally.cache_clear()
        # the first call walks, the second reads the tally of that walk
        assert coloring_qsym(order, mu, colors, first) == want[first]
        assert coloring_qsym(order, mu, colors, second) == want[second]


def test_gapless_colorings_edge_cases():
    # a vertex of type 0 gets no color; a lone vertex of type 2 is gapless
    # only as {1, 2}
    assert list(proper_colorings(P233, (0, 0, 2), 3, gapless=True)) == [{3: (1, 2)}]
    chain = UnitIntervalOrder((1, 2))
    # no edges: {1}{1}, {1}{2}, {2}{1} of the nine colorings
    got = list(proper_colorings(chain, (1, 1), 3, gapless=True))
    assert got == [{1: (1,), 2: (1,)}, {1: (1,), 2: (2,)}, {1: (2,), 2: (1,)}]
    assert proper_coloring_count(chain, (1, 1), 3) == 9


# ---------------------------------------------------------------------------
# heap and class generating functions


def test_class_functions_symmetric_and_sum_to_omega_x():
    mu = (1, 1, 2)
    total = None
    for cls in enumerate_classes(P233, mu):
        k = class_qsym(cls)
        class_sym(cls)  # must not raise NotSymmetricError
        scaled = k.scale(QPoly.monomial(cls.ascents))
        total = scaled if total is None else total + scaled
    assert total.to_symmetric() == omega_chromatic_sym(P233, mu)


def test_single_heap_function_need_not_be_symmetric():
    raised = False
    for heap in enumerate_heaps(P233, (1, 1, 1)):
        try:
            heap_qsym(heap).to_symmetric()
        except NotSymmetricError as exc:
            alpha, beta, ca, cb = exc.witness
            assert sorted(alpha, reverse=True) == sorted(beta, reverse=True)
            assert ca != cb
            raised = True
    assert raised


def _qsym_by_fundamentals(order, d, words):
    out = QSymFunc(d)
    for w in words:
        out = out + QSymFunc.fundamental(d, descent_positions(order, w))
    return out


def _small_instances():
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            yield order, (1,) * n
    yield P233, (3, 2, 2)


def test_heap_and_class_functions_match_fundamental_sums():
    for order, mu in _small_instances():
        d = sum(mu)
        for cls in enumerate_classes(order, mu):
            for h in cls.heaps:
                want = _qsym_by_fundamentals(order, d, h.words())
                assert heap_qsym(h) == want, (order.m, h.canonical_word)
            words = [w for h in cls.heaps for w in h.words()]
            want = _qsym_by_fundamentals(order, d, words)
            assert class_qsym(cls) == want, (order.m, cls.representative)


# ---------------------------------------------------------------------------
# expansions


def test_expansion_frozen_running_example():
    mu = (1, 1, 2)
    rep = expansion(P233, mu, "f")
    assert rep.coefficients[(3, 1)] == QPoly((1, 3, 3, 1))
    rep = expansion(P233, mu, "p")
    assert rep.coefficients[(3, 1)] == QPoly((1, 2, 2, 1))
    rep = expansion(P233, mu, "s")
    assert rep.coefficients[(3, 1)] == QPoly((0, 1, 1))
    assert rep.positive


def test_expansion_frozen_e_coefficients():
    rep = expansion(P23455, (1, 1, 1, 1, 1), "e")
    assert rep.coefficients[(2, 2, 1)] == QPoly((0, 0, 1))
    assert rep.coefficients[(4, 1)] == QPoly((0, 1, 1, 1))
    assert (3, 1, 1) not in rep.coefficients
    assert rep.provenance[(2, 2, 1)] == "theorem+basis-change"
    assert rep.provenance[(4, 1)] == "theorem+basis-change"
    assert rep.provenance[(3, 2)] == "basis-change"


def test_expansion_bases_are_consistent():
    mu = (1, 1, 2)
    x = chromatic_sym(P233, mu)
    for basis in "fpsemh":
        rep = expansion(P233, mu, basis)
        if basis == "f":
            rebuilt = x  # f-coefficients are the omega image's m-coefficients
            from chromheap.symfunc import SymFunc

            back = SymFunc(rep.degree, rep.coefficients).omega()
            assert back == x
        else:
            from chromheap.symfunc import SymFunc

            coords = dict(rep.coefficients)
            if basis == "p":
                from chromheap.partitions import z_factor
                from fractions import Fraction

                coords = {
                    lam: c * Fraction(1, z_factor(lam)) for lam, c in coords.items()
                }
                back = SymFunc.from_coords("p", rep.degree, coords).omega()
            elif basis == "s":
                back = SymFunc.from_coords("s", rep.degree, coords).omega()
            else:
                back = SymFunc.from_coords(basis, rep.degree, coords)
            assert back == x, basis


def test_expansion_rejects_unknown_basis():
    with pytest.raises(ValueError):
        expansion(P233, (1, 1, 2), "z")


def test_expansion_report_json():
    rep = expansion(P233, (1, 1, 2), "e")
    data = rep.to_json()
    text = json.dumps(data)
    parsed = json.loads(text)
    assert parsed["poset"] == "2,3,3"
    assert parsed["positive"] is True
    polys = {
        tuple(t["partition"]): QPoly.from_json(t["poly"]) for t in parsed["terms"]
    }
    assert polys == rep.coefficients


# ---------------------------------------------------------------------------
# theorem-path coefficients


def test_two_column_and_hook_cross_checks_pass():
    mu = (1, 1, 1, 1, 1)
    for l in range(0, 3):
        coeff_e_two_column(P23455, mu, 5 - l, l)
    coeff_e_hook(P23455, mu, 3, 1)
    coeff_e_hook(P23455, mu, 1, 3)
    with pytest.raises(ValueError):
        coeff_e_two_column(P233, (1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        coeff_e_hook(P233, (1, 1, 1), 0, 1)


def _in_hook_family_abc(h, l):
    """Reference for chromatic._in_hook_family: conditions (A), (B) and
    (C) as stated at coeff_e_hook, with (A) read off the flippable
    triples and (C) from the exhaustive forbidden-path search."""
    if h.sink_count != l + 1:
        return False
    rank2 = [b for b in range(h.size) if h.levels[b] == 2]
    if len(rank2) == 1:
        return True
    if len(rank2) != 2:
        return False
    p, r = rank2
    q = None
    for x, y, z in h.flippable_triples():
        if h.levels[y] == 1 and {x, z} == {p, r}:
            q = y
            break
    if q is None:
        return False
    if h.lower[p] != 1 << q or h.lower[r] != 1 << q:
        return False
    return not forbidden_paths_exhaustive(h)


def test_hook_family_equals_conditions_a_b_c():
    members = 0
    for order, mu in small_heap_types():
        for h in enumerate_heaps(order, mu):
            for l in range(h.size + 1):
                got = _in_hook_family(h, l)
                assert got == _in_hook_family_abc(h, l), (h, l)
                members += got
    assert members > 5000


def _two_column_loop(order, mu, k, l):
    out = QPoly()
    if k + l == sum(mu):
        for h in enumerate_heaps(order, mu):
            if h.rank > 2:
                continue
            n1 = sum(1 for r in h.levels if r == 1)
            n2 = sum(1 for r in h.levels if r == 2)
            if n1 != k or n2 != l:
                continue
            if any(h.component_type(c) == "W" for c in h.components):
                continue
            out = out + QPoly.monomial(h.ascents)
    return out


def _hook_loop(order, mu, a, l):
    out = QPoly()
    if a + l + 1 == sum(mu):
        for h in enumerate_heaps(order, mu):
            if _in_hook_family_abc(h, l):
                out = out + QPoly.monomial(h.ascents)
    return out


def _sink_loop(order, mu, k):
    out = QPoly()
    for h in enumerate_heaps(order, mu):
        if h.sink_count == k:
            out = out + QPoly.monomial(h.ascents)
    return out


@settings(max_examples=60, deadline=None)
@given(orders_and_types())
def test_heap_sums_equal_the_per_shape_loops(case):
    _assert_heap_sums_match_the_loops(*case)


def test_heap_sums_equal_the_per_shape_loops_on_small_types():
    # random orders rarely have a rank <= 2 heap with a W component; these do
    for order, mu in small_heap_types():
        _assert_heap_sums_match_the_loops(order, mu)


def _assert_heap_sums_match_the_loops(order, mu):
    d = sum(mu)
    sums = _e_heap_sums(order, mu)
    for k in range(d + 2):
        assert sums.sinks.get(k, QPoly()) == _sink_loop(order, mu, k), k
        # every (k, l), also k < l: a W component has more rank-2 blocks
        for l in range(d + 2):
            got = sums.two_column.get((k, l), QPoly())
            assert got == _two_column_loop(order, mu, k, l), (k, l)
    for a in range(1, d + 1):
        for l in range(1, d + 1):
            got = sums.hooks.get(l, QPoly()) if a + l + 1 == d else QPoly()
            assert got == _hook_loop(order, mu, a, l), (a, l)


def test_sink_sum():
    mu = (1, 1, 2)
    total = QPoly()
    for k in range(1, 5):
        total = total + sink_sum(P233, mu, k)
    # every heap has some number of sinks, so the sums add up to all heaps
    want = QPoly()
    for h in enumerate_heaps(P233, mu):
        want = want + QPoly.monomial(h.ascents)
    assert total == want
    with pytest.raises(ValueError):
        sink_sum(P233, mu, 0)


def test_closed_form_path():
    # single path on 4 vertices: one even component
    order = UnitIntervalOrder((2, 3, 4, 4))
    rep = expansion(order, (1, 1, 1, 1), "e")
    lam = (2, 2)
    want = closed_form_two_column(order, lam)
    assert want == QPoly((0, 1, 1))  # q (1 + q)
    assert rep.coefficients[lam] == want


def test_closed_form_triangle_returns_zero():
    order = UnitIntervalOrder((3, 3, 3))
    assert closed_form_two_column(order, (2, 1)) == QPoly()


def test_closed_form_singleton():
    order = UnitIntervalOrder((1,))
    assert closed_form_two_column(order, (1,)) == QPoly.one()


# ---------------------------------------------------------------------------
# positivity and scaling


def test_positivity_report_running_example():
    rep = positivity_report(P233, (1, 1, 2))
    assert rep["all_classes_h_positive"]
    assert rep["e_positive"]
    assert len(rep["classes"]) == 4


def test_scaling_examples():
    assert scaling_check(P233, (1, 1, 2))
    assert scaling_check(UnitIntervalOrder((1, 2)), (2, 1))
    rng = random.Random(7)
    for _ in range(5):
        n = rng.randint(1, 3)
        orders = list(UnitIntervalOrder.all_orders(n))
        order = rng.choice(orders)
        mu = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(mu) == 0 or sum(mu) > 5:
            mu = (1,) * n
        assert scaling_check(order, mu), (order.m, mu)


def test_cross_check_error_is_assertion():
    assert issubclass(CrossCheckError, AssertionError)
