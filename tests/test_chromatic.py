"""Chromatic functions: oracle, word route, expansions and theorems."""

import json
import os
import pickle
import random
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import chromheap.chromatic as chromatic
import chromheap.cli as cli
import chromheap.heap_sides as heap_sides
import chromheap.oracle as oracle
import chromheap.pairing as pairing
import chromheap.symfunc as symfunc
from chromheap.chromatic import (
    CrossCheckError,
    _complemented,
    _fundamental_to_monomial,
    chromatic_sym,
    expansion,
    omega_chromatic_qsym,
    omega_chromatic_sym,
)
from chromheap.heap_sides import (
    _class_masks,
    _e_heap_sums,
    _sink_polys,
    _word_masks,
    class_qsym,
    class_sym,
    closed_form_two_column,
    coeff_e_hook,
    coeff_e_two_column,
    positivity_report,
    sink_sum,
)
from chromheap.heaps import (
    Heap,
    descent_positions,
    enumerate_classes,
    enumerate_heaps,
    inversion_count,
)
from chromheap.ncsf import nc_h, pair_gamma
from chromheap.oracle import _coloring_tally, coloring_qsym, proper_colorings
from chromheap.partitions import check_type, multinomial, multiset_permutations
from chromheap.posets import DyckPath, UnitIntervalOrder
from chromheap.qpoly import QPoly, q_factorial
from chromheap.symfunc import NotSymmetricError, QSymFunc, SymFunc
from test_heaps import (
    component_type,
    components,
    forbidden_paths,
    forbidden_paths_exhaustive,
    flippable_triples,
    refuse_heaps_from_words,
    small_heap_types,
)
from test_symfunc import compositions, eval_ones

P233 = UnitIntervalOrder((2, 3, 3))
P23455 = UnitIntervalOrder((2, 3, 4, 5, 5))


def refuse_in(monkeypatch, reader, homes, refuse):
    """Refuse each name of homes ({module: names}) where it is defined,
    which must be a real object there, and in the globals of reader, the
    module whose code is under test. So the refusal bites whether the
    code reads the name through its home module when it runs or bound
    it as a global of its own."""
    for home, names in homes.items():
        for name in names:
            monkeypatch.setattr(home, name, refuse)
            monkeypatch.setattr(reader, name, refuse, raising=False)


def coloring_ascents(order: UnitIntervalOrder, coloring) -> int:
    """Pairs of colors across an edge increasing with the vertex labels."""
    count = 0
    for i, j in order.edges:
        ci = coloring.get(i, ())
        cj = coloring.get(j, ())
        for r in ci:
            for s in cj:
                if r < s:
                    count += 1
    return count


def coloring_descents(order: UnitIntervalOrder, coloring) -> int:
    """Pairs of colors across an edge decreasing with the vertex labels.

    Written against the edge list directly, not as a complement of the
    ascent count. With coloring_ascents it is the per-coloring reference
    for the running counts of the coloring walk.
    """
    count = 0
    for i, j in order.edges:
        for r in coloring.get(i, ()):
            for s in coloring.get(j, ()):
                if r > s:
                    count += 1
    return count


def proper_coloring_count(order: UnitIntervalOrder, mu, colors: int) -> int:
    """The number of proper multi-colorings of type mu with colors from
    [colors]; iterating proper_colorings checks the type."""
    return sum(1 for _ in proper_colorings(order, mu, colors))


def asc_des_symmetry_check(order: UnitIntervalOrder, mu) -> bool:
    """The ascent and descent coloring functions of the oracle agree."""
    return coloring_qsym(order, mu, "asc") == coloring_qsym(order, mu, "des")


def omega_chromatic_qsym_by_words(order: UnitIntervalOrder, mu) -> QSymFunc:
    """Reference for omega_chromatic_qsym: loops over all d!/prod(mu_a!)
    words of type mu, one fundamental function per descent set. Tests
    compare the dynamic program against it; keep d <= 8."""
    d = sum(mu)
    by_descents: dict = {}
    for w in multiset_permutations(mu):
        s = descent_positions(order, w)
        by_descents[s] = by_descents.get(s, QPoly()) + QPoly.monomial(
            inversion_count(order, w)
        )
    out = QSymFunc(d)
    for s, c in by_descents.items():
        out = out + QSymFunc.fundamental(d, s, c)
    return out


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
            assert eval_ones(x, colors) == proper_coloring_count(order, mu, colors)


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


def _descent_polys_by_words(order, mu, width):
    """Reference for _descent_polys: {descent mask: sum of q^inv packed
    with `width` bits per power of q}, one word at a time."""
    out: dict = {}
    for w in multiset_permutations(mu):
        mask = sum(1 << (i - 1) for i in descent_positions(order, w))
        out[mask] = out.get(mask, 0) + (1 << inversion_count(order, w) * width)
    return out


def _most_inversions(order, mu):
    """The inversions of a word of type mu with every incomparable pair
    of letters inverted: mu_a mu_b over the pairs a < b <= m_a."""
    pairs = combinations(range(1, order.n + 1), 2)
    return sum(mu[a - 1] * mu[b - 1] for a, b in pairs if b <= order.m[a - 1])


def test_word_dp_fills_the_top_power_of_each_slot():
    """In the complete order every pair of letters is incomparable, so
    the word with its letters in decreasing order has every inversion
    there is: the top power of a slot is reached, and a carry out of it
    would show up as a mask that has no word."""
    for mu in [(2, 1, 2), (1, 3, 1, 1), (2, 2, 2), (3, 1, 2, 1)]:
        order = UnitIntervalOrder((len(mu),) * len(mu))
        width = multinomial(mu).bit_length()
        got = chromatic._descent_polys(order, mu, width)
        assert got == _descent_polys_by_words(order, mu, width), mu
        top = _most_inversions(order, mu)
        assert got[0].bit_length() == top * width + 1, mu  # one word has q^top


def test_word_dp_with_slots_of_no_padding():
    """Slots of whole bytes leave no spare bits when (most inversions + 1)
    * width is a multiple of 8: neighbouring masks then touch, and the
    DP must still equal the word loop on every such small instance."""
    tight = 0
    for n in range(1, 5):
        for order in UnitIntervalOrder.all_orders(n):
            for mu in product(range(3), repeat=n):
                width = multinomial(mu).bit_length()
                if not 1 < sum(mu) <= 7 or (_most_inversions(order, mu) + 1) * width % 8:
                    continue
                tight += 1
                got = chromatic._descent_polys(order, mu, width)
                assert got == _descent_polys_by_words(order, mu, width), (order.m, mu)
    assert tight > 100


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
    # the reference takes sum(mu) + extra colors, the oracle sum(mu)
    _assert_oracle_matches_the_monomials(order, mu, colors)


def _assert_oracle_matches_the_monomials(order, mu, colors):
    want = {
        stat: _coloring_qsym_by_monomials(order, mu, colors, stat) for stat in ("asc", "des")
    }
    for first, second in (("asc", "des"), ("des", "asc")):
        _coloring_tally.cache_clear()
        # the first call runs the transfer, the second reads its tally
        assert coloring_qsym(order, mu, first) == want[first], (order.m, mu, first)
        assert coloring_qsym(order, mu, second) == want[second], (order.m, mu, second)


def test_coloring_transfer_matches_the_monomials():
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            _assert_oracle_matches_the_monomials(order, (1,) * n, n)
    for mu in [(3, 2, 2), (1, 1, 2), (0, 0, 2), (4, 0, 1)]:
        _assert_oracle_matches_the_monomials(P233, mu, sum(mu))


def test_coloring_transfer_closed_forms():
    # the chain 1 < ... < n has no edge, so every coloring is proper and
    # [M_alpha] = n!/prod(alpha_i!) at q^0; the antichain n,...,n is the
    # complete graph, so only M_{1^n} appears, with [n]_q!
    for n in range(1, 8):
        mu = (1,) * n
        chain = UnitIntervalOrder(tuple(range(1, n + 1)))
        free = {alpha: QPoly((multinomial(alpha),)) for alpha in compositions(n)}
        complete = UnitIntervalOrder((n,) * n)
        for stat in ("asc", "des"):
            assert coloring_qsym(chain, mu, stat).terms == free
            assert coloring_qsym(complete, mu, stat).terms == {mu: q_factorial(n)}


def test_coloring_transfer_takes_no_other_route(monkeypatch):
    # the oracle checks the word route, so it must run none of its code,
    # nor that of the pairing and sink transfers
    instances = [(P233, (3, 2, 2)), (P23455, (1,) * 5)]
    want = [(coloring_qsym(order, mu), coloring_qsym(order, mu, "des")) for order, mu in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("the coloring oracle took another route")

    word_route = ("_descent_polys", "_fundamental_to_monomial", "_unpack")
    homes = {
        chromatic: word_route,
        pairing: ("_pairings",),
        heap_sides: ("_e_heap_sums", "_sink_polys"),
    }
    refuse_in(monkeypatch, oracle, homes, refuse)
    for name in ("_peel", "_add_scaled"):  # the basis change
        monkeypatch.setattr(symfunc, name, refuse)
    _coloring_tally.cache_clear()
    got = [(coloring_qsym(order, mu), coloring_qsym(order, mu, "des")) for order, mu in instances]
    assert got == want


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


def test_complemented_class_masks_give_omega_of_the_class():
    # positivity_report reads h-positivity of a class as e-positivity of
    # omega(class), taken from the class words' complemented descent masks
    for order, mu in ((P233, (1, 1, 2)), (P23455, (1,) * 5), (P233, (2, 1, 2))):
        report = positivity_report(order, mu)
        for cls, row in zip(enumerate_classes(order, mu), report["classes"]):
            d, counts, width = _class_masks(cls)
            omega_cls = _fundamental_to_monomial(d, _complemented(d, counts), width)
            assert omega_cls.to_symmetric() == class_sym(cls).omega()
            assert row["h_positive"] == class_sym(cls).is_positive_in("h")


def heap_qsym(heap):
    """Fundamental-basis sum over the words of one heap."""
    return _fundamental_to_monomial(*_word_masks(heap.order, heap.size, heap.words()))


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
    """Reference for the hook test of heap_sides._e_heap_sums: conditions
    (A), (B) and (C) as stated at coeff_e_hook, with (A) read off the
    flippable triples and (C) from the exhaustive forbidden-path search."""
    if h.sink_count != l + 1:
        return False
    rank2 = [b for b in range(h.size) if h.levels[b] == 2]
    if len(rank2) == 1:
        return True
    if len(rank2) != 2:
        return False
    p, r = rank2
    q = None
    for x, y, z in flippable_triples(h):
        if h.levels[y] == 1 and {x, z} == {p, r}:
            q = y
            break
    if q is None:
        return False
    if h.lower[p] != 1 << q or h.lower[r] != 1 << q:
        return False
    return not forbidden_paths_exhaustive(h)


def _in_hook_family_by_masks(h, l):
    """The hook test of heap_sides._e_heap_sums on a Heap: l + 1 sinks and
    one rank-2 block, or two with equal lower masks ((A) and (B)) and no
    forbidden path (C)."""
    rank2 = [h.lower[b] for b in range(h.size) if h.levels[b] == 2]
    if h.sink_count != l + 1 or len(rank2) not in (1, 2):
        return False
    return len(rank2) == 1 or rank2[0] == rank2[1] and not forbidden_paths(h)


def test_hook_family_equals_conditions_a_b_c():
    members = 0
    for order, mu in small_heap_types():
        for h in enumerate_heaps(order, mu):
            for l in range(h.size + 1):
                got = _in_hook_family_by_masks(h, l)
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
            if any(component_type(h, c) == "W" for c in components(h)):
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
    # random orders rarely have a rank <= 2 heap with a W component; these
    # do, and 3,2,2 stacks three blocks in one column
    for order, mu in [*small_heap_types(), (P233, (3, 2, 2))]:
        _assert_heap_sums_match_the_loops(order, mu)


def test_e_expansion_leaves_the_heaps_of_its_type_unbuilt(monkeypatch):
    """The heap side of the e-checks walks the canonical words; it never
    asks for the heaps of the type, which drop from their words."""
    _e_heap_sums.cache_clear()
    refuse_heaps_from_words(monkeypatch)
    expansion(UnitIntervalOrder((3, 4, 5, 6, 7, 7, 7)), (1,) * 7, "e")
    assert _e_heap_sums.cache_info().misses == 1


def test_the_e_side_drops_no_word_to_a_heap(monkeypatch, capsys):
    """With Heap.from_word refused, the e expansion and the heap-side
    verify suites still run. These types have rank <= 2 heaps with W
    components and hook candidates."""
    _e_heap_sums.cache_clear()
    refuse_heaps_from_words(monkeypatch)
    instances = [(P233, (3, 2, 2)), (P23455, (1,) * 5), *small_heap_types()]
    for order, mu in instances:
        expansion(order, mu, "e")
        for suite in ("two-column", "hook", "sinks"):
            argv = ["verify", "--suite", suite, "--poset", order.text()]
            assert cli.main([*argv, "--mu", ",".join(map(str, mu))]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_the_e_walk_builds_no_heap(monkeypatch):
    """The e-walk reads W components and forbidden paths off its own
    ranks and masks, so it runs with every Heap refused."""

    def refuse(self, *args):
        raise AssertionError("the e-walk built a Heap")

    monkeypatch.setattr(Heap, "__init__", refuse)
    _e_heap_sums.cache_clear()
    for order, mu in [*small_heap_types(), (P233, (3, 2, 2))]:
        _e_heap_sums(order, mu)


def _assert_heap_sums_match_the_loops(order, mu):
    d = sum(mu)
    sums = _e_heap_sums(order, mu)
    sinks = _sink_polys(order, mu)
    for k in range(d + 2):
        assert sinks.get(k, QPoly()) == _sink_loop(order, mu, k), k
        # every (k, l), also k < l: a W component has more rank-2 blocks
        for l in range(d + 2):
            got = sums.two_column.get((k, l), QPoly())
            assert got == _two_column_loop(order, mu, k, l), (k, l)
    for a in range(1, d + 1):
        for l in range(1, d + 1):
            got = sums.hooks.get(l, QPoly()) if a + l + 1 == d else QPoly()
            assert got == _hook_loop(order, mu, a, l), (a, l)


def _buckets_by_heaps(order, mu):
    """(sinks, two_column, hooks) of _sink_polys and _e_heap_sums from one
    pass over the heaps of the type, each heap tested as in the per-shape
    loops above."""
    sinks, two_column, hooks = {}, {}, {}

    def add(bucket, key, h):
        bucket[key] = bucket.get(key, QPoly()) + QPoly.monomial(h.ascents)

    for h in enumerate_heaps(order, mu):
        add(sinks, h.sink_count, h)
        if h.rank <= 2 and all(component_type(h, c) != "W" for c in components(h)):
            n2 = sum(1 for r in h.levels if r == 2)
            add(two_column, (h.size - n2, n2), h)
        l = h.sink_count - 1
        if l >= 1 and _in_hook_family_abc(h, l):
            add(hooks, l, h)
    return sinks, two_column, hooks


def test_pruned_walk_and_sink_transfer_sweep():
    """The walk stops at a heap that can reach neither bucket, and the
    sinks come from their own transfer: both against every heap of
    every order with n <= 6, of 2,3,3 under every type up to (3,2,2), and
    of a multi-color type at n = 7."""
    instances = [(o, (1,) * n) for n in range(1, 7) for o in UnitIntervalOrder.all_orders(n)]
    instances += [(P233, mu) for mu in product(range(4), range(3), range(3)) if any(mu)]
    instances.append((UnitIntervalOrder((2, 4, 5, 6, 7, 7, 7)), (2, 1, 1, 1, 1, 1, 2)))
    for order, mu in instances:
        sums = _e_heap_sums(order, mu)
        want = _buckets_by_heaps(order, mu)
        assert (_sink_polys(order, mu), sums.two_column, sums.hooks) == want, (order.m, mu)


def test_heap_sides_never_take_the_basis_change(monkeypatch):
    # the e-checks compare the heaps with the basis change, so the walk
    # and the sink transfer must not read it
    order, mu = UnitIntervalOrder((3, 4, 5, 6, 7, 7, 7)), (1,) * 7
    want = (_e_heap_sums(order, mu), _sink_polys(order, mu))

    def refuse(*args, **kwargs):
        raise AssertionError("the heap side took the basis change")

    homes = {chromatic: ("_descent_polys", "_fundamental_to_monomial", "_e_coefficients")}
    refuse_in(monkeypatch, heap_sides, homes, refuse)
    monkeypatch.setattr(SymFunc, "in_basis", refuse)
    for name in ("m_in_basis_coords", "_peel", "_add_scaled"):
        monkeypatch.setattr(symfunc, name, refuse)
    _e_heap_sums.cache_clear()
    _sink_polys.cache_clear()
    assert (_e_heap_sums(order, mu), _sink_polys(order, mu)) == want


def test_chromatic_sym_never_takes_the_heap_sides(monkeypatch):
    instances = [(P233, (3, 2, 2)), (P23455, (1,) * 5)]
    want = [chromatic_sym(order, mu) for order, mu in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("the word route took a heap side or a transfer")

    homes = {
        heap_sides: ("_e_heap_sums", "_sink_polys"),
        pairing: ("_pairings",),
        oracle: ("_coloring_tally",),
    }
    refuse_in(monkeypatch, chromatic, homes, refuse)
    assert [chromatic_sym(order, mu) for order, mu in instances] == want


def _chromheap_modules_after(statement) -> set:
    """The chromheap modules a fresh interpreter holds after running one
    import statement."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, check=True, text=True
    )
    return {m.split(".")[1] for m in json.loads(done.stdout) if m.startswith("chromheap.")}


def test_the_independent_routes_share_no_module_level_import():
    """Never the same code, visible in the imports: the oracle, the
    pairing transfer and the heap sides import nothing from the word
    route at module level, and the word route imports none of them."""
    routes = {"oracle", "pairing", "heap_sides"}
    loaded = _chromheap_modules_after("import " + ", ".join(f"chromheap.{m}" for m in routes))
    assert routes <= loaded and "chromatic" not in loaded, sorted(loaded)
    loaded = _chromheap_modules_after("import chromheap.chromatic")
    assert "chromatic" in loaded and not loaded & routes, sorted(loaded)


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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: coeff_e_two_column(P233, (1, 1), 1, 0), "length must equal n"),
        (lambda: coeff_e_hook(P233, (-1, 0, 0), 2, 1), "must be nonnegative"),
        (lambda: sink_sum(P233, (1, 1), 1), "length must equal n"),
    ],
    ids=["two_column", "hook", "sink_sum"],
)
def test_e_checks_reject_a_bad_type_of_any_size(call, match):
    # the type is checked before the size of the shape is compared with it
    with pytest.raises(ValueError, match=match):
        call()


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


def scaling_check(order, mu):
    """Blow-up comparison: the plain chromatic function of the blown-up
    order equals the multi-color function times the product of
    q-factorials of the multiplicities."""
    mu = tuple(mu)
    blown = order.blow_up(mu)
    lhs = chromatic_sym(blown, (1,) * blown.n)
    factor = QPoly.one()
    for x in mu:
        factor = factor * q_factorial(x)
    return lhs == chromatic_sym(order, mu).scale(factor)


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


def test_value_types_compare_hash_freeze_and_print():
    """DyckPath, HeapClass and ExpansionReport keep their value semantics:
    equality, hashing of the two frozen types, frozen fields, pickling
    and the field-by-field repr."""
    path = DyckPath(("N", "E"))
    assert path == DyckPath(("N", "E")) and hash(path) == hash(DyckPath(("N", "E")))
    assert path != DyckPath(("N", "N", "E", "E"))
    assert repr(path) == "DyckPath(steps=('N', 'E'))"
    with pytest.raises(AttributeError):
        path.steps = ("N", "N", "E", "E")

    first = enumerate_classes(P233, (1, 1, 1))[0]
    again = enumerate_classes(P233, (1, 1, 1))[0]
    assert first == again and hash(first) == hash(again)
    assert first != enumerate_classes(P233, (1, 1, 1))[1]
    assert repr(first) == "HeapClass(heaps=(Heap('2,3,3', word=123),))"
    with pytest.raises(AttributeError):
        first.heaps = ()

    report = expansion(P233, (1, 1, 1), "e")
    assert report == expansion(P233, (1, 1, 1), "e")
    assert report != expansion(P233, (1, 1, 1), "m")
    with pytest.raises(TypeError):
        hash(report)
    assert repr(report) == (
        "ExpansionReport(order=UnitIntervalOrder([2, 3, 3]), mu=(1, 1, 1), "
        "basis='e', degree=3, coefficients={(3,): QPoly(1 + q + q^2), "
        "(2, 1): QPoly(q)}, provenance={(3,): 'basis-change', "
        "(2, 1): 'theorem+basis-change'}, positive=True)"
    )

    for value in (path, first, report):
        assert pickle.loads(pickle.dumps(value)) == value
