"""Noncommutative generating functions and the pairing."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

import chromheap.chromatic as chromatic
import chromheap.ncsf as ncsf
import chromheap.symfunc as symfunc
from chromheap.chromatic import _pairings
from chromheap.errors import MathematicalError
from chromheap.ncsf import (
    NCElement,
    NonIntegralWeightError,
    class_representative,
    enumerate_tableaux,
    hp_recurrence_check,
    nc_e,
    nc_h,
    nc_m,
    nc_p,
    nc_s,
    pair_gamma,
    reading_word,
    strictly_decreasing_words,
    unique_sink_words,
)
from chromheap.heaps import enumerate_classes
from chromheap.partitions import partitions
from chromheap.posets import UnitIntervalOrder
from chromheap.qpoly import QPoly
from chromheap.symfunc import QSymFunc, SymFunc
from test_chromatic import orders_and_types
from test_heaps import is_descent_free

P233 = UnitIntervalOrder((2, 3, 3))
P24555 = UnitIntervalOrder((2, 4, 5, 5, 5))
P24455 = UnitIntervalOrder((2, 4, 4, 5, 5))
P23455 = UnitIntervalOrder((2, 3, 4, 5, 5))


# ---------------------------------------------------------------------------
# representatives and the algebra


def test_class_representative():
    rep = class_representative(P233, (3, 1, 2, 1, 3, 1))
    assert is_descent_free(P233, rep)
    assert class_representative(P233, rep) == rep
    assert class_representative(P233, ()) == ()
    # all six words of one heap share a representative
    words = [(1, 1, 3, 2, 1, 3), (1, 3, 1, 2, 1, 3), (3, 1, 1, 2, 1, 3)]
    reps = {class_representative(P233, w) for w in words}
    assert len(reps) == 1


def test_rep_cache_keeps_only_the_last_order(monkeypatch):
    monkeypatch.setattr(ncsf, "_rep_cache", {})
    class_representative(P233, (3, 1, 2))
    assert list(ncsf._rep_cache) == [P233.m]
    class_representative(P23455, (3, 1, 2))
    assert list(ncsf._rep_cache) == [P23455.m]
    assert ncsf._rep_cache[P23455.m]


@pytest.mark.parametrize(
    "order, mu",
    [
        (P233, (1, 1, 2)),
        (P233, (2, 1, 2)),
        (P24555, (1, 1, 1, 1, 1)),
        (UnitIntervalOrder((2, 3, 4, 4)), (1, 1, 1, 1)),
    ],
)
def test_every_word_of_a_class_maps_to_its_representative(order, mu, monkeypatch):
    monkeypatch.setattr(ncsf, "_rep_cache", {})  # start every class cold
    for cls in enumerate_classes(order, mu):
        for h in cls.heaps:
            for w in h.words():
                assert class_representative(order, w) == cls.representative, w


def test_ncelement_algebra():
    one = NCElement.one(P233)
    zero = NCElement.zero(P233)
    e1 = nc_e(P233, 1)
    assert e1 * one == e1
    assert one * e1 == e1
    assert e1 + zero == e1
    assert e1 - e1 == zero
    assert not zero
    assert 2 * e1 == e1 + e1
    assert (-e1) + e1 == zero
    other = NCElement.one(UnitIntervalOrder((1, 2)))
    with pytest.raises(ValueError):
        e1 + other


def test_dump_deterministic():
    e2 = nc_e(P233, 2)
    assert e2.dump() == e2.dump()
    assert all(":" in line for line in e2.dump().splitlines())


# ---------------------------------------------------------------------------
# word families


def test_strictly_decreasing_words_frozen():
    words = sorted(strictly_decreasing_words(P24555, 2))
    assert words == [(3, 1), (4, 1), (5, 1), (5, 2)]


def test_unique_sink_words_are_single_sink_heaps():
    from chromheap.heaps import Heap

    for k in range(1, 4):
        for w in unique_sink_words(P233, k):
            assert Heap.from_word(P233, w).sink_count == 1


# ---------------------------------------------------------------------------
# generating function identities


def test_e_commutation():
    for order in (P233, P23455):
        h = order.height
        for k in range(1, h + 1):
            for l in range(k, h + 1):
                ek, el = nc_e(order, k), nc_e(order, l)
                assert ek * el == el * ek


def test_h_words_vs_relation():
    for order in (P233, P23455):
        for k in range(1, 5):
            assert nc_h(order, k) == nc_h(order, k, "relation")


def test_p_words_vs_relation():
    for order in (P233, P23455):
        for k in range(1, 5):
            assert nc_p(order, k) == nc_p(order, k, "relation")


def test_s_tableaux_vs_jacobi_trudi():
    for order in (P233, UnitIntervalOrder((2, 2, 3))):
        for d in range(1, 5):
            for lam in partitions(d):
                assert nc_s(order, lam) == nc_s(order, lam, "jacobi_trudi"), lam


def _bounded_cases():
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            yield order, (1,) * n
    for mu in ((1, 1, 2), (3, 2, 2), (2, 0, 2)):
        yield P233, mu


@pytest.mark.parametrize(
    "basis, gen", [("f", nc_h), ("p", nc_p), ("s", nc_s)], ids=["nc_h", "nc_p", "nc_s"]
)
def test_bounded_generators_pair_like_full_ones(basis, gen):
    # the transfer over states against the pairing of the full
    # noncommutative product, which forms every class
    for order, mu in _bounded_cases():
        _assert_pairings_match_the_products(order, mu, basis, gen)


def _assert_pairings_match_the_products(order, mu, basis, gen):
    got = _pairings(order, mu, basis)
    for lam in partitions(sum(mu)):
        want = pair_gamma(gen(order, lam), mu)
        assert got.get(lam, QPoly()) == want, (order, mu, lam)
    assert all(got.values()), "a zero pairing is left out"


@settings(max_examples=100, deadline=None)
@given(orders_and_types(max_size=6))
def test_pairings_match_the_products_on_random_types(case):
    order, mu = case
    assume(order.n <= 5)
    for basis, gen in (("f", nc_h), ("p", nc_p), ("s", nc_s)):
        _assert_pairings_match_the_products(order, mu, basis, gen)


@pytest.mark.parametrize(
    "order, mu", [(UnitIntervalOrder((2, 3, 4, 5, 6, 6)), (1,) * 6), (P233, (3, 2, 2))]
)
def test_pairings_never_take_the_word_route(monkeypatch, order, mu):
    # the basis change that checks the pairings must not share their code
    want = {basis: _pairings(order, mu, basis) for basis in "fps"}

    def refuse(*args, **kwargs):
        raise AssertionError("the pairing took the word route")

    for name in ("_descent_polys", "_fundamental_to_monomial", "_unpack"):
        monkeypatch.setattr(chromatic, name, refuse)
    monkeypatch.setattr(QSymFunc, "to_symmetric", refuse)
    monkeypatch.setattr(SymFunc, "in_basis", refuse)
    monkeypatch.setattr(symfunc, "_peel", refuse)
    for basis in "fps":
        assert _pairings(order, mu, basis) == want[basis]


def test_s_rejects_non_partition():
    with pytest.raises(ValueError):
        nc_s(P233, (1, 2))


def test_nc_m_expansion():
    # m_2 = e_1 e_1 - 2 e_2
    lhs = nc_m(P233, (2,))
    rhs = nc_e(P233, (1, 1)) - 2 * nc_e(P233, 2)
    assert lhs == rhs
    assert nc_m(P233, ()) == NCElement.one(P233)


def test_nc_m_non_integer_weight_is_a_math_error(monkeypatch):
    def halves(d, basis):
        return {lam: {(1,) * d: Fraction(1, 2)} for lam in partitions(d)}

    monkeypatch.setattr(ncsf, "m_in_basis_coords", halves)
    with pytest.raises(NonIntegralWeightError) as exc:
        nc_m(P233, (2,))
    assert isinstance(exc.value, MathematicalError)
    assert isinstance(exc.value, ArithmeticError)


@pytest.mark.parametrize(
    "gen, method",
    [(nc_e, None), (nc_h, "words"), (nc_h, "relation"), (nc_p, "words"), (nc_p, "relation")],
)
def test_a_negative_degree_is_rejected(gen, method):
    for k in (-1, (2, -1)):
        with pytest.raises(ValueError, match="negative degree"):
            gen(P233, k) if method is None else gen(P233, k, method)


def test_unknown_methods_rejected():
    # the empty product included: k = 0 and () return 1 for a known method
    for k in (2, 0, ()):
        with pytest.raises(ValueError):
            nc_h(P233, k, "magic")
        with pytest.raises(ValueError):
            nc_p(P233, k, "magic")
    with pytest.raises(ValueError):
        nc_s(P233, (2,), "magic")


# ---------------------------------------------------------------------------
# tableaux


def test_tableaux_frozen_example():
    tabs = enumerate_tableaux(P24455, (4, 2, 1))
    good = ((1, 2, 5, 4), (3, 5), (5,))
    assert good in tabs
    assert reading_word(good) == (5, 3, 1, 5, 2, 5, 4)
    assert ((1, 2, 5, 4), (4, 5), (5,)) not in tabs
    assert ((1, 2, 5, 3), (3, 5), (5,)) not in tabs


def test_reading_word_empty():
    assert reading_word(()) == ()


# ---------------------------------------------------------------------------
# pairing


def test_pairing_frozen_values():
    mu = (1, 1, 2)
    assert pair_gamma(nc_h(P233, (3, 1)), mu) == QPoly((1, 3, 3, 1))
    assert pair_gamma(nc_p(P233, (3, 1)), mu) == QPoly((1, 2, 2, 1))
    assert pair_gamma(nc_s(P233, (3, 1)), mu) == QPoly((0, 1, 1))


def test_pair_gamma_rejects_wrong_type_length():
    for mu in ((1, 1, 2, 0), (2, 2)):
        with pytest.raises(ValueError, match="type vector length must equal n"):
            pair_gamma(nc_h(P233, (3, 1)), mu)


def pair_class(elem, heap_class):
    """Coefficient of a flip-equivalence class in the element."""
    return elem.terms.get(class_representative(elem.order, heap_class.representative), 0)


def test_pair_class():
    mu = (1, 1, 2)
    h2 = nc_h(P233, (4,))
    for cls in enumerate_classes(P233, mu):
        # h_d counts one descent-free word per member heap
        assert pair_class(h2, cls) == len(cls)


# ---------------------------------------------------------------------------
# height recurrence


def test_hp_recurrence():
    assert hp_recurrence_check(P233, (2, 2))
    assert hp_recurrence_check(P233, (2, 2, 1))  # length above height: vanishes
    assert hp_recurrence_check(P233, (1, 1))
    with pytest.raises(ValueError):
        hp_recurrence_check(P233, (3,))  # too short


def test_hp_vanishing_above_height():
    # length > height forces the monomial element to vanish
    assert not nc_m(P233, (1, 1, 1))
    assert not nc_m(P233, (2, 1, 1))
