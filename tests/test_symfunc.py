"""Commutative symmetric and quasisymmetric substrate."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import pytest

from chromheap.partitions import (
    conjugate,
    multinomial,
    multiset_permutations,
    partitions,
    revlex_sorted,
    subset_to_composition,
    word_type,
    words,
    z_factor,
)
from chromheap import symfunc
from chromheap.chromatic import chromatic_sym
from chromheap.posets import UnitIntervalOrder
from chromheap.qpoly import QPoly
from chromheap.symfunc import (
    NotSymmetricError,
    QSymFunc,
    SymFunc,
    _rows_to_m,
    basis_to_m,
    dual_jacobi_trudi,
    m_in_basis_coords,
)


def compositions(d):
    """All compositions of d (tuples of positive parts, order matters)."""
    if d == 0:
        return ((),)
    out = []
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            out.append((first,) + rest)
    return tuple(out)


def composition_to_subset(alpha):
    """Partial sums of alpha, omitting the final total."""
    out = []
    s = 0
    for part in alpha[:-1]:
        s += part
        out.append(s)
    return frozenset(out)


def dominates(lam, mu):
    """True when lam dominates mu (partial sums of lam are at least mu's)."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def transition_M(lam, mu):
    """Number of 0/1 matrices with row sums lam and column sums mu: the
    coefficient of m_mu in e_lam, read off the pushed e row."""
    row = basis_to_m("e", tuple(sorted(lam, reverse=True)))
    return row.get(tuple(sorted(mu, reverse=True)), 0)


def monomial_ones(lam, N):
    """Value of m_lam with N variables all set to 1."""
    ell = len(lam)
    if ell > N:
        return 0
    count = factorial(N) // factorial(N - ell)
    for part in set(lam):
        count //= factorial(lam.count(part))
    return count


def eval_ones(f, N, q_value=1):
    """A symmetric function with all of x_1..x_N set to 1 and q to q_value."""
    return sum(c(q_value) * monomial_ones(lam, N) for lam, c in f.terms.items())


def f_coords(f):
    """Coordinates of a quasisymmetric function in the fundamental basis,
    subset -> QPoly, inverting F_{n,S} = sum over supersets T of
    M_{alpha(T)} by inclusion-exclusion."""
    d = f.degree
    out = {}
    for alpha in compositions(d):
        s = composition_to_subset(alpha)
        inside = sorted(s)
        c = QPoly()
        for r in range(len(inside) + 1):
            for sub in combinations(inside, r):
                v = f.terms.get(subset_to_composition(d, set(sub)))
                if v:
                    c = c + v * ((-1) ** (len(inside) - r))
        if c:
            out[s] = c
    return out


def omega_involution(f):
    """Complement descent sets in the fundamental basis."""
    d = f.degree
    full = set(range(1, d))
    out = QSymFunc(d)
    for s, c in f_coords(f).items():
        out = out + QSymFunc.fundamental(d, full - s, c)
    return out


# ---------------------------------------------------------------------------
# partition helpers


def test_partitions_counts():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for d in range(9):
        assert len(partitions(d)) == counts[d]
    assert partitions(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)
    assert conjugate(()) == ()


def test_z_factor():
    assert z_factor((1, 1, 1)) == 6
    assert z_factor((2, 1)) == 2
    assert z_factor((3,)) == 3
    assert z_factor((2, 2)) == 8


def test_dominates():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))
    assert not dominates((3,), (2, 2))  # different sizes


def test_revlex_order():
    assert revlex_sorted(partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_subset_composition_round_trip():
    for d in range(1, 7):
        for alpha in compositions(d):
            s = composition_to_subset(alpha)
            assert subset_to_composition(d, s) == alpha


def test_multiset_permutations():
    words = list(multiset_permutations((1, 0, 2)))
    assert words == [(1, 3, 3), (3, 1, 3), (3, 3, 1)]
    assert word_type((3, 1, 3), 3) == (1, 0, 2)
    for n in range(1, 5):
        for mu in product(range(3), repeat=n):
            assert len(list(multiset_permutations(mu))) == multinomial(mu)


def test_words_never_use_a_letter_with_negative_room():
    assert list(words((1, -1, 1), 1)) == [(1,), (3,)]
    assert list(words((0, -1, 2), 2)) == [(3, 3)]
    assert list(words((-2,), 0)) == [()]


def test_words_equal_filtered_product():
    """The pruned search against a filter of all words of length k, for
    every order with n <= 4, room vector with entries <= 2 and k <= 5:
    no follow rule, strictly decreasing (below) and descent-free
    (~below)."""
    for n in range(1, 5):
        orders = list(UnitIntervalOrder.all_orders(n))
        for k in range(6):
            every = list(product(range(1, n + 1), repeat=k))
            for room in product(range(3), repeat=n):
                fits = [
                    w for w in every
                    if all(w.count(a) <= room[a - 1] for a in range(1, n + 1))
                ]
                assert list(words(room, k)) == fits
                for order in orders:
                    below = [
                        w for w in fits
                        if all(order.less(y, x) for x, y in zip(w, w[1:]))
                    ]
                    assert list(words(room, k, order.below)) == below
                    descent_free = [
                        w for w in fits
                        if not any(order.less(y, x) for x, y in zip(w, w[1:]))
                    ]
                    after = [~b for b in order.below]
                    assert list(words(room, k, after)) == descent_free


# ---------------------------------------------------------------------------
# transitions into the monomial basis


def test_transition_triangular():
    """e_lam = m_{lam'} + lower terms in dominance order."""
    for d in range(1, 7):
        for lam in partitions(d):
            assert transition_M(lam, conjugate(lam)) == 1
            for mu in partitions(d):
                if transition_M(lam, mu):
                    assert dominates(conjugate(lam), mu)


def _fills(k, caps):
    """Vectors v with 0 <= v_j <= caps[j] and sum k."""
    if not caps:
        if k == 0:
            yield ()
        return
    for v in range(min(k, caps[0]) + 1):
        for rest in _fills(k - v, caps[1:]):
            yield (v,) + rest


def _canon(rem):
    return tuple(sorted((x for x in rem if x > 0), reverse=True))


@lru_cache(maxsize=None)
def _count_matrices(rows, rem):
    """Reference for symfunc._rows_to_m: matrices with prescribed rows
    and column sums rem (a partition), counted by peeling the first row
    off column by column. Each row is ('e', k): 0/1 entries summing to
    k; ('h', k): nonnegative entries summing to k; or ('p', k): the
    single entry k in one column."""
    if not rows:
        return 1 if not rem else 0
    kind, k = rows[0]
    rest = rows[1:]
    total = 0
    if kind == "e":
        if k > len(rem):
            return 0
        for idxs in combinations(range(len(rem)), k):
            new = list(rem)
            for j in idxs:
                new[j] -= 1
            total += _count_matrices(rest, _canon(new))
    elif kind == "h":
        for fill in _fills(k, rem):
            total += _count_matrices(
                rest, _canon(tuple(r - v for r, v in zip(rem, fill)))
            )
    elif kind == "p":
        seen = set()
        for j, r in enumerate(rem):
            if r >= k and r not in seen:
                seen.add(r)
                mult = sum(1 for x in rem if x == r)
                new = list(rem)
                new[j] -= k
                total += mult * _count_matrices(rest, _canon(new))
    else:
        raise ValueError(f"unknown row kind {kind!r}")
    return total


def _reference_to_m(basis, lam):
    """basis_to_m(basis, lam) for e, h, p and s from the matrix counts;
    s by dual Jacobi-Trudi."""
    d = sum(lam)
    if basis == "s":
        terms = dual_jacobi_trudi(lam)
    else:
        terms = [(1, lam)]
    out = {}
    for nu in partitions(d):
        c = sum(
            sign * _count_matrices(tuple(("e" if basis == "s" else basis, k) for k in parts), nu)
            for sign, parts in terms
        )
        if c:
            out[nu] = c
    return out


def test_generator_rows_equal_the_matrix_counts():
    for d in range(9):
        for lam in partitions(d):
            for basis in "ehps":
                got = basis_to_m(basis, lam)
                assert got == _reference_to_m(basis, lam), (basis, lam)
                # dominant partitions first, as partitions(d) lists them
                assert list(got) == [nu for nu in partitions(d) if nu in got]


def test_mixed_rows_commute():
    # the last row is pushed onto the row of the others, in any order
    for rows in permutations([("e", 2), ("h", 3), ("p", 2), ("e", 1)]):
        assert _rows_to_m(rows) == _rows_to_m(tuple(sorted(rows))), rows
    with pytest.raises(ValueError, match="unknown row kind"):
        _rows_to_m((("x", 1),))


# sha256 over repr(m_in_basis_coords(d, basis)) for d = 1..9, taken when the
# rows were still counted matrix by matrix
FROZEN_TABLES = {
    "e": "69dd2a60d2a0c75ae5c3e1bd63c8938bddd148049e0b7fe02f6e1706309c9659",
    "s": "bf4ab235ed2befd7d1bb7633ef3eeadfcbb3e0a58e486e89668715de09f8a513",
    "p": "2008bdea619196acd370db959dffee71a93a0355916fc9e8ab297140dcbae2fb",
}


@pytest.mark.parametrize("basis", list(FROZEN_TABLES))
def test_basis_change_tables_are_frozen(basis):
    digest = hashlib.sha256()
    for d in range(1, 10):
        digest.update(repr(m_in_basis_coords(d, basis)).encode())
    assert digest.hexdigest() == FROZEN_TABLES[basis]


def test_h_expansion_small():
    assert basis_to_m("h", (2,)) == {(2,): 1, (1, 1): 1}
    assert basis_to_m("h", (1, 1)) == {(2,): 1, (1, 1): 2}
    assert basis_to_m("p", (2,)) == {(2,): 1}
    assert basis_to_m("p", (2, 1)) == {(3,): 1, (2, 1): 1}
    assert basis_to_m("e", (2, 1)) == {(2, 1): 1, (1, 1, 1): 3}


def _ssyt_count(lam, mu):
    """Semistandard tableaux of shape lam and content mu, by backtracking."""
    lam = tuple(lam)
    rows = [[0] * r for r in lam]
    counts = list(mu)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]

    def rec(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for v in range(1, len(counts) + 1):
            if counts[v - 1] == 0:
                continue
            if c > 0 and rows[r][c - 1] > v:
                continue
            if r > 0 and rows[r - 1][c] >= v:
                continue
            rows[r][c] = v
            counts[v - 1] -= 1
            total += rec(idx + 1)
            counts[v - 1] += 1
            rows[r][c] = 0
        return total

    return rec(0)


def test_schur_matches_tableau_oracle():
    for d in range(1, 7):
        for lam in partitions(d):
            expansion = basis_to_m("s", lam)
            for mu in partitions(d):
                assert expansion.get(mu, 0) == _ssyt_count(lam, mu), (lam, mu)


def test_eh_relation():
    """sum_j (-1)^j e_j h_{k-j} = 0 for k >= 1, up to degree 8."""
    for k in range(1, 9):
        total = {}
        for j in range(k + 1):
            rows = []
            if j:
                rows.append(("e", j))
            if k - j:
                rows.append(("h", k - j))
            for nu, c in _rows_to_m(tuple(rows)).items():
                total[nu] = total.get(nu, 0) + (-1) ** j * c
        assert all(c == 0 for c in total.values()), k


def test_peh_relation():
    """p_k = sum_j (-1)^(j-1) j e_j h_{k-j}, up to degree 8."""
    for k in range(1, 9):
        total = {}
        for j in range(1, k + 1):
            rows = [("e", j)]
            if k - j:
                rows.append(("h", k - j))
            for nu, c in _rows_to_m(tuple(rows)).items():
                total[nu] = total.get(nu, 0) + (-1) ** (j - 1) * j * c
        want = basis_to_m("p", (k,))
        assert {nu: c for nu, c in total.items() if c} == want


def test_forgotten_is_omega_of_monomial():
    for d in range(1, 6):
        for lam in partitions(d):
            f = SymFunc.basis_element("f", lam)
            m = SymFunc.basis_element("m", lam)
            assert m.omega() == f


# ---------------------------------------------------------------------------
# SymFunc


def test_symfunc_validation():
    with pytest.raises(ValueError):
        SymFunc(3, {(2,): 1})
    with pytest.raises(ValueError):
        SymFunc(3, {(1, 2): 1})
    for lam in ((2, 0), (3, -1), (0,)):
        with pytest.raises(ValueError, match="is not a partition"):
            SymFunc(sum(lam), {lam: 1})


def test_basis_round_trips():
    f = SymFunc(
        4,
        {
            (4,): QPoly((1, 2)),
            (2, 2): QPoly((0, 1)),
            (1, 1, 1, 1): QPoly((3,)),
        },
    )
    for basis in "ehpsm":
        coords = f.in_basis(basis)
        assert SymFunc.from_coords(basis, 4, coords) == f


def test_omega_laws():
    f = SymFunc(4, {(3, 1): QPoly((1, 1)), (2, 2): QPoly((2,))})
    assert f.omega().omega() == f
    for d in range(1, 6):
        for lam in partitions(d):
            e = SymFunc.basis_element("e", lam)
            h = SymFunc.basis_element("h", lam)
            assert e.omega() == h
            assert h.omega() == e
            p = SymFunc.basis_element("p", lam)
            sign = (-1) ** (d - len(lam))
            assert p.omega() == p.scale(sign)
    # omega on Schur functions conjugates the shape
    for d in range(1, 6):
        for lam in partitions(d):
            s = SymFunc.basis_element("s", lam)
            assert s.omega() == SymFunc.basis_element("s", conjugate(lam))


def test_omega_reads_no_h_table(monkeypatch):
    """omega, and the f and h coordinates read off it, give their
    unpatched values with basis_to_m refusing h: omega goes through
    the Schur table, never through an h table."""
    X = chromatic_sym(UnitIntervalOrder.from_text("2,3,4,5,5"), (1,) * 5)
    want = (X.omega(), X.in_basis("f"), X.in_basis("h"))

    def refuse_h(basis, lam):
        if basis == "h":
            raise RuntimeError(f"basis_to_m('h', {lam}) was called")
        return real(basis, lam)

    real = symfunc.basis_to_m
    # tables cached by the calls above would bypass the patch
    real.cache_clear()
    symfunc.m_in_basis_coords.cache_clear()
    monkeypatch.setattr(symfunc, "basis_to_m", refuse_h)
    assert (X.omega(), X.in_basis("f"), X.in_basis("h")) == want


def test_schur_coordinates_exact():
    # h_lam is Schur-positive with Kostka coefficients
    h = SymFunc.basis_element("h", (2, 1))
    assert h.in_basis("s") == {(3,): QPoly.one(), (2, 1): QPoly.one()}
    assert h.is_positive_in("s")
    e = SymFunc.basis_element("e", (2, 1))
    assert e.in_basis("s") == {(1, 1, 1): QPoly.one(), (2, 1): QPoly.one()}


def test_rational_coordinates():
    m = SymFunc.basis_element("m", (1, 1))
    coords = m.in_basis("p")
    # m_11 = (p_1^2 - p_2) / 2
    assert coords == {
        (1, 1): QPoly((Fraction(1, 2),)),
        (2,): QPoly((Fraction(-1, 2),)),
    }


def _gauss_jordan_inverse(basis, d):
    """Reference for m_in_basis_coords: partitions of d (decreasing) and
    the exact Gauss-Jordan inverse of the dense basis-to-monomial matrix,
    entry [j][i] the coordinate at parts[j] of m_{parts[i]}."""
    parts = revlex_sorted(partitions(d))
    idx = {lam: i for i, lam in enumerate(parts)}
    p = len(parts)
    aug = [[Fraction(0)] * p + [Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    for j, lam in enumerate(parts):
        for mu, c in basis_to_m(basis, lam).items():
            aug[idx[mu]][j] = Fraction(c)
    for col in range(p):
        pivot = next(r for r in range(col, p) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(p):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return parts, [row[p:] for row in aug]


def _in_basis_by_products(f, basis):
    """Reference for SymFunc.in_basis: one QPoly per product and per sum."""
    if basis == "m":
        return dict(f.terms)
    parts, inv = _gauss_jordan_inverse(basis, f.degree)
    vec = [f.terms.get(lam, QPoly()) for lam in parts]
    out = {}
    for j, lam in enumerate(parts):
        c = QPoly()
        for i, v in enumerate(vec):
            if v and inv[j][i] != 0:
                c = c + v * inv[j][i]
        if c:
            out[lam] = c
    return out


def test_m_in_basis_coords_equals_gauss_jordan_inverse():
    """The peeled table against the dense inverse for every basis, d <= 8:
    same entries, an int where the entry is integral, else a Fraction.
    f and h have no table; the coordinates of m_lam that in_basis reads
    through omega are checked against the same inverse."""
    for d in range(9):
        for basis in "fpsemh":
            parts, inv = _gauss_jordan_inverse(basis, d)
            want = {
                lam: {
                    parts[j]: int(inv[j][i]) if inv[j][i].denominator == 1 else inv[j][i]
                    for j in range(len(parts))
                    if inv[j][i] != 0
                }
                for i, lam in enumerate(parts)
            }
            if basis in "fh":
                with pytest.raises(ValueError, match="unknown basis"):
                    m_in_basis_coords(d, basis)
                for lam in parts:
                    got = SymFunc.basis_element("m", lam).in_basis(basis)
                    assert got == {mu: QPoly((x,)) for mu, x in want[lam].items()}, (
                        d,
                        basis,
                        lam,
                    )
                continue
            got = m_in_basis_coords(d, basis)
            assert got == want, (d, basis)
            for lam, row in got.items():
                assert [type(x) for x in row.values()] == [
                    type(want[lam][mu]) for mu in row
                ], (d, basis, lam)


def test_dual_jacobi_trudi_equals_permutation_sum():
    """The pruned expansion against a brute force over every permutation
    of [lam_1], as a multiset of (sign, parts), for every |lam| <= 8."""
    for d in range(9):
        for lam in partitions(d):
            cols = conjugate(lam)
            m = len(cols)
            want = Counter()
            for sigma in permutations(range(1, m + 1)):
                ks = [cols[i] - (i + 1) + sigma[i] for i in range(m)]
                if min(ks, default=0) >= 0:
                    inversions = sum(
                        1 for i in range(m) for j in range(i + 1, m) if sigma[i] > sigma[j]
                    )
                    want[((-1) ** inversions, tuple(k for k in ks if k))] += 1
            assert Counter(dual_jacobi_trudi(lam)) == want, lam
    # a one-row shape keeps 2^(lam_1 - 1) of its lam_1! permutations
    assert len(dual_jacobi_trudi((10,))) == 2**9


def test_in_basis_matches_per_product_sums():
    rng = random.Random(4)
    for d in range(1, 7):
        for _ in range(4):
            terms = {}
            for lam in partitions(d):
                if rng.random() < 0.3:
                    continue
                # terms of different q-degrees, some coefficients zero
                terms[lam] = QPoly(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 5))
                )
            f = SymFunc(d, terms)
            for basis in "fpsemh":
                got = f.in_basis(basis)
                want = _in_basis_by_products(f, basis)
                assert got == want, (d, basis)
                # same coefficient types too: an integral value is an int
                assert {k: v.to_json() for k, v in got.items()} == {
                    k: v.to_json() for k, v in want.items()
                }


def test_peel_builds_the_rows_of_nonzero_coordinates_only(monkeypatch):
    """A function with known sparse coordinates in e, s or p, some of
    them Fractions, peels back to exactly those coordinates (the dense
    inverse agrees), and the peel asks basis_to_m for the rows of those
    coordinates and no others."""
    rng = random.Random(25)
    real = symfunc.basis_to_m
    for d in range(1, 8):
        for basis in "esp":
            for _ in range(3):
                parts = partitions(d)
                coords = {
                    lam: QPoly(
                        Fraction(rng.randint(-5, 5), rng.choice((1, 1, 3)))
                        for _ in range(rng.randint(1, 4))
                    )
                    for lam in rng.sample(parts, min(len(parts), rng.randint(1, 3)))
                }
                coords = {lam: c for lam, c in coords.items() if c}
                f = SymFunc.from_coords(basis, d, coords)
                asked = []

                def record(b, lam):
                    asked.append((b, lam))
                    return real(b, lam)

                monkeypatch.setattr(symfunc, "basis_to_m", record)
                got = f.in_basis(basis)
                monkeypatch.setattr(symfunc, "basis_to_m", real)
                assert got == coords == _in_basis_by_products(f, basis), (d, basis)
                assert list(got) == revlex_sorted(got)
                assert sorted(asked) == sorted((basis, lam) for lam in coords), (d, basis)


def test_chromatic_coordinates_match_per_product_sums():
    """X and omega X of orders whose e-, s- and p-coordinates include
    zeros, in the bases the expansions read, against the dense inverse."""
    zeros = 0
    for order, mu in [
        (UnitIntervalOrder((2, 3, 4, 5, 5)), (1,) * 5),
        (UnitIntervalOrder((3, 3, 3)), (2, 1, 2)),
        (UnitIntervalOrder((1, 3, 4, 4)), (1, 2, 0, 1)),
    ]:
        X = chromatic_sym(order, mu)
        for f in (X, X.omega()):
            for basis in "esp":
                got = f.in_basis(basis)
                assert got == _in_basis_by_products(f, basis), (order.m, mu, basis)
                zeros += len(partitions(f.degree)) - len(got)
    assert zeros >= 10


def test_eval_ones():
    assert monomial_ones((2, 1), 3) == 6
    assert monomial_ones((1, 1), 3) == 3
    assert monomial_ones((1, 1, 1, 1), 3) == 0
    # e_2 at three ones counts the 2-subsets of a 3-set
    assert eval_ones(SymFunc.basis_element("e", (2,)), 3) == 3
    # h_2 at three ones counts multisets
    assert eval_ones(SymFunc.basis_element("h", (2,)), 3) == 6
    assert eval_ones(SymFunc.basis_element("m", (2,), QPoly((0, 1))), 3, 2) == 6


def test_symfunc_json_round_trip():
    f = SymFunc(3, {(2, 1): QPoly((1, 1)), (3,): QPoly((0, 0, 2))})
    for basis in "mehps":
        assert SymFunc.from_json(f.to_json(basis)) == f


# ---------------------------------------------------------------------------
# QSymFunc


def test_fundamental_expansion():
    F = QSymFunc.fundamental(3, {1})
    assert F.terms == {
        (1, 2): QPoly.one(),
        (1, 1, 1): QPoly.one(),
    }
    F0 = QSymFunc.fundamental(2, set())
    assert F0.terms == {(2,): QPoly.one(), (1, 1): QPoly.one()}


def test_f_coords_round_trip():
    for d in range(1, 6):
        for alpha in compositions(d):
            s = composition_to_subset(alpha)
            F = QSymFunc.fundamental(d, s, QPoly((1, 2)))
            coords = f_coords(F)
            assert coords == {s: QPoly((1, 2))}
    # a random-ish combination
    g = (
        QSymFunc.fundamental(4, {1, 3}, QPoly((1,)))
        + QSymFunc.fundamental(4, {2}, QPoly((0, 5)))
    )
    rebuilt = QSymFunc(4)
    for s, c in f_coords(g).items():
        rebuilt = rebuilt + QSymFunc.fundamental(4, s, c)
    assert rebuilt == g


def test_omega_involution():
    g = QSymFunc.fundamental(4, {1, 3}) + QSymFunc.fundamental(4, {2}, QPoly((0, 1)))
    assert omega_involution(omega_involution(g)) == g
    F = QSymFunc.fundamental(3, {1})
    assert omega_involution(F) == QSymFunc.fundamental(3, {2})


def test_to_symmetric():
    # sum of all fundamentals of degree d is h_1^d, hence symmetric
    total = QSymFunc(3)
    for alpha in compositions(3):
        total = total + QSymFunc(3, {alpha: QPoly.one()})
    f = total.to_symmetric()
    assert f.terms == {lam: QPoly.one() for lam in partitions(3)}

    lopsided = QSymFunc(3, {(2, 1): QPoly.one()})
    with pytest.raises(NotSymmetricError) as exc:
        lopsided.to_symmetric()
    alpha, beta, ca, cb = exc.value.witness
    assert sorted(alpha, reverse=True) == sorted(beta, reverse=True) == [2, 1]
    assert ca != cb


def test_to_symmetric_witness_for_a_missing_rearrangement():
    # M_(1,1,2) and M_(2,1,1) without M_(1,2,1); M_(3,1) is complete
    terms = {(1, 1, 2): 2, (2, 1, 1): 2, (3, 1): 1, (1, 3): 1}
    with pytest.raises(NotSymmetricError) as exc:
        QSymFunc(4, terms).to_symmetric()
    assert exc.value.witness == ((1, 1, 2), (1, 2, 1), QPoly((2,)), QPoly())


def test_to_symmetric_witness_for_a_differing_rearrangement():
    # every rearrangement of (2,1,1) is present, one with another coefficient
    terms = {(2, 1, 1): QPoly((0, 1)), (1, 2, 1): QPoly((0, 1)), (1, 1, 2): QPoly((1, 1))}
    with pytest.raises(NotSymmetricError) as exc:
        QSymFunc(4, terms).to_symmetric()
    assert exc.value.witness == ((2, 1, 1), (1, 1, 2), QPoly((0, 1)), QPoly((1, 1)))


def test_m_in_basis_coords_consistency():
    for d in range(1, 6):
        for basis in "fpseh":
            for lam in partitions(d):
                if basis in "fh":
                    # no table: in_basis reads these through omega
                    got = SymFunc.basis_element("m", lam).in_basis(basis)
                    row = {mu: c.coeff(0) for mu, c in got.items()}
                else:
                    row = m_in_basis_coords(d, basis)[lam]
                back = {}
                for mu, c in row.items():
                    for nu, a in basis_to_m(basis, mu).items():
                        back[nu] = back.get(nu, Fraction(0)) + Fraction(c) * a
                back = {nu: c for nu, c in back.items() if c}
                assert back == {lam: 1}, (basis, lam)
