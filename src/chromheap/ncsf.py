"""The quotient of the free algebra on u_1..u_n by straightening rules.

Generators u_a and u_c commute when a lies below c in the order, and
u_a u_c u_b = u_b u_a u_c for a < b < c with a, b incomparable, b, c
incomparable and a below c. Congruence classes of words correspond to
flip-equivalence classes of heaps, so elements are stored as integer
combinations of class representative words: the least descent-free word
of the class. A word's representative is found from the lexicographic
normal form of the word (the canonical word of its heap, computed
without building the heap); only a normal form not seen before costs a
flip class, closed on lower masks without building a heap
(heaps._flip_class).

Generators are cached per order, as representatives are: each
generator, and each product of generators over a tuple of degrees
(built from the cached product of its prefix), is built once per order
and method, and a new order clears the cache. The words and the
relation of a generator are cached under different keys, so neither
side of a method agreement reads the other's result.

The elements here serve the class-identity checks (commutation, the
p/s method agreements, the height recurrence). `chromatic.expansion`
pairs f/p/s without them: the pairing reads only a class's type and
inversion count, which a transfer over states sums without any word.
"""

from __future__ import annotations

from .errors import MathematicalError
from .heaps import (
    _flip_class,
    _order_entries,
    descent_free_words,
    has_nontrivial_ltr_maximum,
    inversion_count,
    lex_normal_form,
)

# unused here; bound for benchmarks/child.py, which wraps it in this namespace
from .heaps import flip_closure  # noqa: F401
from .partitions import check_type, word_type, words
from .posets import UnitIntervalOrder
from .qpoly import QPoly
from .symfunc import dual_jacobi_trudi, m_in_basis_coords

# class representatives of the last order asked for, keyed by its bound
# sequence then by word; a new order clears the dict, so sweeps stay bounded
_rep_cache: dict = {}

# generators of the last order asked for, keyed by its bound sequence then
# by (family, method, degree or tuple of degrees); cleared as _rep_cache is
_gen_cache: dict = {}


class NonIntegralWeightError(MathematicalError, ArithmeticError):
    """The e-expansion of a monomial symmetric function had a
    non-integer coefficient."""


def class_representative(order: UnitIntervalOrder, word) -> tuple:
    """Least descent-free word in the congruence class of the word."""
    word = tuple(word)
    if not word:
        return ()
    cache = _order_entries(_rep_cache, order)
    rep = cache.get(word)  # a word that is a key is its own normal form
    if rep is not None:
        return rep
    key = lex_normal_form(order, word)
    rep = cache.get(key)
    if rep is None:
        members = _flip_class(order, key)
        rep = members[0][0]
        for w, _ in members:
            cache[w] = rep
    return rep


class NCElement:
    """Integer combination of congruence classes of words."""

    __slots__ = ("order", "terms")

    def __init__(self, order: UnitIntervalOrder, terms=None):
        self.order = order
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def from_words(cls, order: UnitIntervalOrder, words) -> "NCElement":
        """Sum of u_w over an iterable of (possibly repeated) words."""
        terms: dict = {}
        for w in words:
            rep = class_representative(order, w)
            terms[rep] = terms.get(rep, 0) + 1
        return cls(order, terms)

    @classmethod
    def one(cls, order: UnitIntervalOrder) -> "NCElement":
        return cls(order, {(): 1})

    @classmethod
    def zero(cls, order: UnitIntervalOrder) -> "NCElement":
        return cls(order)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("mismatched ambient orders")

    def __add__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return NCElement(self.order, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {w: c * other for w, c in self.terms.items()}
            return NCElement(self.order, terms)
        if not isinstance(other, NCElement):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                rep = class_representative(self.order, w1 + w2)
                terms[rep] = terms.get(rep, 0) + c1 * c2
        return NCElement(self.order, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (
            isinstance(other, NCElement)
            and self.order == other.order
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        n = len(self.terms)
        return f"NCElement({self.order.text()!r}, {n} classes)"


# ---------------------------------------------------------------------------
# word families


def strictly_decreasing_words(order: UnitIntervalOrder, k: int):
    """Words w_1 > ... > w_k in the order (reversed chains)."""
    return words((k,) * order.n, k, order.below)


def unique_sink_words(order: UnitIntervalOrder, k: int):
    """Descent-free words with no nontrivial left-to-right maximum."""
    for w in descent_free_words(order, k):
        if not has_nontrivial_ltr_maximum(order, w):
            yield w


# ---------------------------------------------------------------------------
# generating functions


def _generator(order: UnitIntervalOrder, family: str, method: str, k, single) -> NCElement:
    """single(k) for a degree k >= 1, one for degree 0, and for a tuple
    the product of its parts' generators in turn; a negative degree is
    a ValueError. Each is built once per order: a tuple multiplies the
    cached product of its prefix by the generator of its last part."""
    memo = _order_entries(_gen_cache, order)
    if not isinstance(k, int):
        k = tuple(k)
    key = (family, method, k)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(k, int) and k < 0:
        raise ValueError(f"negative degree {k}")
    if not k:  # degree 0, or the empty product
        out = NCElement.one(order)
    elif isinstance(k, int):
        out = single(k)
    else:
        prefix = _generator(order, family, method, k[:-1], single)
        out = prefix * _generator(order, family, method, k[-1], single)
    memo[key] = out
    return out


def nc_e(order: UnitIntervalOrder, k) -> NCElement:
    """Elementary generator e_k, or the product e_lam for a tuple."""

    def single(k):
        return NCElement.from_words(order, strictly_decreasing_words(order, k))

    return _generator(order, "e", "words", k, single)


def nc_h(order: UnitIntervalOrder, k, method: str = "words") -> NCElement:
    """Complete homogeneous generator h_k, or the product h_lam.

    method='words' sums descent-free words; method='relation' evaluates
    h_k = e_1 h_{k-1} - e_2 h_{k-2} + ..., each h_{k-j} by the relation
    in turn.
    """
    if method not in ("words", "relation"):
        raise ValueError(f"unknown method {method!r}")

    def single(k):
        if method == "words":
            return NCElement.from_words(order, descent_free_words(order, k))
        out = NCElement.zero(order)
        for j in range(1, k + 1):
            out = out + (-1) ** (j - 1) * (nc_e(order, j) * nc_h(order, k - j, "relation"))
        return out

    return _generator(order, "h", method, k, single)


def nc_p(order: UnitIntervalOrder, k, method: str = "words") -> NCElement:
    """Power sum analogue p_k, or the product p_lam.

    method='words' sums descent-free words without nontrivial
    left-to-right maxima (heaps with a unique sink); method='relation'
    evaluates e_1 h_{k-1} - 2 e_2 h_{k-2} + ... + (-1)^{k-1} k e_k.
    """
    if method not in ("words", "relation"):
        raise ValueError(f"unknown method {method!r}")

    def single(k):
        if method == "words":
            return NCElement.from_words(order, unique_sink_words(order, k))
        out = NCElement.zero(order)
        for j in range(1, k + 1):
            term = nc_e(order, j) * nc_h(order, k - j)
            out = out + ((-1) ** (j - 1) * j) * term
        return out

    return _generator(order, "p", method, k, single)


def nc_s(order: UnitIntervalOrder, lam, method: str = "tableaux") -> NCElement:
    """Schur analogue of a partition shape.

    method='tableaux' sums reading words of order-compatible fillings;
    method='jacobi_trudi' evaluates the signed sum of elementary
    products dual to the shape.
    """
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(
        p <= 0 for p in lam
    ):
        raise ValueError(f"{lam} is not a partition")
    if method == "tableaux":
        words = (reading_word(t) for t in enumerate_tableaux(order, lam))
        return NCElement.from_words(order, words)
    if method == "jacobi_trudi":
        out = NCElement.zero(order)
        for sign, parts in dual_jacobi_trudi(lam):
            out = out + sign * nc_e(order, parts)
        return out
    raise ValueError(f"unknown method {method!r}")


def nc_m(order: UnitIntervalOrder, lam) -> NCElement:
    """Monomial analogue: the e-expansion of m_lam with integer weights."""
    lam = tuple(sorted(lam, reverse=True))
    if not lam:
        return NCElement.one(order)
    coords = m_in_basis_coords(sum(lam), "e")[lam]
    out = NCElement.zero(order)
    for mu, c in coords.items():
        if c.denominator != 1:  # an int or a Fraction
            raise NonIntegralWeightError(
                f"non-integer weight {c} in e-expansion of m_{lam}"
            )
        out = out + int(c) * nc_e(order, mu)
    return out


# ---------------------------------------------------------------------------
# order-compatible tableaux


def enumerate_tableaux(order: UnitIntervalOrder, shape) -> list:
    """Fillings of the shape with entries in [n] whose rows never step
    down in the order and whose columns strictly increase in the order."""
    shape = tuple(shape)
    rows = [[0] * r for r in shape]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    out = []

    def rec(idx):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[idx]
        for a in range(1, order.n + 1):
            if c > 0 and order.less(a, rows[r][c - 1]):
                continue  # row would step down
            if r > 0 and not order.less(rows[r - 1][c], a):
                continue  # column must strictly increase
            rows[r][c] = a
            rec(idx + 1)
            rows[r][c] = 0

    rec(0)
    return out


def reading_word(tableau) -> tuple:
    """Read columns left to right, each from bottom to top."""
    if not tableau:
        return ()
    out = []
    width = len(tableau[0])
    for c in range(width):
        for r in range(len(tableau) - 1, -1, -1):
            if c < len(tableau[r]):
                out.append(tableau[r][c])
    return tuple(out)


# ---------------------------------------------------------------------------
# pairing and checks


def pair_gamma(elem: NCElement, mu) -> QPoly:
    """Pair with the weighted sum of words of type mu.

    Picks out the classes of type mu, each weighted by q to its
    inversion count (constant on a class).
    """
    mu = tuple(mu)
    order = elem.order
    check_type(mu, order.n)
    out = QPoly()
    for w, c in elem.terms.items():
        if word_type(w, order.n) == mu:
            out = out + QPoly.monomial(inversion_count(order, w), c)
    return out


def hp_recurrence_check(order: UnitIntervalOrder, lam) -> bool:
    """Check the height recurrence for a partition with length >= height:
    m_lam vanishes above the height and factors as e_h * m_(lam - 1^h)
    at the height."""
    lam = tuple(sorted(lam, reverse=True))
    h = order.height
    if len(lam) < h:
        raise ValueError("partition must have length at least the height")
    lhs = nc_m(order, lam)
    if len(lam) > h:
        return not lhs
    minus = tuple(p - 1 for p in lam if p > 1)
    return lhs == nc_e(order, h) * nc_m(order, minus)


__all__ = [
    "NCElement",
    "class_representative",
    "NonIntegralWeightError",
    "nc_e",
    "nc_h",
    "nc_p",
    "nc_s",
    "nc_m",
    "pair_gamma",
    "enumerate_tableaux",
    "reading_word",
    "hp_recurrence_check",
    "strictly_decreasing_words",
    "descent_free_words",
    "unique_sink_words",
]
