"""Commutative symmetric and quasisymmetric functions with exact
q-polynomial coefficients.

Symmetric functions (SymFunc) are stored in the monomial basis m,
indexed by partitions of a fixed homogeneous degree, and quasisymmetric
functions (QSymFunc) in the monomial basis M, indexed by compositions;
the two share one graded body (_Graded) and differ in their index check.
Expansions of the elementary, complete homogeneous, power sum and Schur
bases into monomials are computed by counting matrices with prescribed
row structure and column sums. A change into e, s or p peels the
function itself off the triangular expansions in dominance order,
building the rows of its nonzero coordinates only; the table of the
coordinates of each m_lam is the same peel of m_lam. The forgotten and h
coordinates go through omega, which swaps m with f and e with h; omega
itself reads the Schur coordinates, since omega s_lam = s_lam'.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, factorial, perm

from .partitions import (
    conjugate,
    multinomial,
    multiset_permutations,
    partitions,
    revlex_sorted,
    subset_to_composition,
)
from .errors import MathematicalError
from .qpoly import QPoly


class NotSymmetricError(MathematicalError, ValueError):
    """Raised when a quasisymmetric function fails to be symmetric.

    The witness records two compositions with the same part multiset
    whose monomial coefficients differ.
    """

    def __init__(self, alpha, beta, coeff_alpha, coeff_beta):
        self.witness = (alpha, beta, coeff_alpha, coeff_beta)
        super().__init__(
            f"coefficient of M_{list(alpha)} is {coeff_alpha.pretty()} but "
            f"coefficient of M_{list(beta)} is {coeff_beta.pretty()}"
        )


@lru_cache(maxsize=None)
def _rows_to_m(rows) -> dict:
    """Monomial expansion of a product of generators, one row each:
    ('e', k), ('h', k) or ('p', k). The coefficient of m_nu counts the
    matrices with column sums nu whose rows are 0/1 summing to k (e),
    nonnegative summing to k (h), or the single entry k (p).

    The last row is pushed onto the cached row of rows[:-1], so rows
    sorted by decreasing part share their prefixes. The push moves orbit
    totals, the matrices whose column sums over d = degree positions
    rearrange nu: in each class of g equal columns the new row raises j
    of them by one in C(g, j) ways (e), one by k in g ways (p), or adds
    increments of multiplicities mult in g!/prod(mult!) ways (h). Each
    total is then divided by the number of rearrangements of nu.
    """
    if not rows:
        return {(): 1}
    kind, k = rows[-1]
    d = sum(r for _, r in rows)
    totals: dict = {}
    for nu, c in _rows_to_m(rows[:-1]).items():
        # (ways, left to add, new column sums), spread class by class
        spread = [(c * _arrangements(nu, d), k, ())]
        for v, g in [*((v, nu.count(v)) for v in dict.fromkeys(nu)), (0, d - len(nu))]:
            stay = (v,) if v else ()  # zero sums are left out
            if kind == "e":
                js = range(min(g, k) + 1)
                options = [(j, (v + 1,) * j + stay * (g - j), comb(g, j)) for j in js]
            elif kind == "p":
                options = [(0, stay * g, 1), (k, (v + k,) + stay * (g - 1), g)]
            elif kind == "h":
                options = [
                    (s, tuple(v + x for x in pi) + stay * (g - len(pi)), _arrangements(pi, g))
                    for s in range(k + 1)
                    for pi in partitions(s)
                    if len(pi) <= g
                ]
            else:
                raise ValueError(f"unknown row kind {kind!r}")
            spread = [
                (w * ways, left - used, sums + raised)
                for w, left, sums in spread
                for used, raised, ways in options
                if used <= left
            ]
        for w, left, sums in spread:
            if not left:
                # the classes go down by sum, and e raises each by one at most
                key = sums if kind == "e" else tuple(sorted(sums, reverse=True))
                totals[key] = totals.get(key, 0) + w
    return {nu: totals[nu] // _arrangements(nu, d) for nu in partitions(d) if nu in totals}


@lru_cache(maxsize=None)
def _arrangements(nu, n) -> int:
    """Ways to place the parts of nu on n positions, zeros elsewhere."""
    ways = perm(n, len(nu))
    for x in set(nu):
        ways //= factorial(nu.count(x))
    return ways


@lru_cache(maxsize=None)
def basis_to_m(basis: str, lam: tuple) -> dict:
    """Monomial expansion of a basis element, partition -> exact scalar."""
    lam = tuple(lam)
    d = sum(lam)
    if basis == "m":
        return {lam: 1}
    if basis in ("e", "h", "p"):
        return _rows_to_m(tuple((basis, k) for k in sorted(lam, reverse=True)))
    if basis == "s":
        return _schur_to_m(lam)
    if basis == "f":
        # forgotten basis: the omega image of the monomial basis
        acc: dict = {}
        for mu, c in m_in_basis_coords(d, "e")[lam].items():
            _add_scaled(acc, [c], basis_to_m("h", mu))
        return {nu: x for nu in revlex_sorted(acc) if (x := acc[nu][0])}
    raise ValueError(f"unknown basis {basis!r}")


def _schur_to_m(lam) -> dict:
    """Monomial expansion of a Schur function by dual Jacobi-Trudi."""
    out = {}
    for sign, parts in dual_jacobi_trudi(lam):
        for nu, c in _rows_to_m(tuple(("e", k) for k in sorted(parts, reverse=True))).items():
            out[nu] = out.get(nu, 0) + sign * c
    return {nu: c for nu, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def dual_jacobi_trudi(lam: tuple) -> tuple:
    """s_lam = det(e_{lam'_i - i + j}) as (sign, parts) pairs: one signed
    product of e_k over the parts, for each permutation whose entries
    all have k >= 0 (e_0 = 1 is dropped from the parts).

    Row i (1-based) admits the values sigma_i >= i - lam'_i. These bounds
    increase with i, so once the least value still free lies below the
    bound of the row to fill, no row can take it and the branch is
    dropped. Taking the j-th least free value (from 0) adds j inversions.
    """
    cols = conjugate(lam)
    out = []

    def rec(i, free, sign, parts):
        if i == len(cols):
            out.append((sign, parts))
            return
        low = i + 1 - cols[i]
        if free[0] < low:
            return
        for j, v in enumerate(free):
            if v >= low:
                k = cols[i] - i - 1 + v
                rest = free[:j] + free[j + 1 :]
                rec(i + 1, rest, (-1) ** j * sign, parts + (k,) if k else parts)

    rec(0, tuple(range(1, len(cols) + 1)), 1, ())
    return tuple(out)


@lru_cache(maxsize=None)
def m_in_basis_coords(d: int, basis: str) -> dict:
    """For each partition lam of d, the coordinates of m_lam in the basis:
    ints, and Fractions only where p divides; each row is the peel of
    m_lam alone (_peel)."""
    peel = {lam: _peel(d, basis, {lam: [1]}) for lam in partitions(d)}
    return {lam: {nu: c for nu, (c,) in row.items()} for lam, row in peel.items()}


def _peel(d: int, basis: str, terms) -> dict:
    """The coordinates in m, e, s or p of sum c_lam m_lam, from and to dicts
    of coefficient lists by power of q, in decreasing partition order.

    partitions(d) lists the partitions dominant first, and e_{lam'} and
    s_lam are m_lam plus lower terms: the coefficient at the leading
    monomial left is the coordinate, and its row (basis_to_m, cached) is
    subtracted, so only the rows of nonzero coordinates are built. p_lam
    is prod_i m_i(lam)! m_lam plus higher terms, so p peels from the
    other end and divides by that diagonal, after scaling by d!: a
    p-coordinate of an integral function is an integer over z_lam, which
    divides d!, so every division is exact on ints.
    """
    if basis not in ("m", "e", "s", "p"):
        raise ValueError(f"unknown basis {basis!r}")
    scale = factorial(d) if basis == "p" else 1
    rest = {lam: [x * scale for x in c] for lam, c in terms.items()}
    out = {}
    for lam, lead in _leads(d, basis):
        c = rest.pop(lam, None)  # the row below sets it again, never to be read
        if not c or not any(c):
            continue
        row = basis_to_m(basis, lead)
        if (diag := row[lam]) != 1:
            c = [_div(x, diag) for x in c]
        out[lead] = c if scale == 1 else [_div(x, scale) for x in c]
        _add_scaled(rest, c, row, -1)
    return {lam: out[lam] for lam in revlex_sorted(out)}


@lru_cache(maxsize=None)
def _leads(d: int, basis: str) -> tuple:
    """(lam, the basis element led by m_lam) in the order _peel takes them."""
    parts = partitions(d)[:: -1 if basis == "p" else 1]
    return tuple((lam, conjugate(lam) if basis == "e" else lam) for lam in parts)


def _div(x, y):
    """x / y exactly: an int when y divides x, else a Fraction."""
    if not x % y:
        return x // y
    from fractions import Fraction  # loaded only when a Fraction is made

    return Fraction(x) / y


def _add_scaled(acc, c, row, sign=1) -> None:
    """acc[nu] += sign * x * c for each entry nu -> x of a sparse row, where
    acc maps partitions to coefficient lists by power of q, as c is one."""
    for nu, x in row.items():
        x *= sign
        to = acc.get(nu)
        if to is None:
            acc[nu] = [x * v for v in c]
            continue
        if len(to) < len(c):
            to.extend([0] * (len(c) - len(to)))
        for k, v in enumerate(c):
            to[k] += x * v


def _coefficient(coeff) -> QPoly:
    """The coeff of basis_element and fundamental: one when None, a
    QPoly as is, a scalar as a constant QPoly."""
    if coeff is None:
        return QPoly.one()
    return coeff if isinstance(coeff, QPoly) else QPoly((coeff,))


class _Graded:
    """Homogeneous element of Sym or QSym in its monomial basis: the
    degree and the nonzero QPoly coefficients, keyed by index tuples that
    the subclass checks (_check). The repr writes each term as
    _letter[index], indices in decreasing order when _descending."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        clean = {}
        for key, c in (terms or {}).items():
            key = tuple(key)
            self._check(key, degree)
            if not isinstance(c, QPoly):
                c = QPoly((c,))
            if c:
                clean[key] = c
        self.terms = clean

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, QPoly()) + c
        return self.__class__(self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self.__class__(self.degree, {key: v * c for key, v in self.terms.items()})

    def __eq__(self, other):
        return (
            other.__class__ is self.__class__
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        terms = sorted(self.terms.items(), reverse=self._descending)
        body = " + ".join(f"({c.pretty()})*{self._letter}{list(key)}" for key, c in terms)
        return f"{self.__class__.__name__}({body or '0'})"


class SymFunc(_Graded):
    """Homogeneous symmetric function, stored in the monomial basis."""

    __slots__ = ()
    _letter, _descending = "m", True

    @staticmethod
    def _check(lam, degree):
        if sum(lam) != degree or any(p <= 0 for p in lam):
            raise ValueError(f"{lam} is not a partition of {degree}")
        if tuple(sorted(lam, reverse=True)) != lam:
            raise ValueError(f"{lam} is not weakly decreasing")

    @classmethod
    def basis_element(cls, basis: str, lam, coeff=None) -> "SymFunc":
        lam = tuple(sorted(lam, reverse=True))
        coeff = _coefficient(coeff)
        terms = {}
        for mu, c in basis_to_m(basis, lam).items():
            terms[mu] = coeff * c
        return cls(sum(lam), terms)

    @classmethod
    def from_coords(cls, basis: str, degree: int, coords) -> "SymFunc":
        out = cls(degree)
        for lam, c in coords.items():
            out = out + cls.basis_element(basis, lam, c)
        return out

    def in_basis(self, basis: str) -> dict:
        """Coordinates in the chosen basis, partition -> QPoly, in
        decreasing order: e, s and p are peeled off the function itself
        (_peel). omega swaps m with f and e with h, so f and h are read
        off omega of the function in m and e."""
        if basis == "m":
            return dict(self.terms)
        if basis in ("f", "h"):
            return self.omega().in_basis("m" if basis == "f" else "e")
        coords = _peel(self.degree, basis, {lam: c.coeffs for lam, c in self.terms.items()})
        return {lam: QPoly(c) for lam, c in coords.items()}

    def omega(self) -> "SymFunc":
        """The involution exchanging elementary and complete bases, read
        through the Schur basis: omega s_lam = s_lam'."""
        acc: dict = {}
        for lam, c in self.in_basis("s").items():
            _add_scaled(acc, c.coeffs, basis_to_m("s", conjugate(lam)))
        return SymFunc(self.degree, {nu: QPoly(c) for nu, c in acc.items()})

    def is_positive_in(self, basis: str) -> bool:
        return all(c.is_nonnegative() for c in self.in_basis(basis).values())

    def to_json(self, basis: str = "m") -> dict:
        coords = self.in_basis(basis)
        return {
            "degree": self.degree,
            "basis": basis,
            "terms": [
                {"partition": list(lam), "poly": coords[lam].to_json()}
                for lam in revlex_sorted(coords)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "SymFunc":
        coords = {
            tuple(t["partition"]): QPoly.from_json(t["poly"])
            for t in data["terms"]
        }
        return cls.from_coords(data["basis"], data["degree"], coords)


class QSymFunc(_Graded):
    """Homogeneous quasisymmetric function in the monomial basis,
    indexed by compositions."""

    __slots__ = ()
    _letter, _descending = "M", False

    # bound here too for benchmarks/child.py, which wraps it in vars(QSymFunc)
    __add__ = _Graded.__add__

    @staticmethod
    def _check(alpha, degree):
        if sum(alpha) != degree or any(a <= 0 for a in alpha):
            raise ValueError(f"{alpha} is not a composition of {degree}")

    @classmethod
    def fundamental(cls, degree: int, subset, coeff=None) -> "QSymFunc":
        """F_{degree,S} expanded in the monomial basis."""
        subset = frozenset(subset)
        coeff = _coefficient(coeff)
        rest = sorted(set(range(1, degree)) - subset)
        terms = {}
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                alpha = subset_to_composition(degree, subset | set(extra))
                terms[alpha] = terms.get(alpha, QPoly()) + coeff
        return cls(degree, terms)

    def to_symmetric(self) -> SymFunc:
        """Reinterpret as a symmetric function or raise NotSymmetricError.

        The terms are grouped by sorted parts. A group is symmetric when
        it holds every rearrangement of its parts, all with one
        coefficient; only a failing group is searched for a witness.
        """
        groups = {}
        for alpha in self.terms:
            groups.setdefault(tuple(sorted(alpha, reverse=True)), []).append(alpha)
        sym_terms = {}
        for lam, present in groups.items():
            ref = self.terms[present[0]]
            mults = _parts_as_mu(lam)
            if len(present) != multinomial(mults) or any(
                self.terms[alpha] != ref for alpha in present
            ):
                for alpha in multiset_permutations(mults):
                    beta = _mu_word_to_composition(alpha, lam)
                    c = self.terms.get(beta, QPoly())
                    if c != ref:
                        raise NotSymmetricError(present[0], beta, ref, c)
            sym_terms[lam] = ref
        return SymFunc(self.degree, sym_terms)


def _parts_as_mu(lam):
    """Multiplicity vector of the distinct parts of lam (sorted ascending)."""
    distinct = sorted(set(lam))
    return tuple(lam.count(p) for p in distinct)


def _mu_word_to_composition(word, lam):
    """Map a word over distinct-part indices back to a composition."""
    distinct = sorted(set(lam))
    return tuple(distinct[a - 1] for a in word)
