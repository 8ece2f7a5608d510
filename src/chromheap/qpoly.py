"""Exact dense polynomials in the grading variable q.

Coefficients are Python ints or Fractions, so nothing is ever rounded.
The zero polynomial has an empty coefficient tuple; otherwise the top
coefficient is nonzero.
"""

from __future__ import annotations

import sys


def _exact() -> tuple:
    """int, and Fraction once fractions is loaded: none can exist before."""
    fractions = sys.modules.get("fractions")
    return (int, fractions.Fraction) if fractions else (int,)


def _norm(c):
    """Coerce a coefficient to int when it is an integral Fraction."""
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, int):
        return c
    if isinstance(c, _exact()):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class QPoly:
    """Polynomial in q; coeffs[k] is the coefficient of q**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "QPoly":
        """c * q**k."""
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            if isinstance(other, _exact()):
                return QPoly(c * other for c in self.coeffs)
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate at x (Horner)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_unimodal(self) -> bool:
        """Coefficients weakly rise then weakly fall."""
        cs = self.coeffs
        i = 0
        while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
            i += 1
        while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
            i += 1
        return i >= len(cs) - 1

    def to_json(self):
        """Ascending coefficient list; non-integer entries as "num/den"."""
        return [
            c if isinstance(c, int) else f"{c.numerator}/{c.denominator}"
            for c in self.coeffs
        ]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        coeffs = []
        for c in data:
            if isinstance(c, str):
                from fractions import Fraction

                c = Fraction(c)
            elif not isinstance(c, int):
                raise ValueError(f"bad coefficient in JSON: {c!r}")
            coeffs.append(c)
        return cls(coeffs)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"QPoly({self.pretty()})"


def _as_poly(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, _exact()):
        return QPoly((x,))
    return NotImplemented


def q_int(k: int) -> QPoly:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise ValueError("q_int of a negative integer")
    return QPoly((1,) * k)


def q_factorial(k: int) -> QPoly:
    """[k]_q! = [1]_q [2]_q ... [k]_q."""
    out = QPoly.one()
    for i in range(1, k + 1):
        out = out * q_int(i)
    return out
