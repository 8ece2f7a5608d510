"""Natural unit interval orders and their Dyck path encoding.

An order on [n] is described by a weakly increasing bound sequence m with
i <= m_i <= n; vertices i < j are comparable exactly when m_i < j. The
incomparability graph has an edge {i, j} (i < j) exactly when j <= m_i.
"""

from __future__ import annotations

from functools import cached_property

from .partitions import check_type


class DyckPath:
    """Lattice path of N/E steps from (0,0) to (n,n) staying weakly above
    the diagonal. Frozen and hashable; the steps are kept as a tuple."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        x = y = 0
        for s in steps:
            if s == "N":
                y += 1
            elif s == "E":
                x += 1
            else:
                raise ValueError(f"bad step {s!r}")
            if x > y:
                raise ValueError("path dips below the diagonal")
        if x != y:
            raise ValueError("path must end on the diagonal")
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(steps={self.steps!r})"

    def __reduce__(self):
        return (self.__class__, (self.steps,))

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def bound_sequence(self) -> tuple:
        """Heights of the East steps, read left to right."""
        y = 0
        out = []
        for s in self.steps:
            if s == "N":
                y += 1
            else:
                out.append(y)
        return tuple(out)


class UnitIntervalOrder:
    """Natural unit interval order, identified by its bound sequence."""

    __slots__ = ("m", "n", "__dict__")

    def __init__(self, m):
        m = tuple(int(x) for x in m)
        n = len(m)
        if n == 0:
            raise ValueError("empty bound sequence")
        for i, mi in enumerate(m, start=1):
            if not i <= mi <= n:
                raise ValueError(f"m_{i}={mi} violates {i} <= m_{i} <= {n}")
        if any(m[i] > m[i + 1] for i in range(n - 1)):
            raise ValueError("bound sequence must be weakly increasing")
        self.m = m
        self.n = n

    @classmethod
    def from_text(cls, text: str) -> "UnitIntervalOrder":
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse bound sequence {text!r}") from exc
        return cls(parts)

    def text(self) -> str:
        return ",".join(str(x) for x in self.m)

    def word_text(self, w) -> str:
        """A word over [n] as text: the letters run together when n <= 9
        and are joined with '-' from n = 10 on, so no two words print alike."""
        return ("-" if self.n >= 10 else "").join(map(str, w))

    def less(self, i: int, j: int) -> bool:
        """True when i precedes j in the order."""
        return i < j and self.m[i - 1] < j

    def comparable(self, i: int, j: int) -> bool:
        return self.less(i, j) or self.less(j, i)

    def adjacent(self, i: int, j: int) -> bool:
        """Edge of the incomparability graph (distinct, incomparable)."""
        return i != j and not self.comparable(i, j)

    @cached_property
    def touch(self) -> tuple:
        """Bit b of touch[a] is set when a == b or a, b are incomparable,
        i.e. when blocks in columns a and b stack on each other. Index 0
        is unused, so letters index the table directly."""
        out = [0]
        for a in range(1, self.n + 1):
            mask = 0
            for b in range(1, self.n + 1):
                if not self.comparable(a, b):
                    mask |= 1 << b
            out.append(mask)
        return tuple(out)

    @cached_property
    def below(self) -> tuple:
        """Bit b of below[a] is set when b precedes a in the order. As a
        follow table for partitions.words, below gives the strictly
        decreasing words and its complement the descent-free ones.
        Index 0 is unused, like in touch."""
        out = [0]
        for a in range(1, self.n + 1):
            mask = 0
            for b in range(1, self.n + 1):
                if self.less(b, a):
                    mask |= 1 << b
            out.append(mask)
        return tuple(out)

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.m[i - 1] + 1)
        )

    def runs(self, vertices) -> tuple:
        """Components of the incomparability graph on the given vertices,
        each as an increasing tuple, in increasing order.

        They are runs of the vertices in increasing order. Take present
        vertices a < a' with none present in between. When a' <= m_a
        they are adjacent. Otherwise no edge crosses the gap: bounds
        increase, so each present b <= a has m_b <= m_a < a'.
        """
        out = []
        for a in sorted(set(vertices)):
            if out and a <= self.m[out[-1][-1] - 1]:
                out[-1].append(a)
            else:
                out.append([a])
        return tuple(map(tuple, out))

    def neighbors(self, a: int) -> tuple:
        return self._neighbors[a - 1]

    @cached_property
    def _neighbors(self):
        out = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            out[i - 1].append(j)
            out[j - 1].append(i)
        return tuple(tuple(sorted(v)) for v in out)

    @cached_property
    def height(self) -> int:
        """Longest chain length, computed by the bounce walk on the path."""
        x = 0
        bounces = 0
        while x < self.n:
            x = self.m[x]
            bounces += 1
        return bounces

    @cached_property
    def triangle_free(self) -> bool:
        """True when the incomparability graph has no triangle, i.e. it
        is a disjoint union of paths: no m_i >= i + 2, which would make
        i, i + 1 and i + 2 pairwise incomparable."""
        return not any(self.m[i - 1] >= i + 2 for i in range(1, self.n - 1))

    def dyck_path(self) -> DyckPath:
        steps = []
        y = 0
        for mi in self.m:
            steps.extend("N" * (mi - y))
            steps.append("E")
            y = mi
        steps.extend("N" * (self.n - y))
        return DyckPath(tuple(steps))

    @classmethod
    def from_dyck(cls, path: DyckPath) -> "UnitIntervalOrder":
        return cls(path.bound_sequence())

    def blow_up(self, mu) -> "UnitIntervalOrder":
        """Replace vertex a by mu[a-1] mutually adjacent copies.

        Copies of a and b are adjacent exactly when a == b or a, b are
        adjacent; the result is again a natural unit interval order.
        """
        mu = tuple(int(x) for x in mu)
        check_type(mu, self.n)
        ends = [0]
        for x in mu:
            ends.append(ends[-1] + x)
        new_m = []
        for a in range(1, self.n + 1):
            top = ends[self.m[a - 1]]
            for i in range(mu[a - 1]):
                new_m.append(max(top, ends[a - 1] + i + 1))
        return UnitIntervalOrder(new_m)

    @classmethod
    def all_orders(cls, n: int):
        """All bound sequences of length n, in lexicographic order."""

        def rec(prefix):
            if len(prefix) == n:
                yield cls(prefix)
                return
            i = len(prefix) + 1
            lo = max(i, prefix[-1] if prefix else 1)
            for mi in range(lo, n + 1):
                yield from rec(prefix + [mi])

        yield from rec([])

    def __eq__(self, other):
        return isinstance(other, UnitIntervalOrder) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"UnitIntervalOrder({list(self.m)})"
