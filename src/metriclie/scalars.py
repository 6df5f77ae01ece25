"""Exact scalars: rational parsing plus a quadratic extension Q(sqrt(d)).

Everything algebraic in this package runs over the rationals.  The one
place that genuinely needs an irrational number is a basis change of the
form e0 -> sqrt(2/mu) e0 - e3, so a minimal field Q(sqrt(d)) with a single
adjoined square root is provided.  ``d`` is fixed per value and mixing two
different roots is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .base import InputError


def frac(value) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise InputError(f"not an exact rational value: {value!r}")


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class QuadExt:
    """Number a + b*sqrt(d) with a, b rational and d a fixed positive non-square."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", frac(self.a))
        object.__setattr__(self, "b", frac(self.b))
        if self.d <= 0 or is_perfect_square(self.d):
            raise InputError(f"d must be a positive non-square, got {self.d}")

    def _aligned(self, other) -> tuple["QuadExt", "QuadExt"]:
        """Bring both operands to a common root; rational values adapt."""
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return self, other
            if self.b == 0:
                return QuadExt(self.a, Fraction(0), other.d), other
            if other.b == 0:
                return self, QuadExt(other.a, Fraction(0), self.d)
            raise InputError("mixing different square roots")
        return self, QuadExt(frac(other), Fraction(0), self.d)

    def __add__(self, other):
        x, y = self._aligned(other)
        return QuadExt(x.a + y.a, x.b + y.b, x.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        x, y = self._aligned(other)
        return QuadExt(x.a - y.a, x.b - y.b, x.d)

    def __rsub__(self, other):
        x, y = self._aligned(other)
        return QuadExt(y.a - x.a, y.b - x.b, x.d)

    def __mul__(self, other):
        x, y = self._aligned(other)
        return QuadExt(x.a * y.a + x.b * y.b * x.d,
                       x.a * y.b + x.b * y.a, x.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        x, y = self._aligned(other)
        # conjugate trick; norm a^2 - d b^2 is nonzero since d is non-square
        norm = y.a * y.a - y.b * y.b * x.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return x * QuadExt(y.a / norm, -y.b / norm, x.d)

    def __rtruediv__(self, other):
        x, y = self._aligned(other)
        return y / x

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.d != other.d and self.b != 0 and other.b != 0:
                return False
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        if self.b == 0:
            return 0 if self.a == 0 else (1 if self.a > 0 else -1)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        # |a| vs |b| sqrt(d): compare squares
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def sign_of(x) -> int:
    """Exact sign of a Fraction/int or QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    return 0 if x == 0 else (1 if x > 0 else -1)
