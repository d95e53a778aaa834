"""Exact arithmetic in the ring Z[zeta] of Eisenstein integers.

Elements are written a + b*zeta with integer a, b, where zeta = e^(2*pi*i/3)
satisfies zeta^2 = -1 - zeta.  The square root of -3 is fixed as 1 + 2*zeta,
the root with positive imaginary part.
"""

from __future__ import annotations

from .value import Value


class NotDivisibleError(ValueError):
    """Raised by div_exact when the divisor does not divide the dividend."""


class EisensteinInt(Value):
    """The Eisenstein integer a + b*zeta, immutable and hashable."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        _set_a(self, a)
        _set_b(self, b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%d*zeta" % self.b
        return "%d%+d*zeta" % (self.a, self.b)

    def __eq__(self, other):
        if isinstance(other, EisensteinInt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + b*zeta)(c + d*zeta) with zeta^2 = -1 - zeta.
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return EisensteinInt(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def conj(self) -> "EisensteinInt":
        """Complex conjugate: conj(zeta) = zeta^2 = -1 - zeta."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """z * conj(z) = a^2 - a*b + b^2, a nonnegative rational integer."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def div_exact(self, w: "EisensteinInt") -> "EisensteinInt":
        """Exact quotient self / w; raises NotDivisibleError if w does not divide."""
        w = _coerce(w)
        if w is None or w.is_zero():
            raise NotDivisibleError("division by zero")
        n = w.norm()
        zc = self * w.conj()
        qa, ra = divmod(zc.a, n)
        qb, rb = divmod(zc.b, n)
        if ra or rb:
            raise NotDivisibleError("%s is not divisible by %s" % (self, w))
        return EisensteinInt(qa, qb)

    def to_pair(self) -> list:
        """JSON encoding: the two-element integer array [a, b]."""
        return [self.a, self.b]

    @classmethod
    def from_pair(cls, pair) -> "EisensteinInt":
        """[a, b] -> a + b*zeta; ValueError unless pair is a list or tuple of two ints."""
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            a, b = pair
            if type(a) is int and type(b) is int:
                return cls(a, b)
        raise ValueError("expected a pair of integers, got %r" % (pair,))


# The slots' own setters, which go round the __setattr__ that keeps
# instances immutable; cheaper than object.__setattr__ on a hot path.
_set_a = EisensteinInt.a.__set__
_set_b = EisensteinInt.b.__set__


def _coerce(value):
    if isinstance(value, EisensteinInt):
        return value
    if isinstance(value, int):
        return EisensteinInt(value, 0)
    return None


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
ZETA = EisensteinInt(0, 1)
SQRT_MINUS3 = EisensteinInt(1, 2)
