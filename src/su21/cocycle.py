"""The universal-cover cocycle of SU(2,1).

The symmetric space is the domain of column vectors tau = (tau1, tau2) with
2*Re(tau1) + |tau2|^2 < 0.  The automorphy factor j(g, tau) admits a branch
of its logarithm that is continuous in tau, because j(g, tau) / X(g) always
has positive real part.  The branch defect

    sigma(g, h) = (jt(gh, tau) - jt(g, h*tau) - jt(h, tau)) / (2*pi*i)

is an integer independent of tau, and (g, n) pairs with the twisted product
(g, n)(h, m) = (gh, n + m + sigma(g, h)) realize the universal cover.

sigma is evaluated exactly at tau0 = (-2, 0).  There j(g, tau0) is the
Eisenstein integer g33 - 2*g31, j(g, h*tau0) = j(gh, tau0) / j(h, tau0), and
X(g) is -g31, or g33 when g31 = 0.  Let eps(u, v) = (Arg u + Arg v - Arg uv)
/ (2*pi), with principal arguments in (-pi, pi], and j = j(gh, tau0).  The
arguments of the right-half-plane quotients j(g, h*tau0) / X(g) and
j(h, tau0) / X(h) add without wrapping, so

    sigma(g, h) = eps(j / X(gh), X(gh)) - eps(X(g), X(h))
                  - eps(j / (X(g) X(h)), X(g) X(h)).

Multiplying by a conjugate instead of dividing scales by a positive norm,
which changes no argument, so every eps is a sign test on integers.
"""

from __future__ import annotations

from .eisenstein import EisensteinInt
from .matgroup import IDENTITY, GroupMatrix
from .value import Value


def X_of(g: GroupMatrix) -> EisensteinInt:
    """-a when the bottom-left entry a is nonzero, else the bottom-right entry c."""
    a = g.entry(2, 0)
    if not a.is_zero():
        return -a
    c = g.entry(2, 2)
    if c.is_zero():
        raise ValueError("matrix has a zero bottom row; not in the group")
    return c


def _upper(u: EisensteinInt) -> bool:
    """Whether Arg u lies in (0, pi]: Im u = b*sqrt(3)/2, Re u = (2a - b)/2."""
    return u.b > 0 or (u.b == 0 and u.a < 0)


def _eps(u: EisensteinInt, v: EisensteinInt) -> int:
    """(Arg u + Arg v - Arg uv) / (2*pi) for nonzero u, v: 1, 0 or -1."""
    if _upper(u) and _upper(v):
        return 0 if _upper(u * v) else 1
    if u.b < 0 and v.b < 0:
        return -1 if _upper(u * v) else 0
    return 0


def sigma(g: GroupMatrix, h: GroupMatrix) -> int:
    """The integer cocycle sigma(g, h), by exact sign tests at tau0 = (-2, 0)."""
    gh = g * h
    j = gh.entry(2, 2) - 2 * gh.entry(2, 0)
    x_g, x_h, x_gh = X_of(g), X_of(h), X_of(gh)
    x_g_x_h = x_g * x_h
    return (
        _eps(j * x_gh.conj(), x_gh)
        - _eps(x_g, x_h)
        - _eps(j * x_g_x_h.conj(), x_g_x_h)
    )


class CoverElement(Value):
    """A pair (g, n) in the universal cover with the sigma-twisted product."""

    __slots__ = ("g", "n")

    def __init__(self, g: GroupMatrix, n: int = 0):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)

    def __mul__(self, other):
        if not isinstance(other, CoverElement):
            return NotImplemented
        return cover_mul(self, other)

    def inverse(self) -> "CoverElement":
        return cover_inv(self)


COVER_IDENTITY = CoverElement(IDENTITY, 0)


def cover_mul(x: CoverElement, y: CoverElement) -> CoverElement:
    """(g, n) * (g', n') = (g g', n + n' + sigma(g, g'))."""
    return CoverElement(x.g * y.g, x.n + y.n + sigma(x.g, y.g))


def cover_inv(x: CoverElement) -> CoverElement:
    """The inverse (g^-1, -n - sigma(g, g^-1))."""
    g_inv = x.g.inverse()
    return CoverElement(g_inv, -x.n - sigma(x.g, g_inv))
