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

Multiplying by a conjugate, conj(a + b*zeta) = (a - b) - b*zeta, instead of
dividing scales by a positive norm, which changes no argument, so every eps
is a sign test on the coordinates (a, b) of bottom-row entries a + b*zeta.
"""

from __future__ import annotations

from .matgroup import IDENTITY, GroupMatrix, _times
from .value import Value


def _x(a0: int, a1: int, c0: int, c1: int) -> tuple:
    """X of a bottom row (a, b, c), as a coordinate pair: -a, or c when a = 0."""
    if a0 or a1:
        return -a0, -a1
    if c0 or c1:
        return c0, c1
    raise ValueError("matrix has a zero bottom row; not in the group")


def _upper(a: int, b: int) -> bool:
    """Whether Arg(a + b*zeta) lies in (0, pi]: Im = b*sqrt(3)/2, Re = (2a - b)/2."""
    return b > 0 or (b == 0 and a < 0)


def _eps(u0: int, u1: int, v0: int, v1: int) -> int:
    """(Arg u + Arg v - Arg uv) / (2*pi) for nonzero u = (u0, u1), v = (v0, v1): 1, 0, -1."""
    if _upper(u0, u1) and _upper(v0, v1):
        return 0 if _upper(*_times(u0, u1, v0, v1)) else 1
    if u1 < 0 and v1 < 0:
        return -1 if _upper(*_times(u0, u1, v0, v1)) else 0
    return 0


def sigma(g: GroupMatrix, h: GroupMatrix) -> int:
    """The integer cocycle sigma(g, h); (gh)31 = p and (gh)33 = q are row 2 of g
    against columns 0 and 2 of h, 6 entry products (sums as in GroupMatrix.__mul__)."""
    a0, b0, a1, b1, a2, b2 = g.coords[12:]
    c00, d00, _, _, c02, d02, c10, d10, _, _, c12, d12, c20, d20, _, _, c22, d22 = h.coords
    bd0, bd2 = b0 * d00 + b1 * d10 + b2 * d20, b0 * d02 + b1 * d12 + b2 * d22
    p0 = a0 * c00 + a1 * c10 + a2 * c20 - bd0
    p1 = a0 * d00 + b0 * c00 + a1 * d10 + b1 * c10 + a2 * d20 + b2 * c20 - bd0
    q0 = a0 * c02 + a1 * c12 + a2 * c22 - bd2
    q1 = a0 * d02 + b0 * c02 + a1 * d12 + b1 * c12 + a2 * d22 + b2 * c22 - bd2
    j0, j1 = q0 - 2 * p0, q1 - 2 * p1
    g0, g1 = _x(a0, b0, a2, b2)
    h0, h1 = _x(c20, d20, c22, d22)
    x0, x1 = _x(p0, p1, q0, q1)
    y0, y1 = _times(g0, g1, h0, h1)
    return (_eps(*_times(j0, j1, x0 - x1, -x1), x0, x1) - _eps(g0, g1, h0, h1)
            - _eps(*_times(j0, j1, y0 - y1, -y1), y0, y1))


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
