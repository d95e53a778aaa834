"""The universal-cover cocycle of SU(2,1).

The symmetric space is the domain of column vectors tau = (tau1, tau2) with
2*Re(tau1) + |tau2|^2 < 0.  The automorphy factor j(g, tau) admits a branch
of its logarithm that is continuous in tau, because j(g, tau) / X(g) always
has positive real part.  The branch defect

    sigma(g, h) = (jt(gh, tau) - jt(g, h*tau) - jt(h, tau)) / (2*pi*i)

is an integer independent of tau, and (g, n) pairs with the twisted product
(g, n)(h, m) = (gh, n + m + sigma(g, h)) realize the universal cover.
"""

from __future__ import annotations

import cmath
import math

from .matgroup import IDENTITY, GroupMatrix

SIGMA_TOLERANCE = 1e-6

_TWO_PI = 2.0 * math.pi


class BranchToleranceError(ArithmeticError):
    """The cocycle value failed to round to an integer within tolerance."""


class BallPoint:
    """A point (tau1, tau2) of the symmetric space: 2*Re(tau1) + |tau2|^2 < 0.

    The domain is open, so boundary points (defect exactly 0) are rejected.
    Images of interior points under group elements keep a strictly negative
    defect with a margin far above rounding noise, so no slack is needed.
    """

    __slots__ = ("tau1", "tau2")

    def __init__(self, tau1, tau2):
        tau1 = complex(tau1)
        tau2 = complex(tau2)
        defect = 2.0 * tau1.real + abs(tau2) ** 2
        if not defect < 0.0:
            raise ValueError(
                "point (%r, %r) is outside the domain: 2*Re(tau1) + |tau2|^2 = %r"
                % (tau1, tau2, defect)
            )
        object.__setattr__(self, "tau1", tau1)
        object.__setattr__(self, "tau2", tau2)

    def __setattr__(self, name, value):
        raise AttributeError("BallPoint is immutable")

    def __reduce__(self):
        return (BallPoint, (self.tau1, self.tau2))

    def __repr__(self):
        return "BallPoint(%r, %r)" % (self.tau1, self.tau2)

    def __eq__(self, other):
        if not isinstance(other, BallPoint):
            return NotImplemented
        return self.tau1 == other.tau1 and self.tau2 == other.tau2


BASE_POINT = BallPoint(-2.0, 0.0)
FALLBACK_BASE_POINTS = (BallPoint(-3.0, 0.0), BallPoint(-2.0, 0.5))


def _log_branch(z: complex) -> complex:
    """Principal logarithm with -pi < Im <= pi; the cut value is +pi*i."""
    theta = math.atan2(z.imag, z.real)
    if theta <= -math.pi:
        theta = math.pi
    return complex(math.log(abs(z)), theta)


def j_factor(g: GroupMatrix, tau: BallPoint) -> complex:
    """C*tau + D for the bottom row of g split as 1x2 and 1x1 blocks."""
    a, b, c = (entry.embed() for entry in g[2])
    return a * tau.tau1 + b * tau.tau2 + c


def act(g: GroupMatrix, tau: BallPoint) -> BallPoint:
    """Fractional-linear action (A*tau + B) / (C*tau + D)."""
    column = (tau.tau1, tau.tau2, 1.0)
    images = [
        sum(g[i][k].embed() * column[k] for k in range(3)) for i in range(3)
    ]
    denominator = images[2]
    return BallPoint(images[0] / denominator, images[1] / denominator)


def X_of(g: GroupMatrix) -> complex:
    """-a when the bottom-left entry a is nonzero, else the bottom-right entry c.

    Zero testing is exact on the Eisenstein entries, never numeric.
    """
    a = g[2][0]
    if not a.is_zero():
        return -a.embed()
    c = g[2][2]
    if c.is_zero():
        raise ValueError("matrix has a zero bottom row; not in the group")
    return c.embed()


def j_tilde(g: GroupMatrix, tau: BallPoint) -> complex:
    """The branch log(j/X) + log(X), each logarithm principal."""
    j = j_factor(g, tau)
    x = X_of(g)
    return _log_branch(j / x) + _log_branch(x)


def sigma_at(g: GroupMatrix, h: GroupMatrix, tau: BallPoint) -> tuple:
    """The raw cocycle value at one base point: (rounded integer, residual)."""
    value = (
        j_tilde(g * h, tau) - j_tilde(g, act(h, tau)) - j_tilde(h, tau)
    ) / complex(0.0, _TWO_PI)
    nearest = round(value.real)
    residual = abs(value - nearest)
    return nearest, residual


def sigma(g: GroupMatrix, h: GroupMatrix, tolerance: float = SIGMA_TOLERANCE) -> int:
    """The integer cocycle sigma(g, h).

    Evaluated at the default base point; since sigma is an integer by theory,
    a residual beyond tolerance indicates a genuine defect, so two fallback
    base points are tried before raising BranchToleranceError.
    """
    if not 0.0 < tolerance < 0.5:
        raise ValueError("tolerance must lie strictly between 0 and 0.5")
    failures = []
    for tau in (BASE_POINT,) + FALLBACK_BASE_POINTS:
        nearest, residual = sigma_at(g, h, tau)
        if residual < tolerance:
            return nearest
        failures.append((tau, residual))
    raise BranchToleranceError(
        "cocycle residuals exceeded %g at all base points: %s"
        % (tolerance, ", ".join("%r -> %g" % f for f in failures))
    )


class CoverElement:
    """A pair (g, n) in the universal cover with the sigma-twisted product."""

    __slots__ = ("g", "n")

    def __init__(self, g: GroupMatrix, n: int = 0):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("CoverElement is immutable")

    def __reduce__(self):
        return (CoverElement, (self.g, self.n))

    def __repr__(self):
        return "CoverElement(%r, %d)" % (self.g, self.n)

    def __eq__(self, other):
        if not isinstance(other, CoverElement):
            return NotImplemented
        return self.n == other.n and self.g == other.g

    def __hash__(self):
        return hash((self.g, self.n))

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
