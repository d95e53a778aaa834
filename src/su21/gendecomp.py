"""Constructive membership: write a group element as a word in n1..n5.

The height of g is N(a) + N(c), where (a, b, c) is the first column.  One
descent step multiplies g on the left by a unipotent element (or a
transposed one) chosen via a nearest-lattice-point computation, and strictly
decreases the height; height 1 forces g upper unipotent, which is read off
directly.  A step computes on the six ints of GroupMatrix.first_column:
the nearest lattice point and every rounding compare integers, and every
norm inequality along the way is asserted on integers.  decompose builds
one Word, from the letters of all steps, and checks it by multiplying out
the generator matrices.  Every factor, the step's n(z, x) or its transpose
and each letter's generator or inverse, is unitriangular, so each product
goes through matgroup._upper_times, a step's by unitriangular_times.
"""

from __future__ import annotations

from functools import lru_cache

from .eisenstein import SQRT_MINUS3, EisensteinInt
from .fpgroup import Word
from .matgroup import (
    GENERATOR_NAMES, IDENTITY, GroupMatrix, _reversed_rows, _times, _unitriangular_factors,
    _upper_times, generators_upsilon, in_upsilon, make_n, make_n_transpose, n_corner,
    unitriangular_times,
)

# n2^t expressed in n1..n5; every multiplier word below factors through this.
N2_TRANSPOSE_WORD = Word.from_string("n3^-1 n1 n4 n1 n3^-2 n2", GENERATOR_NAMES)


def nearest_lattice_point(a: int, b: int, den: int) -> tuple:
    """The coordinates (p, q) of the Eisenstein integer p + q*zeta nearest
    to (a + b*zeta) / den (den > 0) in the norm metric.  The target lies in
    the lattice cell with corners c0 + {0, 1, zeta, 1 + zeta},
    c0 = (a // den) + (b // den)*zeta; its short diagonal (length 1) cuts
    it into two equilateral lattice triangles, so every lattice point off
    the cell is strictly farther than the nearest corner.  Corners are
    compared by N(a + b*zeta - den*c), then by the lexicographically
    smallest (trace, zeta-coordinate)."""
    if den <= 0:
        raise ValueError("den must be positive, got %r" % (den,))
    p0 = a // den
    q0 = b // den
    best_key = None
    for p in (p0, p0 + 1):
        x = a - den * p
        for q in (q0, q0 + 1):
            y = b - den * q
            key = (x * x - x * y + y * y, 2 * p - q, q)
            if best_key is None or key < best_key:
                best_key = key
                best = (p, q)
    return best


def _norm(a: int, b: int) -> int:
    """N(a + b*zeta) = a^2 - a*b + b^2."""
    return a * a - a * b + b * b


def first_column_height(g: GroupMatrix) -> int:
    """N(g[0][0]) + N(g[2][0]); the descent's strictly decreasing measure."""
    a0, a1, _, _, c0, c1 = g.first_column()
    return _norm(a0, a1) + _norm(c0, c1)


def _n3_exponent(z: EisensteinInt, x: int) -> int:
    """k = (x - p - q - 3pq)/2 for z = p + q*zeta, an integer by the parity
    condition on x."""
    numerator = x - z.a - z.b - 3 * z.a * z.b
    if numerator % 2:
        raise ValueError("x must have the parity of N(z)")
    return numerator // 2


def _power(letters, exponent: int) -> list:
    """letters repeated exponent times, inverted first when exponent < 0."""
    if exponent < 0:
        letters = [(i, -s) for i, s in reversed(letters)]
    return list(letters) * abs(exponent)


def _unipotent_letters(z: EisensteinInt, x: int) -> list:
    """The letters of n(z, x): n1^p n2^q n3^k with z = p + q*zeta and k as
    in _n3_exponent."""
    k = _n3_exponent(z, x)
    return _power([(0, 1)], z.a) + _power([(1, 1)], z.b) + _power([(2, 1)], k)


def _unipotent_transpose_letters(z: EisensteinInt, x: int) -> list:
    """The letters of n(z, x)^t: transposing reverses n1^p n2^q n3^k onto
    n5^k (n2^t)^q n4^p."""
    k = _n3_exponent(z, x)
    letters = _power([(4, 1)], k) + _power(N2_TRANSPOSE_WORD.letters, z.b)
    return letters + _power([(3, 1)], z.a)


def _rounded_half(u: int, n: int) -> int:
    """The integer nearest to u / (2n) for n > 0, ties toward the smaller
    one: ceil(u/(2n) - 1/2) = -floor((n - u)/(2n))."""
    return -((n - u) // (2 * n))


def _descend_step(g: GroupMatrix):
    """One height-reduction step: returns ((z, x, transpose), m*g, height)
    where m is n(z, x) or its transpose and height is that of m*g.

    The pivot is whichever of a = g[0][0] and c = g[2][0] has the smaller
    norm.  Against c, n(z, x) reduces b and then the real-direction part of
    a; against a, the transposed step reduces b and then c.  Every entry is
    handled as its two coordinates."""
    a0, a1, b0, b1, c0, c1 = g.first_column()
    na, nc = _norm(a0, a1), _norm(c0, c1)
    if na == nc:
        raise AssertionError("first-column norms can never be equal here")
    transpose = na < nc
    if transpose:
        p0, p1, o0, o1, n_pivot, make = a0, a1, c0, c1, na, make_n_transpose
    else:
        p0, p1, o0, o1, n_pivot, make = c0, c1, a0, a1, nc, make_n
    assert n_pivot > 0
    # b * conj(pivot), with conj(p0 + p1*zeta) = (p0 - p1) - p1*zeta, then
    # times sqrt(-3) = 1 + 2*zeta
    u = b0 * p0 - b0 * p1 + b1 * p1
    v = b1 * p0 - b0 * p1
    w0, w1 = nearest_lattice_point(u - 2 * v, 2 * u - v, 3 * n_pivot)
    zp, zq = (w0, w1) if transpose else (w0 - w1, -w1)
    z = EisensteinInt(zp, zq)
    x0 = _norm(zp, zq) % 2
    corner = n_corner(z, x0)
    # the reduced entry is row 0 of make(z, x0), (1, sqrt(-3) z, corner),
    # or row 2, (corner, sqrt(-3) conj(z), 1), times the first column; see
    # make_n for the coordinates of sqrt(-3) z and sqrt(-3) conj(z)
    if transpose:
        s0, s1 = zp + zq, 2 * zp - zq
    else:
        s0, s1 = zp - 2 * zq, 2 * zp - zq
    k0, k1 = _times(corner.a, corner.b, p0, p1)
    m0, m1 = _times(s0, s1, b0, b1)
    r0, r1 = k0 + m0 + o0, k1 + m1 + o1
    # r1*p0 - r0*p1 is the zeta-coordinate of reduced * conj(pivot)
    x = x0 - 2 * _rounded_half(r1 * p0 - r0 * p1, n_pivot)
    result = unitriangular_times(make(z, x), g)
    e0, e1, f0, f1, h0, h1 = result.first_column()
    n_top, n_bottom = _norm(e0, e1), _norm(h0, h1)
    assert _norm(f0, f1) <= n_pivot
    assert (n_bottom if transpose else n_top) <= n_pivot
    height = n_top + n_bottom
    assert height < na + nc
    return (z, x, transpose), result, height


def _base_case_parameters(g: GroupMatrix):
    """Read (z, x) off a height-1 element, which is exactly n(z, x): x is
    the zeta-coordinate of its corner (see n_corner)."""
    z = g.entry(0, 1).div_exact(SQRT_MINUS3)
    x = g.entry(0, 2).b
    if g != make_n(z, x):
        raise AssertionError("height-1 element is not upper unipotent")
    return z, x


@lru_cache(maxsize=None)
def _letter_factors() -> dict:
    """_unitriangular_factors of each letter's matrix, built once per process."""
    return {(i, s): _unitriangular_factors(m) for i, n in enumerate(generators_upsilon())
            for s, m in ((1, n), (-1, n.inverse()))}


def _word_coords(letters) -> tuple:
    """The coordinates of the letters' product P, multiplied from the last letter; while
    lower letters u act, P is held as J * P (rows reversed), on which J u J is upper."""
    table = _letter_factors()
    s, flipped = IDENTITY.coords, False
    for letter in reversed(letters):
        upper, factors = table[letter]
        if upper == flipped:
            s, flipped = _reversed_rows(s), not flipped
        s = _upper_times(*factors, s)
    return _reversed_rows(s) if flipped else s


def decompose(g: GroupMatrix) -> Word:
    """A word in n1..n5 evaluating to g.

    Raises ValueError when g is not in the group (level sqrt(-3) and
    top-left entry 1 mod 3, as in_upsilon tests).  The returned word is
    re-evaluated against g by _word_coords, so a wrong answer is impossible.
    """
    if not in_upsilon(g):
        raise ValueError("matrix is not in the five-generator unipotent group")
    records = []
    current, height = g, first_column_height(g)
    while height > 1:
        record, current, height = _descend_step(current)
        records.append(record)
    z, x = _base_case_parameters(current)
    letters = []
    for rz, rx, transpose in records:
        step = (_unipotent_transpose_letters if transpose else _unipotent_letters)(rz, rx)
        letters.extend((i, -s) for i, s in reversed(step))
    word = Word(letters + _unipotent_letters(z, x))
    if _word_coords(word.letters) != g.coords:
        raise AssertionError("decomposition failed verification")
    return word
