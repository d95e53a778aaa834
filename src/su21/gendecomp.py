"""Constructive membership: write a group element as a word in n1..n5.

The height of g is N(a) + N(c), where (a, b, c) is the first column.  One
descent step multiplies g on the left by a unipotent element (or a
transposed one) chosen via a nearest-lattice-point computation, and strictly
decreases the height; height 1 forces g upper unipotent, which is read off
directly.  The descent runs on Python ints only: the nearest lattice point
and every rounding compare integers, and every norm inequality along the way
is asserted on integers.
"""

from __future__ import annotations

from .eisenstein import SQRT_MINUS3, EisensteinInt
from .fpgroup import Word, evaluate_word
from .matgroup import (
    GENERATOR_NAMES, GroupMatrix, generators_upsilon, in_upsilon, make_n,
    make_n_transpose, n_corner,
)

# n2^t expressed in n1..n5; every multiplier word below factors through this.
N2_TRANSPOSE_WORD = Word.from_string("n3^-1 n1 n4 n1 n3^-2 n2", GENERATOR_NAMES)


def nearest_lattice_point(num: EisensteinInt, den: int) -> EisensteinInt:
    """The Eisenstein integer nearest to num / den (den > 0) in the norm
    metric.  num / den lies in the lattice cell with corners
    c0 + {0, 1, zeta, 1 + zeta}, c0 = (num.a // den) + (num.b // den)*zeta;
    its short diagonal (length 1) cuts it into two equilateral lattice
    triangles, so every lattice point off the cell is strictly farther than
    the nearest corner.  Corners are compared by N(num - den*c), then by
    the lexicographically smallest (trace, zeta-coordinate)."""
    if den <= 0:
        raise ValueError("den must be positive, got %r" % (den,))
    p0 = num.a // den
    q0 = num.b // den
    best_key = None
    for p in (p0, p0 + 1):
        x = num.a - den * p
        for q in (q0, q0 + 1):
            y = num.b - den * q
            key = (x * x - x * y + y * y, 2 * p - q, q)
            if best_key is None or key < best_key:
                best_key = key
                best = (p, q)
    return EisensteinInt(*best)


def first_column_height(g: GroupMatrix) -> int:
    """N(g[0][0]) + N(g[2][0]); the descent's strictly decreasing measure."""
    return g.entry(0, 0).norm() + g.entry(2, 0).norm()


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


def unipotent_word(z: EisensteinInt, x: int) -> Word:
    """n(z, x) as a word: n1^p n2^q n3^k with z = p + q*zeta and k as in
    _n3_exponent."""
    k = _n3_exponent(z, x)
    return Word(_power([(0, 1)], z.a) + _power([(1, 1)], z.b) + _power([(2, 1)], k))


def unipotent_transpose_word(z: EisensteinInt, x: int) -> Word:
    """n(z, x)^t as a word: transposing reverses n1^p n2^q n3^k onto
    n5^k (n2^t)^q n4^p."""
    k = _n3_exponent(z, x)
    letters = _power([(4, 1)], k) + _power(N2_TRANSPOSE_WORD.letters, z.b)
    return Word(letters + _power([(3, 1)], z.a))


def _rounded_half(u: int, n: int) -> int:
    """The integer nearest to u / (2n) for n > 0, ties toward the smaller
    one: ceil(u/(2n) - 1/2) = -floor((n - u)/(2n))."""
    return -((n - u) // (2 * n))


def _descend_step(g: GroupMatrix):
    """One height-reduction step: returns ((z, x, transpose), m*g, height)
    where m is n(z, x) or its transpose and height is that of m*g.

    The pivot is whichever of a = g[0][0] and c = g[2][0] has the smaller
    norm.  Against c, n(z, x) reduces b and then the real-direction part of
    a; against a, the transposed step reduces b and then c."""
    a, b, c = g.entry(0, 0), g.entry(1, 0), g.entry(2, 0)
    na, nc = a.norm(), c.norm()
    if na == nc:
        raise AssertionError("first-column norms can never be equal here")
    transpose = na < nc
    if transpose:
        pivot, n_pivot, row, make = a, na, 2, make_n_transpose
    else:
        pivot, n_pivot, row, make = c, nc, 0, make_n
    assert n_pivot > 0
    w = nearest_lattice_point(b * pivot.conj() * SQRT_MINUS3, 3 * n_pivot)
    z = w if transpose else w.conj()
    x0 = z.norm() % 2
    # row `row` of make(z, x0) is (1, sqrt(-3) z, corner) or (corner,
    # sqrt(-3) conj(z), 1)
    corner = n_corner(z, x0)
    if transpose:
        reduced = corner * a + SQRT_MINUS3 * z.conj() * b + c
    else:
        reduced = a + SQRT_MINUS3 * z * b + corner * c
    x = x0 - 2 * _rounded_half((reduced * pivot.conj()).b, n_pivot)
    result = make(z, x) * g
    assert result.entry(1, 0).norm() <= n_pivot
    assert result.entry(row, 0).norm() <= n_pivot
    height = first_column_height(result)
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


def decompose(g: GroupMatrix) -> Word:
    """A word in n1..n5 evaluating to g.

    Raises ValueError when g is not in the group (level sqrt(-3), corner
    entry 1 mod 3).  The returned word is re-evaluated against g, so a
    wrong answer is impossible.
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
        step = (unipotent_transpose_word if transpose else unipotent_word)(rz, rx)
        letters.extend((i, -s) for i, s in reversed(step.letters))
    letters.extend(unipotent_word(z, x).letters)
    word = Word(letters)
    if evaluate_word(word, generators_upsilon()) != g:
        raise AssertionError("decomposition failed verification")
    return word
