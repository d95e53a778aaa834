"""Constructive membership: write a group element as a word in n1..n5.

The height of g is N(a) + N(c), where (a, b, c) is the first column.  One
descent step multiplies g on the left by a unipotent element (or a
transposed one) chosen via a nearest-lattice-point computation, and strictly
decreases the height; height 1 forces g upper unipotent, which is read off
directly.  The descent computes on g's 18 int coordinates throughout.
decompose builds one Word from the letters of all steps and checks it by
multiplying it out, a memoized chunk of letters of one triangularity at a time.
"""

from __future__ import annotations

from functools import lru_cache

from .fpgroup import Word
from .matgroup import (
    GENERATOR_NAMES, IDENTITY, GroupMatrix, _first_column, _reversed_rows,
    _times, _unitriangular_factors, _upper_times, generators_upsilon, in_upsilon, make_n,
)

# n2^t expressed in n1..n5; every multiplier word below factors through this.
N2_TRANSPOSE_WORD = Word.from_string("n3^-1 n1 n4 n1 n3^-2 n2", GENERATOR_NAMES)

# Letters per chunk of the word check: its memo holds at most the 936 upper
# and 160 lower reduced words of 1 to 4 letters.
CHUNK = 4
# n1..n5 and n2^t, each as (its letters, its inverse's letters)
_N1, _N2, _N3, _N4, _N5 = ((((i, 1),), ((i, -1),)) for i in range(5))
_N2T = (N2_TRANSPOSE_WORD.letters, N2_TRANSPOSE_WORD.inverse().letters)


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
    p0, q0 = a // den, b // den
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


def _n3_exponent(p: int, q: int, x: int) -> int:
    """k = (x - p - q - 3pq)/2 for z = p + q*zeta, whole when x = N(z) mod 2."""
    numerator = x - p - q - 3 * p * q
    if numerator % 2:
        raise ValueError("x must have the parity of N(z)")
    return numerator // 2


def _append_powers(letters: list, *powers) -> None:
    """Append base^exponent to letters for each (base, exponent)."""
    for (forward, backward), exponent in powers:
        letters.extend((forward if exponent > 0 else backward) * abs(exponent))


def _inverse_letters(letters: list, p: int, q: int, x: int) -> None:
    """Append the letters of n(z, x)^-1 = n3^-k n2^-q n1^-p, the inverse of
    n(z, x) = n1^p n2^q n3^k, z = p + q*zeta and k as in _n3_exponent."""
    _append_powers(letters, (_N3, -_n3_exponent(p, q, x)), (_N2, -q), (_N1, -p))


def _transpose_inverse_letters(letters: list, p: int, q: int, x: int) -> None:
    """Append the letters of (n(z, x)^t)^-1 = n4^-p (n2^t)^-q n5^-k, as
    transposing n1^p n2^q n3^k gives n5^k (n2^t)^q n4^p."""
    _append_powers(letters, (_N4, -p), (_N2T, -q), (_N5, -_n3_exponent(p, q, x)))


def _rounded_half(u: int, n: int) -> int:
    """The integer nearest to u / (2n) for n > 0, ties toward the smaller
    one: ceil(u/(2n) - 1/2) = -floor((n - u)/(2n))."""
    return -((n - u) // (2 * n))


def _descend_step(s: tuple):
    """One height-reduction step on the coordinates s of g: returns
    ((p, q, x, transpose), the coordinates of m*g, their height), where m
    is n(z, x) or its transpose and z = p + q*zeta.  The pivot is whichever
    of a = g[0][0] and c = g[2][0] has the smaller norm.  Against c,
    n(z, x) reduces b and then the real-direction part of a; against a,
    the transposed step reduces b and then c.  A broken invariant raises
    AssertionError naming its inequality, also under python -O."""
    a0, a1, b0, b1, c0, c1 = _first_column(s)
    na, nc = _norm(a0, a1), _norm(c0, c1)
    if na == nc:
        raise AssertionError("first-column norms can never be equal here")
    transpose = na < nc
    p0, p1, o0, o1, n_pivot = (a0, a1, c0, c1, na) if transpose else (c0, c1, a0, a1, nc)
    if n_pivot <= 0:
        raise AssertionError("descent invariant failed: N(pivot) > 0")
    # b * conj(pivot), with conj(p0 + p1*zeta) = (p0 - p1) - p1*zeta, then
    # times sqrt(-3) = 1 + 2*zeta
    u, v = b0 * p0 - b0 * p1 + b1 * p1, b1 * p0 - b0 * p1
    w0, w1 = nearest_lattice_point(u - 2 * v, 2 * u - v, 3 * n_pivot)
    zp, zq = (w0, w1) if transpose else (w0 - w1, -w1)
    nz = _norm(zp, zq)
    x0 = nz % 2
    # sqrt(-3) z = d + w*zeta, sqrt(-3) conj(z) = e + w*zeta (see make_n);
    # the reduced entry is row 0 of n(z, x0), (1, sqrt(-3) z, corner), or
    # row 2 of its transpose, (corner, sqrt(-3) conj(z), 1), times column 0
    d, e, w = zp - 2 * zq, zp + zq, 2 * zp - zq
    near, far = (e, d) if transpose else (d, e)
    k0, k1 = _times((x0 - 3 * nz) // 2, x0, p0, p1)
    m0, m1 = _times(near, w, b0, b1)
    r0, r1 = k0 + m0 + o0, k1 + m1 + o1
    # r1*p0 - r0*p1 is the zeta-coordinate of reduced * conj(pivot)
    x = x0 - 2 * _rounded_half(r1 * p0 - r0 * p1, n_pivot)
    # u01, u02 and u12 of m, or of J m J: near, the corner (see n_corner), far
    s = _upper_times(near, w, (x - 3 * nz) // 2, x, far, w, _reversed_rows(s) if transpose else s)
    s = _reversed_rows(s) if transpose else s
    e0, e1, f0, f1, h0, h1 = _first_column(s)
    n_top, n_bottom = _norm(e0, e1), _norm(h0, h1)
    if _norm(f0, f1) > n_pivot:
        raise AssertionError("descent invariant failed: N(b') <= N(pivot)")
    if (n_bottom if transpose else n_top) > n_pivot:
        raise AssertionError("descent invariant failed: N(reduced entry) <= N(pivot)")
    height = n_top + n_bottom
    if height >= na + nc:
        raise AssertionError("descent invariant failed: N(a') + N(c') < N(a) + N(c)")
    return (zp, zq, x, transpose), s, height


def _base_case_parameters(s: tuple):
    """Read (p, q, x) off the coordinates s of a height-1 element, which is
    exactly n(z, x) with z = p + q*zeta: entry (0, 1) is sqrt(-3) z =
    (p - 2q) + (2p - q)*zeta (see make_n), and x is the zeta-coordinate of
    the corner (see n_corner)."""
    a, b, x = s[2], s[3], s[5]
    if (a + b) % 3:
        raise AssertionError("descent invariant failed: sqrt(-3) divides entry (0, 1)")
    p, q = (2 * b - a) // 3, (b - 2 * a) // 3
    if s != make_n(p, q, x).coords:
        raise AssertionError("height-1 element is not upper unipotent")
    return p, q, x


@lru_cache(maxsize=None)
def _letter_factors() -> dict:
    """(upper, six ints, the letter) of each letter, as _unitriangular_factors
    gives them for its matrix, built once per process."""
    return {(i, s): (*_unitriangular_factors(m), (i, s))
            for i, n in enumerate(generators_upsilon()) for s, m in ((1, n), (-1, n.inverse()))}


# a chunk of letters -> the six ints _upper_times takes for their product
_CHUNK_FACTORS = {}


def _word_coords(letters: tuple) -> tuple:
    """The coordinates of the letters' product P, from the last letter a
    chunk at a time: each maximal run of one triangularity is cut from its
    right end into chunks of at most CHUNK letters.  While lower letters
    act, P is held as J * P (rows reversed), on which J u J is upper.  A
    chunk's product is memoized, computed letter by letter on its first use
    and keyed by the table's own letter pairs, so no word's letters stay
    alive."""
    table = _letter_factors()
    s, flipped, end = IDENTITY.coords, False, len(letters)
    while end:
        upper = table[letters[end - 1]][0]
        start, stop = end - 1, max(end - CHUNK, 0)
        while start > stop and table[letters[start - 1]][0] == upper:
            start -= 1
        chunk = letters[start:end]
        factors = _CHUNK_FACTORS.get(chunk)
        if factors is None:
            c = IDENTITY.coords
            for letter in reversed(chunk):
                c = _upper_times(*table[letter][1], c)
            factors = c[2], c[3], c[4], c[5], c[10], c[11]
            _CHUNK_FACTORS[tuple(table[letter][2] for letter in chunk)] = factors
        if upper == flipped:
            s, flipped = _reversed_rows(s), not flipped
        s = _upper_times(*factors, s)
        end = start
    return _reversed_rows(s) if flipped else s


def decompose(g: GroupMatrix) -> Word:
    """A word in n1..n5 evaluating to g.

    Raises ValueError when g is not in the group (level sqrt(-3) and
    top-left entry 1 mod 3, as in_upsilon tests).  The returned word is
    re-evaluated against g by _word_coords, so a wrong answer is impossible.
    """
    if not in_upsilon(g):
        raise ValueError("matrix is not in the five-generator unipotent group")
    letters, s, height = [], g.coords, first_column_height(g)
    while height > 1:
        (p, q, x, transpose), s, height = _descend_step(s)
        (_transpose_inverse_letters if transpose else _inverse_letters)(letters, p, q, x)
    p, q, x = _base_case_parameters(s)
    _append_powers(letters, (_N1, p), (_N2, q), (_N3, _n3_exponent(p, q, x)))
    word = Word(letters)
    if _word_coords(word.letters) != g.coords:
        raise AssertionError("decomposition failed verification")
    return word
