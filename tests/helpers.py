"""Shared test utilities: seeded random sampling and independent oracles."""

import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, gcd

import pytest

from su21 import weightdenom, zlinalg
from su21.fpgroup import (
    CosetGraph,
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    evaluate_word,
    gamma_sqrt3_presentation,
    upsilon_presentation,
)
from su21.gendecomp import _inverse_letters, _letter_factors, _transpose_inverse_letters
from su21.matgroup import (
    IDENTITY,
    F_map,
    GroupMatrix,
    SubgroupSpec,
    _group_matrix,
    _reversed_rows,
    _unitriangular_factors,
    _upper_times,
    all_index3_vectors,
    generators_upsilon,
    in_gamma_sqrt3,
    in_upsilon,
    make_n,
    n_corner,
)
from su21.value import Value
from su21.zlinalg import hermite_normal_form, last_coordinate_order_of_hnf


# --- reference Eisenstein arithmetic -------------------------------------------
#
# The package holds an Eisenstein integer a + b*zeta as the int pair (a, b)
# and multiplies pairs inline; this class writes the ring once, with exact
# division, as the oracle of that coordinate arithmetic.


class NotDivisibleError(ValueError):
    """Raised by div_exact when the divisor does not divide the dividend."""


class EisensteinInt(Value):
    """The Eisenstein integer a + b*zeta, zeta^2 = -1 - zeta; an int operand
    of +, - and * is read as a + 0*zeta."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        other = _coerce(other)
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_coerce(other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conj(self) -> "EisensteinInt":
        """Complex conjugate: conj(zeta) = zeta^2 = -1 - zeta."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """z * conj(z) = a^2 - a*b + b^2, a nonnegative rational integer."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def div_exact(self, w) -> "EisensteinInt":
        """Exact quotient self / w; raises NotDivisibleError if w does not divide."""
        w = _coerce(w)
        n = w.norm()
        if n == 0:
            raise NotDivisibleError("division by zero")
        zc = self * w.conj()
        qa, ra = divmod(zc.a, n)
        qb, rb = divmod(zc.b, n)
        if ra or rb:
            raise NotDivisibleError("%r is not divisible by %r" % (self, w))
        return EisensteinInt(qa, qb)

    def pair(self) -> tuple:
        """(a, b), the form the package takes and gives an entry in."""
        return self.a, self.b


def _coerce(value):
    return value if isinstance(value, EisensteinInt) else EisensteinInt(value, 0)


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
ZETA = EisensteinInt(0, 1)
SQRT_MINUS3 = EisensteinInt(1, 2)


def entries_of(g):
    """g's rows as 3-tuples of EisensteinInt."""
    return tuple(tuple(EisensteinInt(*e) for e in row) for row in g.entries)


def matrix_of(rows):
    """The GroupMatrix with these EisensteinInt (or int) entries."""
    return GroupMatrix([[_coerce(e).pair() for e in row] for row in rows])


def scaled(g, scalar):
    """The scalar multiple scalar * g, scalar an EisensteinInt or int."""
    return matrix_of([[scalar * e for e in row] for row in entries_of(g)])


GENERATORS = generators_upsilon()


def random_word(rng, max_len, n_gens=5, min_len=1):
    length = rng.randrange(min_len, max_len + 1)
    return Word(
        [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(length)]
    )


def random_upsilon_element(rng, max_len, min_len=1):
    return evaluate_word(random_word(rng, max_len, min_len=min_len), GENERATORS)


def random_eisenstein(rng, bound=50):
    return EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def cyclic_shift(word, k):
    """The word rotated left by k letters (a conjugate of the original)."""
    if not word.letters:
        return word
    k %= len(word.letters)
    return Word(word.letters[k:] + word.letters[:k])


def exponent_sums(word, generator_count):
    """The exponent sum of each generator in word, as a list."""
    row = [0] * generator_count
    for i, s in word.letters:
        if i >= generator_count:
            raise ValueError("generator index %d out of range" % i)
        row[i] += s
    return row


def divided_f_coordinates(g):
    """F_map's four coordinates by dividing each off-corner entry
    (g12, g13, g21, g31) by sqrt(-3) and reducing the quotient a + b*zeta
    mod sqrt(-3) to (a + b) mod 3, as zeta = 1 mod sqrt(-3); no membership
    check."""
    coords = (g[0][1], g[0][2], g[1][0], g[2][0])
    return tuple(
        (q.a + q.b) % 3 for q in (EisensteinInt(*c).div_exact(SQRT_MINUS3) for c in coords)
    )


def divided_n_corner(z, x):
    """The corner (-3*N(z) + x*sqrt(-3)) / 2 of n(z, x) by EisensteinInt
    arithmetic and exact division by 2 (raises NotDivisibleError, a
    ValueError, when x and N(z) differ in parity)."""
    numerator = EisensteinInt(-3 * z.norm(), 0) + EisensteinInt(x, 0) * SQRT_MINUS3
    return numerator.div_exact(EisensteinInt(2, 0))


def central_commutator_witness():
    """A 40-letter identity word whose lift has integer part -1: the product
    r4^-1 r9^-1 r10^-1 r11 of presentation relators, which concatenates with
    no free cancellation and has exponent sum zero in every generator."""
    relators = upsilon_presentation().relators
    r4, r9, r10, r11 = relators[3], relators[8], relators[9], relators[10]
    return r4.inverse() * r9.inverse() * r10.inverse() * r11


def order_of_last_coordinate(rows, cols):
    """Order of the last standard basis vector in Z^cols / (span of the
    rows, each of cols ints), or None when that order is infinite."""
    if cols == 0:
        raise ValueError("no columns")
    return last_coordinate_order_of_hnf(hermite_normal_form(rows))


def divides(w, z):
    """Whether the Eisenstein integer w divides z: z * conj(w) reduced mod
    N(w), which is zero exactly when z / w = z * conj(w) / N(w) is integral."""
    n = w.norm()
    if n == 0:
        return z.is_zero()
    zc = z * w.conj()
    return zc.a % n == 0 and zc.b % n == 0


def in_gamma_beta(g, beta):
    """Membership in the principal congruence subgroup of level beta, an
    Eisenstein integer or int: g = I mod beta, unitary, det 1.  Each entry
    is tested by divides, so it shares no code with the residue rule of
    in_gamma_sqrt3 or with the coset key."""
    beta = _coerce(beta)
    e = entries_of(g)
    for i in range(3):
        for j in range(3):
            if not divides(beta, e[i][j] - (1 if i == j else 0)):
                return False
    return g.det() == (1, 0) and reference_is_unitary(g)


def in_index3(g, v):
    """Whether v . F_map(g) = 0 in F_3."""
    return in_row_kernel(g, (v,))


def in_row_kernel(g, rows):
    """Whether v . F_map(g) = 0 in F_3 for every row v."""
    f = F_map(g)
    return all(sum(int(vi) * fi for vi, fi in zip(v, f)) % 3 == 0 for v in rows)


@lru_cache(maxsize=None)
def lattice_specs():
    """The specs of all groups between Gamma(3) and upsilon, grown from
    upsilon by adding one index-3 row at a time, sorted by index and rows."""
    found = {SubgroupSpec(())}
    frontier = found
    while frontier:
        grown = {SubgroupSpec(s.rows + (v,)) for s in frontier for v in all_index3_vectors()}
        frontier = grown - found
        found |= frontier
    return tuple(sorted(found, key=lambda s: (len(s.rows), s.rows)))


def lattice_sample():
    """upsilon, the 40 index-3 groups and a seeded sample of the 130
    index-9 and 40 index-27 groups."""
    by_index = {}
    for spec in lattice_specs():
        by_index.setdefault(spec.index_in_upsilon(), []).append(spec)
    rng = random.Random(9)
    return (
        by_index[1] + by_index[3] + rng.sample(by_index[9], 8) + rng.sample(by_index[27], 5)
    )


# --- the symmetries of upsilon ------------------------------------------------
#
# Three maps send upsilon to itself and so permute the 212 lattice groups:
# conjugation by -J (entry (i, j) of -J g (-J)^-1 is g[2 - i][2 - j]),
# conjugation by diag(-1, 1, -1) (entries in row or column 1, but not both,
# change sign) and entrywise Galois conjugation a + b*zeta -> (a - b) - b*zeta.
# Each lifts to the universal cover and sends z to +-z, so the report of a
# group and of its image agree.

SYMMETRIES = {
    "conjugation by -J": lambda g: GroupMatrix(
        [[g[2 - i][2 - j] for j in range(3)] for i in range(3)]
    ),
    "conjugation by diag(-1, 1, -1)": lambda g: matrix_of(
        [[x if i % 2 == j % 2 else -x for j, x in enumerate(row)]
         for i, row in enumerate(entries_of(g))]
    ),
    "Galois conjugation": lambda g: matrix_of([[x.conj() for x in e] for e in entries_of(g)]),
}


def symmetry_on_f(phi):
    """The 4x4 matrix A over F_3 with F_map(phi(g)) = A . F_map(g), read off
    the five generators; F_map raises unless phi sends each into upsilon.
    Each row of A is the one vector of F_3^4 that fits all five, as their
    F images span F_3^4; the unpacking fails if phi is not linear on them."""
    images = [F_map(g) for g in GENERATORS]
    mapped = [F_map(phi(g)) for g in GENERATORS]
    matrix = []
    for i in range(4):
        (row,) = [
            a
            for a in product(range(3), repeat=4)
            if all(sum(x * y for x, y in zip(a, f)) % 3 == m[i] for f, m in zip(images, mapped))
        ]
        matrix.append(row)
    return matrix


def preimage_spec(spec, matrix):
    """The spec of {g : phi(g) in H} for the group H of spec, where matrix
    is symmetry_on_f(phi): the rows v of H become v . matrix."""
    columns = list(zip(*matrix))
    return SubgroupSpec(
        tuple(tuple(sum(x * y for x, y in zip(v, c)) % 3 for c in columns) for v in spec.rows)
    )


# --- reference GroupMatrix arithmetic -------------------------------------
#
# Matrix products as sums of EisensteinInt products, the inverse and the
# unitarity test written with them as J * conj(g)^t * J and
# conj(g)^t * J * g = J, and the determinant by cofactors over EisensteinInt.
# GroupMatrix's integer-coordinate kernels are checked against these; they
# never call GroupMatrix.__mul__ or det.

# the antidiagonal Hermitian form that defines the group
J = matrix_of([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def reference_product(g, h):
    g, h = entries_of(g), entries_of(h)
    return matrix_of(
        [
            [g[i][0] * h[0][j] + g[i][1] * h[1][j] + g[i][2] * h[2][j] for j in range(3)]
            for i in range(3)
        ]
    )


def reference_det(g):
    e = entries_of(g)
    return (
        e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
        - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
        + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
    )


def conj_transpose(g):
    e = entries_of(g)
    return matrix_of([[e[j][i].conj() for j in range(3)] for i in range(3)])


def reference_inverse(g):
    return reference_product(reference_product(J, conj_transpose(g)), J)


def reference_is_unitary(g):
    return reference_product(reference_product(conj_transpose(g), J), g) == J


# --- independent integer-lattice membership oracle -------------------------
#
# Maintains an echelon basis keyed by leading column, built with extended-gcd
# row combinations (each insertion is unimodular, so the spanned lattice never
# changes).  Membership testing reduces a vector by exact division against
# the basis.  This shares no code with the package's normal-form kernels.


def _extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class LatticeOracle:
    def __init__(self, rows, cols):
        self.cols = cols
        self.basis = {}
        for row in rows:
            self._insert(list(row))

    def _insert(self, row):
        for col in range(self.cols):
            if row[col] == 0:
                continue
            pivot = self.basis.get(col)
            if pivot is None:
                if row[col] < 0:
                    row = [-x for x in row]
                self.basis[col] = row
                return
            g, u, v = _extended_gcd(pivot[col], row[col])
            merged = [u * x + v * y for x, y in zip(pivot, row)]
            reduced = [
                (pivot[col] // g) * y - (row[col] // g) * x
                for x, y in zip(pivot, row)
            ]
            self.basis[col] = merged
            row = reduced
        # fully reduced to zero: nothing to insert

    def contains(self, vector):
        vector = list(vector)
        for col in range(self.cols):
            if vector[col] == 0:
                continue
            pivot = self.basis.get(col)
            if pivot is None or vector[col] % pivot[col]:
                return False
            q = vector[col] // pivot[col]
            vector = [x - q * y for x, y in zip(vector, pivot)]
        return True


def lattices_equal(rows_a, rows_b, cols):
    a = LatticeOracle(rows_a, cols)
    b = LatticeOracle(rows_b, cols)
    return all(a.contains(r) for r in rows_b) and all(
        b.contains(r) for r in rows_a
    )


# --- determinant / minor-gcd oracle for Smith normal forms ------------------


def determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    first = rows[0]
    rest = rows[1:]
    for j in range(n):
        if first[j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        term = first[j] * determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def minor_gcd(rows, cols, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    m = len(rows)
    value = 0
    for row_idx in combinations(range(m), k):
        for col_idx in combinations(range(cols), k):
            sub = [[rows[r][c] for c in col_idx] for r in row_idx]
            value = gcd(value, determinant(sub))
    return value


def smith_via_minor_gcds(rows, cols):
    """Invariant factors from d_1 * ... * d_k = gcd of k x k minors."""
    k = min(len(rows), cols)
    diagonal = []
    previous = 1
    for t in range(1, k + 1):
        g = minor_gcd(rows, cols, t)
        if g == 0 or previous == 0:
            diagonal.append(0)
            previous = 0
        else:
            diagonal.append(g // previous)
            previous = g
    return diagonal


def random_matrix_rows(rng, max_dim=5, bound=40):
    m = rng.randrange(1, max_dim + 1)
    n = rng.randrange(1, max_dim + 1)
    density = rng.choice((0.3, 0.7, 1.0))
    rows = [
        [
            rng.randint(-bound, bound) if rng.random() < density else 0
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    return rows, n


# --- rational oracles for the integer descent in su21.gendecomp ------------


def frac_norm(x: Fraction, y: Fraction) -> Fraction:
    return x * x - x * y + y * y


def window_nearest_lattice_point(num, den):
    """The Eisenstein integer nearest to num / den, searched with rational
    norms.  Any nearest point has both coordinates within 2/3 of the
    target's, so a 4 x 4 window around the coordinate floors contains every
    minimizer; ties are broken by lexicographically smallest (trace,
    zeta-coordinate)."""
    x = Fraction(num.a, den)
    y = Fraction(num.b, den)
    p0 = floor(x)
    q0 = floor(y)
    window = (
        EisensteinInt(p0 + dp, q0 + dq) for dp in (-1, 0, 1, 2) for dq in (-1, 0, 1, 2)
    )
    return min(window, key=lambda w: (frac_norm(x - w.a, y - w.b), 2 * w.a - w.b, w.b))


def fraction_rounded_half(u, n):
    """Nearest integer to (u/n)/2, ties toward the smaller, in Fraction."""
    return ceil(Fraction(u, n) / 2 - Fraction(1, 2))


def reference_descend_step(g):
    """One descent step in EisensteinInt arithmetic, the oracle of
    gendecomp's integer step: ((z, x, transpose), m*g, height of m*g), with
    the nearest lattice point from the rational window search and the x
    rounding in Fraction."""
    a, b, c = (EisensteinInt(*g.entry(i, 0)) for i in range(3))
    na, nc = a.norm(), c.norm()
    if na == nc:
        raise AssertionError("first-column norms can never be equal here")
    transpose = na < nc
    if transpose:
        pivot, n_pivot, row, make = a, na, 2, make_n_transpose
    else:
        pivot, n_pivot, row, make = c, nc, 0, make_n
    assert n_pivot > 0
    w = window_nearest_lattice_point(b * pivot.conj() * SQRT_MINUS3, 3 * n_pivot)
    z = w if transpose else w.conj()
    x0 = z.norm() % 2
    # row `row` of make(z, x0) is (1, sqrt(-3) z, corner) or (corner,
    # sqrt(-3) conj(z), 1)
    corner = EisensteinInt(*n_corner(z.a, z.b, x0))
    if transpose:
        reduced = corner * a + SQRT_MINUS3 * z.conj() * b + c
    else:
        reduced = a + SQRT_MINUS3 * z * b + corner * c
    x = x0 - 2 * fraction_rounded_half((reduced * pivot.conj()).b, n_pivot)
    result = make(z.a, z.b, x) * g
    column = [EisensteinInt(*result.entry(i, 0)).norm() for i in range(3)]
    assert column[1] <= n_pivot
    assert column[row] <= n_pivot
    height = column[0] + column[2]
    assert height < na + nc
    return (z, x, transpose), result, height


def unipotent_word(p, q, x):
    """n(z, x), z = p + q*zeta, as a Word: the inverse of the letters
    decompose writes for n(z, x)^-1."""
    letters = []
    _inverse_letters(letters, p, q, x)
    return Word(letters).inverse()


def unipotent_transpose_word(p, q, x):
    """n(z, x)^t, z = p + q*zeta, as a Word: the inverse of the letters
    decompose writes for (n(z, x)^t)^-1."""
    letters = []
    _transpose_inverse_letters(letters, p, q, x)
    return Word(letters).inverse()


def make_n_transpose(p, q, x):
    """The transpose of make_n(p, q, x)."""
    return make_n(p, q, x).transpose()


def unitriangular_times(u, g):
    """u * g for a unitriangular u, upper or lower, through the kernel
    matgroup._upper_times, 9 products of entries where u * g makes 27.  A
    lower u goes through the upper body as J * (J u J) * (J * g), since
    J^2 = I and J u J (entry (i, j) is u[2 - i][2 - j]) is upper.  Raises
    ValueError for any other u."""
    upper, factors = _unitriangular_factors(u)
    if upper:
        return _group_matrix(_upper_times(*factors, g.coords))
    return _group_matrix(_reversed_rows(_upper_times(*factors, _reversed_rows(g.coords))))


def letterwise_word_coords(letters):
    """The coordinates of the letters' product P, one letter at a time from
    the last, the oracle of gendecomp's chunked word check: while lower
    letters u act, P is held as J * P (rows reversed), on which J u J is
    upper."""
    table = _letter_factors()
    s, flipped = IDENTITY.coords, False
    for letter in reversed(letters):
        upper, factors, _ = table[letter]
        if upper == flipped:
            s, flipped = _reversed_rows(s), not flipped
        s = _upper_times(*factors, s)
    return _reversed_rows(s) if flipped else s


def founding_edges(graph):
    """{w: (v, (generator, sign))} for every coset w > 0: the first edge in
    the graph's (breadth-first) edge order that reaches w, which is the
    spanning-tree edge the enumeration founded w by."""
    founded = {}
    for (vi, letter), wj in graph.edges.items():
        if wj and wj not in founded:
            founded[wj] = (vi, letter)
    return founded


def schreier_edges(graph):
    """The positive edges (v, generator) off the spanning tree, in the
    order of the Reidemeister-Schreier generators."""
    tree = {
        (vi, gi) if sign == 1 else (wj, gi)
        for wj, (vi, (gi, sign)) in founding_edges(graph).items()
    }
    return [
        (vi, gi)
        for vi in range(graph.index)
        for gi in range(graph.generator_count)
        if (vi, gi) not in tree
    ]


def trace_words(ambient, graph):
    """Every ambient relator traced from every coset of the graph as a word
    in the Schreier generators, numbered as schreier_edges lists them, in
    (relator, coset) order; empty traces are kept."""
    symbol_of = {edge: k for k, edge in enumerate(schreier_edges(graph))}
    words = []
    for rel in ambient.relators:
        for vi in range(graph.index):
            letters = []
            current = vi
            for gi, sign in rel.letters:
                previous = current
                current = graph.steps[(gi, sign)][current]
                edge = (previous, gi) if sign == 1 else (current, gi)
                if edge in symbol_of:
                    letters.append((symbol_of[edge], sign))
            assert current == vi, "trace from coset %d did not close up" % vi
            words.append(Word(letters))
    return words


# --- dense relation matrix oracle --------------------------------------------
#
# The relation matrix the package built before Reidemeister-Schreier traced
# relators straight into sparse rows: one dense row per relator word, its
# exponent sums followed by -n for the relator's lift (I, n).


def relation_matrix(presentation):
    """The rows of the s x (r+1) abelianized relation matrix of the
    centrally extended group, as int tuples: one row per relator, columns =
    generator exponent sums plus the z-coefficient -n, where (I, n) is the
    relator's lift, read from the presentation's central parts."""
    r = presentation.generator_count
    return [
        tuple(exponent_sums(relator, r) + [-n])
        for relator, n in zip(presentation.relators, presentation.central)
    ]


def sparse_rows(rows):
    """Dense rows as the {column: nonzero entry} dicts the elimination takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def rescanning_elimination(rows, cols, events=None, held=(), kept_out=None, width_out=None):
    """Unit-pivot elimination as zlinalg._eliminate defines it, on the rows
    whose indices are not in held, written the direct way: every round
    costs every such row afresh, scans them in order and takes each row's
    cheapest unit pivot within the round's limit, substituting into the
    other such rows in index order; a round that takes none raises the
    limit by one step of 0, 1, 3, 7, ...  The rows are consumed.  A given
    events Counter counts the substitutions that empty a target row
    ("emptied"), the entries filled in again after cancelling to 0
    ("refilled") and the rounds that take nothing after a round that took
    pivots and defer a row after that round's last pivot ("deferred past
    the last pivot"); a given kept_out list receives the kept columns, and
    a given width_out list the field width that per_row_width gives.
    Returns (dense_rows, kept_cols): the nonzero rows in input order, which
    distinct_up_to_sign makes the rows that zlinalg._eliminate returns.

    Each held row is then rewritten by forward substitution, where the
    package back-substitutes: the pivot rows, kept as they were when taken,
    are subtracted from it in the order taken, each the multiple that
    clears its pivot column."""
    last = cols - 1
    holders = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        if i not in held:
            for c in row:
                holders[c].add(i)
    eliminated = set()
    pivots = []
    cancelled = set()
    limit = 0
    previous = None  # the last pivot row of the last round, if it took any
    while True:
        taken = None  # the last pivot row of this round
        deferred = []
        for i, row in enumerate(rows):
            if i in held:
                continue
            costs = [
                ((len(row) - 1) * (len(holders[c]) - 1), c)
                for c, v in row.items()
                if c != last and (v == 1 or v == -1)
            ]
            if not costs:
                continue
            cost, col = min(costs)
            if cost > limit:
                deferred.append(i)
                continue
            sign = row[col]
            for k in sorted(holders[col] - {i}):
                other = rows[k]
                factor = other[col] * sign
                for c, v in row.items():
                    value = other.get(c, 0) - factor * v
                    if value:
                        if events is not None and c not in other and (k, c) in cancelled:
                            events["refilled"] += 1
                        other[c] = value
                        holders[c].add(k)
                    else:
                        del other[c]
                        holders[c].discard(k)
                        cancelled.add((k, c))
                if events is not None and not other:
                    events["emptied"] += 1
            for c in row:
                holders[c].discard(i)
            rows[i] = {}
            eliminated.add(col)
            pivots.append((col, sign, row))
            taken = i
        if taken is None:
            past = previous is not None and previous < max(deferred, default=-1)
            if events is not None and past:
                events["deferred past the last pivot"] += 1
            if not deferred:
                break
            limit = 2 * limit + 1
        previous = taken
    kept = [c for c in range(cols) if c not in eliminated]
    if width_out is not None:
        width_out.append(per_row_width(rows, pivots, kept))
    for col, sign, row in pivots:
        for other in (rows[i] for i in held):
            factor = other.get(col, 0) * sign
            for c, v in row.items():
                other[c] = other.get(c, 0) - factor * v
    if kept_out is not None:
        kept_out.extend(kept)
    dense = [tuple(row.get(c, 0) for c in kept) for row in rows]
    return [row for row in dense if any(row)], len(kept)


def per_row_width(rows, pivots, kept):
    """The least field width that a bound for each row gives, for the rows
    as elimination leaves them, held-back rows not yet rewritten, over the
    pivots (col, sign, row) taken, each row as it was when taken: every
    coordinate of a rewritten row is at most the row's sum of |v| *
    bound[c], bound being 1 on a kept column and that sum over its pivot
    row, its pivot left out, on a pivot column.  So the largest sum, with a
    sign bit, is wide enough; zlinalg._eliminate's field is at least as
    wide, as it bounds every row by the largest row norm times the largest
    bound."""
    bound = dict.fromkeys(kept, 1)
    for col, _, row in reversed(pivots):
        bound[col] = sum(abs(v) * bound[c] for c, v in row.items() if c != col)
    sizes = [sum(abs(v) * bound[c] for c, v in row.items()) for row in rows]
    return max(sizes, default=0).bit_length() + 1


def distinct_up_to_sign(rows):
    """Each of the nonzero rows once up to sign, in order of first
    occurrence, as the int tuple whose last nonzero entry is positive."""
    return list(dict.fromkeys(
        tuple(row) if next(v for v in reversed(row) if v) > 0 else tuple(-v for v in row)
        for row in rows
    ))


def ambient_of(spec):
    """(ambient presentation, index in it) of spec: gamma_sqrt3's own
    presentation and 1 for gamma_sqrt3, else upsilon's and 3^rank."""
    if spec.rows is None:
        return gamma_sqrt3_presentation(), 1
    return upsilon_presentation(), spec.index_in_upsilon()


def all_rows_report(spec, rows, generator_count, graph):
    """The report of weight_denominator on all the relation rows of spec:
    every relator traced from every coset, expanded by all_coset_rows from
    the rows, one per orbit, that reidemeister_schreier returns with
    generator_count and graph, and no row held back.  That is one
    elimination over every row, as the pipeline ran before it held rows
    back and traced each relator once per orbit of its root.  The rows are
    not consumed."""

    def every_row(rows, cols):
        return zlinalg._eliminate(rows, cols, ())

    ambient, index = ambient_of(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weightdenom, "eliminate_unit_pivots", every_row)
        report = weightdenom.weight_denominator(
            all_coset_rows(ambient, graph, rows), generator_count + 1
        )
    return report._replace(
        group=spec.name(), index_in_upsilon=None if spec.rows is None else index
    )


def shortest_root(word):
    """The shortest word w with word = w^k for some k >= 1, by brute force:
    the first m letters for the least m >= 1 whose cyclic rotation leaves
    the letters as they are (such an m divides their number); the empty
    word is its own root."""
    letters = word.letters
    n = len(letters)
    m = next((m for m in range(1, n) if letters[m:] + letters[:m] == letters), n)
    return Word(letters[:m])


def root_codes(word):
    """(codes, k) as Presentation.roots holds the root w = shortest_root(word)
    with w^k = word: each letter (generator, sign) of w is coded 2 * generator
    for sign 1 and 2 * generator + 1 for sign -1."""
    root = shortest_root(word).letters
    codes = tuple(2 * gi + (0 if sign == 1 else 1) for gi, sign in root)
    return codes, len(word) // len(root) if root else 1


def root_orbits(graph, root):
    """For each coset of the graph, the number of its orbit under the word
    root, the orbits numbered in order of their least cosets."""
    orbit_of = [None] * graph.index
    orbits = 0
    for vi in range(graph.index):
        if orbit_of[vi] is not None:
            continue
        current = vi
        while orbit_of[current] is None:
            orbit_of[current] = orbits
            for letter in root.letters:
                current = graph.steps[letter][current]
        assert current == vi, "the root does not permute the cosets"
        orbits += 1
    return orbit_of


def all_coset_rows(ambient, graph, rows):
    """Every ambient relator's row from every coset, in (relator, coset)
    order, from rows as reidemeister_schreier returns them: for relator k,
    the row rows[k][o] of orbit o of the relator's shortest root, copied
    once for each coset of that orbit."""
    expanded = []
    for relator, traced in zip(ambient.relators, rows, strict=True):
        orbit_of = root_orbits(graph, shortest_root(relator))
        assert len(traced) == len(set(orbit_of)), "not one row per orbit"
        expanded += [dict(traced[o]) for o in orbit_of]
    return expanded


# --- keyed Reidemeister-Schreier oracle ----------------------------------------
#
# The enumeration the package ran before it enumerated cosets on the spec's
# finite action.  It walks coset representatives as matrices, finds the
# coset of each step r * x by one dict lookup on its coset key, and checks
# every Schreier generator r * x * r'^-1 with the subgroup's membership
# test.  With spec_coset_key and spec_membership it must give the action
# engine's rows, generator count, edges and symbol map on every group a
# SubgroupSpec can name.


def spec_coset_key(spec, g):
    """The image rows . F(g) mod 3 of an element g of the ambient group,
    F by dividing each entry (no membership check); () for gamma_sqrt3,
    which is its own ambient group."""
    if spec.rows is None:
        return ()
    f = divided_f_coordinates(g)
    return tuple(sum(r * x for r, x in zip(row, f)) % 3 for row in spec.rows)


def arithmetic_action(spec):
    """(base, act) as SubgroupSpec.coset_action gives them, with act adding
    sign * rows . F(n_i) mod 3 to the point coordinate by coordinate, the
    arithmetic that its translation tables hold."""
    if spec.rows is None:
        return (), lambda point, generator, sign: point
    shifts = [spec_coset_key(spec, n) for n in GENERATORS]

    def act(point, generator, sign):
        return tuple((p + sign * s) % 3 for p, s in zip(point, shifts[generator]))

    return (0,) * len(spec.rows), act


def spec_membership(spec, g):
    """Whether g lies in the subgroup the spec names."""
    if spec.rows is None:
        return in_gamma_sqrt3(g)
    return in_upsilon(g) and not any(spec_coset_key(spec, g))


def keyed_reidemeister_schreier(ambient, coset_key, membership, max_index):
    """(rows, generator_count, graph) as reidemeister_schreier returns them,
    with the coset representatives as the graph's vertices."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    factors = [((1, image), (-1, image.inverse())) for image in ambient.images]

    vertices = [IDENTITY]
    coset_of = {coset_key(IDENTITY): 0}
    steps = {(gi, sign): [] for gi in range(ambient.generator_count) for sign in (1, -1)}
    products = {}  # positive edge (v, generator) -> r * x, for the Schreier generators
    tree = set()  # positive edges (v, generator) of the spanning tree
    queue = deque([0])
    while queue:
        vi = queue.popleft()
        r = vertices[vi]
        for gi, pair in enumerate(factors):
            for sign, step in pair:
                m = r * step
                key = coset_key(m)
                wj = coset_of.get(key)
                if wj is None:
                    if len(vertices) >= max_index:
                        raise IndexOverflowError(
                            "subgroup index exceeds max_index = %d" % max_index
                        )
                    wj = len(vertices)
                    vertices.append(m)
                    coset_of[key] = wj
                    queue.append(wj)
                    tree.add((vi, gi) if sign == 1 else (wj, gi))
                steps[(gi, sign)].append(wj)
                if sign == 1:
                    products[(vi, gi)] = m

    inverses = [v.inverse() for v in vertices]
    symbol_of = {}
    for vi in range(len(vertices)):
        for gi in range(ambient.generator_count):
            wj = steps[(gi, 1)][vi]
            if steps[(gi, -1)][wj] != vi:
                raise OracleInconsistencyError(
                    "coset %d steps by generator %d to coset %d, but its inverse "
                    "does not step back" % (vi, gi, wj)
                )
            if (vi, gi) in tree:
                continue
            if not membership(products[(vi, gi)] * inverses[wj]):
                raise OracleInconsistencyError(
                    "the Schreier generator of coset %d and generator %d is not "
                    "in the subgroup: the coset key disagrees with membership"
                    % (vi, gi)
                )
            symbol_of[(vi, gi)] = len(symbol_of)

    z = len(symbol_of)  # the column of the central generator
    # A negative letter traverses the positive edge that ends where it ends.
    rows = []
    for rel, n in zip(ambient.relators, ambient.central):
        for vi in range(len(vertices)):
            row = {}
            current = vi
            for gi, sign in rel.letters:
                if sign == 1:
                    edge = (current, gi)
                    current = steps[(gi, 1)][current]
                else:
                    current = steps[(gi, -1)][current]
                    edge = (current, gi)
                symbol = symbol_of.get(edge)
                if symbol is not None:
                    row[symbol] = row.get(symbol, 0) + sign
            if current != vi:
                raise OracleInconsistencyError(
                    "relator trace from coset %d did not close up" % vi
                )
            row = {s: e for s, e in row.items() if e}
            if n:
                row[z] = -n
            rows.append(row)

    graph = CosetGraph(tuple(vertices), steps, ambient.generator_count, symbol_of)
    return rows, len(symbol_of), graph


def coset_representatives(ambient, graph):
    """One matrix per coset of the graph, the product of the ambient images
    along the spanning-tree path that founded it, from I at coset 0."""
    representatives = [IDENTITY] * graph.index
    for wj, (vi, (gi, sign)) in sorted(founding_edges(graph).items()):
        step = ambient.images[gi] if sign == 1 else ambient.images[gi].inverse()
        representatives[wj] = representatives[vi] * step
    return representatives


# --- predicate-scan Reidemeister-Schreier oracle -----------------------------
#
# The coset enumeration the package used before it keyed cosets by their
# image in a finite quotient.  It identifies each coset by scanning every
# existing representative with the membership predicate (O(index^2) calls),
# labels each edge with its subgroup element r * x * r'^-1, takes the
# distinct non-identity labels as generators and returns them as the
# presentation's images, so the Presentation constructor lifts every traced
# relator through sigma, which checks it and gives the relation matrix its
# z column.  It shares no code with the keyed engine or with its telescoped
# lifts.


def predicate_scan_presentation(ambient, membership, max_index=512):
    """(subgroup presentation, index) by predicate-only coset identification."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    images = ambient.images
    if not membership(IDENTITY):
        raise OracleInconsistencyError("the identity fails the membership predicate")
    inverse_images = [im.inverse() for im in images]

    vertices = [IDENTITY]
    vertex_inverses = [IDENTITY]
    edges = {}
    queue = deque([0])
    while queue:
        vi = queue.popleft()
        r = vertices[vi]
        for gi in range(ambient.generator_count):
            for sign in (1, -1):
                m = r * (images[gi] if sign == 1 else inverse_images[gi])
                matches = [
                    wj
                    for wj in range(len(vertices))
                    if membership(m * vertex_inverses[wj])
                ]
                if len(matches) > 1:
                    raise OracleInconsistencyError(
                        "step from coset %d by generator %d lands in %d cosets at once"
                        % (vi, gi, len(matches))
                    )
                if matches:
                    wj = matches[0]
                    edges[(vi, (gi, sign))] = (wj, m * vertex_inverses[wj])
                else:
                    if len(vertices) >= max_index:
                        raise IndexOverflowError(
                            "subgroup index exceeds max_index = %d" % max_index
                        )
                    vertices.append(m)
                    vertex_inverses.append(m.inverse())
                    queue.append(len(vertices) - 1)
                    edges[(vi, (gi, sign))] = (len(vertices) - 1, IDENTITY)

    symbol_of = {}
    generator_images = []
    for vi in range(len(vertices)):
        for gi in range(ambient.generator_count):
            _, h = edges[(vi, (gi, 1))]
            if h != IDENTITY and h not in symbol_of:
                symbol_of[h] = len(generator_images)
                generator_images.append(h)

    relators = []
    for rel in ambient.relators:
        for vi in range(len(vertices)):
            letters = []
            current = vi
            for gi, sign in rel.letters:
                current, h = edges[(current, (gi, sign))]
                if h == IDENTITY:
                    continue
                if sign == 1:
                    letters.append((symbol_of[h], 1))
                else:
                    letters.append((symbol_of[h.inverse()], -1))
            if current != vi:
                raise OracleInconsistencyError(
                    "relator trace from coset %d did not close up" % vi
                )
            trace = Word(letters)
            if trace.letters:
                relators.append(trace)

    names = tuple("h%d" % (k + 1) for k in range(len(generator_images)))
    return Presentation(names, relators, generator_images), len(vertices)


# --- exact cocycle oracle ------------------------------------------------------
#
# sigma as the package computed it on EisensteinInt values, from the full
# product g * h: the same sign tests at tau0 = (-2, 0), with X read through
# GroupMatrix.entry.


def X_of(g: GroupMatrix) -> EisensteinInt:
    """-a when the bottom-left entry a is nonzero, else the bottom-right entry c."""
    a, _, c = entries_of(g)[2]
    if not a.is_zero():
        return -a
    if c.is_zero():
        raise ValueError("matrix has a zero bottom row; not in the group")
    return c


def _reference_upper(u: EisensteinInt) -> bool:
    """Whether Arg u lies in (0, pi]: Im u = b*sqrt(3)/2, Re u = (2a - b)/2."""
    return u.b > 0 or (u.b == 0 and u.a < 0)


def reference_eps(u: EisensteinInt, v: EisensteinInt) -> int:
    """(Arg u + Arg v - Arg uv) / (2*pi) for nonzero u, v: 1, 0 or -1."""
    if _reference_upper(u) and _reference_upper(v):
        return 0 if _reference_upper(u * v) else 1
    if u.b < 0 and v.b < 0:
        return -1 if _reference_upper(u * v) else 0
    return 0


def reference_sigma(g: GroupMatrix, h: GroupMatrix) -> int:
    """The integer cocycle sigma(g, h) on EisensteinInt values, from g * h."""
    gh = g * h
    j = EisensteinInt(*gh.entry(2, 2)) - 2 * EisensteinInt(*gh.entry(2, 0))
    x_g, x_h, x_gh = X_of(g), X_of(h), X_of(gh)
    x_g_x_h = x_g * x_h
    return (
        reference_eps(j * x_gh.conj(), x_gh)
        - reference_eps(x_g, x_h)
        - reference_eps(j * x_g_x_h.conj(), x_g_x_h)
    )


# --- float cocycle oracle ------------------------------------------------------
#
# The floating-point evaluation of sigma the package used before it became
# exact: principal logarithms of the automorphy factor at a point of the
# ball, rounded to the nearest integer, with two fallback base points when
# the residual exceeds the tolerance.  Float images of the base point leave
# the domain (ValueError) or overflow on large entries, so it is an oracle
# only where it is defined.

SIGMA_TOLERANCE = 1e-6

_TWO_PI = 2.0 * math.pi

_SQRT3 = math.sqrt(3.0)


def embed(z) -> complex:
    """Numerical value a + b*(-1/2 + i*sqrt(3)/2) of z = a + b*zeta."""
    return complex(z.a - 0.5 * z.b, 0.5 * _SQRT3 * z.b)


class BranchToleranceError(ArithmeticError):
    """The cocycle value failed to round to an integer within tolerance."""


class BallPoint(Value):
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


BASE_POINT = BallPoint(-2.0, 0.0)
FALLBACK_BASE_POINTS = (BallPoint(-3.0, 0.0), BallPoint(-2.0, 0.5))


def _log_branch(z: complex) -> complex:
    """Principal logarithm with -pi < Im <= pi; the cut value is +pi*i."""
    theta = math.atan2(z.imag, z.real)
    if theta <= -math.pi:
        theta = math.pi
    return complex(math.log(abs(z)), theta)


def j_factor(g, tau: BallPoint) -> complex:
    """C*tau + D for the bottom row of g split as 1x2 and 1x1 blocks."""
    a, b, c = (embed(entry) for entry in entries_of(g)[2])
    return a * tau.tau1 + b * tau.tau2 + c


def act(g, tau: BallPoint) -> BallPoint:
    """Fractional-linear action (A*tau + B) / (C*tau + D)."""
    column = (tau.tau1, tau.tau2, 1.0)
    images = [sum(embed(e) * t for e, t in zip(row, column)) for row in entries_of(g)]
    denominator = images[2]
    return BallPoint(images[0] / denominator, images[1] / denominator)


def j_tilde(g, tau: BallPoint) -> complex:
    """The branch log(j/X) + log(X), each logarithm principal."""
    j = j_factor(g, tau)
    x = embed(X_of(g))
    return _log_branch(j / x) + _log_branch(x)


def sigma_at(g, h, tau: BallPoint) -> tuple:
    """The raw cocycle value at one base point: (rounded integer, residual)."""
    value = (
        j_tilde(g * h, tau) - j_tilde(g, act(h, tau)) - j_tilde(h, tau)
    ) / complex(0.0, _TWO_PI)
    nearest = round(value.real)
    residual = abs(value - nearest)
    return nearest, residual


def float_sigma(g, h, tolerance: float = SIGMA_TOLERANCE) -> int:
    """The integer cocycle sigma(g, h), evaluated in floating point.

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


def float_central_part(word, images):
    """The integer part n of the word's lift (g, n) through generator
    i -> (images[i], 0), folded with float_sigma and matrix products only:
    a letter x adds sigma(prefix, x), and an inverse letter g^-1, whose lift
    is (g^-1, -sigma(g, g^-1)), adds -sigma(g, g^-1) + sigma(prefix, g^-1)."""
    prefix, n = IDENTITY, 0
    for i, s in word.letters:
        factor = images[i]
        if s == -1:
            inverse = factor.inverse()
            n -= float_sigma(factor, inverse)
            factor = inverse
        n += float_sigma(prefix, factor)
        prefix = prefix * factor
    return n
