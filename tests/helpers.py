"""Shared test utilities: seeded random sampling and independent oracles."""

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, floor, gcd

from su21.cocycle import X_of
from su21.eisenstein import EisensteinInt
from su21.fpgroup import (
    EMPTY_WORD,
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    evaluate_word,
)
from su21.matgroup import (
    IDENTITY,
    J,
    F_map,
    GroupMatrix,
    SubgroupSpec,
    all_index3_vectors,
    generators_upsilon,
)
from su21.weightdenom import central_parts
from su21.zlinalg import IntegerMatrix

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


# --- reference GroupMatrix arithmetic -------------------------------------
#
# Matrix products as sums of EisensteinInt products, and the inverse and the
# unitarity test written with them as J * conj(g)^t * J and
# conj(g)^t * J * g = J.  GroupMatrix's integer-coordinate kernel is checked
# against these; they never call GroupMatrix.__mul__.


def reference_product(g, h):
    return GroupMatrix(
        [
            [g[i][0] * h[0][j] + g[i][1] * h[1][j] + g[i][2] * h[2][j] for j in range(3)]
            for i in range(3)
        ]
    )


def conj_transpose(g):
    return GroupMatrix([[g[j][i].conj() for j in range(3)] for i in range(3)])


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
    return min(window, key=lambda w: (frac_norm(x - w.a, y - w.b), w.trace(), w.b))


def fraction_rounded_half(u, n):
    """Nearest integer to (u/n)/2, ties toward the smaller, in Fraction."""
    return ceil(Fraction(u, n) / 2 - Fraction(1, 2))


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
                current = graph.edges[(current, (gi, sign))]
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


def relation_matrix(presentation, central=None):
    """The s x (r+1) abelianized relation matrix of the centrally extended
    group: one row per relator, columns = generator exponent sums plus the
    z-coefficient -n, where (I, n) is the relator's lift.  central gives
    those n in relator order; without it they are lifted through the
    presentation's images."""
    if central is None:
        central = central_parts(presentation)
    elif len(central) != len(presentation.relators):
        raise ValueError("need exactly one central part per relator")
    r = presentation.generator_count
    return IntegerMatrix(
        (
            exponent_sums(relator, r) + [-n]
            for relator, n in zip(presentation.relators, central)
        ),
        r + 1,
    )


def sparse_rows(rows):
    """Dense rows as the {column: nonzero entry} dicts the elimination takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


# --- predicate-scan Reidemeister-Schreier oracle -----------------------------
#
# The coset enumeration the package used before it keyed cosets by their
# image in a finite quotient.  It identifies each coset by scanning every
# existing representative with the membership predicate (O(index^2) calls),
# labels each edge with its subgroup element r * x * r'^-1, takes the
# distinct non-identity labels as generators and returns them as the
# presentation's images, so the Presentation constructor re-verifies every
# traced relator and the relation matrix lifts each one through sigma.  It
# shares no code with the keyed engine or with its telescoped lifts.


def predicate_scan_presentation(ambient, membership, max_index=512):
    """(subgroup presentation, index) by predicate-only coset identification."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    abstract = ambient.images is None
    if abstract:
        images = [Word([(i, 1)]) for i in range(ambient.generator_count)]
        identity = EMPTY_WORD
    else:
        images = list(ambient.images)
        identity = IDENTITY
    if not membership(identity):
        raise OracleInconsistencyError("the identity fails the membership predicate")
    inverse_images = [im.inverse() for im in images]

    vertices = [identity]
    vertex_inverses = [identity]
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
                    edges[(vi, (gi, sign))] = (len(vertices) - 1, identity)

    symbol_of = {}
    generator_images = []
    for vi in range(len(vertices)):
        for gi in range(ambient.generator_count):
            _, h = edges[(vi, (gi, 1))]
            if h != identity and h not in symbol_of:
                symbol_of[h] = len(generator_images)
                generator_images.append(h)

    relators = []
    for rel in ambient.relators:
        for vi in range(len(vertices)):
            letters = []
            current = vi
            for gi, sign in rel.letters:
                current, h = edges[(current, (gi, sign))]
                if h == identity:
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
    presentation = Presentation(
        names, relators, None if abstract else generator_images
    )
    return presentation, len(vertices)


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


def j_factor(g, tau: BallPoint) -> complex:
    """C*tau + D for the bottom row of g split as 1x2 and 1x1 blocks."""
    a, b, c = (embed(entry) for entry in g[2])
    return a * tau.tau1 + b * tau.tau2 + c


def act(g, tau: BallPoint) -> BallPoint:
    """Fractional-linear action (A*tau + B) / (C*tau + D)."""
    column = (tau.tau1, tau.tau2, 1.0)
    images = [
        sum(embed(g[i][k]) * column[k] for k in range(3)) for i in range(3)
    ]
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
