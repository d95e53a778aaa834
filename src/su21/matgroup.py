"""The group SU(2,1) over the Eisenstein integers and its congruence subgroups.

The package writes an Eisenstein integer a + b*zeta, with zeta = e^(2*pi*i/3)
and zeta^2 = -1 - zeta, as the int pair (a, b); sqrt(-3) is 1 + 2*zeta.
Matrices are 3x3 over Z[zeta] and unitary with respect to the antidiagonal
Hermitian form J.  A GroupMatrix holds the integer coordinates (a, b) of its
entries a + b*zeta, row by row: products, inverses, det, unitarity and
membership compute on the ints, as cocycle.sigma does on bottom rows, and
other modules read an entry as a pair through GroupMatrix.entry, or the
first column's six ints through GroupMatrix.first_column.  The inverse of a
unitary matrix is J * conj(g)^t * J, an index permutation with conjugated
entries, so inverting multiplies nothing.  _upper_times(u01, u02, u12, s)
is u * g for an upper unitriangular u, given by its three off-diagonal
entries, and g's coords s: 9 entry products where the general product
makes 27.

SubgroupSpec.coset_action gives a subgroup's cosets as the points of a
finite action, on which coset enumeration runs without matrices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter, mul

from .value import Value


class GroupMatrix(Value):
    """Immutable 3x3 matrix over Z[zeta], held as coords: the 18 ints (a, b)
    of its entries a + b*zeta, row by row.  It is built from, and reads out,
    each entry as the pair (a, b)."""

    __slots__ = ("coords",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("expected a 3x3 matrix")
        _set_coords(self, tuple(v for row in rows for cell in row for v in _pair(cell)))

    def __setstate__(self, values):
        """Value's restore, refusing the rows that older pickles hold."""
        Value.__setstate__(self, values)
        if type(self.coords) is not tuple or tuple(map(type, self.coords)) != (int,) * 18:
            raise TypeError("GroupMatrix takes a tuple of 18 int coordinates")

    def entry(self, i: int, j: int) -> tuple:
        """The entry in row i, column j, for i and j in 0, 1, 2, as (a, b)."""
        if not (0 <= i < 3 and 0 <= j < 3):
            raise IndexError("no entry (%r, %r) in a 3x3 matrix" % (i, j))
        k = 6 * i + 2 * j
        return self.coords[k : k + 2]

    def first_column(self) -> tuple:
        """The coordinates (a0, a1, b0, b1, c0, c1) of the first column
        (a, b, c), each entry x0 + x1*zeta, as six ints."""
        return _first_column(self.coords)

    @property
    def entries(self) -> tuple:
        """The rows, as 3-tuples of (a, b) pairs."""
        return self[0], self[1], self[2]

    def __getitem__(self, i):
        """Row i, as a 3-tuple of (a, b) pairs; a negative i counts from the end."""
        i = range(3)[i]
        return self.entry(i, 0), self.entry(i, 1), self.entry(i, 2)

    def __repr__(self):
        return "GroupMatrix(%r)" % (self.entries,)

    def __str__(self):
        cells = [[format_entry(*e) for e in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells
        )

    def __mul__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        # Entry (i, j) is sum_k (a + b*zeta)(c + d*zeta) over row i of self
        # and column j of other; with zeta^2 = -1 - zeta that is
        # (sum ac - sum bd) + (sum ad + bc - sum bd)*zeta.
        (c00, d00, c01, d01, c02, d02, c10, d10, c11, d11, c12, d12,
         c20, d20, c21, d21, c22, d22) = other.coords
        s = self.coords
        out = ()
        for i in (0, 6, 12):
            a0, b0, a1, b1, a2, b2 = s[i : i + 6]
            bd0 = b0 * d00 + b1 * d10 + b2 * d20
            bd1 = b0 * d01 + b1 * d11 + b2 * d21
            bd2 = b0 * d02 + b1 * d12 + b2 * d22
            out += (
                a0 * c00 + a1 * c10 + a2 * c20 - bd0,
                a0 * d00 + b0 * c00 + a1 * d10 + b1 * c10 + a2 * d20 + b2 * c20 - bd0,
                a0 * c01 + a1 * c11 + a2 * c21 - bd1,
                a0 * d01 + b0 * c01 + a1 * d11 + b1 * c11 + a2 * d21 + b2 * c21 - bd1,
                a0 * c02 + a1 * c12 + a2 * c22 - bd2,
                a0 * d02 + b0 * c02 + a1 * d12 + b1 * c12 + a2 * d22 + b2 * c22 - bd2,
            )
        return _group_matrix(out)

    def transpose(self) -> "GroupMatrix":
        return _group_matrix(_transposed(self.coords))

    def inverse(self) -> "GroupMatrix":
        """Inverse of a J-unitary matrix, J * conj(g)^t * J: entry (i, j)
        is conj(g[2 - j][2 - i]), and conj(a + b*zeta) = (a - b) - b*zeta."""
        p, P, q, Q, r, R, s, S, t, T, u, U, v, V, w, W, x, X = self.coords
        return _group_matrix((x - X, -X, u - U, -U, r - R, -R,
                              w - W, -W, t - T, -T, q - Q, -Q,
                              v - V, -V, s - S, -S, p - P, -P))

    def det(self) -> tuple:
        """Cofactor expansion along the first row, on the coordinates: (a, b)."""
        p, P, q, Q, r, R, s, S, t, T, u, U, v, V, w, W, x, X = self.coords
        a0, b0 = _times(p, P, *_minor(t, T, u, U, w, W, x, X))
        a1, b1 = _times(q, Q, *_minor(s, S, u, U, v, V, x, X))
        a2, b2 = _times(r, R, *_minor(s, S, t, T, v, V, w, W))
        return a0 - a1 + a2, b0 - b1 + b2

    def is_unitary(self) -> bool:
        """Whether conj(g)^t * J * g = J, that is (as J^2 = I) whether
        inverse() is the inverse of g."""
        return self.inverse() * self == IDENTITY

    def to_json_dict(self) -> dict:
        return {"entries": [[list(e) for e in row] for row in self.entries]}

    @classmethod
    def from_json_dict(cls, data) -> "GroupMatrix":
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError('expected an object with an "entries" key')
        rows = data["entries"]
        if not (isinstance(rows, list) and len(rows) == 3
                and all(isinstance(row, list) and len(row) == 3 for row in rows)):
            raise ValueError("entries must be a 3x3 array of integer pairs")
        return cls(rows)


def _pair(cell) -> tuple:
    """The cell (a, b); ValueError unless it is a list or tuple of two ints."""
    if isinstance(cell, (list, tuple)) and tuple(map(type, cell)) == (int, int):
        return tuple(cell)
    raise ValueError("expected a pair of integers, got %r" % (cell,))


def format_entry(a: int, b: int) -> str:
    """a + b*zeta as text: 3, 1*zeta, -1-1*zeta."""
    if b == 0:
        return str(a)
    if a == 0:
        return "%d*zeta" % b
    return "%d%+d*zeta" % (a, b)


def _times(a: int, b: int, c: int, d: int) -> tuple:
    """(a + b*zeta)(c + d*zeta) as its coordinates, with zeta^2 = -1 - zeta."""
    bd = b * d
    return a * c - bd, a * d + b * c - bd


def _minor(a: int, b: int, c: int, d: int, e: int, f: int, g: int, h: int) -> tuple:
    """(a + b*zeta)(g + h*zeta) - (c + d*zeta)(e + f*zeta) as its coordinates."""
    p, q = _times(a, b, g, h)
    r, s = _times(c, d, e, f)
    return p - r, q - s


_new = object.__new__
_set_coords = GroupMatrix.coords.__set__
# the coordinates of entries (0, 0), (1, 0) and (2, 0)
_first_column = itemgetter(0, 1, 6, 7, 12, 13)
# coords[k] of the transpose, for each k: entry (i, j) comes from (j, i)
_transposed = itemgetter(0, 1, 6, 7, 12, 13, 2, 3, 8, 9, 14, 15, 4, 5, 10, 11, 16, 17)


def _group_matrix(coords: tuple) -> GroupMatrix:
    """The GroupMatrix with these 18 int coordinates, unchecked."""
    m = _new(GroupMatrix)
    _set_coords(m, coords)
    return m


# the diagonal, then the entries below it or above it: a unitriangular
# matrix reads _UNIT there
_upper_shape = itemgetter(0, 1, 8, 9, 16, 17, 6, 7, 12, 13, 14, 15)
_lower_shape = itemgetter(0, 1, 8, 9, 16, 17, 2, 3, 4, 5, 10, 11)
_UNIT = (1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0)
# J * g, which reverses the rows of g
_reversed_rows = itemgetter(12, 13, 14, 15, 16, 17, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5)


def _unitriangular_factors(u: GroupMatrix) -> tuple:
    """(upper, the six ints _upper_times takes: u01, u02, u12 of u, or of J u J if lower)."""
    c = u.coords
    if _upper_shape(c) == _UNIT:
        return True, (c[2], c[3], c[4], c[5], c[10], c[11])
    if _lower_shape(c) == _UNIT:
        return False, (c[14], c[15], c[12], c[13], c[6], c[7])
    raise ValueError("u is not unitriangular")


def _upper_times(p, P, q, Q, r, R, s) -> tuple:
    """The coordinates of u * g for the upper unitriangular u with entries
    u01 = p + P*zeta, u02 = q + Q*zeta, u12 = r + R*zeta and g's coords s:
    row 0 gains u01 * row 1 + u02 * row 2, row 1 gains u12 * row 2 (see
    _times for one product)."""
    a0, A0, a1, A1, a2, A2, b0, B0, b1, B1, b2, B2, c0, C0, c1, C1, c2, C2 = s
    t0, t1, t2 = P * B0 + Q * C0, P * B1 + Q * C1, P * B2 + Q * C2
    m0, m1, m2 = R * C0, R * C1, R * C2
    return (a0 + p * b0 + q * c0 - t0, A0 + p * B0 + P * b0 + q * C0 + Q * c0 - t0,
            a1 + p * b1 + q * c1 - t1, A1 + p * B1 + P * b1 + q * C1 + Q * c1 - t1,
            a2 + p * b2 + q * c2 - t2, A2 + p * B2 + P * b2 + q * C2 + Q * c2 - t2,
            b0 + r * c0 - m0, B0 + r * C0 + R * c0 - m0,
            b1 + r * c1 - m1, B1 + r * C1 + R * c1 - m1,
            b2 + r * c2 - m2, B2 + r * C2 + R * c2 - m2,
            c0, C0, c1, C1, c2, C2)


IDENTITY = _group_matrix((1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0))
ZETA_IDENTITY = _group_matrix((0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1))


def n_corner(p: int, q: int, x: int) -> tuple:
    """The corner entry (-3*norm(z) + x*sqrt(-3)) / 2 of n(z, x), z = p + q*zeta,
    as (a, b).  As sqrt(-3) = 1 + 2*zeta, it is ((x - 3*norm(z)) / 2) + x*zeta,
    an Eisenstein integer exactly when x = norm(z) mod 2."""
    numerator = x - 3 * (p * p - p * q + q * q)
    if numerator % 2:
        raise ValueError("parity violation: x must be congruent to norm(z) mod 2")
    return numerator // 2, x


def make_n(p: int, q: int, x: int) -> GroupMatrix:
    """The upper-triangular unipotent n(z, x) for z = p + q*zeta; requires
    x = norm(z) mod 2.  sqrt(-3)*z = (p - 2q) + (2p - q)*zeta and
    sqrt(-3)*conj(z) = (p + q) + (2p - q)*zeta."""
    return _group_matrix((1, 0, p - 2 * q, 2 * p - q, *n_corner(p, q, x),
                          0, 0, 1, 0, p + q, 2 * p - q,
                          0, 0, 0, 0, 1, 0))


GENERATOR_NAMES = ("n1", "n2", "n3", "n4", "n5")


@lru_cache(maxsize=None)
def generators_upsilon() -> tuple:
    """The five generators n1 = n(1,1), n2 = n(zeta,1), n3 = n(0,2), n4 = n1^t,
    n5 = n3^t, built once per process."""
    n1 = make_n(1, 0, 1)
    n2 = make_n(0, 1, 1)
    n3 = make_n(0, 0, 2)
    return (n1, n2, n3, n1.transpose(), n3.transpose())


def in_gamma_sqrt3(g: GroupMatrix) -> bool:
    """Membership in the principal congruence subgroup of level sqrt(-3):
    g = I mod sqrt(-3), unitary, det 1.  As zeta = 1 mod sqrt(-3), an entry
    a + b*zeta is divisible by sqrt(-3) exactly when 3 divides a + b."""
    c = g.coords
    if any((a + b - one) % 3 for a, b, one in zip(c[::2], c[1::2], IDENTITY.coords[::2])):
        return False
    return g.det() == (1, 0) and g.is_unitary()


def in_upsilon(g: GroupMatrix) -> bool:
    """Membership in the index-3 complement of the centre inside level sqrt(-3):
    unitary, det 1, g = I mod sqrt(-3), and top-left entry = 1 mod 3."""
    c = g.coords
    return (c[0] - 1) % 3 == 0 and c[1] % 3 == 0 and in_gamma_sqrt3(g)


def F_map(g: GroupMatrix) -> tuple:
    """The homomorphism to F_3^4 sending g to the four off-corner entries
    (g12, g13, g21, g31) divided by sqrt(-3) and reduced mod sqrt(-3).
    Its kernel is the principal congruence subgroup of level 3.

    An entry divisible by sqrt(-3) is c = sqrt(-3) * (x + y*zeta) =
    (x - 2y) + (2x - y)*zeta, and the quotient reduces to x + y = c.b - c.a
    mod sqrt(-3), so no division is needed.
    """
    if not in_upsilon(g):
        raise ValueError("F_map is defined only on the unipotent-generated congruence group")
    c = g.coords
    return (c[3] - c[2]) % 3, (c[5] - c[4]) % 3, (c[7] - c[6]) % 3, (c[13] - c[12]) % 3


@lru_cache(maxsize=None)
def _generator_f_images() -> tuple:
    """F_map of the five generators, taken once per process."""
    return tuple(map(F_map, generators_upsilon()))


@lru_cache(maxsize=None)
def _translation(shift: tuple, sign: int) -> dict:
    """{p: p + sign * shift mod 3} on the points p of F_3^len(shift), once per process."""
    images = product(*[[(p + sign * s) % 3 for p in range(3)] for s in shift])
    return dict(zip(product(range(3), repeat=len(shift)), images))


def all_index3_vectors() -> list:
    """All 40 nonzero vectors in F_3^4 up to sign, sorted: the rows of the
    40 index-3 specs."""
    vectors = product(range(3), repeat=4)
    return sorted({SubgroupSpec((v,)).rows[0] for v in vectors if any(v)})


def _echelon(rows) -> tuple:
    """The reduced row-echelon basis over F_3 of the span of rows, each a
    vector of four integers: its pivots are 1, in increasing columns, with
    zeros above and below them."""
    basis = {}  # pivot column -> row
    for row in rows:
        if any(type(x) is not int for x in row):
            raise TypeError("rows must hold ints, got %r" % (row,))
        v = [x % 3 for x in row]
        if len(v) != 4:
            raise ValueError("expected rows of four integers")
        for p, b in basis.items():
            v = [(x - v[p] * y) % 3 for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            v = [x * v[p] % 3 for x in v]  # every unit of F_3 is its own inverse
            basis = {q: [(x - b[p] * y) % 3 for x, y in zip(b, v)] for q, b in basis.items()}
            basis[p] = v
    return tuple(tuple(basis[p]) for p in sorted(basis))


# The names that are not index<N>:rows; gamma_sqrt3 has no rows.
_ALIASES = {
    "upsilon": (),
    "gamma_sqrt3": None,
    "gamma3": tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
}


class SubgroupSpec(Value):
    """A named congruence subgroup.  Every group between Gamma(3) and the
    unipotent-generated group is F_map^-1(W) for a subspace W of F_3^4,
    given by rows: a reduced row-echelon basis over F_3 of the vectors
    orthogonal to W, so g is a member when rows . F_map(g) = 0 mod 3.  Its
    index is 3^len(rows): no rows is 'upsilon', the identity rows are
    'gamma3' and one row v is 'index3:v'.  rows=None is the level sqrt(-3)
    group 'gamma_sqrt3', which is not inside the ambient group."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        object.__setattr__(self, "rows", None if rows is None else _echelon(rows))

    def __str__(self):
        return self.name()

    def name(self) -> str:
        for alias, rows in _ALIASES.items():
            if rows == self.rows:
                return alias
        body = ";".join(",".join(str(x) for x in row) for row in self.rows)
        return "index%d:%s" % (3 ** len(self.rows), body)

    @classmethod
    def parse(cls, text: str) -> "SubgroupSpec":
        """Parse the CLI grammar: upsilon | gamma_sqrt3 | gamma3 |
        index<N>:r1;r2;... with each row four comma-separated integers and
        N = 3^rank, e.g. index3:a,b,c,d or index9:1,0,0,0;0,1,0,0."""
        text = text.strip()
        if text in _ALIASES:
            return cls(_ALIASES[text])
        head, colon, body = text.partition(":")
        if not (colon and head.startswith("index") and head[5:].isdigit()):
            raise ValueError(
                "unknown group %r (expected upsilon, gamma_sqrt3, gamma3, "
                "index3:a,b,c,d or index<N>:r1;r2;...)" % (text,)
            )
        try:
            spec = cls(tuple(int(x) for x in row.split(",")) for row in body.split(";"))
        except ValueError:
            raise ValueError("%s: each row takes four comma-separated integers" % text) from None
        if 3 ** len(spec.rows) != int(head[5:]):
            raise ValueError(
                "%s: rows of rank %d give index %d" % (text, len(spec.rows), 3 ** len(spec.rows))
            )
        return spec

    def coset_action(self) -> tuple:
        """(base, act): the right cosets H*g in the ambient group as points,
        base the coset of I, and act(point, i, sign) the point reached by
        ambient generator i, or its inverse for sign -1.  The point of H*g
        is rows . F_map(g) mod 3, so generator i adds sign * rows . F(n_i):
        act looks the point up in that letter's translation table.
        gamma_sqrt3 is its own ambient group: its one point () is fixed
        by every generator."""
        if self.rows is None:
            return (), lambda point, generator, sign: point
        shifts = [tuple(sum(map(mul, r, f)) % 3 for r in self.rows) for f in _generator_f_images()]
        # indexed by sign: [1] is n_i's table and [-1], the last, its inverse's
        tables = [(None, _translation(s, 1), _translation(s, -1)) for s in shifts]
        return (0,) * len(self.rows), lambda point, generator, sign: tables[generator][sign][point]

    def index_in_upsilon(self) -> int:
        """Index inside the ambient unipotent-generated group, which does
        not contain the level sqrt(-3) group."""
        if self.rows is None:
            raise ValueError("gamma_sqrt3 is not a subgroup of the ambient group")
        return 3 ** len(self.rows)
