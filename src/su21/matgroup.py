"""The group SU(2,1) over the Eisenstein integers and its congruence subgroups.

Matrices are 3x3 over Z[zeta] and unitary with respect to the antidiagonal
Hermitian form J.  The inverse of a unitary matrix is J * conj(g)^t * J, an
index permutation with conjugated entries, so inverting multiplies nothing.
Products work on the integer coordinates (a, b) of the entries a + b*zeta.
"""

from __future__ import annotations

from itertools import product

from .eisenstein import ONE, SQRT_MINUS3, ZERO, ZETA, EisensteinInt


class GroupMatrix:
    """Immutable 3x3 matrix over Z[zeta]."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("expected a 3x3 matrix")
        for row in rows:
            for entry in row:
                if not isinstance(entry, EisensteinInt):
                    raise ValueError("entries must be EisensteinInt values")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GroupMatrix is immutable")

    def __reduce__(self):
        return (GroupMatrix, (self.entries,))

    def __getitem__(self, index):
        return self.entries[index]

    def __repr__(self):
        return "GroupMatrix(%r)" % (
            [[e.to_pair() for e in row] for row in self.entries],
        )

    def __str__(self):
        cells = [[str(e) for e in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells
        )

    def __eq__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
        return h

    def __mul__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        # Entry (i, j) is sum_k (a + b*zeta)(c + d*zeta) over row i of self
        # and column j of other; with zeta^2 = -1 - zeta that is
        # (sum ac - sum bd) + (sum ad + bc - sum bd)*zeta.
        (p, q, r), (s, t, u), (v, w, x) = other.entries
        c00, d00, c01, d01, c02, d02 = p.a, p.b, q.a, q.b, r.a, r.b
        c10, d10, c11, d11, c12, d12 = s.a, s.b, t.a, t.b, u.a, u.b
        c20, d20, c21, d21, c22, d22 = v.a, v.b, w.a, w.b, x.a, x.b
        rows = []
        for e0, e1, e2 in self.entries:
            a0, b0, a1, b1, a2, b2 = e0.a, e0.b, e1.a, e1.b, e2.a, e2.b
            bd0 = b0 * d00 + b1 * d10 + b2 * d20
            bd1 = b0 * d01 + b1 * d11 + b2 * d21
            bd2 = b0 * d02 + b1 * d12 + b2 * d22
            rows.append(
                (
                    EisensteinInt(
                        a0 * c00 + a1 * c10 + a2 * c20 - bd0,
                        a0 * d00 + b0 * c00 + a1 * d10 + b1 * c10 + a2 * d20 + b2 * c20 - bd0,
                    ),
                    EisensteinInt(
                        a0 * c01 + a1 * c11 + a2 * c21 - bd1,
                        a0 * d01 + b0 * c01 + a1 * d11 + b1 * c11 + a2 * d21 + b2 * c21 - bd1,
                    ),
                    EisensteinInt(
                        a0 * c02 + a1 * c12 + a2 * c22 - bd2,
                        a0 * d02 + b0 * c02 + a1 * d12 + b1 * c12 + a2 * d22 + b2 * c22 - bd2,
                    ),
                )
            )
        return _group_matrix(tuple(rows))

    def transpose(self) -> "GroupMatrix":
        e = self.entries
        return GroupMatrix(tuple(zip(*e)))

    def inverse(self) -> "GroupMatrix":
        """Inverse of a J-unitary matrix, J * conj(g)^t * J: entry (i, j)
        is conj(g[2 - j][2 - i])."""
        (p, q, r), (s, t, u), (v, w, x) = self.entries
        return _group_matrix(
            (
                (x.conj(), u.conj(), r.conj()),
                (w.conj(), t.conj(), q.conj()),
                (v.conj(), s.conj(), p.conj()),
            )
        )

    def det(self) -> EisensteinInt:
        e = self.entries
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )

    def is_unitary(self) -> bool:
        """Whether conj(g)^t * J * g = J, that is (as J^2 = I) whether
        inverse() is the inverse of g."""
        return self.inverse() * self == IDENTITY

    def scalar_mul(self, scalar: EisensteinInt) -> "GroupMatrix":
        return GroupMatrix(
            tuple(tuple(scalar * entry for entry in row) for row in self.entries)
        )

    def to_json_dict(self) -> dict:
        return {"entries": [[e.to_pair() for e in row] for row in self.entries]}

    @classmethod
    def from_json_dict(cls, data) -> "GroupMatrix":
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError('expected an object with an "entries" key')
        rows = data["entries"]
        if not isinstance(rows, list) or len(rows) != 3:
            raise ValueError("entries must be a 3x3 array of integer pairs")
        out = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError("entries must be a 3x3 array of integer pairs")
            out.append([EisensteinInt.from_pair(cell) for cell in row])
        return cls(out)


_new = object.__new__
_set_entries = GroupMatrix.entries.__set__
_set_hash = GroupMatrix._hash.__set__


def _group_matrix(rows: tuple) -> GroupMatrix:
    """GroupMatrix(rows) without its checks, for kernels whose rows are
    3-tuples of three EisensteinInt by construction."""
    m = _new(GroupMatrix)
    _set_entries(m, rows)
    _set_hash(m, None)
    return m


J = GroupMatrix(
    [
        [ZERO, ZERO, ONE],
        [ZERO, ONE, ZERO],
        [ONE, ZERO, ZERO],
    ]
)

IDENTITY = GroupMatrix(
    [
        [ONE, ZERO, ZERO],
        [ZERO, ONE, ZERO],
        [ZERO, ZERO, ONE],
    ]
)

ZETA_IDENTITY = IDENTITY.scalar_mul(ZETA)


def make_n(z: EisensteinInt, x: int) -> GroupMatrix:
    """The upper-triangular unipotent n(z, x); requires x = norm(z) mod 2.

    The corner entry (-3*norm(z) + x*sqrt(-3)) / 2 is a genuine Eisenstein
    integer exactly under the parity condition, so it is produced by exact
    division rather than through any rational type.
    """
    if not isinstance(z, EisensteinInt):
        z = EisensteinInt(z, 0)
    if (x - z.norm()) % 2 != 0:
        raise ValueError("parity violation: x must be congruent to norm(z) mod 2")
    corner = (EisensteinInt(-3 * z.norm(), 0) + EisensteinInt(x, 0) * SQRT_MINUS3).div_exact(
        EisensteinInt(2, 0)
    )
    return GroupMatrix(
        [
            [ONE, SQRT_MINUS3 * z, corner],
            [ZERO, ONE, SQRT_MINUS3 * z.conj()],
            [ZERO, ZERO, ONE],
        ]
    )


def make_n_transpose(z: EisensteinInt, x: int) -> GroupMatrix:
    """The transpose of make_n(z, x)."""
    return make_n(z, x).transpose()


def generators_upsilon() -> tuple:
    """The five generators n1 = n(1,1), n2 = n(zeta,1), n3 = n(0,2), n4 = n1^t, n5 = n3^t."""
    n1 = make_n(ONE, 1)
    n2 = make_n(ZETA, 1)
    n3 = make_n(ZERO, 2)
    return (n1, n2, n3, n1.transpose(), n3.transpose())


def in_gamma_beta(g: GroupMatrix, beta) -> bool:
    """Membership in the principal congruence subgroup: g = I mod beta, unitary, det 1."""
    if isinstance(beta, int) and not isinstance(beta, bool):
        beta = EisensteinInt(beta, 0)
    for i in range(3):
        for j in range(3):
            entry = g[i][j]
            if i == j:
                entry = entry - ONE
            if not entry.is_divisible_by(beta):
                return False
    return g.det() == ONE and g.is_unitary()


def in_upsilon(g: GroupMatrix) -> bool:
    """Membership in the index-3 complement of the centre inside level sqrt(-3):
    unitary, det 1, g = I mod sqrt(-3), and top-left entry = 1 mod 3."""
    if (g[0][0] - ONE).residue_mod_3() != (0, 0):
        return False
    return in_gamma_beta(g, SQRT_MINUS3)


def F_map(g: GroupMatrix) -> tuple:
    """The homomorphism to F_3^4 sending g to the four off-corner entries
    (g12, g13, g21, g31) divided by sqrt(-3) and reduced mod sqrt(-3).

    Its kernel is the principal congruence subgroup of level 3.
    """
    if not in_upsilon(g):
        raise ValueError("F_map is defined only on the unipotent-generated congruence group")
    return _f_coordinates(g)


def _f_coordinates(g: GroupMatrix) -> tuple:
    """F_map without the membership check."""
    coords = (g[0][1], g[0][2], g[1][0], g[2][0])
    return tuple(c.div_exact(SQRT_MINUS3).residue_mod_sqrt_minus3() for c in coords)


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
        v = [int(x) % 3 for x in row]
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


class SubgroupSpec:
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

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupSpec is immutable")

    def __reduce__(self):
        return (SubgroupSpec, (self.rows,))

    def __eq__(self, other):
        if not isinstance(other, SubgroupSpec):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SubgroupSpec(%r)" % (self.rows,)

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

    def membership(self, g: GroupMatrix) -> bool:
        if self.rows is None:
            return in_gamma_beta(g, SQRT_MINUS3)
        return in_upsilon(g) and not any(self.coset_key(g))

    def coset_key(self, g: GroupMatrix) -> tuple:
        """The image of g in the quotient of the ambient group by this
        subgroup: rows . F_map(g) mod 3, one entry per row.  Two elements of
        the ambient group lie in the same right coset exactly when their
        keys are equal.

        g must lie in the ambient group, and unlike F_map this does not
        check it: coset enumeration keys only products of the ambient
        generators, and checks every Schreier generator with membership."""
        if self.rows is None:
            raise ValueError("gamma_sqrt3 is not a subgroup of the ambient group")
        f0, f1, f2, f3 = _f_coordinates(g)
        return tuple((a * f0 + b * f1 + c * f2 + d * f3) % 3 for a, b, c, d in self.rows)

    def index_in_upsilon(self) -> int:
        """Index inside the ambient unipotent-generated group.  The level
        sqrt(-3) group is not a subgroup of it (it is handled by the
        centre-quotient reduction in the weight-denominator pipeline)."""
        if self.rows is None:
            raise ValueError("gamma_sqrt3 is not a subgroup of the ambient group")
        return 3 ** len(self.rows)
