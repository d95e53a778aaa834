import pickle
import random
from collections import Counter
from itertools import product

import pytest

from su21.fpgroup import evaluate_word
from su21.matgroup import (
    IDENTITY,
    ZETA_IDENTITY,
    F_map,
    GroupMatrix,
    SubgroupSpec,
    all_index3_vectors,
    format_entry,
    generators_upsilon,
    in_gamma_sqrt3,
    in_upsilon,
    make_n,
    n_corner,
)
from helpers import (
    GENERATORS,
    J,
    ONE,
    SQRT_MINUS3,
    ZERO,
    ZETA,
    EisensteinInt,
    arithmetic_action,
    conj_transpose,
    divided_f_coordinates,
    divides,
    divided_n_corner,
    entries_of,
    in_gamma_beta,
    in_index3,
    lattice_specs,
    make_n_transpose,
    matrix_of,
    random_eisenstein,
    random_upsilon_element,
    random_word,
    reference_det,
    reference_inverse,
    reference_is_unitary,
    reference_product,
    scaled,
    spec_coset_key,
    spec_membership,
    unitriangular_times,
)


def test_j_is_antidiagonal():
    for i in range(3):
        for j in range(3):
            assert J[i][j] == ((1, 0) if i + j == 2 else (0, 0))


def test_identity_and_zeta_identity():
    assert IDENTITY.is_unitary()
    assert IDENTITY.det() == (1, 0)
    assert ZETA_IDENTITY == scaled(IDENTITY, ZETA)
    assert ZETA_IDENTITY.det() == (1, 0)
    assert ZETA_IDENTITY.is_unitary()


def test_make_n_shape():
    z = EisensteinInt(2, -1)
    g = entries_of(make_n(2, -1, 1))
    assert g[0][0] == ONE and g[1][1] == ONE and g[2][2] == ONE
    assert g[0][1] == SQRT_MINUS3 * z
    assert g[1][2] == SQRT_MINUS3 * z.conj()
    assert g[1][0] == ZERO and g[2][0] == ZERO and g[2][1] == ZERO
    assert g[0][2] * 2 == SQRT_MINUS3 * 1 - 3 * z.norm()
    # the closed form against the EisensteinInt-and-div_exact oracle
    rng = random.Random(9)
    bound = 10**6
    for _ in range(20000):
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        x = rng.randint(-bound, bound)
        x += (x - EisensteinInt(p, q).norm()) % 2
        corner = divided_n_corner(EisensteinInt(p, q), x).pair()
        assert n_corner(p, q, x) == make_n(p, q, x)[0][2] == corner
        with pytest.raises(ValueError):
            n_corner(p, q, x + 1)


def test_make_n_parity_validation():
    # x must have the parity of N(z)
    make_n(1, 0, 1)
    make_n(1, 0, -3)
    make_n(0, 0, 2)
    with pytest.raises(ValueError):
        make_n(1, 0, 2)
    with pytest.raises(ValueError):
        make_n(0, 0, 1)


def test_heisenberg_multiplication_law():
    rng = random.Random(99)
    for _ in range(200):
        z = EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))
        w = EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))
        x = 2 * rng.randint(-9, 9) + z.norm() % 2
        y = 2 * rng.randint(-9, 9) + w.norm() % 2
        q = (z.conj() * w).b
        assert make_n(*z.pair(), x) * make_n(*w.pair(), y) == make_n(*(z + w).pair(), x + y + 3 * q)


def test_unipotent_powers():
    g = make_n(1, -2, 1)
    power = IDENTITY
    for p in range(1, 6):
        power = power * g
        assert power == make_n(p, -2 * p, p)


def test_make_n_transpose():
    assert make_n_transpose(2, 1, 1) == make_n(2, 1, 1).transpose()


def test_generators_membership():
    n1, n2, n3, n4, n5 = generators_upsilon()
    assert n1 == make_n(1, 0, 1)
    assert n2 == make_n(0, 1, 1)
    assert n3 == make_n(0, 0, 2)
    assert n4 == n1.transpose()
    assert n5 == n3.transpose()
    for g in (n1, n2, n3, n4, n5):
        assert g.is_unitary()
        assert g.det() == (1, 0)
        assert in_gamma_beta(g, SQRT_MINUS3)
        assert in_gamma_sqrt3(g)
        assert in_upsilon(g)


def test_random_words_stay_in_group():
    rng = random.Random(4)
    for _ in range(60):
        g = random_upsilon_element(rng, 12)
        assert g.is_unitary()
        assert g.det() == (1, 0)
        assert in_upsilon(g)


def test_inverse_and_transpose():
    rng = random.Random(5)
    for _ in range(60):
        g = random_upsilon_element(rng, 10)
        assert g * g.inverse() == IDENTITY
        assert g.inverse() * g == IDENTITY
        assert g.transpose().transpose() == g
        assert conj_transpose(g) * J * g == J


def _digits(g):
    return max(len(str(abs(c))) for row in g for e in row for c in e)


def _large_elements(seed):
    """Seeded group elements from words of 1 to 1,700 letters; the longest
    have entries of about 300 digits."""
    rng = random.Random(seed)
    return [
        random_upsilon_element(rng, n, min_len=n)
        for n in (1, 6, 40, 300, 1700)
        for _ in range(3)
    ]


def _arbitrary_matrix(rng, bound):
    """A 3x3 matrix over Z[zeta], almost never unitary, with about a third
    of its entries zero and the rest of either sign up to bound."""
    return matrix_of(
        [
            [ZERO if rng.random() < 1 / 3 else random_eisenstein(rng, bound) for _ in range(3)]
            for _ in range(3)
        ]
    )


def test_product_matches_reference_on_group_elements():
    elements = _large_elements(11)
    assert max(_digits(g) for g in elements) >= 280
    for g in elements:
        for h in elements:
            product = g * h
            assert product == reference_product(g, h)
            assert hash(product) == hash(reference_product(g, h))
            for row in product:
                for e in row:
                    assert type(e) is tuple and tuple(map(type, e)) == (int, int)
            assert product.det() == reference_det(product).pair()
            assert GroupMatrix(product.entries) == product


def test_product_matches_reference_on_arbitrary_matrices():
    rng = random.Random(12)
    for bound in (1, 50, 10**40):
        for _ in range(100):
            g = _arbitrary_matrix(rng, bound)
            h = _arbitrary_matrix(rng, bound)
            assert g * h == reference_product(g, h)
            assert g.det() == reference_det(g).pair()
            assert GroupMatrix(g.entries) == g


def _unitriangular_factors(rng):
    """The ten generator and inverse images, I, and n(z, x) and its
    transpose for z with 1 to 40 digits."""
    factors = [*GENERATORS, *(n.inverse() for n in GENERATORS), IDENTITY]
    for digits in range(1, 41):
        bound = 10**digits - 1
        z = EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        x = 2 * rng.randint(-bound, bound) + z.norm() % 2
        factors += [make_n(*z.pair(), x), make_n_transpose(*z.pair(), x)]
    return factors


def test_unitriangular_times_matches_product():
    """The three-entry kernel equals the general product, value and hash,
    on group elements with entries of hundreds of digits and on arbitrary
    matrices with zero entries and entries of either sign."""
    rng = random.Random(18)
    factors = _unitriangular_factors(rng)
    elements = _large_elements(19)
    assert max(_digits(g) for g in elements) >= 280
    others = [_arbitrary_matrix(rng, bound) for bound in (1, 50, 10**40) for _ in range(5)]
    for u in factors:
        for g in elements + others:
            product = unitriangular_times(u, g)
            assert product == u * g
            assert hash(product) == hash(u * g)


def test_unitriangular_times_rejects_other_factors():
    n1 = entries_of(GENERATORS[0])
    changed_diagonal = matrix_of(
        [[n1[i][j] + (ONE if (i, j) == (1, 1) else ZERO) for j in range(3)] for i in range(3)]
    )
    # a unit diagonal with entries above and below it
    both_sides = matrix_of(
        [[n1[i][j] + (ONE if (i, j) == (2, 0) else ZERO) for j in range(3)] for i in range(3)]
    )
    minus_identity = scaled(IDENTITY, -1)
    for u in (J, ZETA_IDENTITY, minus_identity, changed_diagonal, both_sides):
        with pytest.raises(ValueError, match="not unitriangular"):
            unitriangular_times(u, IDENTITY)


def test_inverse_matches_reference():
    rng = random.Random(13)
    for g in _large_elements(14):
        inverse = g.inverse()
        assert inverse == reference_inverse(g)
        assert g * inverse == IDENTITY
        assert inverse * g == IDENTITY
    # the index permutation is J * conj(g)^t * J on any matrix
    for _ in range(100):
        g = _arbitrary_matrix(rng, 50)
        assert g.inverse() == reference_inverse(g)


def test_is_unitary_matches_reference():
    n1 = entries_of(GENERATORS[0])
    changed = matrix_of(
        [[n1[i][j] + (ONE if (i, j) == (1, 2) else ZERO) for j in range(3)] for i in range(3)]
    )
    unitary = [
        IDENTITY,
        J,
        ZETA_IDENTITY,
        scaled(IDENTITY, -1),
        scaled(make_n_transpose(2, -1, 1), ZETA),
        *GENERATORS,
        *_large_elements(15),
    ]
    not_unitary = [
        scaled(IDENTITY, 2),
        scaled(IDENTITY, SQRT_MINUS3),
        changed,
        scaled(make_n_transpose(2, -1, 1), 2),
        scaled(make_n_transpose(2, -1, 1), SQRT_MINUS3),
    ]
    rng = random.Random(16)
    not_unitary += [_arbitrary_matrix(rng, bound) for bound in (1, 50) for _ in range(50)]
    for g in unitary:
        assert g.is_unitary() and reference_is_unitary(g)
    for g in not_unitary:
        assert not g.is_unitary() and not reference_is_unitary(g)


def test_inverse_and_unitarity_product_counts(monkeypatch):
    """inverse() permutes and conjugates entries without a product, and
    is_unitary() is one product."""
    g = _large_elements(17)[-1]
    calls = []
    original = GroupMatrix.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(GroupMatrix, "__mul__", counted)
    g.inverse()
    assert len(calls) == 0
    assert g.is_unitary()
    assert len(calls) == 1


def test_constructor_validates_entries():
    with pytest.raises(ValueError):
        GroupMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        GroupMatrix([[(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)]])
    with pytest.raises(ValueError):
        GroupMatrix([[(1, 0), (0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 0)]])
    # every cell is a pair and every coordinate's type is int, as a
    # pickle's restore requires
    for odd in ((True, 0), (1.0, 0), (1, 0.0), ("1", 0), (1, 0, 0), (1,), "10", ONE):
        with pytest.raises(ValueError, match="expected a pair of integers"):
            GroupMatrix([[odd, (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]])
    g = GroupMatrix([[(1, 0), (0, 1), (0, 0)], [(0, 0), [1, 0], (0, 0)], [(0, 0), (0, 0), (1, 0)]])
    assert g.entries == (((1, 0), (0, 1), (0, 0)), ((0, 0), (1, 0), (0, 0)), ((0, 0), (0, 0), (1, 0)))
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and clone.coords == g.coords


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        g = random_upsilon_element(rng, 8)
        h = random_upsilon_element(rng, 8)
        assert (g * h).det() == (EisensteinInt(*g.det()) * EisensteinInt(*h.det())).pair()


def test_zeta_identity_outside_upsilon():
    assert in_gamma_sqrt3(ZETA_IDENTITY)
    assert not in_upsilon(ZETA_IDENTITY)
    assert ZETA_IDENTITY * ZETA_IDENTITY * ZETA_IDENTITY == IDENTITY


def test_in_gamma_beta_rejects():
    n1 = generators_upsilon()[0]
    assert not in_gamma_beta(n1, EisensteinInt(3, 0))
    assert in_gamma_beta(IDENTITY, EisensteinInt(3, 0))


def _oracle_in_upsilon(g):
    return in_gamma_beta(g, SQRT_MINUS3) and divides(EisensteinInt(3, 0), entries_of(g)[0][0] - ONE)


def _check_membership(g):
    """in_gamma_sqrt3, in_upsilon and the membership of three specs agree
    with the divisibility oracle on g; returns the two oracle answers."""
    at_sqrt3 = in_gamma_beta(g, SQRT_MINUS3)
    in_ambient = _oracle_in_upsilon(g)
    assert in_gamma_sqrt3(g) == at_sqrt3
    assert spec_membership(SubgroupSpec.parse("gamma_sqrt3"), g) == at_sqrt3
    assert in_upsilon(g) == in_ambient
    assert spec_membership(SubgroupSpec.parse("upsilon"), g) == in_ambient
    at_3 = in_gamma_beta(g, EisensteinInt(3, 0))
    assert spec_membership(SubgroupSpec.parse("gamma3"), g) == at_3
    return at_sqrt3, in_ambient


def test_membership_matches_the_divisibility_oracle():
    """The residue rule (3 divides a + b - [i == j] for every entry), the
    det check and the unitarity check, each made to decide on its own."""
    rng = random.Random(14)
    for g in GENERATORS:
        assert _check_membership(g) == (True, True)
    seen = Counter()
    for _ in range(100):
        g = random_upsilon_element(rng, 10)
        assert _check_membership(g) == (True, True)
        for x in (ZETA_IDENTITY * g, scaled(g, SQRT_MINUS3)):
            seen[_check_membership(x)] += 1
    assert seen == {(True, False): 100, (False, False): 100}
    diag_zeta = matrix_of([[ZETA, 0, 0], [0, 1, 0], [0, 0, ZETA]])
    shear = matrix_of([[1, SQRT_MINUS3, 0], [0, 1, 0], [0, 0, 1]])
    # congruent to I, unitary, det zeta^2: only the det check rejects it
    assert diag_zeta.is_unitary() and diag_zeta.det() == (ZETA * ZETA).pair()
    # congruent to I, det 1, not unitary: only the unitarity check rejects it
    assert shear.det() == (1, 0) and not shear.is_unitary()
    for g, expected in [
        (ZETA_IDENTITY, (True, False)),
        (diag_zeta, (False, False)),
        (shear, (False, False)),
        (scaled(IDENTITY, 2), (False, False)),
    ]:
        assert _check_membership(g) == expected


def test_entry_rule_matches_the_divisibility_oracle(monkeypatch):
    """With the det and unitarity checks made to pass, in_gamma_sqrt3
    decides by the entries alone: every a + b*zeta with |a|, |b| <= 6 in
    each of the nine places of I; in_upsilon adds g00 = 1 mod 3."""
    tails = Counter()

    def det(self):
        tails["det"] += 1
        return 1, 0

    def is_unitary(self):
        tails["is_unitary"] += 1
        return True

    monkeypatch.setattr(GroupMatrix, "det", det)
    monkeypatch.setattr(GroupMatrix, "is_unitary", is_unitary)
    three = EisensteinInt(3, 0)
    members = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            z = EisensteinInt(a, b)
            for i in range(3):
                for j in range(3):
                    g = GroupMatrix(
                        [[(a, b) if (r, c) == (i, j) else IDENTITY[r][c] for c in range(3)] for r in range(3)]
                    )
                    congruent = divides(SQRT_MINUS3, z - (1 if i == j else 0))
                    assert in_gamma_sqrt3(g) == congruent
                    expected = congruent and divides(three, entries_of(g)[0][0] - ONE)
                    assert in_upsilon(g) == expected
                    members += congruent
    # of the 169 values, 57 have a + b = 0 mod 3 and 56 have a + b = 1; each
    # member reaches both tail checks once per in_gamma_sqrt3 call
    assert members == 6 * 57 + 3 * 56
    assert tails["det"] == tails["is_unitary"] > members


def test_scalar_matrix_not_unitary_unless_unit():
    g = scaled(IDENTITY, 2)
    assert not g.is_unitary()


def test_format_entry_and_str():
    """An entry a + b*zeta prints as a, b*zeta or a+b*zeta with b's sign."""
    cases = {(3, 0): "3", (0, 0): "0", (0, 1): "1*zeta", (0, -2): "-2*zeta",
             (-1, -1): "-1-1*zeta", (2, 5): "2+5*zeta", (-7, 0): "-7"}
    assert {pair: format_entry(*pair) for pair in cases} == cases
    assert str(matrix_of([[ZETA, 0, 0], [0, 1, 0], [-1 - ZETA, 0, ZETA]])) == (
        "[   1*zeta          0          0]\n"
        "[        0          1          0]\n"
        "[-1-1*zeta          0     1*zeta]"
    )


def test_f_map_generator_values():
    n1, n2, n3, n4, n5 = generators_upsilon()
    assert F_map(n1) == (1, 2, 0, 0)
    assert F_map(n2) == (1, 2, 0, 0)
    assert F_map(n3) == (0, 1, 0, 0)
    assert F_map(n4) == (0, 0, 1, 2)
    assert F_map(n5) == (0, 0, 0, 1)


def test_f_map_is_homomorphism():
    """F_map adds under products and agrees with dividing each entry by
    sqrt(-3), on short words and on words whose entries exceed 10^20."""
    rng = random.Random(8)
    largest = 0
    for min_len in [1] * 120 + [160] * 20:
        g = random_upsilon_element(rng, max(8, min_len), min_len)
        h = random_upsilon_element(rng, max(8, min_len), min_len)
        fg, fh, fgh = F_map(g), F_map(h), F_map(g * h)
        assert fgh == tuple((x + y) % 3 for x, y in zip(fg, fh))
        for x, fx in ((g, fg), (h, fh), (g * h, fgh)):
            assert fx == divided_f_coordinates(x)
            largest = max(largest, *(abs(a) + abs(b) for row in x.entries for a, b in row))
    assert largest > 10**20


def test_f_map_kernel_is_level_3():
    rng = random.Random(9)
    three = EisensteinInt(3, 0)
    seen_nonzero = 0
    for _ in range(80):
        g = random_upsilon_element(rng, 10)
        if F_map(g) == (0, 0, 0, 0):
            assert in_gamma_beta(g, three)
        else:
            assert not in_gamma_beta(g, three)
            seen_nonzero += 1
    assert seen_nonzero > 0


def test_f_map_rejects_non_members():
    with pytest.raises(ValueError):
        F_map(ZETA_IDENTITY)


def test_index3_vectors():
    vectors = all_index3_vectors()
    assert len(vectors) == 40
    assert vectors == sorted(vectors)
    # a single row is canonical when its first nonzero entry is 1
    assert all(SubgroupSpec((v,)).rows == (v,) for v in vectors)
    assert SubgroupSpec(((2, 0, 0, 0),)).rows == ((1, 0, 0, 0),)
    assert SubgroupSpec(((2, 2, 0, 1),)).rows == ((1, 1, 0, 2),)
    assert SubgroupSpec(((-1, 0, 0, 0),)).rows == ((1, 0, 0, 0),)
    # a vector that is zero mod 3 defines no index-3 subgroup
    with pytest.raises(ValueError):
        SubgroupSpec.parse("index3:0,0,0,0")
    with pytest.raises(ValueError):
        SubgroupSpec.parse("index3:3,3,0,0")


def test_in_index3():
    n1, n2, n3, n4, n5 = generators_upsilon()
    v = (1, 0, 0, 0)
    assert not in_index3(n1, v)
    assert in_index3(n3, v)
    assert in_index3(n5, v)
    assert in_index3(n1 * n2.inverse(), v)


def test_subgroup_spec():
    spec = SubgroupSpec.parse("index3:2,0,0,0")
    assert spec.rows == ((1, 0, 0, 0),)
    assert spec.name() == "index3:1,0,0,0"
    assert spec.index_in_upsilon() == 3
    assert SubgroupSpec.parse("upsilon").index_in_upsilon() == 1
    assert SubgroupSpec.parse("gamma3").index_in_upsilon() == 81
    with pytest.raises(ValueError):
        SubgroupSpec.parse("gamma_sqrt3").index_in_upsilon()
    with pytest.raises(ValueError):
        SubgroupSpec.parse("nonsense")
    with pytest.raises(ValueError):
        SubgroupSpec.parse("index3:0,0,0")
    with pytest.raises(ValueError):
        SubgroupSpec(((1, 0, 0),))
    for row in ((1.5, 0, 0, 0), ("2", 0, 0, 0), (True, 0, 0, 0), (1, 0, 0, 2.0)):
        with pytest.raises(TypeError):
            SubgroupSpec([row])
    assert SubgroupSpec.parse("index3:1,0,0,0") == spec
    assert len({spec, SubgroupSpec.parse("index3:2,0,0,0")}) == 1


def test_subgroup_spec_lattice():
    """All subspaces of F_3^4 by dimension: the Gaussian binomials
    [4 k]_3 = 1, 40, 130, 40, 1, each with its own name, which parses back
    to the same spec."""
    specs = lattice_specs()
    assert Counter(spec.index_in_upsilon() for spec in specs) == {
        1: 1, 3: 40, 9: 130, 27: 40, 81: 1
    }
    assert len({spec.name() for spec in specs}) == 212
    for spec in specs:
        assert SubgroupSpec.parse(spec.name()) == spec
    assert specs[0].name() == "upsilon"
    assert specs[-1].name() == "gamma3"
    assert SubgroupSpec.parse("index81:1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1").name() == "gamma3"


def test_subgroup_spec_canonical_rows():
    # rows spanning the same subspace give one spec, with one hash and name
    spec = SubgroupSpec([(1, 1, 0, 0), (1, 2, 0, 0), (2, 0, 0, 0)])
    assert spec == SubgroupSpec.parse("index9:1,0,0,0;0,1,0,0")
    assert spec.name() == "index9:1,0,0,0;0,1,0,0"
    rng = random.Random(12)
    for spec in rng.sample(lattice_specs(), 40):
        spanning = [tuple(2 * x for x in row) for row in spec.rows]
        for _ in range(3):
            coefficients = [rng.randrange(3) for _ in spec.rows]
            spanning.append(
                tuple(
                    sum(c * row[i] for c, row in zip(coefficients, spec.rows))
                    + 3 * rng.randint(-2, 2)
                    for i in range(4)
                )
            )
        rng.shuffle(spanning)
        other = SubgroupSpec(spanning)
        assert other == spec
        assert hash(other) == hash(spec)
        assert other.name() == spec.name()


@pytest.mark.parametrize(
    "text",
    [
        "index9:1,0,0,0",
        "index3:0,0,0,0",
        "index27:1,0,0,0;0,1,0,0;1,1,0,0",
        "index3:1,0,0",
        "index3:1,0,0,0,0",
        "index9:1,0,0,0;0,1,0",
        "index3:1.5,0,0,0",
        "index3:a,b,c,d",
        "index3:",
        "index:1,0,0,0",
    ],
)
def test_subgroup_spec_rejects_bad_rows(text):
    with pytest.raises(ValueError):
        SubgroupSpec.parse(text)


def test_gamma3_membership_is_the_level_3_test():
    # F_map is a homomorphism onto the abelian group F_3^4, so cubes and
    # commutators lie in its kernel Gamma(3), and most random elements not;
    # zeta * g lies outside the ambient group
    rng = random.Random(13)
    gamma3 = SubgroupSpec.parse("gamma3")
    three = EisensteinInt(3, 0)
    seen = Counter()
    for _ in range(60):
        g = random_upsilon_element(rng, 8)
        h = random_upsilon_element(rng, 8)
        for x in (g, g * g * g, g * h * g.inverse() * h.inverse(), ZETA_IDENTITY * g):
            expected = in_gamma_beta(x, three)
            assert spec_membership(gamma3, x) == expected
            seen[expected] += 1
    assert seen[True] >= 120
    assert seen[False] >= 60


def test_subgroup_spec_membership():
    n1 = generators_upsilon()[0]
    assert spec_membership(SubgroupSpec.parse("upsilon"), n1)
    assert spec_membership(SubgroupSpec.parse("gamma_sqrt3"), n1)
    assert spec_membership(SubgroupSpec.parse("gamma_sqrt3"), ZETA_IDENTITY)
    assert not spec_membership(SubgroupSpec.parse("gamma3"), n1)
    assert not spec_membership(SubgroupSpec.parse("index3:1,0,0,0"), n1)
    cube = n1 * n1 * n1
    assert spec_membership(SubgroupSpec.parse("index3:1,0,0,0"), cube)


def test_subgroup_spec_coset_key():
    # g and h lie in one right coset H*g exactly when g * h^-1 is in H
    rng = random.Random(11)
    specs = [SubgroupSpec.parse(name) for name in ("upsilon", "gamma3", "index3:1,2,0,1")]
    elements = [random_upsilon_element(rng, 6) for _ in range(12)]
    for spec in specs:
        for g in elements:
            for h in elements:
                same = spec_coset_key(spec, g) == spec_coset_key(spec, h)
                assert same == spec_membership(spec, g * h.inverse()), spec.name()
    assert spec_coset_key(SubgroupSpec.parse("gamma3"), elements[0]) == F_map(elements[0])
    # gamma_sqrt3 is its own ambient group: one coset, one key
    assert spec_coset_key(SubgroupSpec.parse("gamma_sqrt3"), IDENTITY) == ()
    assert spec_coset_key(SubgroupSpec.parse("gamma_sqrt3"), ZETA_IDENTITY) == ()


def test_coset_action_moves_points_as_the_key():
    """Acting with the letters of a word from the base point reaches the
    coset key of the word's value, on upsilon, gamma3 and six index-3, 9
    and 27 groups; gamma_sqrt3's one point () is fixed by all six of its
    generators, c = zeta*I included."""
    rng = random.Random(16)
    names = ("upsilon", "gamma3", "index3:1,2,0,1", "index3:0,0,0,1",
             "index9:1,0,0,0;0,1,0,0", "index9:1,1,0,2;0,0,1,1",
             "index27:1,0,0,0;0,1,0,0;0,0,1,2", "index27:1,0,2,0;0,1,1,0;0,0,0,1")
    for spec in map(SubgroupSpec.parse, names):
        base, act = spec.coset_action()
        assert base == spec_coset_key(spec, IDENTITY) == (0,) * len(spec.rows)
        for _ in range(20):
            word = random_word(rng, 12)
            point = base
            for i, s in word.letters:
                point = act(point, i, s)
            assert point == spec_coset_key(spec, evaluate_word(word, GENERATORS)), spec.name()
    base, act = SubgroupSpec.parse("gamma_sqrt3").coset_action()
    assert base == ()
    assert {act(base, i, s) for i in range(6) for s in (1, -1)} == {()}


def test_translation_tables_act_as_the_arithmetic():
    """On every group between Gamma(3) and upsilon, and on gamma_sqrt3, the
    table lookup of coset_action moves every point by every generator and
    its inverse as the arithmetic oracle does, from the same base point."""
    specs = lattice_specs() + (SubgroupSpec.parse("gamma_sqrt3"),)
    checked = 0
    for spec in specs:
        base, act = spec.coset_action()
        oracle_base, oracle = arithmetic_action(spec)
        assert base == oracle_base, spec.name()
        points = list(product(range(3), repeat=len(base)))
        generators = range(6 if spec.rows is None else 5)
        for point, gi, sign in product(points, generators, (1, -1)):
            assert act(point, gi, sign) == oracle(point, gi, sign), (spec.name(), point, gi, sign)
            checked += 1
    assert len(specs) == 213
    assert checked == sum(3 ** len(s.rows) * 10 for s in specs[:-1]) + 12


def test_json_round_trip():
    rng = random.Random(10)
    for _ in range(20):
        g = random_upsilon_element(rng, 8)
        assert GroupMatrix.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError):
        GroupMatrix.from_json_dict({"entries": [[[0, 0]] * 3] * 2})
    with pytest.raises(ValueError):
        GroupMatrix.from_json_dict({})


def test_entry_and_rows_read_the_coordinates():
    rng = random.Random(15)
    for _ in range(20):
        rows = [[random_eisenstein(rng, 10**6).pair() for _ in range(3)] for _ in range(3)]
        g = GroupMatrix(rows)
        assert [[g.entry(i, j) for j in range(3)] for i in range(3)] == rows
        assert [list(row) for row in g] == [list(row) for row in g.entries] == rows
        assert g[-1] == g[2]
    for i, j in [(0, 3), (3, 0), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            g.entry(i, j)
    with pytest.raises(IndexError):
        g[3]


def test_matrix_immutability_and_hash():
    g = generators_upsilon()[0]
    with pytest.raises(AttributeError):
        g.entries = ()
    h = make_n(1, 0, 1)
    assert hash(g) == hash(h)
    assert len({g, h}) == 1
