import random
from collections import Counter

import pytest

from su21.eisenstein import ONE, SQRT_MINUS3, ZERO, ZETA, EisensteinInt
from su21.fpgroup import evaluate_word
from su21.matgroup import (
    IDENTITY,
    J,
    ZETA_IDENTITY,
    F_map,
    GroupMatrix,
    SubgroupSpec,
    all_index3_vectors,
    generators_upsilon,
    in_gamma_beta,
    in_upsilon,
    make_n,
    make_n_transpose,
)
from helpers import (
    GENERATORS,
    conj_transpose,
    in_index3,
    lattice_specs,
    random_eisenstein,
    random_upsilon_element,
    random_word,
    reference_inverse,
    reference_is_unitary,
    reference_product,
)


def test_j_is_antidiagonal():
    for i in range(3):
        for j in range(3):
            assert J[i][j] == (ONE if i + j == 2 else ZERO)


def test_identity_and_zeta_identity():
    assert IDENTITY.is_unitary()
    assert IDENTITY.det() == ONE
    assert ZETA_IDENTITY == IDENTITY.scalar_mul(ZETA)
    assert ZETA_IDENTITY.det() == ONE
    assert ZETA_IDENTITY.is_unitary()


def test_make_n_shape():
    z = EisensteinInt(2, -1)
    g = make_n(z, 1)
    assert g[0][0] == ONE and g[1][1] == ONE and g[2][2] == ONE
    assert g[0][1] == SQRT_MINUS3 * z
    assert g[1][2] == SQRT_MINUS3 * z.conj()
    assert g[1][0] == ZERO and g[2][0] == ZERO and g[2][1] == ZERO
    assert g[0][2] * 2 == SQRT_MINUS3 * 1 - 3 * z.norm()


def test_make_n_parity_validation():
    # x must have the parity of N(z)
    make_n(EisensteinInt(1, 0), 1)
    make_n(EisensteinInt(1, 0), -3)
    make_n(EisensteinInt(0, 0), 2)
    with pytest.raises(ValueError):
        make_n(EisensteinInt(1, 0), 2)
    with pytest.raises(ValueError):
        make_n(EisensteinInt(0, 0), 1)


def test_make_n_accepts_plain_int():
    assert make_n(0, 2) == make_n(ZERO, 2)
    assert make_n(1, 1) == make_n(ONE, 1)


def test_heisenberg_multiplication_law():
    rng = random.Random(99)
    for _ in range(200):
        z = EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))
        w = EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))
        x = 2 * rng.randint(-9, 9) + z.norm() % 2
        y = 2 * rng.randint(-9, 9) + w.norm() % 2
        q = (z.conj() * w).b
        assert make_n(z, x) * make_n(w, y) == make_n(z + w, x + y + 3 * q)


def test_unipotent_powers():
    z = EisensteinInt(1, -2)
    g = make_n(z, 1)
    power = IDENTITY
    for p in range(1, 6):
        power = power * g
        assert power == make_n(z * p, p)


def test_make_n_transpose():
    z = EisensteinInt(2, 1)
    assert make_n_transpose(z, 1) == make_n(z, 1).transpose()


def test_generators_membership():
    n1, n2, n3, n4, n5 = generators_upsilon()
    assert n1 == make_n(ONE, 1)
    assert n2 == make_n(ZETA, 1)
    assert n3 == make_n(ZERO, 2)
    assert n4 == n1.transpose()
    assert n5 == n3.transpose()
    for g in (n1, n2, n3, n4, n5):
        assert g.is_unitary()
        assert g.det() == ONE
        assert in_gamma_beta(g, SQRT_MINUS3)
        assert in_upsilon(g)


def test_random_words_stay_in_group():
    rng = random.Random(4)
    for _ in range(60):
        g = random_upsilon_element(rng, 12)
        assert g.is_unitary()
        assert g.det() == ONE
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
    return max(len(str(abs(c))) for row in g for e in row for c in (e.a, e.b))


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
    return GroupMatrix(
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
                    assert type(e) is EisensteinInt
                    assert type(e.a) is int and type(e.b) is int


def test_product_matches_reference_on_arbitrary_matrices():
    rng = random.Random(12)
    for bound in (1, 50, 10**40):
        for _ in range(100):
            g = _arbitrary_matrix(rng, bound)
            h = _arbitrary_matrix(rng, bound)
            assert g * h == reference_product(g, h)


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
    z = EisensteinInt(2, -1)
    n1 = GENERATORS[0]
    changed = GroupMatrix(
        [[n1[i][j] + (ONE if (i, j) == (1, 2) else ZERO) for j in range(3)] for i in range(3)]
    )
    unitary = [
        IDENTITY,
        J,
        ZETA_IDENTITY,
        IDENTITY.scalar_mul(EisensteinInt(-1, 0)),
        make_n_transpose(z, 1).scalar_mul(ZETA),
        *GENERATORS,
        *_large_elements(15),
    ]
    not_unitary = [
        IDENTITY.scalar_mul(EisensteinInt(2, 0)),
        IDENTITY.scalar_mul(SQRT_MINUS3),
        changed,
        make_n_transpose(z, 1).scalar_mul(EisensteinInt(2, 0)),
        make_n_transpose(z, 1).scalar_mul(SQRT_MINUS3),
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
        GroupMatrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    with pytest.raises(ValueError):
        GroupMatrix([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]])


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        g = random_upsilon_element(rng, 8)
        h = random_upsilon_element(rng, 8)
        assert (g * h).det() == g.det() * h.det()


def test_zeta_identity_outside_upsilon():
    assert in_gamma_beta(ZETA_IDENTITY, SQRT_MINUS3)
    assert not in_upsilon(ZETA_IDENTITY)
    assert ZETA_IDENTITY * ZETA_IDENTITY * ZETA_IDENTITY == IDENTITY


def test_in_gamma_beta_rejects():
    n1 = generators_upsilon()[0]
    assert not in_gamma_beta(n1, EisensteinInt(3, 0))
    assert in_gamma_beta(IDENTITY, EisensteinInt(3, 0))


def test_scalar_matrix_not_unitary_unless_unit():
    g = IDENTITY.scalar_mul(EisensteinInt(2, 0))
    assert not g.is_unitary()


def test_f_map_generator_values():
    n1, n2, n3, n4, n5 = generators_upsilon()
    assert F_map(n1) == (1, 2, 0, 0)
    assert F_map(n2) == (1, 2, 0, 0)
    assert F_map(n3) == (0, 1, 0, 0)
    assert F_map(n4) == (0, 0, 1, 2)
    assert F_map(n5) == (0, 0, 0, 1)


def test_f_map_is_homomorphism():
    rng = random.Random(8)
    for _ in range(120):
        g = random_upsilon_element(rng, 8)
        h = random_upsilon_element(rng, 8)
        fg, fh, fgh = F_map(g), F_map(h), F_map(g * h)
        assert fgh == tuple((x + y) % 3 for x, y in zip(fg, fh))


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
            assert gamma3.membership(x) == expected
            seen[expected] += 1
    assert seen[True] >= 120
    assert seen[False] >= 60


def test_subgroup_spec_membership():
    n1 = generators_upsilon()[0]
    assert SubgroupSpec.parse("upsilon").membership(n1)
    assert SubgroupSpec.parse("gamma_sqrt3").membership(n1)
    assert SubgroupSpec.parse("gamma_sqrt3").membership(ZETA_IDENTITY)
    assert not SubgroupSpec.parse("gamma3").membership(n1)
    assert not SubgroupSpec.parse("index3:1,0,0,0").membership(n1)
    cube = n1 * n1 * n1
    assert SubgroupSpec.parse("index3:1,0,0,0").membership(cube)


def test_subgroup_spec_coset_key():
    # g and h lie in one right coset H*g exactly when g * h^-1 is in H
    rng = random.Random(11)
    specs = [SubgroupSpec.parse(name) for name in ("upsilon", "gamma3", "index3:1,2,0,1")]
    elements = [random_upsilon_element(rng, 6) for _ in range(12)]
    for spec in specs:
        for g in elements:
            for h in elements:
                same = spec.coset_key(g) == spec.coset_key(h)
                assert same == spec.membership(g * h.inverse()), spec.name()
    assert SubgroupSpec.parse("gamma3").coset_key(elements[0]) == F_map(elements[0])
    with pytest.raises(ValueError):
        SubgroupSpec.parse("gamma_sqrt3").coset_key(IDENTITY)


def test_json_round_trip():
    rng = random.Random(10)
    for _ in range(20):
        g = random_upsilon_element(rng, 8)
        assert GroupMatrix.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError):
        GroupMatrix.from_json_dict({"entries": [[[0, 0]] * 3] * 2})
    with pytest.raises(ValueError):
        GroupMatrix.from_json_dict({})


def test_matrix_immutability_and_hash():
    g = generators_upsilon()[0]
    with pytest.raises(AttributeError):
        g.entries = ()
    h = make_n(ONE, 1)
    assert hash(g) == hash(h)
    assert len({g, h}) == 1
