"""The reference Eisenstein arithmetic of tests/helpers.py, the oracle of
the package's integer-pair kernels, and the pair form of an entry."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su21.matgroup import GroupMatrix
from helpers import (
    ONE,
    SQRT_MINUS3,
    ZERO,
    ZETA,
    EisensteinInt,
    NotDivisibleError,
    divides,
    embed,
    matrix_of,
)

coords = st.integers(min_value=-10**6, max_value=10**6)
eis = st.builds(EisensteinInt, coords, coords)


def test_constants():
    assert ZERO == EisensteinInt(0, 0) == EisensteinInt(0)
    assert ONE == EisensteinInt(1, 0) == EisensteinInt(1)
    assert ZETA == EisensteinInt(0, 1)
    assert SQRT_MINUS3 == EisensteinInt(1, 2)


def test_zeta_is_primitive_cube_root():
    assert ZETA * ZETA * ZETA == ONE
    assert ZETA * ZETA + ZETA + ONE == ZERO


def test_sqrt_minus3_squares_to_minus_three():
    assert SQRT_MINUS3 * SQRT_MINUS3 == EisensteinInt(-3, 0)
    assert SQRT_MINUS3 == ONE + ZETA * 2


@given(eis, eis, eis)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    assert x + (-x) == ZERO


@given(eis, eis)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(eis)
def test_norm_conj_trace(x):
    assert x * x.conj() == EisensteinInt(x.norm(), 0)
    assert x + x.conj() == EisensteinInt(2 * x.a - x.b, 0)
    assert x.conj().conj() == x
    assert x.norm() >= 0
    assert (x.norm() == 0) == x.is_zero()


@given(eis, eis)
def test_conj_is_ring_map(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


def test_int_coercion():
    assert EisensteinInt(2, 3) + 4 == EisensteinInt(6, 3)
    assert 4 + EisensteinInt(2, 3) == EisensteinInt(6, 3)
    assert EisensteinInt(2, 3) * 2 == EisensteinInt(4, 6)
    assert 2 * EisensteinInt(2, 3) == EisensteinInt(4, 6)
    assert 5 - EisensteinInt(2, 3) == EisensteinInt(3, -3)


def test_embedding_is_ring_map():
    rng = random.Random(7)
    for _ in range(200):
        x = EisensteinInt(rng.randint(-50, 50), rng.randint(-50, 50))
        y = EisensteinInt(rng.randint(-50, 50), rng.randint(-50, 50))
        assert abs(embed(x + y) - (embed(x) + embed(y))) < 1e-9
        assert abs(embed(x * y) - embed(x) * embed(y)) < 1e-6
        assert abs(x.norm() - abs(embed(x)) ** 2) < 1e-6
        assert abs(embed(x.conj()) - embed(x).conjugate()) < 1e-9


@given(eis, eis)
def test_div_exact_multiplies_back(w, q):
    if w.is_zero():
        return
    z = w * q
    assert divides(w, z)
    assert z.div_exact(w) == q


def test_div_exact_rejects_nondivisible():
    assert not divides(SQRT_MINUS3, ONE)
    with pytest.raises(NotDivisibleError):
        ONE.div_exact(SQRT_MINUS3)
    with pytest.raises(NotDivisibleError):
        EisensteinInt(1, 1).div_exact(EisensteinInt(2, 0))


def test_division_by_zero():
    with pytest.raises(NotDivisibleError):
        ONE.div_exact(ZERO)
    assert not divides(ZERO, ONE)
    assert divides(ZERO, ZERO)


def test_zeta_congruent_one_mod_sqrt_minus3():
    assert divides(SQRT_MINUS3, ZETA - 1)
    assert (ZETA - 1).div_exact(SQRT_MINUS3) * SQRT_MINUS3 == ZETA - 1


def test_pair_round_trip():
    """An entry a + b*zeta is the pair (a, b) in a GroupMatrix and [a, b] in
    its JSON."""
    z = EisensteinInt(-7, 12)
    assert EisensteinInt(*z.pair()) == z
    assert z.pair() == (-7, 12)
    g = matrix_of([[1, z, 0], [0, 1, 0], [0, 0, 1]])
    assert g.entry(0, 1) == (-7, 12)
    assert g.to_json_dict()["entries"][0] == [[1, 0], [-7, 12], [0, 0]]
    assert GroupMatrix.from_json_dict(g.to_json_dict()) == g


def test_immutability_and_hash():
    z = EisensteinInt(1, 2)
    with pytest.raises(AttributeError):
        z.a = 5
    assert hash(EisensteinInt(1, 2)) == hash(z)
    assert len({EisensteinInt(1, 2), EisensteinInt(1, 2), ZETA}) == 2


def test_repr_and_str():
    assert repr(EisensteinInt(3, -4)) == "EisensteinInt(3, -4)"
    assert isinstance(str(EisensteinInt(3, -4)), str)
