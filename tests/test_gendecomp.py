import random
from collections import Counter

import pytest

from su21 import gendecomp, matgroup
from su21.eisenstein import SQRT_MINUS3, EisensteinInt
from su21.fpgroup import EMPTY_WORD, Word, evaluate_word
from su21.gendecomp import (
    N2_TRANSPOSE_WORD,
    _descend_step,
    _rounded_half,
    decompose,
    first_column_height,
    nearest_lattice_point,
    unipotent_transpose_word,
    unipotent_word,
)
from su21.matgroup import (
    GENERATOR_NAMES,
    IDENTITY,
    ZETA_IDENTITY,
    GroupMatrix,
    generators_upsilon,
    make_n,
    make_n_transpose,
)
from helpers import (
    fraction_rounded_half,
    random_upsilon_element,
    random_word,
    window_nearest_lattice_point,
)

GENERATORS = generators_upsilon()


def ev(word):
    return evaluate_word(word, GENERATORS)


def test_nearest_lattice_point_fixes_integers():
    rng = random.Random(40)
    for _ in range(50):
        z = EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert nearest_lattice_point(z, 1) == z
        k = rng.randint(2, 9)
        assert nearest_lattice_point(z * k, k) == z


def test_nearest_lattice_point_tie_break():
    # 1/2 is equidistant from 0 and 1; the tie-break picks the
    # lexicographically smaller (trace, zeta-coordinate), i.e. 0.
    assert nearest_lattice_point(EisensteinInt(1, 0), 2) == EisensteinInt(0, 0)
    # (2 + zeta)/3, the centre of the triangle 0, 1, 1 + zeta, is
    # equidistant from all three; trace 0 < 1 picks 0 again.
    assert nearest_lattice_point(EisensteinInt(2, 1), 3) == EisensteinInt(0, 0)


def test_nearest_lattice_point_rejects_nonpositive_den():
    for den in (0, -3):
        with pytest.raises(ValueError):
            nearest_lattice_point(EisensteinInt(1, 0), den)


def test_nearest_lattice_point_is_a_minimizer():
    rng = random.Random(41)
    for _ in range(150):
        num = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        den = rng.randint(1, 12)
        best = nearest_lattice_point(num, den)
        d = (num - best * den).norm()
        # covering radius of the triangular lattice in this norm is 1/3
        assert 3 * d <= den * den
        for dp in range(-2, 3):
            for dq in range(-2, 3):
                other = EisensteinInt(best.a + dp, best.b + dq)
                assert (num - other * den).norm() >= d


def _window_ties(num, den):
    """How many points of the 4 x 4 oracle window are nearest to num/den."""
    p0, q0 = num.a // den, num.b // den
    norms = [
        (num - EisensteinInt(p0 + dp, q0 + dq) * den).norm()
        for dp in (-1, 0, 1, 2)
        for dq in (-1, 0, 1, 2)
    ]
    return norms.count(min(norms))


def test_nearest_lattice_point_matches_window_oracle():
    rng = random.Random(49)
    ties = 0
    for trial in range(3000):
        if trial % 3 == 0:
            den = rng.choice((2, 3, 6))
            bound = 20
        elif trial % 3 == 1:
            den = rng.randint(1, 30)
            bound = 200
        else:
            den = rng.randint(1, 10**6)
            bound = 10**30
        num = EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        assert nearest_lattice_point(num, den) == window_nearest_lattice_point(num, den)
        ties += _window_ties(num, den) > 1
    assert ties > 100


def test_rounded_half_matches_fraction_formula():
    rng = random.Random(50)
    for _ in range(3000):
        n = rng.choice((1, 2, 3, rng.randint(1, 50), rng.randint(1, 10**30)))
        u = rng.randint(-4 * n - 3, 4 * n + 3)
        assert _rounded_half(u, n) == fraction_rounded_half(u, n)


def test_first_column_height():
    assert first_column_height(IDENTITY) == 1
    n4 = GENERATORS[3]
    assert first_column_height(n4) == n4[0][0].norm() + n4[2][0].norm()


def test_unipotent_word_matches_matrix():
    rng = random.Random(42)
    for _ in range(80):
        z = EisensteinInt(rng.randint(-4, 4), rng.randint(-4, 4))
        x = 2 * rng.randint(-5, 5) + (z.norm() % 2)
        assert ev(unipotent_word(z, x)) == make_n(z, x)
        assert ev(unipotent_transpose_word(z, x)) == make_n_transpose(z, x)


def test_unipotent_word_parity_check():
    with pytest.raises(ValueError):
        unipotent_word(EisensteinInt(1, 0), 0)
    with pytest.raises(ValueError):
        unipotent_transpose_word(EisensteinInt(0, 0), 1)


def test_n2_transpose_word_identity():
    n2t = GENERATORS[1].transpose()
    assert ev(N2_TRANSPOSE_WORD) == n2t
    assert N2_TRANSPOSE_WORD.to_string(GENERATOR_NAMES) == (
        "n3^-1 n1 n4 n1 n3^-1 n3^-1 n2"
    )


def test_decompose_identity_and_generators():
    assert decompose(IDENTITY) == EMPTY_WORD
    for i, g in enumerate(GENERATORS):
        word = decompose(g)
        assert ev(word) == g


def test_decompose_pure_unipotent_power():
    g = ev(Word([(0, 1)]) ** 40)  # n1^40 has height 1: single base-case read
    word = decompose(g)
    assert ev(word) == g
    assert first_column_height(g) == 1


def test_descend_step_strictly_decreases_height():
    rng = random.Random(43)
    for _ in range(25):
        g = random_upsilon_element(rng, max_len=18)
        h = first_column_height(g)
        while h > 1:
            (z, x, transpose), reduced, _ = _descend_step(g)
            m = make_n_transpose(z, x) if transpose else make_n(z, x)
            assert m * g == reduced
            h2 = first_column_height(reduced)
            assert h2 < h
            g, h = reduced, h2


def test_decompose_round_trips():
    rng = random.Random(44)
    for _ in range(60):
        g = random_upsilon_element(rng, max_len=25)
        word = decompose(g)
        assert ev(word) == g


def test_descent_work_is_pinned(monkeypatch):
    """Total descent steps and word letters over a seeded set of elements,
    so that a change of nearest point or of tie-breaking shows; and the
    work decompose does on them: one div_exact (z of the base case), one
    make_n per step and base case, one Word per step and base case and one
    for the result, and the EisensteinInt values its Eisenstein arithmetic
    and entry reads make (matrix products and membership make none but the
    value of det())."""
    rng = random.Random(48)
    elements = [ev(random_word(rng, 64, min_len=8)) for _ in range(20)]
    steps = 0
    for current in elements:
        while first_column_height(current) > 1:
            _, current, _ = _descend_step(current)
            steps += 1
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        EisensteinInt, "div_exact", counted("div_exact", EisensteinInt.div_exact)
    )
    counted_make_n = counted("make_n", matgroup.make_n)
    monkeypatch.setattr(matgroup, "make_n", counted_make_n)
    monkeypatch.setattr(gendecomp, "make_n", counted_make_n)
    monkeypatch.setattr(Word, "__init__", counted("Word", Word.__init__))
    monkeypatch.setattr(
        EisensteinInt, "__init__", counted("EisensteinInt", EisensteinInt.__init__)
    )
    letters = sum(len(decompose(g)) for g in elements)
    assert (steps, letters) == (300, 1003)
    assert counts == {
        "div_exact": 20,
        "make_n": 300 + 20,
        "Word": 300 + 2 * 20,
        "EisensteinInt": 6480,
    }


def test_decompose_inverts_each_generator_once(monkeypatch):
    """Verifying the word evaluates it with one inverse per generator;
    the unitarity check on g inverts g once more."""
    rng = random.Random(47)
    word = EMPTY_WORD
    while len(word) < 60:
        word = word * random_word(rng, 1)
    g = ev(word)
    calls = []
    original = GroupMatrix.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GroupMatrix, "inverse", counted)
    found = decompose(g)
    assert calls.count(g) == 1
    assert len(calls) - 1 <= 5
    monkeypatch.undo()
    assert len(word) == 60 and ev(found) == g


def test_decompose_rejects_non_members():
    with pytest.raises(ValueError):
        decompose(ZETA_IDENTITY)  # unit scalar, outside the unipotent group
    bad = GroupMatrix(
        [
            [EisensteinInt(2, 0), EisensteinInt(0, 0), EisensteinInt(0, 0)],
            [EisensteinInt(0, 0), EisensteinInt(1, 0), EisensteinInt(0, 0)],
            [EisensteinInt(0, 0), EisensteinInt(0, 0), EisensteinInt(2, 0)],
        ]
    )
    with pytest.raises(ValueError):
        decompose(bad)
