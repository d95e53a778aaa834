import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su21.fpgroup import (
    EMPTY_WORD,
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    evaluate_word,
    reidemeister_schreier,
    upsilon_presentation,
)
from su21.matgroup import IDENTITY, generators_upsilon, in_gamma_beta, in_index3
from su21.eisenstein import EisensteinInt
from helpers import GENERATORS, random_word

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from((1, -1))),
    max_size=30,
)
words = st.builds(Word, letters)


def test_word_free_reduction():
    w = Word([(0, 1), (0, -1)])
    assert w == EMPTY_WORD
    w = Word([(0, 1), (1, 1), (1, -1), (0, -1)])
    assert w == EMPTY_WORD
    w = Word([(0, 1), (1, 1), (0, -1)])
    assert len(w) == 3


def test_word_validation():
    with pytest.raises(ValueError):
        Word([(0, 2)])
    with pytest.raises(ValueError):
        Word([(-1, 1)])


@given(words)
def test_free_reduce_idempotent(w):
    assert Word(w.letters) == w


@given(words, words)
def test_inverse_of_product(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert (u * u.inverse()) == EMPTY_WORD
    assert u.inverse().inverse() == u


@given(words, words, words)
def test_word_associativity(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words, st.integers(min_value=-4, max_value=4))
def test_word_powers(w, k):
    direct = EMPTY_WORD
    base = w if k >= 0 else w.inverse()
    for _ in range(abs(k)):
        direct = direct * base
    assert w**k == direct


@given(words, st.integers(min_value=0, max_value=10))
def test_cyclic_shift_is_conjugate(w, k):
    shifted = w.cyclic_shift(k)
    if w.letters:
        j = k % len(w.letters)
        prefix = Word(w.letters[:j])
        assert shifted == prefix.inverse() * w * prefix
    else:
        assert shifted == w


def test_exponent_sums():
    w = Word.from_string("n1 n2^-1 n1 n3^2", ("n1", "n2", "n3", "n4", "n5"))
    assert w.exponent_sums(5) == [2, -1, 2, 0, 0]
    with pytest.raises(ValueError):
        w.exponent_sums(2)


def test_word_string_round_trip():
    names = ("n1", "n2", "n3", "n4", "n5")
    for text in ("n1 n3^-1 n5", "n2^3 n4^-2", ""):
        w = Word.from_string(text, names)
        assert Word.from_string(w.to_string(names), names) == w
    assert Word.from_string("n1^0", names) == EMPTY_WORD
    with pytest.raises(ValueError):
        Word.from_string("bogus", names)
    with pytest.raises(ValueError):
        Word.from_string("n1^x", names)


def test_evaluate_word():
    n1, n2, n3, n4, n5 = GENERATORS
    w = Word.from_string("n1 n3^-1", ("n1", "n2", "n3", "n4", "n5"))
    assert evaluate_word(w, GENERATORS) == n1 * n3.inverse()
    assert evaluate_word(EMPTY_WORD, GENERATORS) == IDENTITY
    # abstract evaluation: words as images
    imgs = [Word([(i, 1)]) for i in range(5)]
    assert evaluate_word(w, imgs) == w


def test_presentation_verifies_relators():
    n1, n3 = GENERATORS[0], GENERATORS[2]
    good = Presentation(
        ("n1", "n3"), (Word([(0, 1), (1, 1), (0, -1), (1, -1)]),), (n1, n3)
    )
    assert good.relators[0] != EMPTY_WORD
    with pytest.raises(ValueError):
        # n1 and n4 do not commute
        Presentation(
            ("n1", "n4"),
            (Word([(0, 1), (1, 1), (0, -1), (1, -1)]),),
            (GENERATORS[0], GENERATORS[3]),
        )


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("a",), (Word([(1, 1)]),))
    with pytest.raises(ValueError):
        Presentation(("a", "b"), (), (IDENTITY,))


def test_upsilon_presentation_structure():
    p = upsilon_presentation()
    assert p.generator_count == 5
    assert p.generator_names == ("n1", "n2", "n3", "n4", "n5")
    assert len(p.relators) == 13
    assert p.images == tuple(GENERATORS)
    for r in p.relators:
        assert evaluate_word(r, p.images) == IDENTITY
    # expected relator lengths after free reduction
    assert sorted(len(r) for r in p.relators) == sorted(
        (4, 4, 4, 6, 7, 9, 10, 10, 11, 11, 12, 12, 16)
    )


def test_upsilon_relators_fix_generator_images():
    # relator traces depend on the generator images being exactly n1..n5
    p = upsilon_presentation()
    n1, n2, n3, n4, n5 = p.images
    assert n1 * n3 == n3 * n1
    assert n2 * n3 == n3 * n2
    assert n4 * n5 == n5 * n4
    g = n3 * n5
    assert g * g * g == IDENTITY


def test_reidemeister_schreier_free_group_index3():
    free = Presentation(("a", "b"), ())
    sub, graph = reidemeister_schreier(
        free, lambda w: w.exponent_sums(2)[0] % 3 == 0, max_index=16
    )
    assert graph.index == 3
    assert sub.generator_count == 4  # Nielsen-Schreier: 1 + 3*(2-1)
    assert len(sub.relators) == 0


def test_reidemeister_schreier_free_group_index2():
    free = Presentation(("a", "b"), ())
    sub, graph = reidemeister_schreier(
        free, lambda w: sum(w.exponent_sums(2)) % 2 == 0, max_index=16
    )
    assert graph.index == 2
    assert sub.generator_count == 3
    assert len(sub.relators) == 0


def test_reidemeister_schreier_cyclic_quotient():
    # Z = <a | > ; subgroup 4Z has index 4 and is generated by a^4
    free = Presentation(("a",), ())
    sub, graph = reidemeister_schreier(
        free, lambda w: w.exponent_sums(1)[0] % 4 == 0, max_index=8
    )
    assert graph.index == 4
    assert sub.generator_count == 1
    assert len(sub.relators) == 0


def test_reidemeister_schreier_with_matrix_images():
    p = upsilon_presentation()
    sub, graph = reidemeister_schreier(
        p, lambda g: in_index3(g, (1, 0, 0, 0)), max_index=16
    )
    assert graph.index == 3
    # subgroup generator images actually lie in the subgroup
    for image in sub.images:
        assert in_index3(image, (1, 0, 0, 0))
    # the constructor of the returned presentation has already verified that
    # every traced relator evaluates to the identity
    assert len(sub.relators) > 0
    # vertex 0 is the identity coset representative
    assert graph.vertices[0] == IDENTITY
    # every edge satisfies r * step = h * r'
    n_gens = p.generator_count
    for (vi, (gi, sign)), (wj, h) in graph.edges.items():
        step = p.images[gi] if sign == 1 else p.images[gi].inverse()
        assert graph.vertices[vi] * step == h * graph.vertices[wj]


def test_reidemeister_schreier_index_overflow():
    free = Presentation(("a", "b"), ())
    with pytest.raises(IndexOverflowError):
        reidemeister_schreier(
            free, lambda w: w.exponent_sums(2)[0] % 7 == 0, max_index=3
        )


def test_reidemeister_schreier_identity_not_member():
    free = Presentation(("a",), ())
    with pytest.raises(OracleInconsistencyError):
        reidemeister_schreier(free, lambda w: False, max_index=4)


def test_reidemeister_schreier_inconsistent_predicate():
    # exponent sum in {0, 1} mod 3 is not closed under multiplication, so
    # coset identification must detect a double match
    free = Presentation(("a", "b"), ())
    with pytest.raises(OracleInconsistencyError):
        reidemeister_schreier(
            free, lambda w: w.exponent_sums(2)[0] % 3 in (0, 1), max_index=16
        )


def test_word_hash_and_repr():
    w = Word([(0, 1), (1, -1)])
    assert hash(w) == hash(Word([(0, 1), (1, -1)]))
    assert "Word" in repr(w)
    assert w.to_string() == "g1 g2^-1"
