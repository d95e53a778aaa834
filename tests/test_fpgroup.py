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
from su21.matgroup import IDENTITY, SubgroupSpec, all_index3_vectors
from helpers import (
    GENERATORS,
    cyclic_shift,
    exponent_sums,
    predicate_scan_presentation,
    schreier_edges,
    sparse_rows,
    trace_words,
)

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
    shifted = cyclic_shift(w, k)
    if w.letters:
        j = k % len(w.letters)
        prefix = Word(w.letters[:j])
        assert shifted == prefix.inverse() * w * prefix
    else:
        assert shifted == w


def test_exponent_sums():
    w = Word.from_string("n1 n2^-1 n1 n3^2", ("n1", "n2", "n3", "n4", "n5"))
    assert exponent_sums(w, 5) == [2, -1, 2, 0, 0]
    with pytest.raises(ValueError):
        exponent_sums(w, 2)


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


def exponent_sum_key(generator, modulus, generator_count=2):
    """Coset key and membership of the kernel of w -> (exponent sum of one
    generator) mod modulus."""

    def key(w):
        return exponent_sums(w, generator_count)[generator] % modulus

    return key, lambda w: key(w) == 0


def parity_key(w):
    return sum(exponent_sums(w, 2)) % 2


def test_reidemeister_schreier_free_group_index3():
    free = Presentation(("a", "b"), ())
    rows, generator_count, graph = reidemeister_schreier(
        free, *exponent_sum_key(0, 3), max_index=16
    )
    assert graph.index == 3
    assert generator_count == 4  # Nielsen-Schreier: 1 + 3*(2-1)
    assert len(rows) == 0


def test_reidemeister_schreier_free_group_index2():
    free = Presentation(("a", "b"), ())
    rows, generator_count, graph = reidemeister_schreier(
        free, parity_key, lambda w: parity_key(w) == 0, max_index=16
    )
    assert graph.index == 2
    assert generator_count == 3
    assert len(rows) == 0


def test_reidemeister_schreier_cyclic_quotient():
    # Z = <a | > ; subgroup 4Z has index 4 and is generated by a^4
    free = Presentation(("a",), ())
    rows, generator_count, graph = reidemeister_schreier(
        free, *exponent_sum_key(0, 4, generator_count=1), max_index=8
    )
    assert graph.index == 4
    assert generator_count == 1
    assert len(rows) == 0


def test_reidemeister_schreier_with_matrix_images():
    p = upsilon_presentation()
    spec = SubgroupSpec(((1, 0, 0, 0),))
    rows, generator_count, graph = reidemeister_schreier(
        p, spec.coset_key, spec.membership, max_index=16
    )
    assert graph.index == 3
    # one generator per positive edge off the spanning tree, one relator per
    # ambient relator and coset, in that order
    assert generator_count == 3 * 5 - 2
    assert len(rows) == 13 * 3
    assert graph.vertices[0] == IDENTITY
    # every edge v -> w joins the cosets of r_v * step and r_w
    for (vi, (gi, sign)), wj in graph.edges.items():
        step = p.images[gi] if sign == 1 else p.images[gi].inverse()
        m = graph.vertices[vi] * step
        assert spec.coset_key(m) == spec.coset_key(graph.vertices[wj])
        assert spec.membership(m * graph.vertices[wj].inverse())
    # with generator k standing for r * x * r'^-1 of the k-th Schreier edge,
    # the trace of relator k from coset v is r_v * relator * r_v^-1 = I
    images = [
        graph.vertices[vi] * p.images[gi] * graph.vertices[graph.edges[(vi, (gi, 1))]].inverse()
        for vi, gi in schreier_edges(graph)
    ]
    assert len(images) == generator_count
    traces = trace_words(p, graph)
    assert len(traces) == len(rows)
    for trace in traces:
        assert evaluate_word(trace, images) == IDENTITY


def test_relation_rows_are_trace_exponent_sums():
    """The rows Reidemeister-Schreier traces straight from the coset graph
    are the exponent sums of the trace words, for upsilon (index 1, whose
    rows are the 13 relators' exponent sums), the 40 index-3 groups and
    gamma3."""
    p = upsilon_presentation()
    specs = [SubgroupSpec.parse("upsilon"), SubgroupSpec.parse("gamma3")]
    specs += [SubgroupSpec((v,)) for v in all_index3_vectors()]
    for spec in specs:
        rows, generator_count, graph = reidemeister_schreier(
            p, spec.coset_key, spec.membership, max_index=spec.index_in_upsilon()
        )
        assert graph.index == spec.index_in_upsilon()
        assert generator_count == len(schreier_edges(graph))
        traces = trace_words(p, graph)
        assert rows == sparse_rows(exponent_sums(t, generator_count) for t in traces)
        if spec.rows == ():
            assert rows == sparse_rows(exponent_sums(r, 5) for r in p.relators)


def test_reidemeister_schreier_index_overflow():
    free = Presentation(("a", "b"), ())
    with pytest.raises(IndexOverflowError):
        reidemeister_schreier(free, *exponent_sum_key(0, 7), max_index=3)
    with pytest.raises(ValueError):
        reidemeister_schreier(free, *exponent_sum_key(0, 7), max_index=0)


def clamped_key(w):
    # not constant on the cosets of any subgroup: a^2 and a^3 share a key
    return min(max(exponent_sums(w, 1)[0], 0), 2)


@pytest.mark.parametrize(
    "key, membership",
    [
        # the index-3 key with the index-2 predicate
        (lambda w: exponent_sums(w, 1)[0] % 3, lambda w: exponent_sums(w, 1)[0] % 2 == 0),
        # a key whose inverse edges do not reverse its positive edges
        (clamped_key, lambda w: exponent_sums(w, 1)[0] == 0),
    ],
)
def test_reidemeister_schreier_key_disagreeing_with_membership(key, membership):
    free = Presentation(("a",), (Word([(0, 1)] * 6),))
    with pytest.raises(OracleInconsistencyError):
        reidemeister_schreier(free, key, membership, max_index=16)


def test_reidemeister_schreier_identity_not_member():
    # predicate-scan oracle: the identity must pass the predicate
    free = Presentation(("a",), ())
    with pytest.raises(OracleInconsistencyError):
        predicate_scan_presentation(free, lambda w: False, max_index=4)


def test_reidemeister_schreier_inconsistent_predicate():
    # exponent sum in {0, 1} mod 3 is not closed under multiplication, so
    # the oracle's coset identification must detect a double match
    free = Presentation(("a", "b"), ())
    with pytest.raises(OracleInconsistencyError):
        predicate_scan_presentation(
            free, lambda w: exponent_sums(w, 2)[0] % 3 in (0, 1), max_index=16
        )


def test_word_hash_and_repr():
    w = Word([(0, 1), (1, -1)])
    assert hash(w) == hash(Word([(0, 1), (1, -1)]))
    assert "Word" in repr(w)
    assert w.to_string() == "g1 g2^-1"
