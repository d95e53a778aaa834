import pytest
from hypothesis import given
from hypothesis import strategies as st

from su21.fpgroup import (
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    evaluate_word,
    gamma_sqrt3_presentation,
    reidemeister_schreier,
    upsilon_presentation,
)
from su21.matgroup import IDENTITY, SubgroupSpec, all_index3_vectors
from helpers import (
    GENERATORS,
    SQRT_MINUS3,
    EisensteinInt,
    all_coset_rows,
    ambient_of,
    coset_representatives,
    cyclic_shift,
    exponent_sums,
    float_central_part,
    keyed_reidemeister_schreier,
    lattice_specs,
    predicate_scan_presentation,
    relation_matrix,
    schreier_edges,
    shortest_root,
    spec_coset_key,
    spec_membership,
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
    assert w == Word()
    w = Word([(0, 1), (1, 1), (1, -1), (0, -1)])
    assert w == Word()
    w = Word([(0, 1), (1, 1), (0, -1)])
    assert len(w) == 3


def test_word_validation():
    with pytest.raises(ValueError):
        Word([(0, 2)])
    with pytest.raises(ValueError):
        Word([(-1, 1)])
    for letters in ([(0, 1.5)], [("2", "-1")], [(True, 1)], [(0, True)], [(0.0, 1)]):
        with pytest.raises(TypeError):
            Word(letters)


@given(words)
def test_free_reduce_idempotent(w):
    assert Word(w.letters) == w


@given(words, words)
def test_inverse_of_product(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert (u * u.inverse()) == Word()
    assert u.inverse().inverse() == u


@given(words, words, words)
def test_word_associativity(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words, st.integers(min_value=0, max_value=4))
def test_word_powers(w, k):
    direct = Word()
    for _ in range(k):
        direct = direct * w
    assert w**k == direct


@given(words)
def test_word_power_exponent_is_nonnegative(w):
    assert w**0 == Word()
    with pytest.raises(ValueError):
        w ** -1


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
    assert Word.from_string("n1^0", names) == Word()
    with pytest.raises(ValueError):
        Word.from_string("bogus", names)
    with pytest.raises(ValueError):
        Word.from_string("n1^x", names)


def test_evaluate_word():
    n1, n2, n3, n4, n5 = GENERATORS
    w = Word.from_string("n1 n3^-1", ("n1", "n2", "n3", "n4", "n5"))
    assert evaluate_word(w, GENERATORS) == n1 * n3.inverse()
    assert evaluate_word(Word(), GENERATORS) == IDENTITY
    # abstract evaluation: words as images, from the free group's identity
    imgs = [Word([(i, 1)]) for i in range(5)]
    assert evaluate_word(w, imgs, Word()) == w
    with pytest.raises(TypeError):  # the default identity is the matrix I
        evaluate_word(w, imgs)


def test_presentation_verifies_relators():
    n1, n3 = GENERATORS[0], GENERATORS[2]
    good = Presentation(
        ("n1", "n3"), (Word([(0, 1), (1, 1), (0, -1), (1, -1)]),), (n1, n3)
    )
    assert good.relators[0] != Word()
    assert good.central == (0,)
    with pytest.raises(ValueError):
        # n1 and n4 do not commute
        Presentation(
            ("n1", "n4"),
            (Word([(0, 1), (1, 1), (0, -1), (1, -1)]),),
            (GENERATORS[0], GENERATORS[3]),
        )


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), (), (IDENTITY, IDENTITY))
    with pytest.raises(ValueError):
        Presentation(("a",), (Word([(1, 1)]),), (IDENTITY,))
    with pytest.raises(ValueError):
        Presentation(("a", "b"), (), (IDENTITY,))
    with pytest.raises(TypeError):  # a presentation has matrix images
        Presentation(("a",), ())


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
    assert upsilon_presentation() is p  # built once per process


def test_upsilon_central_parts_match_float_sigma_fold():
    """Only relator 4, (n3 n5)^3, lifts to a nonzero central element; the
    float cocycle folded along each relator, which shares no code with the
    exact sigma or the cover multiplication, gives the same parts."""
    p = upsilon_presentation()
    assert p.central == (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert p.central == tuple(float_central_part(r, p.images) for r in p.relators)


def test_upsilon_relators_fix_generator_images():
    # relator traces depend on the generator images being exactly n1..n5
    p = upsilon_presentation()
    n1, n2, n3, n4, n5 = p.images
    assert n1 * n3 == n3 * n1
    assert n2 * n3 == n3 * n2
    assert n4 * n5 == n5 * n4
    g = n3 * n5
    assert g * g * g == IDENTITY


# n1 = n(1, 1) and n2 = n(zeta, 1) add in the top middle entry: a product
# of them has sqrt(-3) * (a + b*zeta) there, where a and b are the exponent
# sums of n1 and n2.  The predicate-scan oracle's tests read them there.
N1, N2 = GENERATORS[0], GENERATORS[1]


def translation(g):
    """(a, b) with g[0][1] = sqrt(-3) * (a + b*zeta)."""
    return EisensteinInt(*g[0][1]).div_exact(SQRT_MINUS3).pair()


def exponent_sum_action(modulus, generators):
    """The action of a free group on Z/modulus by the exponent sum of the
    given generators; a free group has no relators, so every action of its
    generators is one, and the kernel of that sum fixes the base point 0."""

    def act(point, generator, sign):
        return (point + sign) % modulus if generator in generators else point

    return 0, act


def test_reidemeister_schreier_free_group_index3():
    free = Presentation(("a", "b"), (), (N1, N2))
    rows, generator_count, graph = reidemeister_schreier(
        free, *exponent_sum_action(3, {0}), max_index=16
    )
    assert graph.index == 3
    assert generator_count == 4  # Nielsen-Schreier: 1 + 3*(2-1)
    assert len(rows) == 0


def test_reidemeister_schreier_free_group_index2():
    free = Presentation(("a", "b"), (), (N1, N2))
    rows, generator_count, graph = reidemeister_schreier(
        free, *exponent_sum_action(2, {0, 1}), max_index=16
    )
    assert graph.index == 2
    assert generator_count == 3
    assert len(rows) == 0


def test_reidemeister_schreier_cyclic_quotient():
    # Z = <a | > with a -> n1; subgroup 4Z has index 4 and is generated by a^4
    free = Presentation(("a",), (), (N1,))
    rows, generator_count, graph = reidemeister_schreier(
        free, *exponent_sum_action(4, {0}), max_index=8
    )
    assert graph.index == 4
    assert graph.vertices == (0, 1, 3, 2)
    assert generator_count == 1
    assert len(rows) == 0


@pytest.mark.parametrize("name", ["upsilon", "index3:1,0,0,0", "gamma3"])
def test_reidemeister_schreier_nielsen_schreier_count(name):
    """The Schreier generators generate the preimage of H in the free group
    on n1..n5, which has rank index * (5 - 1) + 1 (Nielsen-Schreier)."""
    spec = SubgroupSpec.parse(name)
    index = spec.index_in_upsilon()
    rows, generator_count, graph = reidemeister_schreier(
        upsilon_presentation(), *spec.coset_action(), max_index=index
    )
    assert graph.index == index
    assert generator_count == index * (5 - 1) + 1
    assert len(rows) == 13
    assert all(0 < len(traced) <= index for traced in rows)


def test_reidemeister_schreier_with_matrix_images():
    p = upsilon_presentation()
    spec = SubgroupSpec(((1, 0, 0, 0),))
    rows, generator_count, graph = reidemeister_schreier(
        p, *spec.coset_action(), max_index=16
    )
    assert graph.index == 3
    # one generator per positive edge off the spanning tree, and the rows of
    # each ambient relator, one per orbit of its root
    assert generator_count == 3 * 5 - 2
    assert len(rows) == 13
    assert graph.vertices[0] == (0,)
    # the representatives the spanning tree spells out: each point is its
    # representative's coset key, and every edge v -> w joins the cosets of
    # r_v * step and r_w
    representatives = coset_representatives(p, graph)
    assert representatives[0] == IDENTITY
    assert [spec_coset_key(spec, r) for r in representatives] == list(graph.vertices)
    for (vi, (gi, sign)), wj in graph.edges.items():
        step = p.images[gi] if sign == 1 else p.images[gi].inverse()
        m = representatives[vi] * step
        assert spec_membership(spec, m * representatives[wj].inverse())
    # with generator k standing for r * x * r'^-1 of the k-th Schreier edge,
    # the trace of relator k from coset v is r_v * relator * r_v^-1 = I
    images = [
        representatives[vi] * p.images[gi] * representatives[graph.edges[(vi, (gi, 1))]].inverse()
        for vi, gi in schreier_edges(graph)
    ]
    assert len(images) == generator_count
    assert all(spec_membership(spec, h) for h in images)
    traces = trace_words(p, graph)
    assert len(traces) == 13 * 3
    for trace in traces:
        assert evaluate_word(trace, images) == IDENTITY


def test_action_matches_the_keyed_engine():
    """On every group a SubgroupSpec can name, the 212 lattice groups and
    gamma_sqrt3, enumeration on the spec's action gives the generator
    count, edges and symbol map of the keyed engine, which walks
    representatives as matrices, checks each Schreier generator with
    membership and traces every relator from every coset; each point is
    its representative's coset key.  For each relator w^k, w its shortest
    root, the keyed engine's rows are the rows traced once per <w>-orbit,
    each at every coset of its orbit."""
    specs = lattice_specs() + (SubgroupSpec.parse("gamma_sqrt3"),)
    assert len(specs) == 213
    dropped = 0
    for spec in specs:
        ambient, index = ambient_of(spec)
        rows, generator_count, graph = reidemeister_schreier(
            ambient, *spec.coset_action(), max_index=index
        )
        keyed_rows, keyed_count, keyed = keyed_reidemeister_schreier(
            ambient,
            lambda g: spec_coset_key(spec, g),
            lambda g: spec_membership(spec, g),
            max_index=index,
        )
        assert generator_count == keyed_count, spec.name()
        assert (graph.edges, graph.symbol_of) == (keyed.edges, keyed.symbol_of), spec.name()
        assert graph.vertices == tuple(spec_coset_key(spec, r) for r in keyed.vertices)
        assert all_coset_rows(ambient, graph, rows) == keyed_rows, spec.name()
        dropped += len(keyed_rows) - sum(map(len, rows))
        if spec.name() == "gamma3":
            assert [len(traced) for traced in rows] == [81, 81, 81, 27, 81, 27] + [81] * 7
    assert dropped > 0


def test_only_relators_4_and_6_are_proper_powers():
    """Relator 4 is (n3 n5)^3 and relator 6 is (n1^-1 n3 n4^-1)^3; every
    other relator of upsilon is its own shortest root.  Of gamma_sqrt3's
    six relators more, c^3 is a power too."""
    roots = [shortest_root(r) for r in upsilon_presentation().relators]
    assert [k + 1 for k, r in enumerate(upsilon_presentation().relators) if roots[k] != r] == [4, 6]
    assert [str(roots[3]), str(roots[5])] == ["g3 g5", "g1^-1 g3 g4^-1"]
    extra = gamma_sqrt3_presentation().relators[13:]
    assert [len(shortest_root(r)) for r in extra] == [1, 4, 4, 4, 4, 4]


def test_relation_rows_are_trace_exponent_sums():
    """The rows Reidemeister-Schreier traces straight from the coset graph
    are the exponent sums of the trace words, with the traced relator's
    central part in the z column, one row per orbit of the relator's root,
    for upsilon (index 1, whose rows are the rows of its relation matrix),
    the 40 index-3 groups and gamma3."""
    p = upsilon_presentation()
    specs = [SubgroupSpec.parse("upsilon"), SubgroupSpec.parse("gamma3")]
    specs += [SubgroupSpec((v,)) for v in all_index3_vectors()]
    for spec in specs:
        rows, generator_count, graph = reidemeister_schreier(
            p, *spec.coset_action(), max_index=spec.index_in_upsilon()
        )
        assert graph.index == spec.index_in_upsilon()
        assert generator_count == len(schreier_edges(graph))
        # the trace of relator k from any coset takes relator k's -n in z
        traces = trace_words(p, graph)
        assert all_coset_rows(p, graph, rows) == sparse_rows(
            exponent_sums(t, generator_count) + [-p.central[k // graph.index]]
            for k, t in enumerate(traces)
        )
        if spec.rows == ():
            assert [row for traced in rows for row in traced] == sparse_rows(relation_matrix(p))


def test_graph_keeps_the_symbol_map():
    """graph.symbol_of numbers the edges off the spanning tree as
    schreier_edges lists them, on upsilon, gamma3, gamma_sqrt3 (over its
    own presentation) and the 40 index-3 groups."""
    specs = [SubgroupSpec.parse(name) for name in ("upsilon", "gamma3", "gamma_sqrt3")]
    specs += [SubgroupSpec((v,)) for v in all_index3_vectors()]
    for spec in specs:
        ambient, index = ambient_of(spec)
        _, generator_count, graph = reidemeister_schreier(
            ambient, *spec.coset_action(), max_index=index
        )
        assert graph.symbol_of == {e: k for k, e in enumerate(schreier_edges(graph))}
        assert len(graph.symbol_of) == generator_count


def test_reidemeister_schreier_index_overflow():
    # the gamma3 action has 81 points, so enumeration stops at the fourth
    gamma3 = SubgroupSpec.parse("gamma3").coset_action()
    with pytest.raises(IndexOverflowError):
        reidemeister_schreier(upsilon_presentation(), *gamma3, max_index=3)
    with pytest.raises(ValueError):
        reidemeister_schreier(upsilon_presentation(), *gamma3, max_index=0)


def clamped_act(point, generator, sign):
    # n1 clamps to 0..2, so it moves 2 to 2 while its inverse moves 2 to 1
    return min(max(point + sign, 0), 2) if generator == 0 else point


def n3_parity_act(point, generator, sign):
    # a permutation of {0, 1}, but relator 4, (n3 n5)^3, holds n3 with
    # exponent sum 3, so its trace does not close up; relators 1-3 do
    return (point + sign) % 2 if generator == 2 else point


@pytest.mark.parametrize(
    "act, message",
    [
        (clamped_act, "does not step back"),
        (n3_parity_act, "^relator 4 traced from coset 0 did not close up$"),
    ],
    ids=["inverse_edge", "relator_trace"],
)
def test_reidemeister_schreier_rejects_an_action_of_another_group(act, message):
    with pytest.raises(OracleInconsistencyError, match=message):
        reidemeister_schreier(upsilon_presentation(), 0, act, max_index=16)


def test_reidemeister_schreier_identity_not_member():
    # predicate-scan oracle: the identity must pass the predicate
    with pytest.raises(OracleInconsistencyError):
        predicate_scan_presentation(upsilon_presentation(), lambda g: False, max_index=4)


def test_reidemeister_schreier_inconsistent_predicate():
    # exponent sum of n1 in {0, 1} mod 3 is not closed under multiplication,
    # so the oracle's coset identification must detect a double match
    free = Presentation(("a", "b"), (), (N1, N2))
    with pytest.raises(OracleInconsistencyError, match="cosets at once"):
        predicate_scan_presentation(
            free, lambda g: translation(g)[0] % 3 in (0, 1), max_index=16
        )


def test_word_hash_and_repr():
    w = Word([(0, 1), (1, -1)])
    assert hash(w) == hash(Word([(0, 1), (1, -1)]))
    assert "Word" in repr(w)
    assert w.to_string() == "g1 g2^-1"
