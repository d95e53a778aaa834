import pickle
import random
from fractions import Fraction

import pytest

from su21 import cocycle, weightdenom, zlinalg
from su21.cocycle import COVER_IDENTITY, CoverElement
from su21.eisenstein import EisensteinInt
from su21.fpgroup import (
    CosetGraph,
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    reidemeister_schreier,
    upsilon_presentation,
)
from su21.matgroup import (
    IDENTITY,
    GroupMatrix,
    SubgroupSpec,
    all_index3_vectors,
    generators_upsilon,
    in_gamma_beta,
)
from su21.weightdenom import (
    DenominatorReport,
    InfiniteOrderError,
    base_relator_lifts,
    central_commutator_witness,
    central_parts,
    lift_word,
    multiplier_system_exists,
    survey_index3,
    weight_denominator,
    weight_denominator_of,
)
from su21.zlinalg import IntegerMatrix, cokernel_invariants, hermite_normal_form
from helpers import (
    BallPoint,
    cyclic_shift,
    exponent_sums,
    founding_edges,
    in_row_kernel,
    lattice_specs,
    predicate_scan_presentation,
    random_word,
    relation_matrix,
    schreier_edges,
    sparse_rows,
    trace_words,
)

GENERATORS = generators_upsilon()
UPSILON = upsilon_presentation()


def test_lift_word_is_multiplicative():
    rng = random.Random(30)
    for _ in range(60):
        u = random_word(rng, 8)
        v = random_word(rng, 8)
        lu = lift_word(u, GENERATORS)
        lv = lift_word(v, GENERATORS)
        luv = lift_word(u * v, GENERATORS)
        # u * v free-reduces before lifting, so the products agree because
        # the lift of a generator followed by its inverse is the identity.
        assert luv == lu * lv


def test_lift_of_empty_word():
    assert lift_word(Word(()), GENERATORS) == COVER_IDENTITY


def test_relator_lifts_are_central_integers():
    for relator in UPSILON.relators:
        lift = lift_word(relator, UPSILON.images)
        assert lift.g == IDENTITY


def test_relator_lift_invariants():
    rng = random.Random(31)
    for relator in UPSILON.relators:
        n = lift_word(relator, UPSILON.images).n
        # inverse word lifts to the inverse central element
        assert lift_word(relator.inverse(), UPSILON.images).n == -n
        # cyclic shifts are conjugates, and (I, n) is central
        for _ in range(3):
            k = rng.randrange(len(relator.letters))
            shifted = cyclic_shift(relator, k)
            assert lift_word(shifted, UPSILON.images).n == n


def test_relation_matrix_shape_and_rows():
    m = relation_matrix(UPSILON)
    assert m.shape == (13, 6)
    for row, relator in zip(m.entries, UPSILON.relators):
        assert list(row[:5]) == exponent_sums(relator, 5)
        assert row[5] == -lift_word(relator, UPSILON.images).n


def test_relation_matrix_needs_images():
    abstract = Presentation(("a",), (Word(((0, 1), (0, 1), (0, 1))),))
    with pytest.raises(ValueError):
        relation_matrix(abstract)
    assert relation_matrix(abstract, [2]).entries == ((3, -2),)
    with pytest.raises(ValueError):
        relation_matrix(abstract, [2, 0])


def test_relator_traces_telescope_to_base_lifts():
    """Lift each coset representative along the spanning tree and each
    Schreier generator as lift(r) * lift(x) * lift(r')^-1: then the trace
    of ambient relator k from any coset multiplies out to (I, n_k), the
    central part the relation matrix puts in its row."""
    base, base_central = base_relator_lifts()
    steps = [CoverElement(g, 0) for g in base.images]
    for name in ("index3:1,0,0,0", "index3:0,1,1,2"):
        spec = SubgroupSpec.parse(name)
        _, generator_count, graph = reidemeister_schreier(
            base, spec.coset_key, spec.membership
        )
        lifts = [COVER_IDENTITY] * graph.index
        for wj, (vi, (gi, sign)) in sorted(founding_edges(graph).items()):
            step = steps[gi] if sign == 1 else steps[gi].inverse()
            lifts[wj] = lifts[vi] * step
            assert lifts[wj].g == graph.vertices[wj]
        generators = [
            lifts[vi] * steps[gi] * lifts[graph.edges[(vi, (gi, 1))]].inverse()
            for vi, gi in schreier_edges(graph)
        ]
        assert len(generators) == generator_count
        for k, trace in enumerate(trace_words(base, graph)):
            product = COVER_IDENTITY
            for i, s in trace.letters:
                product = product * (generators[i] if s == 1 else generators[i].inverse())
            assert product == CoverElement(IDENTITY, base_central[k // graph.index])


def upsilon_rows():
    return sparse_rows(relation_matrix(UPSILON).entries)


def test_upsilon_denominator_is_one():
    report = weight_denominator(
        upsilon_rows(), 6, group="upsilon", index_in_upsilon=1
    )
    assert report.weight_denominator == 1
    assert report.torsion_invariants == (3, 3, 3)
    assert report.free_rank == 2
    assert report.generator_count == 5
    assert report.relator_count == 13


def test_upsilon_invariants_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = relation_matrix(UPSILON)
    sm = sympy_snf(sympy.Matrix([list(r) for r in m.entries]))
    diag = [abs(int(sm[i, i])) for i in range(min(sm.rows, sm.cols))]
    nontrivial = sorted(d for d in diag if d > 1)
    zeros = sum(1 for d in diag if d == 0)
    assert nontrivial == [3, 3, 3]
    # cokernel free rank = columns - rank
    assert (m.cols - (len(diag) - zeros)) == 2


def test_central_commutator_witness():
    word = central_commutator_witness()
    assert len(word.letters) == 40
    assert exponent_sums(word, 5) == [0, 0, 0, 0, 0]
    lift = lift_word(word, UPSILON.images)
    assert lift.g == IDENTITY
    assert lift.n == -1


def test_weight_denominator_of_upsilon():
    report = weight_denominator_of(SubgroupSpec.parse("upsilon"))
    assert report.group == "upsilon"
    assert report.index_in_upsilon == 1
    assert report.weight_denominator == 1


def test_weight_denominator_of_gamma_sqrt3_routes_through_complement():
    report = weight_denominator_of(SubgroupSpec.parse("gamma_sqrt3"))
    assert report.weight_denominator == 1
    assert report.index_in_upsilon is None
    assert report.torsion_invariants == (3, 3, 3)
    assert len(report.notes) == 1
    assert "scalar center" in report.notes[0]


def test_weight_denominator_of_index3_subgroup():
    report = weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))
    assert report.weight_denominator == 3
    assert report.index_in_upsilon == 3
    # one generator per positive edge off the spanning tree (3 * 5 - 2) and
    # every ambient relator traced from every coset (13 * 3)
    assert report.generator_count == 13
    assert report.relator_count == 39
    assert report.torsion_invariants == (3, 3, 9)


def test_weight_denominator_of_respects_max_index(monkeypatch):
    # the enumeration bound is the subgroup's own index: the gamma3 key
    # separates 81 cosets, so enumeration stops at the fourth
    gamma3_key = SubgroupSpec.parse("gamma3").coset_key
    monkeypatch.setattr(SubgroupSpec, "coset_key", lambda self, g: gamma3_key(g))
    with pytest.raises(IndexOverflowError, match="index3:1,0,0,0: .*max_index = 3"):
        weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))


def test_weight_denominator_of_checks_the_index(monkeypatch):
    # upsilon's key and membership describe a consistent group of index 1:
    # the engine accepts them, and the index check catches it
    upsilon = SubgroupSpec.parse("upsilon")
    upsilon_key, upsilon_membership = upsilon.coset_key, upsilon.membership
    monkeypatch.setattr(SubgroupSpec, "coset_key", lambda self, g: upsilon_key(g))
    monkeypatch.setattr(SubgroupSpec, "membership", lambda self, g: upsilon_membership(g))
    with pytest.raises(OracleInconsistencyError, match="index3:1,0,0,0: .*index 1, expected 3"):
        weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))


def test_pooled_survey_matches_sequential():
    # each worker process lifts the base relators itself
    pooled = survey_index3(parallel=True)
    sequential = survey_index3()
    assert len(pooled) == 40
    assert [(v, r.to_json_dict()) for v, r in pooled] == [
        (v, r.to_json_dict()) for v, r in sequential
    ]


def test_infinite_order_raises():
    # A free group on one matrix generator: no relators, so the central
    # generator's class is free and has no finite order.
    with pytest.raises(InfiniteOrderError):
        weight_denominator([], 2)


def test_multiplier_system_exists():
    upsilon = SubgroupSpec.parse("upsilon")
    assert multiplier_system_exists(upsilon, Fraction(1))
    assert multiplier_system_exists(upsilon, 4)
    assert not multiplier_system_exists(upsilon, Fraction(1, 3))
    sub = SubgroupSpec.parse("index3:1,0,0,0")
    assert multiplier_system_exists(sub, Fraction(1, 3))
    assert multiplier_system_exists(sub, Fraction(2, 3))
    assert multiplier_system_exists(sub, Fraction(5))
    assert not multiplier_system_exists(sub, Fraction(1, 2))
    assert not multiplier_system_exists(sub, Fraction(1, 9))


def test_report_immutable_pickle_json():
    report = weight_denominator_of(SubgroupSpec.parse("upsilon"))
    with pytest.raises(AttributeError):
        report.weight_denominator = 5
    clone = pickle.loads(pickle.dumps(report))
    assert clone.weight_denominator == report.weight_denominator
    assert clone.torsion_invariants == report.torsion_invariants
    assert clone.group == report.group
    d = report.to_json_dict()
    assert d["weight_denominator"] == 1
    assert d["torsion_invariants"] == [3, 3, 3]
    assert d["free_rank"] == 2
    assert d["group"] == "upsilon"
    assert d["index_in_upsilon"] == 1
    assert d["generator_count"] == 5
    assert d["relator_count"] == 13
    assert d["notes"] == []
    assert "DenominatorReport" in repr(report)


def test_weight_denominator_runs_one_hnf(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    original = zlinalg.hermite_normal_form
    monkeypatch.setattr(zlinalg, "hermite_normal_form", counting)
    monkeypatch.setattr(weightdenom, "hermite_normal_form", counting)
    report = weight_denominator(upsilon_rows(), 6)
    assert report.weight_denominator == 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "rows, order",
    [
        ([[1, 1]], None),
        ([[2, 1]], None),
        ([[1, 1], [0, 3]], 3),
        ([[3, 1], [0, 3]], 3),
    ],
)
def test_weight_denominator_when_only_z_has_a_unit(rows, order):
    # The z column is never a pivot, so its unit entries survive reduction.
    # In the last case z = -3x with 9x = 0: taking z as a pivot would give 9.
    if order is None:
        with pytest.raises(InfiniteOrderError):
            weight_denominator(sparse_rows(rows), 2)
    else:
        assert weight_denominator(sparse_rows(rows), 2).weight_denominator == order


def full_matrix_answer(matrix):
    """(d, torsion, free rank) from HNF and SNF of the unreduced relation
    matrix: d is the pivot of the HNF row that leads in the z column."""
    h = hermite_normal_form(matrix)
    order = None
    for row in h.entries:
        leading = next((c for c, v in enumerate(row) if v), None)
        if leading == matrix.cols - 1:
            order = row[-1]
    nonzero = [row for row in h.entries if any(row)]
    torsion, free_rank = cokernel_invariants(IntegerMatrix(nonzero, matrix.cols))
    return order, torsion, free_rank


def report_answer(report):
    return report.weight_denominator, report.torsion_invariants, report.free_rank


def oracle_membership(spec):
    """A membership predicate independent of the spec's coset key: the
    level-3 congruence test for gamma3, and v . F_map(g) = 0 for every row
    v otherwise."""
    if spec.name() == "gamma3":
        return lambda g: in_gamma_beta(g, EisensteinInt(3, 0))
    return lambda g: in_row_kernel(g, spec.rows)


def oracle_answer(spec):
    """(answer, index) of the predicate-scan oracle for a subgroup of
    upsilon: its report agrees with HNF+SNF of its unreduced relation
    matrix."""
    if spec.rows == ():
        presentation, index = UPSILON, 1
    else:
        presentation, index = predicate_scan_presentation(UPSILON, oracle_membership(spec))
    matrix = relation_matrix(presentation, central_parts(presentation))
    oracle = report_answer(weight_denominator(sparse_rows(matrix.entries), matrix.cols))
    assert oracle == full_matrix_answer(matrix)
    return oracle, index


def test_reduced_path_matches_full_normal_forms():
    """The keyed path against the predicate-scan oracle, one oracle
    presentation each for upsilon, gamma3 and the 40 index-3 groups, found
    with membership predicates that share no code with the key: the
    report of weight_denominator_of, the oracle's report and HNF+SNF of the
    oracle's unreduced relation matrix agree, for all 43 reports
    (gamma_sqrt3 is checked against upsilon's oracle)."""
    specs = [SubgroupSpec.parse(name) for name in ("upsilon", "gamma_sqrt3", "gamma3")]
    specs += [SubgroupSpec((v,)) for v in all_index3_vectors()]
    answers = {}
    for spec in specs:
        keyed = weight_denominator_of(spec)
        if spec.rows is None:
            assert report_answer(keyed) == answers["upsilon"]
            continue
        oracle, index = oracle_answer(spec)
        assert report_answer(keyed) == oracle, spec.name()
        assert keyed.index_in_upsilon == index
        answers[spec.name()] = oracle
    assert len(answers) == 42
    assert answers["upsilon"] == (1, (3, 3, 3), 2)
    assert answers["gamma3"] == (3, (3,) * 7, 10)
    assert sum(d == 3 for d, _, _ in answers.values()) == 14


def lattice_sample():
    """upsilon, the 40 index-3 groups and a seeded sample of the 130
    index-9 and 40 index-27 groups."""
    by_index = {}
    for spec in lattice_specs():
        by_index.setdefault(spec.index_in_upsilon(), []).append(spec)
    rng = random.Random(9)
    return (
        by_index[1] + by_index[3] + rng.sample(by_index[9], 8) + rng.sample(by_index[27], 5)
    )


def test_lattice_denominators_divide_index_and_descend():
    """On the sample: d(H) divides [upsilon : H], since the transfer sends
    the central z to z^[upsilon : H] and d(upsilon) = 1; and d(H') divides
    d(H) whenever H lies in H', by restricting characters of the cover.  H
    lies in H' exactly when H's rows span the rows of H'."""
    denominators = {
        spec: weight_denominator_of(spec).weight_denominator for spec in lattice_sample()
    }
    for spec, d in denominators.items():
        assert spec.index_in_upsilon() % d == 0, spec.name()
    pairs = 0
    for small, d_small in denominators.items():
        for big, d_big in denominators.items():
            if SubgroupSpec(small.rows + big.rows) == small:
                assert d_small % d_big == 0, (small.name(), big.name())
                pairs += 1
    assert pairs > 200
    assert 3 in {d for spec, d in denominators.items() if spec.index_in_upsilon() == 9}


@pytest.mark.parametrize("index", [9, 27])
def test_lattice_group_matches_predicate_scan(index):
    spec = next(s for s in lattice_sample() if s.index_in_upsilon() == index)
    keyed = weight_denominator_of(spec)
    oracle, oracle_index = oracle_answer(spec)
    assert report_answer(keyed) == oracle
    assert keyed.index_in_upsilon == oracle_index == index


def test_gamma3_counters(monkeypatch):
    """Deterministic work of a cold gamma3 computation: sigma lifts only
    the 13 ambient relators, membership checks each Schreier generator
    once, the relations have one row per relator trace, matrix products
    number 2,173 (inverse() makes none, is_unitary() one), and the relator
    traces go straight into sparse rows: no subgroup Presentation, no
    trace Word and no dense relation matrix is built."""
    counts = {"sigma": 0, "membership": 0, "mul": 0}
    counts.update(Word=0, Presentation=0, IntegerMatrix=0)
    shapes = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def eliminating(rows, cols):
        shape = (len(rows), cols)
        reduced = original_eliminate(rows, cols)
        shapes.append((shape, reduced.shape))
        return reduced

    original_eliminate = weightdenom.eliminate_unit_pivots
    monkeypatch.setattr(cocycle, "sigma", counted("sigma", cocycle.sigma))
    monkeypatch.setattr(
        SubgroupSpec, "membership", counted("membership", SubgroupSpec.membership)
    )
    monkeypatch.setattr(weightdenom, "eliminate_unit_pivots", eliminating)
    monkeypatch.setattr(GroupMatrix, "__mul__", counted("mul", GroupMatrix.__mul__))
    for cls in (Word, Presentation, IntegerMatrix):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    base_relator_lifts.cache_clear()
    report = weight_denominator_of(SubgroupSpec.parse("gamma3"))
    assert report_answer(report) == (3, (3,) * 7, 10)
    # one sigma per letter of the 13 relators (116) and one per inverse
    # of each generator a relator uses with exponent -1 (40)
    letters = sum(len(r) for r in UPSILON.relators)
    inverses = sum(len({i for i, s in r.letters if s == -1}) for r in UPSILON.relators)
    assert (letters, inverses) == (116, 40)
    assert counts["sigma"] == letters + inverses == 156
    # 81 cosets: 810 edges, 80 of which span the tree; the predicate sees
    # the 325 positive edges off it
    assert counts["membership"] == 81 * 5 - 80 == 325
    assert report.generator_count == 325
    assert report.relator_count == 13 * 81
    assert shapes == [((1053, 326), (484, 17))]
    assert counts["mul"] == 2173
    # the ambient presentation is the only Presentation; the relation
    # matrix is born reduced, then comes the HNF and its nonzero rows
    assert counts["Presentation"] == 1
    assert counts["IntegerMatrix"] == 3
    # the 20 Words spell out the 13 ambient relators, and none is a trace
    assert counts["Word"] == 20


def test_index3_membership_checks_unitarity_once(monkeypatch):
    """An index-3 group has 3 * 5 - 2 = 13 Schreier generators, and
    membership tests each one for unitarity once."""
    calls = []
    original = GroupMatrix.is_unitary

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GroupMatrix, "is_unitary", counted)
    report = weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))
    assert report.weight_denominator == 3
    assert report.generator_count == 13
    assert len(calls) == 13

@pytest.mark.parametrize(
    "value",
    [
        IntegerMatrix([[1, -2], [0, 3]]),
        Word([(0, 1), (2, -1)]),
        UPSILON,
        SubgroupSpec.parse("index3:2,0,1,0"),
        GENERATORS[1],
        EisensteinInt(3, -4),
        CoverElement(GENERATORS[0], 5),
        BallPoint(-2.0, 0.5j),
        CosetGraph([IDENTITY], {(0, (0, 1)): 0}, 1),
    ],
    ids=lambda value: type(value).__name__,
)
def test_pickle_round_trip(value):
    clone = pickle.loads(pickle.dumps(value))
    assert type(clone) is type(value)
    assert clone.__reduce__() == value.__reduce__()
    with pytest.raises(AttributeError):
        clone.extra = 1
