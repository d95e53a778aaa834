import copy
import logging
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from su21 import cocycle, fpgroup, matgroup, weightdenom, zlinalg
from su21.cocycle import COVER_IDENTITY, CoverElement
from su21.fpgroup import (
    CosetGraph,
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    gamma_sqrt3_presentation,
    lift_word,
    reidemeister_schreier,
    upsilon_presentation,
)
from su21.matgroup import (
    IDENTITY,
    GroupMatrix,
    SubgroupSpec,
    all_index3_vectors,
    generators_upsilon,
)
from su21.weightdenom import (
    DenominatorReport,
    InfiniteOrderError,
    multiplier_system_exists,
    survey_index3,
    weight_denominator,
    weight_denominator_of,
)
from su21.zlinalg import cokernel_invariants, hermite_normal_form
from helpers import (
    SYMMETRIES,
    BallPoint,
    EisensteinInt,
    all_rows_report,
    central_commutator_witness,
    coset_representatives,
    cyclic_shift,
    distinct_up_to_sign,
    exponent_sums,
    float_central_part,
    founding_edges,
    in_gamma_beta,
    in_row_kernel,
    lattice_sample,
    lattice_specs,
    predicate_scan_presentation,
    preimage_spec,
    random_word,
    relation_matrix,
    schreier_edges,
    sparse_rows,
    spec_coset_key,
    symmetry_on_f,
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
    assert (len(m), len(m[0])) == (13, 6)
    for row, relator in zip(m, UPSILON.relators):
        assert list(row[:5]) == exponent_sums(relator, 5)
        assert row[5] == -lift_word(relator, UPSILON.images).n


def test_relation_matrix_needs_images():
    # a presentation has images, and its relation matrix reads the z column
    # off the relators' lifts: (n3 n5)^3 = I lifts to (I, 1) through the
    # single image n3 n5, by the exact and the float sigma alike
    cube = Word(((0, 1), (0, 1), (0, 1)))
    with pytest.raises(TypeError):
        Presentation(("a",), (cube,))
    image = GENERATORS[2] * GENERATORS[4]
    p = Presentation(("a",), (cube,), (image,))
    assert p.central == (float_central_part(cube, (image,)),) == (1,)
    assert relation_matrix(p) == [(3, -1)]
    inverse = Presentation(("a",), (cube.inverse(),), (image,))
    assert relation_matrix(inverse) == [(-3, 1)]


def test_relator_traces_telescope_to_base_lifts():
    """Lift each coset representative along the spanning tree and each
    Schreier generator as lift(r) * lift(x) * lift(r')^-1: then the trace
    of ambient relator k from any coset multiplies out to (I, n_k), the
    central part the relation matrix puts in its row."""
    base = upsilon_presentation()
    steps = [CoverElement(g, 0) for g in base.images]
    for name in ("index3:1,0,0,0", "index3:0,1,1,2"):
        spec = SubgroupSpec.parse(name)
        _, generator_count, graph = reidemeister_schreier(
            base, *spec.coset_action(), max_index=3
        )
        lifts = [COVER_IDENTITY] * graph.index
        for wj, (vi, (gi, sign)) in sorted(founding_edges(graph).items()):
            step = steps[gi] if sign == 1 else steps[gi].inverse()
            lifts[wj] = lifts[vi] * step
        assert [lift.g for lift in lifts] == coset_representatives(base, graph)
        assert [spec_coset_key(spec, lift.g) for lift in lifts] == list(graph.vertices)
        generators = [
            lifts[vi] * steps[gi] * lifts[graph.steps[(gi, 1)][vi]].inverse()
            for vi, gi in schreier_edges(graph)
        ]
        assert len(generators) == generator_count
        for k, trace in enumerate(trace_words(base, graph)):
            product = COVER_IDENTITY
            for i, s in trace.letters:
                product = product * (generators[i] if s == 1 else generators[i].inverse())
            assert product == CoverElement(IDENTITY, base.central[k // graph.index])


def upsilon_rows():
    return sparse_rows(relation_matrix(UPSILON))


def test_upsilon_denominator_is_one():
    report = weight_denominator(upsilon_rows(), 6)
    assert report.group is report.index_in_upsilon is None
    assert report.weight_denominator == 1
    assert report.torsion_invariants == (3, 3, 3)
    assert report.free_rank == 2
    assert report.generator_count == 5
    assert report.relator_count == 13


def test_upsilon_invariants_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = relation_matrix(UPSILON)
    sm = sympy_snf(sympy.Matrix([list(r) for r in m]))
    diag = [abs(int(sm[i, i])) for i in range(min(sm.rows, sm.cols))]
    nontrivial = sorted(d for d in diag if d > 1)
    zeros = sum(1 for d in diag if d == 0)
    assert nontrivial == [3, 3, 3]
    # cokernel free rank = columns - rank
    assert (len(m[0]) - (len(diag) - zeros)) == 2


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


def test_weight_denominator_of_gamma_sqrt3():
    """The level-sqrt(-3) group is upsilon times the order-3 centre <zeta*I>,
    presented by upsilon's generators and relators, c = zeta*I, c^3 and
    [c, n_i]; it runs the one pipeline at index 1."""
    presentation = gamma_sqrt3_presentation()
    assert presentation.generator_names == UPSILON.generator_names + ("c",)
    assert presentation.relators[:13] == UPSILON.relators
    assert presentation.central[:13] == UPSILON.central
    # c^3 lifts to (I, -1) and each commutator to (I, 0)
    assert presentation.central[13:] == (-1, 0, 0, 0, 0, 0)
    report = weight_denominator_of(SubgroupSpec.parse("gamma_sqrt3"))
    assert report == DenominatorReport("gamma_sqrt3", None, 6, 19, 1, (3, 3, 3, 3), 2)


def test_gamma_sqrt3_report_extends_upsilon_report():
    """Reports are values: gamma_sqrt3's is upsilon's with the name, the
    index, the one extra generator and six extra relators replaced, and one
    more factor 3 in the torsion; d and the free rank are upsilon's."""
    upsilon = weight_denominator_of(SubgroupSpec.parse("upsilon"))
    report = weight_denominator_of(SubgroupSpec.parse("gamma_sqrt3"))
    extended = upsilon._replace(
        group="gamma_sqrt3",
        index_in_upsilon=None,
        generator_count=upsilon.generator_count + 1,
        relator_count=upsilon.relator_count + 6,
        torsion_invariants=upsilon.torsion_invariants + (3,),
    )
    assert report == extended and hash(report) == hash(extended)
    assert report != upsilon
    assert report.weight_denominator == upsilon.weight_denominator
    assert report.free_rank == upsilon.free_rank


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
    # the enumeration bound is the subgroup's own index: the gamma3 action
    # has 81 points, so enumeration stops at the fourth
    gamma3_action = SubgroupSpec.parse("gamma3").coset_action()
    monkeypatch.setattr(SubgroupSpec, "coset_action", lambda self: gamma3_action)
    with pytest.raises(IndexOverflowError, match="index3:1,0,0,0: .*max_index = 3"):
        weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))


def test_weight_denominator_of_checks_the_index(monkeypatch):
    # upsilon's action is a consistent action of index 1: the engine
    # accepts it, and the index check catches it
    upsilon_action = SubgroupSpec.parse("upsilon").coset_action()
    monkeypatch.setattr(SubgroupSpec, "coset_action", lambda self: upsilon_action)
    with pytest.raises(OracleInconsistencyError, match="index3:1,0,0,0: .*index 1, expected 3"):
        weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))


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
    assert multiplier_system_exists(sub, "1/3")
    assert multiplier_system_exists(sub, "-2/3")
    # the float 1/3 is 6004799503160661 / 2**54, whose denominator divides
    # no weight denominator, so a float weight is refused
    for weight in (1 / 3, 1.0, float("nan")):
        with pytest.raises(TypeError, match="weight must be exact"):
            multiplier_system_exists(SubgroupSpec.parse("gamma3"), weight)


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
    assert "notes" not in d
    assert "DenominatorReport" in repr(report)


def test_weight_denominator_runs_one_hnf(monkeypatch):
    """The pipeline calls the Hermite form once itself; the Smith form's own
    Hermite passes go through zlinalg's binding, which is not counted."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    original = weightdenom.hermite_normal_form
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


def full_matrix_answer(rows):
    """(d, torsion, free rank) from HNF and SNF of the unreduced relation
    rows: d is the pivot of the HNF row that leads in the z column."""
    cols = len(rows[0])
    h = hermite_normal_form(rows)
    order = None
    for row in h:
        leading = next((c for c, v in enumerate(row) if v), None)
        if leading == cols - 1:
            order = row[-1]
    nonzero = [row for row in h if any(row)]
    torsion, free_rank = cokernel_invariants(nonzero, cols)
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
    upsilon, or of gamma_sqrt3's own presentation: its report agrees with
    HNF+SNF of its unreduced relation matrix."""
    if spec.rows is None:
        presentation, index = gamma_sqrt3_presentation(), None
    elif spec.rows == ():
        presentation, index = UPSILON, 1
    else:
        presentation, index = predicate_scan_presentation(UPSILON, oracle_membership(spec))
    matrix = relation_matrix(presentation)
    oracle = report_answer(weight_denominator(sparse_rows(matrix), len(matrix[0])))
    assert oracle == full_matrix_answer(matrix)
    return oracle, index


def test_reduced_path_matches_full_normal_forms():
    """The keyed path against the predicate-scan oracle, one oracle
    presentation each for upsilon, gamma3 and the 40 index-3 groups, found
    with membership predicates that share no code with the key: the
    report of weight_denominator_of, the oracle's report and HNF+SNF of the
    oracle's unreduced relation matrix agree, for all 43 reports
    (gamma_sqrt3's oracle matrix is the 19x7 one of its own presentation)."""
    specs = [SubgroupSpec.parse(name) for name in ("upsilon", "gamma_sqrt3", "gamma3")]
    specs += [SubgroupSpec((v,)) for v in all_index3_vectors()]
    answers = {}
    for spec in specs:
        keyed = weight_denominator_of(spec)
        oracle, index = oracle_answer(spec)
        assert report_answer(keyed) == oracle, spec.name()
        assert keyed.index_in_upsilon == index
        answers[spec.name()] = oracle
    assert len(answers) == 43
    assert answers["upsilon"] == (1, (3, 3, 3), 2)
    assert answers["gamma_sqrt3"] == (1, (3, 3, 3, 3), 2)
    assert answers["gamma3"] == (3, (3,) * 7, 10)
    assert sum(d == 3 for d, _, _ in answers.values()) == 14


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
    the 13 ambient relators, the relations have one row per relator trace
    from each orbit of the relator's root, matrix products number 121 (the
    relators' lifts and F_map of the five generators; sigma and enumeration
    on the coset action multiply none), and the relator traces go straight
    into sparse rows, which become dense only once eliminated: no subgroup
    Presentation and no trace Word is built."""
    counts = {"sigma": 0, "mul": 0}
    counts.update(Word=0, Presentation=0)
    shapes, hnf_rows = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def eliminating(rows, cols, held=frozenset()):
        shape = (len(rows), cols)
        reduced, kept = original_eliminate(rows, cols, held)
        shapes.append((shape, len(held), (len(reduced), kept)))
        return reduced, kept

    def hermite(rows):
        hnf_rows.extend(rows)
        return original_hermite(rows)

    original_eliminate = zlinalg._eliminate
    original_hermite = weightdenom.hermite_normal_form
    monkeypatch.setattr(cocycle, "sigma", counted("sigma", cocycle.sigma))
    monkeypatch.setattr(zlinalg, "_eliminate", eliminating)
    monkeypatch.setattr(weightdenom, "hermite_normal_form", hermite)
    monkeypatch.setattr(GroupMatrix, "__mul__", counted("mul", GroupMatrix.__mul__))
    for cls in (Word, Presentation):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    upsilon_presentation.cache_clear()
    matgroup._generator_f_images.cache_clear()
    report = weight_denominator_of(SubgroupSpec.parse("gamma3"))
    assert report_answer(report) == (3, (3,) * 7, 10)
    # one sigma per letter of the 13 relators (116) and one per inverse
    # of each generator a relator uses with exponent -1 (40)
    letters = sum(len(r) for r in UPSILON.relators)
    inverses = sum(len({i for i, s in r.letters if s == -1}) for r in UPSILON.relators)
    assert (letters, inverses) == (116, 40)
    assert counts["sigma"] == letters + inverses == 156
    # 81 cosets: 810 edges, 80 of which span the tree, and a Schreier
    # generator for each of the 325 positive edges off it
    assert report.generator_count == 81 * 5 - 80 == 325
    assert report.relator_count == 13 * 81
    # 945 rows are traced, 81 for each relator but 27 for the cubes 4 and
    # 6, whose roots have orbits of 3 cosets; elimination runs on the
    # shortest 489 = 3 * 326 // 2 of them and holds the other 456 back, in
    # one pass with no second; it leaves 520 nonzero rows, 289 of them
    # distinct, and returns the 251 distinct up to sign
    assert shapes == [((945, 326), 456, (251, 17))]
    # the Hermite form takes those 251 rows as they are
    assert len(hnf_rows) == len(set(hnf_rows)) == 251 and all(map(any, hnf_rows))
    # the relators are evaluated once, in the cover: each of their 116
    # letters costs one product, in cover_mul; sigma reads the bottom row of
    # the product without forming it, so sigma(g, g^-1) for the 40 inverses
    # costs none; F_map's unitarity test makes one product per generator
    assert counts["mul"] == letters + 5 == 121
    # the ambient presentation is the only Presentation
    assert counts["Presentation"] == 1
    # the 20 Words spell out the 13 ambient relators, and none is a trace
    assert counts["Word"] == 20


def test_normal_forms_take_each_row_once_and_no_repeated_hermite_pass(monkeypatch):
    """A regression gate for the work between elimination and the Smith
    diagonal: the Hermite form takes the reduced rows as elimination
    returns them, each once up to sign, 251 on gamma3 and 230 over the 40
    index-3 groups (289 and 300 when only equal rows were merged); and the
    Smith loop, handed the transpose of Hermite rows, makes 1 and 49
    Hermite passes (2 and 89 when it began with a pass over rows already
    in Hermite form)."""
    hnf_rows, passes = [], []

    def hermite(rows):
        assert rows == distinct_up_to_sign(rows)
        hnf_rows.extend(rows)
        return original_hermite(rows)

    def smith_pass(rows):
        passes.append(len(rows))
        return original_pass(rows)

    original_hermite = weightdenom.hermite_normal_form
    original_pass = zlinalg.hermite_normal_form
    monkeypatch.setattr(weightdenom, "hermite_normal_form", hermite)
    monkeypatch.setattr(zlinalg, "hermite_normal_form", smith_pass)
    weight_denominator_of(SubgroupSpec.parse("gamma3"))
    assert (len(hnf_rows), len(passes)) == (251, 1)
    hnf_rows.clear()
    passes.clear()
    survey_index3()
    assert (len(hnf_rows), len(passes)) == (230, 49)


def test_elimination_shapes_and_entries(monkeypatch):
    """A regression gate for the pivot rule: the reduced shapes of the 40
    index-3 groups as a multiset, each the nonzero rows left and the kept
    columns, one elimination pass each, and the largest reduced |entry| of
    gamma3 and of the survey."""
    reduced, passes = [], []

    def eliminating(rows, cols):
        result = original_eliminate(rows, cols)
        reduced.append(result)
        return result

    def kernel(rows, cols, held):
        passes.append(len(held))
        return original_kernel(rows, cols, held)

    original_eliminate = weightdenom.eliminate_unit_pivots
    original_kernel = zlinalg._eliminate
    monkeypatch.setattr(weightdenom, "eliminate_unit_pivots", eliminating)
    monkeypatch.setattr(zlinalg, "_eliminate", kernel)

    def largest(results):
        return max(abs(v) for rows, _ in results for row in rows for v in row)

    survey_index3()
    assert Counter((len(rows), cols) for rows, cols in reduced) == {
        (2, 6): 1, (3, 5): 14, (3, 7): 2, (4, 5): 1, (5, 6): 1, (5, 7): 5, (5, 8): 1,
        (6, 5): 3, (6, 6): 1, (7, 5): 2, (9, 5): 1, (9, 8): 1, (10, 5): 1, (11, 6): 2,
        (11, 8): 1, (12, 8): 1, (14, 8): 1, (16, 8): 1,
    }
    # one pass each, with rows held back on all 40
    assert len(passes) == len(reduced) == 40 and min(passes) == 14
    assert largest(reduced) == 21
    reduced.clear()
    passes.clear()
    weight_denominator_of(SubgroupSpec.parse("gamma3"))
    assert [(len(rows), cols) for rows, cols in reduced] == [(251, 17)] and passes == [456]
    # the pivots differ from those of one elimination over all 1053 rows,
    # which left 484 rows with largest |entry| 24, and from those on the
    # 702 rows of relators 1-10, with relators 11-13 held back, which left
    # 280 rows and 215 nonzero substituted ones with largest |entry| 117
    assert largest(reduced) == 624


def test_gamma3_pivot_schedule(caplog):
    """A regression gate for the rounds, not only the final shape: the
    DEBUG line of each of the 15 rounds of gamma3's elimination on its 489
    shortest rows that take pivots, 309 pivots in all, as many as one
    elimination over all 1053 rows took, then the line for the 456 rows
    held back: 440 of them nonzero after substitution, counted from their
    packed totals, in fields of 34 bits, the width that the largest row
    norm times the largest column bound gives (a bound for each row alone
    gave 25); and 4797 rows costed in the rounds, where costing every
    candidate row in each of the 25 rounds costed 12225."""
    with caplog.at_level(logging.DEBUG, logger="su21.zlinalg"):
        weight_denominator_of(SubgroupSpec.parse("gamma3"))
    schedule = [
        (0, 40, 449), (3, 30, 416), (7, 7, 403), (15, 63, 336), (31, 55, 281),
        (63, 52, 204), (63, 2, 200), (127, 23, 160), (127, 1, 157), (255, 19, 131),
        (255, 2, 128), (511, 9, 98), (511, 1, 97), (511, 1, 96), (1023, 4, 80),
    ]
    assert [r.getMessage() for r in caplog.records] == [
        "unit pivots: limit %d, %d taken, %d rows left" % round_ for round_ in schedule
    ] + [
        "held-back rows: 456, 440 nonzero after substitution, 34-bit fields; 4797 rows costed"
    ]
    assert sum(taken for _, taken, _ in schedule) == 309


def tracing(traced, trace=reidemeister_schreier):
    """A stand-in for weightdenom's reidemeister_schreier that calls trace
    and appends a copy of the rows it returns, its generator count and its
    graph to traced, for the all-rows oracle."""

    def wrapper(*args, **kwargs):
        rows, generator_count, graph = trace(*args, **kwargs)
        traced.extend((copy.deepcopy(rows), generator_count, graph))
        return rows, generator_count, graph

    return wrapper


@pytest.fixture(scope="module")
def lattice_runs():
    """weight_denominator_of on each of the 212 lattice groups and
    gamma_sqrt3, run once for the tests that read them all: spec ->
    (report, (kept columns, elimination passes) of its one elimination,
    (rows, generator_count, graph) as traced)."""
    runs, eliminations, passes, traced = {}, [], [], []

    def eliminating(rows, cols):
        result = original_eliminate(rows, cols)
        eliminations.append(result[1])
        return result

    def kernel(rows, cols, held):
        passes.append(len(rows))
        return original_kernel(rows, cols, held)

    original_eliminate = weightdenom.eliminate_unit_pivots
    original_kernel = zlinalg._eliminate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weightdenom, "eliminate_unit_pivots", eliminating)
        patch.setattr(zlinalg, "_eliminate", kernel)
        patch.setattr(weightdenom, "reidemeister_schreier", tracing(traced))
        for spec in lattice_specs() + (SubgroupSpec.parse("gamma_sqrt3"),):
            report = weight_denominator_of(spec)
            (kept,) = eliminations
            runs[spec] = (report, (kept, len(passes)), tuple(traced))
            eliminations.clear()
            passes.clear()
            traced.clear()
    return runs


def test_holding_rows_back_is_exact_on_every_lattice_group(lattice_runs):
    """eliminate_unit_pivots eliminates on the shortest rows and rewrites
    the rest afterwards, which is exact for any split.  On all 212 lattice
    groups and gamma_sqrt3 the report equals that of the all-rows oracle,
    one elimination over every relator traced from every coset with no
    row held back.

    The kept columns, summed over the 213, gate a row rule that starves
    elimination: with too few rows eliminated on, rewritten rows keep more
    columns.  Each elimination is one pass of the kernel."""
    assert len(lattice_runs) == 213
    for spec, (report, _, traced) in lattice_runs.items():
        assert report == all_rows_report(spec, *traced), spec.name()
    assert sum(kept for _, (kept, _), _ in lattice_runs.values()) == 1650
    assert Counter(passes for _, (_, passes), _ in lattice_runs.values()) == {1: 213}


def test_relators_1_to_10_span_the_lattice_of_all_relators(lattice_runs, caplog):
    """A fact of the presentations, whatever rows the pipeline holds back:
    elimination on the rows of every relator but 11-13, with the rows of
    relators 11-13 held back, takes the pivots of an elimination on the
    other rows alone, and the rows of relators 11-13, substituted, leave
    the nonzero rows of its Hermite form unchanged.  So on all 212 lattice
    groups and gamma_sqrt3 the rows of relators 11-13 lie in the lattice
    of the other relators' rows, and the abelianized covers that Upsilon's
    first 10 and all 13 relators present are equal.  The equal invariants
    alone give that: the 10-relator group maps onto the 13-relator one,
    and a finitely generated abelian group is Hopfian, so a map onto a
    group isomorphic to it is an isomorphism.  The rows of relators 11-13
    that are nonzero after substitution are counted from the DEBUG line,
    as the elimination returns each row once up to sign."""

    def nonzero_hnf(rows):
        return [row for row in hermite_normal_form(rows) if any(row)]

    substituted = Counter()
    for spec, (_, _, (rows, generator_count, _)) in lattice_runs.items():
        cols = generator_count + 1
        relator = [k for k, traced in enumerate(rows) for _ in traced]
        flat = copy.deepcopy([row for traced in rows for row in traced])
        held = {i for i, k in enumerate(relator) if k in (10, 11, 12)}
        others = [dict(row) for i, row in enumerate(flat) if i not in held]
        reduced, kept = zlinalg._eliminate(others, cols, ())
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="su21.zlinalg"):
            reduced_all, kept_all = zlinalg._eliminate(flat, cols, held)
        assert kept_all == kept, spec.name()
        assert nonzero_hnf(reduced) == nonzero_hnf(reduced_all), spec.name()
        counts = caplog.records[-1].getMessage().removeprefix("held-back rows: ")
        assert int(counts.partition(",")[0]) == len(held), spec.name()
        nonzero = int(counts.split()[1])
        substituted.update({True: nonzero, False: len(held) - nonzero})
    # most rows of relators 11-13 are not zero after substitution, so the
    # check bites
    assert substituted[True] > substituted[False] > 0


def test_reports_are_invariant_under_the_symmetries_of_upsilon(lattice_runs):
    """A metamorphic test on all 212 lattice groups: for each of the three
    symmetries phi of upsilon, the group of g with phi(g) in H has the
    report of H, computed through the same engine on another coset action.
    Galois conjugation is -1 on F_3^4 and fixes every group; its part is
    in sigma, which lifts the relators over the conjugated generators to
    the negated central parts, as it sends z to -z.  The two conjugations
    lift them to the same central parts, and the three maps split the 212
    groups into 80 orbits."""
    reports = {spec: run[0] for spec, run in lattice_runs.items() if spec.rows is not None}
    assert len(reports) == 212
    orbit = {spec: spec for spec in reports}  # union-find forest

    def root(spec):
        while orbit[spec] != spec:
            spec = orbit[spec]
        return spec

    moved = {}
    for name, phi in SYMMETRIES.items():
        matrix = symmetry_on_f(phi)
        images = {spec: preimage_spec(spec, matrix) for spec in reports}
        assert set(images.values()) == set(reports), name
        for spec, image in images.items():
            assert reports[image]._replace(group=None) == reports[spec]._replace(group=None), (
                name, spec.name(),
            )
            orbit[root(image)] = root(spec)
        moved[name] = sum(image != spec for spec, image in images.items())
        phi_images = map(phi, UPSILON.images)
        conjugated = Presentation(UPSILON.generator_names, UPSILON.relators, phi_images)
        sign = -1 if name == "Galois conjugation" else 1
        assert conjugated.central == tuple(sign * n for n in UPSILON.central) != (0,) * 13
    assert moved == {
        "conjugation by -J": 176, "conjugation by diag(-1, 1, -1)": 176, "Galois conjugation": 0
    }
    assert len({root(spec) for spec in reports}) == 80


def test_a_fault_in_a_held_back_row_reaches_the_report(monkeypatch):
    """The substitution is exercised, not trusted: in an index-3 group of
    d = 3, the last trace of relator 13, Upsilon's longest relator, with z
    added to it, is the longest row, and eliminate_unit_pivots holds it
    back.  Relator 13 follows from the others, so the fault makes z
    trivial: d is 1, as the all-rows oracle finds on the same rows."""
    spec = SubgroupSpec.parse("index3:1,0,0,0")
    assert weight_denominator_of(spec).weight_denominator == 3
    traced, faulty_held = [], []

    def faulty(*args, **kwargs):
        rows, generator_count, graph = reidemeister_schreier(*args, **kwargs)
        row = rows[12][-1]
        row[generator_count] = row.get(generator_count, 0) + 1
        return rows, generator_count, graph

    def kernel(rows, cols, held):
        longest = all(len(row) < len(rows[-1]) for row in rows[:-1])
        faulty_held.append(longest and len(rows) - 1 in held)
        return original_kernel(rows, cols, held)

    original_kernel = zlinalg._eliminate
    monkeypatch.setattr(weightdenom, "reidemeister_schreier", tracing(traced, faulty))
    monkeypatch.setattr(zlinalg, "_eliminate", kernel)
    report = weight_denominator_of(spec)
    assert faulty_held[0]
    assert report.weight_denominator == 1
    assert report == all_rows_report(spec, *traced)


def test_held_back_rows_log_at_debug_only(caplog, monkeypatch):
    """One DEBUG line on su21.zlinalg per elimination, after its rounds,
    gives the rows held back, how many are nonzero after substitution, the
    width of the packed fields and the rows costed, 2794 over the 40
    index-3 groups (4473 when every round costed every candidate row); at
    the default level nothing is logged and the logger's debug is never
    called."""
    gamma3 = SubgroupSpec.parse("gamma3")

    def held_back_lines():
        return [
            (r.name, r.getMessage()) for r in caplog.records if r.msg.startswith("held-back")
        ]

    with caplog.at_level(logging.DEBUG, logger="su21.zlinalg"):
        weight_denominator_of(gamma3)
        assert held_back_lines() == [
            (
                "su21.zlinalg",
                "held-back rows: 456, 440 nonzero after substitution, 34-bit fields; "
                "4797 rows costed",
            )
        ]
        caplog.clear()
        survey_index3()
    assert Counter(message.partition(",")[0] for _, message in held_back_lines()) == {
        "held-back rows: 14": 18, "held-back rows: 16": 18, "held-back rows: 18": 4
    }
    costed = [int(message.rpartition("; ")[2].split()[0]) for _, message in held_back_lines()]
    assert sum(costed) == 2794
    caplog.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("debug called with DEBUG off")

    monkeypatch.setattr(logging.getLogger("su21.zlinalg"), "debug", refuse)
    with caplog.at_level(logging.WARNING):
        weight_denominator_of(gamma3)
    assert not caplog.records


def test_warm_survey_and_gamma3_counters(monkeypatch):
    """Deterministic work with upsilon_presentation() already built, a
    regression gate for the survey: enumeration steps on the points of the
    coset action, so the 40 index-3 groups and gamma3 make no matrix
    product."""
    counts = {"mul": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def work(run):
        counts.update(dict.fromkeys(counts, 0))
        run()
        return counts["mul"]

    upsilon_presentation()
    gamma3 = SubgroupSpec.parse("gamma3")
    gamma3.coset_action()  # F_map of the five generators, once per process
    monkeypatch.setattr(GroupMatrix, "__mul__", counted("mul", GroupMatrix.__mul__))
    assert work(survey_index3) == 0
    assert work(lambda: weight_denominator_of(gamma3)) == 0


def test_survey_finds_no_root_and_builds_each_table_once(monkeypatch):
    """A regression gate for the survey's fixed costs.  Each relator's root
    is found once per presentation, so with upsilon_presentation() built
    the 40 index-3 reports find none.  A cold survey builds each coset
    translation table once: 6 of them, one per shift 0, 1, 2 and sign, and
    gamma3 8, as n1 and n2 have one image under F_map."""
    upsilon_presentation()
    original, calls = fpgroup._root, []

    def counted(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(fpgroup, "_root", counted)
    matgroup._translation.cache_clear()
    survey_index3()
    assert calls == []
    info = matgroup._translation.cache_info()
    assert (info.misses, info.currsize) == (6, 6)
    matgroup._translation.cache_clear()
    weight_denominator_of(SubgroupSpec.parse("gamma3"))
    info = matgroup._translation.cache_info()
    assert (info.misses, info.currsize) == (8, 8)


def test_gamma3_and_survey_leave_gamma_sqrt3_presentation_unbuilt():
    """Only gamma_sqrt3 builds its presentation: a cold gamma3 and the
    40-group survey run on upsilon's alone."""
    upsilon_presentation.cache_clear()
    gamma_sqrt3_presentation.cache_clear()
    weight_denominator_of(SubgroupSpec.parse("gamma3"))
    survey_index3()
    assert gamma_sqrt3_presentation.cache_info().currsize == 0
    assert upsilon_presentation.cache_info().currsize == 1


def test_index3_enumeration_checks_no_unitarity(monkeypatch):
    """An index-3 group has 3 * 5 - 2 = 13 Schreier generators, and
    enumeration on the coset action tests none of them, nor any matrix,
    for unitarity."""
    calls = []
    original = GroupMatrix.is_unitary

    def counted(self):
        calls.append(self)
        return original(self)

    upsilon_presentation()
    SubgroupSpec.parse("index3:1,0,0,0").coset_action()  # F_map of the generators
    monkeypatch.setattr(GroupMatrix, "is_unitary", counted)
    report = weight_denominator_of(SubgroupSpec.parse("index3:1,0,0,0"))
    assert report.weight_denominator == 3
    assert report.generator_count == 13
    assert calls == []

@pytest.mark.parametrize(
    "value",
    [
        Word([(0, 1), (2, -1)]),
        UPSILON,
        SubgroupSpec.parse("index3:2,0,1,0"),
        GENERATORS[1],
        EisensteinInt(3, -4),
        CoverElement(GENERATORS[0], 5),
        BallPoint(-2.0, 0.5j),
        CosetGraph([(0,)], {(0, 1): [0], (0, -1): [0]}, 1, {(0, 0): 0}),
        DenominatorReport("upsilon", 1, 5, 13, 1, (3, 3, 3), 2),
    ],
    ids=lambda value: type(value).__name__,
)
def test_pickle_round_trip(value):
    clone = pickle.loads(pickle.dumps(value))
    assert type(clone) is type(value)
    assert clone == value
    if not isinstance(value, CosetGraph):  # its dicts cannot be hashed
        assert hash(clone) == hash(value)
    with pytest.raises(AttributeError):
        clone.extra = 1


def test_unpickling_skips_the_constructor(monkeypatch):
    """A pickle restores the fields it holds; the relators are not checked
    against the images again."""
    data = pickle.dumps(UPSILON)

    def refuse(self, *args):
        raise AssertionError("constructor ran")

    monkeypatch.setattr(Presentation, "__init__", refuse)
    assert pickle.loads(data) == UPSILON


class _Reduced:
    """Pickles as the given reduce value."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


def test_pickles_that_call_the_constructors_still_load():
    """Pickles that rebuild each value through its constructor, as earlier
    versions wrote them, load as equal values."""
    g = GENERATORS[0]
    for value, reduced in [
        (Word([(0, 1), (2, -1)]), (Word, (((0, 1), (2, -1)),))),
        (UPSILON, (Presentation, (UPSILON.generator_names, UPSILON.relators, UPSILON.images))),
        (SubgroupSpec.parse("index3:2,0,1,0"), (SubgroupSpec, (((1, 0, 2, 0),),))),
        (g, (GroupMatrix, (g.entries,))),
        (EisensteinInt(3, -4), (EisensteinInt, (3, -4))),
        (CoverElement(g, 5), (CoverElement, (g, 5))),
    ]:
        assert pickle.loads(pickle.dumps(_Reduced(reduced))) == value


def test_pickles_with_the_wrong_number_of_fields_fail_to_load():
    """A state that does not fill every slot, such as a Presentation pickled
    before central existed, fails at load time, not at first use."""
    old = (UPSILON.generator_count, UPSILON.generator_names, UPSILON.relators, UPSILON.images)
    for reduced, message in [
        ((object.__new__, (Presentation,), old), "Presentation takes 6 field values, got 4"),
        ((object.__new__, (EisensteinInt,), (3,)), "EisensteinInt takes 2 field values, got 1"),
        # the state of a GroupMatrix pickled when its one field held its rows
        (
            (object.__new__, (GroupMatrix,), (GENERATORS[0].entries,)),
            "GroupMatrix takes a tuple of 18 int coordinates",
        ),
    ]:
        with pytest.raises(TypeError, match=message):
            pickle.loads(pickle.dumps(_Reduced(reduced)))


@pytest.mark.parametrize(
    "value",
    [
        EisensteinInt(3, -4),
        GENERATORS[1],
        Word([(0, 1), (2, -1)]),
        SubgroupSpec.parse("index3:2,0,1,0"),
        CoverElement(GENERATORS[0], 5),
    ],
    ids=lambda value: type(value).__name__,
)
def test_repr_evaluates_back(value):
    types = (EisensteinInt, GroupMatrix, Word, SubgroupSpec, CoverElement)
    assert eval(repr(value), {cls.__name__: cls for cls in types}) == value


def test_presentation_compares_by_value():
    again = Presentation(UPSILON.generator_names, UPSILON.relators, UPSILON.images)
    assert again is not UPSILON
    assert again == UPSILON
    assert hash(again) == hash(UPSILON)
    fewer = Presentation(UPSILON.generator_names, UPSILON.relators[:12], UPSILON.images)
    assert fewer != UPSILON


@pytest.mark.parametrize(
    "value",
    [
        Word([(0, 1), (2, -1)]),
        UPSILON,
        SubgroupSpec.parse("index3:2,0,1,0"),
        GENERATORS[1],
        EisensteinInt(1, 2),
        CoverElement(GENERATORS[0], 5),
    ],
    ids=lambda value: type(value).__name__,
)
def test_value_fields_cannot_be_deleted(value):
    before = repr(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="%s is immutable" % type(value).__name__):
            delattr(value, name)
    assert repr(value) == before
