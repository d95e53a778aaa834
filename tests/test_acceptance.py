"""Acceptance suite: one test per headline requirement, each printing a
single PASS line with its runtime and asserting the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from su21.cocycle import X_of, sigma
from su21.eisenstein import EisensteinInt
from su21.fpgroup import evaluate_word, upsilon_presentation
from su21.gendecomp import _descend_step, decompose, first_column_height
from su21.matgroup import (
    IDENTITY,
    ZETA_IDENTITY,
    F_map,
    SubgroupSpec,
    generators_upsilon,
    in_gamma_beta,
    make_n,
    make_n_transpose,
)
from su21.weightdenom import (
    central_commutator_witness,
    lift_word,
    survey_index3,
    weight_denominator_of,
)
from su21.zlinalg import IntegerMatrix, hermite_normal_form, smith_normal_form
from helpers import (
    BASE_POINT,
    FALLBACK_BASE_POINTS,
    BallPoint,
    LatticeOracle,
    embed,
    exponent_sums,
    j_factor,
    lattices_equal,
    random_matrix_rows,
    random_word,
    sigma_at,
    smith_via_minor_gcds,
)

GENERATORS = generators_upsilon()

# Index-3 subgroups expected to have weight denominator 3 (canonical vectors).
EXPECTED_DENOM3_VECTORS = {
    (0, 0, 1, 0),
    (0, 0, 1, 1),
    (0, 0, 1, 2),
    (0, 1, 1, 0),
    (0, 1, 2, 0),
    (1, 0, 0, 0),
    (1, 0, 0, 1),
    (1, 0, 0, 2),
    (1, 0, 2, 0),
    (1, 1, 0, 0),
    (1, 1, 2, 2),
    (1, 2, 0, 0),
    (1, 2, 2, 1),
}

# Reports stashed by criteria 3-5 and audited by criterion 10.
REPORTS = {}


def _report_pass(number, elapsed, budget, detail):
    print(
        "criterion %02d PASS  %s  (%.3fs, budget %gs)"
        % (number, detail, elapsed, budget)
    )
    assert elapsed < budget


def random_element(rng, max_len=10):
    word = random_word(rng, max_len)
    g = evaluate_word(word, GENERATORS)
    for _ in range(rng.randrange(3)):
        g = g * ZETA_IDENTITY
    return g


def test_criterion_01_presentation_relators():
    start = time.perf_counter()
    presentation = upsilon_presentation()
    assert presentation.generator_count == 5
    assert len(presentation.relators) == 13
    for relator in presentation.relators:
        assert evaluate_word(relator, presentation.images) == IDENTITY
    elapsed = time.perf_counter() - start
    _report_pass(1, elapsed, 1.0, "all 13 relators evaluate to the identity")


def test_criterion_02_central_witness():
    start = time.perf_counter()
    word = central_commutator_witness()
    assert exponent_sums(word, 5) == [0, 0, 0, 0, 0]
    lift = lift_word(word, upsilon_presentation().images)
    assert lift.g == IDENTITY
    assert lift.n == -1
    elapsed = time.perf_counter() - start
    _report_pass(
        2, elapsed, 1.0, "witness word is balanced and lifts to (I, -1)"
    )


def test_criterion_03_level_sqrt3_denominators():
    start = time.perf_counter()
    upsilon = weight_denominator_of(SubgroupSpec.parse("upsilon"))
    gamma_sqrt3 = weight_denominator_of(SubgroupSpec.parse("gamma_sqrt3"))
    assert upsilon.weight_denominator == 1
    assert gamma_sqrt3.weight_denominator == 1
    REPORTS["upsilon"] = upsilon
    REPORTS["gamma_sqrt3"] = gamma_sqrt3
    elapsed = time.perf_counter() - start
    _report_pass(
        3, elapsed, 5.0, "both level-sqrt(-3) groups have weight denominator 1"
    )


def test_criterion_04_gamma3_denominator():
    start = time.perf_counter()
    report = weight_denominator_of(SubgroupSpec.parse("gamma3"))
    assert report.index_in_upsilon == 81
    assert report.weight_denominator == 3
    REPORTS["gamma3"] = report
    elapsed = time.perf_counter() - start
    _report_pass(
        4,
        elapsed,
        600.0,
        "level-3 principal congruence subgroup: index 81, weight denominator 3",
    )


def test_criterion_05_index3_survey():
    start = time.perf_counter()
    results = survey_index3()
    assert len(results) == 40
    denom3 = set()
    for vector, report in results:
        REPORTS["index3:%s" % (vector,)] = report
        if report.weight_denominator == 3:
            denom3.add(vector)
        else:
            assert report.weight_denominator == 1
    assert denom3 == EXPECTED_DENOM3_VECTORS
    elapsed = time.perf_counter() - start
    _report_pass(
        5,
        elapsed,
        300.0,
        "exactly the expected 13 of 40 index-3 subgroups have denominator 3",
    )


def test_criterion_06_cocycle_suite():
    start = time.perf_counter()
    rng = random.Random(600)

    # integer cocycle identity on 1000 random triples
    for _ in range(1000):
        g = random_element(rng, 8)
        h = random_element(rng, 8)
        k = random_element(rng, 8)
        assert sigma(g, h) + sigma(g * h, k) == sigma(g, h * k) + sigma(h, k)

    # the float oracle agrees with the exact sigma at 5 base points
    base_points = (
        (BASE_POINT,)
        + FALLBACK_BASE_POINTS
        + (BallPoint(-1.5, 0.25), BallPoint(-4.0, -0.5))
    )
    assert len(base_points) >= 5
    for _ in range(250):
        g = random_element(rng, 8)
        h = random_element(rng, 8)
        exact = sigma(g, h)
        for tau in base_points:
            nearest, residual = sigma_at(g, h, tau)
            assert residual < 1e-6
            assert nearest == exact

    # rounding residuals stay far from the half-integer ambiguity point
    worst = 0.0
    for _ in range(1000):
        g = random_element(rng, 10)
        h = random_element(rng, 10)
        _, residual = sigma_at(g, h, BASE_POINT)
        worst = max(worst, residual)
    assert worst < 1e-6

    # half-plane positivity of j/X with explicit margin
    def random_tau():
        while True:
            re = rng.uniform(-5.0, -0.3)
            im = rng.uniform(-1.0, 1.0)
            z2 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if 2.0 * re + abs(z2) ** 2 < -0.05:
                return BallPoint(complex(re, im), z2)

    taus = list(base_points) + [random_tau() for _ in range(20)]
    checked = 0
    for _ in range(1000):
        g = random_element(rng, 10)
        tau = taus[rng.randrange(len(taus))]
        value = j_factor(g, tau) / embed(X_of(g))
        assert value.real > 1e-9
        checked += 1
    assert checked >= 1000

    elapsed = time.perf_counter() - start
    _report_pass(
        6,
        elapsed,
        30.0,
        "cocycle identity, base-point independence, residuals, half-plane margin",
    )


def test_criterion_07_decomposition_round_trip():
    start = time.perf_counter()
    rng = random.Random(700)
    for _ in range(200):
        word = random_word(rng, 30)
        g = evaluate_word(word, GENERATORS)

        # walk the descent by hand: strict height decrease and the exact
        # norm bound N(b') <= N(pivot) at every step
        current = g
        height = first_column_height(current)
        while height > 1:
            (z, x, transpose), reduced = _descend_step(current)
            m = make_n_transpose(z, x) if transpose else make_n(z, x)
            assert m * current == reduced
            pivot = current[0][0] if transpose else current[2][0]
            assert reduced[1][0].norm() <= pivot.norm()
            new_height = first_column_height(reduced)
            assert new_height < height
            current, height = reduced, new_height

        # full round trip (decompose verifies internally as well)
        assert evaluate_word(decompose(g), GENERATORS) == g
    elapsed = time.perf_counter() - start
    _report_pass(
        7,
        elapsed,
        60.0,
        "200 round trips with strict descent and exact norm bounds",
    )


def test_criterion_08_f_map_suite():
    start = time.perf_counter()
    rng = random.Random(800)

    # displayed values on the five generators
    assert F_map(GENERATORS[0]) == (1, 2, 0, 0)
    assert F_map(GENERATORS[1]) == (1, 2, 0, 0)
    assert F_map(GENERATORS[2]) == (0, 1, 0, 0)
    assert F_map(GENERATORS[3]) == (0, 0, 1, 2)
    assert F_map(GENERATORS[4]) == (0, 0, 0, 1)

    # displayed formula (z, x/2, 0, 0) on random unipotents; division by 2
    # mod 3 is multiplication by 2
    for _ in range(200):
        z = EisensteinInt(rng.randint(-4, 4), rng.randint(-4, 4))
        x = 2 * rng.randint(-5, 5) + (z.norm() % 2)
        r = z.residue_mod_sqrt_minus3()
        assert F_map(make_n(z, x)) == (r, (2 * x) % 3, 0, 0)
        assert F_map(make_n_transpose(z, x)) == (0, 0, r, (2 * x) % 3)

    checked = 0
    for _ in range(1000):
        g = evaluate_word(random_word(rng, 10), GENERATORS)
        h = evaluate_word(random_word(rng, 10), GENERATORS)
        fg, fh = F_map(g), F_map(h)
        assert F_map(g * h) == tuple((a + b) % 3 for a, b in zip(fg, fh))
        # kernel = the level-3 principal congruence subgroup
        assert (fg == (0, 0, 0, 0)) == in_gamma_beta(g, 3)
        # force a kernel element: cancel F(g) with generator powers
        v1, v2, v3, v4 = fg
        tail = IDENTITY
        for gen, exponent in (
            (GENERATORS[0], v1),
            (GENERATORS[2], (v2 - 2 * v1) % 3),
            (GENERATORS[3], v3),
            (GENERATORS[4], (v4 - 2 * v3) % 3),
        ):
            for _ in range(exponent):
                tail = tail * gen
        kernel_element = g * tail.inverse()
        assert F_map(kernel_element) == (0, 0, 0, 0)
        assert in_gamma_beta(kernel_element, 3)
        checked += 1
    assert checked >= 1000

    elapsed = time.perf_counter() - start
    _report_pass(
        8, elapsed, 10.0, "homomorphism, displayed values, kernel = level 3"
    )


def test_criterion_09_normal_form_oracles():
    start = time.perf_counter()
    rng = random.Random(900)
    for _ in range(1000):
        rows, cols = random_matrix_rows(rng, max_dim=4, bound=30)
        m = IntegerMatrix(rows, cols)

        h = hermite_normal_form(m)
        # row-lattice preservation against the brute-force membership oracle
        assert lattices_equal(rows, h.entries, cols)
        # idempotence
        assert hermite_normal_form(h) == h

        s = smith_normal_form(m)
        # SNF is a row-lattice invariant and idempotent on its diagonal form
        assert smith_normal_form(h) == s
        diag = IntegerMatrix(
            [
                [s[i] if i == j else 0 for j in range(cols)]
                for i in range(len(s))
            ],
            cols,
        )
        assert smith_normal_form(diag) == s
        # exact brute-force invariant-factor oracle (gcds of k x k minors)
        assert list(s) == smith_via_minor_gcds(rows, cols)
    elapsed = time.perf_counter() - start
    _report_pass(
        9, elapsed, 60.0, "1000 matrices against brute-force lattice oracles"
    )


def test_criterion_10_divisibility_facts():
    start = time.perf_counter()
    # criteria 3-5 must have stashed their reports: 3 named groups + 40 survey
    assert "upsilon" in REPORTS
    assert "gamma_sqrt3" in REPORTS
    assert "gamma3" in REPORTS
    assert len(REPORTS) == 43
    for name, report in REPORTS.items():
        d = report.weight_denominator
        assert d % 1 == 0 and d >= 1
        if report.index_in_upsilon is not None:
            # denominator divides (index in the ambient group) x (its denominator 1)
            assert report.index_in_upsilon % d == 0, name
    elapsed = time.perf_counter() - start
    _report_pass(
        10, elapsed, 60.0, "1 | d and d | index for all 43 computed reports"
    )
