import cmath
import random
from collections import Counter

import pytest

from su21 import cocycle
from su21.cocycle import (
    COVER_IDENTITY,
    CoverElement,
    _eps,
    _x,
    cover_inv,
    cover_mul,
    sigma,
)
from su21.fpgroup import evaluate_word, upsilon_presentation
from su21.matgroup import IDENTITY, ZETA_IDENTITY, GroupMatrix, generators_upsilon, make_n
from helpers import (
    BASE_POINT,
    FALLBACK_BASE_POINTS,
    ONE,
    SIGMA_TOLERANCE,
    ZETA,
    BallPoint,
    BranchToleranceError,
    EisensteinInt,
    X_of,
    act,
    embed,
    float_sigma,
    j_factor,
    j_tilde,
    random_eisenstein,
    random_upsilon_element,
    random_word,
    reference_eps,
    reference_sigma,
    sigma_at,
)

TWO_PI = 2.0 * cmath.pi


def random_element(rng, max_len=8):
    # words over the unipotent generators with occasional central factors,
    # so both X branches (lower-left zero and nonzero) appear
    g = random_upsilon_element(rng, max_len)
    for _ in range(rng.randrange(3)):
        g = g * ZETA_IDENTITY
    return g


def test_ball_point_domain():
    BallPoint(-2.0, 0.0)
    BallPoint(-1.0, 0.5)
    with pytest.raises(ValueError):
        BallPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        BallPoint(-0.5, 1.5)
    assert BASE_POINT.tau1 == -2.0 and BASE_POINT.tau2 == 0.0
    assert len(FALLBACK_BASE_POINTS) == 2


def test_action_stays_in_domain():
    rng = random.Random(11)
    for _ in range(60):
        g = random_element(rng)
        tau = act(g, BASE_POINT)
        assert isinstance(tau, BallPoint)
        assert 2.0 * tau.tau1.real + abs(tau.tau2) ** 2 < 0


def test_action_is_compatible_with_multiplication():
    rng = random.Random(12)
    for _ in range(40):
        g = random_element(rng)
        h = random_element(rng)
        left = act(g, act(h, BASE_POINT))
        right = act(g * h, BASE_POINT)
        assert abs(left.tau1 - right.tau1) < 1e-8
        assert abs(left.tau2 - right.tau2) < 1e-8


def test_j_factor_cocycle_rule():
    rng = random.Random(13)
    for _ in range(40):
        g = random_element(rng)
        h = random_element(rng)
        lhs = j_factor(g * h, BASE_POINT)
        rhs = j_factor(g, act(h, BASE_POINT)) * j_factor(h, BASE_POINT)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


def test_x_of_branches():
    n3 = make_n(0, 0, 2)
    # zero lower-left entry: the corner is used
    assert _x(*_bottom_corners(n3)) == ONE.pair()
    assert X_of(n3) == ONE
    n5 = n3.transpose()
    minus_a = -EisensteinInt(*n5[2][0])
    assert _x(*_bottom_corners(n5)) == minus_a.pair()
    assert X_of(n5) == minus_a
    zero_row = _zero_bottom_row_matrix()
    with pytest.raises(ValueError):
        _x(*_bottom_corners(zero_row))
    with pytest.raises(ValueError):
        X_of(zero_row)
    for g, h in ((zero_row, IDENTITY), (IDENTITY, zero_row), (zero_row, n5)):
        with pytest.raises(ValueError, match="zero bottom row"):
            sigma(g, h)


def _bottom_corners(g):
    """The coordinates (a0, a1, c0, c1) of the bottom row's entries a and c."""
    (a0, a1), _, (c0, c1) = g[2]
    return a0, a1, c0, c1


def _zero_bottom_row_matrix():
    return GroupMatrix(
        (
            ((1, 0), (0, 0), (0, 0)),
            ((0, 0), (1, 0), (0, 0)),
            ((0, 0), (0, 0), (0, 0)),
        )
    )


def test_j_tilde_of_zeta_identity():
    value = j_tilde(ZETA_IDENTITY, BASE_POINT)
    assert abs(value - complex(0.0, TWO_PI / 3.0)) < 1e-12


def test_sigma_anchor_values():
    assert sigma(ZETA_IDENTITY, ZETA_IDENTITY) == -1
    rng = random.Random(14)
    for _ in range(25):
        g = random_element(rng)
        assert sigma(IDENTITY, g) == 0
        assert sigma(g, IDENTITY) == 0


def test_sigma_residuals_are_tiny():
    rng = random.Random(15)
    for _ in range(50):
        g = random_element(rng)
        h = random_element(rng)
        value, residual = sigma_at(g, h, BASE_POINT)
        assert residual < 1e-9
        assert sigma(g, h) == value


def test_sigma_base_point_independence():
    rng = random.Random(16)
    points = (
        BASE_POINT,
        FALLBACK_BASE_POINTS[0],
        FALLBACK_BASE_POINTS[1],
        BallPoint(-1.5, 0.25),
        BallPoint(-4.0, -0.5),
    )
    for _ in range(25):
        g = random_element(rng)
        h = random_element(rng)
        values = {sigma_at(g, h, tau)[0] for tau in points}
        assert len(values) == 1


def test_sigma_cocycle_identity():
    rng = random.Random(17)
    for _ in range(50):
        g = random_element(rng, 6)
        h = random_element(rng, 6)
        k = random_element(rng, 6)
        assert sigma(g, h) + sigma(g * h, k) == sigma(h, k) + sigma(g, h * k)


def test_cover_element_algebra():
    e = CoverElement(ZETA_IDENTITY, 0)
    cube = e * e * e
    assert cube.g == IDENTITY and cube.n == -1
    six = cube * cube
    assert six.g == IDENTITY and six.n == -2
    assert e * e.inverse() == COVER_IDENTITY
    assert e.inverse() * e == COVER_IDENTITY


def test_cover_associativity():
    rng = random.Random(18)
    for _ in range(30):
        x = CoverElement(random_element(rng, 5), rng.randrange(-2, 3))
        y = CoverElement(random_element(rng, 5), rng.randrange(-2, 3))
        z = CoverElement(random_element(rng, 5), rng.randrange(-2, 3))
        assert (x * y) * z == x * (y * z)


def test_cover_inverse_round_trip():
    rng = random.Random(19)
    for _ in range(30):
        x = CoverElement(random_element(rng, 6), rng.randrange(-2, 3))
        assert cover_mul(x, cover_inv(x)) == COVER_IDENTITY
        assert cover_mul(cover_inv(x), x) == COVER_IDENTITY


def test_central_cover_elements_add():
    a = CoverElement(IDENTITY, 3)
    b = CoverElement(IDENTITY, -5)
    assert (a * b).n == -2
    assert (a * b).g == IDENTITY


def test_sigma_tolerance_configurable():
    # the tolerance belongs to the float oracle; the package's sigma is exact
    assert float_sigma(ZETA_IDENTITY, ZETA_IDENTITY, tolerance=1e-9) == -1
    with pytest.raises(ValueError):
        float_sigma(ZETA_IDENTITY, ZETA_IDENTITY, tolerance=0.6)
    assert SIGMA_TOLERANCE == 1e-6


def test_branch_tolerance_error_reports_residuals():
    # an unreachable tolerance (below the actual rounding residual) forces
    # the failure path through every base point
    g = generators_upsilon()[0] * ZETA_IDENTITY
    h = generators_upsilon()[3]
    points = (BASE_POINT,) + FALLBACK_BASE_POINTS
    floor_residual = min(sigma_at(g, h, tau)[1] for tau in points)
    assert floor_residual > 0.0
    with pytest.raises(BranchToleranceError):
        float_sigma(g, h, tolerance=floor_residual / 2.0)


ZETA_BAR = ZETA.conj()


@pytest.mark.parametrize(
    "u, v, expected",
    [
        (-ONE, -ONE, 1),  # pi + pi, and Arg 1 = 0
        (ZETA, ZETA, 1),  # 2pi/3 + 2pi/3, and zeta^2 = conj(zeta) sits at -2pi/3
        (ZETA_BAR, ZETA_BAR, -1),  # -2pi/3 - 2pi/3, and conj(zeta)^2 = zeta
        (-ONE, ZETA_BAR, 0),  # pi - 2pi/3 = pi/3 = Arg(-conj(zeta))
        (ZETA_BAR, -ONE, 0),
        (ONE, ZETA, 0),
        (ONE, -ONE, 0),
        (ONE, ZETA_BAR, 0),
    ],
)
def test_eps_on_the_branch_cut(u, v, expected):
    assert _eps(u.a, u.b, v.a, v.b) == expected
    assert reference_eps(u, v) == expected


def test_eps_matches_phase():
    rng = random.Random(20)
    for _ in range(2000):
        u = random_eisenstein(rng, 4)
        v = random_eisenstein(rng, 4)
        if u.is_zero() or v.is_zero():
            continue
        turns = (
            cmath.phase(embed(u)) + cmath.phase(embed(v)) - cmath.phase(embed(u * v))
        ) / TWO_PI
        assert _eps(u.a, u.b, v.a, v.b) == reference_eps(u, v) == round(turns), (u, v)


def _elements_pairs(rng, count):
    """Pairs as the benchmark's elements workload makes them: g and h from
    8- to 64-letter words, and (g, h), (gh, k), (g, hk) and (h, k) for a
    third such k."""
    pairs = []
    for _ in range(count):
        g, h, k = (random_upsilon_element(rng, 64, min_len=8) for _ in range(3))
        pairs += [(g, h), (g * h, k), (g, h * k), (h, k)]
    return pairs


def _zero_corner_pairs(rng, count):
    """Pairs with (gh)[2][0] = 0, where X(gh) falls back to the corner:
    h = g^-1 u for u upper (a word in n1, n2, n3, times a central
    factor), and pairs of upper elements."""
    pairs = [(ZETA_IDENTITY, ZETA_IDENTITY)]
    for _ in range(count):
        g = random_element(rng, 12)
        u = evaluate_word(random_word(rng, 10, n_gens=3), generators_upsilon())
        for _ in range(rng.randrange(3)):
            u = u * ZETA_IDENTITY
        pairs += [(g, g.inverse() * u), (u, u), (g.inverse(), g)]
    return pairs


def _relator_lift_pairs(monkeypatch):
    """The pairs sigma sees while the 13 relators of the ambient
    presentation are lifted to the cover."""
    pairs = []
    original = cocycle.sigma

    def recording(g, h):
        pairs.append((g, h))
        return original(g, h)

    monkeypatch.setattr(cocycle, "sigma", recording)
    upsilon_presentation.cache_clear()
    upsilon_presentation()
    monkeypatch.undo()
    upsilon_presentation.cache_clear()
    return pairs


def test_sigma_matches_reference(monkeypatch):
    """sigma on integer coordinates equals the EisensteinInt sigma from the
    full product g * h: on elements-style pairs with large entries, on
    pairs with (gh)[2][0] = 0, and on every pair the relator lifts make."""
    rng = random.Random(21)
    elements = _elements_pairs(rng, 20)
    corner = _zero_corner_pairs(rng, 20)
    assert all((g * h).entry(2, 0) == (0, 0) for g, h in corner)
    relators = _relator_lift_pairs(monkeypatch)
    assert (len(elements), len(corner), len(relators)) == (80, 61, 156)
    values = Counter()
    for g, h in elements + corner + relators:
        value = sigma(g, h)
        assert value == reference_sigma(g, h), (g, h)
        values[value] += 1
    assert set(values) == {-1, 0, 1}


def test_sigma_forms_no_product_and_no_eisenstein_int(monkeypatch):
    """sigma reads bottom rows and multiplies coordinate pairs only: no
    GroupMatrix product, on the seeded pairs of test_sigma_matches_reference.
    The package has no Eisenstein integer type to build."""
    rng = random.Random(21)
    pairs = _elements_pairs(rng, 20) + _zero_corner_pairs(rng, 20)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(GroupMatrix, "__mul__", counted("product", GroupMatrix.__mul__))
    for g, h in pairs:
        sigma(g, h)
    assert counts == {}
