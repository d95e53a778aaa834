import copy
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su21 import weightdenom, zlinalg
from su21.matgroup import SubgroupSpec, all_index3_vectors
from su21.zlinalg import (
    _eliminate,
    cokernel_invariants,
    eliminate_unit_pivots,
    hermite_normal_form,
    last_coordinate_order_of_hnf,
    smith_normal_form,
)
from helpers import (
    LatticeOracle,
    distinct_up_to_sign,
    lattice_sample,
    lattices_equal,
    order_of_last_coordinate,
    random_matrix_rows,
    rescanning_elimination,
    smith_via_minor_gcds,
    sparse_rows,
)


def hnf_structure_ok(h) -> bool:
    pivots = []
    seen_zero_row = False
    for row in h:
        leading = next((c for c, v in enumerate(row) if v), None)
        if leading is None:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False  # nonzero row below a zero row
        if pivots and leading <= pivots[-1]:
            return False  # pivot columns must strictly increase
        if row[leading] <= 0:
            return False
        pivots.append(leading)
    # entries above each pivot reduced into [0, pivot)
    for k, col in enumerate(pivots):
        pivot = h[k][col]
        for r in range(k):
            if not 0 <= h[r][col] < pivot:
                return False
    return True


def test_known_hnf():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert hermite_normal_form(m) == [[2, 0, 120], [0, 2, 20], [0, 0, 156]]
    assert smith_normal_form(m) == (2, 2, 156)


def test_zero_and_degenerate_cases():
    z = [[0, 0, 0], [0, 0, 0]]
    assert hermite_normal_form(z) == z
    assert smith_normal_form(z) == (0, 0)
    # no rows: Z^2 is free of rank 2
    assert hermite_normal_form([]) == []
    assert smith_normal_form([]) == ()
    assert cokernel_invariants([], 2) == ((), 2)
    assert last_coordinate_order_of_hnf([]) is None
    # zero columns: the quotient is 0
    assert hermite_normal_form([(), ()]) == [[], []]
    assert smith_normal_form([(), ()]) == ()
    assert cokernel_invariants([(), ()], 0) == ((), 0)
    assert last_coordinate_order_of_hnf([[], []]) is None
    assert hermite_normal_form([[-7]]) == [[7]]
    assert smith_normal_form([[-7]]) == (7,)


def test_normal_forms_leave_their_argument_unchanged():
    """Each normal-form function copies its rows: a list-of-lists argument
    is unchanged afterwards, the Hermite form shares no row with it, and
    tuple rows give equal results."""
    rng = random.Random(19)
    cases = [([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)]
    cases += [random_matrix_rows(rng, max_dim=5, bound=30) for _ in range(40)]
    for rows, cols in cases:
        before = copy.deepcopy(rows)
        as_tuples = [tuple(row) for row in rows]
        h = hermite_normal_form(rows)
        assert rows == before
        assert not {id(row) for row in h} & {id(row) for row in rows}
        assert h == hermite_normal_form(as_tuples)
        assert smith_normal_form(rows) == smith_normal_form(as_tuples)
        assert rows == before
        assert cokernel_invariants(rows, cols) == cokernel_invariants(as_tuples, cols)
        assert rows == before
        h_before = copy.deepcopy(h)
        order = last_coordinate_order_of_hnf(h)
        assert h == h_before
        assert order == last_coordinate_order_of_hnf([tuple(row) for row in h])


def test_hnf_random_against_lattice_oracle():
    rng = random.Random(20)
    for _ in range(250):
        rows, cols = random_matrix_rows(rng, max_dim=5, bound=30)
        h = hermite_normal_form(rows)
        assert hnf_structure_ok(h)
        assert lattices_equal(rows, h, cols)
        # idempotence
        assert hermite_normal_form(h) == h


def test_snf_random_against_minor_gcd_oracle():
    rng = random.Random(21)
    for _ in range(120):
        rows, cols = random_matrix_rows(rng, max_dim=4, bound=12)
        s = smith_normal_form(rows)
        assert list(s) == smith_via_minor_gcds(rows, cols)
    # a diagonal out of divisibility order, zeros first and in between
    rows = [[d if i == j else 0 for j in range(5)] for i, d in enumerate((0, 6, 4, 0, 9))]
    assert smith_normal_form(rows) == (1, 6, 36, 0, 0)
    assert smith_via_minor_gcds(rows, 5) == [1, 6, 36, 0, 0]


def test_snf_divisibility_chain():
    rng = random.Random(22)
    for _ in range(120):
        rows, cols = random_matrix_rows(rng, max_dim=5, bound=25)
        s = smith_normal_form(rows)
        for a, b in zip(s, s[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_against_sympy_invariants():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(23)
    for _ in range(40):
        rows, cols = random_matrix_rows(rng, max_dim=4, bound=15)
        s = smith_normal_form(rows)
        sm = sympy_snf(sympy.Matrix(rows))
        sympy_diag = [
            abs(int(sm[i, i])) for i in range(min(sm.rows, sm.cols))
        ]
        sympy_diag = sorted(sympy_diag, key=lambda d: (d == 0, d))
        ours = sorted(s, key=lambda d: (d == 0, d))
        assert list(ours) == sympy_diag


coords = st.integers(min_value=-60, max_value=60)


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(coords, min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_hnf_properties_hypothesis(rows):
    cols = len(rows[0])
    h = hermite_normal_form(rows)
    assert hnf_structure_ok(h)
    assert lattices_equal(rows, h, cols)
    assert hermite_normal_form(h) == h


def test_huge_entries_pure_python():
    big = 10**40
    m = [[big, 1], [0, big]]
    h = hermite_normal_form(m)
    assert hnf_structure_ok(h)
    assert lattices_equal(m, h, 2)


def test_cokernel_invariants():
    # Z^3 / <(2,0,0), (0,3,0)> = Z/2 + Z/3 + Z
    torsion, free_rank = cokernel_invariants([[2, 0, 0], [0, 3, 0]], 3)
    assert torsion == (6,) or torsion == (2, 3)
    assert free_rank == 1
    # full-rank case with unit factors only
    assert cokernel_invariants([[1, 0], [0, 1]], 2) == ((), 0)


def test_order_of_last_coordinate():
    assert order_of_last_coordinate([[1, 0, 2], [0, 1, 1], [0, 0, 6]], 3) == 6
    assert order_of_last_coordinate([[1, 2, 0]], 3) is None
    assert order_of_last_coordinate([], 2) is None
    assert order_of_last_coordinate([[0, 1]], 2) == 1
    with pytest.raises(ValueError):
        order_of_last_coordinate([], 0)


def test_order_of_last_coordinate_unaffected_by_row_mixing():
    rng = random.Random(24)
    base = [[3, 1, 2], [0, 9, 3], [0, 0, 12]]
    expected = order_of_last_coordinate(base, 3)
    for _ in range(20):
        mixed = [row[:] for row in base]
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            q = rng.randint(-3, 3)
            mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        assert order_of_last_coordinate(mixed, 3) == expected


def mod_q_quotient(rows, cols: int, q: int) -> list:
    """Relations of Z^cols / (row span + q*Z^cols): the rows read mod q."""
    reduced = [[v % q for v in row] for row in rows]
    for i in range(cols):
        reduced.append([q if j == i else 0 for j in range(cols)])
    return reduced


def test_modular_order_is_only_a_lower_bound():
    # The order of the class of e_1 in Z/27 is 27, but reading the matrix
    # mod 3 can only see a divisor: the counterexample for why a modular
    # computation is not a substitute for the exact one.
    assert order_of_last_coordinate([[27]], 1) == 27
    assert order_of_last_coordinate(mod_q_quotient([[27]], 1, 3), 1) == 3
    # generic property: the modular result divides the true order
    rng = random.Random(25)
    for _ in range(60):
        rows, cols = random_matrix_rows(rng, max_dim=4, bound=20)
        true_order = order_of_last_coordinate(rows, cols)
        for q in (2, 3, 4, 9):
            bound = order_of_last_coordinate(mod_q_quotient(rows, cols, q), cols)
            assert bound is not None  # the modular quotient is finite
            if true_order is not None:
                assert true_order % bound == 0


def test_order_of_last_coordinate_against_lattice_oracle():
    # The oracle's echelon basis vector that leads in the last column
    # generates the multiples of e_last in the lattice.
    rng = random.Random(25)
    for _ in range(200):
        rows, cols = random_matrix_rows(rng, max_dim=5, bound=6)
        generator = LatticeOracle(rows, cols).basis.get(cols - 1)
        expected = None if generator is None else abs(generator[-1])
        assert order_of_last_coordinate(rows, cols) == expected
        assert last_coordinate_order_of_hnf(hermite_normal_form(rows)) == expected


def eliminate(rows, cols: int) -> tuple:
    """eliminate_unit_pivots on dense rows, passed sparse."""
    return eliminate_unit_pivots(sparse_rows(rows), cols)


def test_eliminate_unit_pivots_known_cases():
    # x1 occurs only in the first row, which merely defines it: the cheapest
    # pivot drops that row and column and leaves the other row untouched
    assert eliminate([[1, 1, -2], [3, 0, 1]], 3) == ([(3, 1)], 2)
    # x0 = -x1 + 2z substituted into 3*x0 + x1 + z = 0 leaves -2*x1 + 7z = 0
    assert eliminate([[1, 1, -2], [3, 1, 1]], 3) == ([(-2, 7)], 2)
    # the last column is never a pivot, even when it holds the only unit
    assert eliminate([[2, 1]], 2) == ([(2, 1)], 2)
    # nothing to eliminate: unchanged apart from dropped zero rows
    m = [[2, 0, 3], [0, 0, 0], [0, 4, 5]]
    assert eliminate(m, 3) == ([(2, 0, 3), (0, 4, 5)], 3)
    # a zero column is a free generator and is kept
    assert eliminate_unit_pivots([{0: 1, 3: 2}], 4) == ([], 3)
    assert eliminate_unit_pivots([], 0) == ([], 0)
    # a held-back row is substituted into, as the second row above was
    assert _eliminate([{0: 1, 1: 1, 2: -2}, {0: 3, 1: 1, 2: 1}], 3, {1}) == ([(-2, 7)], 2)
    # it is never a pivot, and it is dropped when it substitutes to zero
    assert _eliminate([{0: 1}, {}], 2, {0, 1}) == ([(1, 0)], 2)
    assert _eliminate([{0: 1, 1: 2}, {0: 2, 1: 4}], 2, {1}) == ([], 1)
    # beyond 3 * cols / 2 rows the longest are held back: here the first,
    # which would take x0 = -3z as a pivot row; it rewrites to the row 4z
    # that the fourth row is, which comes out once, first
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}, {1: 1, 2: -2}, {2: 4}, {0: 2}]
    assert eliminate_unit_pivots(rows, 3) == ([(4,), (2,)], 1)
    # a row and its negation come out as one row, in the place of the first
    # and with its last nonzero entry positive
    assert eliminate([[2, -3], [5, 0], [-2, 3], [2, -3]], 2) == ([(-2, 3), (5, 0)], 2)
    assert eliminate([[0, 2, 0], [3, 0, 2], [0, -2, 0]], 3) == ([(0, 2, 0), (3, 0, 2)], 3)
    # a held-back row may keep a unit off z; the Hermite form takes it as
    # it takes any other row
    assert eliminate_unit_pivots([{0: 2}, {0: 3}, {1: 5}, {0: 1, 1: 1}], 2) == (
        [(2, 0), (3, 0), (0, 5), (1, 1)], 2
    )


def test_eliminate_unit_pivots_preserves_quotient():
    rng = random.Random(26)
    for _ in range(300):
        rows, cols = random_matrix_rows(rng, max_dim=7, bound=rng.choice((1, 2, 5)))
        r, r_cols = eliminate(rows, cols)
        assert r_cols <= cols and len(r) <= len(rows)
        assert all(type(row) is tuple and len(row) == r_cols and any(row) for row in r)
        assert cokernel_invariants(r, r_cols) == cokernel_invariants(rows, cols)
        assert order_of_last_coordinate(r, r_cols) == order_of_last_coordinate(rows, cols)
        # with no row held back, no unit is left off the last column, so
        # eliminating again changes nothing
        r, r_cols = _eliminate(sparse_rows(rows), cols, ())
        assert not any(v in (1, -1) for row in r for v in row[:-1])
        assert _eliminate(sparse_rows(r), r_cols, ()) == (r, r_cols)


def checked_kernel(shapes, events=None):
    """A stand-in for zlinalg._eliminate that asserts its result equals the
    rescanning oracle's, each row once up to sign, on a copy of its rows
    with the same rows held back, and appends (rows, held rows, cols) to
    shapes."""

    def checked(rows, cols, held):
        expected, kept = rescanning_elimination(copy.deepcopy(rows), cols, events, held)
        shapes.append((len(rows), len(held), cols))
        reduced = _eliminate(rows, cols, held)
        assert reduced == (distinct_up_to_sign(expected), kept)
        return reduced

    return checked


def test_elimination_matches_rescanning_oracle_on_pipeline_rows(monkeypatch):
    """The elimination against the rescanning oracle on the rows the
    pipeline hands it: gamma3, upsilon, gamma_sqrt3, the 40 index-3 groups
    and the seeded sample of 8 index-9 and 5 index-27 groups, each with the
    rows held back that eliminate_unit_pivots holds back, all but the
    shortest 3 * cols / 2, in one pass each.  The cubes 4 and 6 give
    one row per orbit of their roots: index / 3 rows each where the root
    moves every coset, as on gamma3, index where it fixes them all."""
    shapes, runs = [], []
    monkeypatch.setattr(zlinalg, "_eliminate", checked_kernel(shapes))
    specs = [SubgroupSpec.parse(name) for name in ("gamma3", "upsilon", "gamma_sqrt3")]
    specs += [SubgroupSpec((v,)) for v in all_index3_vectors()]
    specs += [spec for spec in lattice_sample() if spec.index_in_upsilon() > 3]
    for spec in specs:
        weightdenom.weight_denominator_of(spec)
        runs.append(tuple(shapes))
        shapes.clear()
    first = [run[0] for run in runs]
    assert first[:3] == [(945, 456, 326), (13, 4, 6), (19, 9, 7)]
    assert Counter(first[3:43]) == {(35, 14, 14): 18, (37, 16, 14): 18, (39, 18, 14): 4}
    assert first[43:] == [(105, 48, 38)] * 3 + [(111, 54, 38)] + [(105, 48, 38)] * 4 + [
        (315, 150, 110)
    ] * 5
    assert all(len(run) == 1 for run in runs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substituted_rows_span_the_lattice_of_all_rows(data):
    """Elimination on some rows with the rest held back, against all rows:
    the result is the rescanning oracle's, which substitutes forward, each
    row once up to sign; its Smith invariants and the order of its last
    coordinate are those of all rows; and the nonzero rows of its Hermite
    form are those of the Hermite form of all rows, with the pivot columns
    moved first, that are zero on the pivot columns.  Both are the Hermite
    basis of the lattice of all rows cut down to the kept columns, which is
    the lattice that elimination and substitution must give."""
    cols = data.draw(st.integers(1, 7), label="cols")
    entries = st.sampled_from((1, -1, 1, -1, 2, -2, 3))
    rows = data.draw(
        st.lists(st.dictionaries(st.integers(0, cols - 1), entries), max_size=10), label="rows"
    )
    held = data.draw(st.sets(st.integers(0, len(rows) - 1)) if rows else st.just(set()))
    dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
    kept = []
    oracle_rows, kept_cols = rescanning_elimination(
        copy.deepcopy(rows), cols, held=held, kept_out=kept
    )
    reduced = distinct_up_to_sign(oracle_rows)
    assert _eliminate(rows, cols, held) == (reduced, kept_cols)
    assert cokernel_invariants(reduced, kept_cols) == cokernel_invariants(dense, cols)
    assert order_of_last_coordinate(reduced, kept_cols) == order_of_last_coordinate(dense, cols)
    pivots = [c for c in range(cols) if c not in kept]
    h = hermite_normal_form([[row[c] for c in pivots + kept] for row in dense])
    in_kept = [row[len(pivots):] for row in h if any(row) and not any(row[: len(pivots)])]
    assert in_kept == [row for row in hermite_normal_form(reduced) if any(row)]


def random_sparse_rows(rng):
    """Sparse rows over 1 to 8 columns with entries in -3..3, mixing empty
    rows, rows of one entry, rows whose only unit is in the last column and
    general rows of small entries."""
    cols = rng.randrange(1, 9)
    last = cols - 1
    rows = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.randrange(4)
        if kind == 0:
            row = {}
        elif kind == 1:
            row = {rng.randrange(cols): rng.choice((1, -1, 2, -3))}
        elif kind == 2:
            row = {c: rng.choice((2, -2, 3, -3)) for c in range(last) if rng.random() < 0.4}
            row[last] = rng.choice((1, -1))
        else:
            density = rng.choice((0.2, 0.5, 0.9))
            row = {c: rng.choice((1, -1, 1, -1, 2, -2, 3)) for c in range(cols) if rng.random() < density}
        rows.append(row)
    return rows, cols


def random_unit_rows(rng):
    """Dense rows of entries +-1 over 3 to 8 columns, whose substitutions
    often cancel an entry and fill it in again later."""
    cols = rng.randrange(3, 9)
    rows = [
        {c: rng.choice((1, -1)) for c in range(cols) if rng.random() < 0.6}
        for _ in range(rng.randrange(3, 12))
    ]
    return rows, cols


def test_elimination_matches_rescanning_oracle_on_random_rows(monkeypatch):
    """Besides the features of the input rows, the oracle counts three of
    the elimination: a target row emptied by a substitution, an entry that
    cancels to 0 and is filled in again, and a round that takes nothing
    after one that did and defers a row after its last pivot, the rows
    whose cost the package does not compute again; and
    eliminate_unit_pivots holds rows back, in its one pass.  The oracle
    takes the same pivots in the same order, with the same rows held back,
    so the rows pass through the same states in both."""
    rng = random.Random(27)
    features = dict.fromkeys(("empty row", "one entry", "unit only in last", "one column"), 0)
    features.update(emptied=0, refilled=0)
    features["deferred past the last pivot"] = 0
    features["held back"] = 0

    def check(rows, cols):
        events, shapes = Counter(), []
        monkeypatch.setattr(zlinalg, "_eliminate", checked_kernel(shapes, events))
        eliminate_unit_pivots(rows, cols)
        for name in events:
            features[name] += 1
        (shape,) = shapes
        features["held back"] += shape[1] > 0

    for _ in range(2500):
        rows, cols = random_sparse_rows(rng)
        last = cols - 1
        features["empty row"] += any(not row for row in rows)
        features["one entry"] += any(len(row) == 1 for row in rows)
        features["unit only in last"] += any(
            row.get(last) in (1, -1) and all(v not in (1, -1) for c, v in row.items() if c != last)
            for row in rows
        )
        features["one column"] += cols == 1
        check(rows, cols)
    rng = random.Random(28)
    for _ in range(800):
        check(*random_unit_rows(rng))
    assert min(features.values()) > 200, features


WIDE = 1 << 70


def random_wide_rows(rng):
    """Sparse rows of units and wide entries, up to 2**70 in size, of both
    signs, with a random set of them held back; or, one time in three, a
    triangular system whose rows express each column but the last as a
    positive combination of the later ones, and held-back rows of one sign
    over it, so that every rewritten coordinate sits at its bound."""
    cols = rng.randrange(2, 8)

    def wide():
        return rng.randrange(2, WIDE + 1)

    if rng.randrange(3):
        rows = [
            {c: rng.choice((1, -1)) * rng.choice((1, 1, wide())) for c in range(cols)
             if rng.random() < 0.5}
            for _ in range(rng.randrange(2, 11))
        ]
        return rows, cols, {i for i in range(len(rows)) if rng.random() < 0.4}
    rows = []
    for p in range(cols - 1):
        sign = rng.choice((1, -1))
        later = {c: -sign * wide() for c in range(p + 1, cols) if rng.random() < 0.6}
        rows.append({p: sign} | later)
    pivots = len(rows)
    for _ in range(rng.randrange(1, 4)):
        sign = rng.choice((1, -1))
        rows.append({c: sign * wide() for c in range(cols) if rng.random() < 0.6})
    return rows, cols, set(range(pivots, len(rows)))


def test_wide_entries_unpack_exactly(caplog):
    """Packed values with entries up to 2**70 against the rescanning oracle,
    which never packs: the rows equal its rows, each once up to sign, and
    the logged field width is at least the width that its bound for each
    row gives.  Its features: a negative coordinate next to a zero one,
    which a field without its bias would borrow from; and a coordinate that
    needs every bit of that per-row width but the sign bit, which a field
    one bit narrower would overflow."""
    rng = random.Random(29)
    features = Counter()
    for _ in range(600):
        rows, cols, held = random_wide_rows(rng)
        widths = []
        reduced, kept = rescanning_elimination(
            copy.deepcopy(rows), cols, held=held, width_out=widths
        )
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="su21.zlinalg"):
            assert _eliminate(rows, cols, held) == (distinct_up_to_sign(reduced), kept)
        logged = int(caplog.records[-1].getMessage().rpartition(", ")[2].partition("-")[0])
        (width,) = widths
        assert logged >= width
        features["negative next to zero"] += any(
            row[t] < 0 and 0 in row[max(t - 1, 0) : t + 2]
            for row in reduced
            for t in range(len(row))
        )
        features["at full width"] += any(
            abs(v).bit_length() == width - 1 for row in reduced for v in row
        )
    assert min(features.values()) > 100, features


def test_elimination_logs_rounds_at_debug_only(caplog, monkeypatch):
    """One DEBUG line per round that takes pivots, and one for the rows
    held back, the width of the packed fields and the rows costed; at the
    default level nothing is logged and the logger's debug is never
    called.  Of m's three rows, the rounds at limits 0 and 3 cost all
    three; the pivot is row 0, so the round after it, which would cost
    rows 1 and 2 as the last round left them, ends at once.  The field
    bounds each coordinate by the largest row norm, 9 of (-2, 7), times the
    largest bound, 3 of x0 = -x1 + 2z: 27 takes 5 bits and a sign bit."""
    m = [[1, 1, -2], [3, 1, 1], [0, 2, 1]]
    with caplog.at_level(logging.DEBUG, logger="su21.zlinalg"):
        assert eliminate(m, 3) == ([(-2, 7), (2, 1)], 2)
    assert [r.getMessage() for r in caplog.records] == [
        "unit pivots: limit 3, 1 taken, 2 rows left",
        "held-back rows: 0, 0 nonzero after substitution, 6-bit fields; 6 rows costed",
    ]
    caplog.clear()
    # the longest row is held back; its coordinate 1 + 2 + 1 over z is
    # bounded by the largest row norm, 4 of the row 4z, times the largest
    # bound, 2 of x1 = 2z, and 8 takes 4 bits and a sign bit
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}, {1: 1, 2: -2}, {2: 4}, {0: 2}]
    with caplog.at_level(logging.DEBUG, logger="su21.zlinalg"):
        assert eliminate_unit_pivots(rows, 3) == ([(4,), (2,)], 1)
    assert caplog.records[-1].getMessage() == (
        "held-back rows: 1, 1 nonzero after substitution, 5-bit fields; 8 rows costed"
    )
    caplog.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("debug called with DEBUG off")

    monkeypatch.setattr(logging.getLogger("su21.zlinalg"), "debug", refuse)
    with caplog.at_level(logging.WARNING):
        assert eliminate(m, 3) == ([(-2, 7), (2, 1)], 2)
    assert not caplog.records
