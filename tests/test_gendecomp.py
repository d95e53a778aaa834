import os
import random
import subprocess
import sys
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest

from su21 import gendecomp, matgroup
from su21.fpgroup import Word, evaluate_word
from su21.gendecomp import (
    CHUNK,
    N2_TRANSPOSE_WORD,
    _base_case_parameters,
    _descend_step,
    _letter_factors,
    _rounded_half,
    _word_coords,
    decompose,
    first_column_height,
    nearest_lattice_point,
)
from su21.matgroup import (
    GENERATOR_NAMES,
    IDENTITY,
    ZETA_IDENTITY,
    GroupMatrix,
    generators_upsilon,
    make_n,
)
from helpers import (
    EisensteinInt,
    fraction_rounded_half,
    letterwise_word_coords,
    make_n_transpose,
    random_upsilon_element,
    random_word,
    reference_descend_step,
    unipotent_transpose_word,
    unipotent_word,
    window_nearest_lattice_point,
)

GENERATORS = generators_upsilon()


def ev(word):
    return evaluate_word(word, GENERATORS)


def test_nearest_lattice_point_fixes_integers():
    rng = random.Random(40)
    for _ in range(50):
        z = EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert nearest_lattice_point(z.a, z.b, 1) == (z.a, z.b)
        k = rng.randint(2, 9)
        assert nearest_lattice_point(k * z.a, k * z.b, k) == (z.a, z.b)


def test_nearest_lattice_point_tie_break():
    # 1/2 is equidistant from 0 and 1; the tie-break picks the
    # lexicographically smaller (trace, zeta-coordinate), i.e. 0.
    assert nearest_lattice_point(1, 0, 2) == (0, 0)
    # (2 + zeta)/3, the centre of the triangle 0, 1, 1 + zeta, is
    # equidistant from all three; trace 0 < 1 picks 0 again.
    assert nearest_lattice_point(2, 1, 3) == (0, 0)


def test_nearest_lattice_point_rejects_nonpositive_den():
    for den in (0, -3):
        with pytest.raises(ValueError):
            nearest_lattice_point(1, 0, den)


def test_nearest_lattice_point_is_a_minimizer():
    rng = random.Random(41)
    for _ in range(150):
        num = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        den = rng.randint(1, 12)
        best = EisensteinInt(*nearest_lattice_point(num.a, num.b, den))
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
        best = window_nearest_lattice_point(num, den)
        assert nearest_lattice_point(num.a, num.b, den) == (best.a, best.b)
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
    assert first_column_height(n4) == sum(EisensteinInt(*n4[i][0]).norm() for i in (0, 2))


def test_unipotent_word_matches_matrix():
    rng = random.Random(42)
    for _ in range(80):
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        x = 2 * rng.randint(-5, 5) + (EisensteinInt(p, q).norm() % 2)
        assert ev(unipotent_word(p, q, x)) == make_n(p, q, x)
        assert ev(unipotent_transpose_word(p, q, x)) == make_n_transpose(p, q, x)


def test_unipotent_word_parity_check():
    with pytest.raises(ValueError):
        unipotent_word(1, 0, 0)
    with pytest.raises(ValueError):
        unipotent_transpose_word(0, 0, 1)


def test_n2_transpose_word_identity():
    n2t = GENERATORS[1].transpose()
    assert ev(N2_TRANSPOSE_WORD) == n2t
    assert N2_TRANSPOSE_WORD.to_string(GENERATOR_NAMES) == (
        "n3^-1 n1 n4 n1 n3^-1 n3^-1 n2"
    )


def test_decompose_identity_and_generators():
    assert decompose(IDENTITY) == Word()
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
            (p, q, x, transpose), coords, h2 = _descend_step(g.coords)
            reduced = (make_n_transpose if transpose else make_n)(p, q, x) * g
            assert reduced.coords == coords
            assert h2 == first_column_height(reduced) < h
            g, h = reduced, h2


def _large_entry_elements(rng, count):
    """Products of six unipotents, alternately transposed, with parameters
    of 20 to 40 digits, between short random words: entries of hundreds of
    digits, and steps that clear a large unipotent at once."""
    elements = []
    for _ in range(count):
        g = ev(random_word(rng, 8))
        for i in range(6):
            bound = 10 ** rng.randint(20, 40)
            z = EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
            x = 2 * rng.randint(-bound, bound) + z.norm() % 2
            g = g * (make_n_transpose if i % 2 else make_n)(*z.pair(), x) * ev(random_word(rng, 8))
        elements.append(g)
    return elements


def test_descend_step_matches_eisenstein_oracle():
    """The integer step on coordinates equals its EisensteinInt oracle,
    record (as ints), matrix and height, at every step of seeded elements:
    both pivot branches occur, and entries run to hundreds of digits."""
    rng = random.Random(53)
    elements = [ev(random_word(rng, 64, min_len=8)) for _ in range(20)]
    elements += _large_entry_elements(rng, 6)
    digits = max(
        len(str(abs(v))) for g in elements for row in g.entries for e in row for v in e
    )
    branches = Counter()
    for g in elements:
        while first_column_height(g) > 1:
            (p, q, x, transpose), coords, height = _descend_step(g.coords)
            (z, rx, rt), g, rh = reference_descend_step(g)
            assert ((p, q, x, transpose), coords, height) == ((z.a, z.b, rx, rt), g.coords, rh)
            assert {type(v) for v in (p, q, x)} == {int}
            branches[transpose] += 1
    assert digits >= 300
    assert branches[False] >= 100 and branches[True] >= 100


def test_decompose_round_trips():
    rng = random.Random(44)
    for _ in range(60):
        g = random_upsilon_element(rng, max_len=25)
        word = decompose(g)
        assert ev(word) == g


def test_descent_work_is_pinned(monkeypatch):
    """Total descent steps and word letters over a seeded set of elements,
    so that a change of nearest point or of tie-breaking shows; and the
    work decompose does on them, from an empty chunk memo: one make_n (the
    base case's check) per call, one Word (the result) per call, one
    unitriangular kernel product (_upper_times) per step, per chunk of the
    word check and per letter of each new memo entry, and one general
    matrix product per call (the unitarity test of membership).  The memo
    then holds one entry per distinct chunk, each of at most CHUNK
    letters, keyed by the letter table's own pairs."""
    rng = random.Random(48)
    elements = [ev(random_word(rng, 64, min_len=8)) for _ in range(20)]
    steps = 0
    for g in elements:
        current, height = g.coords, first_column_height(g)
        while height > 1:
            _, current, height = _descend_step(current)
            steps += 1
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_make_n = counted("make_n", matgroup.make_n)
    monkeypatch.setattr(matgroup, "make_n", counted_make_n)
    monkeypatch.setattr(gendecomp, "make_n", counted_make_n)
    monkeypatch.setattr(Word, "__init__", counted("Word", Word.__init__))
    monkeypatch.setattr(GroupMatrix, "__mul__", counted("product", GroupMatrix.__mul__))
    counted_kernel = counted("unitriangular", matgroup._upper_times)
    monkeypatch.setattr(matgroup, "_upper_times", counted_kernel)
    monkeypatch.setattr(gendecomp, "_upper_times", counted_kernel)
    memo = {}
    monkeypatch.setattr(gendecomp, "_CHUNK_FACTORS", memo)
    letters = sum(len(decompose(g)) for g in elements)
    assert (steps, letters) == (300, 1003)
    assert counts == {
        "make_n": 20,
        "Word": 20,
        "unitriangular": 300 + 466 + 389,  # steps, chunks, letters of new entries
        "product": 20,
    }
    assert len(memo) == 127
    assert sum(map(len, memo)) == 389
    assert max(map(len, memo)) == CHUNK
    table = _letter_factors()
    assert all(letter is table[letter][2] for key in memo for letter in key)


def test_decompose_inverts_each_generator_once(monkeypatch):
    """The word check multiplies by the five generators and their five
    inverses, which the letter table forms once per process with one
    inverse() per generator; the unitarity check on g inverts g once per
    call."""
    rng = random.Random(47)
    elements, words = [], []
    for _ in range(2):
        word = Word()
        while len(word) < 60:
            word = word * random_word(rng, 1)
        words.append(word)
        elements.append(ev(word))
    calls = []
    original = GroupMatrix.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GroupMatrix, "inverse", counted)
    _letter_factors.cache_clear()
    found = [decompose(g) for g in elements]
    assert [calls.count(g) for g in elements] == [1, 1]
    assert sorted(map(GENERATORS.index, set(calls) - set(elements))) == [0, 1, 2, 3, 4]
    assert len(calls) == 5 + 2
    monkeypatch.undo()
    assert [len(w) for w in words] == [60, 60]
    assert [ev(w) for w in found] == elements


def test_decompose_word_check_bites(monkeypatch):
    """A letter builder that writes one letter too many gives a word that
    does not evaluate to g, and the final check raises: in the upper
    steps' letters (n1..n3), and in the transposed steps' letters (n4, n5
    and those of N2_TRANSPOSE_WORD), which reach the check's row-reversed
    path."""
    rng = random.Random(54)
    elements = [ev(random_word(rng, 40, min_len=8)) for _ in range(5)]
    builders = {
        "_inverse_letters": [(0, 1), (2, -1)],
        "_transpose_inverse_letters": [(3, 1), (4, -1), *N2_TRANSPOSE_WORD.letters],
    }
    for name, extras in builders.items():
        original = getattr(gendecomp, name)
        for extra in extras:
            calls = []

            def one_letter_more(letters, p, q, x, extra=extra):
                calls.append((p, q, x))
                original(letters, p, q, x)
                letters.append(extra)

            monkeypatch.setattr(gendecomp, name, one_letter_more)
            for g in elements:
                calls.clear()
                with pytest.raises(AssertionError, match="^decomposition failed verification$"):
                    decompose(g)
                assert calls
        monkeypatch.undo()


def test_word_check_product_matches_matrix_fold():
    """_word_coords equals the product of the letters' matrices by
    GroupMatrix.__mul__ and the letter-by-letter fold, on words of upper
    runs (n1..n3) and lower runs (n4, n5, and n2^t's letters), starting and
    ending with either: runs of 1 to 3 * CHUNK letters, reduced or not, so
    that a run is cut into several chunks, and words whose triangularity
    alternates at every letter."""
    rng = random.Random(56)
    matrices = {
        (i, s): n if s == 1 else n.inverse() for i, n in enumerate(GENERATORS) for s in (1, -1)
    }
    words = [[], [(3, 1)], [(0, -1)], list(N2_TRANSPOSE_WORD.letters)]
    for _ in range(40):
        letters = []
        for run in range(rng.randint(1, 6)):
            pool = (0, 1, 2) if (run + rng.randrange(2)) % 2 else (3, 4)
            size = rng.randint(1, 3 * CHUNK)
            letters += [(rng.choice(pool), rng.choice((1, -1))) for _ in range(size)]
        words.append(letters)
    for _ in range(10):
        first = rng.randrange(2)
        words.append([
            (rng.choice(((0, 1, 2), (3, 4))[(first + k) % 2]), rng.choice((1, -1)))
            for k in range(rng.randint(3, 12))
        ])
    runs, longest, alternating = set(), 0, 0
    for letters in words:
        product = IDENTITY
        for letter in letters:
            product = product * matrices[letter]
        assert _word_coords(tuple(letters)) == product.coords, letters
        assert letterwise_word_coords(tuple(letters)) == product.coords, letters
        upper = [i < 3 for i, _ in letters]
        runs.add(tuple(upper[:1] + upper[-1:]))
        longest = max([longest] + [len(list(run)) for _, run in groupby(upper)])
        alternating += len(letters) > 2 and all(a != b for a, b in zip(upper, upper[1:]))
    assert runs >= {(True, True), (True, False), (False, True), (False, False)}
    assert longest > 2 * CHUNK and alternating >= 5


def test_descent_invariant_names_its_inequality(monkeypatch):
    """A nearest point that reduces nothing breaks the step's bound
    N(b') <= N(pivot), and the AssertionError names that inequality."""
    monkeypatch.setattr(gendecomp, "nearest_lattice_point", lambda a, b, den: (0, 0))
    rng = random.Random(57)
    elements = [ev(random_word(rng, 30, min_len=8)) for _ in range(5)]
    for g in [GENERATORS[3] * GENERATORS[0], *elements]:
        with pytest.raises(AssertionError) as raised:
            decompose(g)
        assert str(raised.value) == "descent invariant failed: N(b') <= N(pivot)"


# Runs decompose(n4 n1) under python -O with the nearest point broken as
# above, the descent capped at 100 steps, and prints what stopped it.
_BROKEN_DESCENT = """
import sys
from su21 import gendecomp
from su21.fpgroup import Word, evaluate_word
from su21.matgroup import GENERATOR_NAMES, generators_upsilon

steps = []
step = gendecomp._descend_step


def capped_step(s):
    steps.append(s)
    if len(steps) > 100:
        raise RuntimeError("the descent went on past 100 steps")
    return step(s)


gendecomp._descend_step = capped_step
gendecomp.nearest_lattice_point = lambda a, b, den: (0, 0)
g = evaluate_word(Word.from_string("n4 n1", GENERATOR_NAMES), generators_upsilon())
try:
    gendecomp.decompose(g)
except AssertionError as exc:
    print(sys.flags.optimize, len(steps), exc)
"""


def test_descent_invariants_survive_python_optimize():
    """python -O strips assert statements; the step's invariants are
    explicit checks, so the broken step still raises, at its first step."""
    src = str(Path(gendecomp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_DESCENT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 1 descent invariant failed: N(b') <= N(pivot)\n"


def test_base_case_names_its_invariant():
    """The base case reads z off entry (0, 1) = sqrt(-3) z by integer
    division, and a height-1 matrix whose entry (0, 1) sqrt(-3) does not
    divide, or that is not n(z, x), raises an AssertionError naming which."""
    assert _base_case_parameters(make_n(-3, 5, 1).coords) == (-3, 5, 1)
    coords = list(IDENTITY.coords)
    coords[2:4] = 1, 0
    with pytest.raises(AssertionError) as raised:
        _base_case_parameters(tuple(coords))
    assert str(raised.value) == "descent invariant failed: sqrt(-3) divides entry (0, 1)"
    coords = list(make_n(2, 1, 1).coords)
    coords[8] = 2
    with pytest.raises(AssertionError, match="^height-1 element is not upper unipotent$"):
        _base_case_parameters(tuple(coords))


def test_decompose_rejects_non_members():
    with pytest.raises(ValueError):
        decompose(ZETA_IDENTITY)  # unit scalar, outside the unipotent group
    bad = GroupMatrix(
        [[(2, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (2, 0)]]
    )
    with pytest.raises(ValueError):
        decompose(bad)
