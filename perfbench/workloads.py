"""The benchmark's workloads: inputs made from a seed, the timed operation,
and an exact oracle for each answer.

Every workload is a closed loop with one caller: each operation starts when
the previous one has returned.  A workload object holds no su21 state; it
is handed the freshly imported modules (a dict by module name) each pass.
"""

import random

# Canonical F_3^4 vectors of the index-3 subgroups whose weight denominator
# is 3 (13 of the 40); the other 27 have denominator 1.
DENOM3_VECTORS = frozenset({
    (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0), (0, 1, 2, 0),
    (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 2), (1, 0, 2, 0), (1, 1, 0, 0),
    (1, 1, 2, 2), (1, 2, 0, 0), (1, 2, 2, 1),
})

# Weight denominator, index, torsion invariants and free rank of the
# central extension of Gamma(3).
GAMMA3_ANSWER = (3, 81, (3,) * 7, 10)


class WrongAnswer(AssertionError):
    """An operation returned a value the oracle rejects."""


def _report_answer(report):
    return (
        report.weight_denominator,
        report.index_in_upsilon,
        tuple(report.torsion_invariants),
        report.free_rank,
    )


def _denominator(su21, name):
    """One weight_denominator_of call; returns (answer, errors)."""
    spec = su21["matgroup"].SubgroupSpec.parse(name)
    try:
        report = su21["weightdenom"].weight_denominator_of(spec)
    except Exception as exc:  # counted as a failed operation, by stage and type
        return None, [("weight_denominator_of", exc)]
    return _report_answer(report), []


class Gamma3:
    """The level-3 principal congruence subgroup, index 81: one input.

    Where the large costs are: the 81-coset predicate scan, re-verifying the
    subgroup's relators, the sigma-lifted relation matrix and its HNF."""

    name = "gamma3"

    def make_inputs(self, su21, seed):
        return ["gamma3"]

    def solve(self, su21, item):
        return _denominator(su21, item)

    def summarize(self, answer):
        return answer

    def check(self, su21, item, answer):
        if answer != GAMMA3_ANSWER:
            raise WrongAnswer("gamma3: got %r, expected %r" % (answer, GAMMA3_ANSWER))


def index3_vectors():
    """The 40 nonzero vectors of F_3^4 up to sign, each as the
    lexicographically smaller of v and -v."""
    vectors = set()
    for n in range(1, 81):
        v = (n // 27, n // 9 % 3, n // 3 % 3, n % 3)
        vectors.add(min(v, tuple(-x % 3 for x in v)))
    return sorted(vectors)


class Survey40:
    """All 40 index-3 subgroups, one after another, in a seeded order.

    Each group is cheap to enumerate and reduce, so fixed per-group costs
    (rebuilding and verifying the ambient presentation, about 420 sigma
    calls) dominate."""

    name = "survey40"

    def make_inputs(self, su21, seed):
        names = ["index3:%d,%d,%d,%d" % v for v in index3_vectors()]
        random.Random(seed).shuffle(names)
        return names

    def solve(self, su21, item):
        return _denominator(su21, item)

    def summarize(self, answer):
        return answer

    def check(self, su21, item, answer):
        vector = tuple(int(x) for x in item.partition(":")[2].split(","))
        expected_d = 3 if vector in DENOM3_VECTORS else 1
        if answer[0] != expected_d or answer[1] != 3:
            raise WrongAnswer(
                "%s: got d=%r index=%r, expected d=%d index=3"
                % (item, answer[0], answer[1], expected_d)
            )


# Five words of each length from 8 to 64, so that every seed has the same
# spread of lengths (and of entry sizes, which grow with length).
WORD_LENGTHS = range(8, 65)
WORDS_PER_LENGTH = 5


def random_letters(rng, length):
    """A freely reduced word of exactly this length in n1..n5: each letter
    is drawn uniformly from the nine that do not cancel its predecessor."""
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(5), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return letters


def product(su21, letters):
    """The group element of a word, multiplied out by the benchmark itself
    (not by the package's word evaluator, so it can serve as an oracle)."""
    generators = su21["matgroup"].generators_upsilon()
    inverses = [g.inverse() for g in generators]
    result = su21["matgroup"].IDENTITY
    for i, s in letters:
        result = result * (generators[i] if s == 1 else inverses[i])
    return result


SIGMA_STAGES = ("sigma(g,h)", "sigma(gh,k)", "sigma(g,hk)", "sigma(h,k)")


def known_defect(stage, exc):
    """Whether an error raised by an operation is the known float-sigma
    defect: on large entries a float image of the base point rounds onto
    the boundary of the ball and BallPoint raises ValueError "outside the
    domain".  Such a sigma value is recorded as undefined, the operation
    still completes, and the runner counts these apart from failures.  Any
    other exception, in any stage, fails the operation."""
    return (
        stage in SIGMA_STAGES
        and isinstance(exc, ValueError)
        and "outside the domain" in str(exc)
    )


class Elements:
    """Seeded random elements with large entries; for each g (with h, k the
    next two elements, cyclically): decompose(g), the four sigma values of
    the cocycle identity on (g, h, k), and the identity itself.

    This is the only workload for gendecomp, it bypasses fpgroup's
    enumeration and zlinalg, and it is where the float sigma breaks down:
    in about 78% of operations at least one sigma call raises the known
    ValueError (see known_defect).  Those sigma values are undefined in the
    answer and counted by stage, not avoided; the cocycle identity is
    checked wherever all four are defined."""

    name = "elements"

    def make_inputs(self, su21, seed):
        rng = random.Random(seed)
        lengths = list(WORD_LENGTHS) * WORDS_PER_LENGTH
        rng.shuffle(lengths)
        elements = [product(su21, random_letters(rng, n)) for n in lengths]
        n = len(elements)
        return [
            (elements[i], elements[(i + 1) % n], elements[(i + 2) % n])
            for i in range(n)
        ]

    def solve(self, su21, item):
        g, h, k = item
        sigma = su21["cocycle"].sigma
        errors = []
        try:
            word = su21["gendecomp"].decompose(g)
        except Exception as exc:
            word = None
            errors.append(("decompose", exc))
        gh = g * h
        hk = h * k
        values = []
        for stage, (x, y) in zip(SIGMA_STAGES, ((g, h), (gh, k), (g, hk), (h, k))):
            try:
                values.append(sigma(x, y))
            except Exception as exc:
                values.append(None)
                errors.append((stage, exc))
        return (word, tuple(values)), errors

    def summarize(self, answer):
        word, values = answer
        return (None if word is None else tuple(word)), values

    def check(self, su21, item, answer):
        word, values = answer
        if word is not None and product(su21, word) != item[0]:
            raise WrongAnswer("decompose returned a word that does not evaluate to g")
        if None not in values:
            s_gh, s_gh_k, s_g_hk, s_hk = values
            if s_gh + s_gh_k != s_g_hk + s_hk:
                raise WrongAnswer("sigma values %r break the cocycle identity" % (values,))


WORKLOADS = {w.name: w for w in (Gamma3(), Survey40(), Elements())}
