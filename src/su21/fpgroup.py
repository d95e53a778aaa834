"""Presentation calculus: words, finitely presented groups with matrix images,
and Reidemeister-Schreier relation rows of finite-index subgroups.

Words are freely reduced sequences of (generator index, +-1) letters.  A
Presentation lifts each relator through the universal cover once, which
checks it and keeps its central part.  The Reidemeister-Schreier engine
enumerates cosets as the points of a finite action of the generators, so
it multiplies no matrices, and traces each relator straight into a sparse
row over the Schreier generators and the central generator z; the rows
are all that the weight denominator needs, so no subgroup word or
presentation is built.
"""

from __future__ import annotations

import logging
from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .cocycle import COVER_IDENTITY, CoverElement
from .matgroup import GENERATOR_NAMES, IDENTITY, ZETA_IDENTITY, generators_upsilon
from .value import Value

_log = logging.getLogger(__name__)


class IndexOverflowError(RuntimeError):
    """The coset enumeration exceeded the configured maximum index."""


class OracleInconsistencyError(RuntimeError):
    """A coset action disagrees with the presentation, as an inverse edge
    that does not step back or a relator trace that does not close up, or
    the enumeration found a different index than the subgroup has."""


class Word(Value):
    """A freely reduced word; letters are (generator index, exponent +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((i, s) for i, s in letters)
        for i, s in letters:
            if type(i) is not int or type(s) is not int:
                raise TypeError("letters must be pairs of ints, got %r" % ((i, s),))
            if i < 0:
                raise ValueError("generator index out of range: %d" % i)
            if s not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1, got %d" % s)
        object.__setattr__(self, "letters", _free_reduce_letters(letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return self.to_string()

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word((i, -s) for i, s in reversed(self.letters))

    def __pow__(self, exponent: int) -> "Word":
        if exponent < 0:
            raise ValueError("negative exponent %d: use inverse() ** %d" % (exponent, -exponent))
        return Word(self.letters * exponent)

    def to_string(self, names=None) -> str:
        """Space-separated signed generator names, e.g. 'n1 n3^-1'."""
        parts = []
        for i, s in self.letters:
            name = names[i] if names is not None else "g%d" % (i + 1)
            parts.append(name if s == 1 else name + "^-1")
        return " ".join(parts)

    @classmethod
    def from_string(cls, text: str, names) -> "Word":
        """Parse space-separated tokens name or name^exponent."""
        index_of = {name: i for i, name in enumerate(names)}
        letters = []
        for token in text.split():
            name, caret, suffix = token.partition("^")
            if name not in index_of:
                raise ValueError("unknown generator %r" % name)
            try:
                exponent = int(suffix) if caret else 1
            except ValueError:
                raise ValueError("bad exponent in token %r" % token) from None
            sign = 1 if exponent >= 0 else -1
            letters.extend([(index_of[name], sign)] * abs(exponent))
        return cls(letters)


def _free_reduce_letters(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def evaluate_word(word: Word, images, identity=IDENTITY):
    """Product of the images along the word; inverse letters use .inverse(),
    taken once per generator and call."""
    inverses = {}
    result = identity
    for i, s in word.letters:
        if i >= len(images):
            raise ValueError("generator index %d out of range" % i)
        if s == 1:
            factor = images[i]
        else:
            factor = inverses.get(i)
            if factor is None:
                factor = inverses[i] = images[i].inverse()
        result = result * factor
    return result


def lift_word(word: Word, images) -> CoverElement:
    """Lift of the word under generator i -> (images[i], 0), folded with the
    cover's multiplication.  Factors through free reduction."""
    return evaluate_word(word, [CoverElement(g) for g in images], COVER_IDENTITY)


class Presentation(Value):
    """Generators, relator words, one matrix image per generator, the
    central part n of each relator's lift (I, n) to the universal cover,
    and each relator's root (codes, k) as _root gives it.

    Each relator is lifted, and its root found, once at construction time;
    a lift whose matrix part is not I means a mistranscribed relator, which
    fails loudly.
    """

    __slots__ = ("generator_count", "generator_names", "relators", "images", "central", "roots")

    def __init__(self, generator_names, relators, images):
        names = tuple(str(n) for n in generator_names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        relators = tuple(r if isinstance(r, Word) else Word(r) for r in relators)
        for r in relators:
            if any(i >= len(names) for i, _ in r.letters):
                raise ValueError("relator uses a generator index out of range")
        images = tuple(images)
        if len(images) != len(names):
            raise ValueError("need exactly one image per generator")
        central = []
        for k, r in enumerate(relators):
            lift = lift_word(r, images)
            if lift.g != IDENTITY:
                raise ValueError("relator %d does not evaluate to the identity" % (k + 1))
            central.append(lift.n)
        object.__setattr__(self, "generator_count", len(names))
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "central", tuple(central))
        object.__setattr__(self, "roots", tuple(map(_root, relators)))

    def __repr__(self):
        return "Presentation(%r, <%d relators>)" % (list(self.generator_names), len(self.relators))


def _root(word: Word) -> tuple:
    """(codes, k) for the shortest word w with w^k = word, w's letters
    (generator, sign) coded 2 * generator + (sign == -1)."""
    letters = word.letters
    n = len(letters)
    m = next((m for m in range(1, n) if not n % m and letters[:m] * (n // m) == letters), n)
    return tuple(2 * gi + (s == -1) for gi, s in letters[:m]), n // m if m else 1


@lru_cache(maxsize=None)
def upsilon_presentation() -> Presentation:
    """The five-generator, thirteen-relator presentation of the group
    generated by the unipotent elements n1 = n(1,1), n2 = n(zeta,1),
    n3 = n(0,2), n4 = n1^t, n5 = n3^t, built and lifted once per process."""
    w = lambda text: Word.from_string(text, GENERATOR_NAMES)
    relators = (
        w("n1 n3 n1^-1 n3^-1"),
        w("n2 n3 n2^-1 n3^-1"),
        w("n4 n5 n4^-1 n5^-1"),
        w("n3 n5") ** 3,
        w("n3 n2 n1 n2^-1 n3 n1^-1 n3"),
        w("n1^-1 n3 n4^-1") ** 3,
        w("n5^-1 n2 n5 n4^-1 n1^-1 n2^-1 n3 n4 n3^-1 n1"),
        w("n4^-1 n1^-1 n3 n5 n2 n1 n5^-1 n4 n2^-1 n3^-1"),
        w("n5^-1 n4 n1 n5 n3^-1 n1^-1 n2^-1 n4^-1 n3^-2 n2"),
        w("n5^-1 n2 n1 n5^-1") * w("n4 n1") ** 2 * w("n5^-1 n4 n2^-1"),
        w("n3 n5 n1 n4 n5^-1 n2^-1 n4 n3^-1 n1 n4 n2 n1"),
        w("n3^-1 n1 n4 n2 n3 n1 n5^-1 n1^-1 n4^-1 n5 n1^-1 n2^-1"),
        w("n4^-1 n3^-1 n5 n3 n1^-1 n4^-1 n2 n1 n3^-1 n4 n1 n5^-1 n4 n2^-1 n1^-1 n3"),
    )
    return Presentation(GENERATOR_NAMES, relators, generators_upsilon())


@lru_cache(maxsize=None)
def gamma_sqrt3_presentation() -> Presentation:
    """The level-sqrt(-3) group, the unipotent group times its centre <c>
    for c = zeta*I: upsilon_presentation() plus the generator c and the
    relators c^3 and [c, n_i], built and lifted once per process."""
    upsilon = upsilon_presentation()
    names = upsilon.generator_names + ("c",)
    w = lambda text: Word.from_string(text, names)
    relators = (w("c^3"),) + tuple(w("c %s c^-1 %s^-1" % (n, n)) for n in GENERATOR_NAMES)
    return Presentation(names, upsilon.relators + relators, upsilon.images + (ZETA_IDENTITY,))


class CosetGraph(NamedTuple):
    """The coset graph: vertices are the points of the coset action, vertex
    0 the base point, and steps[letter][v] = w, for each letter
    (generator, sign), means that the letter moves point v to point w.
    symbol_of maps each positive edge (v, generator) off the spanning tree
    to the column of its Schreier generator in the relation rows."""

    vertices: tuple
    steps: dict
    generator_count: int
    symbol_of: dict

    @property
    def index(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> dict:
        """{(v, letter): w} for each coset v, then letter, built on each read."""
        steps = self.steps.items()
        return {(vi, letter): step[vi] for vi in range(self.index) for letter, step in steps}

    def __repr__(self):
        return "CosetGraph(<%d cosets, %d edges>)" % (self.index, self.index * len(self.steps))


def reidemeister_schreier(ambient: Presentation, base, act, max_index: int):
    """Relation rows of the central extension of the finite-index subgroup H
    that fixes base in a transitive action of the ambient group on finitely
    many points, one per right coset H*g: (rows, generator_count, graph),
    with rows[k] the rows of ambient relator k.

    act(point, generator, sign) is the point reached from point by the
    generator with that index, or by its inverse for sign -1; points are
    hashable.  Enumeration is breadth-first with a FIFO queue; each
    dequeued point steps by the generators in index order, the generator
    before its inverse, and the image joins the coset with that point (one
    dict lookup) or founds a new one, so coset numbering is reproducible;
    the graph keeps the enumeration's step lists, one per letter.

    The action is checked, not trusted; OracleInconsistencyError is raised
    unless every inverse edge reverses its positive edge and every relator
    trace closes up, which together prove that the points carry an action
    of the presented group.  The stabiliser of base is then the subgroup
    whose rows are returned, and callers compare the index with the one
    they expect.

    Subgroup generators (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2.4 and 5): one per positive-letter edge r * x -> r' off
    the breadth-first spanning tree, standing for r * x * r'^-1, numbered
    in order of (coset, generator); tree edges stand for the identity.
    Subgroup relators: each ambient relator R traced once from each orbit
    of the cosets under its shortest root (below), each trace returned
    only as its sparse row {column: nonzero entry}, empty rows kept.  The
    row holds the trace's exponent sum of each generator, and -n_R in
    column generator_count, the central generator z = (I, 1), for ambient
    relator R with lift (I, n_R).  Each row is written in one pass: a
    generator whose running sum returns to 0 leaves the row at once and
    rejoins it when a later letter hits it, so no row holds a zero entry.

    Write R = w^k with w its shortest root (ambient.roots).  The walk of R
    from v * w^j is the walk from v rotated by j * |w| letters, so it gives
    the same row and closes up exactly when the walk from v does.  So R is
    traced only from the least coset of each <w>-orbit: the rest are copies.

    That z entry needs no lift of the subgroup.  Lift each coset
    representative along the spanning tree (the lift of r * x is
    lift(r) * lift(x)), and lift the generator of a non-tree edge
    r * x -> r' as lift(r) * lift(x) * lift(r')^-1.  The trace of R from
    coset r then telescopes to lift(r) * (I, n_R) * lift(r)^-1 = (I, n_R),
    as (I, n_R) is central, so n_R comes from ambient.central.

    One DEBUG line on the su21.fpgroup logger gives the cosets, Schreier
    generators and rows traced of each enumeration.
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    coset_of = {base: 0}  # point -> coset number, in the order found
    steps = {(gi, sign): [] for gi in range(ambient.generator_count) for sign in (1, -1)}
    tree = set()  # positive edges (v, generator) of the spanning tree
    queue = deque([base])
    while queue:  # points leave in coset order, so steps[letter][v] is coset v's step
        point = queue.popleft()
        vi = coset_of[point]
        for (gi, sign), step in steps.items():
            image = act(point, gi, sign)
            wj = coset_of.get(image)
            if wj is None:
                if len(coset_of) >= max_index:
                    raise IndexOverflowError("subgroup index exceeds max_index = %d" % max_index)
                wj = coset_of[image] = len(coset_of)
                queue.append(image)
                tree.add((vi, gi) if sign == 1 else (wj, gi))
            step.append(wj)

    index = len(coset_of)
    symbol_of = {}
    # The column of the edge a letter traverses from each coset, None on the
    # tree; a negative letter traverses the positive edge ending where it ends.
    columns = {letter: [None] * index for letter in steps}
    for vi in range(index):
        for gi in range(ambient.generator_count):
            wj = steps[(gi, 1)][vi]
            if steps[(gi, -1)][wj] != vi:
                raise OracleInconsistencyError(
                    "coset %d steps by generator %d to coset %d, but its inverse "
                    "does not step back" % (vi, gi, wj)
                )
            if (vi, gi) not in tree:
                symbol = symbol_of[(vi, gi)] = len(symbol_of)
                columns[(gi, 1)][vi] = columns[(gi, -1)][wj] = symbol

    z = len(symbol_of)  # the column of the central generator
    # indexed by letter code, as steps lists the letters
    lanes = [(step, columns[letter], letter[1]) for letter, step in steps.items()]
    rows = []
    for k, (n, (codes, power)) in enumerate(zip(ambient.central, ambient.roots)):
        root = [lanes[code] for code in codes]
        traced = []
        seen = [False] * index
        for vi in range(index):
            if seen[vi]:
                continue
            row = {}
            current = vi
            for _ in range(power):
                seen[current] = True
                for step, column, sign in root:
                    symbol = column[current]
                    if symbol is not None:
                        count = row.get(symbol, 0) + sign
                        if count:
                            row[symbol] = count
                        else:
                            del row[symbol]
                    current = step[current]
            if current != vi:
                raise OracleInconsistencyError(
                    "relator %d traced from coset %d did not close up" % (k + 1, vi)
                )
            if n:
                row[z] = -n
            traced.append(row)
        rows.append(traced)
    if _log.isEnabledFor(logging.DEBUG):
        message = "cosets: %d, Schreier generators: %d, rows traced: %d"
        _log.debug(message, index, z, sum(map(len, rows)))
    return rows, z, CosetGraph(tuple(coset_of), steps, ambient.generator_count, symbol_of)
