"""Presentation calculus: words, finitely presented groups with matrix images,
and Reidemeister-Schreier relation rows of finite-index subgroups.

Words are freely reduced sequences of (generator index, +-1) letters.  The
Reidemeister-Schreier engine is generic over the element type: it needs only
multiplication, .inverse() and a coset key for the elements, so it runs both
on matrix images and on abstract words (used to validate the engine against
classical free-group facts).  It traces each relator straight into a sparse
exponent-sum row over the Schreier generators; the rows are all that the
weight denominator needs, so no subgroup word or presentation is built.
"""

from __future__ import annotations

from collections import deque

from .matgroup import IDENTITY, GroupMatrix


class IndexOverflowError(RuntimeError):
    """The coset enumeration exceeded the configured maximum index."""


class OracleInconsistencyError(RuntimeError):
    """The membership predicate is inconsistent with a subgroup structure."""


class Word:
    """A freely reduced word; letters are (generator index, exponent +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=(), reduce: bool = True):
        letters = tuple((int(i), int(s)) for i, s in letters)
        for i, s in letters:
            if i < 0:
                raise ValueError("generator index out of range: %d" % i)
            if s not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1, got %d" % s)
        if reduce:
            letters = _free_reduce_letters(letters)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word, (self.letters, False))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%r)" % (list(self.letters),)

    def __str__(self):
        return self.to_string()

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(
            tuple((i, -s) for i, s in reversed(self.letters)), reduce=False
        )

    def __pow__(self, exponent: int) -> "Word":
        if exponent < 0:
            return self.inverse() ** (-exponent)
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
            name, _, suffix = token.partition("^")
            if name not in index_of:
                raise ValueError("unknown generator %r" % name)
            exponent = 1
            if suffix:
                try:
                    exponent = int(suffix)
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


EMPTY_WORD = Word(())


def evaluate_word(word: Word, images, identity=None):
    """Product of the images along the word; inverse letters use .inverse(),
    taken once per generator and call."""
    if identity is None:
        identity = EMPTY_WORD if images and isinstance(images[0], Word) else IDENTITY
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


class Presentation:
    """Generators, relator words, and optional one-matrix-per-generator images.

    When images are present, every relator is verified to evaluate to the
    identity at construction time, so a mistranscribed relator fails loudly.
    """

    __slots__ = ("generator_count", "generator_names", "relators", "images")

    def __init__(self, generator_names, relators, images=None):
        names = tuple(str(n) for n in generator_names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        relators = tuple(r if isinstance(r, Word) else Word(r) for r in relators)
        for r in relators:
            if any(i >= len(names) for i, _ in r.letters):
                raise ValueError("relator uses a generator index out of range")
        if images is not None:
            images = tuple(images)
            if len(images) != len(names):
                raise ValueError("need exactly one image per generator")
            identity = EMPTY_WORD if images and isinstance(images[0], Word) else IDENTITY
            for k, r in enumerate(relators):
                if evaluate_word(r, images, identity) != identity:
                    raise ValueError(
                        "relator %d does not evaluate to the identity" % (k + 1)
                    )
        object.__setattr__(self, "generator_count", len(names))
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __reduce__(self):
        return (Presentation, (self.generator_names, self.relators, self.images))

    def __repr__(self):
        return "Presentation(%r, <%d relators>%s)" % (
            list(self.generator_names),
            len(self.relators),
            "" if self.images is None else ", with images",
        )

    def word(self, text: str) -> Word:
        return Word.from_string(text, self.generator_names)


def upsilon_presentation() -> Presentation:
    """The five-generator, thirteen-relator presentation of the group
    generated by the unipotent elements n1 = n(1,1), n2 = n(zeta,1),
    n3 = n(0,2), n4 = n1^t, n5 = n3^t."""
    from .matgroup import generators_upsilon

    names = ("n1", "n2", "n3", "n4", "n5")
    w = lambda text: Word.from_string(text, names)
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
    return Presentation(names, relators, generators_upsilon())


class CosetGraph:
    """The coset graph: vertex 0 is the identity representative, and each
    edge (v, letter) -> w means that representative v times the letter lies
    in the coset of representative w."""

    __slots__ = ("vertices", "edges", "generator_count")

    def __init__(self, vertices, edges, generator_count):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", dict(edges))
        object.__setattr__(self, "generator_count", generator_count)

    def __setattr__(self, name, value):
        raise AttributeError("CosetGraph is immutable")

    def __reduce__(self):
        return (CosetGraph, (self.vertices, self.edges, self.generator_count))

    @property
    def index(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return "CosetGraph(<%d cosets, %d edges>)" % (len(self.vertices), len(self.edges))


def reidemeister_schreier(ambient: Presentation, coset_key, membership, max_index: int = 512):
    """Relation rows of the finite-index subgroup H whose right cosets H*g
    coset_key tells apart: (rows, generator_count, graph).

    coset_key(g) must be a hashable value that is the same for two elements
    exactly when they lie in the same coset, such as the image of g under a
    homomorphism onto a finite group with kernel H.  Enumeration is
    breadth-first with a FIFO queue; each dequeued representative r steps
    by the generators in index order, the generator before its inverse, and
    the step r * x joins the coset with its key (one dict lookup) or founds
    a new one, so coset numbering is reproducible.

    The key is checked, not trusted; OracleInconsistencyError is raised
    unless every inverse edge reverses its positive edge, membership holds
    for every Schreier generator, and every relator trace closes up.  A key
    that separates a subgroup of H passes these checks and yields that
    subgroup, so callers compare the index with the one they expect.

    Subgroup generators (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2.4 and 5): one per positive-letter edge r * x -> r' off
    the breadth-first spanning tree, standing for r * x * r'^-1, numbered
    in order of (coset, generator); tree edges stand for the identity.
    Subgroup relators: every ambient relator traced from every coset.  Each
    trace is returned only as its row {generator: exponent sum}, zero sums
    dropped, and empty traces are kept, so rows[k * index + v] is ambient
    relator k traced from coset v.
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    if ambient.images is None:
        images = [Word([(i, 1)]) for i in range(ambient.generator_count)]
        identity = EMPTY_WORD
    else:
        images = list(ambient.images)
        identity = IDENTITY
    steps = [((1, image), (-1, image.inverse())) for image in images]

    vertices = [identity]
    coset_of = {coset_key(identity): 0}
    edges = {}
    tree = set()  # positive edges (v, generator) of the spanning tree
    queue = deque([0])
    while queue:
        vi = queue.popleft()
        r = vertices[vi]
        for gi, pair in enumerate(steps):
            for sign, step in pair:
                m = r * step
                key = coset_key(m)
                wj = coset_of.get(key)
                if wj is None:
                    if len(vertices) >= max_index:
                        raise IndexOverflowError(
                            "subgroup index exceeds max_index = %d" % max_index
                        )
                    wj = len(vertices)
                    vertices.append(m)
                    coset_of[key] = wj
                    queue.append(wj)
                    tree.add((vi, gi) if sign == 1 else (wj, gi))
                edges[(vi, (gi, sign))] = wj

    inverses = [v.inverse() for v in vertices]
    symbol_of = {}
    for vi, r in enumerate(vertices):
        for gi, image in enumerate(images):
            wj = edges[(vi, (gi, 1))]
            if edges[(wj, (gi, -1))] != vi:
                raise OracleInconsistencyError(
                    "coset %d steps by generator %d to coset %d, but its inverse "
                    "does not step back" % (vi, gi, wj)
                )
            if (vi, gi) in tree:
                continue
            if not membership(r * image * inverses[wj]):
                raise OracleInconsistencyError(
                    "the Schreier generator of coset %d and generator %d is not "
                    "in the subgroup: the coset key disagrees with membership"
                    % (vi, gi)
                )
            symbol_of[(vi, gi)] = len(symbol_of)

    # A negative letter traverses the positive edge that ends where it ends.
    rows = []
    for rel in ambient.relators:
        for vi in range(len(vertices)):
            row = {}
            current = vi
            for gi, sign in rel.letters:
                if sign == 1:
                    edge = (current, gi)
                    current = edges[(current, (gi, 1))]
                else:
                    current = edges[(current, (gi, -1))]
                    edge = (current, gi)
                symbol = symbol_of.get(edge)
                if symbol is not None:
                    row[symbol] = row.get(symbol, 0) + sign
            if current != vi:
                raise OracleInconsistencyError(
                    "relator trace from coset %d did not close up" % vi
                )
            rows.append({s: e for s, e in row.items() if e})

    graph = CosetGraph(vertices, edges, ambient.generator_count)
    return rows, len(symbol_of), graph
