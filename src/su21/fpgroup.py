"""Presentation calculus: words, finitely presented groups with matrix images,
and the Reidemeister-Schreier subgroup-presentation algorithm.

Words are freely reduced sequences of (generator index, +-1) letters.  The
Reidemeister-Schreier engine is generic over the element type: it needs only
multiplication, .inverse(), hashing and equality, so it runs both on matrix
images and on abstract words (used to validate the engine against classical
free-group facts).
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

    def cyclic_shift(self, k: int) -> "Word":
        """The word rotated left by k letters (a conjugate of the original)."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return Word(self.letters[k:] + self.letters[:k])

    def exponent_sums(self, generator_count: int) -> list:
        row = [0] * generator_count
        for i, s in self.letters:
            if i >= generator_count:
                raise ValueError("generator index %d out of range" % i)
            row[i] += s
        return row

    def max_index(self) -> int:
        return max((i for i, _ in self.letters), default=-1)

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
    """Product of the images along the word; inverse letters use .inverse()."""
    if identity is None:
        identity = EMPTY_WORD if images and isinstance(images[0], Word) else IDENTITY
    result = identity
    for i, s in word.letters:
        if i >= len(images):
            raise ValueError("generator index %d out of range" % i)
        result = result * (images[i] if s == 1 else images[i].inverse())
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
        relators = tuple(Word(r.letters) if isinstance(r, Word) else Word(r) for r in relators)
        for r in relators:
            if r.max_index() >= len(names):
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

    def __repr__(self):
        return "Presentation(%r, <%d relators>%s)" % (
            list(self.generator_names),
            len(self.relators),
            "" if self.images is None else ", with images",
        )

    def word(self, text: str) -> Word:
        return Word.from_string(text, self.generator_names)

    def relator_lines(self) -> list:
        """Text serialization: one line per relator in signed-name syntax."""
        return [r.to_string(self.generator_names) for r in self.relators]


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
    """The labeled coset graph: vertex 0 is the identity representative, and
    each edge (r, letter) -> (r', h) satisfies r * letter = h * r' exactly."""

    __slots__ = ("vertices", "edges", "generator_count")

    def __init__(self, vertices, edges, generator_count):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", dict(edges))
        object.__setattr__(self, "generator_count", generator_count)

    def __setattr__(self, name, value):
        raise AttributeError("CosetGraph is immutable")

    @property
    def index(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return "CosetGraph(<%d cosets, %d edges>)" % (len(self.vertices), len(self.edges))


def reidemeister_schreier(ambient: Presentation, membership, max_index: int = 512):
    """Presentation of the finite-index subgroup cut out by the membership
    predicate, together with the coset graph.

    Coset enumeration is breadth-first with a FIFO queue; each dequeued
    representative is scanned against the generators in index order, the
    generator before its inverse, so coset numbering is reproducible.  Coset
    identification is predicate-only: a step m lands on the existing vertex w
    exactly when membership(m * w^-1) holds, scanning vertices in creation
    order.  More than one match means the predicate does not define a
    subgroup-consistent coset partition.

    Subgroup generators are the distinct non-identity H-labels of
    positive-letter edges; tree edges (identity label) are excluded.  Each
    ambient relator traced from each vertex closes up into a loop whose
    H-labels, multiplied in traversal order, give a subgroup relator.
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    abstract = ambient.images is None
    if abstract:
        images = [Word([(i, 1)]) for i in range(ambient.generator_count)]
        identity = EMPTY_WORD
    else:
        images = list(ambient.images)
        identity = IDENTITY
    if not membership(identity):
        raise OracleInconsistencyError("the identity fails the membership predicate")
    inverse_images = [im.inverse() for im in images]

    vertices = [identity]
    vertex_inverses = [identity]
    edges = {}
    queue = deque([0])
    while queue:
        vi = queue.popleft()
        r = vertices[vi]
        for gi in range(ambient.generator_count):
            for sign in (1, -1):
                m = r * (images[gi] if sign == 1 else inverse_images[gi])
                matches = [
                    wj
                    for wj in range(len(vertices))
                    if membership(m * vertex_inverses[wj])
                ]
                if len(matches) > 1:
                    raise OracleInconsistencyError(
                        "step from coset %d by generator %d lands in %d cosets at once"
                        % (vi, gi, len(matches))
                    )
                if matches:
                    wj = matches[0]
                    edges[(vi, (gi, sign))] = (wj, m * vertex_inverses[wj])
                else:
                    if len(vertices) >= max_index:
                        raise IndexOverflowError(
                            "subgroup index exceeds max_index = %d" % max_index
                        )
                    vertices.append(m)
                    vertex_inverses.append(m.inverse())
                    queue.append(len(vertices) - 1)
                    edges[(vi, (gi, sign))] = (len(vertices) - 1, identity)

    # Distinct non-identity labels of positive edges, in discovery order.
    symbol_of = {}
    generator_images = []
    for vi in range(len(vertices)):
        for gi in range(ambient.generator_count):
            _, h = edges[(vi, (gi, 1))]
            if h != identity and h not in symbol_of:
                symbol_of[h] = len(generator_images)
                generator_images.append(h)

    # Trace every ambient relator from every vertex.  A negative letter
    # traverses an edge whose label is the inverse of a positive-edge label,
    # so it contributes that positive symbol with exponent -1.
    relators = []
    for rel in ambient.relators:
        for vi in range(len(vertices)):
            letters = []
            current = vi
            for gi, sign in rel.letters:
                current, h = edges[(current, (gi, sign))]
                if h == identity:
                    continue
                if sign == 1:
                    letters.append((symbol_of[h], 1))
                else:
                    letters.append((symbol_of[h.inverse()], -1))
            if current != vi:
                raise OracleInconsistencyError(
                    "relator trace from coset %d did not close up" % vi
                )
            trace = Word(letters)
            if trace.letters:
                relators.append(trace)

    names = tuple("h%d" % (k + 1) for k in range(len(generator_images)))
    presentation = Presentation(
        names, relators, None if abstract else generator_images
    )
    graph = CosetGraph(vertices, edges, ambient.generator_count)
    return presentation, graph
