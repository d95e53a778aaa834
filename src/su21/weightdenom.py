"""Weight denominators of finite-index subgroups.

For a presentation with matrix images, every generator is lifted to the
universal cover with integer part 0.  A relator word then lifts to a
central element (I, n), giving one abelianized relation per relator: the
generator exponent sums together with -n as the coefficient of the central
generator z = (I, 1).  The order d of the image of z in that finitely
generated abelian group is the weight denominator: the weights admitting a
multiplier system are exactly (1/d) * Z.

Every subgroup of the ambient group, that group itself included (index 1),
goes through coset enumeration and Reidemeister-Schreier, which trace the 13
ambient relators from every coset straight into sparse exponent-sum rows.
A subgroup needs no images and no cocycle.  Lift each coset representative
along the spanning tree (the lift of r * x is lift(r) * lift(x)), and lift
the generator of a non-tree edge r * x -> r' as
lift(r) * lift(x) * lift(r')^-1.  The trace of ambient relator R from
coset r then telescopes to lift(r) * (I, n_R) * lift(r)^-1 = (I, n_R), so
its row takes -n_R in the z column, and sigma is evaluated only to lift
the 13 relators of the ambient presentation, once per process.

The sparse rows are shrunk by unit-pivot elimination before a single
Hermite normal form, which gives d; its nonzero rows give the invariants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cocycle import COVER_IDENTITY, CoverElement
from .fpgroup import (
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    reidemeister_schreier,
    upsilon_presentation,
)
from .matgroup import IDENTITY, SubgroupSpec
from .zlinalg import (
    IntegerMatrix,
    cokernel_invariants,
    eliminate_unit_pivots,
    hermite_normal_form,
    last_coordinate_order_of_hnf,
)


class InfiniteOrderError(RuntimeError):
    """The central generator has infinite image in the abelianization.

    This never happens for the (finite-index, finitely presented) subgroups
    this package computes with; it indicates a broken presentation or an
    inconsistent relation matrix.
    """


def lift_word(word: Word, images) -> CoverElement:
    """Lift of the word under generator i -> (images[i], 0), folded with the
    cover's multiplication.  Factors through free reduction."""
    lifts = {}
    result = COVER_IDENTITY
    for i, s in word.letters:
        key = (i, s)
        step = lifts.get(key)
        if step is None:
            base = CoverElement(images[i], 0)
            step = base if s == 1 else base.inverse()
            lifts[key] = step
        result = result * step
    return result


def central_parts(presentation: Presentation) -> tuple:
    """The integer part n of each relator's lift (I, n) through the
    presentation's matrix images, in relator order."""
    if presentation.images is None:
        raise ValueError("lifting relators needs a presentation with matrix images")
    parts = []
    for k, relator in enumerate(presentation.relators):
        lift = lift_word(relator, presentation.images)
        if lift.g != IDENTITY:
            raise ValueError(
                "relator %d does not evaluate to the identity; presentation is "
                "broken" % (k + 1)
            )
        parts.append(lift.n)
    return tuple(parts)


@lru_cache(maxsize=None)
def base_relator_lifts() -> tuple:
    """The five-generator presentation of the ambient group and the integer
    parts of its 13 relator lifts, computed once per process."""
    base = upsilon_presentation()
    return base, central_parts(base)


class DenominatorReport:
    """Result of a weight-denominator computation."""

    __slots__ = (
        "group",
        "index_in_upsilon",
        "generator_count",
        "relator_count",
        "weight_denominator",
        "torsion_invariants",
        "free_rank",
        "notes",
    )

    def __init__(
        self,
        group,
        index_in_upsilon,
        generator_count,
        relator_count,
        weight_denominator,
        torsion_invariants,
        free_rank,
        notes=(),
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "index_in_upsilon", index_in_upsilon)
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "relator_count", relator_count)
        object.__setattr__(self, "weight_denominator", weight_denominator)
        object.__setattr__(self, "torsion_invariants", tuple(torsion_invariants))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "notes", tuple(notes))

    def __setattr__(self, name, value):
        raise AttributeError("DenominatorReport is immutable")

    def __reduce__(self):
        return (
            DenominatorReport,
            (
                self.group,
                self.index_in_upsilon,
                self.generator_count,
                self.relator_count,
                self.weight_denominator,
                self.torsion_invariants,
                self.free_rank,
                self.notes,
            ),
        )

    def __repr__(self):
        return "DenominatorReport(group=%r, weight_denominator=%r)" % (
            self.group,
            self.weight_denominator,
        )

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "index_in_upsilon": self.index_in_upsilon,
            "generator_count": self.generator_count,
            "relator_count": self.relator_count,
            "weight_denominator": self.weight_denominator,
            "torsion_invariants": list(self.torsion_invariants),
            "free_rank": self.free_rank,
            "notes": list(self.notes),
        }


def weight_denominator(
    rows, cols: int, *, group=None, index_in_upsilon=None, notes=()
) -> DenominatorReport:
    """Weight denominator of a group, plus the abelian invariants of its
    central extension, from that extension's abelianized relations: rows is
    a list of sparse rows {column: nonzero int} over cols columns, one per
    relator, with the central generator z last.  The rows are consumed."""
    relator_count = len(rows)
    reduced = eliminate_unit_pivots(rows, cols)
    h = hermite_normal_form(reduced)
    order = last_coordinate_order_of_hnf(h)
    if order is None:
        raise InfiniteOrderError(
            "central generator has infinite order in the abelianization"
        )
    nonzero = [row for row in h.entries if any(row)]
    torsion, free_rank = cokernel_invariants(
        IntegerMatrix(nonzero, reduced.cols)
    )
    return DenominatorReport(
        group=group,
        index_in_upsilon=index_in_upsilon,
        generator_count=cols - 1,
        relator_count=relator_count,
        weight_denominator=order,
        torsion_invariants=torsion,
        free_rank=free_rank,
        notes=notes,
    )


def central_commutator_witness() -> Word:
    """A 40-letter identity word whose lift has integer part -1: the product
    r4^-1 r9^-1 r10^-1 r11 of presentation relators, which concatenates with
    no free cancellation and has exponent sum zero in every generator."""
    relators = upsilon_presentation().relators
    r4, r9, r10, r11 = relators[3], relators[8], relators[9], relators[10]
    word = r4.inverse() * r9.inverse() * r10.inverse() * r11
    return word


def weight_denominator_of(spec: SubgroupSpec) -> DenominatorReport:
    """Weight denominator of a named subgroup.

    The five-generator unipotent group (index 1, key ()) and its
    finite-index subgroups all go through coset enumeration keyed by
    SubgroupSpec.coset_key and Reidemeister-Schreier rows, whose z entries
    are the central parts of the ambient relators they trace.  The full
    level-sqrt(-3) group is the direct product of the unipotent group with
    its order-3 scalar center, and a central scalar factor does not change
    which weights admit multiplier systems, so that case reuses the
    unipotent group's report (with a note saying so).

    Enumeration stops beyond the subgroup's known index.  Enumeration
    errors (IndexOverflowError, OracleInconsistencyError) name the group.
    """
    if spec.rows is None:
        note = (
            "computed from the index-3 unipotent complement: the group is "
            "the direct product of that complement with its order-3 scalar "
            "center, which leaves the weight denominator unchanged"
        )
        fields = weight_denominator_of(SubgroupSpec(())).to_json_dict()
        fields.update(group=spec.name(), index_in_upsilon=None, notes=[note])
        return DenominatorReport(**fields)
    base, base_central = base_relator_lifts()
    expected = spec.index_in_upsilon()
    try:
        rows, generator_count, graph = reidemeister_schreier(
            base, spec.coset_key, spec.membership, max_index=expected
        )
    except (IndexOverflowError, OracleInconsistencyError) as exc:
        raise type(exc)("%s: %s" % (spec.name(), exc)) from exc
    if graph.index != expected:
        raise OracleInconsistencyError(
            "%s: coset enumeration found index %d, expected %d"
            % (spec.name(), graph.index, expected)
        )
    # row k * index + v is base relator k traced from coset v
    for k, n in enumerate(base_central):
        if n:
            for row in rows[k * graph.index : (k + 1) * graph.index]:
                row[generator_count] = -n
    return weight_denominator(
        rows, generator_count + 1, group=spec.name(), index_in_upsilon=graph.index
    )


def _survey_worker(vector):
    return vector, weight_denominator_of(SubgroupSpec((vector,)))


def survey_index3(parallel: bool = False) -> list:
    """Weight denominators of all 40 index-3 congruence subgroups of the
    unipotent group, as (canonical vector, report) pairs in lexicographic
    vector order."""
    from .matgroup import all_index3_vectors

    vectors = all_index3_vectors()
    if parallel:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            return list(pool.map(_survey_worker, vectors))
    return [_survey_worker(v) for v in vectors]


def multiplier_system_exists(spec: SubgroupSpec, weight: Fraction) -> bool:
    """Whether the subgroup carries a multiplier system of the given weight:
    true exactly when the weight's reduced denominator divides the group's
    weight denominator."""
    weight = Fraction(weight)
    report = weight_denominator_of(spec)
    return report.weight_denominator % weight.denominator == 0
