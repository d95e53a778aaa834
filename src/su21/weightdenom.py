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
from typing import NamedTuple

from .cocycle import COVER_IDENTITY, CoverElement
from .fpgroup import (
    IndexOverflowError,
    OracleInconsistencyError,
    Presentation,
    Word,
    evaluate_word,
    reidemeister_schreier,
    upsilon_presentation,
)
from .matgroup import SubgroupSpec, all_index3_vectors
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
    return evaluate_word(word, [CoverElement(g) for g in images], COVER_IDENTITY)


def central_parts(presentation: Presentation) -> tuple:
    """The integer part n of each relator's lift (I, n) through the
    presentation's matrix images, in relator order.  The Presentation
    constructor has already checked that every relator evaluates to I."""
    if presentation.images is None:
        raise ValueError("lifting relators needs a presentation with matrix images")
    return tuple(lift_word(r, presentation.images).n for r in presentation.relators)


@lru_cache(maxsize=None)
def base_relator_lifts() -> tuple:
    """The five-generator presentation of the ambient group and the integer
    parts of its 13 relator lifts, computed once per process."""
    base = upsilon_presentation()
    return base, central_parts(base)


class DenominatorReport(NamedTuple):
    """Result of a weight-denominator computation."""

    group: str | None
    index_in_upsilon: int | None
    generator_count: int
    relator_count: int
    weight_denominator: int
    torsion_invariants: tuple
    free_rank: int
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return self._asdict() | {
            "torsion_invariants": list(self.torsion_invariants),
            "notes": list(self.notes),
        }


def weight_denominator(
    rows, cols: int, *, group=None, index_in_upsilon=None
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
    )


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
        return weight_denominator_of(SubgroupSpec(()))._replace(
            group=spec.name(), index_in_upsilon=None, notes=(note,)
        )
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


def survey_index3() -> list:
    """Weight denominators of all 40 index-3 congruence subgroups of the
    unipotent group, as (canonical vector, report) pairs in lexicographic
    vector order."""
    return [(v, weight_denominator_of(SubgroupSpec((v,)))) for v in all_index3_vectors()]


def multiplier_system_exists(spec: SubgroupSpec, weight: Fraction) -> bool:
    """Whether the subgroup carries a multiplier system of the given weight:
    true exactly when the weight's reduced denominator divides the group's
    weight denominator."""
    weight = Fraction(weight)
    report = weight_denominator_of(spec)
    return report.weight_denominator % weight.denominator == 0
