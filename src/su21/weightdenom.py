"""Weight denominators of finite-index subgroups.

For a presentation with matrix images, every generator is lifted to the
universal cover with integer part 0.  A relator word then lifts to a
central element (I, n), giving one abelianized relation per relator: the
generator exponent sums together with -n as the coefficient of the central
generator z = (I, 1).  The order d of the image of z in that finitely
generated abelian group is the weight denominator: the weights admitting a
multiplier system are exactly (1/d) * Z.

Every named group goes through coset enumeration on its spec's coset
action and Reidemeister-Schreier over its ambient presentation, which
trace each ambient relator w^k (w its shortest root) from one coset of
each <w>-orbit straight into these sparse rows, taking each z entry from
the ambient relator's lift; sigma is evaluated only to lift those
relators, once per process per ambient group.

The sparse rows are shrunk by unit-pivot elimination, which eliminates on
the shortest rows and rewrites the rest after it, before a single Hermite
normal form of the nonzero rows left, each once up to sign, which gives d;
its nonzero rows give the invariants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fpgroup import (
    IndexOverflowError,
    OracleInconsistencyError,
    gamma_sqrt3_presentation,
    reidemeister_schreier,
    upsilon_presentation,
)
from .matgroup import SubgroupSpec, all_index3_vectors
from .zlinalg import (
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


class DenominatorReport(NamedTuple):
    """Result of a weight-denominator computation."""

    group: str | None
    index_in_upsilon: int | None
    generator_count: int
    relator_count: int
    weight_denominator: int
    torsion_invariants: tuple
    free_rank: int

    def to_json_dict(self) -> dict:
        return self._asdict() | {"torsion_invariants": list(self.torsion_invariants)}


def weight_denominator(rows, cols: int) -> DenominatorReport:
    """Weight denominator of a group, plus the abelian invariants of its
    central extension, from that extension's abelianized relations: rows
    is a list of sparse rows {column: nonzero int} over cols columns, one
    per relator, with the central generator z last.  The rows are
    consumed, and reach the Hermite form once each up to sign.
    The report names no group and no index_in_upsilon."""
    reduced, kept = eliminate_unit_pivots(rows, cols)
    nonzero = [row for row in hermite_normal_form(reduced) if any(row)]
    order = last_coordinate_order_of_hnf(nonzero)
    if order is None:
        raise InfiniteOrderError(
            "central generator has infinite order in the abelianization"
        )
    torsion, free_rank = cokernel_invariants(nonzero, kept)
    return DenominatorReport(
        group=None,
        index_in_upsilon=None,
        generator_count=cols - 1,
        relator_count=len(rows),
        weight_denominator=order,
        torsion_invariants=torsion,
        free_rank=free_rank,
    )


def weight_denominator_of(spec: SubgroupSpec) -> DenominatorReport:
    """Weight denominator of a named subgroup, from coset enumeration on
    SubgroupSpec.coset_action and Reidemeister-Schreier rows over the
    unipotent group's presentation, or for gamma_sqrt3 over its own (index
    1, no index_in_upsilon).

    Enumeration stops beyond the subgroup's known index.  Enumeration
    errors (IndexOverflowError, OracleInconsistencyError) and
    InfiniteOrderError name the group.
    relator_count counts each ambient relator once per coset, copies included.
    """
    if spec.rows is None:
        ambient, expected, index_in_upsilon = gamma_sqrt3_presentation(), 1, None
    else:
        ambient, expected = upsilon_presentation(), spec.index_in_upsilon()
        index_in_upsilon = expected
    try:
        rows, generator_count, graph = reidemeister_schreier(
            ambient, *spec.coset_action(), max_index=expected
        )
    except (IndexOverflowError, OracleInconsistencyError) as exc:
        raise type(exc)("%s: %s" % (spec.name(), exc)) from exc
    if graph.index != expected:
        raise OracleInconsistencyError(
            "%s: coset enumeration found index %d, expected %d"
            % (spec.name(), graph.index, expected)
        )
    rows = [row for traced in rows for row in traced]
    try:
        report = weight_denominator(rows, generator_count + 1)
    except InfiniteOrderError as exc:
        raise InfiniteOrderError("%s: %s" % (spec.name(), exc)) from exc
    return report._replace(
        group=spec.name(),
        index_in_upsilon=index_in_upsilon,
        relator_count=len(ambient.relators) * expected,
    )


def survey_index3() -> list:
    """Weight denominators of all 40 index-3 congruence subgroups of the
    unipotent group, as (canonical vector, report) pairs in lexicographic
    vector order."""
    return [(v, weight_denominator_of(SubgroupSpec((v,)))) for v in all_index3_vectors()]


def multiplier_system_exists(spec: SubgroupSpec, weight: Fraction) -> bool:
    """Whether the subgroup carries a multiplier system of the given weight:
    true exactly when the weight's reduced denominator divides the group's
    weight denominator.  A float weight raises TypeError."""
    if isinstance(weight, float):
        raise TypeError("weight must be exact (an int, Fraction or str), not %r" % weight)
    weight = Fraction(weight)
    report = weight_denominator_of(spec)
    return report.weight_denominator % weight.denominator == 0
