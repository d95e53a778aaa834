"""Command-line interface.

Exit codes: 0 success, 1 domain or verification failure (non-member matrix,
failed relator, coset enumeration beyond the subgroup's index, inconsistent
enumeration, a central generator of infinite order), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cocycle import sigma
from .fpgroup import IndexOverflowError, OracleInconsistencyError, upsilon_presentation
from .gendecomp import decompose
from .matgroup import GENERATOR_NAMES, GroupMatrix, SubgroupSpec, format_entry
from .weightdenom import (
    InfiniteOrderError,
    multiplier_system_exists,
    survey_index3,
    weight_denominator_of,
)


_GROUP_HELP = (
    "upsilon | gamma_sqrt3 | gamma3 | index<N>:r1;r2;... (the g with "
    "r . F(g) = 0 mod 3 for each row r of four integers; N = 3^rank)"
)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_matrix(path: str) -> GroupMatrix:
    try:
        with open(path) as handle:
            data = json.load(handle)
        return GroupMatrix.from_json_dict(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError("cannot read matrix from %s: %s" % (path, exc))


class _UsageError(Exception):
    pass


class _DomainError(Exception):
    pass


def _parse_spec(text: str) -> SubgroupSpec:
    try:
        return SubgroupSpec.parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_verify_presentation(args) -> int:
    try:
        presentation = upsilon_presentation()
    except ValueError as exc:
        print("presentation verification failed: %s" % exc, file=sys.stderr)
        return 1
    # The constructor has checked every relator against the matrix images.
    relators = [r.to_string(presentation.generator_names) for r in presentation.relators]
    if args.json:
        _print_json([{"relator": r, "ok": True} for r in relators])
    else:
        for k, relator in enumerate(relators):
            print("r%-2d ok  %s" % (k + 1, relator))
    return 0


def _print_report(report) -> None:
    print("group:              %s" % report.group)
    if report.index_in_upsilon is not None:
        print("index:              %d" % report.index_in_upsilon)
    print("generators:         %d" % report.generator_count)
    print("relators:           %d" % report.relator_count)
    print("weight denominator: %d" % report.weight_denominator)
    print(
        "torsion invariants: %s"
        % (", ".join(str(d) for d in report.torsion_invariants) or "none")
    )
    print("free rank:          %d" % report.free_rank)


def _cmd_denom(args) -> int:
    spec = _parse_spec(args.group)
    report = weight_denominator_of(spec)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        _print_report(report)
    return 0


def _cmd_survey(args) -> int:
    results = survey_index3()
    groups = [
        {
            "vector": list(vector),
            "canonical": report.group,
            "weight_denominator": report.weight_denominator,
        }
        for vector, report in results
    ]
    with_3 = sum(1 for g in groups if g["weight_denominator"] == 3)
    with_1 = sum(1 for g in groups if g["weight_denominator"] == 1)
    if args.json:
        _print_json(
            {
                "groups": groups,
                "summary": {"denominator_3": with_3, "denominator_1": with_1},
            }
        )
    else:
        for g in groups:
            print(
                "%s  weight denominator %d"
                % (",".join(str(v) for v in g["vector"]), g["weight_denominator"])
            )
        print(
            "%d groups: %d with weight denominator 3, %d with weight denominator 1"
            % (len(groups), with_3, with_1)
        )
    return 0


def _require_group_element(g: GroupMatrix, label: str) -> None:
    if not g.is_unitary():
        raise _DomainError("%s is not in the unitary group" % label)
    if g.det() != (1, 0):
        det = format_entry(*g.det())
        raise _DomainError("%s is unitary but has determinant %s, not 1" % (label, det))


def _cmd_sigma(args) -> int:
    g = _load_matrix(args.g)
    h = _load_matrix(args.h)
    _require_group_element(g, "g")
    _require_group_element(h, "h")
    value = sigma(g, h)
    if args.json:
        _print_json({"sigma": value})
    else:
        print(value)
    return 0


def _cmd_decompose(args) -> int:
    g = _load_matrix(args.matrix)
    try:
        word = decompose(g)
    except ValueError as exc:
        raise _DomainError(str(exc))
    text = word.to_string(GENERATOR_NAMES)
    if args.json:
        _print_json({"word": text, "length": len(word)})
    else:
        print(text)
    return 0


def _cmd_exists(args) -> int:
    spec = _parse_spec(args.group)
    try:
        weight = Fraction(args.weight)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError("bad weight %r: %s" % (args.weight, exc))
    answer = multiplier_system_exists(spec, weight)
    if args.json:
        _print_json({"exists": answer})
    else:
        print("yes" if answer else "no")
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su21",
        description="Exact weight-denominator computations for arithmetic "
        "subgroups of SU(2,1) over the Eisenstein integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-presentation",
        help="check every relator of the five-generator presentation",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_presentation)

    p = sub.add_parser("denom", help="weight denominator of a named subgroup")
    p.add_argument("group", help=_GROUP_HELP)
    _add_common(p)
    p.set_defaults(handler=_cmd_denom)

    p = sub.add_parser(
        "survey-index3", help="weight denominators of all 40 index-3 subgroups"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_survey)

    p = sub.add_parser("sigma", help="cocycle value for a pair of group elements")
    p.add_argument("--g", required=True, help="JSON file with the first matrix")
    p.add_argument("--h", required=True, help="JSON file with the second matrix")
    _add_common(p)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser(
        "decompose", help="write a matrix as a word in the five generators"
    )
    p.add_argument("--matrix", required=True, help="JSON file with the matrix")
    _add_common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "exists", help="does the subgroup carry a multiplier system of this weight"
    )
    p.add_argument("group", help=_GROUP_HELP)
    p.add_argument(
        "weight",
        help="rational weight, e.g. 2/3; put a negative one after --, "
        "as in: su21 exists gamma3 -- -1/3",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_exists)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (
        _DomainError,
        IndexOverflowError,
        OracleInconsistencyError,
        InfiniteOrderError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
