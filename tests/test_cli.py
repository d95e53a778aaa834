import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import su21
from su21 import cli
from su21.cli import main
from su21.cocycle import sigma
from su21.fpgroup import Word, evaluate_word
from su21.matgroup import (
    GENERATOR_NAMES,
    IDENTITY,
    ZETA_IDENTITY,
    GroupMatrix,
    SubgroupSpec,
    generators_upsilon,
)

from helpers import scaled

GENERATORS = generators_upsilon()


def write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix.to_json_dict()))
    return str(path)


def test_verify_presentation_text(capsys):
    assert main(["verify-presentation"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 13
    assert all(" ok " in line for line in lines)


def test_verify_presentation_json(capsys):
    assert main(["verify-presentation", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 13
    assert all(entry["ok"] for entry in data)
    assert all("relator" in entry for entry in data)


def test_verify_presentation_failure(monkeypatch, capsys):
    def broken():
        raise ValueError("relator 4 does not evaluate to the identity")

    monkeypatch.setattr(cli, "upsilon_presentation", broken)
    assert main(["verify-presentation"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "presentation verification failed: relator 4" in captured.err


def test_module_entry_point(capsys):
    """python -m su21.cli runs main and exits with its status."""
    assert main(["denom", "upsilon", "--json"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(su21.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "su21.cli", "denom", "upsilon", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_denom_human(capsys):
    assert main(["denom", "upsilon"]) == 0
    out = capsys.readouterr().out
    assert "weight denominator: 1" in out
    assert "torsion invariants: 3, 3, 3" in out
    assert "free rank:          2" in out


def test_denom_json(capsys):
    assert main(["denom", "index3:1,0,0,0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weight_denominator"] == 3
    assert data["index_in_upsilon"] == 3
    assert data["torsion_invariants"] == [3, 3, 9]
    assert data["group"] == "index3:1,0,0,0"


def test_exists_gamma_sqrt3(capsys):
    """Gamma(sqrt(-3)) has weight denominator 1 through its own
    presentation: it carries no weight-1/3 multiplier system, and "no" is
    an answer with exit code 0."""
    assert main(["exists", "gamma_sqrt3", "1/3"]) == 0
    assert capsys.readouterr().out == "no\n"
    assert main(["exists", "gamma_sqrt3", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"exists": True}


def test_denom_bad_group_is_usage_error(capsys):
    assert main(["denom", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_denom_vector_canonicalization(capsys):
    assert main(["denom", "index3:2,0,0,0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # -(2,0,0,0) = (1,0,0,0) mod 3 names the same subgroup
    assert data["group"] == "index3:1,0,0,0"
    assert data["weight_denominator"] == 3


DENOM_OUTPUT = {
    ("upsilon",): """\
group:              upsilon
index:              1
generators:         5
relators:           13
weight denominator: 1
torsion invariants: 3, 3, 3
free rank:          2
""",
    ("upsilon", "--json"): """\
{
  "free_rank": 2,
  "generator_count": 5,
  "group": "upsilon",
  "index_in_upsilon": 1,
  "relator_count": 13,
  "torsion_invariants": [
    3,
    3,
    3
  ],
  "weight_denominator": 1
}
""",
    ("gamma_sqrt3",): """\
group:              gamma_sqrt3
generators:         6
relators:           19
weight denominator: 1
torsion invariants: 3, 3, 3, 3
free rank:          2
""",
    ("gamma_sqrt3", "--json"): """\
{
  "free_rank": 2,
  "generator_count": 6,
  "group": "gamma_sqrt3",
  "index_in_upsilon": null,
  "relator_count": 19,
  "torsion_invariants": [
    3,
    3,
    3,
    3
  ],
  "weight_denominator": 1
}
""",
    ("gamma3",): """\
group:              gamma3
index:              81
generators:         325
relators:           1053
weight denominator: 3
torsion invariants: 3, 3, 3, 3, 3, 3, 3
free rank:          10
""",
    ("gamma3", "--json"): """\
{
  "free_rank": 10,
  "generator_count": 325,
  "group": "gamma3",
  "index_in_upsilon": 81,
  "relator_count": 1053,
  "torsion_invariants": [
    3,
    3,
    3,
    3,
    3,
    3,
    3
  ],
  "weight_denominator": 3
}
""",
    ("index3:1,0,0,0",): """\
group:              index3:1,0,0,0
index:              3
generators:         13
relators:           39
weight denominator: 3
torsion invariants: 3, 3, 9
free rank:          2
""",
    ("index3:1,0,0,0", "--json"): """\
{
  "free_rank": 2,
  "generator_count": 13,
  "group": "index3:1,0,0,0",
  "index_in_upsilon": 3,
  "relator_count": 39,
  "torsion_invariants": [
    3,
    3,
    9
  ],
  "weight_denominator": 3
}
""",
}


@pytest.mark.parametrize("argv", list(DENOM_OUTPUT), ids=" ".join)
def test_denom_output_bytes(capsys, argv):
    """The whole output of su21 denom, byte for byte."""
    assert main(["denom", *argv]) == 0
    assert capsys.readouterr().out == DENOM_OUTPUT[argv]


# weight denominator of each index-3 group, in the survey's vector order
SURVEY_DENOMINATORS = {
    "0,0,0,1": 1, "0,0,1,0": 3, "0,0,1,1": 3, "0,0,1,2": 3,
    "0,1,0,0": 1, "0,1,0,1": 1, "0,1,0,2": 1, "0,1,1,0": 3,
    "0,1,1,1": 1, "0,1,1,2": 1, "0,1,2,0": 3, "0,1,2,1": 1,
    "0,1,2,2": 1, "1,0,0,0": 3, "1,0,0,1": 3, "1,0,0,2": 3,
    "1,0,1,0": 1, "1,0,1,1": 1, "1,0,1,2": 1, "1,0,2,0": 3,
    "1,0,2,1": 1, "1,0,2,2": 1, "1,1,0,0": 3, "1,1,0,1": 1,
    "1,1,0,2": 1, "1,1,1,0": 1, "1,1,1,1": 1, "1,1,1,2": 1,
    "1,1,2,0": 1, "1,1,2,1": 1, "1,1,2,2": 3, "1,2,0,0": 3,
    "1,2,0,1": 1, "1,2,0,2": 1, "1,2,1,0": 1, "1,2,1,1": 1,
    "1,2,1,2": 1, "1,2,2,0": 1, "1,2,2,1": 3, "1,2,2,2": 1,
}


def test_survey_json_output_bytes(capsys):
    """The whole output of su21 survey-index3 --json, byte for byte: the
    payload below written with two-space indent and sorted keys."""
    payload = {
        "groups": [
            {
                "canonical": "index3:" + vector,
                "vector": [int(c) for c in vector.split(",")],
                "weight_denominator": d,
            }
            for vector, d in SURVEY_DENOMINATORS.items()
        ],
        "summary": {"denominator_1": 27, "denominator_3": 13},
    }
    assert main(["survey-index3", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_sigma_round_trip(tmp_path, capsys):
    g = write_matrix(tmp_path, "g.json", ZETA_IDENTITY)
    assert main(["sigma", "--g", g, "--h", g]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["sigma", "--g", g, "--h", g, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"sigma": -1}


def test_sigma_rejects_non_unitary(tmp_path, capsys):
    bad = write_matrix(tmp_path, "bad.json", scaled(IDENTITY, 2))
    good = write_matrix(tmp_path, "good.json", IDENTITY)
    assert main(["sigma", "--g", bad, "--h", good]) == 1
    assert "not in the unitary group" in capsys.readouterr().err


def test_sigma_names_the_determinant_of_minus_identity(tmp_path, capsys):
    """-I is J-unitary; only its determinant, -1, keeps it out of the group."""
    minus_identity = write_matrix(tmp_path, "minus.json", scaled(IDENTITY, -1))
    good = write_matrix(tmp_path, "good.json", IDENTITY)
    assert main(["sigma", "--g", good, "--h", minus_identity]) == 1
    err = capsys.readouterr().err
    assert "h is unitary but has determinant -1, not 1" in err
    assert "not in the unitary group" not in err


def test_sigma_names_a_determinant_with_a_zeta_part(tmp_path, capsys):
    """diag(zeta, 1, zeta) is J-unitary with determinant zeta^2 = -1 - zeta."""
    diag_zeta = GroupMatrix(
        [[(0, 1), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (0, 1)]]
    )
    g = write_matrix(tmp_path, "diag.json", diag_zeta)
    good = write_matrix(tmp_path, "good.json", IDENTITY)
    assert main(["sigma", "--g", g, "--h", good]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: g is unitary but has determinant -1-1*zeta, not 1\n"


def sigma_via_cli(tmp_path, capsys, g, h):
    g_path = write_matrix(tmp_path, "g.json", g)
    h_path = write_matrix(tmp_path, "h.json", h)
    assert main(["sigma", "--g", g_path, "--h", h_path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return int(captured.out)


def assert_cocycle_identity(g, h, value):
    for k in GENERATORS:
        assert value + sigma(g * h, k) == sigma(h, k) + sigma(g, h * k)


def test_sigma_float_domain_failure_is_clean(tmp_path, capsys):
    # n1 and a word of 51 letters: the float image of the base point under
    # this h rounds onto the boundary of the domain, the exact sigma is 0
    h = GroupMatrix.from_json_dict({"entries": [
        [[-41459993, -170779068], [54261840, -75222456], [402808101, 160197006]],
        [[-141053128, -68586416], [-82017275, -94938312], [32516208, -260464488]],
        [[42508507, 62181362], [3117992, 41652040], [-118182008, 13243296]],
    ]})
    value = sigma_via_cli(tmp_path, capsys, GENERATORS[0], h)
    assert value == 0
    assert_cocycle_identity(GENERATORS[0], h, value)


def random_reduced_element(rng, length):
    """The element of a random freely reduced word of this length."""
    inverses = [g.inverse() for g in GENERATORS]
    result, previous = IDENTITY, None
    for _ in range(length):
        letter = previous
        while letter == previous:
            letter = (rng.randrange(5), rng.choice((1, -1)))
        i, s = letter
        result = result * (GENERATORS[i] if s == 1 else inverses[i])
        previous = (i, -s)
    return result


def test_sigma_beyond_float_range(tmp_path, capsys):
    # reduced words of 1400 letters: entries of about 315 digits, which no
    # float can hold (the float sigma raised OverflowError here)
    rng = random.Random(23)
    g, h = random_reduced_element(rng, 1400), random_reduced_element(rng, 1400)
    assert max(abs(b) for row in h.entries for _, b in row) > 10 ** 309
    value = sigma_via_cli(tmp_path, capsys, g, h)
    assert value == sigma(g, h)
    assert_cocycle_identity(g, h, value)


def test_sigma_unreadable_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    good = write_matrix(tmp_path, "good.json", IDENTITY)
    assert main(["sigma", "--g", missing, "--h", good]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    capsys.readouterr()
    assert main(["sigma", "--g", str(garbled), "--h", good]) == 2


def _identity_with_cell(cell):
    """The JSON entries of I with entry (1, 2) replaced by cell."""
    return [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], cell], [[0, 0], [0, 0], [1, 0]]]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"entries": entries})
        for entries in (
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            _identity_with_cell(None),
            _identity_with_cell([1, True]),
            _identity_with_cell([1.0, 2]),
            _identity_with_cell([1, 2, 3]),
            _identity_with_cell([1]),
            _identity_with_cell("ab"),
        )
    ]
    + ["[" * 100000 + "]" * 100000],  # past the JSON decoder's recursion limit
    ids=[
        "int-cells", "null-cell", "bool-coordinate", "float-coordinate", "triple", "single",
        "string", "too-deep",
    ],
)
def test_malformed_matrix_is_parse_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = write_matrix(tmp_path, "good.json", IDENTITY)
    for argv in (["decompose", "--matrix", str(bad)], ["sigma", "--g", good, "--h", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot read matrix" in err and "Traceback" not in err


def test_decompose_round_trip(tmp_path, capsys):
    g = GENERATORS[0] * GENERATORS[3] * GENERATORS[1].inverse()
    path = write_matrix(tmp_path, "g.json", g)
    assert main(["decompose", "--matrix", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    word = Word.from_string(data["word"], GENERATOR_NAMES)
    assert evaluate_word(word, GENERATORS) == g
    assert data["length"] == len(word)


def test_decompose_non_member(tmp_path, capsys):
    path = write_matrix(tmp_path, "zeta.json", ZETA_IDENTITY)
    assert main(["decompose", "--matrix", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_exists(capsys):
    assert main(["exists", "upsilon", "1"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["exists", "upsilon", "1/3"]) == 0
    assert capsys.readouterr().out.strip() == "no"
    assert main(["exists", "index3:1,0,0,0", "2/3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"exists": True}


def test_exists_negative_weight(capsys):
    """argparse reads -1/3 as an option (though it takes -1 and -0.5 as
    numbers), so a negative fractional weight goes after --."""
    with pytest.raises(SystemExit) as exit_info:
        main(["exists", "gamma3", "-1/3"])
    assert exit_info.value.code == 2
    assert "the following arguments are required: weight" in capsys.readouterr().err
    assert main(["exists", "gamma3", "--", "-1/3"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["exists", "upsilon", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_exists_bad_weight(capsys):
    assert main(["exists", "upsilon", "one-third"]) == 2
    assert "bad weight" in capsys.readouterr().err


def test_survey_json(capsys):
    assert main(["survey-index3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["groups"]) == 40
    assert data["summary"] == {"denominator_3": 13, "denominator_1": 27}
    entry = next(
        g for g in data["groups"] if g["canonical"] == "index3:1,0,0,0"
    )
    assert entry["weight_denominator"] == 3
    # the survey runs one group after another; there is no pool to ask for
    with pytest.raises(SystemExit) as exit_info:
        main(["survey-index3", "--parallel"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["denom", "index3:1,0,0,0"],
        ["exists", "index3:1,0,0,0", "1/3"],
        ["survey-index3"],
    ],
)
def test_index_overflow_is_domain_error(capsys, monkeypatch, argv):
    # the gamma3 action on an index-3 group finds more cosets than its index
    action, gamma3_action = SubgroupSpec.coset_action, SubgroupSpec.parse("gamma3").coset_action()
    monkeypatch.setattr(
        SubgroupSpec,
        "coset_action",
        lambda self: gamma3_action if self.name().startswith("index3:") else action(self),
    )
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "exceeds max_index = 3" in captured.err
    # the message names the group whose enumeration overflowed
    assert "error: index3:" in captured.err


def test_inconsistent_enumeration_is_domain_error(capsys, monkeypatch):
    # n3 acting as +1 mod 2 is no action of the presented group: relator 5
    # holds n3 with exponent sum 3, so its trace does not close up
    def act(point, generator, sign):
        return (point + sign) % 2 if generator == 2 else point

    monkeypatch.setattr(SubgroupSpec, "coset_action", lambda self: (0, act))
    assert main(["denom", "index3:1,0,0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: index3:1,0,0,0:")
    assert "did not close up" in err


@pytest.mark.parametrize("command", [["denom", "gamma3"], ["exists", "gamma3", "1/3"], ["survey-index3"]])
@pytest.mark.parametrize("value", ["0", "-3", "ten"])
def test_max_index_below_one_is_usage_error(capsys, command, value):
    # the enumeration bound is the subgroup's own index, so --max-index is
    # no longer an option: any value is refused as a usage error
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--max-index", value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --max-index" in capsys.readouterr().err
