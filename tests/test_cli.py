import json
import random

import pytest

from su21.cli import main
from su21.cocycle import sigma
from su21.fpgroup import evaluate_word
from su21.gendecomp import GENERATOR_NAMES
from su21.matgroup import (
    IDENTITY,
    ZETA_IDENTITY,
    GroupMatrix,
    SubgroupSpec,
    generators_upsilon,
)

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


def test_denom_gamma_sqrt3_prints_note(capsys):
    assert main(["denom", "gamma_sqrt3"]) == 0
    out = capsys.readouterr().out
    assert "weight denominator: 1" in out
    assert "note:" in out


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


def test_sigma_round_trip(tmp_path, capsys):
    g = write_matrix(tmp_path, "g.json", ZETA_IDENTITY)
    assert main(["sigma", "--g", g, "--h", g]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["sigma", "--g", g, "--h", g, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"sigma": -1}


def test_sigma_rejects_non_unitary(tmp_path, capsys):
    bad = write_matrix(tmp_path, "bad.json", IDENTITY.scalar_mul(2))
    good = write_matrix(tmp_path, "good.json", IDENTITY)
    assert main(["sigma", "--g", bad, "--h", good]) == 1
    assert "not in the unitary group" in capsys.readouterr().err


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
    assert max(abs(e.b) for row in h.entries for e in row) > 10 ** 309
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


def test_decompose_round_trip(tmp_path, capsys):
    g = GENERATORS[0] * GENERATORS[3] * GENERATORS[1].inverse()
    path = write_matrix(tmp_path, "g.json", g)
    assert main(["decompose", "--matrix", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    from su21.fpgroup import Word

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


@pytest.mark.parametrize(
    "argv",
    [
        ["denom", "index3:1,0,0,0"],
        ["exists", "index3:1,0,0,0", "1/3"],
        ["survey-index3"],
    ],
)
def test_index_overflow_is_domain_error(capsys, monkeypatch, argv):
    # the gamma3 key on an index-3 group finds more cosets than its index
    key, gamma3_key = SubgroupSpec.coset_key, SubgroupSpec.parse("gamma3").coset_key
    monkeypatch.setattr(
        SubgroupSpec,
        "coset_key",
        lambda self, g: gamma3_key(g) if self.name().startswith("index3:") else key(self, g),
    )
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "exceeds max_index = 3" in captured.err
    # the message names the group whose enumeration overflowed
    assert "error: index3:" in captured.err


def test_inconsistent_enumeration_is_domain_error(capsys, monkeypatch):
    from su21.matgroup import SubgroupSpec

    monkeypatch.setattr(SubgroupSpec, "membership", lambda self, g: False)
    assert main(["denom", "index3:1,0,0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: index3:1,0,0,0:")
    assert "disagrees with membership" in err


@pytest.mark.parametrize("command", [["denom", "gamma3"], ["exists", "gamma3", "1/3"], ["survey-index3"]])
@pytest.mark.parametrize("value", ["0", "-3", "ten"])
def test_max_index_below_one_is_usage_error(capsys, command, value):
    # the enumeration bound is the subgroup's own index, so --max-index is
    # no longer an option: any value is refused as a usage error
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--max-index", value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --max-index" in capsys.readouterr().err
