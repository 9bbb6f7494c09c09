"""CLI dispatch: payload shapes, exit codes, byte-level determinism."""

import io
import json

import pytest

from hopfcensus.cli import run
from hopfcensus.fusion import from_group_characters
from hopfcensus.groups import build_dihedral


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


def test_census_command():
    code, report = invoke_json(["census", "--dim", "30", "--rules", "all"])
    assert code == 0
    assert report["command"] == "census"
    results = report["results"]
    assert results["dim"] == 30
    assert len(results["survivors"]) == 5
    assert results["eliminated"]
    assert all(e["rule"].startswith("R") for e in results["eliminated"])
    assert any("R7" == e["rule"] for e in results["eliminated"])
    assert report["citations"]


def test_census_table_format():
    code, text = invoke(["census", "--dim", "30", "--rules", "all",
                         "--format", "table"])
    assert code == 0
    assert "survivors" in text
    assert "1,2;2,7" in text


def test_census_oracle_flag():
    code, report = invoke_json(["census", "--dim", "36", "--rules", "all",
                                "--oracle", "1,2;3,2;4,1"])
    assert code == 0
    oracle = report["results"]["oracle"]
    assert len(oracle) == 1
    assert oracle[0]["status"] == "infeasible"
    assert "1,2;3,2;4,1" not in report["results"]["final"]


def test_fusion_search_exit_codes():
    code, report = invoke_json(["fusion-search", "--type", "1,2;2,1"])
    assert code == 0 and report["results"]["status"] == "feasible"
    code, report = invoke_json(["fusion-search", "--type", "1,2;2,1;4,1"])
    assert code == 1 and report["results"]["status"] == "infeasible"
    code, report = invoke_json(["fusion-search", "--type", "1,2;2,4;3,2",
                                "--budget", "300"])
    assert code == 3 and report["results"]["status"] == "inconclusive"


def test_fusion_verify_group_and_file(tmp_path):
    code, report = invoke_json(["fusion-verify", "--group", "D4"])
    assert code == 0 and report["results"]["passed"]

    datum = from_group_characters(build_dihedral(4))
    broken = datum.to_json()
    broken["constants"] = [[i, j, k, v if (i, j, k) != (4, 4, 0) else 2]
                           for i, j, k, v in broken["constants"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, report = invoke_json(["fusion-verify", "--file", str(path)])
    assert code == 1 and not report["results"]["passed"]


def test_double_command():
    code, report = invoke_json(["double", "--group", "D4"])
    assert code == 0
    assert report["results"]["type"] == "1,8;2,14"
    code, report = invoke_json(["double", "--group", "S3", "--format", "json"])
    assert report["results"]["type"] == "1,2;2,4;3,2"


def test_h8_report():
    code, report = invoke_json(["h8-report"])
    assert code == 0
    results = report["results"]
    assert results["axioms"]["passed"]
    assert results["group_likes"] == ["1", "x", "xy", "y"]
    assert results["central_group_likes"] == ["1", "xy"]
    assert results["yd_pair_count"] == 8
    assert results["yd_group_invariant_factors"] == [2, 2, 2]
    assert results["cocommutative"] is False


def test_twist_command():
    code, report = invoke_json(["twist", "--group", "G12", "--subgroup", "auto",
                                "--bicharacter", "nondegenerate",
                                "--check-cocommutative", "--group-likes"])
    assert code == 0
    results = report["results"]
    assert results["twist_checks"]["passed"]
    assert results["twisted_axioms"]["passed"]
    assert results["cocommutative"] is False
    assert results["surviving_group_like_count"] == 4


def test_twist_with_matrix_json():
    matrix = json.dumps([[1, [2, 1]], [[2, 1], 1]])  # entries as root specs
    code, report = invoke_json(["twist", "--group", "D4", "--subgroup",
                                "0,2,4,6", "--bicharacter", matrix])
    assert code == 0
    assert report["results"]["twist_checks"]["passed"]


def test_bad_inputs_exit_2():
    assert invoke(["census"])[0] == 2                      # missing --dim
    assert invoke(["fusion-search", "--type", "junk"])[0] == 2
    assert invoke(["fusion-search", "--type", "1,2;2,x"]) == \
        (2, "error: cannot parse type component '2,x'\n")
    assert invoke(["double", "--group", "nope"])[0] == 2
    assert invoke(["twist", "--group", "S3", "--subgroup", "auto",
                   "--bicharacter", "trivial"])[0] == 2    # no canonical subgroup
    assert invoke(["fusion-verify"])[0] == 2


@pytest.mark.parametrize("subgroup,reason", [
    ("0,99", "outside 0..7"),       # index past the order of D4
    ("-1", "outside 0..7"),         # negative index
    ("0,1", "do not form a subgroup"),  # {1, r} is not closed
])
def test_twist_bad_subgroup_is_a_usage_error(subgroup, reason):
    code, text = invoke(["twist", "--group", "D4", "--subgroup", subgroup,
                         "--bicharacter", "trivial"])
    assert code == 2
    assert text.startswith("error: ") and reason in text


@pytest.mark.parametrize("argv", [
    ["census", "--dim", "36", "--rules", "all", "--oracle", "1,2;3,2;4,1"],
    ["fusion-search", "--type", "1,2;2,1;4,1"],
    ["double", "--group", "Q8"],
    ["h8-report"],
    ["twist", "--group", "G12", "--subgroup", "auto",
     "--bicharacter", "nondegenerate", "--check-cocommutative", "--group-likes"],
])
def test_outputs_are_thread_flag_independent(argv):
    _, first = invoke(["--threads", "1"] + argv)
    _, second = invoke(["--threads", "8"] + argv)
    assert first == second
    # and the same command twice is byte-identical
    _, third = invoke(["--threads", "8"] + argv)
    assert second == third


def _d4_datum(drop=None, extra=None):
    datum = from_group_characters(build_dihedral(4)).to_json()
    datum.pop(drop, None)
    if extra:
        datum["constants"].append(extra)
    return datum


@pytest.mark.parametrize("data,reason", [
    (_d4_datum(drop="constants"), "lacks constants"),
    (_d4_datum(drop="degrees"), "lacks degrees"),
    (_d4_datum(drop="dual"), "lacks dual"),
    ([_d4_datum()], "must be a JSON object"),
    (_d4_datum(extra=[5, 0, 0, 1]), "outside 0..4"),
    (_d4_datum(extra=[-1, 0, 0, 1]), "outside 0..4"),  # would alias index 4
    (_d4_datum(extra=[4, 4, 4, -1]), "negative multiplicity"),
], ids=["no-constants", "no-degrees", "no-dual", "list", "index-too-large",
        "negative-index", "negative-multiplicity"])
def test_fusion_verify_rejects_malformed_files(tmp_path, data, reason):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    code, text = invoke(["fusion-verify", "--file", str(path)])
    assert code == 2
    assert text.startswith("error: ") and reason in text
