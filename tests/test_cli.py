"""CLI dispatch: payload shapes, exit codes, byte-level determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcensus
from hopfcensus import cyclotomic, hopfcore
from hopfcensus.census import Eliminations
from hopfcensus.cli import _write_json, run
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


def test_repeated_oracle_requests_run_once():
    """A request repeated in any spelling runs once, in first-request order."""
    code, report = invoke_json(["census", "--dim", "54", "--rules", "all",
                                "--oracle", "1,2;4,1;6,1",
                                "--oracle", "1,2;2,1;4,3",
                                "--oracle", " 1,2; 4,1 ;6,1"])
    assert code == 0
    assert [o["type"] for o in report["results"]["oracle"]] == [
        "1,2;4,1;6,1", "1,2;2,1;4,3"]
    _, once = invoke_json(["census", "--dim", "12", "--oracle", "all"])
    _, twice = invoke_json(["census", "--dim", "12", "--oracle", "all",
                            "--oracle", "all"])
    assert twice["results"] == once["results"]
    assert len(once["results"]["oracle"]) == len(once["results"]["survivors"])


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


def test_h8_report_computes_group_likes_and_characters_once(monkeypatch):
    _, before = invoke(["h8-report"])
    calls = []
    for name in ("group_like_elements", "algebra_characters"):
        def counted(h, *args, _name=name, _fn=getattr(hopfcore, name), **kw):
            calls.append((_name, h.labels))
            return _fn(h, *args, **kw)
        monkeypatch.setattr(hopfcore, name, counted)
    descents = []

    def down(*args, _fn=cyclotomic._down):
        descents.append(args)
        return _fn(*args)
    monkeypatch.setattr(cyclotomic, "_down", down)
    # An empty cache makes the command build its roots of unity again.
    hopfcore._root_candidates.cache_clear()
    code, after = invoke(["h8-report"])
    assert code == 0 and after == before
    h8 = hopfcore.build_h8().labels
    assert calls.count(("group_like_elements", h8)) == 1
    assert calls.count(("algebra_characters", h8)) == 1
    # roots of unity are built in canonical form, without a subfield descent
    assert descents == []


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
    # Entries of conductors 5 and 7 multiply into conductor 35: an input the
    # package cannot compute with, not a failed verification (exit 1).
    z5 = {"conductor": 5, "coeffs": ["0", "1", "0", "0"]}
    z7 = {"conductor": 7, "coeffs": ["0", "1", "0", "0", "0", "0"]}
    for matrix in ("[[1,[5,1]],[[7,1],1]]", json.dumps([[1, z5], [z7, 1]])):
        assert invoke(["twist", "--group", "Z2xZ2", "--subgroup", "0,1,2,3",
                       "--bicharacter", matrix]) == \
            (2, "error: operation needs conductor 35 > 24\n")


@pytest.mark.parametrize("subgroup,reason", [
    ("0,99", "outside 0..7"),       # index past the order of D4
    ("-1", "outside 0..7"),         # negative index
    ("0,1", "do not form a subgroup"),  # {1, r} is not closed
    ("0,0", "repeat"),              # a repeated index
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


SUBCOMMAND_ARGV = {
    "census": ["census", "--dim", "12"],
    "fusion-search": ["fusion-search", "--type", "1,2;2,1"],
    "fusion-verify": ["fusion-verify", "--group", "S3"],
    "double": ["double", "--group", "S3"],
    "h8-report": ["h8-report"],
    "twist": ["twist", "--group", "Z2xZ2", "--subgroup", "auto",
              "--bicharacter", "trivial"],
}
COMMON_OPTIONS = {"--format": "table", "--threads": "2", "--budget": "1"}


@pytest.mark.parametrize("option", sorted(COMMON_OPTIONS))
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_common_options_may_precede_the_subcommand(command, option):
    given = [option, COMMON_OPTIONS[option]]
    before = invoke(given + SUBCOMMAND_ARGV[command])
    after = invoke(SUBCOMMAND_ARGV[command] + given)
    assert before == after


Z2_CONSTANTS = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]


def _d4_datum(drop=None, extra=None, more=None):
    datum = from_group_characters(build_dihedral(4)).to_json()
    datum.pop(drop, None)
    for entry in (extra, more):
        if entry:
            datum["constants"].append(entry)
    return datum


@pytest.mark.parametrize("data,reason", [
    (_d4_datum(drop="constants"), "lacks constants"),
    (_d4_datum(drop="degrees"), "lacks degrees"),
    (_d4_datum(drop="dual"), "lacks dual"),
    ([_d4_datum()], "must be a JSON object"),
    (_d4_datum(extra=[5, 0, 0, 1]), "outside 0..4"),
    (_d4_datum(extra=[-1, 0, 0, 1]), "outside 0..4"),  # would alias index 4
    (_d4_datum(extra=[4, 4, 4, -1]), "negative multiplicity"),
    (_d4_datum(extra=[4, 4, 4, 5], more=[4, 4, 4, 0]), "repeats an earlier entry"),
    # JSON true is an int to isinstance; read as 1 these were valid Z2 rings
    ({"degrees": [1, True], "dual": [0, 1], "constants": Z2_CONSTANTS},
     "must be integer lists"),
    ({"degrees": [1, 1], "dual": [0, 1],
      "constants": Z2_CONSTANTS[:-1] + [[1, 1, 0, True]]}, "must be integer lists"),
], ids=["no-constants", "no-degrees", "no-dual", "list", "index-too-large",
        "negative-index", "negative-multiplicity", "duplicate-constant",
        "boolean-degree", "boolean-multiplicity"])
def test_fusion_verify_rejects_malformed_files(tmp_path, data, reason):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    code, text = invoke(["fusion-verify", "--file", str(path)])
    assert code == 2
    assert text.startswith("error: ") and reason in text


@pytest.mark.parametrize("argv,reason", [
    (["census", "--dim", "12", "--rules", "R1-"], "cannot parse rule range"),
    (["census", "--dim", "12", "--rules", "R1-R3-R5"], "cannot parse rule range"),
    (["census", "--dim", "12", "--rules", "R1-R99"], "cannot parse rule range"),
    (["twist", "--group", "D4", "--subgroup", "auto", "--bicharacter", "5"],
     "list of rows"),
    (["twist", "--group", "D4", "--subgroup", "auto", "--bicharacter", "null"],
     "list of rows"),
    (["twist", "--group", "D4", "--subgroup", "auto",
      "--bicharacter", "[[[0, 1], 1], [1, 1]]"], "order must be positive"),
    (["twist", "--group", "D4", "--subgroup", "auto",
      "--bicharacter", "[[[25, 1], 1], [1, 1]]"], "bad bicharacter entry"),
    (["twist", "--group", "D4", "--subgroup", "auto",
      "--bicharacter", '[[["a", 1], 1], [1, 1]]'], "bad bicharacter entry"),
    (["twist", "--group", "D4", "--subgroup", "auto",
      "--bicharacter", "[[{}, 1], [1, 1]]"], "bad bicharacter entry"),
    (["twist", "--group", "D4", "--subgroup", "auto",
      "--bicharacter", '[[{"conductor": 1, "coeffs": ["x"]}, 1], [1, 1]]'],
     "bad bicharacter entry"),
    # read as 1, true made this the trivial bicharacter
    (["twist", "--group", "Z2xZ2", "--subgroup", "auto",
      "--bicharacter", "[[true, 1], [1, 1]]"], "bad bicharacter entry True"),
    (["twist", "--group", "D4", "--subgroup", "auto",
      "--bicharacter", '[[{"conductor": true, "coeffs": [1]}, 1], [1, 1]]'],
     "bad bicharacter entry"),
    (["census", "--dim", "36", "--oracle", "all", "--oracle", "1,2;3,2;4,1"],
     "'all' cannot be combined with named types"),
    (["census", "--dim", "36", "--oracle", "1,2;3,2;4,1", "--oracle", "all"],
     "'all' cannot be combined with named types"),
], ids=["open-range", "three-ends", "unknown-end", "number", "null",
        "zero-order-root", "conductor-too-large", "string-root", "empty-object",
        "bad-coefficient", "boolean-entry", "boolean-conductor",
        "oracle-all-then-type", "oracle-type-then-all"])
def test_malformed_option_values_are_usage_errors(argv, reason):
    code, text = invoke(argv)
    assert code == 2
    assert text.startswith("error: ") and reason in text


@pytest.mark.parametrize("argv,reason", [
    (["fusion-search", "--type", "1,2;2,1", "--budget", "-5"],
     "--budget: must be at least 1"),
    (["fusion-search", "--type", "1,2;2,1", "--budget", "0"],
     "--budget: must be at least 1"),
    (["--budget", "0", "fusion-search", "--type", "1,2;2,1"],
     "--budget: must be at least 1"),
    (["census", "--dim", "12", "--budget", "-1", "--oracle", "all"],
     "--budget: must be at least 1"),
    (["double", "--group", "D4", "--threads", "-1"],
     "--threads: must be at least 0"),
    (["--threads", "-3", "double", "--group", "D4"],
     "--threads: must be at least 0"),
    (["census", "--dim", "12", "--n", "0"], "outside 1..12"),
    (["census", "--dim", "12", "--n", "-3"], "outside 1..12"),
    (["census", "--dim", "12", "--n", "13"], "outside 1..12"),
], ids=["budget-negative", "budget-zero", "budget-before-command",
        "census-budget", "threads-negative", "threads-before-command",
        "n-zero", "n-negative", "n-above-dim"])
def test_out_of_range_numeric_flags_are_usage_errors(argv, reason):
    code, text = invoke(argv)
    assert code == 2
    assert text.startswith("error: ") and reason in text


@pytest.mark.parametrize("argv,reason", [
    (["census"], "the following arguments are required: --dim"),
    (["census", "--dim", "12", "--nope"], "unrecognized arguments: --nope"),
    (["census", "--dim", "x"], "argument --dim: invalid int value: 'x'"),
    (["--threads", "x", "h8-report"], "invalid int value: 'x'"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    ([], "the following arguments are required: command"),
    (["fusion-verify", "--file", "f.json", "--group", "Q8"],
     "argument --group: not allowed with argument --file"),
    (["fusion-verify", "--profile", "basic"],
     "one of the arguments --file --group is required"),
], ids=["missing-option", "unknown-flag", "wrong-type", "wrong-type-common",
        "unknown-command", "no-command", "verify-both-sources",
        "verify-no-source"])
def test_argparse_errors_share_the_stdout_error_channel(argv, reason):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = invoke(argv)
    assert code == 2
    assert text.startswith("error: ") and reason in text
    assert err.getvalue() == ""


def test_help_still_exits_0():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["census", "--help"], io.StringIO()) == 0
    assert out.getvalue().startswith("usage: hopfcensus census")


def test_undecodable_datum_file_is_a_usage_error(tmp_path):
    path = tmp_path / "datum.json"
    path.write_bytes(b"\xff\xfe\x00{")
    code, text = invoke(["fusion-verify", "--file", str(path)])
    assert code == 2 and text.startswith("error: ")


@pytest.mark.parametrize("degree", [-1, 0])
def test_fusion_verify_fails_a_nonpositive_degree(tmp_path, degree):
    # the Z2 ring with its second degree replaced: every other check passed
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"degrees": [1, degree], "dual": [0, 1],
                                "constants": Z2_CONSTANTS}))
    code, report = invoke_json(["fusion-verify", "--file", str(path)])
    assert code == 1
    assert report["results"]["checks"] == [
        {"axiom": "well-formed", "passed": False,
         "detail": f"basis element 1 has degree {degree} <= 0"}]


def test_fusion_verify_reports_an_empty_stabilizer(tmp_path):
    # rho * rho = 2 rho: no degree-1 element stabilizes rho, so G[rho] is empty
    datum = _d4_datum()
    datum["constants"] = [c for c in datum["constants"] if c[:2] != [4, 4]]
    datum["constants"].append([4, 4, 4, 2])
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, report = invoke_json(["fusion-verify", "--file", str(path)])
    assert code == 1
    checks = {c["axiom"]: c for c in report["results"]["checks"]}
    assert checks["stabilizer-size"] == {
        "axiom": "stabilizer-size", "passed": False,
        "detail": "|G[chi_4]| = 0 does not divide 4"}
    # the Nichols-Richmond dichotomy reads only a trivial stabilizer
    assert checks["nr-dichotomy"] == {"axiom": "nr-dichotomy", "passed": True,
                                      "detail": ""}


# -- the streaming JSON writer ------------------------------------------------------

# any text, and text with the characters an encoder may get wrong: quotes,
# backslashes, controls, non-ASCII and the layouts' "%"
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(
    ("", "%", "%s", '"\\', "\x00\x1f\x7f", "\u2028 é ☃")))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=False, allow_infinity=False), _TEXT)
_FLAT_DICTS = st.dictionaries(_TEXT, _TEXT, min_size=1, max_size=4)


@st.composite
def _shuffled_flat_dicts(draw):
    """Flat string dicts sharing one key set, each in its own key order."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    return [dict(zip(draw(st.permutations(keys)),
                     draw(st.lists(_TEXT, min_size=len(keys),
                                   max_size=len(keys)))))
            for _ in range(draw(st.integers(1, 4)))]


def _containers(children):
    return st.one_of(
        st.lists(st.one_of(children, _FLAT_DICTS), max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
        # one key set with string and non-string values: the layout of the
        # key set is built, then a non-string value must bypass it
        st.lists(st.dictionaries(st.sampled_from(("a", "b", "%s")),
                                 st.one_of(_TEXT, children), min_size=1),
                 max_size=5),
        _shuffled_flat_dicts(),
        st.lists(_shuffled_flat_dicts(), max_size=2).map(
            lambda lists: [d for chunk in lists for d in chunk]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=st.recursive(_SCALARS, _containers, max_leaves=30))
def test_write_json_matches_json_dumps(tree):
    out = io.StringIO()
    _write_json(tree, out)
    assert out.getvalue() == json.dumps(tree, sort_keys=True, indent=2)


def test_write_json_writes_rows_as_dicts_in_bounded_pieces():
    """Eliminations held as runs are written as the list of their dicts, in
    writes that stay within 4,096 characters when rows are long.  The rule
    and the detail are escaped; a run may hold one slice or many."""
    runs = [(f"1,{i}" if i % 3 else "",
             [(";" if i % 3 else "1,0;") + f"{j},{i}" for j in range(3 * i + 1)],
             "R%s", '"\\ \u2028' * (i % 7) * 15)
            for i in range(40)]
    rows = Eliminations(runs)
    out = _RecordingStream()
    _write_json({"rows": rows, "empty": Eliminations()}, out)
    assert out.getvalue() == json.dumps(
        {"rows": [r._asdict() for r in rows], "empty": []},
        sort_keys=True, indent=2)
    assert 2048 <= out.longest_write <= 4096


class _RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.longest_write = 0

    def write(self, text):
        self.longest_write = max(self.longest_write, len(text))
        return super().write(text)


def test_report_is_written_in_pieces():
    out = _RecordingStream()
    assert run(["census", "--dim", "120", "--rules", "all"], out) == 0
    text = out.getvalue()
    assert len(text) > 200_000
    assert out.longest_write <= 4096
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_largest_benchmark_census_is_written_in_pieces():
    """At dimension 240 the R10 details are the longest rows of any
    benchmark census; the writes still stay within 4,096 characters."""
    out = _RecordingStream()
    assert run(["census", "--dim", "240", "--rules", "all"], out) == 0
    assert len(out.getvalue()) > 9_000_000
    assert out.longest_write <= 4096


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_reader_that_leaves_early_gets_no_traceback(fmt):
    """``hopfcensus census ... | head -c 100``: the report is larger than the
    pipe, so writing it meets a closed pipe.  The command still exits with
    its own code, 0, and writes nothing on stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(hopfcensus.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hopfcensus.cli", "census", "--dim", "120",
         "--rules", "all", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


# -- argv fuzzing ------------------------------------------------------------------

# Values for each option, valid and invalid mixed.  Dimensions stay at most 60
# and budgets at most 2000, so that every drawn command is quick.
BUDGETS = ("-1", "0", "50", "2000", "x")
OPTION_VALUES = {
    "census": {
        "--dim": ("-3", "0", "1", "6", "24", "36", "54", "60", "x", ""),
        "--rules": ("all", "R1-R5", "R1,R4,R5", "R1..R8", "R2", "R1-", "Rx-Ry",
                    "R1-R3-R5", "R0-R2", "R1-R99", "R", ""),
        "--oracle": ("all", "1,2;2,1;4,3", "1,2;3,2;4,1", "1,0", "junk",
                     "1,2;2,x", ""),
        "--n": ("-1", "0", "1", "2", "x"),
        "--improper": None,
    },
    "fusion-search": {
        "--type": ("1,2;2,1", "1,2;2,1;4,1", "1,6;3,2", "1,2;2,7;3,2",
                   "1,2;2,4;3,2", "1,16;2,4;4,1", "1,2;2,-1", "1,2;2,1;2,1",
                   "1,0", "2,1;1,2", "1,1;1,1", "1,2;2,x", "junk", ";", ""),
        "--profile": ("basic", "hopf", "nope"),
    },
    "fusion-verify": {
        "--file": ("valid", "duplicate", "not-utf8", "truncated", "list",
                   "directory", "missing"),
        "--group": ("D4", "Q8", "S3", "Z4", "Z2xZ2", "G18", "nope"),
        "--profile": ("basic", "hopf", "nope"),
    },
    "double": {"--group": ("D4", "Q8", "S3", "Z2", "G18", "D3xD3", "nope", "")},
    "h8-report": {},
    "twist": {
        "--group": ("D4", "Q8", "S3", "Z2xZ2", "Z4", "G12", "nope"),
        "--subgroup": ("auto", "Gamma", "center", "0", "0,1", "0,2,4,6", "0,99",
                       "-1", "x", ""),
        "--bicharacter": (
            "trivial", "nondegenerate", "[[1, [2, 1]], [[2, 1], 1]]",
            "[[1, 1], [1]]", "5", "[5]", "null", '"ab"', "{", "[[1.5, 1], [1, 1]]",
            "[[[0, 1], 1], [1, 1]]", "[[[25, 1], 1], [1, 1]]",
            '[[["a", 1], 1], [1, 1]]', "[[{}, 1], [1, 1]]",
            '[[{"conductor": 1, "coeffs": ["x"]}, 1], [1, 1]]',
            '[[{"conductor": 0, "coeffs": [1]}, 1], [1, 1]]'),
        "--check-cocommutative": None,
        "--group-likes": None,
    },
}
COMMON_VALUES = {"--format": ("json", "table", "xml"),
                 "--threads": ("1", "4", "-2", "x"), "--budget": BUDGETS}
STRAY_TOKENS = ("--nope", "extra", "--dim", "-x", "")


REQUIRED = {"census": ("--dim",), "fusion-search": ("--type",),
            "double": ("--group",),
            "twist": ("--group", "--subgroup", "--bicharacter")}


@st.composite
def fuzzed_argv(draw):
    """A subcommand with its required options (each dropped one time in ten),
    up to three more options and maybe a stray token; option values come from
    the pools and are missing one time in ten."""
    command = draw(st.sampled_from(sorted(OPTION_VALUES) + ["nope"]))
    options = {**OPTION_VALUES.get(command, {}), **COMMON_VALUES}
    argv = [command]
    # the default budget is 10^7 nodes: always start from a small one
    if command in ("census", "fusion-search"):
        argv += ["--budget", draw(st.sampled_from(BUDGETS[:4]))]
    flags = [f for f in REQUIRED.get(command, ()) if draw(st.integers(0, 9)) < 9]
    flags += draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None and draw(st.integers(0, 9)) < 9:
            argv.append(draw(st.sampled_from(options[flag])))
    argv += draw(st.lists(st.sampled_from(STRAY_TOKENS), max_size=1))
    if draw(st.booleans()):
        argv = [draw(st.sampled_from(("--format", "--threads"))),
                draw(st.sampled_from(("json", "table", "2")))] + argv
    return argv


@pytest.fixture(scope="module")
def datum_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("datums")
    valid = _d4_datum()
    contents = {
        "valid": json.dumps(valid).encode(),
        "duplicate": json.dumps(_d4_datum(extra=[4, 4, 4, 5],
                                          more=[4, 4, 4, 0])).encode(),
        "not-utf8": b"\xff\xfe\x00{",
        "truncated": json.dumps(valid).encode()[:40],
        "list": json.dumps([valid]).encode(),
    }
    paths = {name: root / f"{name}.json" for name in contents}
    for name, data in contents.items():
        paths[name].write_bytes(data)
    paths["directory"] = root
    paths["missing"] = root / "missing.json"
    return {name: str(path) for name, path in paths.items()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=fuzzed_argv())
def test_any_argv_gives_a_report_or_a_usage_error(datum_files, argv):
    argv = [datum_files.get(a, a) if b == "--file" else a
            for b, a in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out)   # an exception here is a traceback in the CLI
    assert code in (0, 1, 2, 3)
    assert err.getvalue() == ""
    text = out.getvalue()
    if code == 2:
        assert text.startswith("error: ")
    else:
        assert text and not text.startswith("error: ")
