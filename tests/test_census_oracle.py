"""The census report against an independent oracle.

The oracle shares nothing with the enumerator but the rules themselves:
it lists the candidates by brute force over multiplicity vectors, builds
each signature through the validating constructor, takes the first rule
of the list whose ``check`` fails, and writes the report with
``json.dumps`` (or the table layout).  ``cli.run`` must give the same
bytes.
"""

import functools
import io
import itertools
import json
import math
import re
from collections import Counter

import pytest

from hopfcensus.census import (RULES_BY_ID, Elimination, Eliminations,
                               enumerate_types)
from hopfcensus.cli import run
from hopfcensus.fusion import AlgebraTypeSignature

RULE_IDS = {
    "all": [f"R{k}" for k in range(1, 11)],
    "R2,R1": ["R2", "R1"],
    "R1,R1,R2": ["R1", "R1", "R2"],
    "R1,R3,R2": ["R1", "R3", "R2"],
    "R1-R5": ["R1", "R2", "R3", "R4", "R5"],
}


def _candidates_by_product(dim):
    """Every (n, entries) with n + sum m d^2 = dim and n >= 1, sorted: one
    ``itertools.product`` over the multiplicities of degrees 2..isqrt(dim)."""
    degrees = range(2, math.isqrt(dim) + 1)
    found = []
    for mults in itertools.product(
            *(range((dim - 1) // (d * d) + 1) for d in degrees)):
        n = dim - sum(m * d * d for d, m in zip(degrees, mults))
        if n >= 1:
            found.append((n, tuple((d, m) for d, m in zip(degrees, mults) if m)))
    return sorted(found)


def _candidates_by_recursion(dim):
    """The same list, by recursion on the degrees with the remainder bounding
    each multiplicity (a product over every degree is too large at 240)."""
    def vectors(limit, degrees):
        if not degrees:
            yield ()
            return
        d = degrees[0]
        for m in range(limit // (d * d) + 1):
            for rest in vectors(limit - m * d * d, degrees[1:]):
                yield ((d, m),) + rest if m else rest
    degrees = tuple(range(2, math.isqrt(dim) + 1))
    return sorted((dim - sum(m * d * d for d, m in entries), entries)
                  for entries in vectors(dim - 1, degrees))


def _first_failures(dim, rule_ids, candidates, proper_only=True):
    """(survivor texts, elimination dicts) in candidate order."""
    survivors, eliminated = [], []
    for n, entries in candidates:
        if proper_only and not entries:
            continue
        sig = AlgebraTypeSignature(n, entries)
        for rule_id in rule_ids:
            detail = RULES_BY_ID[rule_id].check(dim, sig)
            if detail is not None:
                eliminated.append({"type": str(sig), "rule": rule_id,
                                   "detail": detail})
                break
        else:
            survivors.append(str(sig))
    return survivors, eliminated


@functools.lru_cache(maxsize=None)
def _candidates(dim):
    """The product enumeration up to 72 (where the two are checked to agree),
    the recursion above; kept for the module, which reads 240 thrice."""
    return _candidates_by_product(dim) if dim <= 72 else \
        _candidates_by_recursion(dim)


def _expected_report(dim, spec, n=None, improper=False):
    candidates = [(k, e) for k, e in _candidates(dim) if n is None or k == n]
    survivors, eliminated = _first_failures(dim, RULE_IDS[spec], candidates,
                                            proper_only=not improper)
    flags = {"budget": 10 ** 7, "dim": dim, "improper": improper,
             "rules": spec}
    if n is not None:
        flags["n"] = n
    return {
        "command": "census",
        "flags": flags,
        "results": {"dim": dim, "survivors": survivors,
                    "eliminated": eliminated, "oracle": [],
                    "final": list(survivors)},
        "citations": [f"{i}: {RULES_BY_ID[i].citation}"
                      for i in RULE_IDS[spec]],
    }


def _table(report):
    """The ``--format table`` text of a report without oracle results."""
    lines = []

    def item(key, value, pad):
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in sorted(value):
                item(k, value[k], pad + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            lines.extend(f"{pad}  - detail={e['detail']}, rule={e['rule']}, "
                         f"type={e['type']}" for e in value)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + ", ".join(map(str, value)))
        else:
            lines.append(f"{pad}{key}: {value}")

    for key in sorted(report):
        item(key, report[key], "")
    return "\n".join(lines) + "\n"


def _cli(argv):
    out = io.StringIO()
    assert run(argv, out) == 0
    return out.getvalue()


@pytest.mark.parametrize("spec", sorted(RULE_IDS))
def test_census_report_matches_the_oracle(spec):
    for dim in range(1, 73):
        expected = json.dumps(_expected_report(dim, spec), sort_keys=True,
                              indent=2) + "\n"
        assert _cli(["census", "--dim", str(dim), "--rules", spec]) == \
            expected, (dim, spec)


def test_census_options_match_the_oracle():
    for dim in (1, 2, 12, 30, 36, 48, 60, 72):
        for spec in ("all", "R1,R3,R2"):
            argv = ["census", "--dim", str(dim), "--rules", spec]
            for n in sorted({k for k in (1, 2, dim // 2, dim)
                             if 1 <= k <= dim}):
                expected = _expected_report(dim, spec, n=n)
                assert _cli(argv + ["--n", str(n)]) == json.dumps(
                    expected, sort_keys=True, indent=2) + "\n", (dim, spec, n)
            expected = _expected_report(dim, spec, improper=True)
            assert _cli(argv + ["--improper"]) == json.dumps(
                expected, sort_keys=True, indent=2) + "\n", (dim, spec)
            assert _cli(argv + ["--format", "table"]) == \
                _table(_expected_report(dim, spec)), (dim, spec)


def test_the_two_oracle_enumerations_agree():
    for dim in range(1, 73):
        assert _candidates_by_recursion(dim) == _candidates_by_product(dim)


def test_kills_per_rule_at_240_match_the_oracle():
    """The counts ``perfbench/tracer.py`` reads from ``result.eliminated``."""
    kills = Counter(e.rule for e in enumerate_types(240, "all").eliminated)
    _, eliminated = _first_failures(240, RULE_IDS["all"], _candidates(240))
    assert kills == Counter(e["rule"] for e in eliminated)
    assert kills == {"R2": 51_521, "R3": 18_350, "R10": 225, "R4": 14}


@pytest.mark.parametrize("dim", [120, 240])
def test_long_runs_of_eliminations_match_the_oracle(dim):
    """At 120 and 240 R2 removes whole degree-1 counts of up to thousands of
    candidates each, which the writers put out one slice of a run at a time."""
    expected = _expected_report(dim, "all")
    argv = ["census", "--dim", str(dim), "--rules", "all"]
    assert _cli(argv) == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert _cli(argv + ["--format", "table"]) == _table(expected)


@pytest.mark.parametrize("spec", ["all", "R1,R3,R2"])
@pytest.mark.parametrize("dim", [192, 216, 240])
def test_eliminations_read_as_the_oracles_rows(dim, spec):
    eliminated = enumerate_types(dim, spec).eliminated
    _, rows = _first_failures(dim, RULE_IDS[spec], _candidates(dim))
    assert len(eliminated) == len(rows)
    assert list(eliminated) == [Elimination(**row) for row in rows]
    assert eliminated == enumerate_types(dim, spec).eliminated
    assert eliminated != enumerate_types(dim, "R1,R2").eliminated


def test_eliminations_are_equal_row_by_row():
    """Equality reads the rows, not how they are grouped into runs."""
    one = Eliminations([("1,2", [";2,1", ";3,1"], "R2", "why")])
    two = Eliminations([("", ["1,2;2,1"], "R2", "why"),
                        ("1,", ["2;3,1"], "R2", "why")])
    assert one == two and len(one) == len(two) == 2
    assert one != Eliminations([("1,2", [";2,1", ";3,2"], "R2", "why")])
    assert one != Eliminations([("1,2", [";2,1"], "R2", "why")])


def test_an_empty_elimination_list():
    result = enumerate_types(30, "R1")
    assert not result.eliminated
    assert len(result.eliminated) == 0 and list(result.eliminated) == []
    assert result.eliminated == Eliminations()
    argv = ["census", "--dim", "30", "--rules", "R1"]
    assert '"eliminated": [],' in _cli(argv)
    assert "  eliminated: \n" in _cli(argv + ["--format", "table"])


def test_type_texts_need_no_json_escape():
    """The census writers put type texts out unescaped, which holds while
    every type text at dimensions 1-240 is digits, commas and semicolons."""
    texts = re.compile(r"1,\d+(?:;\d+,\d+)*(?:\n1,\d+(?:;\d+,\d+)*)*")
    for dim in range(1, 241):
        result = enumerate_types(dim, "R1,R2", proper_only=False)
        lines = [s.text for s in result.survivors]
        lines += [head + ("\n" + head).join(tails)   # each run's rows' types
                  for head, tails, _, _ in result.eliminated.runs]
        assert texts.fullmatch("\n".join(lines)), dim
