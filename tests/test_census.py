"""Type enumeration and rule pipeline: golden lists live in the acceptance
suite; here we check the machinery itself."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcensus.census import (RULES, RULES_BY_ID, Ambiguous, CensusError,
                               NoSolutionError, complete_type, enumerate_types,
                               parse_rules, tensor_type)
from hopfcensus.fusion import AlgebraTypeSignature

P = AlgebraTypeSignature.parse


def test_parse_rules_forms():
    assert [r.id for r in parse_rules("all")] == [f"R{i}" for i in range(1, 11)]
    assert [r.id for r in parse_rules("R1-R5")] == ["R1", "R2", "R3", "R4", "R5"]
    assert [r.id for r in parse_rules("R1,R4,R5")] == ["R1", "R4", "R5"]
    with pytest.raises(CensusError):
        parse_rules("R4,R5")  # R1 is mandatory
    with pytest.raises(CensusError):
        parse_rules("R1,R99")


def test_dimension_two_improper():
    result = enumerate_types(2, "R1,R2", proper_only=False)
    assert [str(s) for s in result.survivors] == ["1,2"]


def test_partition_is_exact():
    result = enumerate_types(24, "all", proper_only=False)
    seen = {str(s) for s in result.survivors}
    seen |= {e.type for e in result.eliminated}
    # every candidate satisfies the dimension identity
    for s in result.survivors:
        assert s.total == 24
    for e in result.eliminated:
        assert P(e.type).total == 24
    # survivors and eliminated partition the candidate set
    assert len(seen) == len(result.survivors) + len(result.eliminated)


def _square_partition_counts(limit):
    """Coefficients of x^0..x^limit in prod_{d >= 2} 1 / (1 - x^(d^2))."""
    counts = [1] + [0] * limit
    for d in range(2, math.isqrt(limit) + 1):
        for s in range(d * d, limit + 1):
            counts[s] += counts[s - d * d]
    return counts


def test_candidates_are_complete():
    """Per-n candidate counts against the generating function.  Every
    dimension up to 240 would build 2.8M candidates; dimension 240 alone
    already meets every remainder below 240, with one shared table."""
    counts = _square_partition_counts(240)
    for dim in list(range(1, 121)) + [192, 216, 240]:
        result = enumerate_types(dim, (), proper_only=False)
        by_n = Counter(s.n for s in result.survivors)
        assert not result.eliminated
        assert all(by_n[n] == counts[dim - n] for n in range(1, dim + 1)), dim


def test_candidates_match_brute_force_in_order():
    for dim in range(1, 61):
        degrees = range(2, math.isqrt(dim) + 1)
        expected = []
        for n in range(1, dim + 1):
            for mults in itertools.product(
                    *(range((dim - n) // (d * d) + 1) for d in degrees)):
                if n + sum(m * d * d for d, m in zip(degrees, mults)) == dim:
                    entries = tuple((d, m) for d, m in zip(degrees, mults) if m)
                    expected.append((n, entries))
        expected.sort()
        result = enumerate_types(dim, (), proper_only=False)
        assert [(s.n, s.entries) for s in result.survivors] == expected, dim


def test_every_elimination_names_an_applicable_rule():
    for dim in (24, 30, 36, 40, 42, 48, 54, 56, 60):
        result = enumerate_types(dim, "all")
        for e in result.eliminated:
            rule = RULES_BY_ID[e.rule]
            assert rule.applies(dim, P(e.type))
            assert rule.check(dim, P(e.type)) == e.detail


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=48),
       st.sets(st.integers(min_value=2, max_value=10), max_size=6))
def test_rule_monotonicity(dim, extra_ids):
    small = parse_rules("R1")
    big = parse_rules(",".join(["R1"] + sorted(f"R{i}" for i in extra_ids)))
    survivors_small = {str(s) for s in enumerate_types(dim, small).survivors}
    survivors_big = {str(s) for s in enumerate_types(dim, big).survivors}
    assert survivors_big <= survivors_small


def test_enumeration_is_canonically_sorted():
    result = enumerate_types(36, "all")
    keys = [s.sort_key() for s in result.survivors]
    assert keys == sorted(keys)


def test_n_filter():
    result = enumerate_types(60, "R1,R4,R5", n_filter=1)
    assert all(s.n == 1 for s in result.survivors)


def test_non_divisor_counts_are_killed_by_r2_only():
    # without R2 the dimension identity alone admits non-divisor n
    loose = enumerate_types(6, "R1", proper_only=False)
    assert any(s.n == 2 and s.entries == ((2, 1),) for s in loose.survivors)
    strict = enumerate_types(6, "R1,R2", proper_only=False)
    eliminated_by_r2 = {e.type for e in strict.eliminated
                        if e.rule == "R2"}
    assert not eliminated_by_r2  # n = 2 divides 6; R2 has nothing to kill here
    odd = enumerate_types(10, "R1,R2", proper_only=False)
    assert all(10 % s.n == 0 for s in odd.survivors)
    assert any(e.rule == "R2" for e in odd.eliminated)


def test_oracle_hook_runs_only_on_requested_survivors():
    result = enumerate_types(54, "all",
                             oracle_types=["1,2;2,1;4,3", "1,18;6,1", "1,9;9,9"])
    ran = {str(sig) for sig, _ in result.oracle}
    assert "1,2;2,1;4,3" in ran
    assert "1,18;6,1" in ran          # a survivor: searched (feasibility unknown
    assert "1,9;9,9" not in ran       # not even a candidate: ignored


def test_oracle_all_requests_every_survivor():
    explicit = enumerate_types(36, "all")
    everything = enumerate_types(36, "all", oracle_types=["all"],
                                 oracle_budget=2000)
    listed = enumerate_types(36, "all", oracle_budget=2000,
                             oracle_types=[str(s) for s in explicit.survivors])
    assert [sig for sig, _ in everything.oracle] == list(explicit.survivors)
    assert everything.to_json() == listed.to_json()


def test_oracle_results_shrink_final_set():
    result = enumerate_types(36, "all", oracle_types=["1,2;3,2;4,1"])
    assert len(result.oracle) == 1
    sig, outcome = result.oracle[0]
    assert outcome.status == "infeasible"
    finals = {str(s) for s in result.final_survivors()}
    assert "1,2;3,2;4,1" not in finals
    assert len(finals) == len(result.survivors) - 1


def test_oracle_wraps_oversized_types_as_inconclusive():
    result = enumerate_types(48, "all", oracle_types=["1,16;2,4;4,1"])
    sig, outcome = result.oracle[0]
    assert outcome.status == "inconclusive"
    assert "basis" in (outcome.trace or "")


def test_tensor_type():
    assert str(tensor_type(P("1,4;2,1"), P("1,4;2,1"))) == "1,16;2,8;4,1"
    assert str(tensor_type(P("1,3"), P("1,5"))) == "1,15"
    assert str(tensor_type(P("1,2;2,1"), P("1,2"))) == "1,4;2,2"


def test_complete_type():
    assert str(complete_type(64, 8, {2})) == "1,8;2,14"
    assert str(complete_type(8, 8, set())) == "1,8"
    assert str(complete_type(12, 4, {2, 3})) == "1,4;2,2"
    out = complete_type(20, 4, {2, 4})
    assert isinstance(out, Ambiguous)
    assert {str(s) for s in out.solutions} == {"1,4;2,4", "1,4;4,1"}
    with pytest.raises(NoSolutionError):
        complete_type(12, 4, {3})
    with pytest.raises(CensusError):
        complete_type(12, 5, {2})


def test_census_json_schema():
    data = enumerate_types(30, "all").to_json()
    assert set(data) == {"dim", "survivors", "eliminated", "oracle", "final"}
    assert data["dim"] == 30
    assert all(set(e._fields) == {"type", "rule", "detail"}
               for e in data["eliminated"])
    assert data["final"] == data["survivors"]  # no oracle requested


def test_rule_citations_exist():
    for rule in RULES:
        assert rule.citation
        assert rule.id.startswith("R")
