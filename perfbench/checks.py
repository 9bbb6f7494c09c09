"""Verdict checks: the hand-written expected file plus independent checks.

``expected.json`` pins, for each command id, the exit codes allowed and the
values the JSON report must carry.  Values marked ``"source": "acceptance"``
come from the acceptance numbers; ``"source": "seed"`` marks values recorded
from the seed program that no acceptance test pins.

Two checks are computed here instead of read from the file:

* ``fusion_axiom_failures`` re-checks a fusion datum (unit, duality,
  Frobenius symmetry, degree homomorphism, associativity) with numpy.  It
  shares no code with ``hopfcensus.fusion``.  It runs on every search
  witness and on every datum given to ``fusion-verify``.
* ``census_candidate_count`` counts the type signatures of a dimension by a
  generating function, for the census candidate totals.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")

def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- independent checks -----------------------------------------------------------

def fusion_axiom_failures(datum: dict) -> list[str]:
    """Axioms a fusion datum (``FusionDatum.to_json`` layout) violates."""
    deg = np.array(datum["degrees"], dtype=np.int64)
    dual = np.array(datum["dual"], dtype=np.int64)
    r = len(deg)
    n = np.zeros((r, r, r), dtype=np.int64)
    for i, j, k, v in datum["constants"]:
        n[i, j, k] = v
    eye = np.eye(r, dtype=np.int64)
    failures = []
    if (n < 0).any() or sorted(dual.tolist()) != list(range(r)) \
            or (dual[dual] != np.arange(r)).any() or (deg[dual] != deg).any() \
            or deg[0] != 1 or dual[0] != 0:
        failures.append("well-formed")
        return failures
    if not ((n[0] == eye).all() and (n[:, 0, :] == eye).all()):
        failures.append("unit")
    if not (n[:, :, 0] == eye[:, dual]).all():
        failures.append("duality")
    # N(i, j, k) = N(i*, k, j) = N(k, j*, i) = N(j*, i*, k*)
    if not ((n == n[dual].transpose(0, 2, 1)).all()
            and (n == n[:, dual, :].transpose(2, 1, 0)).all()
            and (n == n[dual][:, dual][:, :, dual].transpose(1, 0, 2)).all()):
        failures.append("frobenius-symmetry")
    if not (n @ deg == np.outer(deg, deg)).all():
        failures.append("degree-homomorphism")
    left = np.einsum("ijm,mkl->ijkl", n, n)
    right = np.einsum("jkm,iml->ijkl", n, n)
    if not (left == right).all():
        failures.append("associativity")
    return failures


def _squares_partition_counts(limit: int) -> list[int]:
    """p[t] = number of ways to write t as a sum of squares d^2, d >= 2."""
    p = [1] + [0] * limit
    d = 2
    while d * d <= limit:
        for t in range(d * d, limit + 1):
            p[t] += p[t - d * d]
        d += 1
    return p


def census_candidate_count(dim: int) -> int:
    """Signatures 1,n;d,m;... with n + sum m d^2 = dim, n >= 1, some d >= 2."""
    p = _squares_partition_counts(dim)
    return sum(p[dim - n] for n in range(1, dim))


# -- expected verdicts ----------------------------------------------------------------

def _derived(results: dict) -> dict:
    """Report values under the names expected.json uses."""
    view = dict(results)
    if "oracle" in results:
        view["oracle_status"] = {o["type"]: o["status"]
                                 for o in results["oracle"]}
    if "survivors" in results:
        view["survivors_sha256"] = hashlib.sha256(
            "\n".join(results["survivors"]).encode()).hexdigest()
        view["candidates"] = len(results["survivors"]) + \
            len(results["eliminated"])
    if "checks" in results:
        view["failing_axioms"] = [c["axiom"] for c in results["checks"]
                                  if not c["passed"]]
    for key in ("axioms", "twist_checks", "twisted_axioms"):
        if isinstance(results.get(key), dict):
            view[f"{key}_passed"] = results[key]["passed"]
    return view


def check_command(expect: dict, code: int, output: str):
    """Mismatches between a command's exit code and report and ``expect``.

    Returns ``(problems, results)``; ``results`` is the report's ``results``
    object, or None when the output is not a JSON report.
    """
    problems = []
    if code not in expect["exit"]:
        problems.append(f"exit code {code}, expected one of {expect['exit']}")
    try:
        results = json.loads(output)["results"]
    except (ValueError, KeyError, TypeError):
        return problems + [f"no JSON report: {output[:120]!r}"], None
    view = _derived(results)
    for key, want in expect.get("equals", {}).items():
        if view.get(key) != want:
            problems.append(f"{key} = {view.get(key)!r}, expected {want!r}")
    for key, allowed in expect.get("one_of", {}).items():
        if view.get(key) not in allowed:
            problems.append(f"{key} = {view.get(key)!r}, expected one of "
                            f"{allowed!r}")
    for key, want in expect.get("set", {}).items():
        got = view.get(key)
        if got is None or set(got) != set(want) or len(got) != len(want):
            problems.append(f"{key} differs from the expected set of "
                            f"{len(want)}: {got!r}")
    for key, want in expect.get("count", {}).items():
        got = view.get(key)
        if got is None or len(got) != want:
            problems.append(f"{key} has {None if got is None else len(got)} "
                            f"entries, expected {want}")
    for key in expect.get("nonempty", ()):
        if not view.get(key):
            problems.append(f"{key} is empty")
    for key, allowed in expect.get("subset_of", {}).items():
        extra = set(view.get(key) or ()) - set(allowed)
        if extra:
            problems.append(f"{key} has unknown entries {sorted(extra)}")
    if "census_dim" in expect:
        want = census_candidate_count(expect["census_dim"])
        if view.get("candidates") != want:
            problems.append(f"{view.get('candidates')} candidates, independent "
                            f"count gives {want}")
    if expect.get("witness_axioms"):
        witness = results.get("witness")
        failures = (["no witness"] if witness is None
                    else fusion_axiom_failures(witness))
        if failures:
            problems.append(f"witness fails {failures} (numpy check)")
    return problems, results


def expectation_for(expected: dict, command_id: str) -> dict:
    if command_id.startswith("witness-"):
        return expected["witness"]
    return expected[command_id]
