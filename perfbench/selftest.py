"""Self-test of the benchmark itself (about three minutes on 2 cores).

    python3 perfbench/selftest.py

Runs one pass of each workload and checks the result schema against
``BENCHMARK.json`` and that every verdict check passes on the current code.
Then checks that the checks can fail: a wrong expected verdict, a traceback
inside ``cli.run`` and a corrupted fusion datum must each count as failed,
and the benchmark must refuse to run in a directory without the sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys

import checks
import run
import workloads

FAILURES: list[str] = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def quiet(*_args, **_kwargs):
    pass


def one_pass(workload, trace=False, expected=None, mode="plain"):
    return run.run_benchmark(workload, 0, 0, trace, expected=expected,
                             max_passes=1, mode=mode, log=quiet)


def check_schema(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int), f"{label}: counts")
    names = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == names, f"{label}: metric names and units match "
                         f"BENCHMARK.json")
    expect(all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values()),
           f"{label}: metric values are numbers")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")

    for workload in workloads.WORKLOADS:
        result = one_pass(workload)
        check_schema(result, bench["end_to_end"], workload)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: every verdict matches on the current code")
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{workload}: end-to-end metrics are positive")

    traced = {}
    for workload in workloads.WORKLOADS:
        result = one_pass(workload, trace=True)
        check_schema(result, bench["per_layer"], f"{workload} traced")
        m = traced[workload] = {k: v["value"]
                                for k, v in result["metrics"].items()}
        expect(result["correct"], f"{workload} traced: verdicts match")
        expect(all(m[f"{layer}.self_s"] > 0 for layer in run.LAYERS),
               f"{workload} traced: every layer self time is positive")
    hopf, fusion = traced["hopf"], traced["fusion"]
    expect(hopf["cyclotomic.mul.cyclotomic"] > 0
           and hopf["cyclotomic.mul.rational"] > 0
           and hopf["hopfcore.vec_mul.calls"] > 0,
           "hopf traced: cyclotomic and hopfcore counters move")
    expect(fusion["hopfcore.vec_mul.calls"] == 0
           and fusion["cyclotomic.mul.cyclotomic"] == 0,
           "fusion traced: hopfcore kernels and cyclotomic arithmetic idle")
    expect(0 < fusion["decided_ratio"] < 1,
           "fusion: the dim-48 residual keeps decided_ratio below 1")
    expect(fusion["fusion.search.nodes"] > 50000
           and fusion["census.kills.R2"] > 0
           and fusion["fusion.verify_fusion_datum.calls"] == 9
           and fusion["fusion.verify_fusion_datum.leaf.calls"] >= 4,
           "fusion: search, census and verifier counters move")

    wrong = copy.deepcopy(checks.load_expected())
    wrong["h8-report"]["equals"]["cocommutative"] = True
    result = one_pass("hopf", expected=wrong)
    expect(not result["correct"] and result["failed"] >= 1,
           "a wrong expected verdict fails the run")

    result = one_pass("hopf", mode="fault")
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a traceback in cli.run fails every command")

    datum = workloads.verified_rings()["S3"]
    bad, _ = workloads.corrupt(datum, random.Random(0))
    expect(checks.fusion_axiom_failures(datum) == []
           and "degree-homomorphism" in checks.fusion_axiom_failures(bad),
           "the numpy axiom check accepts S3 and rejects its corruption")

    bare = run.ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            bench["command"] + ["--workload", "hopf", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} self-test check(s) failed" if FAILURES
          else "self-test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
