"""hopfcensus benchmark: CLI commands timed end to end, verdicts checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command of the workload runs
through ``hopfcensus.cli.run`` in a fresh interpreter (``child.py``), one at
a time, from this single process: a closed loop with one client.  A pass
runs every command once, in an order drawn from the seed; passes repeat
until ``--seconds`` have gone by.  Every command's exit code and report are
checked against ``expected.json`` and the independent checks in
``checks.py``; a mismatch or a traceback counts the command as failed.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics:

* ``pass_s``: time inside ``cli.run`` for one pass, the sum over commands of
  each command's median;
* ``setup_s``: median time from interpreter start to ``hopfcensus.cli``
  imported, over every command process;
* ``peak_rss_mb``: the largest peak resident memory of any command process.

A plain run cuts its last pass short at ``--seconds``; each command's median
is over the passes that ran it.

With ``--trace 1`` each command runs twice in a row, plain and traced, and
the result holds the per-layer metrics of ``tracer.py`` plus the tracing
overhead (traced minus plain ``pass_s``).  Before the
result line a human-readable report lists every metric with its unit, the
command families' times and one row per command.  Spans of the last traced
pass are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
COMMAND_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # start no pass after this, so a run ends within 180 s

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("cli.cpu_s", "s"), ("cli.output_bytes", "bytes"),
       ("census.candidates", "count"), ("census.survivors", "count"),
       ("census.oracle_requests", "count")]
    + [(f"census.kills.R{k}", "count") for k in range(1, 11)]
    + [("fusion.search_fusion.calls", "count"),
       ("fusion.search.nodes", "count"),
       ("fusion.search.nodes_to_verdict", "count"),
       ("fusion.search.inconclusive", "count"),
       ("fusion.search.nodes_per_s", "1/s"),
       ("fusion.verify_fusion_datum.calls", "count"),
       ("fusion.verify_fusion_datum.leaf.calls", "count"),
       ("decided_ratio", "ratio"),
       ("hopfcore.verify_hopf_axioms.calls", "count"),
       ("hopfcore.vec_mul.calls", "count"),
       ("hopfcore.tensor_mul.calls", "count"),
       ("cyclotomic.add.rational", "count"),
       ("cyclotomic.add.cyclotomic", "count"),
       ("cyclotomic.mul.rational", "count"),
       ("cyclotomic.mul.cyclotomic", "count"),
       ("cyclotomic.inv.calls", "count"),
       ("cyclotomic.bool.calls", "count"),
       ("groups.calls", "count"),
       ("trace.pass_s", "s"), ("trace.overhead_s", "s")])

class SetupError(RuntimeError):
    pass


# -- statistics -----------------------------------------------------------------

def tail(values):
    """(percentile, value) with ten samples beyond it, or None below p50."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(values):
    med = f"{statistics.median(values):.4f}" if values else "-"
    t = tail(values)
    pct = f"p{t[0]:.0f}={t[1]:.4f}" if t else "p-=-"
    return f"median={med} {pct} n={len(values)}"


# -- running commands -------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_command(cmd, mode, env, span_path="-"):
    """Start one command process, wait for it and parse what it reports."""
    stamp = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), repr(stamp), mode, str(span_path),
         json.dumps(cmd["argv"])],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"id": cmd["id"], "code": None, "problems": ["timed out"]}
    try:
        rec = json.loads(out)
    except ValueError:
        return {"id": cmd["id"], "code": proc.returncode,
                "problems": [f"no result from the command process: "
                             f"{err.decode(errors='replace')[-300:]!r}"]}
    rec["id"] = cmd["id"]
    rec["traceback"] = rec["traceback"] or (
        "Traceback" in err.decode(errors="replace") or None)
    return rec


def _search_outcomes(family, results):
    if family == "fusion_search":
        return [(results["status"], results["nodes"])]
    if family == "census":
        return [(o["status"], o["nodes"]) for o in results.get("oracle", ())]
    return []


def check_record(rec, cmd, expected):
    """Fill ``rec['problems']`` and the values read from its report."""
    problems = list(rec.get("problems", ()))
    if "output" in rec:
        if rec["traceback"]:
            problems.append("the command wrote a traceback")
        found, results = checks.check_command(
            checks.expectation_for(expected, cmd["id"]), rec["code"],
            rec["output"])
        problems += found
        rec["output_bytes"] = len(rec.pop("output").encode())
        rec["searches"] = (_search_outcomes(cmd["family"], results)
                           if results else [])
    rec["problems"] = problems
    return rec


def run_pass(commands, rng, modes, expected, env, span_dir=None,
             deadline=None):
    """Run every command once in each of ``modes``, back to back.

    Returns one list of records per mode.  Running the plain and the traced
    process of a command one after the other keeps slow drifts of the
    machine's speed out of the tracing overhead.  With a ``deadline`` the
    pass stops at the first command that would start after it.
    """
    order = list(commands)
    rng.shuffle(order)
    records = {mode: [] for mode in modes}
    for cmd in order:
        if deadline is not None and time.monotonic() >= deadline:
            break
        for mode in modes:
            span_path = span_dir / f"{cmd['id']}.json" if mode == "trace" \
                else "-"
            rec = run_command(cmd, mode, env, span_path)
            records[mode].append(check_record(rec, cmd, expected))
    return [records[mode] for mode in modes]


# -- aggregation ------------------------------------------------------------------

def by_command(passes):
    out = defaultdict(list)
    for records in passes:
        for rec in records:
            if "run_s" in rec:
                out[rec["id"]].append(rec)
    return out


def pass_time(passes, key="run_s"):
    """Sum over commands of each command's median time in ``cli.run``."""
    return sum(statistics.median(r[key] for r in recs)
               for recs in by_command(passes).values())


def decided_ratio(records):
    outcomes = [s for rec in records for s, _ in rec.get("searches", ())]
    if not outcomes:
        return 0.0
    return sum(s in ("feasible", "infeasible") for s in outcomes) / len(outcomes)


def layer_metrics(traced, plain):
    """Per-layer metrics: medians over traced passes of per-pass sums."""
    per_pass = []
    for records in traced:
        m = Counter()
        for rec in records:
            tr = rec.get("trace")
            if tr is None:
                continue
            for layer in LAYERS:
                m[f"{layer}.self_s"] += tr["self_s"][layer] + \
                    tr["load_s"][layer]
            m["cli.output_bytes"] += rec.get("output_bytes", 0)
            for name, n in tr["calls"].items():
                m[f"{name}.calls"] += n
                if name.startswith("groups."):
                    m["groups.calls"] += n
            for name, t in tr["busy_s"].items():
                m[f"{name}.busy_s"] += t
            m.update(tr["counts"])
            m["trace.accounted_s"] += sum(tr["self_s"].values())
        per_pass.append(m)
    keys = set().union(*per_pass)
    med = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in keys}
    search_s = med.get("fusion.search_fusion.busy_s", 0.0)
    med["fusion.search.nodes_per_s"] = (
        med.get("fusion.search.nodes", 0) / search_s if search_s else 0.0)
    med["cli.cpu_s"] = pass_time(plain, "cpu_s")
    med["trace.pass_s"] = pass_time(traced)
    med["trace.overhead_s"] = med["trace.pass_s"] - pass_time(plain)
    med["decided_ratio"] = decided_ratio(plain[0])
    return med


# -- the run ------------------------------------------------------------------------

def git_commit():
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        packed = (git / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_benchmark(workload, seed, seconds, trace, expected=None,
                  max_passes=None, mode="plain", log=print):
    """Run one workload; return the result object the last line prints."""
    if not (ROOT / "src" / "hopfcensus" / "cli.py").is_file():
        raise SetupError(f"no hopfcensus sources under {ROOT / 'src'}")
    expected = expected if expected is not None else checks.load_expected()
    env = child_env()
    rng = random.Random(seed)
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    span_dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands, inputs = workloads.build(
            workload, rng, workdir.relative_to(ROOT))
        generator_problems = []
        for cid, (datum, valid) in inputs.get("data", {}).items():
            failures = checks.fusion_axiom_failures(datum)
            if bool(failures) == valid:
                generator_problems.append(
                    f"{cid}: numpy check gives {failures or 'valid'}")
        warm = run_command({"id": "warm-up", "argv": ["double", "--group",
                                                       "S3"]}, "plain", env)
        if "run_s" not in warm:
            raise SetupError(f"the CLI does not run: {warm['problems']}")
        if trace:
            span_dir.mkdir(parents=True, exist_ok=True)
        plain, traced = [], []
        modes = (mode, "trace") if trace else (mode,)
        start = time.monotonic()
        while True:
            # After the first whole pass a plain run ends on time by cutting
            # its last pass short; per-layer sums need whole traced passes,
            # so a traced run takes the pass count closest to ``seconds``.
            deadline = start + seconds if plain and not trace else None
            records = run_pass(commands, rng, modes, expected, env, span_dir,
                               deadline)
            if records[0]:
                plain.append(records[0])
                traced += records[1:]
            elapsed = time.monotonic() - start
            n = len(plain)
            per_pass = elapsed / n
            if elapsed + (per_pass / 2 if trace else 0) >= seconds \
                    or elapsed + per_pass > RUN_LIMIT_S \
                    or (max_passes and n >= max_passes):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    records = [r for p in plain + traced for r in p]
    failed = [r for r in records if r["problems"]]
    untraced = [r for p in plain for r in p if "run_s" in r]
    e2e = {
        "pass_s": pass_time(plain),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": max(r["rss_mb"] for r in untraced),
    }
    layers = layer_metrics(traced, plain) if trace else {}

    # -- report
    log(f"# hopfcensus benchmark: workload={workload} seed={seed} "
        f"trace={trace} seconds={seconds}")
    log(f"# python={platform.python_version()} nproc={os.cpu_count()} "
        f"commit={git_commit()} passes={len(plain)} (the last may be partial) "
        f"traced_passes="
        f"{len(traced)} commands_per_pass={len(commands)} "
        f"loop=closed clients=1")
    if inputs.get("corrupted"):
        log(f"# corrupted datum: {inputs['corrupted']}")
    log("## end-to-end")
    samples = {"pass_s": [sum(r["run_s"] for r in p if "run_s" in r)
                          for p in plain if len(p) == len(commands)],
               "setup_s": [r["setup_s"] for r in untraced],
               "peak_rss_mb": [r["rss_mb"] for r in untraced]}
    for name, unit in END_TO_END:
        log(f"{name:<16} {e2e[name]:>12.4f} {unit:<6} "
            f"samples: {describe(samples[name])}")
    log(f"{'failed_ratio':<16} {len(failed) / len(records):>12.4f} ratio  "
        f"{len(failed)} of {len(records)} commands")
    log(f"{'decided_ratio':<16} {decided_ratio(plain[0]):>12.4f} ratio  "
        f"fusion searches ending feasible or infeasible")
    log("## command families (sum of command medians)")
    cmds = by_command(plain)
    family_of = {c["id"]: c["family"] for c in commands}
    for family in workloads.FAMILIES:
        t = sum(statistics.median(r["run_s"] for r in recs)
                for cid, recs in cmds.items() if family_of[cid] == family)
        log(f"{family + '_s':<16} {t:>12.4f} s      "
            f"share={t / e2e['pass_s']:.3f}")
    log("## commands: id | exit | time in cli.run | nodes | output bytes | argv")
    for cmd in commands:
        recs = cmds.get(cmd["id"], [])
        codes = sorted({r["code"] for r in recs})
        nodes = sum(n for _, n in recs[0].get("searches", ())) if recs else 0
        out_bytes = recs[0].get("output_bytes", 0) if recs else 0
        log(f"{cmd['id']:<28} exit={codes} "
            f"{describe([r['run_s'] for r in recs])} nodes={nodes} "
            f"bytes={out_bytes} argv={json.dumps(cmd['argv'])}")
    if trace:
        log("## per-layer (traced passes; self_s includes the module load)")
        for name, unit in PER_LAYER:
            log(f"{name:<40} {layers.get(name, 0):>14.4f} {unit}")
        for name in sorted(k for k in layers if k.endswith(".busy_s")):
            log(f"{name:<40} {layers[name]:>14.4f} s")
        call_self = layers.get("trace.accounted_s", 0.0)
        log(f"# accounting: call self times sum to {call_self:.4f} s of "
            f"traced pass_s {layers['trace.pass_s']:.4f} s; spans in "
            f"{span_dir.relative_to(ROOT)}")
    for rec in failed:
        log(f"FAILED {rec['id']}: {'; '.join(rec['problems'])}")
    for problem in generator_problems:
        log(f"FAILED input generation: {problem}")

    metrics = ({n: {"value": layers.get(n, 0.0), "unit": u}
                for n, u in PER_LAYER} if trace else
               {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END})
    return {"correct": not failed and not generator_problems,
            "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
