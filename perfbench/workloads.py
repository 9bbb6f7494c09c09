"""The two workloads: their CLI commands and the input files they read.

``fusion`` runs the fusion search (refutations, seeded witnesses that end in
leaf verification, the budget-bound dim-48 residual), the census at
dimensions 24-240 with and without the oracle, ``fusion-verify`` on seeded
relabelings of character rings plus one corrupted datum, and ``double``.
``hopf`` runs ``h8-report`` and the twists of D3xD3, G12 and D4, whose
scalars are all rational, and of G18, where most are cyclotomic.  So an
optimisation of ``hopfcore`` or ``cyclotomic`` acts on ``hopf`` and is
bypassed on ``fusion``, and one of the census or the fusion search the other
way round.

A workload is a list of commands.  Each command has an ``id`` (the key of its
expected verdict in ``expected.json``), a ``family`` (the CLI subcommand whose
time it counts towards) and the ``argv`` passed to ``hopfcensus.cli.run``.
The seed draws the fusion-search witnesses, relabels the fusion data that
``fusion-verify --file`` reads, picks the corrupted constant and orders the
commands of each pass.  The program only ever sees the argv and the files.

The fusion data are written here from the group structure alone; nothing in
this module imports ``hopfcensus``.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("fusion", "hopf")

FAMILIES = ("census", "fusion_search", "fusion_verify", "double", "h8_report",
            "twist")

# Oracle sets of the acceptance golden-list censuses (tests/test_acceptance.py).
ORACLE_SETS = {
    54: ("1,2;2,1;4,3", "1,2;3,4;4,1", "1,2;4,1;6,1"),
    56: ("1,4;3,4;4,1", "1,4;4,1;6,1"),
    36: ("1,2;3,2;4,1",),
}

# Types that are feasible at budget 20000 and fit the search basis bound,
# in four strata of four by their search cost on the seed code (cheapest
# first).  One witness is drawn from each stratum, so every seed asks for a
# similar amount of search work.
WITNESS_STRATA = (
    ("1,2;2,1", "1,2;2,1;6,1", "1,2;2,1;3,2", "1,4;4,2"),
    ("1,5;5,1", "1,4;2,1;4,1", "1,4;2,1;4,2", "1,3;2,3;3,1"),
    ("1,6;6,1", "1,6;3,2", "1,8;4,1", "1,7;7,1"),
    ("1,8;4,2", "1,6;3,4", "1,8;2,4", "1,3;3,3"),
)
WITNESS_BUDGET = 20000
RESIDUAL = ("1,2;2,7;3,2", 50000)

# Golden-list censuses as the acceptance test runs them: (dim, rules, n).
GOLDEN_CENSUSES = (
    (60, "R1,R4,R5", 1), (24, "R1-R5", None), (30, "R1-R8", None),
    (42, "R1-R8", None), (40, "all", None), (56, "all", None),
    (54, "all", None), (36, "all", None), (48, "all", None),
)
BIG_CENSUS_DIMS = (192, 216, 240)

# Abelian groups of order 16 by invariant factors; their character rings
# are the group rings of the groups themselves.
ABELIAN_16 = {
    "Z16": (16,), "Z2xZ8": (2, 8), "Z4xZ4": (4, 4), "Z2xZ2xZ4": (2, 2, 4),
    "Z2^4": (2, 2, 2, 2),
}

TWIST_GROUPS = ("D3xD3", "G12", "D4", "G18")


def _cmd(cid, family, argv):
    return {"id": cid, "family": family, "argv": list(argv)}


def _twist(group):
    return _cmd(f"twist-{group}", "twist",
                ["twist", "--group", group, "--subgroup", "auto",
                 "--bicharacter", "nondegenerate", "--check-cocommutative",
                 "--group-likes"])


# -- fusion data ----------------------------------------------------------------

def abelian_ring(orders):
    """Character ring of Z_{m1} x ... x Z_{mk}: N(a, b, c) = [a + b = c]."""
    elems = list(itertools.product(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(elems)}

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, orders))

    def neg(a):
        return tuple((-x) % m for x, m in zip(a, orders))

    constants = [[i, j, index[add(a, b)], 1]
                 for i, a in enumerate(elems) for j, b in enumerate(elems)]
    return {"degrees": [1] * len(elems),
            "dual": [index[neg(a)] for a in elems],
            "constants": constants}


def _ring_from_products(degrees, products):
    """Self-dual ring from a table {(i, j): {k: n}} of products i * j."""
    constants = [[i, j, k, n] for (i, j), prod in sorted(products.items())
                 for k, n in sorted(prod.items())]
    return {"degrees": list(degrees), "dual": list(range(len(degrees))),
            "constants": constants}


def s3_ring():
    """Basis 1, sgn, rho: sgn^2 = 1, sgn rho = rho, rho^2 = 1 + sgn + rho."""
    products = {}
    for i, j in itertools.product(range(3), repeat=2):
        if i == 0 or j == 0:
            products[(i, j)] = {i + j: 1}
        elif i == 1 and j == 1:
            products[(i, j)] = {0: 1}
        elif i == 2 and j == 2:
            products[(i, j)] = {0: 1, 1: 1, 2: 1}
        else:
            products[(i, j)] = {2: 1}
    return _ring_from_products((1, 1, 2), products)


def d4_q8_ring():
    """Basis: four linear characters forming Z2 x Z2 (indices 0-3) and rho.

    D4 and Q8 share this ring: linear * linear is the Z2 x Z2 product,
    linear * rho = rho and rho^2 is the sum of the four linear characters.
    """
    products = {}
    for i, j in itertools.product(range(5), repeat=2):
        if i < 4 and j < 4:
            products[(i, j)] = {i ^ j: 1}
        elif i == 4 and j == 4:
            products[(i, j)] = {0: 1, 1: 1, 2: 1, 3: 1}
        else:
            products[(i, j)] = {4: 1}
    return _ring_from_products((1, 1, 1, 1, 2), products)


def verified_rings():
    rings = {name: abelian_ring(orders) for name, orders in ABELIAN_16.items()}
    rings["S3"] = s3_ring()
    rings["D4"] = d4_q8_ring()
    rings["Q8"] = d4_q8_ring()
    return rings


def relabel(datum, rng):
    """Apply a random permutation to the non-unit basis (the unit stays 0)."""
    r = len(datum["degrees"])
    rest = list(range(1, r))
    rng.shuffle(rest)
    perm = [0] + rest
    degrees = [0] * r
    dual = [0] * r
    for i in range(r):
        degrees[perm[i]] = datum["degrees"][i]
        dual[perm[i]] = perm[datum["dual"][i]]
    constants = sorted([perm[i], perm[j], perm[k], n]
                       for i, j, k, n in datum["constants"])
    return {"degrees": degrees, "dual": dual, "constants": constants}


def corrupt(datum, rng):
    """Raise one constant N(i, j, k) with i, j non-unit by one.

    This breaks the degree homomorphism sum_k N(i, j, k) d_k = d_i d_j, so the
    datum can never pass verification.
    """
    candidates = [idx for idx, (i, j, _, _) in enumerate(datum["constants"])
                  if i != 0 and j != 0]
    pick = rng.choice(candidates)
    constants = [list(c) for c in datum["constants"]]
    constants[pick][3] += 1
    return {**datum, "constants": constants}, tuple(constants[pick][:3])


# -- workloads ------------------------------------------------------------------

def _search_commands(rng):
    commands = [
        _cmd(f"census-oracle-{dim}", "census",
             ["census", "--dim", str(dim), "--rules", "all"]
             + [a for t in types for a in ("--oracle", t)])
        for dim, types in ORACLE_SETS.items()]
    commands += [_cmd(f"refute-1,2;2,1;4,{m}", "fusion_search",
                      ["fusion-search", "--type", f"1,2;2,1;4,{m}"])
                 for m in (1, 2, 3)]
    commands += [_cmd(f"witness-{t}", "fusion_search",
                      ["fusion-search", "--type", t,
                       "--budget", str(WITNESS_BUDGET)])
                 for t in (rng.choice(stratum) for stratum in WITNESS_STRATA)]
    commands.append(_cmd(f"residual-{RESIDUAL[0]}", "fusion_search",
                         ["fusion-search", "--type", RESIDUAL[0],
                          "--budget", str(RESIDUAL[1])]))
    return commands


def _table_commands(rng, workdir):
    commands = [_cmd(f"census-{dim}", "census",
                     ["census", "--dim", str(dim), "--rules", "all"])
                for dim in BIG_CENSUS_DIMS]
    for dim, rules, n in GOLDEN_CENSUSES:
        argv = ["census", "--dim", str(dim), "--rules", rules]
        if n is not None:
            argv += ["--n", str(n)]
        commands.append(_cmd(f"census-golden-{dim}", "census", argv))
    data = {}
    rings = verified_rings()
    for name, datum in rings.items():
        data[f"verify-{name}"] = (relabel(datum, rng), True)
    victim = rng.choice(sorted(rings))
    bad, where = corrupt(data[f"verify-{victim}"][0], rng)
    data["verify-corrupt"] = (bad, False)
    for cid, (datum, _) in data.items():
        path = workdir / f"{cid}.json"
        path.write_text(json.dumps(datum), encoding="utf-8")
        commands.append(_cmd(cid, "fusion_verify",
                             ["fusion-verify", "--file", str(path)]))
    commands += [_cmd(f"double-{g}", "double", ["double", "--group", g])
                 for g in ("D4", "Q8", "S3")]
    return commands, {"data": data,
                      "corrupted": {"datum": victim, "constant": where}}


def build(workload: str, rng: random.Random, workdir: Path):
    """Commands of one pass and the inputs they read, drawn from ``rng``.

    Returns ``(commands, inputs)``; ``inputs["data"]`` maps each generated
    fusion datum's command id to the datum and whether it is valid.
    """
    if workload == "fusion":
        commands = _search_commands(rng)
        tables, inputs = _table_commands(rng, workdir)
        return commands + tables, inputs
    if workload == "hopf":
        return ([_cmd("h8-report", "h8_report", ["h8-report"])]
                + [_twist(g) for g in TWIST_GROUPS]), {}
    raise ValueError(f"unknown workload {workload!r}")
