"""Command-line front end: census runs, fusion searches, Hopf reports, twists.

Every command emits a stable JSON report (sorted keys, fixed ordering)
derived purely from its flags, so identical invocations are byte-identical
regardless of --threads.  Human tables are rendered from the same JSON
payload.  Exit codes: 0 success, 1 negative conclusion (infeasible type or
failed verification), 2 usage error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from hopfcensus import census as census_mod
from hopfcensus import fusion, groups, hopfcore
from hopfcensus.cyclotomic import CycNumber

FUSION_AXIOM_CITATIONS = {
    "degree-homomorphism": "degrees are multiplicative on products of characters",
    "frobenius-symmetry": "Frobenius reciprocity for multiplicities in products",
    "unit": "the trivial character is a two-sided unit",
    "duality": "the unit occurs in chi psi exactly when psi is the dual of chi",
    "group-like-multiplicity": "a degree-1 character occurs in chi chi* at most once",
    "degree-one-group": "degree-1 characters form a group under the product",
    "associativity": "the character ring is associative",
    "stabilizer-size": "Nichols-Zoeller: the stabilizer order divides deg^2",
    "stabilizer-exponent": "stabilizer elements have order dividing the degree",
    "closure-divisibility":
        "Nichols-Zoeller: standard subalgebra dimensions divide the total",
    "nr-dichotomy": "Nichols-Richmond dichotomy for degree-2 characters",
    "well-formed": "structural sanity of unit and duality data",
}

HOPF_AXIOM_CITATIONS = {
    "associativity": "multiplication is associative",
    "unit": "two-sided unit law",
    "coassociativity": "comultiplication is coassociative",
    "counit": "two-sided counit law",
    "bialgebra-compatibility": "comultiplication and counit are algebra maps",
    "antipode": "the antipode is a convolution inverse of the identity",
    "antipode-squared-identity": "the square of the antipode is the identity "
                                 "(holds exactly in the semisimple case)",
    "counit-normalization": "the cocycle is counit-normalized",
    "invertibility": "the cocycle is invertible",
    "cocycle-identity": "the two-sided 2-cocycle identity",
}

CANONICAL_TWIST_SUBGROUPS = {
    "G12": (0, 1, 2, 3),
    "G18": tuple(2 * i for i in range(9)),
    "D3xD3": (0, 3, 18, 21),
    "D4": (0, 2, 4, 6),
    "Z2xZ2": (0, 1, 2, 3),
}


class UsageError(ValueError):
    pass


def _parse_bicharacter(spec: str, orders) -> groups.AltBicharacter:
    if spec == "trivial":
        return groups.AltBicharacter.trivial(orders)
    if spec == "nondegenerate":
        if len(orders) != 2 or orders[0] != orders[1]:
            raise UsageError(
                "the nondegenerate shorthand needs a rank-2 subgroup Z_m x Z_m")
        return groups.AltBicharacter.nondegenerate_rank2(orders[0])
    try:
        matrix = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse bicharacter JSON: {exc}") from None
    values = []
    for row in matrix:
        out_row = []
        for entry in row:
            if isinstance(entry, int):
                out_row.append(CycNumber.from_rational(entry))
            elif isinstance(entry, list) and len(entry) == 2:
                out_row.append(CycNumber.root_of_unity(entry[0], entry[1]))
            elif isinstance(entry, dict):
                out_row.append(CycNumber.from_json(entry))
            else:
                raise UsageError(f"bad bicharacter entry {entry!r}")
        values.append(tuple(out_row))
    return groups.AltBicharacter(tuple(orders), tuple(values))


def _parse_subgroup(spec: str, group_name: str, g: groups.FiniteGroup):
    if spec in ("auto", "Gamma"):
        if group_name not in CANONICAL_TWIST_SUBGROUPS:
            raise UsageError(
                f"no canonical twist subgroup for {group_name!r}; pass indices")
        return CANONICAL_TWIST_SUBGROUPS[group_name]
    if spec == "center":
        return g.center
    try:
        subgroup = tuple(sorted(int(x) for x in spec.split(",")))
    except ValueError:
        raise UsageError(f"cannot parse subgroup spec {spec!r}") from None
    if not all(0 <= x < g.order for x in subgroup):
        raise UsageError(f"subgroup indices {spec!r} are outside "
                         f"0..{g.order - 1} for {group_name}")
    if not g.is_subgroup(subgroup):
        raise UsageError(f"indices {spec!r} do not form a subgroup of "
                         f"{group_name}")
    return subgroup


# -- command implementations --------------------------------------------------

def _cmd_census(args) -> tuple[dict, list[str], int]:
    rules = census_mod.parse_rules(args.rules)
    oracle_types = list(args.oracle or [])
    result = census_mod.enumerate_types(
        args.dim, rules, proper_only=not args.improper, n_filter=args.n,
        oracle_types="all" if oracle_types == ["all"] else oracle_types,
        oracle_budget=args.budget)
    citations = [f"{r.id}: {r.citation}" for r in rules]
    return result.to_json(), citations, 0


def _cmd_fusion_search(args) -> tuple[dict, list[str], int]:
    sig = fusion.AlgebraTypeSignature.parse(args.type)
    outcome = fusion.search_fusion(sig, args.profile, args.budget)
    payload = {"type": str(sig), "profile": args.profile, **outcome.to_json()}
    citations = [f"{a}: {c}" for a, c in sorted(FUSION_AXIOM_CITATIONS.items())
                 if args.profile == "hopf" or a not in
                 ("stabilizer-size", "stabilizer-exponent",
                  "closure-divisibility", "nr-dichotomy")]
    code = {"feasible": 0, "infeasible": 1, "inconclusive": 3}[outcome.status]
    return payload, citations, code


def _cmd_fusion_verify(args) -> tuple[dict, list[str], int]:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            datum = fusion.FusionDatum.from_json(json.load(fh))
        source = args.file
    elif args.group:
        datum = fusion.from_group_characters(groups.builtin_group(args.group))
        source = args.group
    else:
        raise UsageError("fusion-verify needs --file or --group")
    report = fusion.verify_fusion_datum(datum, args.profile)
    payload = {"source": source, "profile": args.profile, **report.to_json()}
    citations = [f"{c.axiom}: {FUSION_AXIOM_CITATIONS[c.axiom]}"
                 for c in report.checks]
    return payload, citations, 0 if report.passed else 1


def _cmd_double(args) -> tuple[dict, list[str], int]:
    g = groups.builtin_group(args.group)
    sig = hopfcore.drinfeld_double_group_type(g)
    payload = {"group": args.group, "order": g.order, "type": str(sig),
               "dimension": g.order ** 2}
    citations = ["double types: irreducibles of the double are indexed by a "
                 "conjugacy class and a centralizer irreducible, of dimension "
                 "class size times centralizer degree"]
    return payload, citations, 0


def _cmd_h8_report(args) -> tuple[dict, list[str], int]:
    h8 = hopfcore.build_h8()
    report = hopfcore.verify_hopf_axioms(h8)
    glikes = hopfcore.group_like_elements(h8)
    chars = hopfcore.algebra_characters(h8, generators=[1, 2, 4])
    yd = hopfcore.yd_one_dim_pairs(h8)
    central = hopfcore.central_group_likes(h8)

    def vec_name(v):
        support = [h8.labels[i] for i, c in enumerate(v) if c]
        return "+".join(support) if len(support) == 1 else repr(v)

    payload = {
        "axioms": report.to_json(),
        "group_likes": sorted(vec_name(v) for v in glikes),
        "central_group_likes": sorted(vec_name(v) for v in central),
        "characters": [{"x": str(c(1)), "y": str(c(2)), "z": str(c(4))}
                       for c in chars],
        "yd_pair_count": len(yd.pairs),
        "yd_group_invariant_factors": list(yd.invariant_factors or ()),
        "cocommutative": hopfcore.is_cocommutative(h8),
    }
    citations = [f"{a}: {c}" for a, c in sorted(HOPF_AXIOM_CITATIONS.items())
                 if a in {ch.axiom for ch in report.checks}]
    return payload, citations, 0 if report.passed else 1


def _cmd_twist(args) -> tuple[dict, list[str], int]:
    g = groups.builtin_group(args.group)
    subgroup = _parse_subgroup(args.subgroup, args.group, g)
    sub_group, _ = g.subgroup_as_group(subgroup)
    decomp = groups.abelian_decomposition(sub_group)
    bichar = _parse_bicharacter(args.bicharacter, decomp.orders)
    twist = hopfcore.build_lifted_twist(g, subgroup, bichar)
    kg = hopfcore.from_group(g)
    twist_report = hopfcore.verify_twist(kg, twist)
    payload: dict = {
        "group": args.group,
        "subgroup": list(subgroup),
        "subgroup_invariants": list(decomp.orders),
        "twist_checks": twist_report.to_json(),
    }
    exit_code = 0 if twist_report.passed else 1
    if twist_report.passed:
        twisted = hopfcore.twist_hopf(kg, twist, verify=False)
        axioms = hopfcore.verify_hopf_axioms(twisted)
        payload["twisted_axioms"] = axioms.to_json()
        if not axioms.passed:
            exit_code = 1
        if args.check_cocommutative:
            payload["cocommutative"] = hopfcore.is_cocommutative(twisted)
            if g.is_normal(subgroup):
                payload["cocommutativity_criterion"] = \
                    hopfcore.cocommutativity_criterion(g, subgroup, bichar)
        if args.group_likes:
            surviving = hopfcore.surviving_group_likes(g, twist)
            payload["surviving_group_likes"] = list(surviving)
            payload["surviving_group_like_count"] = len(surviving)
            payload["group_like_note"] = (
                "group-likes supported on the group basis; candidates outside "
                "it are not recomputed here")
    citations = [f"{a}: {c}" for a, c in sorted(HOPF_AXIOM_CITATIONS.items())]
    return payload, citations, exit_code


# -- dispatch -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--threads", type=int, default=0,
                        help="worker hint; never affects output")
    common.add_argument("--budget", type=int, default=10 ** 7,
                        help="node limit for fusion searches")
    parser = argparse.ArgumentParser(
        prog="hopfcensus", parents=[common],
        description="exact census and verification tools for low-dimensional "
                    "semisimple Hopf algebra types")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("census", help="enumerate algebra types at a dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rules", default="all")
    p.add_argument("--oracle", action="append",
                   help="run the fusion oracle on this surviving type "
                        "(repeatable; 'all' for every survivor)")
    p.add_argument("--n", type=int, default=None,
                   help="restrict to one degree-1 count")
    p.add_argument("--improper", action="store_true",
                   help="include the cocommutative signature")
    p.set_defaults(func=_cmd_census)

    p = add_parser("fusion-search", help="feasibility of a type signature")
    p.add_argument("--type", required=True)
    p.add_argument("--profile", choices=fusion.PROFILES, default="hopf")
    p.set_defaults(func=_cmd_fusion_search)

    p = add_parser("fusion-verify", help="verify a fusion datum")
    p.add_argument("--file", help="path to a fusion datum JSON file")
    p.add_argument("--group", help="verify the character ring of a built-in group")
    p.add_argument("--profile", choices=fusion.PROFILES, default="hopf")
    p.set_defaults(func=_cmd_fusion_verify)

    p = add_parser("double", help="algebra type of a group's Drinfeld double")
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_double)

    p = add_parser("h8-report", help="full report on the 8-dimensional "
                                         "nontrivial semisimple Hopf algebra")
    p.set_defaults(func=_cmd_h8_report)

    p = add_parser("twist", help="build and check a lifted cocycle twist")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True,
                   help="comma indices, 'auto'/'Gamma' for the canonical "
                        "subgroup, or 'center'")
    p.add_argument("--bicharacter", required=True,
                   help="'trivial', 'nondegenerate', or a JSON matrix")
    p.add_argument("--check-cocommutative", action="store_true")
    p.add_argument("--group-likes", action="store_true")
    p.set_defaults(func=_cmd_twist)
    return parser


def _render_table(payload: dict, out) -> None:
    def write_item(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            for k in sorted(value):
                write_item(k, value[k], indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            out.write(f"{pad}{key}:\n")
            for entry in value:
                out.write(f"{pad}  - " + ", ".join(
                    f"{k}={entry[k]}" for k in sorted(entry)) + "\n")
        elif isinstance(value, list):
            out.write(f"{pad}{key}: " + ", ".join(str(v) for v in value) + "\n")
        else:
            out.write(f"{pad}{key}: {value}\n")

    for key in sorted(payload):
        write_item(key, payload[key])


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "threads", "format", "command")
             and v is not None}
    try:
        payload, citations, code = args.func(args)
    except (UsageError, fusion.FusionError, census_mod.CensusError,
            groups.GroupError, hopfcore.HopfError, OSError,
            json.JSONDecodeError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    report = {"command": args.command, "flags": flags,
              "results": payload, "citations": citations}
    if args.format == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        _render_table(report, out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
