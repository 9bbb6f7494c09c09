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
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a UsageError, so that ``run``
    reports it on stdout like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _int_from(low: int):
    """An argparse type: an integer of at least ``low``.

    The check runs while the option is parsed, so it holds wherever the
    option stands on the command line.
    """
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


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
    if not (isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)):
        raise UsageError("a bicharacter matrix must be a JSON list of rows")
    values = tuple(tuple(_bicharacter_entry(entry) for entry in row)
                   for row in matrix)
    return groups.AltBicharacter(tuple(orders), values)


def _bicharacter_entry(entry) -> CycNumber:
    """An integer, [n, k] for zeta_n^k, or a CycNumber's JSON object.  The
    integers are tested by ``type``: isinstance takes true and false too."""
    try:
        if type(entry) is int:
            return CycNumber.from_rational(entry)
        if isinstance(entry, list) and len(entry) == 2 \
                and all(type(x) is int for x in entry):
            return CycNumber.root_of_unity(entry[0], entry[1])
        if isinstance(entry, dict):
            return CycNumber.from_json(entry)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad bicharacter entry {entry!r}: {exc}") from None
    raise UsageError(f"bad bicharacter entry {entry!r}")


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
    if len(set(subgroup)) < len(subgroup):
        raise UsageError(f"subgroup spec {spec!r} repeats an index")
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
    result = census_mod.enumerate_types(
        args.dim, rules, proper_only=not args.improper, n_filter=args.n,
        oracle_types=args.oracle or (), oracle_budget=args.budget)
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
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            datum = fusion.FusionDatum.from_json(json.load(fh))
        source = args.file
    else:
        datum = fusion.from_group_characters(groups.builtin_group(args.group))
        source = args.group
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
    chars = hopfcore.algebra_characters(h8)
    yd = hopfcore.yd_one_dim_pairs(h8, glikes, chars)
    central = hopfcore.central_group_likes(h8, glikes)

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

def _common_options(defaults: bool) -> argparse.ArgumentParser:
    """The options every command takes.  Only the top-level copy carries
    defaults: a subcommand's copy sets an option only when it is given, so
    the option may stand on either side of the subcommand."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"),
                        default=default("json"))
    common.add_argument("--threads", type=_int_from(0), default=default(0),
                        help="worker hint; never affects output")
    common.add_argument("--budget", type=_int_from(1), default=default(10 ** 7),
                        help="node limit for fusion searches")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfcensus", parents=[_common_options(defaults=True)],
        description="exact census and verification tools for low-dimensional "
                    "semisimple Hopf algebra types")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options(defaults=False)

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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="path to a fusion datum JSON file")
    source.add_argument("--group",
                        help="verify the character ring of a built-in group")
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


def _write_json(value, out, indent: str = "") -> None:
    """Write ``value`` to ``out`` as ``json.dumps(value, sort_keys=True,
    indent=2)`` would, a piece at a time.  Dict keys must be strings.

    ``indent`` is the indentation of the line ``value`` starts on.  A list
    of named tuples, such as census eliminations, is written by
    ``_write_rows`` as the list of their dicts.
    """
    if isinstance(value, str):
        out.write(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        inner = indent + "  "
        sep = "{\n"
        for key, item in sorted(value.items()):
            out.write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(item, out, inner)
            sep = ",\n"
        out.write(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.write("[]")
        elif hasattr(value[0], "_fields"):
            _write_rows(value, out, indent)
        else:
            inner = indent + "  "
            sep = "[\n"
            for item in value:
                out.write(sep + inner)
                _write_json(item, out, inner)
                sep = ",\n"
            out.write(f"\n{indent}]")
    else:
        out.write(json.dumps(value))


def _write_rows(rows, out, indent: str) -> None:
    """Write ``rows``, named tuples of one type with string fields, as the
    list of their dicts.  Each row's encoded values fill one ``%`` layout of
    the sorted field names, so no dict is built, and the rows go out in
    writes of about 2,048 characters: each write ends with the row that
    takes it past that size.
    """
    fields = rows[0]._fields
    inner = indent + "  "
    keys = sorted(fields)
    form = "{\n" + ",\n".join(f"{inner}  {encode_basestring_ascii(k)}: %s"
                               for k in keys) + f"\n{inner}}}"
    pick = itemgetter(*map(fields.index, keys))
    sep, comma = "[\n" + inner, ",\n" + inner
    chunk, size = [], 0
    for row in rows:
        text = form % tuple(map(encode_basestring_ascii, pick(row)))
        chunk.append(text)
        size += len(text)
        if size >= 2048:
            out.write(sep + comma.join(chunk))
            sep, chunk, size = comma, [], 0
    if chunk:
        out.write(sep + comma.join(chunk))
    out.write(f"\n{indent}]")


def _render_table(payload: dict, out) -> None:
    def write_item(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            for k in sorted(value):
                write_item(k, value[k], indent + 1)
        elif isinstance(value, list) and value and (
                isinstance(value[0], dict) or hasattr(value[0], "_fields")):
            out.write(f"{pad}{key}:\n")
            for entry in value:
                if not isinstance(entry, dict):     # a named tuple
                    entry = entry._asdict()
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
    try:
        args = build_parser().parse_args(argv)
        payload, citations, code = args.func(args)
    except SystemExit as exc:   # --help
        return 2 if exc.code else 0
    except (ValueError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "threads", "format", "command")
             and v is not None}
    report = {"command": args.command, "flags": flags,
              "results": payload, "citations": citations}
    try:
        if args.format == "json":
            _write_json(report, out)
            out.write("\n")
        else:
            _render_table(report, out)
        out.flush()
    except BrokenPipeError:
        # The reader left early (``| head``): drop the rest of the report
        # and point the stream at devnull, so that the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
