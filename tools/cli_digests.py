"""Digest the CLI's output on a fixed command set, for differential runs.

Usage: python tools/cli_digests.py SRC OUT

SRC is the ``src`` directory of the tree under test; each command runs in
process through that tree's ``hopfcensus.cli.run``.  OUT gets one line per
command: the sha256 of its stdout, the sha256 of its stdout with every
search node count masked (``"nodes": N``, ``nodes: N`` and ``nodes=N``
read ``#`` for N), its exit code and its argv.  Two trees behave the same
on the set when ``diff`` of their OUT files is empty.  A change that moves
only node counts differs in the first column alone, which
``diff <(cut -d' ' -f2- parent.txt) <(cut -d' ' -f2- change.txt)`` drops.

The set is the following, each argv once, at its first place:
- the six acceptance determinism commands, as JSON and under
  ``--format table``;
- ``census --rules all`` at every dimension 1-240;
- ``census`` at dimensions 120, 192 and 240 under ``--format table``,
  ``--rules R1-R8``, ``--rules R1,R3,R2``, ``--improper`` and ``--n 2``:
  the long runs of eliminations, formed by R2 first, R2 after another
  rule, one degree-1 count and the improper type;
- ``fusion-search --budget 5000`` under both profiles for every R1
  survivor with at most 10 basis elements at dimensions 6-72;
- ``double``, ``fusion-verify --group`` under both profiles and four
  ``twist`` variants (subgroup auto or center, bicharacter trivial or
  nondegenerate) for each built-in group;
- ``twist --group G18 --subgroup auto`` with the bicharacter of zeta_3^k,
  k = 1 or -1, given as JSON objects at conductors 6, 12 and 24: the
  commands whose input descends to a smaller field;
- ``twist --group D3xD3`` on the order-9 subgroup 0,1,2,6,7,8,12,13,14
  with the nondegenerate bicharacter: the one dimension-36 twist at
  conductor 3;
- ``twist --group D3xD3`` on the cyclic order-6 subgroup 0,3,6,9,12,15
  with the trivial bicharacter: a cocycle whose exponent e = 6 is 2 mod 4,
  so its root-of-unity counts are read at conductor 6 and descend to 3;
- one argv for each usage-error family that ``tests/test_cli.py`` pins: an
  unknown group, an unparsable type, unparsable bicharacter JSON, a
  repeated ``--subgroup`` index, indices that are not a subgroup,
  ``--dim 0``, ``--budget 0``, a malformed bicharacter object, and
  ``fusion-verify`` with both ``--file`` and ``--group`` or with neither.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

DETERMINISM_COMMANDS = [
    ["census", "--dim", "54", "--rules", "all", "--oracle", "1,2;2,1;4,3"],
    ["fusion-search", "--type", "1,2;2,1;4,1"],
    ["fusion-verify", "--group", "Q8"],
    ["double", "--group", "D4"],
    ["h8-report"],
    ["twist", "--group", "G12", "--subgroup", "auto",
     "--bicharacter", "nondegenerate", "--check-cocommutative", "--group-likes"],
]

USAGE_ERRORS = [
    ["double", "--group", "nope"],
    ["fusion-search", "--type", "1,2;2,x"],
    ["twist", "--group", "D4", "--subgroup", "auto", "--bicharacter", "{"],
    ["twist", "--group", "D4", "--subgroup", "0,0", "--bicharacter", "trivial"],
    ["twist", "--group", "D4", "--subgroup", "0,1", "--bicharacter", "trivial"],
    ["census", "--dim", "0"],
    ["fusion-search", "--type", "1,2;2,1", "--budget", "0"],
    ["twist", "--group", "D4", "--subgroup", "auto", "--bicharacter",
     '[[{"conductor": 4.9, "coeffs": ["1", "2", 9]}, 1], [1, 1]]'],
    ["fusion-verify", "--file", "datum.json", "--group", "Q8"],
    ["fusion-verify"],
]


# a node count in JSON ("nodes": N), a table line (nodes: N) or a table
# list entry (nodes=N)
_NODES = re.compile(r'(\bnodes"?(?::|=) ?)\d+')


def _zeta3(conductor: int, k: int) -> dict:
    """zeta_3^k, k = 1 or -1, as a CycNumber JSON object at conductor 6, 12
    or 24.  There Phi(x) = x^(2h) - x^h + 1 with h = conductor / 6, and
    zeta_3 = x^(2h), so zeta_3 = x^h - 1 and zeta_3^-1 = -x^h."""
    h = conductor // 6
    coeffs = [0] * (2 * h)
    coeffs[0], coeffs[h] = (-1, 1) if k == 1 else (0, -1)
    return {"conductor": conductor, "coeffs": coeffs}


def commands(census, groups) -> list[list[str]]:
    out = [list(argv) for argv in DETERMINISM_COMMANDS]
    out += [argv + ["--format", "table"] for argv in DETERMINISM_COMMANDS]
    out += [["census", "--dim", str(d), "--rules", "all"]
            for d in range(1, 241)]
    for d in (120, 192, 240):
        base = ["census", "--dim", str(d), "--rules", "all"]
        out += [base + ["--format", "table"], base[:-1] + ["R1-R8"],
                base[:-1] + ["R1,R3,R2"], base + ["--improper"],
                base + ["--n", "2"]]
    for d in range(6, 73):
        for sig in census.enumerate_types(d, "R1").survivors:
            if len(sig.basis_degrees()) <= 10:
                out += [["fusion-search", "--type", str(sig), "--budget",
                         "5000", "--profile", profile]
                        for profile in ("basic", "hopf")]
    for g in groups.BUILTIN_GROUPS:
        out.append(["double", "--group", g])
        out += [["fusion-verify", "--group", g, "--profile", profile]
                for profile in ("basic", "hopf")]
        out += [["twist", "--group", g, "--subgroup", subgroup,
                 "--bicharacter", bichar, "--check-cocommutative",
                 "--group-likes"]
                for subgroup in ("auto", "center")
                for bichar in ("trivial", "nondegenerate")]
    out += [["twist", "--group", "G18", "--subgroup", "auto", "--bicharacter",
             json.dumps([[1, _zeta3(c, k)], [_zeta3(c, -k), 1]]),
             "--check-cocommutative", "--group-likes"]
            for c in (6, 12, 24) for k in (1, -1)]
    out.append(["twist", "--group", "D3xD3", "--subgroup",
                "0,1,2,6,7,8,12,13,14", "--bicharacter", "nondegenerate",
                "--check-cocommutative", "--group-likes"])
    out.append(["twist", "--group", "D3xD3", "--subgroup", "0,3,6,9,12,15",
                "--bicharacter", "trivial", "--check-cocommutative",
                "--group-likes"])
    out += [list(argv) for argv in USAGE_ERRORS]
    # double --group D4 and the G12 twist are determinism commands too
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src, target = argv
    sys.path.insert(0, str(Path(src).resolve()))
    from hopfcensus import census, cli, groups

    with open(target, "w", encoding="utf-8") as out:
        for args in commands(census, groups):
            buf = io.StringIO()
            code = cli.run(args, buf)
            text = buf.getvalue()
            digest, masked = (hashlib.sha256(t.encode()).hexdigest()
                              for t in (text, _NODES.sub(r"\1#", text)))
            out.write(f"{digest} {masked} {code} {shlex.join(args)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
