"""Brute-force verdict oracle for ``search_fusion`` on the smallest types.

For every type with at most 4 basis elements and nonlinear degrees in
{2, 3}, the oracle tries every degree-preserving duality that fixes the
unit, closes the r^3 entries into orbits under the two Frobenius maps,
gives each orbit every value in its static range and keeps the tables
whose row sums are right.  A type is feasible when one of those tables
passes ``verify_fusion_datum``.  Nothing here uses the search's own
duality patterns, orbits or variable order.

``1,1;3,3`` is left out: its product over orbits is too large to run.

The search's lex-leader constraints are checked differentially, against
the same search with no generator, which explores every relabelled copy
of a table.
"""

import itertools
from collections import Counter

import pytest

from hopfcensus import census, fusion
from hopfcensus.fusion import (PROFILES, AlgebraTypeSignature, FusionDatum,
                               search_fusion, verify_fusion_datum)

SIGNATURES = [
    AlgebraTypeSignature(n, tuple((d, m) for d, m in ((2, m2), (3, m3)) if m))
    for n in range(1, 5) for m2 in range(4) for m3 in range(4)
    if n + m2 + m3 <= 4 and (n, m2, m3) != (1, 0, 3)
]


def _dualities(degrees):
    """Every involution of the basis that fixes 0 and preserves degrees."""
    r = len(degrees)

    def extend(i, dual):
        if i == r:
            yield tuple(dual)
        elif dual[i] is not None:
            yield from extend(i + 1, dual)
        else:
            for j in [i] + [j for j in range(i + 1, r) if i and dual[j] is None
                            and degrees[j] == degrees[i]]:
                dual[i], dual[j] = j, i
                yield from extend(i + 1, dual)
                dual[i] = dual[j] = None

    yield from extend(0, [None] * r)


def _frobenius_orbits(r, dual):
    """The entries closed under (i,j,k) -> (j,k*,i*) and (i,j,k) -> (k,j*,i),
    by breadth-first search from each entry not yet reached."""
    reached, orbits = set(), []
    for start in itertools.product(range(r), repeat=3):
        if start in reached:
            continue
        reached.add(start)
        orbit, queue = [], [start]
        while queue:
            i, j, k = entry = queue.pop(0)
            orbit.append(entry)
            for image in ((j, dual[k], dual[i]), (k, dual[j], i)):
                if image not in reached:
                    reached.add(image)
                    queue.append(image)
        orbits.append(orbit)
    return orbits


def _tables(degrees, dual):
    """Every table constant on the orbits, each orbit valued within
    min d_a d_b // d_c over its members, whose row sums are right.

    A row whose partial sum already overshoots, or that is full with the
    wrong sum, is dropped as soon as it shows; since no value is negative,
    this keeps exactly the tables a filter after the product would keep.
    """
    r = len(degrees)
    orbits = _frobenius_orbits(r, dual)
    ranges = [min(degrees[a] * degrees[b] // degrees[c] for a, b, c in orbit)
              for orbit in orbits]
    constants = [[[0] * r for _ in range(r)] for _ in range(r)]
    row_sum = [[0] * r for _ in range(r)]
    row_left = [[r] * r for _ in range(r)]

    def fill(pos):
        if pos == len(orbits):
            yield constants
            return
        orbit = orbits[pos]
        for v in range(ranges[pos] + 1):
            for a, b, c in orbit:
                constants[a][b][c] = v
                row_sum[a][b] += v * degrees[c]
                row_left[a][b] -= 1
            if all(row_sum[a][b] <= degrees[a] * degrees[b]
                   and (row_left[a][b] or row_sum[a][b] == degrees[a] * degrees[b])
                   for a, b, _ in orbit):
                yield from fill(pos + 1)
            for a, b, c in orbit:
                constants[a][b][c] = 0
                row_sum[a][b] -= v * degrees[c]
                row_left[a][b] += 1

    yield from fill(0)


def _brute_force_feasible(signature, profile):
    degrees = signature.basis_degrees()
    return any(verify_fusion_datum(FusionDatum(degrees, dual, constants),
                                   profile).passed
               for dual in _dualities(degrees)
               for constants in _tables(degrees, dual))


def test_search_verdicts_match_the_brute_force_oracle():
    verdicts = Counter()
    for signature in SIGNATURES:
        for profile in PROFILES:
            feasible = _brute_force_feasible(signature, profile)
            outcome = search_fusion(signature, profile, 10 ** 6)
            assert outcome.status == ("feasible" if feasible else "infeasible"), \
                (str(signature), profile)
            verdicts[outcome.status] += 1
    # 19 types under 2 profiles; an oracle that found no table would read
    # all "infeasible"
    assert verdicts == {"feasible": 15, "infeasible": 23}


def _unbroken(signature, profile, budget):
    """The search with no lex-leader generator."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fusion, "_relabellings", lambda degrees, dual: [])
        return search_fusion(signature, profile, budget)


def _witness(outcome):
    return outcome.witness and outcome.witness.to_json()


def test_lex_leader_search_keeps_every_verdict_and_witness():
    """Breaking the relabelling symmetry changes no status, witness or
    trace and never adds a node.  Where the unbroken search runs out of
    budget and the broken one decides, the unbroken one is run again at
    10^6 nodes and must reach the same verdict.

    The cases: the brute-force types above and the pinned searches at 10^6
    nodes, and every R1 survivor with at most 8 basis elements at
    dimensions 6-30 at 20,000 nodes, under both profiles."""
    from test_fusion import PINNED_SEARCHES

    cases = [(sig, profile, 10 ** 6) for sig in SIGNATURES
             for profile in PROFILES]
    cases += [(AlgebraTypeSignature.parse(t), "hopf", 10 ** 6)
              for t, *_ in PINNED_SEARCHES]
    cases += [(sig, profile, 20000) for d in range(6, 31)
              for sig in census.enumerate_types(d, "R1").survivors
              if len(sig.basis_degrees()) <= 8 for profile in PROFILES]
    decided = []
    for signature, profile, budget in cases:
        broken = search_fusion(signature, profile, budget)
        plain = _unbroken(signature, profile, budget)
        assert broken.nodes <= plain.nodes, (str(signature), profile)
        if plain.status == "inconclusive" != broken.status:
            decided.append((str(signature), profile, broken.status))
            plain = _unbroken(signature, profile, 10 ** 6)
        assert (broken.status, broken.trace, _witness(broken)) == \
            (plain.status, plain.trace, _witness(plain)), (str(signature), profile)
    assert len(cases) == 2 * len(SIGNATURES) + len(PINNED_SEARCHES) + 206
    assert decided == [("1,4;2,3;3,1", "basic", "infeasible"),
                       ("1,2;2,4;3,1", "basic", "infeasible")]
