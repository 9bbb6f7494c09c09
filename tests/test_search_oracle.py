"""Brute-force verdict oracle for ``search_fusion`` on the smallest types.

For every type with at most 4 basis elements and nonlinear degrees in
{2, 3}, the oracle tries every degree-preserving duality that fixes the
unit, closes the r^3 entries into orbits under the two Frobenius maps,
gives each orbit every value in its static range and keeps the tables
whose row sums are right.  A type is feasible when one of those tables
passes ``verify_fusion_datum``.  Nothing here uses the search's own
duality patterns, orbits or variable order.

``1,1;3,3`` is left out: its product over orbits is too large to run.
"""

import itertools
from collections import Counter

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

