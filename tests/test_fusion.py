"""Fusion data: axioms, character rings, stabilizers, orbits, and the search."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hopfcensus.fusion import (AlgebraTypeSignature, FusionDatum, FusionError,
                               InconsistentOrbitDataError,
                               UnsupportedGroupError, from_group_characters,
                               quotient_coalgebra_type, search_fusion,
                               verify_fusion_datum)
from hopfcensus.groups import (build_cyclic, build_dihedral, build_product,
                               build_quaternion, build_symmetric)

P = AlgebraTypeSignature.parse


# -- independent fusion oracle from classical character tables -----------------

def fusion_from_character_table(table, class_sizes):
    """Structure constants by pointwise multiplication and inner products.

    ``table[i]`` lists the values of the i-th irreducible character on the
    conjugacy classes; entries here are plain Fractions/ints, which is exact
    for the rational-valued tables used below.
    """
    order = sum(class_sizes)
    r = len(table)

    def inner(u, v):
        total = sum(Fraction(s) * a * b for s, a, b in zip(class_sizes, u, v))
        assert total % order == 0 or (total / order).denominator == 1
        return int(Fraction(total, order))

    constants = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            prod = [a * b for a, b in zip(table[i], table[j])]
            for k in range(r):
                constants[i][j][k] = inner(prod, table[k])
    return constants


S3_CLASSES = [1, 3, 2]           # identity, transpositions, 3-cycles
S3_TABLE = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]

D4_CLASSES = [1, 1, 2, 2, 2]     # 1, r^2, {r, r^3}, {s, r^2 s}, {rs, r^3 s}
D4_TABLE = [[1, 1, 1, 1, 1], [1, 1, 1, -1, -1], [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1], [2, -2, 0, 0, 0]]


def test_s3_character_ring_matches_table_oracle():
    oracle = fusion_from_character_table(S3_TABLE, S3_CLASSES)
    datum = from_group_characters(build_symmetric(3))
    assert [list(map(list, plane)) for plane in datum.constants] == oracle
    assert datum.multiply(2, 2) == (1, 1, 1)  # chi^2 = 1 + sgn + chi


def test_d4_character_ring_matches_table_oracle():
    oracle = fusion_from_character_table(D4_TABLE, D4_CLASSES)
    datum = from_group_characters(build_dihedral(4))
    # the degree-1 block ordering may differ from the table's; compare the
    # invariant parts: chi^2 row and the stabilizer structure
    assert list(datum.multiply(4, 4)) == [1, 1, 1, 1, 0]
    assert oracle[4][4] == [1, 1, 1, 1, 0]
    assert datum.signature() == P("1,4;2,1")


def test_hopf_profile_passes_on_shipped_data():
    groups = [build_cyclic(n) for n in (1, 2, 3, 4, 5, 8, 12, 16)]
    groups += [build_product(build_cyclic(2), build_cyclic(2)),
               build_product(build_cyclic(4), build_cyclic(4)),
               build_symmetric(3), build_dihedral(4), build_quaternion()]
    for g in groups:
        report = verify_fusion_datum(from_group_characters(g), "hopf")
        assert report.passed, (g.name, report.failures())


def test_constructed_duality_violation_is_reported():
    datum = from_group_characters(build_symmetric(3))
    broken = [list(map(list, plane)) for plane in datum.constants]
    broken[2][2][0] = 2  # chi chi* picks up the unit twice
    report = verify_fusion_datum(FusionDatum(datum.degrees, datum.dual, broken))
    failed = {c.axiom for c in report.failures()}
    assert "duality" in failed


def test_unsupported_group():
    with pytest.raises(UnsupportedGroupError):
        from_group_characters(build_symmetric(4))


def test_left_stabilizers():
    s3 = from_group_characters(build_symmetric(3))
    assert s3.left_stabilizer(2) == (0, 1)
    d4 = from_group_characters(build_dihedral(4))
    assert d4.left_stabilizer(4) == (0, 1, 2, 3)
    assert s3.left_stabilizer(1) == (0,)  # a degree-1 element: only the unit


def test_stabilizer_group_properties():
    for datum in (from_group_characters(build_symmetric(3)),
                  from_group_characters(build_dihedral(4)),
                  from_group_characters(build_quaternion())):
        for i in range(datum.size):
            stab = datum.left_stabilizer(i)
            prod = datum.group_product
            assert all(prod[(a, b)] in stab for a in stab for b in stab)
            if datum.degrees[i] > 1:
                assert (datum.degrees[i] ** 2) % len(stab) == 0
            assert datum.dual[datum.dual[i]] == i
            assert datum.degrees[datum.dual[i]] == datum.degrees[i]
            assert datum.multiply(i, datum.dual[i])[0] == 1


def test_biaction_orbits():
    s3 = from_group_characters(build_symmetric(3))
    rep = s3.biaction_orbits(2)
    assert len(rep.orbits) == 1
    assert rep.orbits[0].members == (2,)
    assert len(rep.orbits[0].stabilizer) == 4
    assert rep.prop_pq == "vacuous"

    d4 = from_group_characters(build_dihedral(4))
    rep = d4.biaction_orbits(2)
    assert len(rep.orbits) == 1
    assert len(rep.orbits[0].stabilizer) == 16

    z4 = from_group_characters(build_cyclic(4))
    assert z4.biaction_orbits(2).orbits == ()
    assert z4.biaction_orbits(2).prop_pq == "vacuous"


def test_standard_subalgebras():
    s3 = from_group_characters(build_symmetric(3))
    assert [d for _, d in s3.standard_subalgebras()] == [1, 2, 6]
    z4 = from_group_characters(build_cyclic(4))
    assert [d for _, d in z4.standard_subalgebras()] == [1, 2, 4]
    d4 = from_group_characters(build_dihedral(4))
    assert [d for _, d in d4.standard_subalgebras()] == [1, 2, 2, 2, 4, 8]


def test_quotient_end_dim():
    s3 = from_group_characters(build_symmetric(3))
    assert s3.quotient_end_dim((0, 1), 2) == 2
    assert s3.quotient_end_dim((0,), 2) == 1
    d4 = from_group_characters(build_dihedral(4))
    assert d4.quotient_end_dim((0, 1, 2, 3), 4) == 4


def test_quotient_coalgebra_type():
    # order-4 group acting on the 8-dimensional algebra of type (1,4;2,1):
    # one free orbit on the four group-likes, the 4-dim component stabilized
    assert quotient_coalgebra_type(P("1,4;2,1"), [(1, 4, 1), (4, 1, 4)]) == (1, 1)
    # trivial group: type unchanged
    assert quotient_coalgebra_type(P("1,4;2,1"),
                                   [(1, 1, 1)] * 4 + [(4, 1, 1)]) == (1, 1, 1, 1, 4)
    # six group-likes in two free orbits of size 3
    assert quotient_coalgebra_type(P("1,6"), [(1, 3, 1), (1, 3, 1)]) == (1, 1)
    with pytest.raises(InconsistentOrbitDataError):
        quotient_coalgebra_type(P("1,6"), [(1, 3, 1), (1, 2, 1)])
    with pytest.raises(InconsistentOrbitDataError):
        quotient_coalgebra_type(P("1,6"), [(1, 3, 1)])


def test_signature_parsing_and_total():
    sig = P("1,2;2,1;4,3")
    assert sig.total == 2 + 4 + 48
    assert str(sig) == "1,2;2,1;4,3"
    assert P("1,2;4,3;2,1") == sig  # entry order is canonicalized
    with pytest.raises(FusionError):
        P("2,1;1,2")
    with pytest.raises(FusionError):
        AlgebraTypeSignature(1, ((2, 1), (2, 2)))


def test_search_feasible_witness_agrees_with_verify():
    out = search_fusion(P("1,2;2,1"), "hopf", 10 ** 5)
    assert out.status == "feasible"
    assert verify_fusion_datum(out.witness, "hopf").passed
    s3 = from_group_characters(build_symmetric(3))
    assert out.witness.constants == s3.constants

    out = search_fusion(P("1,4;2,1"), "hopf", 10 ** 5)
    assert out.status == "feasible"
    assert verify_fusion_datum(out.witness, "hopf").passed
    assert out.witness.multiply(4, 4) == (1, 1, 1, 1, 0)


def test_search_infeasible_basics():
    out = search_fusion(P("1,2;2,1;4,1"), "hopf", 10 ** 6)
    assert out.status == "infeasible"
    assert out.trace


@pytest.mark.parametrize("typestr", [
    "1,4;2,1;4,1",   # feasible as a fusion ring even though no Hopf algebra
                     # of this type exists; its exclusion needs more structure
    "1,8;4,1",
    "1,2;2,1;3,2",   # the character ring shape of the symmetric group on 4
    "1,6;3,2",
])
def test_search_finds_witnesses_that_verify(typestr):
    out = search_fusion(P(typestr), "hopf", 2 * 10 ** 6)
    assert out.status == "feasible"
    assert verify_fusion_datum(out.witness, "hopf").passed
    assert out.witness.signature() == P(typestr)


def test_search_outcome_is_deterministic():
    a = search_fusion(P("1,2;2,1;4,2"), "hopf", 10 ** 6)
    b = search_fusion(P("1,2;2,1;4,2"), "hopf", 10 ** 6)
    assert a.to_json() == b.to_json()


def test_search_is_label_order_independent():
    a = search_fusion(P("1,2;3,4;4,1"), "hopf", 10 ** 6)
    b = search_fusion(P("1,2;4,1;3,4"), "hopf", 10 ** 6)
    assert a.status == b.status == "infeasible"


def test_search_budget_exhaustion():
    out = search_fusion(P("1,2;2,4;3,2"), "hopf", 500)
    assert out.status == "inconclusive"
    assert out.nodes >= 500


def test_search_basis_cap():
    with pytest.raises(FusionError):
        search_fusion(P("1,16;2,4;4,1"), "hopf", 100)


def test_fusion_datum_json_roundtrip():
    datum = from_group_characters(build_dihedral(4))
    again = FusionDatum.from_json(datum.to_json())
    assert again.constants == datum.constants
    assert again.degrees == datum.degrees
    assert again.dual == datum.dual


# -- the sparse associativity kernel against a dense reference -------------------

def _first_associativity_failure(constants):
    """Dense reference: the lexicographically first (i, j, k, l) at which
    sum_t N(i,j,t) N(t,k,l) and sum_t N(j,k,t) N(i,t,l) differ."""
    n = np.array(constants, dtype=np.int64)
    lhs = np.einsum("ijt,tkl->ijkl", n, n)
    rhs = np.einsum("jkt,itl->ijkl", n, n)
    bad = np.argwhere(lhs != rhs)
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def _relabeled(datum, rng):
    r = datum.size
    rest = list(range(1, r))
    rng.shuffle(rest)
    perm = [0] + rest
    degrees, dual = [0] * r, [0] * r
    constants = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        degrees[perm[i]] = datum.degrees[i]
        dual[perm[i]] = perm[datum.dual[i]]
        for j in range(r):
            for k in range(r):
                constants[perm[i]][perm[j]][perm[k]] = datum.constants[i][j][k]
    return degrees, dual, constants


@pytest.mark.parametrize("group", [
    build_symmetric(3), build_dihedral(4), build_cyclic(4),
    build_product(build_product(build_cyclic(2), build_cyclic(2)),
                  build_product(build_cyclic(2), build_cyclic(2))),
], ids=["S3", "D4", "Z4", "Z2^4"])
def test_associativity_detail_matches_dense_reference(group):
    rng = random.Random(group.order)
    base = from_group_characters(group)
    r = base.size
    for trial in range(8):
        degrees, dual, constants = _relabeled(base, rng)
        # corrupt one or two constants of non-unit products; trial 0 stays valid
        for _ in range(trial and trial % 2 + 1):
            i, j, k = rng.randrange(1, r), rng.randrange(1, r), rng.randrange(r)
            step = rng.choice((-1, 1)) if constants[i][j][k] else 1
            constants[i][j][k] += step
        datum = FusionDatum(degrees, dual, constants)
        for profile in ("basic", "hopf"):
            check = next(c for c in verify_fusion_datum(datum, profile).checks
                         if c.axiom == "associativity")
            expected = _first_associativity_failure(constants)
            assert check.passed == (expected is None)
            assert check.detail == ("" if expected is None
                                    else f"associativity fails at {expected}")


@pytest.mark.parametrize("typestr,status,nodes,trace", [
    ("1,2;2,1;4,1", "infeasible", 13, "row (1,2) can no longer meet its degree sum"),
    ("1,2;2,1;4,2", "infeasible", 183, "row (1,2) can no longer meet its degree sum"),
    ("1,2;2,1;4,3", "infeasible", 12576,
     "row (1,2) can no longer meet its degree sum"),
    ("1,6;3,2", "feasible", 472, None),
])
def test_search_nodes_and_trace_are_pinned(typestr, status, nodes, trace):
    out = search_fusion(P(typestr), "hopf", 10 ** 6)
    assert (out.status, out.nodes, out.trace) == (status, nodes, trace)
