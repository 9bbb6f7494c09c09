"""Fusion data: axioms, character rings, stabilizers, and the search."""

import copy
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcensus import fusion
from hopfcensus.cyclotomic import _nat_span
from hopfcensus.fusion import (PROFILES, AlgebraTypeSignature, AxiomReport,
                               FusionDatum, FusionError, from_group_characters,
                               search_fusion, verify_fusion_datum)
from hopfcensus.groups import (BUILTIN_GROUPS, FiniteGroup,
                               action_from_generator_images, build_cyclic,
                               build_dihedral, build_product, build_quaternion,
                               build_semidirect, build_symmetric, builtin_group)
from test_groups import metacyclic

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


def complex_fusion_from_character_table(table, class_sizes):
    """Structure constants (1/|G|) sum_C |C| chi_i chi_j conj(chi_k) of a
    complex character table, rounded after a closeness check."""
    t = np.array(table, dtype=complex)
    sizes = np.array(class_sizes)
    n = np.einsum("c,ic,jc,kc->ijk", sizes, t, t, t.conj()) / sizes.sum()
    rounded = np.rint(n.real)
    assert np.allclose(n, rounded)
    return rounded.astype(int).tolist()


W = np.exp(2j * np.pi / 3)
A4_CLASSES = [1, 3, 4, 4]        # 1, double transpositions, two 3-cycle classes
A4_TABLE = [[1, 1, 1, 1], [1, 1, W, W * W], [1, 1, W * W, W], [3, -1, 0, 0]]

F20_CLASSES = [1, 4, 5, 5, 5]    # 1, order 5, a, a^2, a^3 with a of order 4
F20_TABLE = [[1, 1, 1, 1, 1], [1, 1, 1j, -1, -1j], [1, 1, -1, 1, -1],
             [1, 1, -1j, -1, 1j], [4, -1, 0, 0, 0]]


def a4_and_f20():
    k4 = build_product(build_cyclic(2), build_cyclic(2))
    a4 = build_semidirect(k4, build_cyclic(3), action_from_generator_images(
        build_cyclic(3), k4, {1: [0, 3, 1, 2]}))
    f20 = build_semidirect(build_cyclic(5), build_cyclic(4),
                           action_from_generator_images(
                               build_cyclic(4), build_cyclic(5),
                               {1: [0, 2, 4, 1, 3]}))  # x -> 2x
    return [(a4, A4_TABLE, A4_CLASSES), (f20, F20_TABLE, F20_CLASSES)]


# 1, (12), (12)(34), (123), (1234)
S4_CLASSES = [1, 6, 3, 8, 6]
S4_TABLE = [[1, 1, 1, 1, 1], [1, -1, 1, 1, -1], [2, 0, 2, -1, 0],
            [3, 1, -1, 0, -1], [3, -1, -1, 0, 1]]

# 1, r^4, r^+-1, r^+-2, r^+-3, s r^even, s r^odd in the dihedral group of
# order 16; rho_h(r^k) = 2 cos(2 pi h k / 8)
R2 = np.sqrt(2)
D8_CLASSES = [1, 1, 2, 2, 2, 4, 4]
D8_TABLE = [[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1, 1, -1], [1, 1, -1, 1, -1, -1, 1],
            [2, -2, R2, 0, -R2, 0, 0], [2, 2, 0, -2, 0, 0, 0],
            [2, -2, -R2, 0, R2, 0, 0]]

Z2_TABLE, Z2_CLASSES = [[1, 1], [1, -1]], [1, 1]
Z3_TABLE, Z3_CLASSES = [[1, 1, 1], [1, W, W * W], [1, W * W, W]], [1, 1, 1]


def product_table(first, second):
    """The table of G x H from (table, class sizes) of G and of H, rows by
    ascending degree."""
    (t, c), (u, d) = first, second
    rows = sorted(([a * b for a in x for b in y] for x in t for y in u),
                  key=lambda row: abs(row[0]))
    return rows, [a * b for a in c for b in d]


def oracle_groups():
    """Groups with their complex character tables, rows by ascending degree.
    G12 is S3 x Z2, as the product of its two reflections acts trivially,
    and G18 is S3 x Z3."""
    s3 = (S3_TABLE, S3_CLASSES)
    return a4_and_f20() + [
        (build_symmetric(4), S4_TABLE, S4_CLASSES),
        (build_dihedral(8), D8_TABLE, D8_CLASSES),
        (builtin_group("D3xD3"), *product_table(s3, s3)),
        (builtin_group("G12"), *product_table(s3, (Z2_TABLE, Z2_CLASSES))),
        (builtin_group("G18"), *product_table(s3, (Z3_TABLE, Z3_CLASSES)))]


@pytest.mark.parametrize("group, table, classes", oracle_groups())
def test_one_nonlinear_character_ring_matches_complex_table_oracle(
        group, table, classes):
    oracle = complex_fusion_from_character_table(table, classes)
    t = np.array(table, dtype=complex)
    r = len(table)
    oracle_dual = [next(k for k in range(r) if np.allclose(t[k], t[i].conj()))
                   for i in range(r)]
    datum = from_group_characters(group)
    degrees = tuple(int(round(abs(row[0]))) for row in table)
    assert datum.degrees == degrees
    # labelled up to a relabelling within each degree that fixes the unit
    blocks = [[i for i in range(1, r) if degrees[i] == d]
              for d in sorted(set(degrees))]
    relabellings = [(0,) + sum(perms, ()) for perms in
                    itertools.product(*map(itertools.permutations, blocks))]
    assert any(all(datum.constants[i][j][k] == oracle[p[i]][p[j]][p[k]]
                   for i in range(r) for j in range(r) for k in range(r))
               and all(p[datum.dual[i]] == oracle_dual[p[i]] for i in range(r))
               for p in relabellings)
    for profile in PROFILES:
        assert verify_fusion_datum(datum, profile).passed, profile


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_codegrees_of_builtin_character_rings_are_centralizer_orders(name):
    # the formal codegrees, the eigenvalues of sum_i L_i L_i*, are the
    # centralizer orders |C_G(g)|, one per class
    g = builtin_group(name)
    datum = from_group_characters(g)
    left = [sympy.Matrix(datum.size, datum.size,
                         lambda k, j: datum.constants[i][j][k])
            for i in range(datum.size)]
    casimir = sum((left[i] * left[datum.dual[i]] for i in range(datum.size)),
                  sympy.zeros(datum.size))
    x = sympy.Symbol("x")
    orders = [len(g.centralizer(c[0])) for c in g.conjugacy_classes]
    assert casimir.charpoly(x).as_expr() == sympy.expand(
        sympy.prod(x - c for c in orders))


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
    assert AlgebraTypeSignature.from_counts(Counter(datum.degrees)) == \
        P("1,4;2,1")
    # the whole ring, as the shipped order-8 table gave it
    assert datum.to_json() == {
        "degrees": [1, 1, 1, 1, 2], "dual": [0, 1, 2, 3, 4],
        "constants": [
            [0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1], [0, 4, 4, 1],
            [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 3, 1], [1, 3, 2, 1], [1, 4, 4, 1],
            [2, 0, 2, 1], [2, 1, 3, 1], [2, 2, 0, 1], [2, 3, 1, 1], [2, 4, 4, 1],
            [3, 0, 3, 1], [3, 1, 2, 1], [3, 2, 1, 1], [3, 3, 0, 1], [3, 4, 4, 1],
            [4, 0, 4, 1], [4, 1, 4, 1], [4, 2, 4, 1], [4, 3, 4, 1],
            [4, 4, 0, 1], [4, 4, 1, 1], [4, 4, 2, 1], [4, 4, 3, 1]]}


def relabelled(g: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """g with its indices shuffled, so that the identity is rarely 0."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    for a, b in itertools.product(range(g.order), repeat=2):
        table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return FiniteGroup(table, name=f"relabelled {g.name}")


def test_hopf_profile_passes_on_shipped_data():
    groups = [build_cyclic(n) for n in (1, 2, 3, 4, 5, 8, 12, 16)]
    groups += [build_product(build_cyclic(2), build_cyclic(2)),
               build_product(build_cyclic(4), build_cyclic(4)),
               build_symmetric(3), build_dihedral(4), build_quaternion()]
    # the character ring's unit is index 0 wherever the group's identity is
    groups += [relabelled(builtin_group(name), random.Random(1))
               for name in ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8")]
    assert [g.identity for g in groups[-7:]] == [1, 1, 3, 3, 2, 3, 3]
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


def test_every_group_has_a_character_ring():
    # Z15 x| Z4, x -> 2x: |G:G'| = 4, 9 classes and order 60 fit both
    # 1^4 2^2 4^3 and 1^4 2 3^3 5
    for group, degrees in ((build_symmetric(4), (1, 1, 2, 3, 3)),
                           (metacyclic(15, 4, 2), (1,) * 4 + (2,) * 2 + (4,) * 3)):
        datum = from_group_characters(group)
        assert datum.degrees == degrees
        for profile in PROFILES:
            assert verify_fusion_datum(datum, profile).passed, profile


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
            # the block product a*b is one degree-1 element with coefficient 1
            assert all(len(datum.sparse[a][b]) == 1
                       and datum.sparse[a][b][0][1] == 1
                       and datum.sparse[a][b][0][0] in stab
                       for a in stab for b in stab)
            if datum.degrees[i] > 1:
                assert (datum.degrees[i] ** 2) % len(stab) == 0
            assert datum.dual[datum.dual[i]] == i
            assert datum.degrees[datum.dual[i]] == datum.degrees[i]
            assert datum.multiply(i, datum.dual[i])[0] == 1


def test_standard_subalgebras():
    s3 = from_group_characters(build_symmetric(3))
    assert [d for _, d in s3.standard_subalgebras()] == [1, 2, 6]
    z4 = from_group_characters(build_cyclic(4))
    assert [d for _, d in z4.standard_subalgebras()] == [1, 2, 4]
    d4 = from_group_characters(build_dihedral(4))
    assert [d for _, d in d4.standard_subalgebras()] == [1, 2, 2, 2, 4, 8]


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
    assert AlgebraTypeSignature.from_counts(Counter(out.witness.degrees)) == \
        P(typestr)


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


def _reachable_sums(limit, caps):
    """Every sum up to limit of m * d over the (d, cap) pairs, each m in
    0..cap, by enumerating the multiplicity of each pair in turn."""
    sums = {0}
    for d, cap in caps:
        sums = {s + m * d for s in sums for m in range(cap + 1)
                if s + m * d <= limit}
    return sums


@pytest.mark.parametrize("degrees", [(1, 1, 2, 2, 3), (1, 1, 1, 2, 4),
                                     (1, 2, 3, 3), (1, 1, 3, 5, 6)])
def test_reachable_sums_match_brute_force(degrees):
    """``_nat_span`` and ``_Search._subset_sum`` on every mask of the basis:
    a row budget is reachable when the masked entries sum to it, a degree-1
    entry at most once and a nonlinear one any number of times."""
    r = len(degrees)
    search = fusion._Search(degrees, tuple(range(r)), "hopf", 0)
    for mask in range(1 << r):
        chosen = [degrees[k] for k in range(r) if mask >> k & 1]
        nonlinear = [(d, 40 // d) for d in chosen if d > 1]
        for limit in range(41):
            assert _nat_span(limit, [d for d, _ in nonlinear]) == sum(
                1 << s for s in _reachable_sums(limit, nonlinear))
        reachable = _reachable_sums(40, [(d, 1) for d in chosen if d == 1]
                                    + nonlinear)
        for budget in range(41):
            assert search._subset_sum(budget, mask) == (budget in reachable)
        assert not search._subset_sum(-1, mask)


# The duality involutions ``search_fusion`` tries, in the order it tries them.
DUAL_PATTERNS = {
    "1,2;2,7;3,2": [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                    (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9),
                    (0, 1, 3, 2, 4, 5, 6, 7, 8, 9, 10),
                    (0, 1, 3, 2, 4, 5, 6, 7, 8, 10, 9),
                    (0, 1, 3, 2, 5, 4, 6, 7, 8, 9, 10),
                    (0, 1, 3, 2, 5, 4, 6, 7, 8, 10, 9),
                    (0, 1, 3, 2, 5, 4, 7, 6, 8, 9, 10),
                    (0, 1, 3, 2, 5, 4, 7, 6, 8, 10, 9)],
    "1,4;3,4;4,1": [(0, 1, 2, 3, 4, 5, 6, 7, 8),
                    (0, 1, 2, 3, 5, 4, 6, 7, 8),
                    (0, 1, 2, 3, 5, 4, 7, 6, 8),
                    (0, 2, 1, 3, 4, 5, 6, 7, 8),
                    (0, 2, 1, 3, 5, 4, 6, 7, 8),
                    (0, 2, 1, 3, 5, 4, 7, 6, 8)],
    "1,3;3,3": [(0, 1, 2, 3, 4, 5), (0, 1, 2, 4, 3, 5),
                (0, 2, 1, 3, 4, 5), (0, 2, 1, 4, 3, 5)],
}


@pytest.mark.parametrize("typestr", sorted(DUAL_PATTERNS))
def test_dual_patterns_are_pinned(typestr):
    degrees = P(typestr).basis_degrees()
    assert list(fusion._dual_patterns(degrees)) == DUAL_PATTERNS[typestr]


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


# -- the packed associativity kernel against the dict-based one -------------------

def _dict_associativity_defect(rows, x, y, z):
    """The least l at which (x*y)*z and x*(y*z) differ, or None when a row it
    reads is unknown, by summing both sides into a dict: the kernel that the
    packed one replaced."""
    xy, yz = rows[x][y], rows[y][z]
    if xy is None or yz is None:
        return None
    diff = {}
    for t, a in xy:
        if rows[t][z] is None:
            return None
        for l, b in rows[t][z]:
            diff[l] = diff.get(l, 0) + a * b
    for s, a in yz:
        if rows[x][s] is None:
            return None
        for l, b in rows[x][s]:
            diff[l] = diff.get(l, 0) - a * b
    return min((l for l, v in diff.items() if v), default=None)


@st.composite
def kernel_tables(draw, top):
    """Tables of rank <= 5 with constants in 0..top, and a set of rows to
    mark unknown.  Half are drawn entry by entry; the rest are c times the
    group ring of Z_r, which is associative, with up to two entries redrawn."""
    r = draw(st.integers(1, 5))
    cube = list(itertools.product(range(r), repeat=3))
    if draw(st.booleans()):
        values = dict(zip(cube, draw(st.lists(
            st.integers(0, top), min_size=r ** 3, max_size=r ** 3))))
    else:
        c = draw(st.integers(0, top))
        values = {(i, j, k): c * (k == (i + j) % r) for i, j, k in cube}
        for _ in range(draw(st.integers(0, 2))):
            values[draw(st.sampled_from(cube))] = draw(st.integers(0, top))
    constants = [[[values[i, j, k] for k in range(r)] for j in range(r)]
                 for i in range(r)]
    pairs = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    return constants, draw(st.sets(pairs))


@pytest.mark.parametrize("top", [2, 10 ** 6])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_associativity_kernel_matches_the_dict_kernel(top, data):
    """On a datum's ``packed`` view, with some rows unknown, the packed
    kernel gives the dict kernel's None or least l on every triple.
    Constants up to 10^6 make digits of about 2^42, which would overflow a
    fixed 16-bit digit; the datum's ``width`` grows with them."""
    constants, unknown = data.draw(kernel_tables(top))
    r = len(constants)
    datum = FusionDatum([1] * r, list(range(r)), constants)
    rows = [list(plane) for plane in datum.sparse]
    packed = [list(plane) for plane in datum.packed]
    for x, y in unknown:
        rows[x][y] = packed[x][y] = None
    for x, y, z in itertools.product(range(r), repeat=3):
        assert fusion._associativity_defect(rows, packed, datum.width,
                                            x, y, z) == \
            _dict_associativity_defect(rows, x, y, z), (x, y, z)


# (type, status, nodes of the search without symmetry breaking, trace):
# the node count is that of `_relabellings` returning no generator, and
# LEX_NODES holds the count of the real search, the same tree with the
# relabelled copies pruned.  Both are pinned, so a change to propagation
# and a change to the symmetry breaking show apart.
PINNED_SEARCHES = [
    ("1,2;2,1;4,1", "infeasible", 13, "row (1,2) can no longer meet its degree sum"),
    ("1,2;2,1;4,2", "infeasible", 183, "row (1,2) can no longer meet its degree sum"),
    ("1,2;2,1;4,3", "infeasible", 12576,
     "row (1,2) can no longer meet its degree sum"),
    ("1,6;3,2", "feasible", 472, None),
    # refuted by the stabilizer, element-order and closure kernels
    ("1,3;2,1", "infeasible", 10, "closed subset of dimension 2 does not divide 7"),
    ("1,4;3,2", "infeasible", 185, "row (1,2) can no longer meet its degree sum"),
    ("1,4;2,1;3,2", "infeasible", 665,
     "row (1,2) can no longer meet its degree sum"),
    ("1,5;3,1;4,1", "infeasible", 187,
     "row (2,1) can no longer meet its degree sum"),
    # most of its nodes end in a row feasibility test
    ("1,4;3,4;4,1", "infeasible", 5472,
     "row (1,2) can no longer meet its degree sum"),
    # two lex-leader generators wait at one position with different X[p]
    ("1,1;2,4;3,2", "infeasible", 16752, "row (1,1) sums wrong"),
]

LEX_NODES = {"1,2;2,1;4,1": 13, "1,2;2,1;4,2": 131, "1,2;2,1;4,3": 3745,
             "1,6;3,2": 241, "1,3;2,1": 10, "1,4;3,2": 151, "1,4;2,1;3,2": 419,
             "1,5;3,1;4,1": 119, "1,4;3,4;4,1": 2507, "1,1;2,4;3,2": 2178}


@pytest.mark.parametrize("typestr,status,nodes,trace", PINNED_SEARCHES)
def test_search_nodes_and_trace_are_pinned(monkeypatch, typestr, status, nodes,
                                           trace):
    out = search_fusion(P(typestr), "hopf", 10 ** 6)
    assert (out.status, out.nodes, out.trace) == \
        (status, LEX_NODES[typestr], trace)
    monkeypatch.setattr(fusion, "_relabellings", lambda degrees, dual: [])
    out = search_fusion(P(typestr), "hopf", 10 ** 6)
    assert (out.status, out.nodes, out.trace) == (status, nodes, trace)


# -- the search's incremental state against fresh computations ---------------------

def _fills(budget, degrees):
    """Whether budget is a sum of the degrees, each d used at most
    budget // d times and a degree 1 at most once: a set-based subset sum."""
    sums = {0}
    for d in degrees:
        cap = 1 if d == 1 else budget // d
        sums = {s + c * d for s in sums for c in range(cap + 1)
                if s + c * d <= budget}
    return budget in sums


def _position_images(search, sigma):
    """pi with sigma X[p] = X[pi(p)]: the position of the orbit that the
    relabelling sigma maps position p's orbit onto, found by comparing
    whole orbits as sets."""
    orbits = [frozenset(orbit) for *_, orbit, _ in search.order]
    where = {orbit: p for p, orbit in enumerate(orbits)}
    return [where[frozenset((sigma[a], sigma[b], sigma[c]) for a, b, c in orbit)]
            for orbit in orbits]


class _CheckedSearch(fusion._Search):
    """A search that compares its incremental state with a fresh scan of the
    table at every node, and checks that unwinding the whole trail restores
    the state it had right after ``_preassign``.

    The lex-leader state is checked against a rescan of every generator:
    the first position p with pi(p) > p at which X[p] and X[pi(p)] are not
    both set and equal.  Both set there means X[p] < X[pi(p)] and the
    generator waits nowhere; otherwise it waits at pi(p)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.initial = self._state()
        deg = self.deg
        for (i, j, k, orbit, bound), plan, waiting in zip(
                self.order, self.plans, self.waiting, strict=True):
            assert plan[:5] == (self.row_sum[i], j, deg[i] * deg[j], deg[k],
                                bound)
            assert plan[0] is self.row_sum[i]
            for (a, b, c), member in zip(orbit, plan[5], strict=True):
                assert member[:6] == (a, b, c, deg[c], deg[a] * deg[b], 1 << c)
                assert member[6] is self.value[a][b]
                assert member[7] is self.row_sum[a]
                assert member[8] is self.row_mask[a]
            assert plan[6] is waiting
        # each chain is the list of ((p, pi(p)), link) of one generator
        cell = {(id(self.value[i][j]), k): p
                for p, (i, j, k, *_) in enumerate(self.order)}
        self.chains = []
        for q, heads in enumerate(self.waiting):
            for link in heads:
                chain = []
                while link is not None:
                    xs, xk, ys, yk, at, after = link
                    assert cell[id(ys), yk] == at
                    chain.append(((cell[id(xs), xk], at), link))
                    link = after
                assert chain[0][0][1] == q
                self.chains.append(chain)
        expected = []
        for sigma in fusion._relabellings(self.deg, self.dual):
            image = _position_images(self, sigma)
            assert all(image[image[p]] == p for p in range(len(image)))
            pairs = [(p, q) for p, q in enumerate(image) if q > p]
            if pairs:
                expected.append(pairs)
        assert sorted([pair for pair, _ in chain] for chain in self.chains) \
            == sorted(expected)

    def _state(self):
        return (copy.deepcopy(self.value), copy.deepcopy(self.row_sum),
                copy.deepcopy(self.row_mask), copy.deepcopy(self.rows),
                copy.deepcopy(self.packed), copy.deepcopy(self.holders),
                [[id(link) for link in waiting] for waiting in self.waiting],
                list(self.trail))

    def _check_lex_state(self, v=None):
        """At a node that sets the first open position to v, after its lex
        check passed, or at a leaf when v is None."""
        x = [self.value[i][j][k] for i, j, k, *_ in self.order]
        pos = x.index(None) if v is not None else len(x)
        assert all(value is None for value in x[pos:])
        if v is not None:
            x[pos] = v
        expected = []
        for chain in self.chains:
            for (p, q), link in chain:
                if x[q] is None:
                    expected.append(id(link))
                    break
                if x[p] != x[q]:
                    assert x[p] < x[q]
                    break
        live = [id(link) for waiting in self.waiting[pos + 1:]
                for link in waiting]
        assert sorted(live) == sorted(expected)

    def _check_state(self):
        r, value = self.r, self.value
        fresh_holders = [[] for _ in range(r)]
        for x, y in itertools.product(range(r), repeat=2):
            row = value[x][y]
            unassigned = [k for k in range(r) if row[k] is None]
            mask = sum(1 << k for k in unassigned)
            assert self.row_mask[x][y] == mask
            if unassigned:
                assert self.rows[x][y] is None and self.packed[x][y] is None
                budget = self.deg[x] * self.deg[y] - self.row_sum[x][y]
                expected = budget >= 0 and _fills(
                    budget, [self.deg[k] for k in unassigned])
                assert self._subset_sum(budget, mask) == expected
                if budget >= 0:
                    assert self._feasible.get(budget << r | mask,
                                              expected) == expected
            else:
                assert self.rows[x][y] == tuple((k, v) for k, v in enumerate(row) if v)
                assert self.packed[x][y] == sum(
                    v << self.width * k for k, v in self.rows[x][y])
                for k, v in self.rows[x][y]:
                    fresh_holders[k].append((x, y))
        assert [sorted(h) for h in self.holders] == fresh_holders
        # a node is entered only after whole orbits were set; a count of
        # None marks a generator that moved on to wait at a later position
        assert all(count == len(members) for members, count in self.trail
                   if count is not None)

    def _assign(self, members, v):
        self._check_state()
        self._check_lex_state(v)
        return super()._assign(members, v)

    def _leaf(self):
        self._check_state()
        self._check_lex_state()
        return super()._leaf()

    def run(self):
        found = super().run()
        self._undo(0)   # a witness leaves its assignment on the trail
        assert self._state() == self.initial
        return found


@pytest.mark.parametrize("typestr,status,nodes,trace", PINNED_SEARCHES)
def test_incremental_search_state_matches_a_fresh_scan(monkeypatch, typestr,
                                                       status, nodes, trace):
    monkeypatch.setattr(fusion, "_Search", _CheckedSearch)
    out = search_fusion(P(typestr), "hopf", 10 ** 6)
    assert (out.status, out.nodes, out.trace) == \
        (status, LEX_NODES[typestr], trace)


def _largest_digit(rows, x, y, z):
    """The largest coefficient of (x*y)*z and of x*(y*z), or None when a row
    they read is unknown."""
    xy, yz = rows[x][y], rows[y][z]
    if xy is None or yz is None:
        return None
    sides = [[(a, rows[t][z]) for t, a in xy], [(a, rows[x][s]) for s, a in yz]]
    if any(row is None for side in sides for _, row in side):
        return None
    sums = [Counter() for _ in sides]
    for total, side in zip(sums, sides):
        for a, row in side:
            for l, b in row:
                total[l] += a * b
    return max(max(total.values(), default=0) for total in sums)


class _NamedFailureSearch(fusion._Search):
    """A search that, at each associativity trigger, names a failing triple
    as if it were the run's first failure, and checks the verdict and the
    triple against the trigger's candidates scanned in the trigger's order
    by the dict kernel on ``rows`` alone: (a, b, z) by ascending z,
    (x, a, b) by ascending x, then (x, y, b) for each holder (x, y) of a
    and (a, y, z) for each holder (y, z) of b, in ``holders`` order.  The
    trigger skips the candidates that hold the unit, whose rows are
    unknown or that an earlier one repeats; none of them can be the first
    to fail.  It also checks that no coefficient of either side of a
    candidate reaches 2^width, the bound the search's packed rows rely
    on."""

    failures = 0

    def _associativity_around(self, a, b):
        kept, self.first_failure = self.first_failure, None
        passed = super()._associativity_around(a, b)
        named = self.first_failure
        self.first_failure = named if kept is None else kept
        r = self.r
        candidates = [(a, b, z) for z in range(r)]
        candidates += [(x, a, b) for x in range(r)]
        candidates += [(x, y, b) for x, y in self.holders[a]]
        candidates += [(a, y, z) for y, z in self.holders[b]]
        expected = next((f"associativity fails on triple ({x},{y},{z})"
                         for x, y, z in candidates
                         if _dict_associativity_defect(self.rows, x, y, z)
                         is not None), None)
        assert (passed, named) == (expected is None, expected)
        assert all(digit is None or digit < 1 << self.width
                   for digit in (_largest_digit(self.rows, *t)
                                 for t in candidates))
        _NamedFailureSearch.failures += not passed
        return passed


def _named_failure_run(monkeypatch, typestr):
    monkeypatch.setattr(fusion, "_Search", _NamedFailureSearch)
    monkeypatch.setattr(_NamedFailureSearch, "failures", 0)
    out = search_fusion(P(typestr), "hopf", 10 ** 6)
    return out.status, out.nodes, _NamedFailureSearch.failures


@pytest.mark.parametrize("typestr,status,nodes,failures", [
    ("1,4;3,4;4,1", "infeasible", 5472, 126),
    ("1,7;7,1", "feasible", 1545, 12),   # coefficients up to 43
])
def test_associativity_trigger_names_the_dict_kernels_triple(
        monkeypatch, typestr, status, nodes, failures):
    """Associativity is never the first failure of a pinned search, so the
    triple a trace would name is checked here, on every prune.  The search
    runs without lex-leader generators, whose whole tree reaches more
    associativity prunes."""
    monkeypatch.setattr(fusion, "_relabellings", lambda degrees, dual: [])
    assert _named_failure_run(monkeypatch, typestr) == (status, nodes, failures)


@pytest.mark.parametrize("typestr,status,nodes,failures", [
    ("1,4;3,4;4,1", "infeasible", 2507, 37),
    ("1,7;7,1", "feasible", 487, 4),
])
def test_associativity_trigger_names_the_triple_under_lex_leader(
        monkeypatch, typestr, status, nodes, failures):
    assert _named_failure_run(monkeypatch, typestr) == (status, nodes, failures)


@pytest.mark.parametrize("typestr", [t for t, *_ in PINNED_SEARCHES])
def test_relabellings_generate_the_centralizer_of_the_dual(typestr):
    """For every duality pattern, each generator fixes 0, preserves degrees,
    commutes with the dual and is a nontrivial involution, and together
    they generate every such relabelling, found by brute force over the
    permutations of each degree class."""
    degrees = P(typestr).basis_degrees()
    r = len(degrees)
    identity = tuple(range(r))
    for dual in fusion._dual_patterns(degrees):
        gens = fusion._relabellings(degrees, dual)
        for sigma in gens:
            assert sorted(sigma) == list(identity) and sigma != identity
            assert sigma[0] == 0
            assert all(degrees[sigma[i]] == degrees[i] for i in range(r))
            assert all(sigma[dual[i]] == dual[sigma[i]] for i in range(r))
            assert all(sigma[sigma[i]] == i for i in range(r))
        classes = [[i for i in range(1, r) if degrees[i] == d]
                   for d in sorted(set(degrees[1:]))]
        centralizer = set()
        for images in itertools.product(*(itertools.permutations(c)
                                          for c in classes)):
            sigma = list(identity)
            for c, image in zip(classes, images):
                for i, j in zip(c, image):
                    sigma[i] = j
            if all(sigma[dual[i]] == dual[sigma[i]] for i in range(r)):
                centralizer.add(tuple(sigma))
        generated, frontier = {identity}, [identity]
        while frontier:
            tau = frontier.pop()
            for sigma in gens:
                product = tuple(sigma[tau[i]] for i in range(r))
                if product not in generated:
                    generated.add(product)
                    frontier.append(product)
        assert generated == centralizer


@pytest.mark.parametrize("typestr", [t for t, *_ in PINNED_SEARCHES])
def test_unit_orbits_are_filled_whole_and_the_rest_are_open(typestr):
    """The Frobenius orbits partition the entries, ``_preassign`` fills the
    unit rows with their deltas, and ``order`` lists every other entry once,
    unassigned: no orbit is ever partly assigned, so ``_assign`` never meets
    a constant that is already set.  An open orbit with a degree-1 index
    has a bound of at most 1, so no degree-1 constant is offered 2."""
    degrees = P(typestr).basis_degrees()
    r = len(degrees)
    entries = list(itertools.product(range(r), repeat=3))
    for dual in fusion._dual_patterns(degrees):
        search = fusion._Search(degrees, dual, "hopf", 0)
        orbits = {frozenset(search._orbit_of(*e)) for e in entries}
        assert sorted(e for orbit in orbits for e in orbit) == entries
        value = search.value
        for i, j in itertools.product(range(r), repeat=2):
            assert value[0][i][j] == value[i][0][j] == int(i == j)
            assert value[i][j][0] == int(j == dual[i])
        members = [e for *_, orbit, _ in search.order for e in orbit]
        assert sorted(members) == [e for e in entries if 0 not in e]
        assert all(value[i][j][k] is None for i, j, k in members)
        assert all(bound <= 1 for *_, orbit, bound in search.order
                   if any(degrees[x] == 1 for e in orbit for x in e))


# -- the verifier on arbitrary well-shaped data ------------------------------------

@st.composite
def datum_json(draw):
    """Datums of rank <= 5 with small degrees, an optional swapped dual pair
    and constants 0..2; half of them get correct unit rows, so that the
    checks after "unit" see data close to a based ring."""
    r = draw(st.integers(1, 5))
    degrees = draw(st.lists(st.sampled_from((-1, 0, 1, 2, 3)),
                            min_size=r, max_size=r))
    dual = list(range(r))
    if r > 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(1, r - 1), min_size=2, max_size=2,
                             unique=True))
        dual[a], dual[b] = b, a
    values = iter(draw(st.lists(st.integers(0, 2), min_size=r ** 3,
                                max_size=r ** 3)))
    constants = {(i, j, k): next(values)
                 for i in range(r) for j in range(r) for k in range(r)}
    if draw(st.booleans()):
        degrees[0] = 1
        for j in range(r):
            for k in range(r):
                constants[(0, j, k)] = constants[(j, 0, k)] = int(j == k)
    return {"degrees": degrees, "dual": dual,
            "constants": [[i, j, k, v] for (i, j, k), v in constants.items() if v]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(datum_json())
def test_verifier_reports_on_any_well_shaped_datum(data):
    try:
        datum = FusionDatum.from_json(data)
    except FusionError:
        return
    for profile in PROFILES:
        report = verify_fusion_datum(datum, profile)
        assert isinstance(report, AxiomReport)
        checks = {c.axiom: c.detail for c in report.checks}
        if "degree-one-group" in checks:
            assert checks["degree-one-group"] == _degree_one_group_oracle(datum)


def test_verifier_returns_when_powers_miss_the_unit():
    # degree-1 block {0, 1, 2} with 1*1 = 1 and 2*1 = 1: the powers of 1,
    # which stabilizes the degree-2 element 3, never reach the unit
    block = {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2}
    constants = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if i == 0 or j == 0:
                constants[i][j][i + j] = 1
            elif (i, j) in block:
                constants[i][j][block[(i, j)]] = 1
            elif i == j == 3:
                constants[3][3][0] = constants[3][3][1] = constants[3][3][3] = 1
            else:
                constants[i][j][3] = 1
    datum = FusionDatum([1, 1, 1, 2], [0, 1, 2, 3], constants)
    assert fusion._element_order(datum.sparse, 0, 1) is None
    report = verify_fusion_datum(datum, "hopf")
    assert not report.passed
    # right translation by 1 sends 0, 1 and 2 all to 1
    assert {c.axiom for c in report.failures()} == {
        "frobenius-symmetry", "duality", "degree-one-group", "associativity",
        "stabilizer-exponent", "closure-divisibility"}
    checks = {c.axiom: c.detail for c in report.checks}
    assert checks["degree-one-group"] == "degree-1 translation is not a permutation"


# -- the degree-one-group check against a brute-force oracle -----------------------

def _degree_one_group_oracle(datum):
    """The degree-one-group detail, read from the dense constants: the
    degree-1 block must close, then each left and right translation by a
    degree-1 element must be a bijection of the basis."""
    r, deg, n = datum.size, datum.degrees, datum.constants

    def image(row):  # the basis element a one-hot row with coefficient 1 hits
        return row.index(1) if sorted(row) == [0] * (r - 1) + [1] else None

    ones = [g for g in range(r) if deg[g] == 1]
    if any(image(n[g][h]) is None or deg[image(n[g][h])] != 1
           for g in ones for h in ones):
        return "degree-1 elements do not close as a group"
    for g in ones:
        for images in ([image(n[g][i]) for i in range(r)],
                       [image(n[i][g]) for i in range(r)]):
            if None in images or sorted(images) != list(range(r)):
                return "degree-1 translation is not a permutation"
    return ""


def _corrupted(datum, rng):
    """A copy with one defect: a constant moved by +-1, or the targets of two
    rows of one degree-1 translation swapped or made equal."""
    r = datum.size
    constants = [[list(row) for row in plane] for plane in datum.constants]
    kind = rng.choice(("constant", "swap", "copy"))
    if kind == "constant":
        i, j, k = (rng.randrange(r) for _ in range(3))
        constants[i][j][k] = max(0, constants[i][j][k] + rng.choice((-1, 1)))
    else:
        g = rng.choice([i for i in range(r) if datum.degrees[i] == 1])
        x, y = rng.sample(range(r), 2)
        left = rng.random() < 0.5
        get = (lambda t: constants[g][t]) if left else (lambda t: constants[t][g])
        a, b = get(x), get(y)
        if kind == "swap":
            a[:], b[:] = b[:], a[:]
        else:
            a[:] = b
    return FusionDatum(datum.degrees, datum.dual, constants)


def test_degree_one_group_detail_matches_the_oracle_on_corrupted_rings():
    rng = random.Random(13)
    bases = [from_group_characters(g) for g in (
        build_cyclic(3), build_cyclic(4), build_symmetric(3), build_dihedral(4),
        build_quaternion(), build_product(build_cyclic(2), build_cyclic(4)))]
    bases += [search_fusion(P(t), "hopf", 10 ** 5).witness
              for t in ("1,6;3,2", "1,2;2,1;3,2")]
    seen = set()
    for trial in range(240):
        datum = _corrupted(bases[trial % len(bases)], rng)
        expected = _degree_one_group_oracle(datum)
        seen.add(expected)
        for profile in PROFILES:
            checks = {c.axiom: c.detail
                      for c in verify_fusion_datum(datum, profile).checks}
            assert checks["degree-one-group"] == expected
    assert seen == {"", "degree-1 elements do not close as a group",
                    "degree-1 translation is not a permutation"}


def test_translation_defect_texts():
    defect = fusion._translation_defect
    deg = (1, 1, 2, 2)
    hot = [((k, 1),) for k in range(4)]
    # Z2 = {0, 1} and two degree-2 elements; None marks an unknown row
    rows = [[None] * 4 for _ in range(4)]
    for x in range(4):
        rows[0][x] = rows[x][0] = hot[x]
    rows[1][1], rows[1][2], rows[1][3] = hot[0], hot[2], hot[3]
    assert defect(rows, deg, 1, 2) is None
    rows[1][3] = hot[2]
    assert defect(rows, deg, 1, 3) == "left translation by 1 not injective at 2"
    rows[1][2] = None
    assert defect(rows, deg, 1, 3) is None
    rows[2][1] = rows[3][1] = hot[2]
    assert defect(rows, deg, 3, 1) == "right translation by 1 not injective at 2"
    rows[2][1] = None
    assert defect(rows, deg, 3, 1) is None
    for row in (((2, 2),), ((2, 1), (3, 1)), ()):
        rows[3][1] = row
        assert defect(rows, deg, 3, 1) == "degree-1 translate row (3,1) not one-hot"


def sl23_ring(psi_squared=None):
    """The character ring of SL(2, 3): the linear characters 0, 1, 2 form
    Z3, chi_a = omega^a chi_0 (indices 3-5) has degree 2, dual chi_-a and
    chi_a chi_b = omega^(a+b) + psi, and psi (index 6) has degree 3 with
    chi_a psi = psi chi_a = chi_0 + chi_1 + chi_2 and
    psi^2 = 1 + omega + omega^2 + 2 psi, or the row ``psi_squared``."""
    products = {}
    for i, j in itertools.product(range(7), repeat=2):
        if i == j == 6:
            row = psi_squared or {0: 1, 1: 1, 2: 1, 6: 2}
        elif 6 in (i, j):
            row = {6: 1} if min(i, j) < 3 else {3: 1, 4: 1, 5: 1}
        elif i > 2 and j > 2:
            row = {(i + j) % 3: 1, 6: 1}
        else:  # a product with a linear factor keeps the other's degree
            row = {(i + j) % 3 + (3 if max(i, j) > 2 else 0): 1}
        products[(i, j)] = row
    constants = [[[products[(i, j)].get(k, 0) for k in range(7)]
                  for j in range(7)] for i in range(7)]
    return FusionDatum((1, 1, 1, 2, 2, 2, 3), (0, 2, 1, 3, 5, 4, 6), constants)


def test_nichols_richmond_dichotomy_on_sl23():
    """Each chi_a has a trivial stabilizer and chi_a chi_a* = 1 + psi, so
    psi^2 must be the sum of psi's order-3 stabilizer plus 2 psi."""
    report = verify_fusion_datum(sl23_ring(), "hopf")
    assert report.passed, report.failures()
    assert "nr-dichotomy" in {c.axiom for c in report.checks}
    for row in ({0: 1, 1: 1, 2: 1, 6: 1, 3: 1}, {0: 1, 1: 1, 6: 2, 5: 1},
                {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, {0: 3, 6: 2},
                {0: 1, 6: 2}):
        check = fusion._check_nr_dichotomy(sl23_ring(row))
        assert not check.passed
        assert check.detail == \
            "psi_6 does not satisfy psi^2 = (order-3 group) + 2 psi"


# -- one failure text per stabilizer and Nichols-Richmond check --------------------

def _with_row(datum, i, j, row, degrees=None, dual=None):
    """``datum`` with row (i, j) replaced by {k: N_ij^k}, and with
    ``degrees`` and ``dual`` when given: labels past its size have zero
    products."""
    degrees = degrees or datum.degrees
    r = len(degrees)
    constants = [[[datum.n(a, b, c) if max(a, b, c) < datum.size else 0
                   for c in range(r)] for b in range(r)] for a in range(r)]
    constants[i][j] = [row.get(k, 0) for k in range(r)]
    return FusionDatum(degrees, dual or datum.dual, constants)


def _tambara_yamagami_z4():
    """Z4 = {0, 1, 2, 3} and rho (label 4) of degree 2 with g rho = rho g =
    rho and rho^2 = the sum of Z4: G[rho] = Z4 has order 4, which divides
    d^2 = 4, but holds elements of order 4, which does not divide d = 2."""
    constants = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for g, h in itertools.product(range(4), repeat=2):
        constants[g][h][(g + h) % 4] = 1
    for g in range(4):
        constants[g][4][4] = constants[4][g][4] = constants[4][4][g] = 1
    return FusionDatum((1, 1, 1, 1, 2), (0, 3, 2, 1, 4), constants)


SHARED_TEXTS = [
    # rho^2 = 2 rho in D4's ring: no degree-1 element stabilizes rho
    (_with_row(from_group_characters(build_dihedral(4)), 4, 4, {4: 2}), 4,
     "stabilizer-size", "|G[chi_4]| = 0 does not divide 4"),
    (_tambara_yamagami_z4(), 4, "stabilizer-exponent",
     "element 1 of G[chi_4] has order not dividing the degree"),
    # chi_0 chi_0* = 1 + 2 psi in SL(2, 3)'s ring
    (_with_row(sl23_ring(), 3, 3, {0: 1, 6: 2}), 3, "nr-dichotomy",
     "chi_3 has trivial stabilizer but chi chi* is not 1 + psi(3)"),
    # SL(2, 3)'s ring with a degree-3 label 7 dual to psi
    (_with_row(sl23_ring(), 3, 3, {0: 1, 6: 1}, (1, 1, 1, 2, 2, 2, 3, 3),
               (0, 2, 1, 3, 5, 4, 7, 6)), 3, "nr-dichotomy",
     "companion psi_6 is not self-dual"),
]


@pytest.mark.parametrize("datum,i,axiom,detail", SHARED_TEXTS)
def test_verifier_and_search_fail_a_stabilizer_check_with_one_text(
        datum, i, axiom, detail):
    """The verifier's detail for the axiom, and the failure a search on the
    same degrees and dual records when ``_stabilizer_checks`` reads the
    datum's rows, are one text."""
    checks = {c.axiom: c for c in verify_fusion_datum(datum, "hopf").checks}
    assert (checks[axiom].passed, checks[axiom].detail) == (False, detail)
    search = fusion._Search(datum.degrees, datum.dual, "hopf", 0)
    search.rows = [list(plane) for plane in datum.sparse]
    assert not search._stabilizer_checks(i)
    assert search.first_failure == detail
