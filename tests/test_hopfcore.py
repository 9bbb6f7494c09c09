"""Hopf-algebra layer: axioms, the dimension-8 algebra, doubles, twists."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from hopfcensus.cyclotomic import (MAX_CONDUCTOR, ConductorLimitError,
                                   CycNumber, _canonical_conductor, _dense,
                                   _from_numerators, _powers)
from hopfcensus.fusion import AlgebraTypeSignature
from hopfcensus.groups import (BUILTIN_GROUPS, AltBicharacter,
                               abelian_decomposition,
                               action_from_generator_images, build_cyclic,
                               build_dihedral, build_product, build_quaternion,
                               build_semidirect, build_symmetric, builtin_group)
from hopfcensus.hopfcore import (CharacterFunctional,
                                 GeneratorsDoNotSpanError, HopfData,
                                 LinearBasis, NotAbelianSubgroupError,
                                 NotNormalError, TwistElement,
                                 TwistInvalidError, ZERO, ONE,
                                 _abelian_subgroup, _generator_rows,
                                 _root_candidates,
                                 algebra_characters, build_h8, build_lifted_twist,
                                 central_group_likes, character_convolution,
                                 cocommutativity_criterion,
                                 drinfeld_double_group_type, dual, from_group,
                                 group_like_elements, hit_left, hit_right,
                                 is_cocommutative, minimal_polynomial,
                                 surviving_group_likes, twist_hopf,
                                 verify_hopf_axioms, verify_twist,
                                 yd_one_dim_pairs)
from test_hopfcore_reference import antipode_of, from_json, to_json

vkey = CycNumber.sort_key


def vec_key(v):
    return tuple(c.sort_key() for c in v)


def basis_vec(dim, i):
    return tuple(ONE if t == i else ZERO for t in range(dim))


# -- group algebras and duals ----------------------------------------------------

@pytest.mark.parametrize("build", [lambda: build_cyclic(2),
                                   lambda: build_symmetric(3),
                                   lambda: build_dihedral(4),
                                   lambda: build_quaternion()])
def test_group_algebra_axioms(build):
    g = build()
    h = from_group(g)
    report = verify_hopf_axioms(h)
    assert report.passed, report.failures()
    assert is_cocommutative(h)
    hd = dual(h)
    assert verify_hopf_axioms(hd).passed
    dd = dual(hd)
    assert dd.mult == h.mult and dd.comult == h.comult
    assert dd.unit == h.unit and dd.counit == h.counit
    assert dd.antipode == h.antipode


def test_dual_of_ks3_has_two_group_likes():
    hd = dual(from_group(build_symmetric(3)))
    assert len(group_like_elements(hd)) == 2
    assert len(algebra_characters(hd)) == 6  # points of the function algebra


def test_group_likes_of_group_algebra():
    for g in (build_cyclic(4), build_symmetric(3)):
        h = from_group(g)
        glikes = group_like_elements(h)
        expected = [basis_vec(g.order, i) for i in range(g.order)]
        assert sorted(glikes, key=vec_key) == sorted(expected, key=vec_key)


def test_group_like_count_divides_dimension():
    for h in (from_group(build_symmetric(3)), dual(from_group(build_symmetric(3))),
              build_h8(), from_group(build_quaternion())):
        assert h.dim % len(group_like_elements(h)) == 0


def test_group_likes_scale_to_order_18():
    g18 = builtin_group("G18")
    assert len(group_like_elements(from_group(g18))) == 18
    assert len(algebra_characters(dual(from_group(g18)))) == 18


def test_hopf_data_json_roundtrip():
    import json
    g = builtin_group("G12")
    tw = build_lifted_twist(g, (0, 1, 2, 3), AltBicharacter.nondegenerate_rank2(2))
    twisted = twist_hopf(from_group(g), tw, verify=False)
    for h in (build_h8(), twisted):
        again = from_json(json.loads(json.dumps(to_json(h))))
        assert again.mult == h.mult and again.comult == h.comult
        assert again.unit == h.unit and again.counit == h.counit
        assert again.antipode == h.antipode and again.labels == h.labels


# -- the 8-dimensional nontrivial semisimple Hopf algebra -------------------------

@pytest.fixture(scope="module")
def h8():
    return build_h8()


def test_h8_axioms(h8):
    report = verify_hopf_axioms(h8)
    assert report.passed, report.failures()


def test_h8_z_has_order_four(h8):
    z = h8.basis_vector(4)
    zsq = h8.vec_mul(z, z)
    half = CycNumber.from_rational(1) / 2
    assert zsq == (half, half, half, -half, ZERO, ZERO, ZERO, ZERO)
    assert h8.vec_mul(zsq, zsq) == h8.unit


def test_h8_is_noncommutative_and_noncocommutative(h8):
    x, z = h8.basis_vector(1), h8.basis_vector(4)
    assert h8.vec_mul(z, x) != h8.vec_mul(x, z)
    assert h8.vec_mul(z, x) == h8.vec_mul(h8.basis_vector(2), z)  # zx = yz
    assert not is_cocommutative(h8)


def test_h8_group_likes(h8):
    glikes = group_like_elements(h8)
    expected = [basis_vec(8, i) for i in range(4)]
    assert sorted(glikes, key=vec_key) == sorted(expected, key=vec_key)


def test_h8_characters(h8):
    chars = algebra_characters(h8, generators=[1, 2, 4])
    assert len(chars) == 4
    i = CycNumber.root_of_unity(4, 1)
    minus = CycNumber.from_rational(-1)
    seen = set()
    for c in chars:
        assert c(1) == c(2)  # eta(x) = eta(y), forced by zx = yz
        assert c(4) ** 2 == c(1)  # eta(z)^2 = eta(x), from the z^2 relation
        seen.add((c(1), c(4)))
    assert seen == {(ONE, ONE), (ONE, minus), (minus, i), (minus, -i)}


def test_h8_broken_comultiplication_fails_bialgebra(h8):
    comult = [dict(e) for e in h8.comult]
    comult[4] = {(4, 4): ONE}  # pretend z were group-like
    broken = HopfData(h8.labels, h8.mult, h8.unit, comult, h8.counit, h8.antipode)
    report = verify_hopf_axioms(broken)
    assert not report.passed
    assert "bialgebra-compatibility" in {c.axiom for c in report.failures()}


def test_h8_central_group_likes(h8):
    central = central_group_likes(h8, group_like_elements(h8))
    expected = [basis_vec(8, 0), basis_vec(8, 3)]  # 1 and xy
    assert sorted(central, key=vec_key) == sorted(expected, key=vec_key)


def test_h8_minimal_polynomial_of_z(h8):
    pol = minimal_polynomial(h8, h8.basis_vector(4))
    # z^4 = 1 and no smaller relation: t^4 - 1
    assert pol == [CycNumber.from_rational(-1), ZERO, ZERO, ZERO, ONE]


# -- hit actions -----------------------------------------------------------------

def test_hit_identities(h8):
    counit = CharacterFunctional(h8.counit)
    for i in range(h8.dim):
        v = h8.basis_vector(i)
        assert hit_left(counit, v, h8) == v
        assert hit_right(v, counit, h8) == v


def test_hit_on_group_algebra_scales_by_character_value():
    g = build_cyclic(4)
    h = from_group(g)
    chars = algebra_characters(h)
    for eta in chars:
        for i in range(4):
            v = h.basis_vector(i)
            assert hit_left(eta, v, h) == tuple(eta.values[i] * c for c in v)
            assert hit_right(v, eta, h) == tuple(eta.values[i] * c for c in v)


def test_hit_left_closed_form_on_z(h8):
    half = CycNumber.from_rational(1) / 2
    for eta in algebra_characters(h8, generators=[1, 2, 4]):
        got = hit_left(eta, h8.basis_vector(4), h8)
        cz = half * (ONE + eta.values[1]) * eta.values[4]
        cyz = half * (ONE - eta.values[1]) * eta.values[4]
        expected = tuple(cz if i == 4 else (cyz if i == 6 else ZERO)
                         for i in range(8))
        assert got == expected


def test_hit_composition_is_the_convolution_action(h8):
    chars = algebra_characters(h8, generators=[1, 2, 4])
    a, b = chars[0], chars[1]
    ab = character_convolution(h8, a, b)
    for i in range(h8.dim):
        v = h8.basis_vector(i)
        assert hit_left(a, hit_left(b, v, h8), h8) == hit_left(ab, v, h8)


# -- one-dimensional Yetter-Drinfeld pairs ----------------------------------------

def test_yd_pairs_h8(h8):
    report = yd_one_dim_pairs(h8)
    assert len(report.pairs) == 8
    assert report.invariant_factors == (2, 2, 2)
    assert all(report.group.element_order(t) <= 2
               for t in range(report.group.order))
    # central group-likes pair with central characters, noncentral with
    # noncentral: exactly {1,xy} x {eta(x)=1}  union  {x,y} x {eta(x)=-1}
    for g, eta in report.pairs:
        gi = next(i for i, c in enumerate(g) if c)
        central_g = gi in (0, 3)
        central_eta = eta.values[1] == ONE
        assert central_g == central_eta


def test_yd_pairs_group_algebras():
    s3 = from_group(build_symmetric(3))
    report = yd_one_dim_pairs(s3)
    assert len(report.pairs) == 2
    for g, eta in report.pairs:
        assert g == s3.unit  # only the central group element survives
    z3 = from_group(build_cyclic(3))
    assert len(yd_one_dim_pairs(z3).pairs) == 9
    q8 = from_group(build_quaternion())
    rep = yd_one_dim_pairs(q8)
    assert len(rep.pairs) == len(q8_center := build_quaternion().center) * 4
    assert len(rep.pairs) == 8


# -- Drinfeld double types ---------------------------------------------------------

def brute_force_s3_double_type():
    """Independent oracle: explicit permutation arithmetic for S3."""
    perms = list(itertools.permutations(range(3)))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inverse(p):
        out = [0] * 3
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    classes = []
    seen = set()
    for p in perms:
        if p in seen:
            continue
        orbit = {compose(compose(g, p), inverse(g)) for g in perms}
        seen |= orbit
        classes.append(sorted(orbit))
    dims = []
    for cls in classes:
        rep = cls[0]
        centralizer = [g for g in perms if compose(g, rep) == compose(rep, g)]
        # degrees of abelian centralizers are all 1; S3 itself has 1,1,2
        if len(centralizer) == 6:
            degs = [1, 1, 2]
        else:
            degs = [1] * len(centralizer)
        for d in degs:
            dims.append(len(cls) * d)
    counts = {}
    for d in dims:
        counts[d] = counts.get(d, 0) + 1
    n = counts.pop(1, 0)
    return AlgebraTypeSignature(n, tuple(sorted(counts.items())))


def test_double_types():
    assert str(drinfeld_double_group_type(build_dihedral(4))) == "1,8;2,14"
    assert str(drinfeld_double_group_type(build_quaternion())) == "1,8;2,14"
    assert str(drinfeld_double_group_type(build_cyclic(2))) == "1,4"
    oracle = brute_force_s3_double_type()
    assert str(oracle) == "1,2;2,4;3,2"
    assert drinfeld_double_group_type(build_symmetric(3)) == oracle


def test_double_type_invariants():
    for build in (build_symmetric(3), build_dihedral(4), build_quaternion(),
                  builtin_group("G12")):
        sig = drinfeld_double_group_type(build)
        total = sig.n + sum(m * d * d for d, m in sig.entries)
        assert total == build.order ** 2
        yd = yd_one_dim_pairs(from_group(build))
        assert sig.n == len(yd.pairs)


# -- cocycle twists ----------------------------------------------------------------

NONDEG2 = AltBicharacter.nondegenerate_rank2(2)
NONDEG3 = AltBicharacter.nondegenerate_rank2(3)
G12_GAMMA = (0, 1, 2, 3)
G18_GAMMA = tuple(2 * i for i in range(9))
D3D3_A = (0, 3, 18, 21)
D3D3_A9 = (0, 1, 2, 6, 7, 8, 12, 13, 14)  # Z3 x Z3


def test_trivial_twist_is_identity():
    g = builtin_group("G12")
    tw = build_lifted_twist(g, G12_GAMMA, AltBicharacter.trivial((2, 2)))
    kg = from_group(g)
    assert verify_twist(kg, tw).passed
    twisted = twist_hopf(kg, tw)
    assert twisted.comult == kg.comult
    assert is_cocommutative(twisted)
    assert surviving_group_likes(g, tw) == tuple(range(12))


def test_g12_twist():
    g = builtin_group("G12")
    tw = build_lifted_twist(g, G12_GAMMA, NONDEG2)
    kg = from_group(g)
    assert verify_twist(kg, tw).passed
    twisted = twist_hopf(kg, tw)  # full axiom re-verification built in
    assert not is_cocommutative(twisted)
    assert surviving_group_likes(g, tw) == G12_GAMMA


def test_g18_criterion_agrees_with_direct_computation():
    g = builtin_group("G18")
    assert cocommutativity_criterion(g, G18_GAMMA, NONDEG3) is False
    tw = build_lifted_twist(g, G18_GAMMA, NONDEG3)
    twisted = twist_hopf(from_group(g), tw, verify=False)
    assert is_cocommutative(twisted) is False
    assert cocommutativity_criterion(g, G18_GAMMA,
                                     AltBicharacter.trivial((3, 3))) is True


def test_d3xd3_twist():
    g = builtin_group("D3xD3")
    tw = build_lifted_twist(g, D3D3_A, NONDEG2)
    kg = from_group(g)
    assert verify_twist(kg, tw).passed
    twisted = twist_hopf(kg, tw, verify=False)
    assert not is_cocommutative(twisted)
    survivors = surviving_group_likes(g, tw)
    assert len(survivors) == 4
    assert survivors == D3D3_A


def test_central_group_likes_survive_twisting():
    g = builtin_group("G12")
    tw = build_lifted_twist(g, G12_GAMMA, NONDEG2)
    twisted = twist_hopf(from_group(g), tw, verify=False)
    central = central_group_likes(twisted, group_like_elements(twisted))
    names = {next(i for i, c in enumerate(v) if c) for v in central}
    assert set(g.center) <= names
    # the center also survives as group-likes of the twist
    assert set(g.center) <= set(surviving_group_likes(g, tw))


def test_central_group_likes_of_group_algebra():
    for g in (build_dihedral(4), build_quaternion(), builtin_group("G18")):
        h = from_group(g)
        central = central_group_likes(h, group_like_elements(h))
        names = sorted(next(i for i, c in enumerate(v) if c) for v in central)
        assert tuple(names) == g.center


def _rescaled(h, s):
    """h on the basis e'_k = s e_k: the same Hopf algebra, with products
    s m, unit u / s, coproducts Delta / s, counit s eps and the antipode
    unchanged."""
    return HopfData(h.labels,
                    [[{k: s * c for k, c in row} for row in plane]
                     for plane in h.mult],
                    [c / s for c in h.unit],
                    [{key: c / s for key, c in entry.items()}
                     for entry in h.comult],
                    [s * c for c in h.counit], h.antipode)


def test_twist_forms_meet_at_the_common_conductor():
    # kG18 on e'_k = s e_k, s = 2i/3, and its zeta_3 twist at conductor 3.
    # The constants of the first have conductor 4, and products and counit
    # carry the denominator 3, unit and coproducts the denominator 2, so
    # each scaled comparison multiplies in a denominator.  Both integral
    # forms are built again at conductor 12.  As e_a (x) e_b is
    # e'_a (x) e'_b / s^2, the twist and its inverse are divided by s^2.
    g = builtin_group("G18")
    s = CycNumber.root_of_unity(4, 1) * Fraction(2, 3)
    h = _rescaled(from_group(g), s)
    built = build_lifted_twist(g, G18_GAMMA, NONDEG3)
    tw = TwistElement(built.dim,
                      {key: c / (s * s) for key, c in built.value.items()},
                      {key: c / (s * s) for key, c in built.inverse.items()})
    assert verify_hopf_axioms(h).passed and verify_twist(h, tw).passed
    twisted = twist_hopf(h, tw)  # verifies the result's axioms
    assert list(twisted.comult) == [
        h.tensor_mul(h.tensor_mul(tw.value, middle), tw.inverse)
        for middle in h.comult]
    assert not is_cocommutative(twisted)


def test_twist_errors():
    g = builtin_group("G12")
    with pytest.raises(NotNormalError):
        cocommutativity_criterion(g, G12_GAMMA, NONDEG2)  # Gamma is not normal
    with pytest.raises(Exception):
        build_lifted_twist(g, (0, 1, 2), NONDEG2)  # not a subgroup
    tw = build_lifted_twist(g, G12_GAMMA, NONDEG2)
    assert list(tw.value) == sorted(tw.value)
    assert list(tw.inverse) == sorted(tw.inverse)
    # corrupt one coefficient: the cocycle identity must fail and twisting
    # must refuse
    first = next(iter(tw.value))
    bad_value = {**tw.value, first: tw.value[first] * CycNumber.from_rational(2)}
    bad = TwistElement(tw.dim, bad_value, tw.inverse)
    report = verify_twist(from_group(g), bad)
    assert not report.passed
    with pytest.raises(TwistInvalidError):
        twist_hopf(from_group(g), bad)


@pytest.mark.parametrize("subgroup", [(0, 0), (0, 2, 2)])
def test_a_repeated_subgroup_index_reads_as_a_set(subgroup):
    """Both the subgroup test and the standalone subgroup read the indices
    as a set, so a repeat meets the invariants check, not a broken table."""
    d4 = builtin_group("D4")
    assert d4.subgroup_as_group(subgroup)[0].order == len(set(subgroup))
    with pytest.raises(NotAbelianSubgroupError, match="invariants"):
        _abelian_subgroup(d4, subgroup, NONDEG2)


def klein_in_d4():
    return (0, 2, 4, 6)  # 1, r^2, s, r^2 s


def build_a4():
    k4 = build_product(build_cyclic(2), build_cyclic(2))
    act = action_from_generator_images(build_cyclic(3), k4, {1: [0, 3, 1, 2]})
    return build_semidirect(k4, build_cyclic(3), act), \
        tuple(sorted(i * 3 for i in range(4)))


def build_z2z2z4_z2():
    """(Z2 x Z2 x Z4) x| Z2 of order 32, Z2 acting by (a, b, c) -> (b, a,
    c + 2a + 2b), with its normal subgroup Z2 x Z2 x Z4 (the even indices).
    The action mixes the order-2 and order-4 factors, so the criterion's
    m_j / m_i scaling changes its verdict here."""
    n = build_product(build_product(build_cyclic(2), build_cyclic(2)),
                      build_cyclic(4))
    swap = (0, 1, 2, 3, 10, 11, 8, 9, 6, 7, 4, 5, 12, 13, 14, 15)
    return build_semidirect(n, build_cyclic(2), (tuple(range(16)), swap)), \
        tuple(range(0, 32, 2))


def signs_224(b01, b02, b12):
    """The bicharacter on Z2 x Z2 x Z4 with the given values +-1 above the
    diagonal."""
    v = {1: ONE, -1: -ONE}
    return AltBicharacter((2, 2, 4), ((ONE, v[b01], v[b02]),
                                      (v[b01], ONE, v[b12]),
                                      (v[b02], v[b12], ONE)))


CROSS_VALIDATION_TRIPLES = [
    ("Z2xZ2 itself", lambda: (builtin_group("Z2xZ2"), (0, 1, 2, 3), NONDEG2)),
    ("D4 Klein", lambda: (build_dihedral(4), klein_in_d4(), NONDEG2)),
    ("D4 Klein trivial", lambda: (build_dihedral(4), klein_in_d4(),
                                  AltBicharacter.trivial((2, 2)))),
    ("A4 Klein", lambda: (*build_a4(), NONDEG2)),
    ("Z3xZ3 itself", lambda: (build_product(build_cyclic(3), build_cyclic(3)),
                              tuple(range(9)), NONDEG3)),
    ("G18 Gamma", lambda: (builtin_group("G18"), G18_GAMMA, NONDEG3)),
    ("G18 Gamma trivial", lambda: (builtin_group("G18"), G18_GAMMA,
                                   AltBicharacter.trivial((3, 3)))),
    ("Z2xZ2xZ4:Z2 B01", lambda: (*build_z2z2z4_z2(), signs_224(-1, 1, 1))),
    ("Z2xZ2xZ4:Z2 B01 B12", lambda: (*build_z2z2z4_z2(),
                                     signs_224(-1, 1, -1))),
]


@pytest.mark.parametrize("name,make", CROSS_VALIDATION_TRIPLES)
def test_criterion_cross_validation(name, make):
    g, subgroup, bichar = make()
    assert g.is_normal(subgroup)
    predicted = cocommutativity_criterion(g, subgroup, bichar)
    tw = build_lifted_twist(g, subgroup, bichar)
    twisted = twist_hopf(from_group(g), tw, verify=False)
    assert is_cocommutative(twisted) == predicted, name


def normal_abelian_subgroups(g):
    """Every normal abelian subgroup, grown one element at a time from the
    trivial one by brute force over the table."""
    found, frontier = set(), [(g.identity,)]
    while frontier:
        sub = frontier.pop()
        if sub in found:
            continue
        found.add(sub)
        frontier += [g.subgroup_closure(sub + (x,)) for x in range(g.order)
                     if x not in sub]
    return sorted(s for s in found if g.is_normal(s)
                  and all(g.table[a][b] == g.table[b][a] for a in s for b in s))


def alternating_bicharacters(orders):
    """Every alternating bicharacter on Z_m1 x ... x Z_mk: a root of unity
    of order dividing gcd(m_i, m_j) above the diagonal, its inverse below."""
    k = len(orders)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    gcds = [math.gcd(orders[i], orders[j]) for i, j in pairs]
    for exps in itertools.product(*[range(m) for m in gcds]):
        values = [[ONE] * k for _ in range(k)]
        for (i, j), m, t in zip(pairs, gcds, exps):
            values[i][j] = CycNumber.root_of_unity(m, t)
            values[j][i] = CycNumber.root_of_unity(m, -t)
        yield AltBicharacter(orders, tuple(map(tuple, values)))


def test_group_likes_split_a_quadratic_minimal_polynomial():
    # The D4 Klein twist: in its dual, t(t^2 - t + 1/2) has the roots
    # (1 +- i)/2, found from the discriminant -1 = (1 * i)^2.  The twisted
    # algebra is cocommutative, so it is a group algebra with 8 group-likes.
    h = _twisted("D4", (0, 2, 4, 6), NONDEG2)
    assert is_cocommutative(h)
    glikes = group_like_elements(h)
    assert len(glikes) == h.dim
    basis = LinearBasis(h.dim)
    for v in glikes:
        delta = {}
        for i, a in enumerate(v):
            for key, c in h.comult[i].items():
                delta[key] = delta.get(key, ZERO) + a * c
        assert {k: c for k, c in delta.items() if c} == \
            {(j, k): a * b for j, a in enumerate(v) for k, b in enumerate(v)
             if a and b}
        assert sum((a * e for a, e in zip(v, h.counit)), ZERO) == ONE
        assert basis.add(v)
    assert basis.rank == h.dim


def test_criterion_matches_direct_cocommutativity_everywhere():
    # every built-in group and A4: 46 triples, False only at orders 18 and 36
    outcomes = {}
    for g in [builtin_group(name) for name in BUILTIN_GROUPS] + [build_a4()[0]]:
        kg = from_group(g)
        for subgroup in normal_abelian_subgroups(g):
            a_group = g.subgroup_as_group(subgroup)[0]
            for bichar in alternating_bicharacters(
                    abelian_decomposition(a_group).orders):
                tw = build_lifted_twist(g, subgroup, bichar)
                direct = is_cocommutative(twist_hopf(kg, tw, verify=False))
                assert cocommutativity_criterion(g, subgroup, bichar) == direct, \
                    (g.name, subgroup, bichar)
                outcomes[direct] = outcomes.get(direct, 0) + 1
    assert outcomes == {True: 42, False: 4}


def test_yd_pair_count_formula():
    for build in (build_symmetric(3), build_dihedral(4), build_quaternion(),
                  builtin_group("G12")):
        h = from_group(build)
        count = len(yd_one_dim_pairs(h).pairs)
        ab = build.order // len(build.commutator_subgroup)
        assert count == len(build.center) * ab


# -- group-like elements against the structure constants ---------------------

def _is_group_like(h, v):
    """Delta v = v (x) v and counit(v) = 1, read off h.comult and h.counit."""
    delta = {}
    for i, a in enumerate(v):
        if a:
            for key, c in h.comult[i].items():
                delta[key] = delta.get(key, ZERO) + a * c
    for j, k in itertools.product(range(h.dim), repeat=2):
        if delta.get((j, k), ZERO) != v[j] * v[k]:
            return False
    return sum((a * c for a, c in zip(v, h.counit)), ZERO) == ONE


def _group_like_cases():
    for name in sorted(BUILTIN_GROUPS):
        g = builtin_group(name)
        # |G| group-likes in kG; in (kG)* they are the linear characters,
        # one for each element of G/[G,G]
        yield pytest.param(lambda g=g: from_group(g), g.order, id=f"k{name}")
        yield pytest.param(lambda g=g: dual(from_group(g)),
                           g.order // len(g.commutator_subgroup),
                           id=f"dual-k{name}")
    yield pytest.param(build_h8, 4, id="H8")


@pytest.mark.parametrize("build,count", _group_like_cases())
def test_group_like_elements_match_the_structure_constants(build, count):
    h = build()
    found = group_like_elements(h)
    assert len(found) == count and len(set(found)) == count
    assert all(_is_group_like(h, v) for v in found)


# -- generator rows of the axiom scans -------------------------------------------

def _one_term_closure(h, start):
    """Indices reached from ``start`` by products e_a e_b = c e_k, c != 0."""
    reached = set(start)
    grown = True
    while grown:
        grown = False
        for a, b in itertools.product(sorted(reached), repeat=2):
            product = h.vec_mul(basis_vec(h.dim, a), basis_vec(h.dim, b))
            support = [k for k, c in enumerate(product) if c]
            if len(support) == 1 and support[0] not in reached:
                reached.add(support[0])
                grown = True
    return reached


def _twisted(name, subgroup, bichar):
    g = builtin_group(name)
    return twist_hopf(from_group(g), build_lifted_twist(g, subgroup, bichar),
                      verify=False)


def _relabeled(h, seed):
    """h on a seeded shuffle of its basis, so generators leave the prefix."""
    perm = list(range(h.dim))
    random.Random(seed).shuffle(perm)  # old index i is new index perm[i]
    src = [perm.index(t) for t in range(h.dim)]

    def row(entries):
        return {perm[k]: c for k, c in entries}

    return HopfData([h.labels[i] for i in src],
                    [[row(h.mult[i][j]) for j in src] for i in src],
                    [h.unit[i] for i in src],
                    [{(perm[j], perm[k]): c for (j, k), c in h.comult[i].items()}
                     for i in src],
                    [h.counit[i] for i in src],
                    [row(h.antipode[i]) for i in src])


GENERATOR_ROW_ALGEBRAS = {
    "H8": build_h8,
    "dual-H8": lambda: dual(build_h8()),
    "kS3": lambda: from_group(build_symmetric(3)),
    "kG12": lambda: from_group(builtin_group("G12")),
    "dual-kG12": lambda: dual(from_group(builtin_group("G12"))),
    "relabeled-kG12": lambda: _relabeled(from_group(builtin_group("G12")), 5),
    "twisted-kD3xD3": lambda: _twisted("D3xD3", D3D3_A, NONDEG2),
    "twisted-kG12": lambda: _twisted("G12", G12_GAMMA, NONDEG2),
    # products with several terms: seven generator rows would reach all 12
    "dual-twisted-kG12": lambda: dual(_twisted("G12", G12_GAMMA, NONDEG2)),
    "twisted-kG18": lambda: _twisted("G18", G18_GAMMA, NONDEG3),
    # the dimension-36 twist at conductor 3
    "zeta3-twisted-kD3xD3": lambda: _twisted("D3xD3", D3D3_A9, NONDEG3),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_ROW_ALGEBRAS))
def test_generator_rows_reach_every_index_from_below(name):
    h = GENERATOR_ROW_ALGEBRAS[name]()
    rows = _generator_rows(h)
    assert rows == sorted(set(rows)) and rows[0] == 0
    assert _one_term_closure(h, rows) == set(range(h.dim))
    # an index outside the rows is reached from the rows below it; the
    # verifier's first-failure argument rests on this
    for i in set(range(h.dim)) - set(rows):
        assert i in _one_term_closure(h, [r for r in rows if r < i])
    # and no row is reached from the rows below it
    for i in rows:
        assert i not in _one_term_closure(h, [r for r in rows if r < i])


def test_generator_rows_are_pinned():
    assert _generator_rows(build_h8()) == [0, 1, 2, 4]
    assert _generator_rows(_twisted("D3xD3", D3D3_A, NONDEG2)) == \
        [0, 1, 3, 6, 18]
    # k^G: e_a e_b = delta_ab e_a reaches nothing new
    assert _generator_rows(dual(from_group(builtin_group("G12")))) == \
        list(range(12))
    assert _generator_rows(GENERATOR_ROW_ALGEBRAS["dual-twisted-kG12"]()) == \
        list(range(12))


def _full_scan_report(h):
    """The Hopf axiom report of scans over every basis row, in order."""
    m = h.dim
    e = [basis_vec(m, i) for i in range(m)]
    products = [[dict(h.mult[i][j]) for j in range(m)] for i in range(m)]

    def times(u: dict, j: int) -> dict:  # u e_j for sparse u
        out = {}
        for p, c in u.items():
            for k, d in products[p][j].items():
                out[k] = out.get(k, ZERO) + c * d
        return {k: c for k, c in out.items() if c}

    def left_times(i: int, u: dict) -> dict:  # e_i u for sparse u
        out = {}
        for p, c in u.items():
            for k, d in products[i][p].items():
                out[k] = out.get(k, ZERO) + c * d
        return {k: c for k, c in out.items() if c}

    def first(fails, *ranges):
        return next((t if len(t) > 1 else t[0]
                     for t in itertools.product(*ranges) if fails(*t)), None)

    def dense(u: dict):
        return tuple(u.get(k, ZERO) for k in range(m))

    unit = dict((k, c) for k, c in enumerate(h.unit) if c)
    rows, pairs = range(m), (range(m), range(m))
    detail = {}
    detail["associativity"] = ("first failure at ", first(
        lambda i, j, k: times(products[i][j], k) !=
        left_times(i, products[j][k]), rows, rows, rows))
    detail["unit"] = ("unit law fails at basis element ", first(
        lambda i: h.vec_mul(h.unit, e[i]) != e[i] or
        h.vec_mul(e[i], h.unit) != e[i], rows))

    def coassociative(i):
        left, right = {}, {}
        for (j, k), c in h.comult[i].items():
            for (p, q), d in h.comult[j].items():
                left[(p, q, k)] = left.get((p, q, k), ZERO) + c * d
            for (p, q), d in h.comult[k].items():
                right[(j, p, q)] = right.get((j, p, q), ZERO) + c * d
        return ({key: c for key, c in left.items() if c} ==
                {key: c for key, c in right.items() if c})

    detail["coassociativity"] = ("fails on basis element ", first(
        lambda i: not coassociative(i), rows))

    def counit_side(i, side):
        out = [ZERO] * m
        for (j, k), c in h.comult[i].items():
            kept, dropped = (k, j) if side == 0 else (j, k)
            out[kept] = out[kept] + c * h.counit[dropped]
        return tuple(out)

    detail["counit"] = ("counit law fails at basis element ", first(
        lambda i: counit_side(i, 0) != e[i] or counit_side(i, 1) != e[i], rows))

    bad = None
    if h.comult_of(h.unit) != {(i, j): a * b for i, a in unit.items()
                               for j, b in unit.items()}:
        bad = "unit"
    elif h.counit_of(h.unit) != ONE:
        bad = "counit(1)"
    else:
        bad = first(lambda i, j: h.counit_of(dense(products[i][j])) !=
                    h.counit[i] * h.counit[j], *pairs)
        if bad is None:
            bad = first(lambda i, j: h.comult_of(dense(products[i][j])) !=
                        h.tensor_mul(h.comult[i], h.comult[j]), *pairs)
    detail["bialgebra-compatibility"] = ("fails at ", bad)

    def antipode_side(i, side):
        out = [ZERO] * m
        for (j, k), c in h.comult[i].items():
            if side == 0:
                term = h.vec_mul(antipode_of(h, e[j]), e[k])
            else:
                term = h.vec_mul(e[j], antipode_of(h, e[k]))
            out = [a + c * b for a, b in zip(out, term)]
        return tuple(out)

    detail["antipode"] = ("antipode axiom fails at basis element ", first(
        lambda i: any(antipode_side(i, s) != tuple(h.counit[i] * u
                                                   for u in h.unit)
                      for s in (0, 1)), rows))
    detail["antipode-squared-identity"] = ("S^2 differs from id at ", first(
        lambda i: antipode_of(h, antipode_of(h, e[i])) != e[i], rows))

    checks = [{"axiom": axiom, "passed": bad is None,
               "detail": "" if bad is None else f"{text}{bad}"}
              for axiom, (text, bad) in detail.items()]
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


CORRUPTION_VALUES = [ONE, -ONE, CycNumber.from_rational(3),
                     CycNumber.from_rational(Fraction(1, 2)),
                     CycNumber.root_of_unity(3, 1),
                     CycNumber.root_of_unity(4, 1), ZERO]


def _corrupted(h, rng):
    """h with one structure constant of mult, unit, comult, counit or
    antipode changed.  A unit or counit entry changes its tensor's
    denominator alone, which the verifier's scaled comparisons must carry."""
    mult = [[dict(row) for row in plane] for plane in h.mult]
    comult = [dict(entry) for entry in h.comult]
    antipode = [dict(row) for row in h.antipode]
    unit = {i: c for i, c in enumerate(h.unit) if c}
    counit = {i: c for i, c in enumerate(h.counit) if c}
    m = h.dim
    table, key = rng.choice([
        (mult[rng.randrange(m)][rng.randrange(m)], rng.randrange(m)),
        (unit, rng.randrange(m)),
        (comult[rng.randrange(m)], (rng.randrange(m), rng.randrange(m))),
        (counit, rng.randrange(m)),
        (antipode[rng.randrange(m)], rng.randrange(m))])
    if table and rng.random() < 0.5:
        key = rng.choice(sorted(table))
    delta = rng.choice(CORRUPTION_VALUES)
    table[key] = table.get(key, ZERO) + delta if delta else ZERO
    return HopfData(h.labels, mult, [unit.get(i, ZERO) for i in range(m)],
                    comult, [counit.get(i, ZERO) for i in range(m)], antipode)


# Pairs (a, b) of non-central group elements: J = e_a (x) e_b is invertible
# but no 2-cocycle.  J Delta J^{-1} is still an algebra map, so bialgebra
# compatibility passes while coassociativity fails.
CONJUGATIONS = {"kG12": ("G12", [(1, 2), (5, 5), (7, 11)]),
                "twisted-kD3xD3": ("D3xD3", [(1, 2), (3, 5), (7, 11)])}


def _conjugated(h, group, a, b):
    """h with Delta replaced by J Delta J^{-1}, J = e_a (x) e_b."""
    g = builtin_group(group)
    j, j_inv = {(a, b): ONE}, {(g.inv(a), g.inv(b)): ONE}
    comult = [h.tensor_mul(h.tensor_mul(j, d), j_inv) for d in h.comult]
    return HopfData(h.labels, h.mult, h.unit, comult, h.counit, h.antipode)


@pytest.mark.parametrize("name,corruptions", [
    ("H8", 24), ("dual-H8", 24), ("kS3", 24), ("kG12", 12), ("dual-kG12", 8),
    ("relabeled-kG12", 16), ("twisted-kD3xD3", 8), ("twisted-kG12", 12),
    ("dual-twisted-kG12", 16), ("twisted-kG18", 8),
    ("zeta3-twisted-kD3xD3", 4)])
def test_generator_row_scans_report_the_full_scan(name, corruptions):
    h = GENERATOR_ROW_ALGEBRAS[name]()
    rng = random.Random(f"generator-rows-{name}")
    cases = [h] + [_corrupted(h, rng) for _ in range(corruptions)]
    group, pairs = CONJUGATIONS.get(name, (None, []))
    conjugated = [_conjugated(h, group, a, b) for a, b in pairs]
    reports = [verify_hopf_axioms(c).to_json() for c in cases + conjugated]
    assert reports == [_full_scan_report(c) for c in cases + conjugated]
    assert reports[0]["passed"]
    for report in reports[len(cases):]:
        passed = {c["axiom"]: c["passed"] for c in report["checks"]}
        assert passed["associativity"] and passed["bialgebra-compatibility"]
        assert not passed["coassociativity"]


def test_a_common_conductor_beyond_the_limit_raises():
    """kZ2 with a conductor-5 comultiplication constant and a conductor-8
    antipode constant: no field of conductor at most MAX_CONDUCTOR holds
    both, so the axiom check stops with the limit error."""
    kz2 = from_group(build_cyclic(2))
    comult = [dict(entry) for entry in kz2.comult]
    comult[1][(1, 1)] = CycNumber.root_of_unity(5, 1)
    antipode = [dict(row) for row in kz2.antipode]
    antipode[1] = {1: CycNumber.root_of_unity(8, 1)}
    h = HopfData(kz2.labels, kz2.mult, kz2.unit, comult, kz2.counit, antipode)
    with pytest.raises(ConductorLimitError,
                       match=f"operation needs conductor 40 > {MAX_CONDUCTOR}"):
        verify_hopf_axioms(h)


def test_root_candidates_are_every_supported_root_once():
    # Every zeta_d^j, each through the general constructor's subfield
    # descent, gathered in a set: zero and the 268 roots of unity whose
    # order d has a canonical conductor within MAX_CONDUCTOR.
    expected = {ZERO} | {
        _from_numerators(d, _dense(_powers(d)[j], int(sympy.totient(d))), 1)
        for d in range(1, 2 * MAX_CONDUCTOR + 1)
        if _canonical_conductor(d) <= MAX_CONDUCTOR for j in range(d)}
    candidates = _root_candidates()
    assert len(candidates) == len(set(candidates)) == 269
    assert set(candidates) == expected
    assert list(candidates) == sorted(candidates, key=vkey)


# -- the exact linear-algebra kernel --------------------------------------------------

def _sympy_rational(c):
    f = c.rational_value()
    return sympy.Rational(f.numerator, f.denominator)


def _random_fraction(rnd):
    return Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))


def _random_rational(rnd):
    return sympy.Rational(rnd.randint(-6, 6), rnd.randint(1, 4))


def _cyc_vector(row):
    return [CycNumber.from_rational(Fraction(int(x.p), int(x.q))) for x in row]


@pytest.mark.parametrize("dim, count, rank", [
    (1, 2, 1), (3, 2, 2), (3, 5, 2), (4, 6, 4), (5, 7, 3), (6, 6, 6),
    (6, 9, 1), (7, 8, 5), (4, 3, 0)])
def test_linear_basis_agrees_with_sympy_on_rational_matrices(dim, count, rank):
    # count rows of rank at most `rank`, built as (count x rank) (rank x dim)
    rnd = random.Random(100 * dim + count)
    left = sympy.Matrix(count, rank, lambda *_: _random_rational(rnd))
    right = sympy.Matrix(rank, dim, lambda *_: _random_rational(rnd))
    rows = (left * right).tolist()
    basis = LinearBasis(dim)
    accepted = [row for row in rows if basis.add(_cyc_vector(row))]
    assert basis.rank == sympy.Matrix(rows).rank() == len(accepted)
    columns = sympy.Matrix.hstack(*[sympy.Matrix(row) for row in accepted]) \
        if accepted else sympy.zeros(dim, 0)
    targets = [[_random_rational(rnd) for _ in range(dim)] for _ in range(3)]
    targets += [list(columns * sympy.Matrix([_random_rational(rnd)
                                              for _ in accepted]))
                for _ in range(3)]
    for target in targets:
        coords = basis.coordinates(_cyc_vector(target))
        try:
            expected, free = columns.gauss_jordan_solve(sympy.Matrix(target))
        except ValueError:  # sympy: the system is inconsistent
            assert coords is None
            continue
        assert free.shape[0] == 0
        assert [_sympy_rational(c) for c in coords] == list(expected)


@pytest.mark.parametrize("n", [3, 8, 12])
def test_linear_basis_coordinates_rebuild_the_vector(n):
    rnd = random.Random(n)

    def scalar():
        if rnd.random() < 0.3:
            return ZERO
        return CycNumber(n, [_random_fraction(rnd)
                             for _ in range(int(sympy.totient(n)))])

    dim = 4
    basis = LinearBasis(dim)
    accepted: list = []
    for _ in range(14):
        if accepted and rnd.random() < 0.5:  # a combination of accepted vectors
            vec = [ZERO] * dim
            for v in accepted:
                c = scalar()
                vec = [x + c * y for x, y in zip(vec, v)]
        else:
            vec = [scalar() for _ in range(dim)]
        coords = basis.coordinates(vec)
        assert (coords is None) == basis.add(vec)
        if coords is None:
            accepted.append(vec)
            continue
        assert len(coords) == len(accepted)
        rebuilt = [ZERO] * dim
        for c, v in zip(coords, accepted):
            rebuilt = [x + c * y for x, y in zip(rebuilt, v)]
        assert rebuilt == vec
    assert basis.rank == len(accepted) == dim


@pytest.mark.parametrize("generators, rank", [([1], 2), ([4], 4), ([], 1)])
def test_characters_name_the_rank_of_a_non_generating_set(h8, generators, rank):
    with pytest.raises(GeneratorsDoNotSpanError) as err:
        algebra_characters(h8, generators=generators)
    assert str(err.value) == \
        f"indices {generators} generate a subalgebra of rank {rank}"


CORRECTOR_TWISTS = {
    "D3xD3": (D3D3_A, NONDEG2), "G12": (G12_GAMMA, NONDEG2),
    "D4": ((0, 2, 4, 6), NONDEG2), "G18": (G18_GAMMA, NONDEG3),
    "G12-trivial": (G12_GAMMA, AltBicharacter.trivial((2, 2))),
}


@pytest.mark.parametrize("name", sorted(CORRECTOR_TWISTS))
def test_twist_corrector_inverse_formula(name):
    """U = sum phi^(1) S(phi^(2)) and sum S(phi^-(1)) phi^-(2), over the
    terms of phi and of phi^{-1}, are inverse to each other."""
    g = builtin_group(name.partition("-")[0])
    kg = from_group(g)
    tw = build_lifted_twist(g, *CORRECTOR_TWISTS[name])

    def contract(t, left, right):
        out = [ZERO] * kg.dim
        for (i, j), c in t.items():
            term = kg.vec_mul(left(kg.basis_vector(i)),
                              right(kg.basis_vector(j)))
            out = [x + c * y for x, y in zip(out, term)]
        return tuple(out)

    u = contract(tw.value, lambda v: v, lambda v: antipode_of(kg, v))
    u_inv = contract(tw.inverse, lambda v: antipode_of(kg, v), lambda v: v)
    assert kg.vec_mul(u, u_inv) == kg.vec_mul(u_inv, u) == kg.unit