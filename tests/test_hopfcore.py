"""Hopf-algebra layer: axioms, the dimension-8 algebra, doubles, twists."""

import itertools

import pytest

from hopfcensus.cyclotomic import CycNumber
from hopfcensus.fusion import AlgebraTypeSignature
from hopfcensus.groups import (BUILTIN_GROUPS, AltBicharacter,
                               action_from_generator_images, build_cyclic,
                               build_dihedral, build_product, build_quaternion,
                               build_semidirect, build_symmetric, builtin_group)
from hopfcensus.hopfcore import (CharacterFunctional, HopfData,
                                 NotNormalError, TwistElement,
                                 TwistInvalidError, ZERO, ONE,
                                 algebra_characters, build_h8, build_lifted_twist,
                                 central_group_likes, character_convolution,
                                 cocommutativity_criterion,
                                 drinfeld_double_group_type, dual, from_group,
                                 group_like_elements, hit_left, hit_right,
                                 is_cocommutative, minimal_polynomial,
                                 surviving_group_likes, twist_hopf,
                                 verify_hopf_axioms, verify_twist,
                                 yd_one_dim_pairs)

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
        again = HopfData.from_json(json.loads(json.dumps(h.to_json())))
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
    central = central_group_likes(h8)
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
    central = central_group_likes(twisted)
    names = {next(i for i, c in enumerate(v) if c) for v in central}
    assert set(g.center) <= names
    # the center also survives as group-likes of the twist
    assert set(g.center) <= set(surviving_group_likes(g, tw))


def test_central_group_likes_of_group_algebra():
    for g in (build_dihedral(4), build_quaternion(), builtin_group("G18")):
        h = from_group(g)
        central = central_group_likes(h)
        names = sorted(next(i for i, c in enumerate(v) if c) for v in central)
        assert tuple(names) == g.center


def test_twist_errors():
    g = builtin_group("G12")
    with pytest.raises(NotNormalError):
        cocommutativity_criterion(g, G12_GAMMA, NONDEG2)  # Gamma is not normal
    with pytest.raises(Exception):
        build_lifted_twist(g, (0, 1, 2), NONDEG2)  # not a subgroup
    tw = build_lifted_twist(g, G12_GAMMA, NONDEG2)
    # corrupt one coefficient: the cocycle identity must fail and twisting
    # must refuse
    bad_value = list(tw.value)
    i, j, c = bad_value[0]
    bad_value[0] = (i, j, c * CycNumber.from_rational(2))
    bad = TwistElement(tw.dim, tuple(bad_value), tw.inverse)
    report = verify_twist(from_group(g), bad)
    assert not report.passed
    with pytest.raises(TwistInvalidError):
        twist_hopf(from_group(g), bad)


def klein_in_d4():
    return (0, 2, 4, 6)  # 1, r^2, s, r^2 s


def build_a4():
    k4 = build_product(build_cyclic(2), build_cyclic(2))
    act = action_from_generator_images(build_cyclic(3), k4, {1: [0, 3, 1, 2]})
    return build_semidirect(k4, build_cyclic(3), act), \
        tuple(sorted(i * 3 for i in range(4)))


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
]


@pytest.mark.parametrize("name,make", CROSS_VALIDATION_TRIPLES)
def test_criterion_cross_validation(name, make):
    g, subgroup, bichar = make()
    assert g.is_normal(subgroup)
    predicted = cocommutativity_criterion(g, subgroup, bichar)
    tw = build_lifted_twist(g, subgroup, bichar)
    twisted = twist_hopf(from_group(g), tw, verify=False)
    assert is_cocommutative(twisted) == predicted, name


def test_yd_pair_count_formula():
    import math
    for build in (build_symmetric(3), build_dihedral(4), build_quaternion(),
                  builtin_group("G12")):
        h = from_group(build)
        count = len(yd_one_dim_pairs(h).pairs)
        ab = math.prod(build.abelianization.invariant_factors or (1,))
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
