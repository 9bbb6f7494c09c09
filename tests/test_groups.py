"""Finite-group kernel: constructions, invariants, bicharacters."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcensus.cyclotomic import CycNumber
from hopfcensus.groups import (BUILTIN_GROUPS, AltBicharacter, FiniteGroup,
                               GroupError, abelian_decomposition,
                               action_from_generator_images, build_cyclic,
                               build_dihedral, build_product,
                               build_quaternion, build_semidirect,
                               build_symmetric, builtin_group)

ONE = CycNumber.one()


def brute_force_center(g: FiniteGroup):
    """Independent center computation straight off the table."""
    return [a for a in range(g.order)
            if all(g.table[a][b] == g.table[b][a] for b in range(g.order))]


def inversion_action_on_z3(actor: FiniteGroup, images: dict):
    return action_from_generator_images(actor, build_cyclic(3), images)


def test_construction_orders():
    assert build_dihedral(4).order == 8
    assert build_quaternion().order == 8
    assert build_symmetric(4).order == 24
    assert build_product(build_symmetric(3), build_symmetric(3)).order == 36


def test_semidirect_order_12_center():
    # Both Klein generators act on Z_3 by inversion; the product of the two
    # then acts trivially and is central, so the center has order 2.  The
    # expected value is frozen from the brute-force oracle below.
    klein = build_product(build_cyclic(2), build_cyclic(2))
    act = inversion_action_on_z3(klein, {1: [0, 2, 1], 2: [0, 2, 1]})
    g = build_semidirect(build_cyclic(3), klein, act)
    assert g.order == 12
    oracle = brute_force_center(g)
    assert len(oracle) == 2
    assert tuple(oracle) == g.center


def is_automorphism_action(n: FiniteGroup, q: FiniteGroup, rows) -> bool:
    """Oracle: the identity acts trivially, every row is an automorphism of
    n, and the rows compose multiplicatively."""
    elems = range(n.order)
    return (rows[q.identity] == tuple(elems)
            and all(sorted(row) == list(elems)
                    and all(row[n.table[a][b]] == n.table[row[a]][row[b]]
                            for a in elems for b in elems)
                    for row in rows)
            and all(rows[q.table[x][y]] == tuple(rows[x][rows[y][a]]
                                                 for a in elems)
                    for x in range(q.order) for y in range(q.order)))


@pytest.mark.parametrize("n, q, row_choices, accepted", [
    (build_cyclic(3), build_cyclic(2),
     list(itertools.product(range(3), repeat=3)), 2),
    (build_product(build_cyclic(2), build_cyclic(2)), build_cyclic(2),
     list(itertools.permutations(range(4))), 4),
    (build_cyclic(3), build_cyclic(3),
     list(itertools.permutations(range(3))), 1),
], ids=["Z2-on-Z3", "Z2-on-Z2xZ2", "Z3-on-Z3"])
def test_semidirect_accepts_exactly_the_automorphism_actions(
        n, q, row_choices, accepted):
    expected, built = set(), set()
    for rows in itertools.product(row_choices, repeat=q.order):
        if is_automorphism_action(n, q, rows):
            expected.add(rows)
        try:
            g = build_semidirect(n, q, rows)
        except GroupError:
            continue
        assert g.order == n.order * q.order
        built.add(rows)
    assert built == expected and len(expected) == accepted


def test_semidirect_by_inversion_is_dihedral():
    z2 = build_cyclic(2)
    act = inversion_action_on_z3(z2, {1: [0, 2, 1]})
    assert act == ((0, 1, 2), (0, 2, 1))
    dihedral = build_semidirect(build_cyclic(3), z2, act)
    assert dihedral.order == 6 and not dihedral.is_abelian
    with pytest.raises(GroupError, match="wrong shape"):
        build_semidirect(build_cyclic(3), z2, act[:1])


def test_center_and_classes():
    d4 = build_dihedral(4)
    assert len(d4.center) == 2
    s3 = build_symmetric(3)
    assert sorted(len(c) for c in s3.conjugacy_classes) == [1, 2, 3]
    for g in (d4, s3, build_quaternion()):
        sizes = [len(c) for c in g.conjugacy_classes]
        assert sum(sizes) == g.order
        assert all(g.order % s == 0 for s in sizes)
        assert len(g.center) == sum(1 for s in sizes if s == 1)


def test_quaternion_abelianization():
    q8 = build_quaternion()
    # oracle: brute-force commutators land in {1, a^2}
    t = q8.table
    comms = {t[t[a][b]][t[q8.inv(a)][q8.inv(b)]]
             for a in range(8) for b in range(8)}
    assert comms == {0, 2}
    assert q8.order // len(q8.commutator_subgroup) == 4
    assert abelian_decomposition(
        q8.quotient(q8.commutator_subgroup)[0]).orders == (2, 2)
    # an abelian group is its own abelianization: the chain of its basis
    for chain in ((8,), (2, 6), (4, 4)):
        a = build_cyclic(chain[0])
        for m in chain[1:]:
            a = build_product(a, build_cyclic(m))
        assert a.order // len(a.commutator_subgroup) == a.order
        assert abelian_decomposition(
            a.quotient(a.commutator_subgroup)[0]).orders == chain


def test_irreducible_degrees_small():
    assert build_symmetric(3).irreducible_degrees == (1, 1, 2)
    assert build_quaternion().irreducible_degrees == (1, 1, 1, 1, 2)
    assert build_dihedral(4).irreducible_degrees == (1, 1, 1, 1, 2)
    assert build_symmetric(4).irreducible_degrees == (1, 1, 2, 3, 3)
    assert build_dihedral(8).irreducible_degrees == (1,) * 4 + (2,) * 3
    assert build_product(build_quaternion(), build_cyclic(2)) \
        .irreducible_degrees == (1,) * 8 + (2,) * 2
    assert build_product(build_symmetric(3), build_cyclic(4)) \
        .irreducible_degrees == (1,) * 8 + (2,) * 4
    assert build_product(build_dihedral(4), build_dihedral(4)) \
        .irreducible_degrees == (1,) * 16 + (2,) * 8 + (4,)
    # x -> 2x: |G:G'| = 4, 9 classes and order 60 fit both 1^4 2^2 4^3
    # and 1^4 2 3^3 5
    assert metacyclic(15, 4, 2).irreducible_degrees == \
        (1,) * 4 + (2,) * 2 + (4,) * 3


def test_d3d3_degrees_match_pairwise_product_oracle():
    factor = sorted(build_dihedral(3).irreducible_degrees)
    oracle = sorted(a * b for a in factor for b in factor)
    assert list(build_product(build_dihedral(3),
                              build_dihedral(3)).irreducible_degrees) == oracle


def test_degree_squares_sum_to_order():
    for name in ("Z4", "S3", "D4", "Q8", "G12", "G18", "D3xD3"):
        g = builtin_group(name)
        degrees = g.irreducible_degrees
        assert sum(d * d for d in degrees) == g.order
        ab = g.order // len(g.commutator_subgroup)
        assert sum(1 for d in degrees if d == 1) == ab


def metacyclic(a: int, b: int, u: int) -> FiniteGroup:
    """Z_a x| Z_b with the generator of Z_b acting by x -> u x."""
    za, zb = build_cyclic(a), build_cyclic(b)
    return build_semidirect(za, zb, action_from_generator_images(
        zb, za, {1: [u * x % a for x in range(a)]}))


def assert_orthogonal_mod_p(g: FiniteGroup):
    """Both orthogonality relations of ``g.character_table``, exactly mod p:
    sum_r |C_r| chi_i(g_r) chi_j(g_r^-1) = |G| [i = j] and
    sum_i chi_i(g_r) chi_i(g_s^-1) = |C_G(g_r)| [r = s]."""
    p, values = g.character_table
    classes = g.conjugacy_classes
    cls = {x: r for r, c in enumerate(classes) for x in c}
    bar = [[row[cls[g.inv(c[0])]] for c in classes] for row in values]
    assert len(values) == len(classes)
    for i, j in itertools.product(range(len(values)), repeat=2):
        assert sum(len(c) * u * v for c, u, v in zip(classes, values[i], bar[j])) \
            % p == (g.order if i == j else 0)
    for r, s in itertools.product(range(len(classes)), repeat=2):
        assert sum(row[r] * conj[s] for row, conj in zip(values, bar)) % p == \
            (len(g.centralizer(classes[r][0])) if r == s else 0)


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_builtin_character_tables_are_orthogonal_mod_p(name):
    assert_orthogonal_mod_p(builtin_group(name))


SMALL_GROUPS = [build_cyclic(n) for n in range(1, 7)] + [
    build_symmetric(3), build_dihedral(4), build_quaternion(),
    metacyclic(3, 4, 2), metacyclic(7, 3, 2)]


@st.composite
def small_products(draw):
    """A product of two small groups, or a metacyclic Z_a x| Z_b, of order
    at most 36."""
    if draw(st.booleans()):
        g = draw(st.sampled_from(SMALL_GROUPS))
        h = draw(st.sampled_from([h for h in SMALL_GROUPS
                                  if g.order * h.order <= 36]))
        return build_product(g, h)
    a = draw(st.integers(2, 18))
    b = draw(st.integers(2, 36 // a))
    u = draw(st.sampled_from([u for u in range(1, a)
                              if math.gcd(u, a) == 1 and pow(u, b, a) == 1]))
    return metacyclic(a, b, u)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_products())
def test_character_tables_of_small_products_are_orthogonal_mod_p(g):
    assert_orthogonal_mod_p(g)
    assert sum(d * d for d in g.irreducible_degrees) == g.order


def test_alt_bicharacter_validation():
    z = CycNumber.root_of_unity(4, 1)
    with pytest.raises(GroupError):
        AltBicharacter((2, 2), ((ONE, z), (z.inv(), ONE)))  # order 4 > gcd 2
    good = AltBicharacter.nondegenerate_rank2(3)
    e1, e2 = (1, 0), (0, 1)
    assert good.evaluate(e1, e2) == CycNumber.root_of_unity(3, 1)
    assert good.evaluate(e2, e1) == CycNumber.root_of_unity(3, 2)
    assert good.evaluate((1, 1), (1, 1)) == ONE


def test_builtin_g12_g18():
    g12 = builtin_group("G12")
    assert g12.order == 12 and len(g12.center) == 2
    g18 = builtin_group("G18")
    assert g18.order == 18 and not g18.is_abelian
    # Gamma = even indices is an abelian normal subgroup of order 9
    gamma = tuple(2 * i for i in range(9))
    assert g18.is_normal(gamma)
    with pytest.raises(GroupError):
        builtin_group("nope")


def brute_force_closure(g: FiniteGroup, gens):
    """The subgroup generated by gens: products of pairs until none is new."""
    closed = {g.identity, *gens}
    while True:
        products = {g.table[a][b] for a in closed for b in closed}
        if products <= closed:
            return tuple(sorted(closed))
        closed |= products


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_orders_and_closures_match_brute_force(name):
    g = builtin_group(name)
    for a in range(g.order):
        powers = [a]
        while powers[-1] != g.identity:
            powers.append(g.table[powers[-1]][a])
        assert g.element_order(a) == len(powers)
        assert g.subgroup_closure([a]) == brute_force_closure(g, [a])
        for b in range(a):
            assert g.subgroup_closure([a, b]) == brute_force_closure(g, [a, b])


# -- index encodings against independent models -------------------------------
#
# The twist digests and the canonical twist subgroups name elements by index,
# so each constructor's encoding is pinned here: the table must equal the
# product of a model built without the group layer, read back through the
# encoding.

def assert_table_models(g: FiniteGroup, elements, product):
    """g.table[a][b] is the index of product(elements[a], elements[b])."""
    index = {x: i for i, x in enumerate(elements)}
    assert len(index) == g.order == len(elements)
    assert [list(row) for row in g.table] == [
        [index[product(x, y)] for y in elements] for x in elements]


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_encoding_is_affine_maps(n):
    # index d*n + i is x -> (-1)^d x + i on Z_n, as (sign, shift mod n),
    # composed by evaluating both maps on integers.
    def compose(f, g):
        def value(x):
            return f[0] * (g[0] * x + g[1]) + f[1]
        return value(1) - value(0), value(0) % n

    maps = [((-1) ** d, i) for d in range(2) for i in range(n)]
    assert_table_models(build_dihedral(n), maps, compose)


def test_quaternion_encoding_is_unit_quaternions():
    # index d*4 + i is a^i b^d with a = i and b = j, as (w, x, y, z).
    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    def power(q, k):
        out = (1, 0, 0, 0)
        for _ in range(k):
            out = hamilton(out, q)
        return out

    units = [hamilton(power((0, 1, 0, 0), i), power((0, 0, 1, 0), d))
             for d in range(2) for i in range(4)]
    assert_table_models(build_quaternion(), units, hamilton)


@pytest.mark.parametrize("n", [3, 4])
def test_symmetric_encoding_is_permutation_composition(n):
    # index t is the t-th permutation in lexicographic order; (pq)(x) = p(q(x))
    perms = sorted(itertools.permutations(range(n)))
    assert_table_models(build_symmetric(n), perms,
                        lambda p, q: tuple(p[x] for x in q))


@pytest.mark.parametrize("g, h", [
    (build_symmetric(3), build_cyclic(4)),
    (build_quaternion(), build_dihedral(3)),
    (build_cyclic(2), build_symmetric(3)),
], ids=["S3xZ4", "Q8xD3", "Z2xS3"])
def test_product_encoding_is_pairs(g, h):
    # index a*|H| + b is the pair (a, b), multiplied componentwise
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    assert_table_models(build_product(g, h), pairs, lambda x, y: (
        g.table[x[0]][y[0]], h.table[x[1]][y[1]]))


def _semidirect_factors(name):
    """(N, Q, action table) of G12, G18 and A4 = (Z2 x Z2) x| Z3."""
    z2, z3 = build_cyclic(2), build_cyclic(3)
    if name == "G12":
        klein = build_product(z2, z2)
        return z3, klein, action_from_generator_images(
            klein, z3, {1: [0, 2, 1], 2: [0, 2, 1]})
    if name == "G18":
        gamma = build_product(z3, z3)
        perm = [3 * ((3 - s) % 3) + t for s in range(3) for t in range(3)]
        return gamma, z2, action_from_generator_images(z2, gamma, {1: perm})
    klein = build_product(z2, z2)
    return klein, z3, action_from_generator_images(
        z3, klein, {1: [0, 3, 1, 2]})


@pytest.mark.parametrize("name", ["G12", "G18", "A4"])
def test_semidirect_encoding_is_twisted_pairs(name):
    # index a*|Q| + b is the pair (a, b); (n, q)(n', q') = (n (q.n'), q q')
    n, q, act = _semidirect_factors(name)
    g = build_semidirect(n, q, act)
    pairs = [(a, b) for a in range(n.order) for b in range(q.order)]
    assert_table_models(g, pairs, lambda x, y: (
        n.table[x[0]][act[x[1]][y[0]]], q.table[x[1]][y[1]]))
    if name in BUILTIN_GROUPS:
        assert builtin_group(name).table == g.table
