"""Sparse Hopf kernels against a dense reference built from the JSON constants.

The reference reads ``to_json(h)`` into dense arrays and computes
every product by looping over all indices, zeros included, so it shares no
code with the sparse kernels.  The associativity scan order is pinned the
same way: a naive lexicographic loop finds the first failing triple.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import prod

import pytest

from hopfcensus.cyclotomic import CycNumber
from hopfcensus.groups import (BUILTIN_GROUPS, AltBicharacter,
                               abelian_decomposition, build_symmetric,
                               builtin_group)
from hopfcensus.hopfcore import (HopfData, TwistElement, _combine,
                                 _nonzeros, algebra_characters, build_h8,
                                 build_lifted_twist, character_convolution,
                                 dual, from_group, group_like_elements,
                                 hit_left, hit_right, twist_hopf,
                                 verify_hopf_axioms, verify_twist)

ZERO = CycNumber.zero()
ONE = CycNumber.one()


def to_json(h: HopfData) -> dict:
    """The structure constants of h: [i, j, k, c] for each nonzero
    coefficient of mult and comult, [i, k, c] for the antipode, and the
    dense unit and counit."""
    return {
        "dim": h.dim,
        "labels": list(h.labels),
        "mult": [[i, j, k, c.to_json()]
                 for i in range(h.dim) for j in range(h.dim)
                 for k, c in h.mult[i][j]],
        "comult": [[i, j, k, c.to_json()]
                   for i in range(h.dim)
                   for (j, k), c in sorted(h.comult[i].items())],
        "unit": [c.to_json() for c in h.unit],
        "counit": [c.to_json() for c in h.counit],
        "antipode": [[i, k, c.to_json()]
                     for i in range(h.dim) for k, c in h.antipode[i]],
    }


def from_json(data: dict) -> HopfData:
    """The HopfData that ``to_json`` wrote."""
    dim = int(data["dim"])
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in data["mult"]:
        mult[i][j][k] = CycNumber.from_json(c)
    comult = [{} for _ in range(dim)]
    for i, j, k, c in data["comult"]:
        comult[i][(j, k)] = CycNumber.from_json(c)
    antipode = [{} for _ in range(dim)]
    for i, k, c in data["antipode"]:
        antipode[i][k] = CycNumber.from_json(c)
    return HopfData(data["labels"], mult,
                    [CycNumber.from_json(c) for c in data["unit"]], comult,
                    [CycNumber.from_json(c) for c in data["counit"]], antipode)


def antipode_of(h: HopfData, u):
    """S(u) for a dense vector u, read through the sparse antipode rows."""
    return h._dense(_combine(_nonzeros(u), h.antipode))


class DenseReference:
    """Dense structure tensors of a HopfData, read from its JSON form."""

    def __init__(self, data: dict):
        m = self.dim = data["dim"]
        self.mult = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
        self.comult = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
        self.antipode = [[ZERO] * m for _ in range(m)]
        for i, j, k, c in data["mult"]:
            self.mult[i][j][k] = CycNumber.from_json(c)
        for i, j, k, c in data["comult"]:
            self.comult[i][j][k] = CycNumber.from_json(c)
        for i, k, c in data["antipode"]:
            self.antipode[i][k] = CycNumber.from_json(c)

    def vec_mul(self, u, v):
        m = self.dim
        return tuple(sum((u[i] * v[j] * self.mult[i][j][k]
                          for i in range(m) for j in range(m)), ZERO)
                     for k in range(m))

    def antipode_of(self, u):
        m = self.dim
        return tuple(sum((u[i] * self.antipode[i][k] for i in range(m)), ZERO)
                     for k in range(m))

    def comult_of(self, u) -> dict:
        m = self.dim
        out = {(j, k): sum((u[i] * self.comult[i][j][k] for i in range(m)),
                           ZERO)
               for j in range(m) for k in range(m)}
        return {key: c for key, c in out.items() if c}

    def tensor_mul(self, a: dict, b: dict) -> dict:
        m = self.dim
        out = {}
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                for p in range(m):
                    for q in range(m):
                        term = c * d * self.mult[i][k][p] * self.mult[j][l][q]
                        out[(p, q)] = out.get((p, q), ZERO) + term
        return {key: c for key, c in out.items() if c}

    def first_associativity_failure(self):
        m = self.dim
        basis = [tuple(ONE if t == i else ZERO for t in range(m))
                 for i in range(m)]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    left = self.vec_mul(self.vec_mul(basis[i], basis[j]),
                                        basis[k])
                    right = self.vec_mul(basis[i],
                                         self.vec_mul(basis[j], basis[k]))
                    if left != right:
                        return (i, j, k)
        return None


def _twisted(group, subgroup, bichar):
    g = builtin_group(group)
    return twist_hopf(from_group(g), build_lifted_twist(g, subgroup, bichar),
                      verify=False)


ALGEBRAS = {
    "H8": build_h8,
    "kG12": lambda: from_group(builtin_group("G12")),
    "dual-kG12": lambda: dual(from_group(builtin_group("G12"))),
    "twisted-kD3xD3": lambda: _twisted("D3xD3", (0, 3, 18, 21),
                                       AltBicharacter.nondegenerate_rank2(2)),
    "twisted-kG18": lambda: _twisted("G18", tuple(2 * i for i in range(9)),
                                     AltBicharacter.nondegenerate_rank2(3)),
}

COEFFS = [ONE, -ONE, CycNumber.from_rational(Fraction(1, 2)),
          CycNumber.from_rational(3), CycNumber.root_of_unity(3, 1),
          CycNumber.root_of_unity(4, 1)]


def random_vector(rng, dim, nonzeros=3):
    vec = [ZERO] * dim
    for i in rng.sample(range(dim), nonzeros):
        vec[i] = rng.choice(COEFFS)
    return tuple(vec)


def random_tensor(rng, dim, nonzeros=3):
    keys = rng.sample([(i, j) for i in range(dim) for j in range(dim)],
                      nonzeros)
    return {key: rng.choice(COEFFS) for key in keys}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sparse_kernels_match_dense_reference(name):
    h = ALGEBRAS[name]()
    ref = DenseReference(to_json(h))
    rng = random.Random(f"dense-reference-{name}")
    for _ in range(3):
        u = random_vector(rng, h.dim)
        v = random_vector(rng, h.dim)
        assert h.vec_mul(u, v) == ref.vec_mul(u, v)
        assert antipode_of(h, u) == ref.antipode_of(u)
        assert h.comult_of(u) == ref.comult_of(u)
    for _ in range(2):
        a = random_tensor(rng, h.dim)
        b = random_tensor(rng, h.dim)
        assert h.tensor_mul(a, b) == ref.tensor_mul(a, b)
    for _ in range(4):
        i, j = rng.randrange(h.dim), rng.randrange(h.dim)
        assert h.vec_mul(h.basis_vector(i), h.basis_vector(j)) == \
            ref.vec_mul(h.basis_vector(i), h.basis_vector(j))


# (algebra, position in the JSON "mult" list of the constant raised by one).
# For each algebra, positions 2 and 12 or 16 together make every other nesting
# of the (i, j, k) loops find a different first triple than the
# lexicographic scan; H8 position 70 raises a constant of z * z.
CORRUPTIONS = [("H8", 2), ("H8", 16), ("H8", 70), ("kS3", 2), ("kS3", 12)]


@pytest.mark.parametrize("name,position", CORRUPTIONS)
def test_associativity_reports_the_first_failing_triple(name, position):
    h = build_h8() if name == "H8" else from_group(build_symmetric(3))
    data = to_json(h)
    i, j, k, c = data["mult"][position]
    raised = CycNumber.from_json(c) + ONE
    data["mult"][position] = [i, j, k, raised.to_json()]
    expected = DenseReference(data).first_associativity_failure()
    assert expected is not None

    report = verify_hopf_axioms(from_json(data))
    check = next(c for c in report.checks if c.axiom == "associativity")
    assert not check.passed
    assert check.detail == f"first failure at {expected}"


# -- the twist checks against dense loops --------------------------------

class DenseTwistReference(DenseReference):
    """The three checks of ``verify_twist`` by loops over basis indices.

    Tensors are {index tuple: coefficient} dicts.  Each product runs over
    the support of every leg's dense structure-constant row, so nothing
    here shares code with the sparse leg maps or ``HopfData.tensor_mul``.
    """

    def __init__(self, data: dict):
        super().__init__(data)
        m = self.dim
        self.unit = [CycNumber.from_json(c) for c in data["unit"]]
        self.counit = [CycNumber.from_json(c) for c in data["counit"]]
        self.support = [[[(k, self.mult[i][j][k]) for k in range(m)
                          if self.mult[i][j][k]] for j in range(m)]
                        for i in range(m)]

    def product(self, a: dict, b: dict) -> dict:
        out = {}
        for x, c in a.items():
            for y, d in b.items():
                legs = [self.support[i][j] for i, j in zip(x, y)]
                for terms in itertools.product(*legs):
                    value = c * d
                    for _, coeff in terms:
                        value = value * coeff
                    key = tuple(k for k, _ in terms)
                    out[key] = out.get(key, ZERO) + value
        return {key: c for key, c in out.items() if c}

    def counit_normalized(self, phi: dict) -> bool:
        m = self.dim
        left = [sum((self.counit[i] * phi.get((i, j), ZERO)
                     for i in range(m)), ZERO) for j in range(m)]
        right = [sum((phi.get((i, j), ZERO) * self.counit[j]
                      for j in range(m)), ZERO) for i in range(m)]
        return left == self.unit and right == self.unit

    def invertible(self, phi: dict, phi_inv: dict) -> bool:
        m = self.dim
        one = {(i, j): self.unit[i] * self.unit[j]
               for i in range(m) for j in range(m)
               if self.unit[i] and self.unit[j]}
        return (self.product(phi, phi_inv) == one
                and self.product(phi_inv, phi) == one)

    def cocycle(self, phi: dict) -> bool:
        """(phi (x) 1)(Delta (x) id)(phi) == (1 (x) phi)(id (x) Delta)(phi)."""
        m = self.dim
        left_delta, right_delta = {}, {}
        for i, j in itertools.product(range(m), repeat=2):
            c = phi.get((i, j), ZERO)
            if not c:
                continue
            for p, q in itertools.product(range(m), repeat=2):
                d = self.comult[i][p][q]
                if d:
                    left_delta[(p, q, j)] = \
                        left_delta.get((p, q, j), ZERO) + c * d
                d = self.comult[j][p][q]
                if d:
                    right_delta[(i, p, q)] = \
                        right_delta.get((i, p, q), ZERO) + c * d
        phi_one = {(i, j, k): c * self.unit[k]
                   for (i, j), c in phi.items() for k in range(m)
                   if self.unit[k]}
        one_phi = {(k, i, j): self.unit[k] * c
                   for (i, j), c in phi.items() for k in range(m)
                   if self.unit[k]}
        return (self.product(phi_one, left_delta) ==
                self.product(one_phi, right_delta))


# The twists of the benchmark's ``hopf`` workload: group -> (subgroup,
# bicharacter).
WORKLOAD_TWISTS = {
    "D3xD3": ((0, 3, 18, 21), AltBicharacter.nondegenerate_rank2(2)),
    "G12": ((0, 1, 2, 3), AltBicharacter.nondegenerate_rank2(2)),
    "D4": ((0, 2, 4, 6), AltBicharacter.nondegenerate_rank2(2)),
    "G18": (tuple(2 * i for i in range(9)),
            AltBicharacter.nondegenerate_rank2(3)),
}

# The workload twists the dense loops can afford, and the trivial twist
# 1 (x) 1 on the D3xD3 workload subgroup: (group, subgroup, bicharacter).
REFERENCE_TWISTS = {
    "trivial": ("D3xD3", WORKLOAD_TWISTS["D3xD3"][0],
                AltBicharacter.trivial((2, 2))),
    **{group: (group, *WORKLOAD_TWISTS[group])
       for group in ("G12", "D4", "G18")},
}

CORRUPTION_VALUES = [ONE, -ONE, CycNumber.from_rational(3),
                     CycNumber.root_of_unity(3, 1), ZERO]


def _outer(u, v) -> dict:
    return {(i, j): a * b for i, a in enumerate(u) for j, b in enumerate(v)
            if a and b}


def _changed(tensor: dict, changes) -> dict:
    """tensor with each (key, delta) added, zeros dropped, keys ascending."""
    out = dict(tensor)
    for key, delta in changes:
        out[key] = out.get(key, ZERO) + delta
    return {key: c for key, c in sorted(out.items()) if c}


def _corruptions(tw, rng):
    """(field, twist): tw with one coefficient of ``value`` and then of
    ``inverse`` changed by a corruption value (zero sets it to zero), and
    with a nonzero delta moved between two keys of one column and then of
    one row of ``value``.  On a group algebra the column move keeps
    (eps (x) id) phi and changes (id (x) eps) phi, the row move the
    reverse."""
    out = []
    for field in ("value", "inverse"):
        tensors = {"value": tw.value, "inverse": tw.inverse}
        key = rng.choice(sorted(tensors[field]))
        delta = rng.choice(CORRUPTION_VALUES) or -tensors[field][key]
        tensors[field] = _changed(tensors[field], [(key, delta)])
        out.append((field, TwistElement(tw.dim, **tensors)))
    for field, leg in (("column", 0), ("row", 1)):
        key = rng.choice(sorted(tw.value))
        other = list(key)
        other[leg] = rng.choice([k for k in range(tw.dim) if k != key[leg]])
        delta = rng.choice(CORRUPTION_VALUES[:-1])
        moved = _changed(tw.value, [(key, delta), (tuple(other), -delta)])
        out.append((field, TwistElement(tw.dim, moved, tw.inverse)))
    return out


def _h8_coboundary():
    h8 = build_h8()
    ref = DenseReference(to_json(h8))
    a = (ZERO, ONE, -ONE, ZERO, ZERO, ONE, -ONE, ZERO)
    assert not any(ref.vec_mul(a, a))
    f = tuple(u + c for u, c in zip(h8.unit, a))
    f_inv = tuple(u - c for u, c in zip(h8.unit, a))
    return TwistElement(
        h8.dim,
        dict(sorted(ref.tensor_mul(_outer(f, f), ref.comult_of(f_inv))
                    .items())),
        dict(sorted(ref.tensor_mul(ref.comult_of(f), _outer(f_inv, f_inv))
                    .items())))


def _reference_twist_cases():
    """(name, H, twist): each reference twist on kG as built and with each
    of its corruptions.  kG is cocommutative and each of these twists lies
    in a commutative subalgebra, so the set ends with a twist on H8 that
    does neither: the coboundary (f (x) f) Delta(f^{-1}) of f = 1 + a, with
    a = x - y + xz - yz, a^2 = 0 and so f^{-1} = 1 - a, built by the
    reference's products."""
    cases = []
    for name, (group, subgroup, bichar) in REFERENCE_TWISTS.items():
        g = builtin_group(group)
        kg, tw = from_group(g), build_lifted_twist(g, subgroup, bichar)
        rng = random.Random(f"corrupted-twist-{name}")
        cases.append((name, kg, tw))
        cases += [(f"{name}/{field}", kg, bad)
                  for field, bad in _corruptions(tw, rng)]
    cases.append(("H8-coboundary", build_h8(), _h8_coboundary()))
    return cases


def test_verify_twist_matches_dense_loops():
    seen = {"counit-normalization": set(), "invertibility": set(),
            "cocycle-identity": set()}
    for name, h, tw in _reference_twist_cases():
        ref = DenseTwistReference(to_json(h))
        expected = {
            "counit-normalization": ref.counit_normalized(tw.value),
            "invertibility": ref.invertible(tw.value, tw.inverse),
            "cocycle-identity": ref.cocycle(tw.value)}
        got = {c.axiom: c.passed for c in verify_twist(h, tw).checks}
        assert got == expected, name
        for axiom, passed in got.items():
            seen[axiom].add(passed)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen



# -- the lifted cocycle, summed as defined -----------------------------------

def _defining_sum(g, subgroup, bichar, sign):
    """phi (sign 1) or phi^{-1} (sign -1) of the twist lifted from A:
    |A|^-2 sum_{x,y} x(a) omega(x, y)^sign y(b) at each (a, b), A's
    elements indexed in g, summed over CycNumber powers as written."""
    a_group, to_parent = g.subgroup_as_group(subgroup)
    decomp = abelian_decomposition(a_group)
    orders = decomp.orders
    chars = list(itertools.product(*[range(m) for m in orders]))
    zeta = [CycNumber.root_of_unity(m, 1) for m in orders]
    values = [[prod((z ** (x_i * a_i) for z, x_i, a_i in
                     zip(zeta, x, decomp.coords[a])), start=ONE)
               for a in range(a_group.order)] for x in chars]
    omega = [[prod((bichar.values[i][j] ** (sign * x[i] * y[j])
                    for i, j in itertools.combinations(range(len(orders)), 2)),
                   start=ONE) for y in chars] for x in chars]
    scale = Fraction(1, a_group.order ** 2)
    out = {}
    for a, b in itertools.product(range(a_group.order), repeat=2):
        total = sum((values[x][a] * omega[x][y] * values[y][b]
                     for x, y in itertools.product(range(len(chars)),
                                                   repeat=2)), ZERO)
        if total:
            out[to_parent[a], to_parent[b]] = total * scale
    return dict(sorted(out.items()))


def _lifted_twist_cases():
    """(name, g, subgroup, bicharacter): each abelian subgroup generated by
    at most two elements of each built-in group with each of its
    alternating bicharacters, and the order-16 Z2 x Z2 x Z4 in
    (Z2 x Z2 x Z4) x| Z2 with each of its 8."""
    from test_hopfcore import (  # test_hopfcore imports this module
        alternating_bicharacters, build_z2z2z4_z2)
    cases = []
    for name in BUILTIN_GROUPS:
        g = builtin_group(name)
        subgroups = {g.subgroup_closure([x, y])
                     for x in range(g.order) for y in range(x, g.order)}
        for subgroup in sorted(subgroups):
            a_group = g.subgroup_as_group(subgroup)[0]
            if a_group.is_abelian:
                cases += [(name, g, subgroup, bichar) for bichar in
                          alternating_bicharacters(
                              abelian_decomposition(a_group).orders)]
    g, subgroup = build_z2z2z4_z2()
    cases += [("Z2xZ2xZ4:Z2", g, subgroup, bichar) for bichar in
              alternating_bicharacters((2, 2, 4))]
    return cases


def test_lifted_twist_matches_the_defining_sum():
    cases = _lifted_twist_cases()
    for name, g, subgroup, bichar in cases:
        tw = build_lifted_twist(g, subgroup, bichar)
        for got, sign in ((tw.value, 1), (tw.inverse, -1)):
            expected = _defining_sum(g, subgroup, bichar, sign)
            assert list(got.items()) == list(expected.items()), \
                (name, subgroup, bichar, sign)
    assert len(cases) == 119


# -- pinned function-level digests -----------------------------------------

# sha256 of the JSON form of each value below, computed before the twist
# and hit-action code moved onto one leg kernel.  A change that alters one
# on purpose re-pins it and says why.
PINNED_DIGESTS = {
    "twist-D3xD3": "e932ddb00fc8e9f121d75ce08cc7315cc8f90c889801ecf9351185e1da58ddab",
    "dual-twist-D3xD3": "06f3a43794869bcbe286e23f3b76b2de7e0d440f2c061c2988097da6f95c0a80",
    "twist-G12": "d2aeafbd32ad511f66021d0ed79ef41778c0128241571e6712c003785e4e12fe",
    "dual-twist-G12": "3aad75e28202a8b0ea8a76820f37299aaf005157ddf8e346e260e9d1a5d2899c",
    "twist-D4": "5f7e0221488de3c77369f07ad0d00fd18e994d7673b5c5c591e55dc85c94b590",
    "dual-twist-D4": "e3a2cc92db5b208f06a10bffecd0a93a71a0e9cac015eb8de018fe9d950021a4",
    "twist-G18": "c5690c72d96e7d60a3c4dfb5727040937bdcaf2ae245e4395f37194b211f9540",
    "dual-twist-G18": "2b5aa0ba5ad5da51382c9ab447a8a55493a6e0f6595a07d351075ef79d6048a5",
    "h8-characters": "ca4a6eb74c6f7537f971804bac6dc4d2b56f4d46ae5f9f1c7adc8e0244c2f3d4",
    "h8-group-likes": "5c68f6457cecfcddc3fa698d2cf05f32c10faf34d50115a9735c4de676365803",
    "dual-h8-characters": "5c68f6457cecfcddc3fa698d2cf05f32c10faf34d50115a9735c4de676365803",
    "dual-h8-group-likes": "ca4a6eb74c6f7537f971804bac6dc4d2b56f4d46ae5f9f1c7adc8e0244c2f3d4",
    "h8-hit-left": "de97d7b109a4eec6b47ffbd506fdcba12077de127e296c8d4f35000b694036c6",
    "h8-hit-right": "8feebf16303c91f3a6f27f169b0577b0b28d4420f55abdefbf19d6384d705884",
    "h8-convolution": "1abfce04070f1ed0ed62ea1158e3df09e0b52f84d4a17de55c8cd7866e3ca943",
    "corrupted-twist-reports": "709c93156b81db59c311127fdfcfd6345ff348f05560016009afe52ab9f0cbcf",
    "dual-kS3-convolution": "5e79387fc79713b85c24b01204d090e957b5c499dc342f0580ff2b40b18eb248",
    "twist-H8-coboundary": "c8b46cfa4801d85aac175874e619f9d4ca23672d232e23445956716e008ea016",
}

def _vec(v):
    return [c.to_json() for c in v]


def _pinned_values() -> dict:
    values = {}
    for group, (subgroup, bichar) in WORKLOAD_TWISTS.items():
        g = builtin_group(group)
        twisted = twist_hopf(from_group(g),
                             build_lifted_twist(g, subgroup, bichar),
                             verify=False)
        values[f"twist-{group}"] = to_json(twisted)
        values[f"dual-twist-{group}"] = to_json(dual(twisted))
    h8 = build_h8()
    for name, h in (("h8", h8), ("dual-h8", dual(h8))):
        values[f"{name}-characters"] = [_vec(c.values)
                                        for c in algebra_characters(h)]
        values[f"{name}-group-likes"] = [_vec(v)
                                         for v in group_like_elements(h)]
    chars = algebra_characters(h8)
    basis = [h8.basis_vector(i) for i in range(h8.dim)]
    values["h8-hit-left"] = [[_vec(hit_left(eta, v, h8)) for v in basis]
                             for eta in chars]
    values["h8-hit-right"] = [[_vec(hit_right(v, eta, h8)) for v in basis]
                              for eta in chars]
    values["h8-convolution"] = [[_vec(character_convolution(h8, a, b).values)
                                 for b in chars] for a in chars]
    # the characters of (kS3)* are the points of S3, and do not commute
    functions = dual(from_group(build_symmetric(3)))
    points = algebra_characters(functions)
    values["dual-kS3-convolution"] = [
        [_vec(character_convolution(functions, a, b).values) for b in points]
        for a in points]
    # The axioms of H with Delta conjugated by each reference twist, beside
    # the antipode of H twisted by the uncorrupted one.
    reports = []
    built = {}
    for name, h, tw in _reference_twist_cases():
        base = name.split("/")[0]
        if base not in built:  # each twist comes first as built
            built[base] = twist_hopf(h, tw, verify=False)
        comult = [h.tensor_mul(h.tensor_mul(tw.value, d), tw.inverse)
                  for d in h.comult]
        conjugated = HopfData(h.labels, h.mult, h.unit, comult, h.counit,
                              built[base].antipode)
        reports.append([name, verify_twist(h, tw).to_json(),
                        verify_hopf_axioms(conjugated).to_json()])
    values["corrupted-twist-reports"] = reports
    values["twist-H8-coboundary"] = to_json(built["H8-coboundary"])
    return values


def test_hopf_functions_match_the_pinned_digests():
    digests = {name: hashlib.sha256(json.dumps(value, sort_keys=True)
                                    .encode()).hexdigest()
               for name, value in _pinned_values().items()}
    assert digests == PINNED_DIGESTS
