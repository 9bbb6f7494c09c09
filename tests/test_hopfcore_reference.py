"""Sparse Hopf kernels against a dense reference built from the JSON constants.

The reference reads ``HopfData.to_json()`` into dense arrays and computes
every product by looping over all indices, zeros included, so it shares no
code with the sparse kernels.  The associativity scan order is pinned the
same way: a naive lexicographic loop finds the first failing triple.
"""

import random
from fractions import Fraction

import pytest

from hopfcensus.cyclotomic import CycNumber
from hopfcensus.groups import AltBicharacter, build_symmetric, builtin_group
from hopfcensus.hopfcore import (HopfData, build_h8, build_lifted_twist, dual,
                                 from_group, twist_hopf, verify_hopf_axioms)

ZERO = CycNumber.zero()
ONE = CycNumber.one()


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
    ref = DenseReference(h.to_json())
    rng = random.Random(f"dense-reference-{name}")
    for _ in range(3):
        u = random_vector(rng, h.dim)
        v = random_vector(rng, h.dim)
        assert h.vec_mul(u, v) == ref.vec_mul(u, v)
        assert h.antipode_of(u) == ref.antipode_of(u)
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
    data = h.to_json()
    i, j, k, c = data["mult"][position]
    raised = CycNumber.from_json(c) + ONE
    data["mult"][position] = [i, j, k, raised.to_json()]
    expected = DenseReference(data).first_associativity_failure()
    assert expected is not None

    report = verify_hopf_axioms(HopfData.from_json(data))
    check = next(c for c in report.checks if c.axiom == "associativity")
    assert not check.passed
    assert check.detail == f"first failure at {expected}"
