"""Structure-constant Hopf algebras over exact cyclotomic scalars.

A HopfData holds the five structure tensors (multiplication, unit,
comultiplication, counit, antipode) over CycNumber, the type of every value
that leaves the module.  Multiplication, comultiplication and antipode keep
only their nonzero structure constants, and every kernel walks those alone;
unit and counit are dense vectors, as are the vectors the public API takes
and returns.

The axiom verifier, the twist checks and the twist itself run on an
integral form instead (``_Integral``): one conductor n, the lcm of the
constants' conductors, and per tensor one positive integer denominator over
which the constants become numerators in Z[zeta_n].  A numerator is a
Python int when its value is rational and otherwise a ``CycInt``, its
integer coordinates in the power basis, so sums and products need no gcd
and no descent, and equality is coordinate equality.  An axiom scales each
side by the denominators the other side carries, so verdicts and first
failures are those of the field values.  A HopfData builds its form once,
on first use; a twisted algebra is handed the form its products gave, and
its CycNumber tensors are built exactly from it.  A twist keeps only its
CycNumber values: its numerators are read where they are used, at the
conductor it shares with the algebra (``_aligned``).  The lifted cocycle
is built by counting powers of one root of unity.  Characters, group-likes,
minimal polynomials and ``LinearBasis`` divide, so they stay on CycNumber.

Everything is exact; the axiom verifier reports per-axiom pass/fail with
the first violating basis triple.

``LinearBasis`` is the module's one exact elimination: it writes a vector
of its span in the vectors it accepted, which gives minimal polynomials
and the word basis of the character search.  ``_legs`` is its one tensor
map: it applies a linear map to each leg of a sparse tensor in H (x) H,
which gives both sides of coassociativity, of the counit law and of counit
normalization, the inner terms of the cocycle identity, the antipode axiom,
the twist's antipode corrector and its inverse with one product per term,
the hit actions and the convolution of characters.  It and the sparse
kernels of ``_Tensors`` serve both scalar types.

The module covers: group algebras and duals, the 8-dimensional
Kac-Paljutkin algebra, multiplicative characters and group-like
elements, the regular hit actions, one-dimensional Yetter-Drinfeld
pairs, Drinfeld-double types of finite groups, and comultiplication
twists by 2-cocycles lifted from abelian subgroups.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from hopfcensus.cyclotomic import (MAX_CONDUCTOR, ConductorLimitError, CycInt,
                                   CycNumber, _canonical_conductor,
                                   _from_numerators, _lifted, _normalized,
                                   _polydiv_exact, _spread, divisors)
from hopfcensus.fusion import AlgebraTypeSignature, AxiomCheck, AxiomReport
from hopfcensus.groups import (AltBicharacter, FiniteGroup, GroupError,
                               _closure, abelian_decomposition)

ZERO = CycNumber.zero()
ONE = CycNumber.one()

MAX_TWIST_DIM = 40


class HopfError(ValueError):
    pass


class GeneratorsDoNotSpanError(HopfError):
    pass


class CandidateOutsideFieldError(HopfError):
    """A minimal-polynomial root falls outside the supported conductors."""


class NotAbelianSubgroupError(HopfError):
    pass


class NotNormalError(HopfError):
    pass


class TwistInvalidError(HopfError):
    pass


# -- small exact linear algebra ------------------------------------------------

class LinearBasis:
    """Row-echelon span tracker over the cyclotomic field.

    Each reduced row keeps its expression in the vectors ``add`` accepted,
    so ``coordinates`` writes a vector of the span in those vectors.  Rows
    and expressions are sparse (index, coefficient) pairs.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple] = []   # (pivot, reduced row, its expression)

    def _reduce(self, vec) -> tuple[list, dict]:
        """(vec - r, r in the accepted vectors), r the row combination that
        clears vec at every pivot."""
        vec = list(vec)
        expr: dict = {}
        for pivot, row, comb in self.rows:
            c = vec[pivot]
            if c:
                for t, x in row:
                    vec[t] = vec[t] - c * x
                _add_scaled(expr, c, comb)
        return vec, expr

    def coordinates(self, vec):
        """The coefficients of vec in the accepted vectors; None off the span."""
        red, expr = self._reduce(vec)
        if any(red):
            return None
        return tuple(expr.get(a, ZERO) for a in range(self.rank))

    def add(self, vec) -> bool:
        """Insert the vector; True if it enlarged the span."""
        red, expr = self._reduce(vec)
        pivot = next((t for t in range(self.dim) if red[t]), None)
        if pivot is None:
            return False
        inv = red[pivot].inv()
        # red = vec - sum_a expr[a] v_a, and vec is accepted vector number rank
        comb = [(a, -(e * inv)) for a, e in expr.items() if e]
        comb.append((self.rank, inv))
        self.rows.append((pivot, [(t, c * inv) for t, c in enumerate(red) if c],
                          comb))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


# -- HopfData -------------------------------------------------------------------

def _nonzeros(u) -> list:
    """The (index, coefficient) pairs of a dense vector's nonzero entries."""
    return [(i, a) for i, a in enumerate(u) if a]


def _entries(row) -> tuple:
    """A mapping or (index, coefficient) pairs as sorted nonzero pairs."""
    return tuple(sorted((k, c) for k, c in dict(row).items() if c))


def _add_scaled(out: dict, scale, entries) -> None:
    """out += scale * entries, for sparse (key, coefficient) entries."""
    for k, c in entries:
        t = scale * c
        out[k] = out[k] + t if k in out else t


def _combine(terms, rows) -> dict:
    """sum_p c_p rows[p] over sparse terms (p, c_p), rows as sparse pairs."""
    out: dict = {}
    for p, c in terms:
        _add_scaled(out, c, rows[p])
    return out


def _pruned(out: dict) -> dict:
    return {k: c for k, c in out.items() if c}


def _outer(u, v) -> dict:
    """u (x) v for dense vectors, as a sparse {(i, j): coefficient} dict."""
    v = _nonzeros(v)
    return {(i, j): a * b for i, a in _nonzeros(u) for j, b in v}


def _evaluate(values, terms, total=ZERO):
    """A functional given by its basis values, applied to sparse terms; an
    integral form passes the numerator 0 as ``total``."""
    for k, c in terms:
        total = total + c * values[k]
    return total


def _legs(t: dict, f, g) -> dict:
    """(f (x) g) t for a sparse {(i, j): coefficient} tensor t, pruned.

    f and g are leg maps: ``f[i]`` is the image of e_i as a sparse
    {key tuple: coefficient} dict, so ``h.comult`` is Delta; None stands
    for the identity, which keeps i as the key (i,).  The result is keyed
    by the concatenated key tuples: (Delta (x) id) t has triples,
    (eps (x) id) t one-tuples and (a (x) b) t for functionals the empty one.
    """
    out: dict = {}
    for (i, j), c in t.items():
        for a, x in _image(f, i, c):
            for b, y in _image(g, j, x):
                key = a + b
                out[key] = out[key] + y if key in out else y
    return _pruned(out)


def _image(f, i: int, c) -> list:
    """c f(e_i) as (key tuple, coefficient) terms; f None is the identity."""
    return [((i,), c)] if f is None else [(a, c * x) for a, x in f[i].items()]


def _functional(values) -> list:
    """The leg map of a functional given by its basis values."""
    return [{(): v} for v in values]


class _Tensors:
    """The sparse kernels over the structure tensors ``mult``, ``comult`` and
    ``antipode`` (laid out as in HopfData), whatever their scalars: CycNumber
    in a HopfData, numerators in its ``_Integral`` form.

    Operands are nonzero (index, coeff) pairs or sparse tensors; ``_product``
    and ``_comult`` return {index: coeff} dicts that may keep entries which
    cancelled to zero.
    """

    def _product(self, u, v) -> dict:
        out: dict = {}
        mult = self.mult
        for i, a in u:
            row = mult[i]
            for j, b in v:
                _add_scaled(out, a * b, row[j])
        return out

    def _comult(self, u) -> dict:
        out: dict = {}
        for i, a in u:
            _add_scaled(out, a, self.comult[i].items())
        return out

    # -- tensor helpers (elements of H (x) H as sparse {(i,j): scalar})

    def antipode_leg(self) -> list:
        """S as a leg map for ``_legs``."""
        return [{(t,): x for t, x in row} for row in self.antipode]

    def multiplied(self, t: dict) -> dict:
        """m(t), pruned."""
        out: dict = {}
        mult = self.mult
        for (a, b), c in t.items():
            _add_scaled(out, c, mult[a][b])
        return _pruned(out)

    def tensor_mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        mult = self.mult
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                cd = c * d
                right = mult[j][l]
                for p, x in mult[i][k]:
                    cx = cd * x
                    for q, y in right:
                        key, t = (p, q), cx * y
                        out[key] = out[key] + t if key in out else t
        return _pruned(out)


class HopfData(_Tensors):
    """A finite-dimensional Hopf algebra by structure constants.

    ``mult[i][j]`` (the product e_i e_j) and ``antipode[i]`` (S(e_i)) are
    tuples of their nonzero ``(k, c)`` entries, sorted by k; ``comult[i]``
    maps (j, k) to the coefficient of e_j (x) e_k in Delta(e_i).  The
    constructor accepts a mapping or pairs for each of them.  ``unit`` and
    ``counit`` are dense, as are the vectors the public methods take and
    return.  The verifier and the twist read the ``_Integral`` form, which
    ``_integral`` builds on first use and keeps.  The tensors are not
    changed after construction, so the kept form stays valid.
    """

    def __init__(self, labels, mult, unit, comult, counit, antipode):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = tuple(tuple(_entries(row) for row in plane) for plane in mult)
        self.unit = tuple(unit)
        self.comult = tuple(dict(d) for d in comult)
        self.counit = tuple(counit)
        self.antipode = tuple(_entries(row) for row in antipode)
        self._form: _Integral | None = None

    def _dense(self, out: dict) -> tuple:
        vec = [ZERO] * self.dim
        for k, c in out.items():
            vec[k] = c
        return tuple(vec)

    # -- vector-level operations

    def basis_vector(self, i: int):
        return tuple(ONE if t == i else ZERO for t in range(self.dim))

    def vec_mul(self, u, v):
        return self._dense(self._product(_nonzeros(u), _nonzeros(v)))

    def counit_of(self, u) -> CycNumber:
        return _evaluate(self.counit, _nonzeros(u))

    def comult_of(self, u) -> dict:
        return _pruned(self._comult(_nonzeros(u)))


# -- the integral form ------------------------------------------------------------

def _common_conductor(*conductors: int) -> int:
    """The lcm of the conductors; ConductorLimitError beyond MAX_CONDUCTOR."""
    n = math.lcm(*conductors)
    if _canonical_conductor(n) > MAX_CONDUCTOR:
        raise ConductorLimitError(
            f"operation needs conductor {n} > {MAX_CONDUCTOR}")
    return n


def _numerators(rows, n: int) -> tuple[list, int]:
    """Sparse rows of CycNumbers over their least common denominator d, as
    (rows of the numerators c * d, d).  A numerator is an int when c is
    rational and a CycInt at conductor n otherwise; n is a multiple of
    every conductor."""
    den = math.lcm(*(c.den for row in rows for _, c in row))
    ring = CycInt.of(n)
    return [tuple((k, c.num[0] * (den // c.den)) if c.conductor == 1 else
                  (k, ring(_lifted(c, n)) * (den // c.den)) for k, c in row)
            for row in rows], den


def _plain(c):
    """A numerator whose value is rational as an int, so that products with
    it scale rather than multiply vectors."""
    return c if type(c) is int or any(c[1:]) else c[0]


def _number(c, den: int) -> CycNumber:
    """The CycNumber c / den of a numerator c, built exactly."""
    if type(c) is int:
        return _normalized(1, [c], den)
    return _from_numerators(c.n, list(c), den)


class _Integral(_Tensors):
    """A HopfData's five tensors over Z[zeta_n], n a multiple of the lcm of
    its constants' conductors: each tensor is its numerators over one
    positive integer denominator, kept in ``dens`` as (mult, unit, comult,
    counit, antipode).  Numerators multiply with no gcd and no descent, and
    compare coordinatewise; a comparison scales each side by the
    denominators the other side carries and it lacks.
    """

    def __init__(self, h: HopfData, n: int):
        m = self.dim = h.dim
        self.n = n
        rows, dm = _numerators([row for plane in h.mult for row in plane], n)
        self.mult = tuple(tuple(rows[i * m:(i + 1) * m]) for i in range(m))
        (unit,), du = _numerators([tuple(enumerate(h.unit))], n)
        self.unit = tuple(c for _, c in unit)
        rows, dc = _numerators([tuple(d.items()) for d in h.comult], n)
        self.comult = tuple(dict(row) for row in rows)
        (counit,), de = _numerators([tuple(enumerate(h.counit))], n)
        self.counit = tuple(c for _, c in counit)
        self.antipode, ds = _numerators(h.antipode, n)
        self.dens = (dm, du, dc, de, ds)


def _integral(h: HopfData) -> _Integral:
    """h's integral form, built on first use at the lcm of h's conductors
    and kept."""
    if h._form is None:
        h._form = _Integral(h, _common_conductor(*(
            c.conductor for c in itertools.chain(
                h.unit, h.counit,
                (c for plane in h.mult for row in plane for _, c in row),
                (c for d in h.comult for c in d.values()),
                (c for row in h.antipode for _, c in row)))))
    return h._form


def _scaled(t: dict, k: int) -> dict:
    """k t for a sparse tensor t and a positive integer k."""
    return t if k == 1 else {key: c * k for key, c in t.items()}


# -- axiom verification -----------------------------------------------------------

def _generator_rows(h: HopfData) -> list[int]:
    """Basis indices from which one-term products reach every basis index.

    Indices are taken in order: one joins when it is not yet reached, and
    the reached set is then closed under products e_a e_b = c e_k with a
    single nonzero term (so e_k = e_a e_b / c), by the shared kernel
    ``groups._closure`` with every index its own dual.  Every index not
    chosen is reached from chosen indices below it.
    """
    one_term = [[row if len(row) == 1 else () for row in plane]
                for plane in h.mult]
    reached: frozenset[int] = frozenset()
    chosen = []
    for i in range(h.dim):
        if i not in reached:
            chosen.append(i)
            reached = _closure(one_term, range(h.dim), i, reached)
    return chosen


def verify_hopf_axioms(h: HopfData) -> AxiomReport:
    """Check every Hopf axiom exactly, reporting each axiom's first failure.

    Failures are reported at the first basis triple or pair in
    lexicographic order.  Products of basis elements are read straight from
    the sparse structure constants.

    Associativity, counit multiplicativity, bialgebra compatibility and
    coassociativity scan only the triples, pairs and rows whose first index
    is a generator row (see ``_generator_rows``, which closes the reached
    indices with the shared closure kernel ``groups._closure``); every other
    index k is reached from generator rows below it by products
    e_a e_b = c e_k with c != 0.  The x with (xy)z = x(yz) for all y, z
    form a subspace closed under products, so it holds e_k once it holds e_a
    and e_b.  Once H is associative the same is true of the x with
    eps(xy) = eps(x) eps(y) for all y, and of those with
    Delta(xy) = Delta(x) Delta(y); until then those two scans take every
    row.  Once H is also a bialgebra, Delta and Delta (x) id are algebra
    maps, so (Delta (x) id) Delta and (id (x) Delta) Delta are too, and the
    x they agree on (their equalizer) form a subalgebra; until then
    coassociativity takes every row.  So a row that
    is not a generator row passes when the rows below it pass: the first
    failing row is a generator row, and the reduced scan reports the full
    scan's first failure without a second scan.
    Associativity costs O(|G| * dim^2) products for |G| generator rows.

    The scans read the ``_Integral`` form: each side of an axiom is scaled
    by the tensor denominators the other side carries and it lacks, so
    every verdict and first failure is that of the field values.
    """
    f = _integral(h)
    dm, du, dc, de, ds = f.dens
    checks: list[AxiomCheck] = []
    m = f.dim
    mult, comult, counit = f.mult, f.comult, f.counit
    columns = [[mult[p][k] for p in range(m)] for k in range(m)]  # e_p e_k
    unit = _nonzeros(f.unit)

    def add(axiom, bad, failure):
        checks.append(AxiomCheck(axiom, bad is None,
                                 "" if bad is None else f"{failure}{bad}"))

    def combination(terms, rows) -> dict:
        if len(terms) == 1:  # c times a row of nonzeros: nothing cancels
            (p, c), = terms
            return {k: c * x for k, x in rows[p]}
        return _pruned(_combine(terms, rows))

    def first(fails, *ranges):
        """The first index tuple of the ranges' product that fails."""
        return next((t for t in itertools.product(*ranges) if fails(*t)), None)

    every = range(m)
    generators = _generator_rows(f)

    # (e_i e_j) e_k against e_i (e_j e_k)
    bad = first(lambda i, j, k: combination(mult[i][j], columns[k]) !=
                combination(mult[j][k], mult[i]), generators, every, every)
    add("associativity", bad, "first failure at ")
    rows = generators if bad is None else every

    one = du * dm
    bad = next((i for i in range(m)
                if combination(unit, columns[i]) != {i: one}
                or combination(unit, mult[i]) != {i: one}), None)
    add("unit", bad, "unit law fails at basis element ")

    # Bialgebra compatibility is decided first, as it can shorten the
    # coassociativity scan; the report keeps the axioms' order.
    compatible = None
    if _scaled(_pruned(f._comult(unit)), du) != \
            _scaled(_outer(f.unit, f.unit), dc):
        compatible = "unit"
    if compatible is None and _evaluate(counit, unit, 0) != de * du:
        compatible = "counit(1)"
    if compatible is None:
        compatible = first(lambda i, j: de * _evaluate(counit, mult[i][j], 0) !=
                           dm * counit[i] * counit[j], rows, every)
    if compatible is None:
        compatible = first(lambda i, j: _scaled(_pruned(f._comult(mult[i][j])),
                                                dc * dm) !=
                           f.tensor_mul(comult[i], comult[j]), rows, every)

    bad = next((i for i in (rows if compatible is None else every)
                if _legs(comult[i], comult, None) !=
                _legs(comult[i], None, comult)), None)
    add("coassociativity", bad, "fails on basis element ")

    eps = _functional(counit)
    bad = next((i for i in range(m) if not _legs(comult[i], eps, None) ==
                _legs(comult[i], None, eps) == {(i,): dc * de}), None)
    add("counit", bad, "counit law fails at basis element ")

    add("bialgebra-compatibility", compatible, "fails at ")

    # m (S (x) id) Delta (e_i) and m (id (x) S) Delta (e_i) against eps(e_i) 1
    antipode = f.antipode_leg()
    lacks = dc * ds * dm
    bad = next((i for i in range(m)
                if not _scaled(f.multiplied(_legs(comult[i], antipode, None)),
                               de * du) ==
                _scaled(f.multiplied(_legs(comult[i], None, antipode)),
                        de * du) ==
                _pruned({k: counit[i] * u * lacks for k, u in unit})), None)
    add("antipode", bad, "antipode axiom fails at basis element ")

    bad = next((i for i in range(m)
                if combination(f.antipode[i], f.antipode) != {i: ds * ds}),
               None)
    add("antipode-squared-identity", bad, "S^2 differs from id at ")

    return AxiomReport(tuple(checks))


# -- constructions -----------------------------------------------------------------

def from_group(g: FiniteGroup) -> HopfData:
    m = g.order
    mult = [[{g.table[i][j]: ONE} for j in range(m)] for i in range(m)]
    unit = [ONE if i == g.identity else ZERO for i in range(m)]
    comult = [{(i, i): ONE} for i in range(m)]
    counit = [ONE] * m
    antipode = [{g.inv(i): ONE} for i in range(m)]
    labels = [f"g{i}" for i in range(m)]
    return HopfData(labels, mult, unit, comult, counit, antipode)


def dual(h: HopfData) -> HopfData:
    """The dual Hopf algebra: all five tensors transposed."""
    m = h.dim
    mult = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for (j, k), c in h.comult[i].items():
            mult[j][k][i] = c
    unit = list(h.counit)
    comult: list[dict] = [dict() for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for k, c in h.mult[i][j]:
                comult[k][(i, j)] = c
    counit = list(h.unit)
    antipode = [{} for _ in range(m)]
    for k in range(m):
        for i, c in h.antipode[k]:
            antipode[i][k] = c
    labels = [f"{name}*" for name in h.labels]
    return HopfData(labels, mult, unit, comult, counit, antipode)


def build_h8() -> HopfData:
    """The nontrivial 8-dimensional semisimple Hopf algebra.

    Generators x, y, z with x^2 = y^2 = 1, xy = yx, zx = yz, zy = xz and
    z^2 = (1 + x + y - xy)/2; the comultiplication of z is
    ((1+y) (x) 1 + (1-y) (x) x)(z (x) z)/2.  Basis order is fixed as
    1, x, y, xy, z, xz, yz, xyz; all report values refer to it.
    """
    labels = ("1", "x", "y", "xy", "z", "xz", "yz", "xyz")
    half = CycNumber.from_rational(Fraction(1, 2))

    # Klein part: w = (a, b) encodes x^a y^b
    klein = [(0, 0), (1, 0), (0, 1), (1, 1)]
    kidx = {w: i for i, w in enumerate(klein)}

    def kmul(u, v):
        return ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2)

    def sigma(w):  # conjugation by z swaps x and y
        return (w[1], w[0])

    m = 8
    mult = [[{} for _ in range(m)] for _ in range(m)]
    zsq = {(0, 0): half, (1, 0): half, (0, 1): half, (1, 1): -half}

    def index(w, d):
        return kidx[w] + 4 * d

    for w1 in klein:
        for d1 in (0, 1):
            for w2 in klein:
                for d2 in (0, 1):
                    i, j = index(w1, d1), index(w2, d2)
                    if d1 == 0:
                        mult[i][j][index(kmul(w1, w2), d2)] = ONE
                    elif d2 == 0:
                        mult[i][j][index(kmul(w1, sigma(w2)), 1)] = ONE
                    else:
                        base = kmul(w1, sigma(w2))
                        for w, c in zsq.items():
                            k = index(kmul(base, w), 0)
                            mult[i][j][k] = mult[i][j].get(k, ZERO) + c
    unit = [ONE] + [ZERO] * 7
    counit = [ONE] * 8

    comult: list[dict] = [dict() for _ in range(m)]
    for w in klein:
        comult[index(w, 0)][(index(w, 0), index(w, 0))] = ONE
    # Delta(z) = (z (x) z + yz (x) z + z (x) xz - yz (x) xz)/2, then
    # Delta(wz) = (w (x) w) Delta(z).
    zz = {((0, 0), (0, 0)): half, ((0, 1), (0, 0)): half,
          ((0, 0), (1, 0)): half, ((0, 1), (1, 0)): -half}
    for w in klein:
        entry = {}
        for (u, v), c in zz.items():
            entry[(index(kmul(w, u), 1), index(kmul(w, v), 1))] = c
        comult[index(w, 1)] = entry

    # The antipode of a bialgebra is unique; with this multiplication and
    # comultiplication the antipode axiom forces S(z) = z, hence
    # S(w z) = S(z) S(w) = z w, which permutes the basis by w z -> sigma(w) z.
    antipode = [{} for _ in range(m)]
    for w in klein:
        antipode[index(w, 0)][index(w, 0)] = ONE  # involutions are self-inverse
        antipode[index(w, 1)][index(sigma(w), 1)] = ONE
    return HopfData(labels, mult, unit, comult, counit, antipode)


# -- characters and group-likes ------------------------------------------------------

class CharacterFunctional:
    """A multiplicative functional on a HopfData, by values on the basis."""

    def __init__(self, values):
        self.values = tuple(values)

    def __call__(self, u) -> CycNumber:
        if isinstance(u, int):
            return self.values[u]
        return _evaluate(self.values, _nonzeros(u))

    def __eq__(self, other):
        return isinstance(other, CharacterFunctional) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def __repr__(self):
        return f"CharacterFunctional({list(self.values)})"


@functools.cache
def _root_candidates() -> tuple[CycNumber, ...]:
    """0 together with every root of unity the scalar field supports.

    Each root is built once, as a primitive d-th root zeta_d^j with j
    coprime to d: roots of different orders differ, and a supported root
    has an order d whose canonical conductor is at most MAX_CONDUCTOR, so
    d <= 2 * MAX_CONDUCTOR.  The values are distinct without a set.
    """
    out = [ZERO]
    for d in range(1, 2 * MAX_CONDUCTOR + 1):
        if _canonical_conductor(d) <= MAX_CONDUCTOR:
            out += (CycNumber.root_of_unity(d, j) for j in range(d)
                    if math.gcd(j, d) == 1)
    return tuple(sorted(out, key=CycNumber.sort_key))


def minimal_polynomial(h: HopfData, vec) -> list[CycNumber]:
    """Monic minimal polynomial of an algebra element, ascending coefficients."""
    basis = LinearBasis(h.dim)
    power = h.unit
    while basis.add(power):
        power = h.vec_mul(power, vec)
    # power is the first one add rejected: write it in the lower ones
    return [-c for c in basis.coordinates(power)] + [ONE]


def _poly_eval(coeffs, point: CycNumber) -> CycNumber:
    value = ZERO
    for c in reversed(coeffs):
        value = value * point + c
    return value


def _rational_root_candidates(coeffs) -> list[CycNumber]:
    """Rational-root-theorem candidates, for all-rational coefficients."""
    if not all(c.is_rational() for c in coeffs):
        return []
    fracs = [c.rational_value() for c in coeffs]
    scale = 1
    for f in fracs:
        scale = math.lcm(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    lead, const = ints[-1], ints[0]
    if const == 0:
        return [ZERO]
    out = []
    for p in divisors(abs(const)):
        for q in divisors(abs(lead)):
            out.append(CycNumber.from_rational(Fraction(p, q)))
            out.append(CycNumber.from_rational(Fraction(-p, q)))
    return out


def _poly_roots_in_field(coeffs) -> list[CycNumber]:
    """All roots of a monic polynomial that lie in the supported fields.

    Candidates are zero, the supported roots of unity, rational-root-theorem
    candidates when the coefficients are rational, and (for a linear factor)
    the exact field root.  A quadratic factor no candidate divides is split
    when its discriminant is (q s)^2, with q rational and s a supported root
    of unity.  Raises when the polynomial does not fully split that way.
    """
    remaining = list(coeffs)
    roots: list[CycNumber] = []
    while len(remaining) > 2:
        candidates = itertools.chain(_root_candidates(),
                                     _rational_root_candidates(remaining))
        cand = next((c for c in candidates if not _poly_eval(remaining, c)), None)
        if cand is None:
            break
        remaining = _polydiv_exact(remaining, [-cand, ONE])
        roots.append(cand)
    if len(remaining) == 3:
        roots += _quadratic_roots(remaining[0], remaining[1])
    elif len(remaining) == 2:
        roots.append(-remaining[0])
    if len(roots) < len(coeffs) - 1:
        raise CandidateOutsideFieldError(
            "minimal polynomial does not split over the supported fields")
    return roots


def _quadratic_roots(c: CycNumber, b: CycNumber) -> list[CycNumber]:
    """The roots (-b +- q s) / 2 of t^2 + b t + c for the first supported
    root of unity s with (b^2 - 4c) / s^2 the square of a rational q >= 0,
    or [] when there is none."""
    disc = b * b - 4 * c
    for s in _root_candidates():
        field = math.lcm(disc.conductor, b.conductor, s.conductor)
        if not s or _canonical_conductor(field) > MAX_CONDUCTOR:
            continue
        ratio = disc / (s * s)
        value = ratio.rational_value() if ratio.is_rational() else -1
        if value >= 0:
            q = Fraction(math.isqrt(value.numerator),
                         math.isqrt(value.denominator))
            if q * q == value:
                return [(q * s - b) / 2, (-q * s - b) / 2]
    return []


def _words(h: HopfData, generators=None) -> tuple[list, list, LinearBasis]:
    """The generators, a word basis of the subalgebra they generate, and
    the LinearBasis whose accepted vectors are the words' products.

    Words are letter tuples (positions in the generator list).  Each word is
    multiplied once by each letter, in the order the words were found, and a
    product that enlarges the span joins as a word.  Without ``generators``,
    index i becomes a letter when e_i lies outside the span so far, a greedy
    choice, and only the new letter's products are added.
    """
    basis = LinearBasis(h.dim)
    basis.add(h.unit)
    letters: list[int] = []
    words: list[tuple[int, ...]] = [()]
    products = [h.unit]

    def join(new):  # old words meet the new letters, new words every letter
        old, first = len(words), len(letters)
        letters.extend(new)
        w = 0
        while w < len(words) and basis.rank < h.dim:
            for pos in range(first if w < old else 0, len(letters)):
                vec = h.vec_mul(products[w], h.basis_vector(letters[pos]))
                if basis.add(vec):
                    words.append(words[w] + (pos,))
                    products.append(vec)
            w += 1

    if generators is not None:
        join(generators)
    else:
        for i in range(h.dim):
            if basis.rank < h.dim and basis.coordinates(h.basis_vector(i)) is None:
                join([i])
    return letters, words, basis


def algebra_characters(h: HopfData, generators=None) -> list[CharacterFunctional]:
    """All multiplicative functionals, from minimal-polynomial root candidates.

    Candidate values per generator are the roots of its minimal polynomial
    lying in the supported cyclotomic fields; assignments extend
    multiplicatively along a spanning word basis and survive only if
    multiplicative on every basis pair.
    """
    generators, words, basis = _words(h, generators)
    if basis.rank != h.dim:
        raise GeneratorsDoNotSpanError(
            f"indices {generators} generate a subalgebra of rank {basis.rank}")

    root_sets = []
    for g in generators:
        poly = minimal_polynomial(h, h.basis_vector(g))
        roots = sorted(set(_poly_roots_in_field(poly)), key=CycNumber.sort_key)
        root_sets.append(roots)

    # pairwise products of generators expanded in the word basis give early
    # consistency constraints: value(e_a e_b) must equal value(a)*value(b).
    # Each pair's nonzero terms are filed under the depth at which the
    # pair's generators and every letter of its terms are assigned: a pair
    # is checked once, at that depth, as its value never changes deeper down
    checks_at: list[list] = [[] for _ in range(len(generators) + 1)]
    for a, b in itertools.product(range(len(generators)), repeat=2):
        combo = basis.coordinates(h.vec_mul(h.basis_vector(generators[a]),
                                            h.basis_vector(generators[b])))
        terms = [(letters, c) for letters, c in zip(words, combo) if c]
        depth = 1 + max([a, b] + [g for letters, _ in terms for g in letters])
        checks_at[depth].append((a, b, terms))
    # each e_i in the word basis, so a functional is read off its word values
    in_words = [_nonzeros(basis.coordinates(h.basis_vector(i)))
                for i in range(h.dim)]

    results = []
    assignment: list[CycNumber] = []

    def word_value(letters) -> CycNumber:
        total = ONE
        for gpos in letters:
            total = total * assignment[gpos]
        return total

    def consistent_so_far() -> bool:
        for a, b, terms in checks_at[len(assignment)]:
            total = ZERO
            for letters, c in terms:
                total = total + c * word_value(letters)
            if total != assignment[a] * assignment[b]:
                return False
        return True

    def descend():
        if len(assignment) == len(generators):
            values = [word_value(letters) for letters in words]
            func = CharacterFunctional(_evaluate(values, row) for row in in_words)
            if _is_multiplicative(h, func):
                results.append(func)
            return
        for root in root_sets[len(assignment)]:
            assignment.append(root)
            if consistent_so_far():
                descend()
            assignment.pop()

    descend()
    results.sort(key=CharacterFunctional.sort_key)
    return results


def _is_multiplicative(h: HopfData, func: CharacterFunctional) -> bool:
    values = func.values
    if func(h.unit) != ONE:
        return False
    for i in range(h.dim):
        vi = values[i]
        for j in range(h.dim):
            if _evaluate(values, h.mult[i][j]) != vi * values[j]:
                return False
    return True


def character_convolution(h: HopfData, a: CharacterFunctional,
                          b: CharacterFunctional) -> CharacterFunctional:
    """Product in the dual algebra: (a*b)(e_i) = sum a(e_i(1)) b(e_i(2))."""
    left, right = _functional(a.values), _functional(b.values)
    return CharacterFunctional(_legs(entry, left, right).get((), ZERO)
                               for entry in h.comult)


def group_like_elements(h: HopfData) -> list[tuple]:
    """Vectors v with Delta v = v (x) v and counit 1, via dual characters."""
    chars = algebra_characters(dual(h))
    out = []
    for eta in chars:
        v = eta.values
        if h.comult_of(v) != _outer(v, v) or h.counit_of(v) != ONE:
            continue
        out.append(v)
    out.sort(key=lambda v: tuple(c.sort_key() for c in v))
    return out


# -- hit actions and Yetter-Drinfeld pairs --------------------------------------------

def hit_left(eta: CharacterFunctional, u, h: HopfData):
    """eta harpoon u = sum <eta, u_(2)> u_(1)."""
    legs = _legs(h._comult(_nonzeros(u)), None, _functional(eta.values))
    return h._dense({j: c for (j,), c in legs.items()})


def hit_right(u, eta: CharacterFunctional, h: HopfData):
    """u harpoon eta = sum <eta, u_(1)> u_(2)."""
    legs = _legs(h._comult(_nonzeros(u)), _functional(eta.values), None)
    return h._dense({k: c for (k,), c in legs.items()})


@dataclass(frozen=True)
class YDPairReport:
    pairs: tuple[tuple[tuple, CharacterFunctional], ...]
    group: FiniteGroup
    invariant_factors: tuple[int, ...] | None


def yd_one_dim_pairs(h: HopfData, glikes=None, chars=None) -> YDPairReport:
    """Pairs (g, eta) with (eta -> v) g = g (v <- eta) on every basis element.

    These index the one-dimensional Yetter-Drinfeld modules; the report
    carries the group they form under componentwise product.  A caller
    that already holds ``group_like_elements(h)`` or
    ``algebra_characters(h)`` passes them in place of a second computation.
    """
    if glikes is None:
        glikes = group_like_elements(h)
    if chars is None:
        chars = algebra_characters(h)
    # Each hit action, group-like product and convolution is built once,
    # keyed by what it reads: a character and a basis index, or two
    # group-likes, or two characters.
    hits = [[(hit_left(eta, v, h), hit_right(v, eta, h))
             for v in map(h.basis_vector, range(h.dim))] for eta in chars]
    found = [(a, b) for a, g in enumerate(glikes) for b in range(len(chars))
             if all(h.vec_mul(left, g) == h.vec_mul(g, right)
                    for left, right in hits[b])]
    pairs = [(glikes[a], chars[b]) for a, b in found]
    index = {pair: t for t, pair in enumerate(pairs)}
    times = functools.cache(lambda a, c: h.vec_mul(glikes[a], glikes[c]))
    convolution = functools.cache(
        lambda b, d: character_convolution(h, chars[b], chars[d]))
    table = [[index[times(a, c), convolution(b, d)] for c, d in found]
             for a, b in found]
    group = FiniteGroup(table, name="YDpairs")
    factors: tuple[int, ...] | None
    try:
        factors = abelian_decomposition(group).orders
    except GroupError:
        factors = None
    return YDPairReport(tuple(pairs), group, factors)


def central_group_likes(h: HopfData, glikes) -> list[tuple]:
    """The members of ``glikes``, the group-likes of h, central in h."""
    out = []
    for g in glikes:
        if all(h.vec_mul(g, h.basis_vector(i)) == h.vec_mul(h.basis_vector(i), g)
               for i in range(h.dim)):
            out.append(g)
    return out


def is_cocommutative(h: HopfData) -> bool:
    for entry in h.comult:
        for (j, k), c in entry.items():
            if entry.get((k, j), ZERO) != c:
                return False
    return True


# -- Drinfeld double types --------------------------------------------------------

def drinfeld_double_group_type(g: FiniteGroup) -> AlgebraTypeSignature:
    """Algebra type of the double of a group algebra.

    Irreducibles are indexed by (conjugacy class, centralizer irreducible)
    with dimension class size times centralizer degree.
    """
    return AlgebraTypeSignature.from_counts(Counter(
        len(cls) * d for cls in g.conjugacy_classes
        for d in g.subgroup_as_group(g.centralizer(cls[0]))[0]
        .irreducible_degrees))


# -- cocycle twists -----------------------------------------------------------------

@dataclass(frozen=True)
class TwistElement:
    """An invertible normalized 2-cocycle in H (x) H, stored sparsely as
    {(i, j): coefficient} in ascending key order.  Its numerators over
    Z[zeta_n] are read where they are used, by ``_aligned``."""
    dim: int
    value: dict[tuple[int, int], CycNumber]
    inverse: dict[tuple[int, int], CycNumber]


def _aligned(h: HopfData, twist: TwistElement):
    """(n, h's integral form at conductor n, phi's and phi^{-1}'s numerator
    dicts, (their denominators)) for n the lcm of all their conductors.
    h's kept form serves when it is rational or at n; otherwise a form at n
    is built for this call and not kept."""
    f = _integral(h)
    n = _common_conductor(f.n, *(c.conductor for t in (twist.value,
                                                       twist.inverse)
                                 for c in t.values()))
    if f.n not in (1, n):
        f = _Integral(h, n)
    (value,), dp = _numerators([tuple(twist.value.items())], n)
    (inverse,), dq = _numerators([tuple(twist.inverse.items())], n)
    return n, f, dict(value), dict(inverse), (dp, dq)


def _abelian_subgroup(g: FiniteGroup, subgroup, bichar: AltBicharacter):
    """The subgroup as a group, its index map to g and its abelian
    decomposition, once it is checked to be an abelian subgroup whose
    invariants are the bicharacter's orders."""
    if not g.is_subgroup(subgroup):
        raise NotAbelianSubgroupError("subset is not a subgroup")
    a_group, to_parent = g.subgroup_as_group(subgroup)
    if not a_group.is_abelian:
        raise NotAbelianSubgroupError("subgroup is not abelian")
    decomp = abelian_decomposition(a_group)
    if tuple(bichar.orders) != tuple(decomp.orders):
        raise NotAbelianSubgroupError(
            f"bicharacter orders {bichar.orders} do not match the subgroup "
            f"invariants {decomp.orders}")
    return a_group, to_parent, decomp


def build_lifted_twist(g: FiniteGroup, subgroup,
                       bichar: AltBicharacter) -> TwistElement:
    """The 2-cocycle sum omega(x, y) delta_x (x) delta_y in kA (x) kA.

    A is an abelian subgroup of G; omega is rebuilt from the alternating
    bicharacter by the upper-triangular splitting on coordinates of the
    character group of A.  Different splittings give cohomologous cocycles
    and gauge-equivalent twists, so the canonical one is used.

    With |A| delta_x = sum_a x(a) a, the coefficient of a (x) b is
    |A|^-2 sum_{x,y} x(a) omega(x, y) y(b), and each factor is a power of
    zeta_e, e the exponent of A: x(a) = zeta_e^<x,a> and omega(x, y) =
    zeta_e^w(x,y).  So |A|^2 phi(a, b) = sum_t N_t zeta_e^t, where N_t
    counts the pairs (x, y) with <x,a> + w(x,y) + <y,b> = t (mod e), and
    phi^{-1} is the same count with -w.  The count runs in two stages, as
    the sum would: the counts over y once per (x, b), then each added to
    N at (a, b) shifted by <x,a>, so the cost is O(|A|^3 e) integer
    additions and one CycNumber per entry.
    """
    a_group, to_parent, decomp = _abelian_subgroup(g, subgroup, bichar)
    orders = decomp.orders
    e = _common_conductor(*orders)  # A's exponent, within the field limit
    size = a_group.order
    chars = list(itertools.product(*[range(m) for m in orders]))
    # <x, a>, and w as its coefficients on x_i y_j, i < j: the bicharacter
    # value is zeta_q^t for q = gcd(m_i, m_j), read once
    pairing = [[sum(xi * ai * (e // m) for xi, ai, m in
                    zip(x, decomp.coords[a], orders)) % e for a in range(size)]
               for x in chars]
    terms = []
    for i, j in itertools.combinations(range(len(orders)), 2):
        q = math.gcd(orders[i], orders[j])
        t = next(t for t in range(q) if bichar.values[i][j] ==
                 CycNumber.root_of_unity(q, t))
        terms.append((i, j, t * (e // q)))
    w = [[sum(x[i] * y[j] * c for i, j, c in terms) for y in chars]
         for x in chars]
    den = size * size
    out = []
    for sign in (1, -1):
        counts = [[[0] * e for _ in range(size)] for _ in range(size)]
        for b, column in enumerate(counts):  # column[a]: N_t at (a, b)
            for x, shifts in enumerate(pairing):
                inner = Counter([(sign * w[x][y] + pairing[y][b]) % e
                                 for y in range(size)])
                for u, c in inner.items():
                    for vec, s in zip(column, shifts):
                        vec[(u + s) % e] += c
        entries = {}  # to_parent increases, so the keys ascend
        for a, b in itertools.product(range(size), repeat=2):
            vec = _spread(counts[b][a], e)
            if any(vec):
                entries[to_parent[a], to_parent[b]] = \
                    _from_numerators(e, vec, den)
        out.append(entries)
    return TwistElement(g.order, *out)


def verify_twist(h: HopfData, twist: TwistElement) -> AxiomReport:
    """Counit normalization, invertibility and the 2-cocycle identity.

    As 1 is the unit, the cocycle identity's left side is
    sum_s (phi X_s) (x) e_s for (Delta (x) id)(phi) = sum_s X_s (x) e_s, and
    its right side sum_p e_p (x) (phi Y_p) for (id (x) Delta)(phi) =
    sum_p e_p (x) Y_p.  The checks read the integral forms of h and of the
    twist, scaled as in ``verify_hopf_axioms``.
    """
    _, f, phi, phi_inv, (dp, dq) = _aligned(h, twist)
    dm, du, _, de, _ = f.dens
    checks = []

    eps = _functional(f.counit)
    ok = (_scaled(_legs(phi, eps, None), du) ==
          _scaled(_legs(phi, None, eps), du) ==
          {(k,): u * dp * de for k, u in _nonzeros(f.unit)})
    checks.append(AxiomCheck("counit-normalization", ok,
                             "" if ok else "(eps (x) id) phi is not 1"))

    one = _scaled(_outer(f.unit, f.unit), dp * dq * dm * dm)
    ok = (_scaled(f.tensor_mul(phi, phi_inv), du * du) == one and
          _scaled(f.tensor_mul(phi_inv, phi), du * du) == one)
    checks.append(AxiomCheck("invertibility", ok,
                             "" if ok else "phi * phi^{-1} differs from 1 (x) 1"))

    left: dict = {}
    for (p, q, s), c in _legs(phi, f.comult, None).items():
        left.setdefault(s, {})[(p, q)] = c
    right: dict = {}
    for (p, q, r), c in _legs(phi, None, f.comult).items():
        right.setdefault(p, {})[(q, r)] = c
    ok = ({(a, b, s): c for s, x in left.items()
           for (a, b), c in f.tensor_mul(phi, x).items()} ==
          {(p, a, b): c for p, y in right.items()
           for (a, b), c in f.tensor_mul(phi, y).items()})
    checks.append(AxiomCheck("cocycle-identity", ok,
                             "" if ok else "the two cocycle sides differ"))
    return AxiomReport(tuple(checks))


def twist_hopf(h: HopfData, twist: TwistElement, verify: bool = True) -> HopfData:
    """Twist the comultiplication: Delta_phi = phi Delta(.) phi^{-1}.

    The antipode becomes U S(.) U^{-1} with U = m(id (x) S)(phi) =
    sum phi^(1) S(phi^(2)), whose inverse is Drinfeld's
    U^{-1} = m(S (x) id)(phi^{-1}); multiplication, unit and counit are
    unchanged.  With ``verify`` the twist is checked first and the full Hopf
    axiom suite then runs on the result; failures raise.  Without it the
    caller vouches that the twist passes ``verify_twist``, and so that U is
    invertible with that inverse: the cocycle identity is what makes it so.

    The products run on the integral forms.  The result is a copy of h that
    shares its multiplication, unit and counit and keeps the form the
    products give, so verifying it converts nothing; its coproduct and
    antipode are built exactly from that form's numerators.
    """
    if h.dim > MAX_TWIST_DIM:
        raise TwistInvalidError(f"twisting capped at dimension {MAX_TWIST_DIM}")
    if verify:
        report = verify_twist(h, twist)
        if not report.passed:
            raise TwistInvalidError(
                "twist verification failed: " +
                "; ".join(c.axiom for c in report.failures()))
    n, f, phi, phi_inv, (dp, dq) = _aligned(h, twist)
    dm, du, dc, de, ds = f.dens
    form = copy.copy(f)
    form.n = n
    form.comult = tuple(
        {key: _plain(c) for key, c in
         f.tensor_mul(f.tensor_mul(phi, middle), phi_inv).items()}
        for middle in f.comult)
    u = f.multiplied(_legs(phi, None, f.antipode_leg())).items()
    uinv = f.multiplied(_legs(phi_inv, f.antipode_leg(), None)).items()
    form.antipode = tuple(
        tuple((k, _plain(c)) for k, c in
              _entries(f._product(f._product(u, row).items(), uinv)))
        for row in f.antipode)
    # phi Delta phi^{-1} takes two tensor products, four mult constants; U
    # carries dp ds dm, U^{-1} dq ds dm, and U S U^{-1} two more products
    d_comult = dp * dq * dc * dm ** 4
    d_antipode = dp * dq * ds ** 3 * dm ** 4
    form.dens = (dm, du, d_comult, de, d_antipode)
    twisted = copy.copy(h)
    twisted.comult = tuple({key: _number(c, d_comult) for key, c in d.items()}
                           for d in form.comult)
    twisted.antipode = tuple(tuple((k, _number(c, d_antipode)) for k, c in row)
                             for row in form.antipode)
    twisted._form = form
    if verify:
        rep = verify_hopf_axioms(twisted)
        if not rep.passed:
            raise TwistInvalidError(
                "twisted algebra fails axioms: " +
                "; ".join(c.axiom for c in rep.failures()))
    return twisted


def surviving_group_likes(g: FiniteGroup, twist: TwistElement) -> tuple[int, ...]:
    """Group elements with (g (x) g) phi = phi (g (x) g): the twisted group-likes
    supported on the group basis."""
    phi = twist.value
    out = []
    for x in range(g.order):
        left = {(g.table[x][i], g.table[x][j]): c for (i, j), c in phi.items()}
        right = {(g.table[i][x], g.table[j][x]): c for (i, j), c in phi.items()}
        if left == right:
            out.append(x)
    return tuple(out)


def cocommutativity_criterion(g: FiniteGroup, subgroup,
                              bichar: AltBicharacter) -> bool:
    """Invariance of the bicharacter under the conjugation action on the dual.

    For a normal abelian subgroup A, the twist lifted from A yields a
    cocommutative algebra exactly when B(g.x, g.y) = B(x, y) for every
    group element g and every basis pair of characters, the action on
    characters being contragredient to conjugation on A.
    """
    if not g.is_normal(subgroup):
        raise NotNormalError("subgroup is not normal")
    _, to_parent, decomp = _abelian_subgroup(g, subgroup, bichar)
    to_child = {p: c for c, p in to_parent.items()}
    orders = decomp.orders
    for x in range(g.order):
        # (x.e_i)(a) = e_i(x^{-1} a x).  With c_j the coordinates of
        # x^{-1} gen_j x, its value on gen_j is zeta_{m_i}^{c_ji}, which is
        # zeta_{m_j} to the power c_ji m_j / m_i: an integer, since
        # conjugation is an automorphism.
        coords = [decomp.coords[to_child[g.conjugate(g.inv(x), to_parent[gen])]]
                  for gen in decomp.generators]
        images = []
        for i, m_i in enumerate(orders):
            assert all(c[i] * m_j % m_i == 0 for c, m_j in zip(coords, orders))
            images.append([c[i] * m_j // m_i % m_j
                           for c, m_j in zip(coords, orders)])
        for i, j in itertools.combinations(range(len(orders)), 2):
            if bichar.evaluate(images[i], images[j]) != bichar.values[i][j]:
                return False
    return True
