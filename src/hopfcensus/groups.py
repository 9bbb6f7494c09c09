"""Finite groups as multiplication tables, with derived invariants.

Elements are indices 0..order-1; the table is validated on construction
(Latin square, associativity, two-sided inverses).  Every constructor fills
its table through ``_cayley`` from a product rule on its index encoding.
A semidirect product is built from its action table and checked by that
same validator: once the identity acts trivially, it passes exactly when
the action is by automorphisms.  Subgroups are plain sorted index tuples
inside the parent group.  All derived data (center, classes, abelian
decompositions, ...) is computed by brute-force scans, which is exact and
instant at the orders this package deals with (<= 64).
The character table is computed over F_p by Dixon's method, and the
irreducible degrees are read from it.  The closure and
element-order kernels here are shared with the fusion module, and
``hopfcore``'s generator rows close their reached set with ``_closure``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import mul

from hopfcensus.cyclotomic import CycNumber


class GroupError(ValueError):
    pass


class NotAbelianError(GroupError):
    pass


MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table."""

    def __init__(self, table, name: str = "", validate: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name or f"group{self.order}"
        if self.order > MAX_GROUP_ORDER:
            raise GroupError(f"order {self.order} exceeds supported bound {MAX_GROUP_ORDER}")
        ident = None
        for e in range(self.order):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                ident = e
                break
        if ident is None:
            raise GroupError("no identity element")
        self.identity = ident
        if validate:
            self._validate()
        self._inv = tuple(self._find_inverse(g) for g in range(self.order))

    def _validate(self):
        n = self.order
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise GroupError("table is not a Latin square (row)")
        for c in range(n):
            if sorted(self.table[r][c] for r in range(n)) != list(range(n)):
                raise GroupError("table is not a Latin square (column)")
        t = self.table
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def _find_inverse(self, g: int) -> int:
        for h in range(self.order):
            if self.table[g][h] == self.identity == self.table[h][g]:
                return h
        raise GroupError(f"element {g} has no inverse")

    # -- basic operations ---------------------------------------------------

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        return self.table[self.table[g][x]][self._inv[g]]

    def power(self, g: int, k: int) -> int:
        result = self.identity
        base = g
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def element_order(self, g: int) -> int:
        return _element_order(self._sparse, self.identity, g)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- derived invariants ---------------------------------------------------

    @cached_property
    def _sparse(self):
        """The table as one-hot rows for the closure kernels; ``_inv`` is
        their dual."""
        hot = [((k, 1),) for k in range(self.order)]
        return tuple(tuple(hot[c] for c in row) for row in self.table)

    @cached_property
    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(a))

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(g for g in range(self.order)
                     if all(self.table[g][x] == self.table[x][g]
                            for x in range(self.order)))

    def centralizer(self, g: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.order)
                     if self.table[g][x] == self.table[x][g])

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            cls = sorted({self.conjugate(x, g) for x in range(self.order)})
            for h in cls:
                seen[h] = True
            classes.append(tuple(cls))
        return tuple(classes)

    def subgroup_closure(self, gens) -> tuple[int, ...]:
        return tuple(sorted(_closure(self._sparse, self._inv, self.identity, gens)))

    @cached_property
    def commutator_subgroup(self) -> tuple[int, ...]:
        comms = {self.table[self.table[a][b]][self.table[self._inv[a]][self._inv[b]]]
                 for a in range(self.order) for b in range(self.order)}
        return self.subgroup_closure(comms)

    def is_subgroup(self, subset) -> bool:
        s = set(subset)
        return (self.identity in s
                and all(self.table[a][b] in s for a in s for b in s))

    def is_normal(self, subset) -> bool:
        s = set(subset)
        return self.is_subgroup(s) and all(
            self.conjugate(g, x) in s for g in range(self.order) for x in s)

    def subgroup_as_group(self, subset) -> tuple["FiniteGroup", dict]:
        """The subgroup as a standalone group plus index map child -> parent."""
        subset = tuple(sorted(set(subset)))
        pos = {g: i for i, g in enumerate(subset)}
        table = [[pos[self.table[a][b]] for b in subset] for a in subset]
        return FiniteGroup(table, name=f"{self.name}<{len(subset)}",
                           validate=False), dict(enumerate(subset))

    def quotient(self, normal_subset) -> tuple["FiniteGroup", list[int]]:
        """Quotient modulo a normal subgroup, plus the projection index list.
        The identity's coset is index 0, as ``FusionDatum`` needs its unit."""
        if not self.is_normal(normal_subset):
            raise GroupError("subset is not a normal subgroup")
        cosets: list[tuple[int, ...]] = []
        proj = [-1] * self.order
        for g in (self.identity, *range(self.order)):
            if proj[g] >= 0:
                continue
            coset = tuple(sorted(self.table[g][x] for x in normal_subset))
            idx = len(cosets)
            cosets.append(coset)
            for h in coset:
                proj[h] = idx
        table = [[proj[self.table[cosets[a][0]][cosets[b][0]]]
                  for b in range(len(cosets))] for a in range(len(cosets))]
        return FiniteGroup(table, name=f"{self.name}/N", validate=False), proj

    @cached_property
    def character_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(p, values): the irreducible characters as residues mod the least
        prime p = 1 mod exp(G) with p > 2|G|, so that every character value,
        a sum of exp(G)-th roots of unity, has an image in F_p and every
        degree is below p.  ``values[i][r]`` is chi_i on the r-th class of
        ``conjugacy_classes``.  The rows ascend by degree, then by their
        residues in [0, p) along the classes, so the trivial one is first.

        Dixon's method (Dixon, *High speed computation of group characters*,
        Numer. Math. 1967; Schneider, *Dixon's character table algorithm
        revisited*, J. Symbolic Comput. 1990): the class sums multiply as
        C_r C_s = sum_t a_rst C_t, so w(C_t) = |C_t| chi(g_t) / chi(1) is a
        common eigenvector of the class matrices (a_rst)_{s,t}, with
        w(C_1) = 1.  As p does not divide |G|, the class matrices split
        F_p^k into k common eigenlines.  They split it one matrix at a time,
        each space by the roots of the characteristic polynomial of the
        matrix restricted to it.  Then chi(1)^2 = |G| / sum_r w(C_r) w(C_r*)
        / |C_r| is below p, so it is read as an integer.
        """
        classes, n = self.conjugacy_classes, self.order
        k = len(classes)
        cls = {x: r for r, c in enumerate(classes) for x in c}
        unit = cls[self.identity]
        e = math.lcm(*map(self.element_order, range(n)))
        p = next(p for p in itertools.count(e * -(-2 * n // e) + 1, e)
                 if all(p % d for d in range(2, math.isqrt(p) + 1)))
        # a[r][s][t] counts the x in C_r with x^-1 z in C_s, for one z in C_t
        a = [[[0] * k for _ in range(k)] for _ in range(k)]
        for t, c in enumerate(classes):
            for r, cr in enumerate(classes):
                for x in cr:
                    a[r][cls[self.table[self._inv[x]][c[0]]]][t] += 1
        # each space is a basis and its pivots: basis[j][pivots[i]] = [i = j],
        # so a vector of the space is its values at the pivots times the basis
        spaces = [([[int(i == j) for j in range(k)] for i in range(k)], range(k))]
        for m in a[:unit] + a[unit + 1:]:  # the unit's matrix is 1
            if len(spaces) == k:
                break
            split = []
            for basis, pivots in spaces:
                restricted = [[sum(map(mul, m[i], b)) % p for b in basis]
                              for i in pivots]
                for x in _eigenvalues(restricted, p):
                    reduced, cols = _echelon(
                        [[v - x * (i == j) for j, v in enumerate(row)]
                         for i, row in enumerate(restricted)], p)
                    # one eigenvector for each column f without a pivot: b_f
                    # minus, for each row, row[f] times the b at its pivot
                    free = [f for f in range(len(basis)) if f not in cols]
                    split.append((
                        [[(basis[f][t] - sum(row[f] * basis[c][t] for row, c
                                             in zip(reduced, cols))) % p
                          for t in range(k)] for f in free],
                        [pivots[f] for f in free]))
            spaces = split
        over_size = [pow(len(c), -1, p) for c in classes]
        rows = []
        for (w,), _ in spaces:
            w = [v * pow(w[unit], -1, p) % p for v in w]
            norm = sum(w[r] * w[cls[self._inv[c[0]]]] * over_size[r]
                       for r, c in enumerate(classes))
            d = math.isqrt(n * pow(norm, -1, p) % p)
            rows.append(tuple(v * d * s % p for v, s in zip(w, over_size)))
        return p, tuple(sorted(rows, key=lambda row: (row[unit], row)))

    @cached_property
    def irreducible_degrees(self) -> tuple[int, ...]:
        """Degrees of the irreducible complex representations, ascending:
        the values of ``character_table`` at the identity."""
        unit = next(r for r, c in enumerate(self.conjugacy_classes)
                    if c[0] == self.identity)
        return tuple(row[unit] for row in self.character_table[1])


# -- linear algebra mod p -------------------------------------------------------

def _echelon(rows, p) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of ``rows`` mod p: its nonzero rows,
    each 1 at its pivot column and alone there, and the pivot columns."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0])):
        h = len(pivots)
        i = next((i for i in range(h, len(rows)) if rows[i][col] % p), None)
        if i is None:
            continue
        rows[h], rows[i] = rows[i], rows[h]
        inv = pow(rows[h][col], -1, p)
        rows[h] = [v * inv % p for v in rows[h]]
        for j, row in enumerate(rows):
            if j != h and row[col] % p:
                rows[j] = [(u - row[col] * v) % p for u, v in zip(row, rows[h])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _eigenvalues(a, p) -> list[int]:
    """The roots in F_p of det(x - a), by evaluation at every residue.  The
    coefficients come from traces (Faddeev-LeVerrier): with M_1 = 1,
    c_{n-k} = -tr(a M_k) / k and M_{k+1} = a M_k + c_{n-k}; p exceeds n, so
    each k is invertible."""
    n = len(a)
    coeffs, m = [1], [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(map(mul, row, col)) % p for col in zip(*m)] for row in a]
        coeffs.append(-sum(am[i][i] for i in range(n)) * pow(k, -1, p) % p)
        m = [[v + coeffs[-1] * (i == j) for j, v in enumerate(row)]
             for i, row in enumerate(am)]
    return [x for x in range(p)
            if not reduce(lambda acc, c: (acc * x + c) % p, coeffs)]


# -- closure kernels over sparse rows ----------------------------------------
#
# ``rows[i][j]`` lists the nonzero (k, N[i][j][k]) of the product i*j, or is
# None while that row is unknown: the structure constants of a fusion ring
# (see the fusion module).  A group table is the fusion ring whose every
# degree is 1, with one-hot rows and inversion as the dual.

def _element_order(rows, unit, g) -> int | None:
    """The least n with g^n = unit, read from the one-hot rows x*g.

    None when a row on the way is unknown, or when the powers of g miss the
    unit, as in a degree-1 block that is not a group.
    """
    x, n = g, 1
    while x != unit:
        row = rows[x][g]
        if row is None or n > len(rows):
            return None
        x = row[0][0]
        n += 1
    return n


def _closure(rows, dual, unit, seed) -> frozenset[int] | None:
    """The least set holding the unit and the seed and closed under products
    and duals, or None on meeting an unknown row.

    Each member enters the queue with its dual and, when taken, is multiplied
    on both sides by every member taken before it.  So every product of two
    members is read, and the result does not depend on the queue order.
    """
    closed = {unit, *seed}
    closed |= {dual[i] for i in closed}
    queue, taken = list(closed), []
    while queue:
        a = queue.pop()
        taken.append(a)
        for b in taken:
            for row in (rows[a][b], rows[b][a]):
                if row is None:
                    return None
                for k, _ in row:
                    if k not in closed:
                        new = {k, dual[k]}
                        closed |= new
                        queue.extend(new)
    return frozenset(closed)


# -- abelian structure ------------------------------------------------------

@dataclass(frozen=True)
class AbelianDecomposition:
    """An abelian group with a chosen basis realizing its invariant factors.

    ``coords[g]`` are the exponents of g in the basis ``generators``;
    ``orders`` are the invariant factors, an ascending divisibility chain.
    """
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    coords: dict[int, tuple[int, ...]] = field(repr=False)


def abelian_decomposition(a: FiniteGroup) -> AbelianDecomposition:
    if not a.is_abelian:
        raise NotAbelianError(f"{a.name} is not abelian")
    gens_desc: list[int] = []
    orders_desc: list[int] = []

    def peel(grp: FiniteGroup, lift_to_parent):
        """Extract a maximal-order generator, recurse on the quotient."""
        if grp.order == 1:
            return
        g = max(range(grp.order), key=lambda x: (grp.element_order(x), -x))
        m = grp.element_order(g)
        gens_desc.append(lift_to_parent(g))
        orders_desc.append(m)
        q, proj = grp.quotient(grp.subgroup_closure([g]))

        def lift_from_quotient(qe: int) -> int:
            candidates = [h for h in range(grp.order) if proj[h] == qe]
            mq = q.element_order(qe)
            # Correct a lift h so that its order in grp equals its order in
            # the quotient: h^mq lands in <g>, say g^t, with mq | t, and
            # h * g^(-t/mq) is the corrected representative.
            h = min(candidates)
            hm = grp.power(h, mq)
            t = 0
            x = grp.identity
            while x != hm:
                x = grp.table[x][g]
                t += 1
                if t > m:
                    raise GroupError("power of lift escaped the cyclic kernel")
            corrected = grp.table[h][grp.power(grp.inv(g), t // mq)]
            return lift_to_parent(corrected)

        peel(q, lift_from_quotient)

    peel(a, lambda x: x)
    generators = tuple(reversed(gens_desc))
    orders = tuple(reversed(orders_desc))

    coords: dict[int, tuple[int, ...]] = {}
    ranges = [range(m) for m in orders]
    for exps in itertools.product(*ranges):
        g = a.identity
        for e, x in zip(generators, exps):
            g = a.table[g][a.power(e, x)]
        if g in coords:
            raise GroupError("basis enumeration is not injective")
        coords[g] = exps
    if len(coords) != a.order:
        raise GroupError("basis does not span the group")
    return AbelianDecomposition(generators, orders, coords)


# -- constructions ----------------------------------------------------------

def _cayley(order: int, product) -> list[list[int]]:
    """The table of ``product`` on the indices 0..order-1."""
    return [[product(a, b) for b in range(order)] for a in range(order)]


def build_cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(_cayley(n, lambda a, b: (a + b) % n),
                       name=f"Z{n}", validate=False)


def build_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index d*n + i encodes r^i s^d."""
    # r^i s r^j = r^(i-j) s
    table = _cayley(2 * n, lambda a, b: (a // n + b // n) % 2 * n
                    + (a - b if a >= n else a + b) % n)
    return FiniteGroup(table, name=f"D{n}", validate=False)


def build_quaternion() -> FiniteGroup:
    """Quaternion group of order 8; index d*4 + i encodes a^i b^d."""
    # a^i b a^j b^d = a^(i-j) b^(1+d), as b a = a^-1 b, and b^2 = a^2
    table = _cayley(8, lambda x, y: (x // 4 + y // 4) % 2 * 4
                    + (x - y + 2 * (y // 4) if x >= 4 else x + y) % 4)
    return FiniteGroup(table, name="Q8", validate=False)


def build_symmetric(n: int) -> FiniteGroup:
    if n > 4:
        raise GroupError("symmetric groups supported up to n = 4")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = _cayley(len(perms), lambda a, b:
                    index[tuple(perms[a][x] for x in perms[b])])
    return FiniteGroup(table, name=f"S{n}", validate=False)


def build_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    k = h.order
    table = _cayley(g.order * k, lambda a, b: g.table[a // k][b // k] * k
                    + h.table[a % k][b % k])
    return FiniteGroup(table, name=f"{g.name}x{h.name}", validate=False)


def action_from_generator_images(actor: FiniteGroup, target: FiniteGroup,
                                 images: dict[int, list[int]]
                                 ) -> tuple[tuple[int, ...], ...]:
    """The action table of ``actor`` on the elements of ``target``: row g is
    the permutation by which the actor element g acts.

    ``images`` gives the rows of some actor generators; the other rows are
    filled in by composing along products.  ``build_semidirect`` checks the
    result.
    """
    rows: dict[int, tuple[int, ...]] = {actor.identity: tuple(range(target.order))}
    for g, perm in images.items():
        rows[g] = tuple(perm)
    changed = True
    while changed and len(rows) < actor.order:
        changed = False
        for a in list(rows):
            for b in list(rows):
                ab = actor.table[a][b]
                if ab not in rows:
                    rows[ab] = tuple(rows[a][rows[b][x]] for x in range(target.order))
                    changed = True
    if len(rows) != actor.order:
        raise GroupError("generator images do not determine the action")
    return tuple(rows[g] for g in range(actor.order))


def build_semidirect(n: FiniteGroup, q: FiniteGroup,
                     act: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """Semidirect product N x| Q with (n,q)(n',q') = (n * (q . n'), q q').

    ``act[b]`` is the permutation by which the element b of Q acts on N.
    Once the identity of Q acts trivially, the table is associative exactly
    when every row is an endomorphism of N and the rows compose
    multiplicatively, and it is a Latin square exactly when every row is a
    bijection: so the validating ``FiniteGroup`` constructor checks that Q
    acts by automorphisms.
    """
    if len(act) != q.order or any(len(row) != n.order for row in act):
        raise GroupError("action table has wrong shape")
    if tuple(act[q.identity]) != tuple(range(n.order)):
        raise GroupError("identity does not act trivially")
    k = q.order
    table = _cayley(n.order * k, lambda a, b:
                    n.table[a // k][act[a % k][b // k]] * k
                    + q.table[a % k][b % k])
    return FiniteGroup(table, name=f"{n.name}:{q.name}")


# -- alternating bicharacters -------------------------------------------------

@dataclass(frozen=True)
class AltBicharacter:
    """An alternating bicharacter on an abelian group with a chosen basis.

    ``values[i][j]`` is the value on the (i, j) basis pair; diagonal 1,
    values[i][j] * values[j][i] = 1, and each value is a root of unity of
    order dividing gcd(orders[i], orders[j]).  Evaluation on arbitrary
    elements extends bimultiplicatively.
    """
    orders: tuple[int, ...]
    values: tuple[tuple[CycNumber, ...], ...]

    def __post_init__(self):
        k = len(self.orders)
        one = CycNumber.one()
        if len(self.values) != k or any(len(r) != k for r in self.values):
            raise GroupError("bicharacter matrix has wrong shape")
        for i in range(k):
            if self.values[i][i] != one:
                raise GroupError("bicharacter is not alternating on the diagonal")
            for j in range(k):
                if self.values[i][j] * self.values[j][i] != one:
                    raise GroupError("bicharacter is not antisymmetric")
                g = math.gcd(self.orders[i], self.orders[j])
                if self.values[i][j] ** g != one:
                    raise GroupError("bicharacter value has wrong order")

    @staticmethod
    def trivial(orders) -> "AltBicharacter":
        one = CycNumber.one()
        k = len(orders)
        return AltBicharacter(tuple(orders),
                              tuple(tuple(one for _ in range(k)) for _ in range(k)))

    @staticmethod
    def nondegenerate_rank2(m: int) -> "AltBicharacter":
        """The standard symplectic bicharacter on Z_m x Z_m."""
        one = CycNumber.one()
        z = CycNumber.root_of_unity(m, 1)
        return AltBicharacter((m, m), ((one, z), (z.inv(), one)))

    def evaluate(self, x, y) -> CycNumber:
        value = CycNumber.one()
        k = len(self.orders)
        for i in range(k):
            if not x[i]:
                continue
            for j in range(k):
                if y[j] and self.values[i][j] != CycNumber.one():
                    value = value * self.values[i][j] ** (x[i] * y[j])
        return value


# -- built-in registry --------------------------------------------------------

def _build_g12() -> FiniteGroup:
    """Order-12 semidirect product of Z_3 by the Klein group, both reflections
    acting by inversion."""
    f = build_cyclic(3)
    gamma = build_product(build_cyclic(2), build_cyclic(2))
    inversion = [0, 2, 1]
    act = action_from_generator_images(
        gamma, f, {1: inversion, 2: inversion})
    g = build_semidirect(f, gamma, act)
    g.name = "G12"
    return g


def _build_g18() -> FiniteGroup:
    """Order-18 semidirect product of Z_3 x Z_3 by Z_2, inverting the first
    factor and fixing the second."""
    gamma = build_product(build_cyclic(3), build_cyclic(3))
    f = build_cyclic(2)
    # gamma index = 3*s + t; the actor inverts s and fixes t.
    perm = [3 * ((3 - s) % 3) + t for s in range(3) for t in range(3)]
    act = action_from_generator_images(f, gamma, {1: perm})
    g = build_semidirect(gamma, f, act)
    g.name = "G18"
    return g


BUILTIN_GROUPS = {
    "Z2": lambda: build_cyclic(2),
    "Z3": lambda: build_cyclic(3),
    "Z4": lambda: build_cyclic(4),
    "Z2xZ2": lambda: build_product(build_cyclic(2), build_cyclic(2)),
    "S3": lambda: build_symmetric(3),
    "D4": lambda: build_dihedral(4),
    "Q8": build_quaternion,
    "D3xD3": lambda: build_product(build_dihedral(3), build_dihedral(3)),
    "G12": _build_g12,
    "G18": _build_g18,
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        g = BUILTIN_GROUPS[name]()
    except KeyError:
        raise GroupError(f"unknown group name {name!r}; "
                         f"known: {', '.join(sorted(BUILTIN_GROUPS))}") from None
    g.name = name
    return g
