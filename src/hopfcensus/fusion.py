"""Based rings of irreducible characters and the infeasibility search.

A FusionDatum stores nonnegative integer structure constants
``N[i][j][k]`` (the multiplicity of basis element k in the product i*j)
together with degrees and a duality involution.  ``verify_fusion_datum``
checks the based-ring axioms, and under the "hopf" profile also the
divisibility facts available for character rings of semisimple Hopf
algebras (Nichols-Zoeller stabilizer bounds, standard-subalgebra
divisibility, and the Nichols-Richmond dichotomy for degree-2 elements).

``search_fusion`` decides whether an algebra-type signature admits any
fusion datum satisfying a profile, by deterministic backtracking over the
structure constants with constraint propagation.  It is the oracle the
census module delegates to for type eliminations that the divisibility
rules alone cannot see.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from hopfcensus.groups import FiniteGroup, abelian_decomposition


class FusionError(ValueError):
    pass


class UnsupportedGroupError(FusionError):
    pass


class InconsistentOrbitDataError(FusionError):
    pass


class BudgetExhausted(Exception):
    pass


# -- algebra type signatures ---------------------------------------------------

@dataclass(frozen=True)
class AlgebraTypeSignature:
    """A type (1, n; d_1, n_1; ...; d_r, n_r) with its dimension identity."""

    n: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise FusionError("the count of degree-1 components must be positive")
        seen = set()
        for d, m in self.entries:
            if d < 2 or m < 1:
                raise FusionError(f"bad entry ({d},{m})")
            if d in seen:
                raise FusionError(f"degree {d} repeated")
            seen.add(d)
        if tuple(sorted(self.entries)) != self.entries:
            raise FusionError("entries must be sorted by degree")

    @property
    def total(self) -> int:
        return self.n + sum(m * d * d for d, m in self.entries)

    @property
    def n2(self) -> int:
        return dict(self.entries).get(2, 0)

    def multiplicity(self, d: int) -> int:
        return dict(self.entries).get(d, 0)

    @property
    def degrees_present(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def basis_degrees(self) -> tuple[int, ...]:
        out = [1] * self.n
        for d, m in self.entries:
            out.extend([d] * m)
        return tuple(out)

    @staticmethod
    def parse(text: str) -> "AlgebraTypeSignature":
        parts = [p.strip() for p in text.strip().split(";") if p.strip()]
        pairs = []
        for p in parts:
            bits = p.split(",")
            try:
                d, m = (int(b) for b in bits)
            except ValueError:
                raise FusionError(f"cannot parse type component {p!r}") from None
            pairs.append((d, m))
        if not pairs or pairs[0][0] != 1:
            raise FusionError("type string must start with the 1,n component")
        n = pairs[0][1]
        return AlgebraTypeSignature(n, tuple(sorted(pairs[1:])))

    def __str__(self) -> str:
        return ";".join([f"1,{self.n}"] + [f"{d},{m}" for d, m in self.entries])

    def sort_key(self):
        return (self.n, self.entries)


# -- fusion data ----------------------------------------------------------------

class FusionDatum:
    """A based ring: degrees, duality and integer structure constants."""

    def __init__(self, degrees, dual, constants, unit: int = 0):
        self.degrees = tuple(int(d) for d in degrees)
        self.size = len(self.degrees)
        self.dual = tuple(int(x) for x in dual)
        self.unit = unit
        self.constants = tuple(tuple(tuple(int(v) for v in row)
                                     for row in plane) for plane in constants)
        if len(self.dual) != self.size or len(self.constants) != self.size:
            raise FusionError("inconsistent sizes")

    # -- basic queries

    @cached_property
    def one_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def indices_of_degree(self, d: int) -> tuple[int, ...]:
        return tuple(i for i, deg in enumerate(self.degrees) if deg == d)

    def n(self, i: int, j: int, k: int) -> int:
        return self.constants[i][j][k]

    @cached_property
    def sparse(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """``sparse[i][j]`` lists the nonzero (k, N[i][j][k]) by ascending k."""
        return tuple(tuple(tuple((k, v) for k, v in enumerate(row) if v)
                           for row in plane) for plane in self.constants)

    def multiply(self, i: int, j: int) -> tuple[int, ...]:
        return self.constants[i][j]

    def signature(self) -> AlgebraTypeSignature:
        counts: dict[int, int] = {}
        for d in self.degrees:
            counts[d] = counts.get(d, 0) + 1
        n = counts.pop(1, 0)
        return AlgebraTypeSignature(n, tuple(sorted(counts.items())))

    @cached_property
    def group_product(self) -> dict[tuple[int, int], int]:
        """Multiplication of the degree-1 elements, if they close as a group."""
        table = {}
        for g in self.one_indices:
            for h in self.one_indices:
                row = self.sparse[g][h]
                if len(row) != 1 or row[0][1] != 1 or self.degrees[row[0][0]] != 1:
                    raise FusionError("degree-1 elements do not close as a group")
                table[(g, h)] = row[0][0]
        return table

    def group_element_order(self, g: int) -> int:
        prod = self.group_product
        x, n = g, 1
        while x != self.unit:
            x = prod[(x, g)]
            n += 1
        return n

    def left_stabilizer(self, i: int) -> tuple[int, ...]:
        """The subgroup {g of degree 1 : g * chi_i = chi_i}."""
        row = self.constants[i][self.dual[i]]
        return tuple(g for g in self.one_indices if row[g] == 1)

    def quotient_end_dim(self, subgroup, i: int) -> int:
        """Endomorphism dimension of chi_i in the quotient modulo the subgroup."""
        sub = tuple(sorted(subgroup))
        ones = set(self.one_indices)
        if not set(sub) <= ones:
            raise FusionError("subgroup must consist of degree-1 indices")
        prod = self.group_product
        for a in sub:
            for b in sub:
                if prod[(a, b)] not in sub:
                    raise FusionError("subset is not closed under the group product")
        row = self.constants[self.dual[i]][i]
        return sum(row[g] for g in sub)

    # -- standard subalgebras

    def support_closure(self, seed) -> frozenset[int]:
        closed = {self.unit, *seed}
        closed |= {self.dual[i] for i in closed}
        frontier = list(closed)
        sparse = self.sparse
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(closed):
                    for k, _ in sparse[a][b] + sparse[b][a]:
                        if k not in closed:
                            closed.add(k)
                            closed.add(self.dual[k])
                            nxt.append(k)
            frontier = nxt
        return frozenset(closed)

    def standard_subalgebras(self) -> list[tuple[tuple[int, ...], int]]:
        """All closed subsets containing the unit, with dimensions sum deg^2.

        Every closed subset is the join of the single-element closures of its
        members, so saturating the atom closures under join enumerates the
        whole lattice without touching all 2^r subsets.
        """
        found: set[frozenset[int]] = {self.support_closure(())}
        for i in range(self.size):
            found.add(self.support_closure((i,)))
        changed = True
        while changed:
            changed = False
            for s in list(found):
                for i in range(self.size):
                    if i in s:
                        continue
                    joined = self.support_closure(s | {i})
                    if joined not in found:
                        found.add(joined)
                        changed = True
        out = [(tuple(sorted(s)), sum(self.degrees[i] ** 2 for i in s))
               for s in found]
        out.sort(key=lambda pair: (pair[1], pair[0]))
        return out

    # -- biaction orbits

    def _one_perm(self, g: int, side: str) -> list[int]:
        perm = [-1] * self.size
        for i in range(self.size):
            row = self.sparse[g][i] if side == "left" else self.sparse[i][g]
            if len(row) != 1 or row[0][1] != 1:
                raise FusionError("degree-1 translation is not a permutation")
            perm[i] = row[0][0]
        return perm

    def biaction_orbits(self, d: int) -> "BiactionReport":
        xs = self.indices_of_degree(d) if d > 1 else ()
        ones = self.one_indices
        left = {g: self._one_perm(g, "left") for g in ones}
        right = {h: self._one_perm(h, "right") for h in ones}
        inv = {h: self.dual[h] for h in ones}
        orbits = []
        seen: set[int] = set()
        for x in xs:
            if x in seen:
                continue
            members = {x}
            frontier = [x]
            while frontier:
                y = frontier.pop()
                for g in ones:
                    for h in ones:
                        z = left[g][right[inv[h]][y]]
                        if z not in members:
                            members.add(z)
                            frontier.append(z)
            seen |= members
            rep = min(members)
            stab = tuple((g, h) for g in ones for h in ones
                         if left[g][right[inv[h]][rep]] == rep)
            orbits.append(OrbitInfo(tuple(sorted(members)), rep, stab))
        prop = self._prop_pq_check(d, xs)
        return BiactionReport(d, tuple(orbits), prop)

    def _prop_pq_check(self, d: int, xs) -> str:
        """For a nonabelian degree-1 group of order p*q (p < q primes) with all
        degree-p stabilizers nontrivial, q^2 must divide |X_p|."""
        ones = self.one_indices
        prod = self.group_product
        n = len(ones)
        abelian = all(prod[(a, b)] == prod[(b, a)] for a in ones for b in ones)
        factors = _prime_factors(n)
        if (abelian or len(factors) != 2 or factors[0] == factors[1]
                or d != factors[0] or not xs):
            return "vacuous"
        if any(len(self.left_stabilizer(x)) <= 1 for x in xs):
            return "vacuous"
        q = factors[1]
        return "holds" if len(xs) % (q * q) == 0 else "violated"

    # -- serialization

    def to_json(self) -> dict:
        sparse = [[i, j, k, v] for i, plane in enumerate(self.sparse)
                  for j, row in enumerate(plane) for k, v in row]
        return {"degrees": list(self.degrees), "dual": list(self.dual),
                "constants": sparse}

    @staticmethod
    def from_json(data) -> "FusionDatum":
        """The datum of ``to_json`` output; malformed input raises FusionError."""
        if not isinstance(data, dict):
            raise FusionError("a fusion datum must be a JSON object")
        missing = [key for key in ("degrees", "dual", "constants")
                   if key not in data]
        if missing:
            raise FusionError(f"fusion datum lacks {', '.join(missing)}")
        degrees, dual, entries = data["degrees"], data["dual"], data["constants"]
        if not (_int_list(degrees) and _int_list(dual)
                and isinstance(entries, list)
                and all(_int_list(e) and len(e) == 4 for e in entries)):
            raise FusionError("degrees and dual must be integer lists, and "
                              "constants a list of [i, j, k, multiplicity]")
        r = len(degrees)
        constants = [[[0] * r for _ in range(r)] for _ in range(r)]
        for i, j, k, v in entries:
            if not all(0 <= x < r for x in (i, j, k)):
                raise FusionError(f"constant {[i, j, k, v]} has an index "
                                  f"outside 0..{r - 1}")
            if v < 0:
                raise FusionError(f"constant {[i, j, k, v]} has a negative "
                                  f"multiplicity")
            constants[i][j][k] = v
        return FusionDatum(degrees, dual, constants)


def _int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, int) for x in value)


@dataclass(frozen=True)
class OrbitInfo:
    members: tuple[int, ...]
    representative: int
    stabilizer: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BiactionReport:
    degree: int
    orbits: tuple[OrbitInfo, ...]
    prop_pq: str


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# -- verification ----------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FusionReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"axiom": c.axiom, "passed": c.passed, "detail": c.detail}
                           for c in self.checks]}


PROFILES = ("basic", "hopf")


def verify_fusion_datum(f: FusionDatum, profile: str = "basic") -> FusionReport:
    """Check the based-ring axioms, and under "hopf" the divisibility facts.

    Each failed axiom reports its first failure in a fixed scan order.
    Associativity applies the search's sparse triple kernel to every
    (i, j, k) in lexicographic order: r^3 calls over the nonzero constants.
    """
    if profile not in PROFILES:
        raise FusionError(f"unknown profile {profile!r}")
    checks: list[AxiomCheck] = []
    r = f.size
    deg = f.degrees

    def add(axiom, passed, detail=""):
        checks.append(AxiomCheck(axiom, passed, detail))

    # structural sanity
    ok = (f.unit in range(r) and deg[f.unit] == 1 and f.dual[f.unit] == f.unit
          and sorted(f.dual) == list(range(r))
          and all(f.dual[f.dual[i]] == i for i in range(r))
          and all(deg[f.dual[i]] == deg[i] for i in range(r)))
    add("well-formed", ok, "" if ok else "unit/duality data malformed")
    if not ok:
        return FusionReport(tuple(checks))

    bad = next(((i, j) for i in range(r) for j in range(r)
                if sum(v * deg[k] for k, v in f.sparse[i][j]) != deg[i] * deg[j]),
               None)
    add("degree-homomorphism", bad is None,
        "" if bad is None else f"row {bad} violates the degree sum")

    bad = next(((i, j, k) for i in range(r) for j in range(r) for k in range(r)
                if f.n(i, j, k) != f.n(j, f.dual[k], f.dual[i])
                or f.n(i, j, k) != f.n(k, f.dual[j], i)), None)
    add("frobenius-symmetry", bad is None,
        "" if bad is None else f"constant {bad} breaks adjunction symmetry")

    bad = next(((j, k) for j in range(r) for k in range(r)
                if f.n(f.unit, j, k) != (1 if j == k else 0)
                or f.n(j, f.unit, k) != (1 if j == k else 0)), None)
    add("unit", bad is None, "" if bad is None else f"unit row fails at {bad}")

    bad = next(((i, j) for i in range(r) for j in range(r)
                if f.n(i, j, f.unit) != (1 if j == f.dual[i] else 0)), None)
    add("duality", bad is None,
        "" if bad is None else f"multiplicity of the unit wrong in product {bad}")

    bad = next(((i, g) for i in range(r) for g in f.one_indices
                if f.n(i, f.dual[i], g) > 1), None)
    add("group-like-multiplicity", bad is None,
        "" if bad is None else f"chi chi* contains a degree-1 element twice: {bad}")

    try:
        f.group_product
        for g in f.one_indices:
            f._one_perm(g, "left")
            f._one_perm(g, "right")
        add("degree-one-group", True)
        group_ok = True
    except FusionError as exc:
        add("degree-one-group", False, str(exc))
        group_ok = False

    bad = None
    for i, j, k in itertools.product(range(r), repeat=3):
        l = _associativity_defect(f.sparse, i, j, k)
        if l is not None:
            bad = (i, j, k, l)
            break
    add("associativity", bad is None,
        "" if bad is None else f"associativity fails at {bad}")

    if profile == "hopf":
        total = sum(d * d for d in deg)
        for i in range(r):
            if deg[i] == 1:
                continue
            stab = f.left_stabilizer(i)
            if (deg[i] ** 2) % len(stab) != 0:
                add("stabilizer-size", False,
                    f"|G[chi_{i}]| = {len(stab)} does not divide {deg[i] ** 2}")
                break
        else:
            add("stabilizer-size", True)
        if group_ok:
            bad = None
            for i in range(r):
                if deg[i] == 1:
                    continue
                for g in f.left_stabilizer(i):
                    if deg[i] % f.group_element_order(g) != 0:
                        bad = (i, g)
                        break
                if bad:
                    break
            add("stabilizer-exponent", bad is None,
                "" if bad is None else
                f"element {bad[1]} of G[chi_{bad[0]}] has order not dividing the degree")
        else:
            add("stabilizer-exponent", False, "no degree-1 group")
        bad = next((s for s in f.standard_subalgebras() if total % s[1] != 0), None)
        add("closure-divisibility", bad is None,
            "" if bad is None else
            f"standard subalgebra of dimension {bad[1]} does not divide {total}")
        add_nr = _check_nr_dichotomy(f)
        checks.append(add_nr)

    return FusionReport(tuple(checks))


def _associativity_defect(rows, x, y, z) -> int | None:
    """The least l at which (x*y)*z and x*(y*z) differ, or None.

    ``rows[i][j]`` lists the nonzero (k, N[i][j][k]) of i*j: a datum's
    ``sparse`` view or a search's completed rows.  It reads rows x*y, y*z,
    t*z for t in x*y and x*s for s in y*z.
    """
    diff: dict[int, int] = {}
    for t, a in rows[x][y]:
        for l, b in rows[t][z]:
            diff[l] = diff.get(l, 0) + a * b
    for s, a in rows[y][z]:
        for l, b in rows[x][s]:
            diff[l] = diff.get(l, 0) - a * b
    return min((l for l, v in diff.items() if v), default=None)


def _check_nr_dichotomy(f: FusionDatum) -> AxiomCheck:
    """Degree-2 elements: nontrivial stabilizer, or chi chi* = 1 + (degree-3).

    When the datum has no degree-4 element, the degree-3 companion psi must
    additionally satisfy psi^2 = sum of its order-3 stabilizer plus 2 psi.
    """
    deg = f.degrees
    has4 = 4 in deg
    for i in f.indices_of_degree(2):
        if len(f.left_stabilizer(i)) > 1:
            continue
        support = [(k, v) for k, v in f.sparse[i][f.dual[i]] if k != f.unit]
        if len(support) != 1 or support[0][1] != 1 or deg[support[0][0]] != 3:
            return AxiomCheck(
                "nr-dichotomy", False,
                f"chi_{i} has trivial stabilizer but chi chi* is not 1 + psi(3)")
        psi = support[0][0]
        if f.dual[psi] != psi:
            return AxiomCheck("nr-dichotomy", False,
                              f"companion psi_{psi} is not self-dual")
        if not has4:
            stab = f.left_stabilizer(psi)
            prow = f.constants[psi][psi]
            expected_ok = (len(stab) == 3 and prow[psi] == 2
                           and all(prow[g] == (1 if g in stab else 0)
                                   for g in f.one_indices)
                           and all(prow[k] == 0 for k in range(f.size)
                                   if deg[k] > 1 and k != psi))
            if not expected_ok:
                return AxiomCheck(
                    "nr-dichotomy", False,
                    f"psi_{psi} does not satisfy psi^2 = (order-3 group) + 2 psi")
    return AxiomCheck("nr-dichotomy", True)


# -- fusion data from groups ------------------------------------------------------

def from_group_characters(g: FiniteGroup) -> FusionDatum:
    """The character ring of a group: abelian groups, or the shipped tables
    for the nonabelian groups of order 6 and 8."""
    if g.is_abelian:
        decomp = abelian_decomposition(g)
        tuples = list(itertools.product(*[range(m) for m in decomp.orders]))
        index = {t: i for i, t in enumerate(tuples)}
        r = len(tuples)
        dual = [index[tuple(-x % m for x, m in zip(t, decomp.orders))]
                for t in tuples]
        constants = [[[0] * r for _ in range(r)] for _ in range(r)]
        for a, ta in enumerate(tuples):
            for b, tb in enumerate(tuples):
                c = index[tuple((x + y) % m for x, y, m
                                in zip(ta, tb, decomp.orders))]
                constants[a][b][c] = 1
        return FusionDatum([1] * r, dual, constants)
    if g.order == 6:
        degrees = [1, 1, 2]
        dual = [0, 1, 2]
        constants = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        for (a, b), c in table.items():
            constants[a][b][c] = 1
        for gidx in (0, 1):
            constants[gidx][2][2] = 1
            constants[2][gidx][2] = 1
        constants[2][2][0] = constants[2][2][1] = constants[2][2][2] = 1
        return FusionDatum(degrees, dual, constants)
    if g.order == 8:
        degrees = [1, 1, 1, 1, 2]
        dual = [0, 1, 2, 3, 4]
        constants = [[[0] * 5 for _ in range(5)] for _ in range(5)]
        for a in range(4):
            for b in range(4):
                constants[a][b][a ^ b] = 1
            constants[a][4][4] = 1
            constants[4][a][4] = 1
        for a in range(4):
            constants[4][4][a] = 1
        return FusionDatum(degrees, dual, constants)
    raise UnsupportedGroupError(
        f"no shipped character ring for nonabelian group {g.name} of order {g.order}")


# -- quotient coalgebra arithmetic -------------------------------------------------

def quotient_coalgebra_type(signature: AlgebraTypeSignature,
                            orbit_data) -> tuple[int, ...]:
    """Component dimensions of the quotient coalgebra modulo a group action.

    ``orbit_data`` lists every orbit of simple components as a triple
    (component dimension d^2, orbit size, stabilizer order); orbit size
    times stabilizer order must be one common group order, the covered
    dimensions must exhaust the total, and each orbit contributes one
    component of dimension d^2 / stabilizer order.
    """
    if not orbit_data:
        raise InconsistentOrbitDataError("empty orbit data")
    sizes = {orbit * stab for _, orbit, stab in orbit_data}
    if len(sizes) != 1:
        raise InconsistentOrbitDataError(
            f"orbit size times stabilizer order is not constant: {sorted(sizes)}")
    group_order = sizes.pop()
    covered = sum(dsq * orbit for dsq, orbit, _ in orbit_data)
    if covered != signature.total:
        raise InconsistentOrbitDataError(
            f"orbit data covers dimension {covered}, expected {signature.total}")
    out = []
    for dsq, orbit, stab in orbit_data:
        if dsq % stab != 0:
            raise InconsistentOrbitDataError(
                f"component of dimension {dsq} not divisible by stabilizer {stab}")
        out.append(dsq * orbit // group_order)
    if sum(out) * group_order != signature.total:
        raise InconsistentOrbitDataError("quotient dimensions do not add up")
    return tuple(sorted(out))


# -- the search --------------------------------------------------------------------

@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "feasible" | "infeasible" | "inconclusive"
    nodes: int
    witness: FusionDatum | None = None
    trace: str | None = None

    def to_json(self) -> dict:
        out = {"status": self.status, "nodes": self.nodes}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.trace is not None:
            out["trace"] = self.trace
        return out


MAX_SEARCH_BASIS = 12


def search_fusion(signature: AlgebraTypeSignature, profile: str = "hopf",
                  budget: int = 10 ** 7) -> SearchOutcome:
    """Decide feasibility of a type signature under the axiom profile.

    Deterministic backtracking over the structure constants in a fixed
    variable order; a Feasible outcome carries the lexicographically least
    witness, Infeasible means the whole tree was refuted.
    """
    if profile not in PROFILES:
        raise FusionError(f"unknown profile {profile!r}")
    degrees = signature.basis_degrees()
    if len(degrees) > MAX_SEARCH_BASIS:
        raise FusionError(
            f"basis size {len(degrees)} exceeds search bound {MAX_SEARCH_BASIS}")
    nodes = 0
    first_trace: str | None = None
    for dual in _dual_patterns(degrees):
        searcher = _Search(degrees, dual, profile, budget - nodes)
        try:
            witness = searcher.run()
        except BudgetExhausted:
            return SearchOutcome("inconclusive", nodes + searcher.nodes,
                                 trace="node budget exhausted")
        nodes += searcher.nodes
        if first_trace is None:
            first_trace = searcher.first_failure
        if witness is not None:
            return SearchOutcome("feasible", nodes, witness=witness)
    return SearchOutcome("infeasible", nodes,
                         trace=first_trace or "no admissible assignment")


def _dual_patterns(degrees):
    """Canonical duality involutions, one per choice of swap counts.

    Within each degree class the elements may be relabeled freely, so only
    the number of dual 2-cycles matters; pairs are laid out consecutively.
    The unit (index 0) is always self-dual.
    """
    classes: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        classes.setdefault(d, []).append(i)
    class_list = sorted(classes.items())
    options = []
    for d, members in class_list:
        pool = [i for i in members if i != 0]
        choices = []
        for swaps in range(len(pool) // 2 + 1):
            pairing = {}
            for s in range(swaps):
                a, b = pool[2 * s], pool[2 * s + 1]
                pairing[a] = b
                pairing[b] = a
            choices.append(pairing)
        options.append(choices)
    for combo in itertools.product(*options):
        dual = list(range(len(degrees)))
        for pairing in combo:
            for a, b in pairing.items():
                dual[a] = b
        yield tuple(dual)


class _Search:
    """One backtracking run for a fixed duality pattern."""

    def __init__(self, degrees, dual, profile, budget):
        self.deg = degrees
        self.r = len(degrees)
        self.dual = dual
        self.profile = profile
        self.budget = budget
        self.nodes = 0
        self.first_failure: str | None = None
        r = self.r
        self.total = sum(d * d for d in degrees)
        self.ones = tuple(i for i in range(r) if degrees[i] == 1)
        self.value: list[list[list[int | None]]] = \
            [[[None] * r for _ in range(r)] for _ in range(r)]
        self.row_sum = [[0] * r for _ in range(r)]
        self.row_left = [[r] * r for _ in range(r)]  # unassigned entries in row
        self.row_complete = [[False] * r for _ in range(r)]
        # rows[i][j]: nonzero (k, v) of row (i, j), current while it is complete
        self.rows: list[list[tuple]] = [[()] * r for _ in range(r)]
        self.trail: list[tuple[int, int, int]] = []
        self._orbits: dict[tuple[int, int, int], tuple] = {}
        self._static_ub: dict[tuple[int, int, int], int] = {}
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    orbit = tuple(self._orbit_of(i, j, k))
                    self._orbits[(i, j, k)] = orbit
                    ub = min((degrees[a] * degrees[b]) // degrees[c]
                             for a, b, c in orbit)
                    if degrees[k] == 1:
                        ub = min(ub, 1)
                    self._static_ub[(i, j, k)] = ub
        self._preassign()
        self.order = self._variable_order()

    # -- setup

    def _preassign(self):
        r, dual = self.r, self.dual
        for j in range(r):
            for k in range(r):
                self._raw_set(0, j, k, 1 if j == k else 0)
                if j != 0:
                    self._raw_set(j, 0, k, 1 if j == k else 0)
        for i in range(r):
            for j in range(r):
                if (i, j) == (0, 0) or i == 0 or j == 0:
                    continue
                self._raw_set(i, j, 0, 1 if j == dual[i] else 0)
        self.trail.clear()

    def _raw_set(self, i, j, k, v):
        if self.value[i][j][k] is not None:
            assert self.value[i][j][k] == v
            return
        self.value[i][j][k] = v
        self.row_sum[i][j] += v * self.deg[k]
        self.row_left[i][j] -= 1
        if self.row_left[i][j] == 0:
            self.row_complete[i][j] = True
            self.rows[i][j] = tuple((t, x) for t, x in enumerate(self.value[i][j])
                                    if x)
        self.trail.append((i, j, k))

    def _variable_order(self):
        """Rows in the order: degree-1 group block, then chi * chi-dual rows by
        ascending degree, then degree-1 translates, then the rest by ascending
        degree product.  Entries within a row go by ascending index."""
        r, deg, dual = self.r, self.deg, self.dual
        group_rows = [(g, h) for g in self.ones for h in self.ones
                      if g != 0 and h != 0]
        dual_rows = sorted(((i, dual[i]) for i in range(r) if deg[i] > 1),
                           key=lambda p: (deg[p[0]], p[0]))
        translate_rows = sorted(
            ((a, b) for g in self.ones if g != 0
             for j in range(r) if deg[j] > 1
             for a, b in ((g, j), (j, g))),
            key=lambda p: (max(deg[p[0]], deg[p[1]]), p))
        rest_rows = sorted(((i, j) for i in range(r) for j in range(r)
                            if deg[i] > 1 and deg[j] > 1),
                           key=lambda p: (deg[p[0]] * deg[p[1]], deg[p[0]], p))
        order: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for row in group_rows + dual_rows + translate_rows + rest_rows:
            if row not in seen:
                seen.add(row)
                order.append(row)
        return [(i, j, k) for i, j in order for k in range(r)]

    # -- propagation helpers

    def _orbit_of(self, i, j, k):
        dual = self.dual
        return {(i, j, k), (j, dual[k], dual[i]), (dual[k], i, dual[j]),
                (k, dual[j], i), (dual[i], k, j), (dual[j], dual[i], dual[k])}

    def _fail(self, message):
        if self.first_failure is None:
            self.first_failure = message
        return False

    def _assign(self, i, j, k, v) -> bool:
        """Set the Frobenius orbit of (i,j,k) to v; False on contradiction."""
        deg = self.deg
        for (a, b, c) in self._orbits[(i, j, k)]:
            cur = self.value[a][b][c]
            if cur is not None:
                if cur != v:
                    return self._fail(
                        f"constant ({a},{b},{c}) already {cur}, needs {v}")
                continue
            if v * deg[c] > deg[a] * deg[b] - self.row_sum[a][b]:
                return self._fail(
                    f"row ({a},{b}) budget exceeded at entry {c}")
            if deg[c] == 1 and v > 1:
                return self._fail(
                    f"degree-1 multiplicity above 1 in row ({a},{b})")
            self._raw_set(a, b, c, v)
            if self.row_complete[a][b]:
                if self.row_sum[a][b] != deg[a] * deg[b]:
                    return self._fail(f"row ({a},{b}) sums wrong")
                if not self._row_completed_checks(a, b):
                    return False
            elif not self._row_feasible(a, b):
                return self._fail(f"row ({a},{b}) can no longer meet its degree sum")
        return True

    def _row_feasible(self, a, b) -> bool:
        """Subset-sum feasibility of the remaining budget of row (a, b)."""
        deg = self.deg
        budget = deg[a] * deg[b] - self.row_sum[a][b]
        if budget < 0:
            return False
        entries = []
        for k in range(self.r):
            if self.value[a][b][k] is None:
                ub = min((deg[a] * deg[b]) // deg[k], budget // deg[k])
                if deg[k] == 1:
                    ub = min(ub, 1)
                entries.append((deg[k], ub))
        feasible = 1  # bitmask of achievable sums
        for d, ub in entries:
            acc = feasible
            for _ in range(ub):
                acc |= acc << d
            feasible = acc
            if feasible >> budget & 1:
                return True
        return bool(feasible >> budget & 1)

    def _row_completed_checks(self, a, b) -> bool:
        deg, r = self.deg, self.r
        # translations by degree-1 elements are injections onto one basis element
        if deg[a] == 1 or deg[b] == 1:
            row = self.rows[a][b]
            if len(row) != 1 or row[0][1] != 1:
                return self._fail(f"degree-1 translate row ({a},{b}) not one-hot")
            target = row[0][0]
            if deg[a] == 1:
                for x in range(r):
                    if x != b and self.row_complete[a][x] and self.value[a][x][target] == 1 \
                            and deg[x] == deg[b]:
                        return self._fail(
                            f"left translation by {a} not injective at {target}")
            if deg[b] == 1:
                for x in range(r):
                    if x != a and self.row_complete[x][b] and self.value[x][b][target] == 1 \
                            and deg[x] == deg[a]:
                        return self._fail(
                            f"right translation by {b} not injective at {target}")
        if self.profile == "hopf":
            if b == self.dual[a] and deg[a] > 1:
                if not self._stabilizer_checks(a):
                    return False
            if not self._closure_check(a):
                return False
        if not self._associativity_around(a, b):
            return False
        return True

    def _stabilizer_checks(self, i) -> bool:
        deg = self.deg
        row = self.value[i][self.dual[i]]
        stab = [g for g in self.ones if row[g] == 1]
        if (deg[i] ** 2) % len(stab) != 0:
            return self._fail(
                f"stabilizer of chi_{i} has size {len(stab)}, "
                f"not dividing {deg[i] ** 2}")
        group_done = all(self.row_complete[g][h] for g in self.ones
                         for h in self.ones)
        if group_done:
            for g in stab:
                if g == 0:
                    continue
                if deg[i] % self._one_order(g) != 0:
                    return self._fail(
                        f"stabilizer element {g} of chi_{i} has order "
                        f"not dividing {deg[i]}")
        if deg[i] == 2 and len(stab) == 1:
            support = [(k, v) for k, v in self.rows[i][self.dual[i]] if k != 0]
            if len(support) != 1 or support[0][1] != 1 or deg[support[0][0]] != 3:
                return self._fail(
                    f"degree-2 chi_{i} with trivial stabilizer lacks the "
                    f"1 + psi(3) decomposition")
            if self.dual[support[0][0]] != support[0][0]:
                return self._fail("degree-3 companion not self-dual")
        return True

    def _one_order(self, g) -> int:
        x, n = g, 1
        while x != 0:
            x = self.rows[x][g][0][0]
            n += 1
        return n

    def _closure_check(self, seed) -> bool:
        """Dimension of a completed closed subset must divide the total."""
        closed = {0, seed, self.dual[seed]}
        frontier = list(closed)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(closed):
                    for p, q in ((a, b), (b, a)):
                        if not self.row_complete[p][q]:
                            return True  # cannot conclude anything yet
                        for k, _ in self.rows[p][q]:
                            if k not in closed:
                                closed.add(k)
                                closed.add(self.dual[k])
                                nxt.append(k)
                                if self.dual[k] != k:
                                    nxt.append(self.dual[k])
            frontier = nxt
        dim = sum(self.deg[i] ** 2 for i in closed)
        if self.total % dim != 0:
            return self._fail(
                f"closed subset of dimension {dim} does not divide {self.total}")
        return True

    def _associativity_around(self, a, b) -> bool:
        """Check triples that completing row (a, b) may have made checkable.

        Row (a, b) can appear in the constraint for (x, y, z) as (x, y),
        as (y, z), as some (t, z) with t in the support of x*y, or as some
        (x, s) with s in the support of y*z.  A full pass still runs at
        every leaf, so this trigger only needs to prune, not to be complete.
        """
        r = self.r
        candidates = {(a, b, z) for z in range(r)}
        candidates |= {(x, a, b) for x in range(r)}
        for x in range(r):
            for y in range(r):
                if self.row_complete[x][y] and self.value[x][y][a]:
                    candidates.add((x, y, b))
        for y in range(r):
            for z in range(r):
                if self.row_complete[y][z] and self.value[y][z][b]:
                    candidates.add((a, y, z))
        for x, y, z in candidates:
            if not self._check_triple(x, y, z):
                return False
        return True

    def _check_triple(self, x, y, z) -> bool:
        """Associativity of (x, y, z) once every row it reads is complete."""
        rc, rows = self.row_complete, self.rows
        if not (rc[x][y] and rc[y][z]
                and all(rc[t][z] for t, _ in rows[x][y])
                and all(rc[x][s] for s, _ in rows[y][z])):
            return True
        if _associativity_defect(rows, x, y, z) is not None:
            return self._fail(f"associativity fails on triple ({x},{y},{z})")
        return True

    # -- main loop

    def run(self) -> FusionDatum | None:
        return self._descend(0)

    def _descend(self, pos: int) -> FusionDatum | None:
        while pos < len(self.order) and \
                self.value[self.order[pos][0]][self.order[pos][1]][self.order[pos][2]] is not None:
            pos += 1
        if pos >= len(self.order):
            return self._leaf()
        i, j, k = self.order[pos]
        deg = self.deg
        ub = min(self._static_ub[(i, j, k)],
                 (deg[i] * deg[j] - self.row_sum[i][j]) // deg[k])
        for v in range(ub + 1):
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhausted
            mark = len(self.trail)
            if self._assign(i, j, k, v):
                found = self._descend(pos + 1)
                if found is not None:
                    return found
            self._undo(mark)
        return None

    def _undo(self, mark: int):
        while len(self.trail) > mark:
            i, j, k = self.trail.pop()
            v = self.value[i][j][k]
            self.value[i][j][k] = None
            self.row_sum[i][j] -= v * self.deg[k]
            self.row_left[i][j] += 1
            self.row_complete[i][j] = False

    def _leaf(self) -> FusionDatum | None:
        constants = [[[self.value[i][j][k] for k in range(self.r)]
                      for j in range(self.r)] for i in range(self.r)]
        datum = FusionDatum(self.deg, self.dual, constants)
        report = verify_fusion_datum(datum, self.profile)
        if report.passed:
            return datum
        self._fail("leaf rejected: " +
                   "; ".join(c.axiom for c in report.failures()))
        return None
