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

Both share one kernel per axiom over ``rows``: ``rows[i][j]`` lists the
nonzero (k, N[i][j][k]) of i*j, or is None while that row is not yet
complete.  A kernel that meets such a row concludes nothing, so the
verifier runs the kernels on a datum's ``sparse`` view and the search runs
them on each row as it completes.  The kernels are ``_translation_defect``
(degree-1 translations permute the basis), ``_associativity_defect``, the
stabilizer kernels, ``_nichols_richmond_defect``, and the closure and
element-order kernels of the groups module.  Each ``_*_defect`` kernel but
associativity returns its failure text or None, and both callers report
that text as it is.  ``_associativity_defect`` returns the index at which
the two sides first differ, and also reads the packed view of the rows,
``packed[i][j]`` = sum_k N[i][j][k] 2^(width k) or None, with digits wide
enough never to carry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from hopfcensus.cyclotomic import _nat_span
from hopfcensus.groups import (FiniteGroup, _closure, _element_order,
                               abelian_decomposition)


class FusionError(ValueError):
    pass


class BudgetExhausted(Exception):
    pass


# -- algebra type signatures ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class AlgebraTypeSignature:
    """A type (1, n; d_1, n_1; ...; d_r, n_r) with its dimension identity
    and its text ``"1,n;d_1,n_1;..."``."""

    n: int
    entries: tuple[tuple[int, int], ...]
    total: int = field(init=False, repr=False, compare=False)
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise FusionError("the count of degree-1 components must be positive")
        if not isinstance(self.entries, tuple):
            raise FusionError("entries must be a tuple of (degree, count) pairs")
        total, prev = self.n, 1
        for d, m in self.entries:
            if d < 2 or m < 1:
                raise FusionError(f"bad entry ({d},{m})")
            if d == prev:
                raise FusionError(f"degree {d} repeated")
            if d < prev:
                raise FusionError("entries must be sorted by degree")
            total += m * d * d
            prev = d
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "text", self._head_text(self.n) + "".join(
            [self._entry_text(d, m) for d, m in self.entries]))

    @staticmethod
    def _head_text(n: int) -> str:
        """The text ``"1,n"`` that a type's text starts with."""
        return f"1,{n}"

    @staticmethod
    def _entry_text(d: int, m: int) -> str:
        """The text ``";d,m"`` of one entry, which follows the head."""
        return f";{d},{m}"

    @classmethod
    def _trusted(cls, n: int, entries: tuple, total: int,
                 text: str) -> "AlgebraTypeSignature":
        """The signature of entries already known to be valid, to give
        ``total`` and to read ``text``, built without ``__post_init__``'s
        checks: the census enumerator makes only such entries."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "n", n)
        object.__setattr__(sig, "entries", entries)
        object.__setattr__(sig, "total", total)
        object.__setattr__(sig, "text", text)
        return sig

    @property
    def n2(self) -> int:
        return self.multiplicity(2)

    def multiplicity(self, d: int) -> int:
        for e, m in self.entries:
            if e == d:
                return m
        return 0

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

    @staticmethod
    def from_counts(counts) -> "AlgebraTypeSignature":
        """The type with ``counts[d]`` components of degree d."""
        return AlgebraTypeSignature(counts.get(1, 0), tuple(sorted(
            (d, m) for d, m in counts.items() if d != 1)))

    def __str__(self) -> str:
        return self.text

    def sort_key(self):
        return (self.n, self.entries)


# -- fusion data ----------------------------------------------------------------

class FusionDatum:
    """A based ring: degrees, duality and integer structure constants."""

    def __init__(self, degrees, dual, constants):
        self.degrees = tuple(int(d) for d in degrees)
        self.size = len(self.degrees)
        self.dual = tuple(int(x) for x in dual)
        self.unit = 0
        self.constants = tuple(tuple(tuple(int(v) for v in row)
                                     for row in plane) for plane in constants)
        if len(self.dual) != self.size or len(self.constants) != self.size:
            raise FusionError("inconsistent sizes")

    # -- basic queries

    @cached_property
    def one_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def n(self, i: int, j: int, k: int) -> int:
        return self.constants[i][j][k]

    @cached_property
    def sparse(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """``sparse[i][j]`` lists the nonzero (k, N[i][j][k]) by ascending k."""
        return tuple(tuple(tuple((k, v) for k, v in enumerate(row) if v)
                           for row in plane) for plane in self.constants)

    @cached_property
    def width(self) -> int:
        """Bits per digit of ``packed``: a digit of either side of a triple,
        e.g. sum_t N_xy^t N_tz^l, is at most r M^2 in absolute value with M
        the largest |N|, so a difference of two is below 2^width."""
        top = max((abs(v) for plane in self.constants for row in plane
                   for v in row), default=0)
        return (2 * self.size * top * top).bit_length()

    @cached_property
    def packed(self) -> tuple[tuple[int, ...], ...]:
        """``packed[i][j]`` = sum_k N[i][j][k] 2^(width k)."""
        width = self.width
        return tuple(tuple(sum(v << width * k for k, v in row) for row in plane)
                     for plane in self.sparse)

    def multiply(self, i: int, j: int) -> tuple[int, ...]:
        return self.constants[i][j]

    def left_stabilizer(self, i: int) -> tuple[int, ...]:
        """The subgroup {g of degree 1 : g * chi_i = chi_i}."""
        return _stabilizer(self.sparse, self.degrees, self.dual, i)

    # -- standard subalgebras

    def standard_subalgebras(self) -> list[tuple[tuple[int, ...], int]]:
        """All closed subsets containing the unit, with dimensions sum deg^2.

        Every closed subset is the join of the single-element closures of its
        members, so joining each closed subset found with each element, from
        the unit's closure on, enumerates the whole lattice without touching
        all 2^r subsets.
        """
        def closure(seed):
            return _closure(self.sparse, self.dual, self.unit, seed)

        found = {closure(())}
        work = list(found)
        while work:
            s = work.pop()
            for i in range(self.size):
                if i not in s and (joined := closure(s | {i})) not in found:
                    found.add(joined)
                    work.append(joined)
        out = [(tuple(sorted(s)), sum(self.degrees[i] ** 2 for i in s))
               for s in found]
        out.sort(key=lambda pair: (pair[1], pair[0]))
        return out

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
        seen = set()
        for i, j, k, v in entries:
            if not all(0 <= x < r for x in (i, j, k)):
                raise FusionError(f"constant {[i, j, k, v]} has an index "
                                  f"outside 0..{r - 1}")
            if v < 0:
                raise FusionError(f"constant {[i, j, k, v]} has a negative "
                                  f"multiplicity")
            if (i, j, k) in seen:
                raise FusionError(f"constant {[i, j, k, v]} repeats an earlier "
                                  f"entry for ({i}, {j}, {k})")
            seen.add((i, j, k))
            constants[i][j][k] = v
        return FusionDatum(degrees, dual, constants)


def _int_list(value) -> bool:
    """A list of JSON integers; ``type`` keeps out ``true`` and ``false``."""
    return isinstance(value, list) and all(type(x) is int for x in value)


# -- verification ----------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
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


def verify_fusion_datum(f: FusionDatum, profile: str = "basic") -> AxiomReport:
    """Check the based-ring axioms, and under "hopf" the divisibility facts.

    Each failed axiom reports its first failure in a fixed scan order.
    Associativity applies the search's triple kernel to every (i, j, k) in
    lexicographic order, on the ``sparse`` and ``packed`` views: r^3 calls,
    each a sum over the nonzero constants of two rows.
    """
    if profile not in PROFILES:
        raise FusionError(f"unknown profile {profile!r}")
    checks: list[AxiomCheck] = []
    r = f.size
    deg = f.degrees

    def add(axiom, passed, detail=""):
        checks.append(AxiomCheck(axiom, passed, detail))

    # structural sanity
    bad = next((i for i in range(r) if deg[i] <= 0), None)
    ok = (bad is None and f.unit in range(r) and deg[f.unit] == 1
          and f.dual[f.unit] == f.unit and sorted(f.dual) == list(range(r))
          and all(f.dual[f.dual[i]] == i for i in range(r))
          and all(deg[f.dual[i]] == deg[i] for i in range(r)))
    add("well-formed", ok, "" if ok else "unit/duality data malformed"
        if bad is None else f"basis element {bad} has degree {deg[bad]} <= 0")
    if not ok:
        return AxiomReport(tuple(checks))

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

    ones, detail = f.one_indices, ""
    if not all(len(row) == 1 and row[0][1] == 1 and deg[row[0][0]] == 1
               for row in (f.sparse[g][h] for g in ones for h in ones)):
        detail = "degree-1 elements do not close as a group"
    elif any(_translation_defect(f.sparse, deg, a, b)
             for g in ones for i in range(r) for a, b in ((g, i), (i, g))):
        detail = "degree-1 translation is not a permutation"
    group_ok = not detail
    add("degree-one-group", group_ok, detail)

    bad = None
    for i, j, k in itertools.product(range(r), repeat=3):
        l = _associativity_defect(f.sparse, f.packed, f.width, i, j, k)
        if l is not None:
            bad = (i, j, k, l)
            break
    add("associativity", bad is None,
        "" if bad is None else f"associativity fails at {bad}")

    if profile == "hopf":
        total = sum(d * d for d in deg)
        stabs = [(i, f.left_stabilizer(i)) for i in range(r) if deg[i] != 1]
        detail = next(filter(None, (_stabilizer_size_defect(i, stab, deg[i])
                                    for i, stab in stabs)), "")
        add("stabilizer-size", not detail, detail)
        if group_ok:
            detail = next(filter(None, (_stabilizer_exponent_defect(
                f.sparse, f.unit, i, stab, deg[i]) for i, stab in stabs)), "")
            add("stabilizer-exponent", not detail, detail)
        else:
            add("stabilizer-exponent", False, "no degree-1 group")
        bad = next((s for s in f.standard_subalgebras() if total % s[1] != 0), None)
        add("closure-divisibility", bad is None,
            "" if bad is None else
            f"standard subalgebra of dimension {bad[1]} does not divide {total}")
        add_nr = _check_nr_dichotomy(f)
        checks.append(add_nr)

    return AxiomReport(tuple(checks))


# -- axiom kernels over rows (see the module docstring) ---------------------------

def _translation_defect(rows, deg, a, b) -> str | None:
    """Why the known row (a, b), with deg a = 1 or deg b = 1, keeps the
    translation by a degree-1 factor from permuting the basis, or None.

    The row must be one basis element with coefficient 1, and no other known
    row of the same translation (a*x, or x*b) may hold that element; unknown
    (None) rows are skipped.
    """
    row = rows[a][b]
    if len(row) != 1 or row[0][1] != 1:
        return f"degree-1 translate row ({a},{b}) not one-hot"
    hot = row[0]
    if deg[a] == 1:
        for x, other in enumerate(rows[a]):
            if x != b and other is not None and hot in other:
                return f"left translation by {a} not injective at {hot[0]}"
    if deg[b] == 1:
        for x, plane in enumerate(rows):
            other = plane[b]
            if x != a and other is not None and hot in other:
                return f"right translation by {b} not injective at {hot[0]}"
    return None


def _stabilizer(rows, deg, dual, i) -> tuple[int, ...]:
    """G[chi_i]: the degree-1 g with N(i, i*, g) = 1."""
    return tuple(k for k, v in rows[i][dual[i]] if v == 1 and deg[k] == 1)


def _stabilizer_size_defect(i, stab, d) -> str | None:
    """Why G[chi_i] = stab, for chi_i of degree d, breaks Nichols-Zoeller:
    its order is 0 or does not divide d^2; or None."""
    if stab and d * d % len(stab) == 0:
        return None
    return f"|G[chi_{i}]| = {len(stab)} does not divide {d * d}"


def _stabilizer_exponent_defect(rows, unit, i, stab, d) -> str | None:
    """Why G[chi_i] = stab, for chi_i of degree d, holds an element whose
    order is known and does not divide d, naming the first; or None."""
    for g in stab:
        order = _element_order(rows, unit, g)
        if order is not None and d % order:
            return f"element {g} of G[chi_{i}] has order not dividing the degree"
    return None


def _associativity_defect(rows, packed, width, x, y, z) -> int | None:
    """The least l at which (x*y)*z and x*(y*z) differ, or None.

    It reads rows x*y and y*z, and the packed rows t*z for t in x*y and x*s
    for s in y*z, and returns None when any of them is unknown.  The two
    sides are sum_t N_xy^t packed[t][z] and sum_s N_yz^s packed[x][s]; their
    difference is sum_l e_l 2^(width l), where e_l is the defect at l, so
    with every |e_l| < 2^width its lowest set bit lies in the digit of the
    least l with e_l != 0.
    """
    xy, yz = rows[x][y], rows[y][z]
    if xy is None or yz is None:
        return None
    lhs = rhs = 0
    for t, a in xy:
        p = packed[t][z]
        if p is None:
            return None
        lhs += a * p
    right = packed[x]
    for s, a in yz:
        p = right[s]
        if p is None:
            return None
        rhs += a * p
    diff = lhs - rhs
    return ((diff & -diff).bit_length() - 1) // width if diff else None


def _nichols_richmond_defect(rows, deg, dual, unit, i) -> str | None:
    """Why the degree-2 chi_i, whose stabilizer is trivial, breaks the first
    half of the Nichols-Richmond dichotomy, or None.

    Such a chi_i has chi_i chi_i* = 1 + psi with deg psi = 3, and psi is
    self-dual.
    """
    support = [(k, v) for k, v in rows[i][dual[i]] if k != unit]
    if len(support) != 1 or support[0][1] != 1 or deg[support[0][0]] != 3:
        return f"chi_{i} has trivial stabilizer but chi chi* is not 1 + psi(3)"
    psi = support[0][0]
    return None if dual[psi] == psi else f"companion psi_{psi} is not self-dual"


def _check_nr_dichotomy(f: FusionDatum) -> AxiomCheck:
    """Degree-2 elements: nontrivial stabilizer, or chi chi* = 1 + (degree-3).

    When the datum has no degree-4 element, the degree-3 companion psi must
    additionally satisfy psi^2 = sum of its order-3 stabilizer plus 2 psi.
    """
    deg = f.degrees
    has4 = 4 in deg
    for i in range(f.size):
        if deg[i] != 2 or len(f.left_stabilizer(i)) != 1:
            continue
        defect = _nichols_richmond_defect(f.sparse, deg, f.dual, f.unit, i)
        if defect is not None:
            return AxiomCheck("nr-dichotomy", False, defect)
        if not has4:
            psi = f.sparse[i][f.dual[i]][-1][0]  # chi chi* = 1 + psi, unit 0
            stab = f.left_stabilizer(psi)
            if len(stab) != 3 or set(f.sparse[psi][psi]) != \
                    {(g, 1) for g in stab} | {(psi, 2)}:
                return AxiomCheck(
                    "nr-dichotomy", False,
                    f"psi_{psi} does not satisfy psi^2 = (order-3 group) + 2 psi")
    return AxiomCheck("nr-dichotomy", True)


# -- fusion data from groups ------------------------------------------------------

def from_group_characters(g: FiniteGroup) -> FusionDatum:
    """The character ring of a group, read from ``g.character_table``.

    N_ij^k = |G|^-1 sum_r |C_r| chi_i(g_r) chi_j(g_r) conj(chi_k(g_r)), over
    the classes C_r, is an integer in [0, |G|), so its residue mod the
    table's prime p is the integer.  The labels are the unit, the linear
    characters in the order of G/G' (``quotient``'s elements), then the
    nonlinear ones in the table's order: by degree, then by their residues
    along the classes.  The element of G/G' with coordinates c in the basis
    of ``abelian_decomposition`` labels x |-> prod_j zeta_j^(c_j x_j), where
    x_j are the coordinates of x G' and zeta_j = z^((p - 1) / n_j) for the
    least primitive root z mod p and the order n_j of the j-th basis
    element.  So the linear block is the quotient's table, with inverses as
    duals.
    """
    p, values = g.character_table
    q, proj = g.quotient(g.commutator_subgroup)
    basis = abelian_decomposition(q)
    z = next(z for z in range(2, p) if all(
        pow(z, (p - 1) // d, p) != 1 for d in range(2, p) if (p - 1) % d == 0))
    steps = [(p - 1) // m for m in basis.orders]
    classes = g.conjugacy_classes
    coords = [basis.coords[proj[c[0]]] for c in classes]
    chi = [tuple(pow(z, sum(map(math.prod, zip(steps, basis.coords[a], x))), p)
                 for x in coords) for a in range(q.order)] + list(values[q.order:])
    cls = {x: r for r, c in enumerate(classes) for x in c}
    bar = [tuple(v[cls[g.inv(c[0])]] for c in classes) for v in chi]
    over_order = pow(g.order, -1, p)
    constants = [[[sum(map(mul, xy, w)) * over_order % p for w in bar]
                  for xy in ([len(c) * u * v % p
                              for c, u, v in zip(classes, x, y)] for y in chi)]
                 for x in chi]
    label = {v: i for i, v in enumerate(chi)}
    return FusionDatum([v[cls[g.identity]] for v in chi],
                       [label[w] for w in bar], constants)


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
    variable order, which skips every table that one of the generating
    relabellings of the basis makes lexicographically smaller (see
    ``_Search``); a Feasible outcome carries the lexicographically least
    witness, Infeasible means the whole tree was refuted.
    """
    if profile not in PROFILES:
        raise FusionError(f"unknown profile {profile!r}")
    size = signature.n + sum(m for _, m in signature.entries)
    if size > MAX_SEARCH_BASIS:
        raise FusionError(
            f"basis size {size} exceeds search bound {MAX_SEARCH_BASIS}")
    degrees = signature.basis_degrees()
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
    r = len(degrees)
    pools = [[i for i in range(1, r) if degrees[i] == d]
             for d in sorted(set(degrees[1:]))]
    for swaps in itertools.product(*(range(len(pool) // 2 + 1)
                                     for pool in pools)):
        dual = list(range(r))
        for pool, count in zip(pools, swaps):
            for a, b in zip(pool[:2 * count:2], pool[1:2 * count:2]):
                dual[a], dual[b] = b, a
        yield tuple(dual)


def _relabellings(degrees, dual):
    """Generators of the relabellings that fix the unit, preserve degrees
    and commute with ``dual``, each as a permutation of the labels.

    Within a degree class they form (Z2 wr S_p) x S_s for p dual pairs and
    s self-dual labels, generated by the swap inside each pair, the swap of
    two consecutive pairs and the adjacent transpositions of the self-dual
    labels.  Every generator is an involution.
    """
    r = len(degrees)

    def swap(*transpositions):
        perm = list(range(r))
        for a, b in transpositions:
            perm[a], perm[b] = b, a
        return tuple(perm)

    out = []
    for d in sorted(set(degrees[1:])):
        pool = [i for i in range(1, r) if degrees[i] == d]
        pairs = [(a, dual[a]) for a in pool if a < dual[a]]
        fixed = [a for a in pool if dual[a] == a]
        out += [swap(pair) for pair in pairs]
        out += [swap((a, c), (b, e)) for (a, b), (c, e) in zip(pairs, pairs[1:])]
        out += [swap(pair) for pair in zip(fixed, fixed[1:])]
    return out


class _Search:
    """One backtracking run for a fixed duality pattern.

    The variable is a Frobenius orbit: the entries that Frobenius
    reciprocity forces to share one constant.  The orbits partition the r^3
    entries.  ``_preassign`` fills the unit orbits, whose entries hold an
    index 0, and ``order`` lists the others.  A node sets one orbit to one
    value.

    ``value[i][j][k]`` is an assigned constant or None.  ``rows[i][j]`` is
    the kernels' view of row (i, j): its nonzero (k, v) once the row is
    complete, None until then, and ``packed[i][j]`` is the same row as the
    integer sum_k v 2^(width k).  The shared kernels (``_translation_defect``,
    the stabilizer kernels, ``_nichols_richmond_defect``, ``_closure`` and
    ``_associativity_defect``) run on each row as it completes.

    The rest of the state is kept incrementally, so that no node rescans a
    row or the table.  ``row_mask[i][j]`` has bit k set while entry k of row
    (i, j) is unassigned; the row is complete when it is 0.  Whether a row
    can still meet its degree sum depends only on its remaining budget and
    its mask, so ``_feasible`` memoizes that answer on the pair, read as
    budget << r | mask, for the whole run.  ``holders[t]`` lists the
    complete rows whose support holds t, in the order they completed; it is
    what the associativity trigger reads.

    ``__init__`` compiles each entry of ``order`` into a plan,
    ``plans[pos]`` = (row_sum[i], j, d_i d_j, d_k, bound, members,
    waiting[pos]): the first four give the value range from the row of the
    orbit's first entry (i, j, k).  Each member is (a, b, c, d_c, d_a d_b,
    1 << c) and the inner lists value[a][b], row_sum[a] and row_mask[a]
    that setting it writes.  ``_assign`` pushes (members, count) onto
    ``trail``, count being how many members it set before it stopped: all
    of them unless it met a contradiction.  ``_undo`` clears exactly those,
    in reverse, so each row leaves ``holders`` by a pop.

    Relabelling symmetry is broken by lex-leader constraints (Crawford,
    Ginsberg, Luks and Roy, KR 1996).  Write X[p] for the value at position
    p of ``order``.  Each generator sigma of ``_relabellings`` maps the
    orbit at p onto the orbit at a position pi(p), and the run keeps only
    X <=_lex sigma X, i.e. X[p] <= X[pi(p)] at the first p where the two
    differ.  The tables that pass are closed under sigma, so the lex-least
    one meets every constraint: the verdict and the witness are those of
    the whole tree.  sigma is an involution, so only the p with pi(p) > p
    can differ first, and each generator is a chain of links, one per such
    p in ascending order: (value[i][j], k) of p, the same of pi(p), pi(p)
    and the next link.  ``waiting[q]`` lists the links whose pi(p) is q and
    whose earlier comparisons are all ties: the generators whose next
    comparison is decided when q is set.  So position q may take no value
    below the largest X[p] of its links; at that value those links tie, and
    ``_advance`` walks each to its next comparison that is open or
    unequal.  An open one waits at its pi(p), pushed as (waiting[pi(p)],
    None) onto the trail for ``_undo`` to pop; an unequal one is met, or it
    prunes the node without a ``_fail``, so it never becomes the trace.
    """

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
        # Every complete row meets its degree sum, so digit l of either side
        # of a triple, e.g. sum_t N_xy^t N_tz^l, is at most d_x d_y d_z / d_l.
        self.width = (max(degrees) ** 3).bit_length()
        self.value: list[list[list[int | None]]] = \
            [[[None] * r for _ in range(r)] for _ in range(r)]
        self.row_sum = [[0] * r for _ in range(r)]
        self.row_mask = [[(1 << r) - 1] * r for _ in range(r)]
        self.rows: list[list[tuple | None]] = [[None] * r for _ in range(r)]
        self.packed: list[list[int | None]] = [[None] * r for _ in range(r)]
        self.holders: list[list[tuple[int, int]]] = [[] for _ in range(r)]
        self._feasible: dict[int, bool] = {}
        self.trail: list[tuple[tuple | list, int | None]] = []
        self._preassign()
        self.order = self._variable_order()
        self.waiting = self._lex_chains()
        self.plans = [self._plan(*entry, waiting)
                      for entry, waiting in zip(self.order, self.waiting)]

    # -- setup

    def _preassign(self):
        """Fill the unit orbits, each of which holds an entry (0, j, k),
        with N(0,j,k) = delta_jk, then read every row's sum and mask and
        record the rows this completes."""
        r, deg, value = self.r, self.deg, self.value
        for j, k in itertools.product(range(r), repeat=2):
            for a, b, c in self._orbit_of(0, j, k):
                value[a][b][c] = int(j == k)
        for a, b in itertools.product(range(r), repeat=2):
            entries = list(enumerate(value[a][b]))
            self.row_sum[a][b] = sum(v * deg[c] for c, v in entries if v)
            self.row_mask[a][b] = sum(1 << c for c, v in entries if v is None)
            if not self.row_mask[a][b]:
                self._complete(a, b)

    def _complete(self, a, b):
        """Record the complete row (a, b) in ``rows``, ``packed`` and
        ``holders``."""
        width = self.width
        row = self.rows[a][b] = tuple(
            [(t, x) for t, x in enumerate(self.value[a][b]) if x])
        self.packed[a][b] = sum([x << width * t for t, x in row])
        for t, _ in row:
            self.holders[t].append((a, b))

    def _variable_order(self):
        """The open orbits as (i, j, k, members, bound), each at its first
        entry (i, j, k) in the row order: the degree-1 group block, then
        chi * chi-dual rows by ascending degree, then degree-1 translates,
        then the rest by ascending degree product, each row by ascending k.
        The bound is the least d_a d_b // d_c over the members, so it is at
        most 1 when some deg c = 1: then one of i, j, k has degree 1, and the
        members give both d_y // d_z and d_z // d_y for the other two."""
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
        order, listed = [], set()
        for i, j in dict.fromkeys(group_rows + dual_rows + translate_rows
                                  + rest_rows):
            for k in range(r):
                if self.value[i][j][k] is None and (i, j, k) not in listed:
                    members = tuple(self._orbit_of(i, j, k))
                    listed.update(members)
                    order.append((i, j, k, members, min(
                        deg[a] * deg[b] // deg[c] for a, b, c in members)))
        return order

    def _plan(self, i, j, k, members, bound, waiting):
        """The plan of one entry of ``order`` (see the class docstring)."""
        deg = self.deg
        return (self.row_sum[i], j, deg[i] * deg[j], deg[k], bound, tuple(
            (a, b, c, deg[c], deg[a] * deg[b], 1 << c, self.value[a][b],
             self.row_sum[a], self.row_mask[a]) for a, b, c in members),
            waiting)

    def _lex_chains(self):
        """``waiting[q]`` for each position q: the chain links of the
        generators whose next comparison reads position q, at first each
        generator's head (see the class docstring)."""
        value = self.value
        position = {e: p for p, (*_, members, _) in enumerate(self.order)
                    for e in members}
        cells = [(value[i][j], k) for i, j, k, *_ in self.order]
        waiting = [[] for _ in self.order]
        for sigma in _relabellings(self.deg, self.dual):
            image = [position[sigma[i], sigma[j], sigma[k]]
                     for i, j, k, *_ in self.order]
            link = None
            for p in reversed(range(len(image))):
                if image[p] > p:
                    link = (*cells[p], *cells[image[p]], image[p], link)
            if link is not None:
                waiting[link[4]].append(link)
        return waiting

    # -- propagation helpers

    def _orbit_of(self, i, j, k):
        dual = self.dual
        return {(i, j, k), (j, dual[k], dual[i]), (dual[k], i, dual[j]),
                (k, dual[j], i), (dual[i], k, j), (dual[j], dual[i], dual[k])}

    def _fail(self, message):
        if self.first_failure is None:
            self.first_failure = message
        return False

    def _assign(self, members, v) -> bool:
        """Set the members of an open orbit to v in turn; False on
        contradiction, with the members set so far left for ``_undo``."""
        r, feasible = self.r, self._feasible
        count, message = 0, None
        for a, b, c, dc, dadb, bit, values, sums, masks in members:
            total = sums[b] + v * dc
            if total > dadb:
                message = f"row ({a},{b}) budget exceeded at entry {c}"
                break
            values[c] = v
            sums[b] = total
            mask = masks[b] = masks[b] ^ bit
            count += 1
            if mask:
                key = (dadb - total) << r | mask
                ok = feasible.get(key)
                if ok is None:
                    ok = feasible[key] = self._subset_sum(dadb - total, mask)
                if not ok:
                    message = f"row ({a},{b}) can no longer meet its degree sum"
                    break
            else:
                self._complete(a, b)
                if total != dadb:
                    message = f"row ({a},{b}) sums wrong"
                    break
                if not self._row_completed_checks(a, b):
                    break
        else:
            self.trail.append((members, count))
            return True
        self.trail.append((members, count))
        if message is not None:
            self._fail(message)
        return False

    def _subset_sum(self, budget, mask) -> bool:
        """Whether budget is a sum of deg[k] over the k in mask, each k used
        at most once when deg[k] = 1 and any number of times otherwise: some
        budget - t with t at most the mask's degree-1 count is in the span
        of its nonlinear degrees."""
        masked = [self.deg[k] for k in range(self.r) if mask >> k & 1]
        span = _nat_span(budget, [d for d in masked if d > 1])
        return budget >= 0 and span >> max(budget - masked.count(1), 0) != 0

    def _row_completed_checks(self, a, b) -> bool:
        deg = self.deg
        if deg[a] == 1 or deg[b] == 1:
            defect = _translation_defect(self.rows, deg, a, b)
            if defect is not None:
                return self._fail(defect)
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
        rows, deg, dual = self.rows, self.deg, self.dual
        d = deg[i]
        stab = _stabilizer(rows, deg, dual, i)
        defect = _stabilizer_size_defect(i, stab, d) or \
            _stabilizer_exponent_defect(rows, 0, i, stab, d)
        if defect is None and d == 2 and len(stab) == 1:
            defect = _nichols_richmond_defect(rows, deg, dual, 0, i)
        return defect is None or self._fail(defect)

    def _closure_check(self, seed) -> bool:
        """Dimension of a completed closed subset must divide the total."""
        closed = _closure(self.rows, self.dual, 0, (seed,))
        if closed is None:
            return True  # cannot conclude anything yet
        dim = sum(self.deg[i] ** 2 for i in closed)
        if self.total % dim != 0:
            return self._fail(
                f"closed subset of dimension {dim} does not divide {self.total}")
        return True

    def _associativity_around(self, a, b) -> bool:
        """Check triples that completing row (a, b) may have made checkable.

        Row (a, b) can appear in the constraint for (x, y, z) as (x, y),
        as (y, z), as some (t, z) with t in the support of x*y, or as some
        (x, s) with s in the support of y*z.  The candidates (a, b, .),
        (., a, b) and those read off ``holders[a]`` and ``holders[b]``
        cover the four, so each triple is checked when the last row it reads
        completes; a triple of rows complete from the start has two unit
        indices.  So associativity never rejects a leaf.

        Only the candidates whose rows x*y and y*z are complete are
        checked, and a failure names the first of them that fails.
        """
        rows, packed, width = self.rows, self.packed, self.width
        row_a = rows[a]
        # a triple with the unit always holds, and a holder (x, a) of a or
        # (b, z) of b gives a triple of the first two lists
        checkable = [(a, b, z) for z, row in enumerate(rows[b])
                     if z and row is not None]
        checkable += [(x, a, b) for x, plane in enumerate(rows)
                      if x and plane[a] is not None]
        checkable += [(x, y, b) for x, y in self.holders[a]
                      if y and y != a and rows[y][b] is not None]
        checkable += [(a, y, z) for y, z in self.holders[b]
                      if y and y != b and row_a[y] is not None]
        for x, y, z in checkable:
            if _associativity_defect(rows, packed, width, x, y, z) is not None:
                return self._fail(f"associativity fails on triple ({x},{y},{z})")
        return True

    # -- main loop

    def run(self) -> FusionDatum | None:
        """Depth first over ``plans``, each position's values in ascending
        order, so the first leaf that passes is the lex-least witness.

        ``levels`` holds one entry per position set so far: its remaining
        values, its members, the least value and tied generators of the lex
        check, and the trail length before it.  The loop keeps no Python
        frame per position, so its cost per node does not depend on depth.
        """
        plans, trail = self.plans, self.trail
        levels = []
        while True:
            pos = len(levels)
            if pos < len(plans):
                sums, j, dij, dk, bound, members, waiting = plans[pos]
                # X[p] <= X[pos] for each generator waiting here; those tied
                # at the least value left move on to their next comparison
                low, ties = 0, waiting
                if waiting:
                    low = max([xs[xk] for xs, xk, *_ in waiting])
                    ties = [link for link in waiting if link[0][link[1]] == low]
                levels.append((iter(range(low, min(bound, (dij - sums[j]) // dk)
                                          + 1)), members, low, ties, len(trail)))
            else:
                found = self._leaf()
                if found is not None:
                    return found
            # set the deepest position to its next value that holds, and
            # give up positions whose values ran out
            while levels:
                values, members, low, ties, mark = levels[-1]
                if len(trail) > mark:
                    self._undo(mark)
                for v in values:
                    self.nodes += 1
                    if self.nodes > self.budget:
                        raise BudgetExhausted
                    if (v != low or not ties or self._advance(ties)) \
                            and self._assign(members, v):
                        break
                    self._undo(mark)
                else:
                    levels.pop()
                    continue
                break
            else:
                return None

    def _advance(self, ties) -> bool:
        """Move each generator tied at the position being set to the first
        later comparison that is open or unequal; False when one reads
        X[p] > X[pi(p)] there.  A generator that waits at an open position
        is appended to its list, and the list goes on the trail."""
        waiting, trail = self.waiting, self.trail
        for link in ties:
            while (link := link[5]) is not None:
                xs, xk, ys, yk, q, _ = link
                y = ys[yk]
                if y is None:
                    waiting[q].append(link)
                    trail.append((waiting[q], None))
                    break
                if xs[xk] != y:
                    if xs[xk] > y:
                        return False
                    break
        return True

    def _undo(self, mark: int):
        trail = self.trail
        while len(trail) > mark:
            members, count = trail.pop()
            if count is None:  # a generator that waited at a later position
                members.pop()
                continue
            for a, b, c, dc, _, bit, values, sums, masks in \
                    reversed(members[:count]):
                if not masks[b]:
                    # rows complete in trail order, so each is last in its holders
                    for t, _ in self.rows[a][b]:
                        self.holders[t].pop()
                    self.rows[a][b] = self.packed[a][b] = None
                sums[b] -= values[c] * dc
                values[c] = None
                masks[b] |= bit

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
