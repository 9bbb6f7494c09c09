"""Enumeration of algebra-type signatures for a given dimension.

``enumerate_types`` lists every solution of the Wedderburn dimension
identity n + sum n_i d_i^2 = N, then filters it through a pipeline of
divisibility rules.  The solutions for all n come from one table of
partitions into squares, memoized on (remainder, smallest degree) for the
length of the call.  Each rule is data: an applicability predicate, a
verdict, and a citation naming the classical fact it encodes, so every
elimination in a report can say why the type was removed.  Rules never
fire outside their stated hypotheses; anything they cannot see is left
to the fusion-search oracle, which runs only on explicitly requested
survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from hopfcensus.fusion import (AlgebraTypeSignature, FusionError, SearchOutcome,
                               _prime_factors, search_fusion)


class CensusError(ValueError):
    pass


class NoSolutionError(CensusError):
    pass


@dataclass(frozen=True)
class Ambiguous:
    """Several signatures satisfy the completion constraints."""
    solutions: tuple[AlgebraTypeSignature, ...]


@dataclass(frozen=True)
class CensusRule:
    id: str
    citation: str
    applies: Callable[[int, AlgebraTypeSignature], bool] = field(repr=False)
    violation: Callable[[int, AlgebraTypeSignature], str | None] = field(repr=False)

    def check(self, n_total: int, sig: AlgebraTypeSignature) -> str | None:
        """A violation message when the rule eliminates the signature."""
        if not self.applies(n_total, sig):
            return None
        return self.violation(n_total, sig)


def _nat_span(limit: int, degrees: Iterable[int]) -> int:
    """Bitmask over 0..limit of the sums of nonnegative multiples of degrees."""
    mask = (1 << (limit + 1)) - 1
    reachable = 1
    for d in set(degrees):
        step = d  # doubling steps reach every multiple count up to limit // d
        while step <= limit:
            reachable |= (reachable << step) & mask
            step *= 2
    return reachable


def _r10_violation(n_total: int, sig: AlgebraTypeSignature) -> str | None:
    degrees = sig.degrees_present
    span = _nat_span(max(degrees) ** 2, degrees)
    for d in degrees:
        good = False
        for s in range(1, math.gcd(sig.n, d * d) + 1):
            if math.gcd(sig.n, d * d) % s != 0:
                continue
            if any(d % p for p in _prime_factors(s)):
                continue
            if span >> (d * d - s) & 1:
                good = True
                break
        if not good:
            return (f"no admissible stabilizer order s for degree {d}: "
                    f"d^2 - s never decomposes into degrees {list(degrees)}")
    return None


RULES: tuple[CensusRule, ...] = (
    CensusRule(
        "R1", "Wedderburn decomposition: n + sum n_i d_i^2 must equal the dimension",
        lambda N, s: True,
        lambda N, s: None if s.total == N else f"{s} sums to {s.total}, not {N}"),
    CensusRule(
        "R2", "Nichols-Zoeller: the span of the degree-1 characters is a Hopf "
              "subalgebra of the dual, so n divides the dimension",
        lambda N, s: True,
        lambda N, s: None if N % s.n == 0 else f"n = {s.n} does not divide {N}"),
    CensusRule(
        "R3", "Nichols-Zoeller freeness of each isotypic component over the "
              "degree-1 span: n divides n_i d_i^2",
        lambda N, s: True,
        lambda N, s: next((f"n = {s.n} does not divide {m}*{d}^2 = {m * d * d}"
                           for d, m in s.entries if (m * d * d) % s.n != 0), None)),
    CensusRule(
        "R4", "with a trivial group of degree-1 characters, at least three "
              "distinct nonlinear degrees must occur",
        lambda N, s: s.n == 1,
        lambda N, s: None if len(s.entries) >= 3 else
        f"only {len(s.entries)} distinct nonlinear degrees with n = 1"),
    CensusRule(
        "R5", "a degree-2 irreducible forces even dimension (Nichols-Richmond)",
        lambda N, s: s.n2 > 0,
        lambda N, s: None if N % 2 == 0 else f"degree 2 present but {N} is odd"),
    CensusRule(
        "R6", "a degree-2 irreducible with trivial degree-1 group forces a "
              "quotient of dimension 60 (Nichols-Richmond), so 60 divides N",
        lambda N, s: s.n == 1 and s.n2 > 0,
        lambda N, s: None if N % 60 == 0 else f"60 does not divide {N}"),
    CensusRule(
        "R7", "for n = 2 with degree-2 characters, absent 12/24/60 divisibility "
              "all their stabilizers are full and the degrees <= 2 span a "
              "quotient of dimension 2 + 4*n2, which must divide N "
              "(Nichols-Richmond with Nichols-Zoeller)",
        lambda N, s: (s.n == 2 and s.n2 > 0
                      and all(N % m for m in (12, 24, 60))),
        lambda N, s: None if N % (2 + 4 * s.n2) == 0 else
        f"2+4*{s.n2} = {2 + 4 * s.n2} does not divide {N}"),
    CensusRule(
        "R8", "absent 12/24/60 divisibility, degree-2 stabilizers are nontrivial "
              "with exponent dividing 2, so the degree-1 group has even order",
        lambda N, s: s.n2 > 0 and all(N % m for m in (12, 24, 60)),
        lambda N, s: None if s.n % 2 == 0 else f"n = {s.n} is odd"),
    CensusRule(
        "R9", "without degree-4 characters and with 12 not dividing N, the "
              "degrees <= 2 span a quotient of dimension n + 4*n2 dividing N",
        lambda N, s: N % 12 != 0 and s.multiplicity(4) == 0 and s.n2 > 0,
        lambda N, s: None if N % (s.n + 4 * s.n2) == 0 else
        f"{s.n}+4*{s.n2} = {s.n + 4 * s.n2} does not divide {N}"),
    CensusRule(
        "R10", "decomposing chi chi*: the stabilizer order s divides gcd(n, d^2) "
               "with every prime of s dividing d, and d^2 - s must decompose "
               "into the nonlinear degrees present",
        lambda N, s: len(s.entries) > 0,
        _r10_violation),
)

RULES_BY_ID = {r.id: r for r in RULES}


def parse_rules(spec: str | Iterable[str]) -> tuple[CensusRule, ...]:
    """Rule set from "all", "R1-R8", "R1..R8", "R1,R4,R5", or id iterables."""
    if isinstance(spec, str):
        text = spec.strip().replace("..", "-")
        if text.lower() == "all":
            return RULES
        ids: list[str] = []
        for part in text.replace(" ", "").split(","):
            if "-" in part[1:]:
                lo, hi = part.split("-")
                ids.extend(f"R{k}" for k in range(int(lo[1:]), int(hi[1:]) + 1))
            elif part:
                ids.append(part)
    else:
        ids = list(spec)
    try:
        rules = tuple(RULES_BY_ID[i] for i in ids)
    except KeyError as exc:
        raise CensusError(f"unknown rule {exc.args[0]!r}") from None
    if "R1" not in {r.id for r in rules}:
        raise CensusError("rule set must contain R1")
    return rules


@dataclass(frozen=True)
class Elimination:
    signature: AlgebraTypeSignature
    rule: str
    detail: str


@dataclass(frozen=True)
class CensusResult:
    dimension: int
    survivors: tuple[AlgebraTypeSignature, ...]
    eliminated: tuple[Elimination, ...]
    oracle: tuple[tuple[AlgebraTypeSignature, SearchOutcome], ...] = ()

    def final_survivors(self) -> tuple[AlgebraTypeSignature, ...]:
        """Survivors minus any the oracle proved infeasible."""
        refuted = {str(sig) for sig, out in self.oracle
                   if out.status == "infeasible"}
        return tuple(s for s in self.survivors if str(s) not in refuted)

    def to_json(self) -> dict:
        return {
            "dim": self.dimension,
            "survivors": [str(s) for s in self.survivors],
            "eliminated": [{"type": str(e.signature), "rule": e.rule,
                            "detail": e.detail} for e in self.eliminated],
            "oracle": [{"type": str(sig), **out.to_json()}
                       for sig, out in self.oracle],
            "final": [str(s) for s in self.final_survivors()],
        }


def _partitions_into_squares(remaining: int, degrees: Sequence[int], i: int,
                             memo: dict) -> list[tuple[tuple[int, int], ...]]:
    """All ways to write remaining as sum m * d^2 over distinct d in degrees[i:].

    ``degrees`` ascends.  Each way is its (d, m) entries by ascending d; the
    list skips degrees[i] before it uses it once, twice and so on.  ``memo``
    holds the list of every (remaining, i) already solved, for one degree
    sequence, so all the degree-1 counts of a census share the work.
    """
    key = (remaining, i)
    if key not in memo:
        if remaining == 0:
            memo[key] = [()]
        elif i == len(degrees) or degrees[i] ** 2 > remaining:
            memo[key] = []
        else:
            d = degrees[i]
            out = list(_partitions_into_squares(remaining, degrees, i + 1, memo))
            for m in range(1, remaining // (d * d) + 1):
                head = ((d, m),)
                out += [head + rest for rest in _partitions_into_squares(
                    remaining - m * d * d, degrees, i + 1, memo)]
            memo[key] = out
    return memo[key]


def enumerate_types(dimension: int,
                    rules: Iterable[CensusRule] | str = "all",
                    proper_only: bool = True,
                    n_filter: int | None = None,
                    oracle_types: Iterable[AlgebraTypeSignature | str] | str = (),
                    oracle_profile: str = "hopf",
                    oracle_budget: int = 10 ** 7) -> CensusResult:
    """All type signatures at the given dimension, filtered by the rules.

    ``proper_only`` drops the purely cocommutative signature (n = N, no
    nonlinear degrees).  ``oracle_types`` requests fusion searches on the
    named survivors, or on every survivor when it is ``"all"``; a request
    for a non-survivor is ignored.
    """
    if dimension < 1:
        raise CensusError("dimension must be positive")
    rule_list = parse_rules(rules) if isinstance(rules, str) else tuple(rules)
    candidates: list[AlgebraTypeSignature] = []
    degrees = tuple(range(2, math.isqrt(dimension) + 1))
    memo: dict = {}
    for n in range(1, dimension + 1):
        if n_filter is not None and n != n_filter:
            continue
        for entries in _partitions_into_squares(dimension - n, degrees, 0, memo):
            sig = AlgebraTypeSignature(n, entries)
            if proper_only and not sig.entries:
                continue
            candidates.append(sig)
    candidates.sort(key=AlgebraTypeSignature.sort_key)

    survivors: list[AlgebraTypeSignature] = []
    eliminated: list[Elimination] = []
    for sig in candidates:
        for rule in rule_list:
            detail = rule.check(dimension, sig)
            if detail is not None:
                eliminated.append(Elimination(sig, rule.id, detail))
                break
        else:
            survivors.append(sig)

    if oracle_types == "all":
        requested = survivors
    else:
        requested = [AlgebraTypeSignature.parse(t) if isinstance(t, str) else t
                     for t in oracle_types]
    oracle_results = []
    survivor_keys = {str(s) for s in survivors}
    for sig in requested:
        if str(sig) not in survivor_keys:
            continue
        try:
            outcome = search_fusion(sig, oracle_profile, oracle_budget)
        except FusionError as exc:
            outcome = SearchOutcome("inconclusive", 0, trace=str(exc))
        oracle_results.append((sig, outcome))

    return CensusResult(dimension, tuple(survivors), tuple(eliminated),
                        tuple(oracle_results))


def tensor_type(a: AlgebraTypeSignature,
                b: AlgebraTypeSignature) -> AlgebraTypeSignature:
    """Type of a tensor product: components pair off with multiplied degrees."""
    counts: dict[int, int] = {}
    for d, m in [(1, a.n)] + list(a.entries):
        for e, k in [(1, b.n)] + list(b.entries):
            counts[d * e] = counts.get(d * e, 0) + m * k
    n = counts.pop(1, 0)
    return AlgebraTypeSignature(n, tuple(sorted(counts.items())))


def complete_type(dimension: int, n: int,
                  allowed_degrees: Iterable[int]) -> AlgebraTypeSignature | Ambiguous:
    """Complete a signature from its degree-1 count and an allowed degree set."""
    if n < 1 or dimension % n != 0:
        raise CensusError(f"n = {n} must be a positive divisor of {dimension}")
    allowed = sorted({d for d in allowed_degrees if d >= 2})
    solutions = [AlgebraTypeSignature(n, entries) for entries in
                 _partitions_into_squares(dimension - n, allowed, 0, {})]
    if not solutions:
        raise NoSolutionError(
            f"no signature with n = {n} and degrees in {allowed} at dimension {dimension}")
    solutions.sort(key=AlgebraTypeSignature.sort_key)
    if len(solutions) == 1:
        return solutions[0]
    return Ambiguous(tuple(solutions))
