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
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from hopfcensus.cyclotomic import _nat_span, _partitions_into_squares, divisors
from hopfcensus.fusion import (AlgebraTypeSignature, FusionError, SearchOutcome,
                               search_fusion)


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


@lru_cache(maxsize=None)
def _r10_violation(n: int, degrees: tuple[int, ...]) -> str | None:
    """R10's verdict, which reads only n and the nonlinear degrees present,
    so it is computed once per pair: a census meets each pair many times.
    Each s divides d^2, so every prime of s divides d without a test."""
    span = _nat_span(max(degrees) ** 2, degrees)
    for d in degrees:
        if not any(span >> (d * d - s) & 1
                   for s in divisors(math.gcd(n, d * d))):
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
        lambda N, s: _r10_violation(s.n, s.degrees_present)),
)

RULES_BY_ID = {r.id: r for r in RULES}


def parse_rules(spec: str) -> tuple[CensusRule, ...]:
    """Rule set from "all", "R1-R8", "R1..R8" or "R1,R4,R5"."""
    text = spec.strip().replace("..", "-")
    if text.lower() == "all":
        return RULES
    ids: list[str] = []
    for part in text.replace(" ", "").split(","):
        if "-" in part[1:]:
            ends = part.split("-")
            if len(ends) != 2 or not all(e in RULES_BY_ID for e in ends):
                raise CensusError(f"cannot parse rule range {part!r}")
            lo, hi = (int(e[1:]) for e in ends)
            ids.extend(f"R{k}" for k in range(lo, hi + 1))
        elif part:
            ids.append(part)
    try:
        rules = tuple(RULES_BY_ID[i] for i in ids)
    except KeyError as exc:
        raise CensusError(f"unknown rule {exc.args[0]!r}") from None
    if "R1" not in {r.id for r in rules}:
        raise CensusError("rule set must contain R1")
    return rules


class Elimination(NamedTuple):
    """A candidate the rules removed: its type text, the rule and why."""
    type: str
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
        """The report.  The eliminations stay ``Elimination`` named tuples,
        which ``cli`` writes as {type, rule, detail} objects."""
        return {
            "dim": self.dimension,
            "survivors": [str(s) for s in self.survivors],
            "eliminated": list(self.eliminated),
            "oracle": [{"type": str(sig), **out.to_json()}
                       for sig, out in self.oracle],
            "final": [str(s) for s in self.final_survivors()],
        }


def _oracle_requests(oracle_types) -> list[AlgebraTypeSignature] | None:
    """The named oracle requests, in order, or None for every survivor."""
    requests = list(oracle_types)
    if "all" in requests:
        if any(t != "all" for t in requests):
            raise CensusError("oracle request 'all' cannot be combined with "
                              "named types")
        return None
    return [AlgebraTypeSignature.parse(t) for t in requests]


def enumerate_types(dimension: int,
                    rules: Iterable[CensusRule] | str = "all",
                    proper_only: bool = True,
                    n_filter: int | None = None,
                    oracle_types: Iterable[str] = (),
                    oracle_budget: int = 10 ** 7) -> CensusResult:
    """All type signatures at the given dimension, filtered by the rules.

    Candidates come in ascending order of ``sort_key``, and each is
    eliminated by the first rule of ``rules``, in their order, that it
    fails.  ``proper_only`` drops the purely cocommutative signature (n = N,
    no nonlinear degrees).  ``oracle_types`` requests fusion searches on the
    named survivors, or on every survivor when it holds ``"all"``; a request
    for a non-survivor is ignored, and a repeated one runs once.
    """
    if dimension < 1:
        raise CensusError("dimension must be positive")
    if n_filter is not None and not 1 <= n_filter <= dimension:
        raise CensusError(f"the degree-1 count {n_filter} is outside "
                          f"1..{dimension}")
    rule_list = parse_rules(rules) if isinstance(rules, str) else tuple(rules)
    requested = _oracle_requests(oracle_types)
    # Every candidate satisfies R1 by construction, so R1 is not checked.
    # R2 reads only n: when it comes first among the other rules, it is
    # decided once per degree-1 count, on the count's first candidate, and
    # removes all of a failing count's candidates without building them or
    # their entries.
    r1, r2 = RULES_BY_ID["R1"], RULES_BY_ID["R2"]
    checked = tuple(r for r in rule_list if r is not r1)
    r2_first = checked[:1] == (r2,)
    if r2_first:
        checked = checked[1:]

    survivors: list[AlgebraTypeSignature] = []
    eliminated: list[Elimination] = []
    degrees = tuple(range(2, math.isqrt(dimension) + 1))
    memo: dict = {}
    text_memo: dict = {}
    for n in range(1, dimension + 1) if n_filter is None else (n_filter,):
        head = AlgebraTypeSignature._head_text(n)
        texts = _partitions_into_squares(dimension - n, degrees, 0, text_memo,
                                         AlgebraTypeSignature._entry_text, "")
        if r2_first and texts:
            detail = r2.check(dimension,
                              AlgebraTypeSignature.parse(head + texts[0]))
            if detail is not None:
                eliminated += [Elimination(head + text, r2.id, detail)
                               for text in texts]
                continue
        ways = _partitions_into_squares(dimension - n, degrees, 0, memo)
        for entries, text in zip(ways, texts):
            if proper_only and not entries:
                continue
            sig = AlgebraTypeSignature._trusted(n, entries, dimension,
                                                head + text)
            for rule in checked:
                detail = rule.check(dimension, sig)
                if detail is not None:
                    eliminated.append(Elimination(sig.text, rule.id, detail))
                    break
            else:
                survivors.append(sig)

    oracle_results = []
    unsearched = {str(s) for s in survivors}
    for sig in survivors if requested is None else requested:
        if str(sig) not in unsearched:
            continue
        unsearched.remove(str(sig))
        try:
            outcome = search_fusion(sig, "hopf", oracle_budget)
        except FusionError as exc:
            outcome = SearchOutcome("inconclusive", 0, trace=str(exc))
        oracle_results.append((sig, outcome))

    return CensusResult(dimension, tuple(survivors), tuple(eliminated),
                        tuple(oracle_results))


def tensor_type(a: AlgebraTypeSignature,
                b: AlgebraTypeSignature) -> AlgebraTypeSignature:
    """Type of a tensor product: components pair off with multiplied degrees."""
    counts: Counter = Counter()
    for d, m in [(1, a.n)] + list(a.entries):
        for e, k in [(1, b.n)] + list(b.entries):
            counts[d * e] += m * k
    return AlgebraTypeSignature.from_counts(counts)


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
    if len(solutions) == 1:
        return solutions[0]
    return Ambiguous(tuple(solutions))
