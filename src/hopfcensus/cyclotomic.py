"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored as a polynomial in zeta_n reduced modulo the n-th
cyclotomic polynomial, with Fraction coefficients.  Reduction modulo the
cyclotomic polynomial (rather than x^n - 1) keeps the ring a field, so
every nonzero element is invertible.

The representative is canonical: the conductor is always the smallest m
with the value in Q(zeta_m) (and never congruent to 2 mod 4, since
Q(zeta_2u) = Q(zeta_u) for odd u).  Equality of values is therefore
equality of representations, and values are hashable.

Every operation is pure and exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Largest conductor the package will compute with.  Exceeding it raises
#: ConductorLimitError rather than degrading silently.
MAX_CONDUCTOR = 24


class ConductorLimitError(ValueError):
    """A requested value does not fit in Q(zeta_m) for any supported m."""


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def prime_factors(n: int) -> list[int]:
    """The prime factors of n with multiplicity, ascending."""
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


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _canonical_conductor(n: int) -> int:
    """The canonical field label: Q(zeta_2u) = Q(zeta_u) for odd u."""
    return n // 2 if n % 4 == 2 else n


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d == n:
            continue
        den = cyclotomic_poly(d)
        num = _polydiv_exact(num, list(den))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign of lead 1)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_n^j for j in [phi(n), 2*phi(n)-1], as vectors in the power basis."""
    phi = euler_phi(n)
    poly = cyclotomic_poly(n)
    # x^phi = -(poly[0] + ... + poly[phi-1] x^{phi-1})  (poly is monic)
    rows: list[tuple[Fraction, ...]] = []
    top = [Fraction(-poly[j]) for j in range(phi)]
    rows.append(tuple(top))
    for _ in range(phi - 1):
        prev = rows[-1]
        shifted = [Fraction(0)] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for j in range(phi):
                shifted[j] += lead * rows[0][j]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_poly(coeffs: list[Fraction], n: int) -> list[Fraction]:
    """Reduce an arbitrary-degree polynomial in zeta_n modulo Phi_n."""
    phi = euler_phi(n)
    rows = _reduction_rows(n)
    out = list(coeffs[:phi])
    out += [Fraction(0)] * (phi - len(out))
    for j in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[j]
        if not c:
            continue
        vec = rows[j - phi] if j - phi < phi else _power_vec(n, j)
        for t in range(phi):
            out[t] += c * vec[t]
    return out[:phi]


@lru_cache(maxsize=None)
def _power_vec(n: int, j: int) -> tuple[Fraction, ...]:
    """zeta_n^j as a reduced coefficient vector of length phi(n)."""
    phi = euler_phi(n)
    j %= n
    if j < phi:
        vec = [Fraction(0)] * phi
        vec[j] = Fraction(1)
        return tuple(vec)
    prev = _power_vec(n, j - 1)
    shifted = [Fraction(0)] + list(prev[:-1])
    lead = prev[-1]
    if lead:
        rows = _reduction_rows(n)
        for t in range(phi):
            shifted[t] += lead * rows[0][t]
    return tuple(shifted)


@lru_cache(maxsize=None)
def _subfield_solver(n: int, m: int):
    """Row-reduced data for deciding membership of Q(zeta_n) values in Q(zeta_m).

    Returns (pivot columns, echelon matrix) for the phi(n) x phi(m) matrix
    whose columns are zeta_m^j written in the basis of Q(zeta_n).
    """
    phi_n, phi_m = euler_phi(n), euler_phi(m)
    step = n // m
    cols = [_power_vec(n, j * step) for j in range(phi_m)]
    # Gaussian elimination with the identity trick: reduce [cols | I].
    rows = [[cols[c][r] for c in range(phi_m)] + [Fraction(1 if t == r else 0) for t in range(phi_n)]
            for r in range(phi_n)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(phi_m):
        pr = next((i for i in range(r, phi_n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(phi_n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    return pivots, tuple(tuple(row) for row in rows), phi_m, phi_n


def _try_descend(v: list[Fraction], n: int, m: int) -> list[Fraction] | None:
    """Coefficients of v in Q(zeta_m) if v lies in that subfield, else None."""
    pivots, rows, phi_m, phi_n = _subfield_solver(n, m)
    # Apply the recorded row operations to v, read off solution/consistency.
    transformed = []
    for row in rows:
        acc = Fraction(0)
        for t in range(phi_n):
            if row[phi_m + t] and v[t]:
                acc += row[phi_m + t] * v[t]
        transformed.append(acc)
    sol = [Fraction(0)] * phi_m
    pivot_rows = set()
    for r, c in pivots:
        sol[c] = transformed[r]
        pivot_rows.add(r)
    for r in range(phi_n):
        if r not in pivot_rows and transformed[r]:
            return None
    return sol


class CycNumber:
    """An exact element of a cyclotomic field, canonical and immutable."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs, _canonical: bool = False):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c)
                       for c in coeffs)
        if not _canonical:
            conductor, coeffs = _canonicalize(conductor, list(coeffs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("CycNumber is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycNumber":
        return _rational(Fraction(q))

    @staticmethod
    def zero() -> "CycNumber":
        return _ZERO

    @staticmethod
    def one() -> "CycNumber":
        return _ONE

    @staticmethod
    def root_of_unity(n: int, k: int) -> "CycNumber":
        """zeta_n^k, reduced to its minimal field."""
        if n < 1:
            raise ValueError("order must be positive")
        k %= n
        if k == 0:
            return _ONE
        d = n // math.gcd(n, k)
        j = k // (n // d)
        if d == 2:
            return CycNumber.from_rational(-1)
        if _canonical_conductor(d) > MAX_CONDUCTOR:
            raise ConductorLimitError(
                f"a primitive {d}-th root of unity needs conductor "
                f"{_canonical_conductor(d)} > {MAX_CONDUCTOR}")
        phi = euler_phi(d)
        vec = list(_power_vec(d, j % d))
        assert len(vec) == phi
        return CycNumber(d, vec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and not self.coeffs[0].numerator

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        # Zero is canonically rational, so only conductor 1 can be zero.
        return self.conductor != 1 or self.coeffs[0].numerator != 0

    # -- arithmetic --------------------------------------------------------

    def _lifted(self, n: int) -> list[Fraction]:
        if self.conductor == n:
            return list(self.coeffs)
        phi = euler_phi(n)
        step = n // self.conductor
        out = [Fraction(0)] * phi
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            vec = _power_vec(n, j * step)
            for t in range(phi):
                out[t] += c * vec[t]
        return out

    def _common(self, other: "CycNumber") -> int:
        n = self.conductor * other.conductor // math.gcd(self.conductor, other.conductor)
        if _canonical_conductor(n) > MAX_CONDUCTOR:
            raise ConductorLimitError(
                f"operation needs conductor {n} > {MAX_CONDUCTOR}")
        return n

    def __add__(self, other) -> "CycNumber":
        if type(other) is not CycNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return _rational(self.coeffs[0] + other.coeffs[0])
        n = self._common(other)
        a, b = self._lifted(n), other._lifted(n)
        return CycNumber(n, [x + y for x, y in zip(a, b)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "CycNumber":
        if self.conductor == 1:
            return _rational(-self.coeffs[0])
        return CycNumber(self.conductor, tuple(-c for c in self.coeffs), _canonical=True)

    def __sub__(self, other) -> "CycNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> "CycNumber":
        if other is _ONE:
            return self
        if self is _ONE:
            return _coerce(other)
        if type(other) is not CycNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return _rational(self.coeffs[0] * other.coeffs[0])
        if self.conductor == 1:
            q = self.coeffs[0]
            if not q:
                return _ZERO
            return CycNumber(other.conductor, tuple(q * c for c in other.coeffs))
        if other.conductor == 1:
            return other.__mul__(self)
        n = self._common(other)
        a, b = self._lifted(n), other._lifted(n)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
        return CycNumber(n, _reduce_poly(prod, n))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "CycNumber":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.conductor == 1:
            return _rational(1 / self.coeffs[0])
        n = self.conductor
        phi_poly = [Fraction(c) for c in cyclotomic_poly(n)]
        g, s = _poly_xgcd(list(self.coeffs), phi_poly)
        # g is a nonzero constant since Phi_n is irreducible over Q.
        c = g[0]
        return CycNumber(n, _reduce_poly([x / c for x in s], n))

    def __truediv__(self, other) -> "CycNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inv())

    def __rtruediv__(self, other):
        return _coerce(other).__mul__(self.inv())

    def __pow__(self, k: int) -> "CycNumber":
        if k < 0:
            return self.inv() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "CycNumber":
        """Image under zeta_n -> zeta_n^{-1} (complex conjugation)."""
        n = self.conductor
        if n == 1:
            return self
        phi = euler_phi(n)
        out = [Fraction(0)] * phi
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            vec = _power_vec(n, (n - j) % n)
            for t in range(phi):
                out[t] += c * vec[t]
        return CycNumber(n, out)

    # -- comparison, hashing, display, serialization ------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not CycNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.conductor, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        return (self.conductor,
                tuple((c.numerator, c.denominator) for c in self.coeffs))

    def __repr__(self) -> str:
        if self.conductor == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mono = f"z{self.conductor}" if j == 1 else f"z{self.conductor}^{j}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return "Cyc(" + (" + ".join(terms) or "0") + ")"

    def to_json(self) -> dict:
        return {"conductor": self.conductor,
                "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "CycNumber":
        return CycNumber(int(data["conductor"]),
                         [Fraction(s) for s in data["coeffs"]])


_new_instance = object.__new__
_set_conductor = CycNumber.__dict__["conductor"].__set__
_set_coeffs = CycNumber.__dict__["coeffs"].__set__
_set_hash = CycNumber.__dict__["_hash"].__set__


def _rational(q: Fraction) -> CycNumber:
    """The conductor-1 value q, which must already be a Fraction.

    Rational values are canonical by definition, so this skips
    ``__init__`` (coercion, the coefficient copy and ``_canonicalize``);
    the result equals, and hashes like, ``CycNumber(1, (q,))``.
    """
    x = _new_instance(CycNumber)
    _set_conductor(x, 1)
    _set_coeffs(x, (q,))
    _set_hash(x, None)
    return x


def _coerce(x):
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNumber.from_rational(x)
    return NotImplemented


def _canonicalize(n: int, coeffs: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """Minimal-conductor representative.

    Searching divisors of n in ascending order finds the global minimum,
    because the minimal cyclotomic field containing a value of Q(zeta_n)
    has conductor dividing n.  Conductors congruent to 2 mod 4 are never
    stored (Q(zeta_2u) = Q(zeta_u) for odd u, so the odd divisor u wins).
    """
    phi = euler_phi(n)
    if len(coeffs) != phi:
        coeffs = _reduce_poly(coeffs, n)
    if n == 1:
        return 1, tuple(coeffs)
    if all(c == 0 for c in coeffs[1:]):
        return 1, (coeffs[0],)
    for m in divisors(n):
        if m == n or m <= 2 or m % 4 == 2:
            continue
        sol = _try_descend(coeffs, n, m)
        if sol is not None:
            return m, tuple(sol)
    if n % 4 == 2:
        # Same field as Q(zeta_{n/2}); the odd divisor was skipped only if
        # descent failed, which cannot happen here.
        raise AssertionError(f"descent from conductor {n} must succeed")
    return n, tuple(coeffs)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    if len(num) < len(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            f = c / lead
            q[i] = f
            for j, dj in enumerate(den):
                num[i + j] -= f * dj
    return _poly_trim(q), _poly_trim(num[:len(den) - 1] or [Fraction(0)])


def _poly_is_zero(p: list[Fraction]) -> bool:
    return all(c == 0 for c in p)


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid in Q[x]: returns (g, s) with s*a = g (mod b)."""
    r0, s0 = _poly_trim(list(b)), [Fraction(0)]
    r1, s1 = _poly_trim(list(a)), [Fraction(1)]
    while not _poly_is_zero(r1):
        q, rem = _poly_divmod(r0, r1)
        qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    qs1[i + j] += x * y
        s_next = [Fraction(0)] * max(len(s0), len(qs1))
        for i, c in enumerate(s0):
            s_next[i] += c
        for i, c in enumerate(qs1):
            s_next[i] -= c
        r0, s0 = r1, s1
        r1, s1 = rem, _poly_trim(s_next)
    return r0, s0


_ZERO = _rational(Fraction(0))
_ONE = _rational(Fraction(1))
