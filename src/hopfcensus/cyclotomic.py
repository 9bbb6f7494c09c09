"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored as integer numerators over one positive common
denominator: ``num`` holds the phi(n) coefficients of a polynomial in
zeta_n reduced modulo the n-th cyclotomic polynomial Phi_n, and the value is
that polynomial divided by ``den``, with gcd(den, *num) = 1.  This is the
representation GAP uses for cyclotomics.  Reduction modulo Phi_n (rather
than x^n - 1) keeps the ring a field, so every nonzero element is
invertible; Phi_n is monic with integer coefficients, so the power basis
tables and the one substitution kernel ``_spread`` (reduction, the Galois
action and lifting to a larger field) need no fractions, nor does inversion.

The representative is canonical: the conductor is always the smallest m
with the value in Q(zeta_m) (and never congruent to 2 mod 4, since
Q(zeta_2u) = Q(zeta_u) for odd u).  ``_canonicalize`` finds it by descending
one prime at a time, and each step (``_down``) reads integer coordinates
over a basis of Z[zeta_n] over the subring.  Together with the gcd invariant
this makes equality of values equality of representations, and values are
hashable.  Fraction appears only at the API edges: the constructor,
``from_rational``, ``coeffs``, ``rational_value``, ``from_json`` and the
coercion of operands.

``CycInt`` is the same lattice without the normal form: the integer
coordinates of an element of Z[zeta_n] at a conductor its holder fixes, for
numerators over a denominator the holder keeps.  Both types multiply through
the one product ``_times``.

Every operation is pure and exact; there is no floating point anywhere.
phi(n) is read one way, as the degree len(cyclotomic_poly(n)) - 1 of the
cached Phi_n.  The package's number-theory helpers live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

#: Largest conductor the package will compute with.  Exceeding it raises
#: ConductorLimitError rather than degrading silently.
MAX_CONDUCTOR = 24

_gcd = math.gcd


class ConductorLimitError(ValueError):
    """A requested value does not fit in Q(zeta_m) for any supported m."""


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


def _partitions_into_squares(remaining: int, degrees: Sequence[int], i: int,
                             memo: dict, piece=lambda d, m: ((d, m),),
                             empty=()) -> list:
    """All ways to write remaining as sum m * d^2 over distinct d in degrees[i:].

    ``degrees`` ascends.  A way is ``empty`` plus ``piece(d, m)`` for each of
    its entries by ascending d: by default its tuple of (d, m) entries, or
    with text pieces its text.  The list uses degrees[i] once, twice and so
    on before it skips it, so it is already in ascending order of entries
    (``AlgebraTypeSignature.sort_key``), whatever the pieces.  ``memo`` holds
    the list of every (remaining, i) already solved, for one degree sequence
    and one kind of piece, so calls for several remainders share the work,
    as the census does across its degree-1 counts.
    """
    key = (remaining, i)
    if key not in memo:
        if remaining == 0:
            memo[key] = [empty]
        elif i == len(degrees) or degrees[i] ** 2 > remaining:
            memo[key] = []
        else:
            d = degrees[i]
            out = []
            for m in range(1, remaining // (d * d) + 1):
                head = piece(d, m)
                out += [head + rest for rest in _partitions_into_squares(
                    remaining - m * d * d, degrees, i + 1, memo, piece, empty)]
            out += _partitions_into_squares(remaining, degrees, i + 1, memo,
                                            piece, empty)
            memo[key] = out
    return memo[key]


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


def _polydiv_exact(num: list, den: list) -> list:
    """num / den, ascending, for a monic den dividing num exactly; the
    coefficients are integers here and CycNumbers in ``hopfcore``."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


# -- integer power-basis tables, filled lazily per conductor ------------------------

@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_n^j for j in [0, n), each as the sparse (index, integer
    coefficient) terms of its reduced vector in the power basis."""
    poly = cyclotomic_poly(n)
    phi = len(poly) - 1
    # x^phi = -(poly[0] + ... + poly[phi-1] x^{phi-1})  (poly is monic)
    vec = [0] * phi
    out = []
    for j in range(n):
        if j < phi:
            vec = [0] * phi
            vec[j] = 1
        else:
            lead = vec[-1]
            vec = [0] + vec[:-1]
            if lead:
                for t in range(phi):
                    vec[t] -= lead * poly[t]
        out.append(tuple((t, c) for t, c in enumerate(vec) if c))
    return tuple(out)


def _dense(terms, phi: int) -> list[int]:
    out = [0] * phi
    for t, c in terms:
        out[t] = c
    return out


def _spread(num, n: int, step: int = 1) -> list[int]:
    """sum_j num[j] zeta_n^(j*step) in the power basis of Q(zeta_n).

    Step 1 reduces an integer polynomial in zeta_n of any length modulo
    Phi_n.  A step k coprime to n applies the automorphism sigma_k:
    zeta_n -> zeta_n^k, which maps every Q(zeta_m), m | n, and the lattice
    Z[zeta_n] onto themselves, so it keeps the minimal conductor and the gcd
    of the numerators.  Step n/m writes a vector of Q(zeta_m) in Q(zeta_n).
    """
    powers = _powers(n)
    out = [0] * (len(cyclotomic_poly(n)) - 1)  # phi(n)
    for j, c in enumerate(num):
        if c:
            for t, v in powers[j * step % n]:
                out[t] += c * v
    return out


def _times(a, b, n: int) -> list[int]:
    """The product of two integer vectors of Q(zeta_n), reduced modulo Phi_n:
    Z[zeta_n]'s one product, for ``CycNumber`` and ``CycInt`` alike.

    The schoolbook product has degree below 2 phi(n) - 1, so only its
    coefficients at phi(n) and above need the table of reduced powers.
    """
    phi = len(a)
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    powers = _powers(n)
    for k in range(phi, 2 * phi - 1):
        c = prod[k]
        if c:
            for t, v in powers[k % n]:
                prod[t] += c * v
    del prod[phi:]
    return prod


def _lifted(x: "CycNumber", n: int):
    """The numerators of x in the power basis of Q(zeta_n); same ``den``."""
    if x.conductor == n:
        return x.num
    return _spread(x.num, n, n // x.conductor)


def _down(num, n: int, p: int):
    """The numerators of a vector of Q(zeta_n) in Q(zeta_m), m = n/p for a
    prime p, or None when the value does not lie in Q(zeta_m).

    Both cases are integer reads of a basis of Z[zeta_n] over Z[zeta_m].
    If p | m, Phi_n(x) = Phi_m(x^p), so that basis is 1, zeta_n, ...,
    zeta_n^(p-1) and zeta_n^p = zeta_m.  If p does not divide m, Z[zeta_n]
    = Z[zeta_m] (x) Z[zeta_p] and zeta_n = zeta_m^q zeta_p^r with pq + mr = 1,
    so the basis is zeta_p^0, ..., zeta_p^(p-2).
    """
    m = n // p
    if m % p == 0:  # every nonzero coefficient must sit at a multiple of p
        sub = num[::p]
        return sub if len(num) - num.count(0) == len(sub) - sub.count(0) \
            else None
    r = pow(m, -1, p)
    q = (1 - m * r) // p  # exact: mr = 1 (mod p)
    below, across, phi = _powers(m), _powers(p), len(cyclotomic_poly(m)) - 1
    out = [0] * len(num)
    for i, c in enumerate(num):
        if c:
            for b, v in across[i * r % p]:
                for a, u in below[i * q % m]:
                    out[b * phi + a] += c * u * v
    return None if any(out[phi:]) else out[:phi]


# -- the number type -----------------------------------------------------------

class CycNumber:
    """An exact element of a cyclotomic field, canonical and immutable."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if _canonical_conductor(conductor) > MAX_CONDUCTOR:
            raise ConductorLimitError(
                f"conductor {_canonical_conductor(conductor)} > {MAX_CONDUCTOR}")
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        x = _from_numerators(conductor, _spread(
            [c.numerator * (den // c.denominator) for c in coeffs], conductor),
            den)
        _set_conductor(self, x.conductor)
        _set_num(self, x.num)
        _set_den(self, x.den)

    def __setattr__(self, *_):
        raise AttributeError("CycNumber is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycNumber":
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "CycNumber":
        return _ZERO

    @staticmethod
    def one() -> "CycNumber":
        return _ONE

    @staticmethod
    def root_of_unity(n: int, k: int) -> "CycNumber":
        """zeta_n^k, reduced to its minimal field.

        zeta_n^k = zeta_d^j is a primitive d-th root of unity, which
        generates Q(zeta_d), so it is written straight into canonical form
        without a subfield descent.  For d not congruent to 2 mod 4 the
        conductor is d and the value is the power-basis vector of zeta_d^j
        over denominator 1.  For d = 2u with u odd, Q(zeta_d) = Q(zeta_u)
        and zeta_2u = -zeta_u^((u+1)/2), so zeta_2u^j = (-1)^j
        zeta_u^(j(u+1)/2), a vector of Q(zeta_u) over denominator 1.
        """
        if n < 1:
            raise ValueError("order must be positive")
        k %= n
        if k == 0:
            return _ONE
        d = n // math.gcd(n, k)
        j = k // (n // d)
        conductor = _canonical_conductor(d)
        if conductor > MAX_CONDUCTOR:
            raise ConductorLimitError(
                f"a primitive {d}-th root of unity needs conductor "
                f"{conductor} > {MAX_CONDUCTOR}")
        phi = len(cyclotomic_poly(conductor)) - 1
        if conductor == d:
            return _make(d, tuple(_dense(_powers(d)[j], phi)), 1)
        # j is coprime to the even d, so odd: the sign (-1)^j is -1.
        u = conductor
        terms = _powers(u)[j * (u + 1) // 2 % u]
        return _make(u, tuple(-c for c in _dense(terms, phi)), 1)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in the power basis of Q(zeta_conductor)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return self.conductor == 1 and not self.num[0]

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        # Zero is canonically rational, so only conductor 1 can be zero.
        return self.conductor != 1 or self.num[0] != 0

    # -- arithmetic --------------------------------------------------------

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
        da, db = self.den, other.den
        if self.conductor == 1 and other.conductor == 1:
            if da == db:
                p, q = self.num[0] + other.num[0], da
            else:
                p, q = self.num[0] * db + other.num[0] * da, da * db
            if q != 1:
                g = _gcd(p, q)
                if g != 1:
                    p //= g
                    q //= g
            return _make(1, (p,), q)
        n = self._common(other)
        a, b = _lifted(self, n), _lifted(other, n)
        return _from_numerators(n, [x * db + y * da for x, y in zip(a, b)],
                                da * db)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "CycNumber":
        return _make(self.conductor, tuple(-c for c in self.num), self.den)

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
        if self.conductor == 1:
            p = self.num[0]
            if not p:
                return _ZERO
            if other.conductor != 1:
                # A nonzero rational scales the numerators and cannot change
                # the minimal field, so the product skips the descent.
                return _normalized(other.conductor, [p * c for c in other.num],
                                   self.den * other.den)
            p *= other.num[0]
            if not p:
                return _ZERO
            q = self.den * other.den
            if q != 1:
                g = _gcd(p, q)
                if g != 1:
                    p //= g
                    q //= g
            return _make(1, (p,), q)
        if other.conductor == 1:
            return other.__mul__(self)
        n = self._common(other)
        return _from_numerators(n, _times(_lifted(self, n), _lifted(other, n), n),
                                self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "CycNumber":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        For conductor n > 1, x^-1 = prod_{k != 1} sigma_k(x) / N(x) over the
        k coprime to n, where the norm N(x) = x * prod_{k != 1} sigma_k(x)
        is rational.  x^-1 lies in the same minimal field as x.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.conductor == 1:
            p, q = self.num[0], self.den
            return _make(1, (q,), p) if p > 0 else _make(1, (-q,), -p)
        n, num, den = self.conductor, self.num, self.den
        rest = _spread(num, n, n - 1)
        for k in range(2, n - 1):
            if _gcd(k, n) == 1:
                rest = _times(rest, _spread(num, n, k), n)
        norm = _times(num, rest, n)[0]
        if norm < 0:
            norm, den = -norm, -den
        return _normalized(n, [den * c for c in rest], norm)

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
        return _make(n, tuple(_spread(self.num, n, n - 1)), self.den)

    # -- comparison, hashing, display, serialization ------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not CycNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.conductor == other.conductor and self.den == other.den \
            and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.conductor, self.num, self.den))

    def sort_key(self):
        """(conductor, the (numerator, denominator) of each coefficient in
        lowest terms): the order reports list values in."""
        den, pairs = self.den, []
        for c in self.num:
            g = _gcd(c, den)
            pairs.append((c // g, den // g))
        return self.conductor, tuple(pairs)

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
        """The number of ``to_json`` output; a malformed object raises
        ValueError.  ``type`` keeps out ``true`` and ``false``."""
        conductor, coeffs = data.get("conductor"), data.get("coeffs")
        if not (type(conductor) is int and 1 <= conductor <= MAX_CONDUCTOR
                and isinstance(coeffs, list)
                and all(type(c) in (int, str) for c in coeffs)):
            raise ValueError(f"a CycNumber object needs an integer conductor "
                             f"in 1..{MAX_CONDUCTOR} and a list of integer or "
                             f"string coeffs")
        return CycNumber(conductor, [Fraction(c) for c in coeffs])


_new_instance = object.__new__
_set_conductor = CycNumber.__dict__["conductor"].__set__
_set_num = CycNumber.__dict__["num"].__set__
_set_den = CycNumber.__dict__["den"].__set__


def _make(conductor: int, num: tuple[int, ...], den: int) -> CycNumber:
    """The value num / den, already canonical: minimal conductor and
    gcd(den, *num) = 1 with den > 0.

    Skips ``__init__`` (coercion and ``_canonicalize``).
    """
    x = _new_instance(CycNumber)
    _set_conductor(x, conductor)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _normalized(n: int, num: list[int], den: int) -> CycNumber:
    """num / den at the minimal conductor n, divided through by
    gcd(den, *num) so that the invariant holds (den > 0 on entry)."""
    if den != 1:
        g = _gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _make(n, tuple(num), den)


def _from_numerators(n: int, num: list[int], den: int) -> CycNumber:
    """The value num / den of Q(zeta_n), num reduced, in canonical form."""
    return _normalized(*_canonicalize(n, num, den))


def _coerce(x):
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNumber.from_rational(x)
    return NotImplemented


def _canonicalize(n: int, num: list[int], den: int):
    """(conductor, numerators, den) of the minimal-conductor representative.

    The numerators are reduced, and so is the result, which is not yet
    divided through by its gcd with den.  The value descends one prime
    at a time, by ``_down``, to the first Q(zeta_(n/p)) with n/p > 2 that
    holds it.  Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the
    conductors of the fields that hold the value are closed under gcd, and
    the descent stops at the smallest, which is never 2 mod 4.  Conductors
    1, 3, 4 and the primes have no subfield but Q and never call ``_down``.
    """
    if not any(num[1:]):
        return 1, num[:1], den
    if n > 4:  # Q(zeta_3) and Q(zeta_4) have no subfield but Q
        for p in set(prime_factors(n)):
            if n // p > 2:
                sub = _down(num, n, p)
                if sub is not None:
                    return _canonicalize(n // p, sub, den)
    return n, num, den


_ZERO = _make(1, (0,), 1)
_ONE = _make(1, (1,), 1)


# -- cyclotomic integers at a fixed conductor ------------------------------------

_new_tuple = tuple.__new__


class CycInt(tuple):
    """An element of Z[zeta_n] as its integer coordinates in the power basis
    of Q(zeta_n): a numerator over a denominator its holder keeps.

    Nothing is normalized, so a sum or product costs no gcd and no descent.
    Operands share one conductor n, which each subclass ``CycInt.of(n)``
    carries for the product ``_times``.  A Python int k stands for the vector
    (k, 0, ..., 0) wherever the two meet.  The power basis is a basis, so
    equality is coordinate equality.
    """

    __slots__ = ()
    n: int

    @staticmethod
    @lru_cache(maxsize=None)
    def of(n: int) -> type:
        return type(f"CycInt{n}", (CycInt,), {"__slots__": (), "n": n})

    def __add__(self, other):
        if type(other) is int:
            return _new_tuple(type(self), (self[0] + other, *self[1:]))
        return _new_tuple(type(self), map(int.__add__, self, other))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            return _new_tuple(type(self), map(other.__mul__, self)) \
                if other else 0
        return _new_tuple(type(self), _times(self, other, self.n))

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is int:
            return self[0] == other and not any(self[1:])
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    def __bool__(self) -> bool:
        return any(self)
