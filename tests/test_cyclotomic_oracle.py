"""CycNumber against sympy's exact arithmetic, and the rational fast path.

Most tested conductors divide 24, so the oracle works in Q(zeta_24): a
value sum_j q_j zeta_n^j becomes the sympy polynomial sum_j q_j x^(j*24/n)
reduced modulo the 24th cyclotomic polynomial.  Sympy computes sums,
products, inverses and conjugates there without any code of this package.
The subfield descent is checked at every supported conductor, against
floating point.
"""

import cmath
import math
import random
from fractions import Fraction

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfcensus.cyclotomic import (MAX_CONDUCTOR, CycNumber,
                                   _canonical_conductor, _dense,
                                   _from_numerators, _powers, divisors)

N = 24
X = sympy.Symbol("x")
PHI = sympy.Poly(sympy.cyclotomic_poly(N, X), X, domain=sympy.QQ)
CONDUCTORS = (1, 3, 4, 8, 12, 24)

ONE = CycNumber.one()
rat = CycNumber.from_rational


def oracle(terms, n) -> sympy.Poly:
    """sum q zeta_n^j over the (j, q) terms, as a polynomial in zeta_24."""
    poly = sympy.Poly(0, X, domain=sympy.QQ)
    for j, q in terms:
        poly += sympy.Poly(sympy.Rational(q.numerator, q.denominator)
                           * X ** (j * (N // n)), X, domain=sympy.QQ)
    return poly.rem(PHI)


def to_oracle(v: CycNumber) -> sympy.Poly:
    return oracle(list(enumerate(v.coeffs)), v.conductor)


def build(terms, n) -> CycNumber:
    coeffs = [Fraction(0)] * n
    for j, q in terms:
        coeffs[j] += q
    return CycNumber(n, coeffs)


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def values(draw):
    """A (CycNumber, oracle polynomial) pair at one of the tested conductors."""
    n = draw(st.sampled_from(CONDUCTORS))
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1), fractions),
                          max_size=3))
    return build(terms, n), oracle(terms, n)


@settings(max_examples=150, deadline=None)
@given(values(), values())
def test_arithmetic_agrees_with_sympy(a, b):
    (x, px), (y, py) = a, b
    assert to_oracle(x) == px and to_oracle(y) == py
    assert to_oracle(x + y) == (px + py).rem(PHI)
    assert to_oracle(x - y) == (px - py).rem(PHI)
    assert to_oracle(x * y) == (px * py).rem(PHI)
    assert (x == y) == (px == py)
    assert bool(x) == (not px.is_zero) and bool(y) == (not py.is_zero)
    assert to_oracle(x.conjugate()) == \
        px.compose(sympy.Poly(X ** (N - 1), X)).rem(PHI)
    if not px.is_zero:
        assert to_oracle(x.inv()) == px.invert(PHI)


@settings(max_examples=100, deadline=None)
@given(values(), values())
def test_equal_values_hash_equal(a, b):
    (x, _), (y, py) = a, b
    routes = [x + y - y, (x - y) + y, x * ONE, ONE * x, -(-x)]
    if not py.is_zero:
        routes.append((x * y) * y.inv())
    for again in routes:
        assert again == x and hash(again) == hash(x)
        assert (again.conductor, again.coeffs) == (x.conductor, x.coeffs)


def _slow_rational(q: Fraction) -> CycNumber:
    """The rational q through the general constructor and canonicalization."""
    return CycNumber(1, (q,))


@settings(max_examples=100, deadline=None)
@given(fractions, fractions)
def test_rational_fast_path_matches_the_general_constructor(p, q):
    x, y = rat(p), rat(q)
    results = {p + q: x + y, p - q: x - y, p * q: x * y, -p: -x, p: x * ONE}
    if p:
        results[1 / p] = x.inv()
    if q:
        results[p / q] = x / y
    for value, got in results.items():
        expected = _slow_rational(value)
        assert got.conductor == 1 and type(got.coeffs[0]) is Fraction
        assert got == expected and hash(got) == hash(expected)


@settings(max_examples=60, deadline=None)
@given(fractions, st.integers(-5, 5), values())
def test_mixed_int_and_fraction_operands_coerce(p, k, a):
    x, y = rat(p), a[0]
    for got, value in [(x + k, p + k), (k + x, k + p), (x - k, p - k),
                       (k - x, k - p), (x * k, p * k), (k * x, k * p),
                       (x * p, p * p), (p * x, p * p), (ONE * k, k),
                       (k * ONE, k), (ONE * p, p)]:
        assert isinstance(got, CycNumber)
        assert got == _slow_rational(Fraction(value))
    assert x == p and rat(k) == k
    assert y * 1 == y and 1 * y == y and y + 0 == y and y - Fraction(0) == y
    assert y * k == y * rat(k) and Fraction(k, 3) * y == rat(Fraction(k, 3)) * y
    assume(k != 0)
    assert x / k == _slow_rational(p / k)
    if p:
        assert k / x == _slow_rational(k / p)


def test_roots_of_unity_agree_with_the_descent_path_and_sympy():
    # Every supported zeta_n^k: n up to 2 * MAX_CONDUCTOR with the canonical
    # field label of n within MAX_CONDUCTOR.  The descent path writes it as
    # x^k in Q(zeta_n) and lets the subfield descent find its minimal field.
    # Sympy compares it in Q(zeta_L), L = lcm(n, conductor), as x^(kL/n).
    pairs = [(n, k) for n in range(1, 2 * MAX_CONDUCTOR + 1)
             if _canonical_conductor(n) <= MAX_CONDUCTOR for k in range(n)]
    assert len(pairs) == 516
    for n, k in pairs:
        got = CycNumber.root_of_unity(n, k)
        slow = _from_numerators(
            n, _dense(_powers(n)[k], int(sympy.totient(n))), 1)
        assert (got.conductor, got.num, got.den) == \
            (slow.conductor, slow.num, slow.den), (n, k)
        big = math.lcm(n, got.conductor)
        phi = sympy.Poly(sympy.cyclotomic_poly(big, X), X, domain=sympy.QQ)
        step = big // got.conductor
        value = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                               * X ** (j * step)
                               for j, c in enumerate(got.coeffs)),
                           X, domain=sympy.QQ)
        expected = sympy.Poly(X ** (k * (big // n)), X, domain=sympy.QQ)
        assert value.rem(phi) == expected.rem(phi), (n, k)


def _complex(coeffs, n) -> complex:
    """sum_j coeffs[j] zeta_n^j in floating point."""
    return sum(float(c) * cmath.exp(2j * math.pi * j / n)
               for j, c in enumerate(coeffs))


def test_values_of_subfields_descend_to_the_same_representation():
    # A value of Q(zeta_m) written in Q(zeta_n), m | n, as w_j at the
    # exponents j * n / m: the constructor must find the same canonical
    # form as from Q(zeta_m) itself.  Dense draws mostly keep conductor m;
    # sparse ones descend further, so the descent both fails and succeeds.
    rng = random.Random(19)
    sizes = [n for n in range(1, 2 * MAX_CONDUCTOR + 1)
             if _canonical_conductor(n) <= MAX_CONDUCTOR]
    assert len(sizes) == 30
    for n in sizes:
        for m in divisors(n):
            for support in (m, 2, 1):
                w = [Fraction(0)] * m
                for j in rng.sample(range(m), min(support, m)):
                    w[j] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                spread = [Fraction(0)] * n
                spread[::n // m] = w
                small, big = CycNumber(m, w), CycNumber(n, spread)
                assert (big.conductor, big.num, big.den) == \
                    (small.conductor, small.num, small.den), (n, m, w)
                assert abs(_complex(small.coeffs, small.conductor)
                           - _complex(w, m)) < 1e-9, (n, m, w)
