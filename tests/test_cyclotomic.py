"""Exact cyclotomic arithmetic: examples, field axioms, canonical form."""

import ast
import importlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcensus import cyclotomic
from hopfcensus.cyclotomic import (MAX_CONDUCTOR, ConductorLimitError, CycInt,
                                   CycNumber, cyclotomic_poly)

zeta = CycNumber.root_of_unity
rat = CycNumber.from_rational
ONE = CycNumber.one()
ZERO = CycNumber.zero()
X = sympy.Symbol("x")


def test_rational_addition():
    assert rat(Fraction(1, 2)) + rat(Fraction(1, 2)) == ONE


def test_primitive_cube_roots_sum_to_minus_one():
    assert zeta(3, 1) + zeta(3, 2) == rat(-1)


def test_additive_identity():
    assert zeta(4, 1) + ZERO == zeta(4, 1)


def test_i_squared():
    assert zeta(4, 1) * zeta(4, 1) == rat(-1)


def test_rational_inverse():
    assert rat(2).inv() == rat(Fraction(1, 2))


def test_cube_root_inverse_pair():
    assert zeta(3, 1) * zeta(3, 2) == ONE


def test_root_of_unity_small_orders():
    assert zeta(2, 1) == rat(-1)
    assert zeta(4, 2) == rat(-1)
    assert zeta(1, 0) == ONE


def test_sixth_root_reduces_to_conductor_three():
    # Oracle: zeta_6 = -zeta_3^2, checkable by squaring both sides exactly.
    z6 = zeta(6, 1)
    oracle = -(zeta(3, 2))
    assert z6 == oracle
    assert z6 * z6 == oracle * oracle == zeta(3, 1)
    assert zeta(6, 3) == rat(-1)
    assert z6.conductor == 3


def test_conjugation_examples():
    assert zeta(4, 1).conjugate() == -zeta(4, 1)
    assert rat(Fraction(3, 7)).conjugate() == rat(Fraction(3, 7))
    assert zeta(3, 1).conjugate() == zeta(3, 2)


def test_roots_of_unity_have_right_order():
    for n in range(1, 13):
        for k in range(n):
            assert zeta(n, k) ** n == ONE


def test_conjugation_is_involutive_on_mixed_values():
    samples = [zeta(8, 3) + rat(Fraction(2, 5)), zeta(12, 5) * zeta(3, 1),
               rat(-7), zeta(5, 2) - zeta(4, 1)]
    for a in samples:
        assert a.conjugate().conjugate() == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_conductor_limit_is_enforced():
    with pytest.raises(ConductorLimitError):
        zeta(MAX_CONDUCTOR + 1, 1)
    with pytest.raises(ConductorLimitError):
        zeta(8, 1) * zeta(9, 1) * zeta(5, 1)  # lcm 360


def test_constructor_enforces_the_conductor_limit():
    for conductor in (0, -3):
        with pytest.raises(ValueError, match="conductor must be positive"):
            CycNumber(conductor, [1, 2])
    with pytest.raises(ConductorLimitError, match="conductor 25 > 24"):
        CycNumber(25, [0, 1])
    with pytest.raises(ConductorLimitError, match="conductor 25 > 24"):
        CycNumber(50, [0, 1])   # Q(zeta_50) = Q(zeta_25)
    x = CycNumber(24, [0, 1])
    assert (x.conductor, x * x) == (24, zeta(12, 1))
    assert CycNumber(46, [0, 1]).conductor == 23


def test_minimal_conductor_is_canonical():
    # i lives at conductor 4 even when built inside Q(zeta_12)
    v = zeta(12, 3)
    assert v.conductor == 4
    # rationals always collapse to conductor 1
    assert (zeta(8, 1) * zeta(8, 7)).conductor == 1
    # equal values share representations, hence hashes
    a = zeta(12, 4)
    b = zeta(3, 1)
    assert a == b and hash(a) == hash(b)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    for n in range(1, 25):
        assert len(cyclotomic_poly(n)) == int(sympy.totient(n)) + 1


def test_json_roundtrip():
    v = zeta(8, 1) / 2 + rat(Fraction(1, 3))
    data = v.to_json()
    assert set(data) == {"conductor", "coeffs"}
    assert all(isinstance(s, str) for s in data["coeffs"])
    assert CycNumber.from_json(data) == v


@pytest.mark.parametrize("data", [
    {"conductor": True, "coeffs": "12"},            # read as Cyc(3)
    {"conductor": 4.9, "coeffs": ["1", "2", 9]},    # read as Cyc(-8 + 2*z4)
    {"conductor": 0, "coeffs": ["1"]},
    {"conductor": MAX_CONDUCTOR + 1, "coeffs": ["1"]},
    {"conductor": 3, "coeffs": [1.5]},
    {"coeffs": ["1"]},
], ids=["boolean-conductor", "float-conductor", "zero-conductor",
        "conductor-too-large", "float-coefficient", "no-conductor"])
def test_from_json_rejects_malformed_objects(data):
    with pytest.raises(ValueError, match="CycNumber object needs"):
        CycNumber.from_json(data)


small_cyclo = st.builds(
    lambda n, k, p, q: zeta(n, k) * rat(Fraction(p, q)),
    st.sampled_from([1, 3, 4, 8, 12]),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=6),
)


@settings(max_examples=60, deadline=None)
@given(small_cyclo, small_cyclo, small_cyclo)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inv() == ONE
    assert a + (-a) == ZERO


@settings(max_examples=40, deadline=None)
@given(small_cyclo, small_cyclo)
def test_conjugation_is_a_field_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


# -- the integer-numerator representation ---------------------------------------

# Orders |A| whose 1/|A| factors the twist of kA multiplies together, raised
# up to the 6th power, so that denominators reach 72^6.
ORDERS = (8, 12, 18, 36, 72)
SUBFIELDS = (1, 3, 4, 8, 12, 24)
PHI_24 = cyclotomic_poly(24)


@st.composite
def big_denominator_values(draw):
    """A sum of terms p * (1/|A|)^e * zeta_n^j in a subfield of Q(zeta_24)."""
    n = draw(st.sampled_from(SUBFIELDS))
    value = ZERO
    for j, p, order, e in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(-50, 50),
            st.sampled_from(ORDERS), st.integers(0, 6)), max_size=4)):
        value = value + zeta(n, j) * (rat(Fraction(1, order)) ** e * p)
    return value


def _in_q24(x):
    """x as Fraction coefficients of the power basis of Q(zeta_24)."""
    poly = [Fraction(0)] * 24
    for j, c in enumerate(x.coeffs):
        poly[j * (24 // x.conductor)] += c
    return _rem_phi24(poly)


def _rem_phi24(poly):
    poly = list(poly)
    for i in range(len(poly) - 1, 7, -1):   # Phi_24 is monic of degree 8
        c = poly[i]
        if c:
            for k, a in enumerate(PHI_24):
                poly[i - 8 + k] -= c * a
    return poly[:8]


def _check_representation(x):
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert len(x.num) == int(sympy.totient(x.conductor))
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)
    assert x.sort_key() == (x.conductor, tuple((c.numerator, c.denominator)
                                               for c in x.coeffs))
    data = x.to_json()
    again = CycNumber.from_json(json.loads(json.dumps(data)))
    assert again == x and json.dumps(again.to_json()) == json.dumps(data)
    slow = CycNumber(x.conductor, x.coeffs)
    assert (slow.conductor, slow.num, slow.den) == (x.conductor, x.num, x.den)
    assert hash(x) == hash(slow)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(big_denominator_values(), big_denominator_values())
def test_integer_numerators_keep_their_invariant(a, b):
    pa, pb = _in_q24(a), _in_q24(b)
    product = [Fraction(0)] * 15
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            product[i + j] += x * y
    results = {a + b: [x + y for x, y in zip(pa, pb)],
               a - b: [x - y for x, y in zip(pa, pb)],
               a * b: _rem_phi24(product), -a: [-x for x in pa]}
    for value, expected in results.items():
        assert _in_q24(value) == expected
    for value in [a, b, a.conjugate(), *results]:
        _check_representation(value)
    if b:
        _check_representation(a / b)
        assert (a / b) * b == a


# -- cyclotomic integers at a fixed conductor -------------------------------------

def _at_24(x):
    """(x's numerators as a CycInt at conductor 24, x's denominator)."""
    return CycInt.of(24)(cyclotomic._lifted(x, 24)), x.den


def _value(c, den):
    """The CycNumber c / den of a CycInt or int numerator at conductor 24."""
    num = list(c) if isinstance(c, CycInt) else [c] + [0] * 7
    return cyclotomic._from_numerators(24, num, den)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(big_denominator_values(), big_denominator_values(),
       st.integers(-3, 3))
def test_cyc_ints_compute_what_cyc_numbers_do(a, b, k):
    (u, du), (v, dv) = _at_24(a), _at_24(b)
    assert _value(u * v, du * dv) == a * b
    assert _value(u * dv + v * du, du * dv) == a + b
    assert _value(k * u, du) == _value(u * k, du) == a * k
    assert _value(u + k, du) == _value(k + u, du) == a + rat(Fraction(k, du))
    # an int k is the vector (k, 0, ..., 0), from either side
    is_k = a == rat(Fraction(k, du))
    assert (u == k) is (k == u) is is_k
    assert (u != k) is (k != u) is (not is_k)
    assert bool(u) is bool(a)
    assert (u == v) is (du == dv and a == b)


def test_every_traced_operation_is_defined_on_the_class(monkeypatch):
    # perfbench/tracer.py wraps these names by CycNumber.__dict__ lookups, so
    # a missing one makes ``perfbench/run.py --trace 1`` raise KeyError.
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    names = list(tracer.CYC_KINDS) + list(tracer.CYC_OTHER)
    assert [name for name in names if name not in CycNumber.__dict__] == []
    for name in ("from_rational", "root_of_unity", "from_json"):
        assert isinstance(CycNumber.__dict__[name], staticmethod)


# -- inverse and conjugate against sympy at every supported conductor -----------

SUPPORTED = tuple(n for n in range(1, MAX_CONDUCTOR + 1) if n % 4 != 2)


def _sympy_value(x, n, phi):
    """x, whose conductor divides n, as a sympy polynomial in zeta_n mod phi."""
    step = n // x.conductor
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                          * X ** (j * step) for j, c in enumerate(x.coeffs)),
                      X, domain=sympy.QQ).rem(phi)


@pytest.mark.parametrize("n", SUPPORTED)
def test_inverse_and_conjugate_agree_with_sympy(n):
    # Q(zeta_n) has the automorphisms zeta_n -> zeta_n^k for k coprime to n;
    # inv multiplies all but the identity together, so a value needs every
    # coefficient in play for an omitted k to show.
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain=sympy.QQ)
    rnd = random.Random(n)
    samples = [zeta(n, 1), zeta(n, 1) + rat(Fraction(1, 3))]
    for _ in range(6):
        samples.append(CycNumber(n, [Fraction(rnd.randint(-9, 9),
                                              rnd.randint(1, 7))
                                     for _ in range(int(sympy.totient(n)))]))
    assert sum(x.conductor == n for x in samples) >= 7
    for x in samples:
        px = _sympy_value(x, n, phi)
        assert _sympy_value(x.conjugate(), n, phi) == \
            px.compose(sympy.Poly(X ** (n - 1), X)).rem(phi)
        if x:
            inverse = x.inv()
            assert inverse.conductor == x.conductor
            assert _sympy_value(inverse, n, phi) == px.invert(phi)


# -- the Fraction boundary ----------------------------------------------------------

# The only definitions of cyclotomic.py that may name Fraction: the API edges
# that take or give Fractions.  The arithmetic and the descent run on integers.
FRACTION_EDGES = {"__init__", "from_rational", "coeffs", "rational_value",
                  "from_json", "_coerce"}


def test_fraction_is_named_only_at_the_api_edges():
    tree = ast.parse(Path(cyclotomic.__file__).read_text(encoding="utf-8"))
    definitions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            definitions += [item for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            definitions.append(node)
    users = {node.name for node in definitions
             if any(isinstance(n, ast.Name) and n.id == "Fraction"
                    for n in ast.walk(node))}
    assert users <= FRACTION_EDGES
    inside = {id(n) for node in definitions for n in ast.walk(node)}
    outside = [n.lineno for n in ast.walk(tree)
               if isinstance(n, ast.Name) and n.id == "Fraction"
               and id(n) not in inside]
    assert outside == []
