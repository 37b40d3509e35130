"""Jet arithmetic: worked values, algebraic properties, and agreement
with independent differentiation oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectjet.errors import DepthMismatch, DivisionByZeroJet, NonPositiveBase
from reflectjet.geometry import richardson_derivative
from reflectjet.jets import (
    Jet,
    jet_add,
    jet_derivative,
    jet_exp,
    jet_inv,
    jet_log,
    jet_mul,
    jet_scale,
    jet_sqrt,
)


def test_mul_identity():
    assert jet_mul(Jet([1, 0, 0]), Jet([2.5, -1.0, 3.0])) == Jet([2.5, -1.0, 3.0])


def test_mul_second_derivative():
    # (fg)'' = f''g + 2 f'g' + fg'' = 3 + 4 + 0
    assert jet_mul(Jet([1, 2, 3]), Jet([1, 1, 0])) == Jet([1, 3, 7])


def test_mul_constants():
    assert jet_mul(Jet([2.0, 0.0]), Jet([3.0, 0.0])) == Jet([6.0, 0.0])


def test_log_unit_slope():
    e = math.e
    out = jet_log(Jet([e, e]))
    assert out[0] == pytest.approx(1.0) and out[1] == pytest.approx(1.0)


def test_log_of_one():
    assert jet_log(Jet([1.0, 0.0, 0.0])) == Jet([0.0, 0.0, 0.0])


def test_log_second_derivative():
    # (log f)'' = f''/f - (f'/f)^2 = 1 - 4
    out = jet_log(Jet([2.0, 4.0, 2.0]))
    assert out[0] == pytest.approx(math.log(2.0))
    assert out[1] == pytest.approx(2.0)
    assert out[2] == pytest.approx(-3.0)


def test_inv_examples():
    assert jet_inv(Jet([1.0, 0.0, 0.0])) == Jet([1.0, 0.0, 0.0])
    assert jet_inv(Jet([2.0, 0.0])) == Jet([0.5, 0.0])
    out = jet_inv(Jet([1.0, 1.0, 0.0]))
    # (1/f)'' = 2(f')^2/f^3 - f''/f^2 = 2
    assert out == Jet([1.0, -1.0, 2.0])


def test_errors():
    with pytest.raises(DepthMismatch):
        jet_mul(Jet([1.0, 0.0]), Jet([1.0]))
    with pytest.raises(DepthMismatch):
        jet_add(Jet([1.0, 0.0]), Jet([1.0]))
    with pytest.raises(NonPositiveBase):
        jet_log(Jet([0.0, 1.0]))
    with pytest.raises(NonPositiveBase):
        jet_log(Jet([-2.0, 1.0]))
    with pytest.raises(DivisionByZeroJet):
        jet_inv(Jet([0.0, 1.0]))


def test_associativity(rng):
    for _ in range(50):
        a, b, c = (Jet(rng.normal(size=5)) for _ in range(3))
        left = jet_mul(a, jet_mul(b, c))
        right = jet_mul(jet_mul(a, b), c)
        scale = max(max(abs(x) for x in left.coeffs), 1.0)
        assert all(abs(x - y) <= 1e-12 * scale
                   for x, y in zip(left.coeffs, right.coeffs))


def test_inverse_round_trip(rng):
    for _ in range(50):
        coeffs = rng.normal(size=5)
        coeffs[0] = rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1)
        a = Jet(coeffs)
        inv = jet_inv(a)
        prod = jet_mul(a, inv)
        scale = 16.0 * max(abs(x) for x in a.coeffs) \
            * max(abs(x) for x in inv.coeffs)
        assert abs(prod[0] - 1.0) <= 1e-12 * max(scale, 1.0)
        assert all(abs(x) <= 1e-12 * max(scale, 1.0) for x in prod.coeffs[1:])


def test_exp_log_round_trip_against_brute_force(rng):
    # reconstruct a from jet_log(a) with an independently written
    # exponential recurrence e' = e * l'
    from reflectjet.jets import _binom_row

    for _ in range(50):
        coeffs = rng.normal(size=5)
        coeffs[0] = rng.uniform(0.5, 3.0)
        a = Jet(coeffs)
        lg = jet_log(a)
        rebuilt = [math.exp(lg[0])]
        for m in range(4):
            row = _binom_row(m)
            rebuilt.append(sum(row[j] * rebuilt[j] * lg[m + 1 - j]
                               for j in range(m + 1)))
        assert all(abs(x - y) <= 1e-12 * max(abs(y), 1.0)
                   for x, y in zip(rebuilt, a.coeffs))


def _poly_from_jet(a):
    """f(s) = sum a[k] s^k / k! realizing the jet's derivative values.

    Exact when fed Fraction arguments (coefficients are binary64, hence
    exact rationals)."""
    coeffs = [Fraction(float(c)) / math.factorial(k)
              for k, c in enumerate(a.coeffs)]

    def f(s):
        return sum(c * s ** k for k, c in enumerate(coeffs))
    return f


def test_finite_difference_oracle(rng):
    # numerically differentiate f*g, 1/f, log f built from sampled
    # polynomials; every operation must agree at 1e-6 for depth <= 4.
    # mul and inv are rational, so their differences run exactly; log
    # uses float differences on mildly varying jets.
    h = Fraction(1, 100)
    for _ in range(10):
        ac = rng.uniform(-0.4, 0.4, size=5)
        bc = rng.uniform(-0.4, 0.4, size=5)
        ac[0] = rng.uniform(1.0, 2.0)
        bc[0] = rng.uniform(1.0, 2.0)
        a, b = Jet(ac), Jet(bc)
        fa, fb = _poly_from_jet(a), _poly_from_jet(b)

        prod = jet_mul(a, b)
        fd = [float(richardson_derivative(lambda s: fa(s) * fb(s),
                                          Fraction(0), k, h))
              for k in range(5)]
        assert all(abs(x - y) <= 1e-6 * max(abs(y), 1.0)
                   for x, y in zip(prod.coeffs, fd))

        inv = jet_inv(a)
        fd = [float(richardson_derivative(lambda s: 1 / fa(s),
                                          Fraction(0), k, h))
              for k in range(5)]
        assert all(abs(x - y) <= 1e-6 * max(abs(y), 1.0)
                   for x, y in zip(inv.coeffs, fd))

        lg = jet_log(a)
        fd = [richardson_derivative(lambda s: math.log(fa(Fraction(s).limit_denominator(10**12))),
                                    0.0, k, 2e-2)
              for k in range(5)]
        assert all(abs(x - y) <= 1e-6 * max(abs(y), 1.0)
                   for x, y in zip(lg.coeffs, fd))


def test_sqrt_and_exp_consistency(rng):
    for _ in range(20):
        coeffs = rng.normal(size=4)
        coeffs[0] = rng.uniform(0.5, 4.0)
        a = Jet(coeffs)
        root = jet_sqrt(a)
        back = jet_mul(root, root)
        assert all(abs(x - y) <= 1e-12 * max(abs(y), 1.0)
                   for x, y in zip(back.coeffs, a.coeffs))
        assert jet_exp(Jet([0.0, 0.0])) == Jet([1.0, 0.0])


def test_derivative_shift():
    assert jet_derivative(Jet([5.0, 1.0, 2.0])) == Jet([1.0, 2.0])
    with pytest.raises(DepthMismatch):
        jet_derivative(Jet([1.0]))


def test_truncate_pads_and_cuts():
    j = Jet([1.0, 2.0, 3.0])
    assert j.truncate(1) == Jet([1.0, 2.0])
    assert j.truncate(4) == Jet([1.0, 2.0, 3.0, 0.0, 0.0])


# --- truncation commutes with every jet function, bit for bit ----------------
#
# Coefficient m of a result comes from coefficients <= m by the same
# operations at any jet length.  The engines rely on it to serve a lower
# depth from jets built deeper, so it is checked by `repr`, which tells
# signed zeros apart.

# edge cases (signed zeros, bounds) from `floats`, and values with a full
# 53-bit mantissa in 1/64..1024, whose products and sums round
_REAL = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.builds(math.ldexp, st.integers(2**52, 2**53 - 1),
              st.integers(-58, -43)),
    st.builds(math.ldexp, st.integers(-2**53 + 1, -2**52),
              st.integers(-58, -43)))
_COEFF = st.one_of(_REAL, st.builds(complex, _REAL, _REAL))
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_EXPONENT = st.floats(min_value=-50.0, max_value=50.0)
_UNARY = {
    jet_inv: _COEFF.filter(lambda x: x != 0),
    jet_log: _POSITIVE,
    jet_sqrt: _POSITIVE,
    jet_exp: st.one_of(_EXPONENT, st.builds(complex, _EXPONENT, _REAL)),
}
_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _jets(draw, count, value=_COEFF, min_depth=0):
    """(d, jets): `count` jets of one depth in min_depth..5, d <= depth."""
    depth = draw(st.sampled_from(range(min_depth, 6)))
    jets = [Jet([draw(value)] + draw(st.lists(_COEFF, min_size=depth,
                                              max_size=depth)))
            for _ in range(count)]
    return draw(st.sampled_from(range(min_depth, depth + 1))), jets


@pytest.mark.parametrize("op", [jet_mul, jet_add])
@_PROPERTY
@given(case=_jets(2))
def test_binary_ops_commute_with_truncation(op, case):
    d, (a, b) = case
    assert repr(op(a, b).truncate(d)) == repr(op(a.truncate(d), b.truncate(d)))


@_PROPERTY
@given(case=_jets(1), s=_COEFF)
def test_scale_commutes_with_truncation(case, s):
    d, (a,) = case
    assert repr(jet_scale(a, s).truncate(d)) == repr(jet_scale(a.truncate(d), s))


@pytest.mark.parametrize("op", list(_UNARY), ids=lambda f: f.__name__)
@_PROPERTY
@given(data=st.data())
def test_unary_ops_commute_with_truncation(op, data):
    d, (a,) = data.draw(_jets(1, value=_UNARY[op]))
    assert repr(op(a).truncate(d)) == repr(op(a.truncate(d)))


@_PROPERTY
@given(case=_jets(1, min_depth=1))
def test_derivative_commutes_with_truncation(case):
    d, (a,) = case
    assert (repr(jet_derivative(a).truncate(d - 1))
            == repr(jet_derivative(a.truncate(d))))


# --- straight-line kernels against the loops they replace --------------------


def _loop_mul(a, b):
    """The Leibniz loop: coefficient k is 0 + C(k,j)*a[j]*b[k-j] + ...,
    accumulated in j order."""
    out = []
    for k in range(len(a)):
        acc = 0
        for j in range(k + 1):
            acc += math.comb(k, j) * a[j] * b[k - j]
        out.append(acc)
    return tuple(out)


# signed zeros, and infinities, which tell `1*a*b` from `a*b` for
# complex a
_EDGE = st.sampled_from([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0),
                         complex(-0.0, -0.0), math.inf, -math.inf,
                         complex(math.inf, 0.0), complex(0.0, -math.inf)])
_KERNEL_COEFF = st.one_of(_COEFF, _EDGE, st.builds(np.float64, _REAL))


@st.composite
def _kernel_jets(draw):
    """Two jets of one length in 1..8 and a scalar."""
    n = draw(st.integers(1, 8))
    a, b = (draw(st.lists(_KERNEL_COEFF, min_size=n, max_size=n))
            for _ in range(2))
    return Jet(a), Jet(b), draw(_KERNEL_COEFF)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_kernel_jets())
def test_kernels_equal_loops(case):
    a, b, s = case
    ac, bc = a.coeffs, b.coeffs
    with np.errstate(all="ignore"):  # inf * 0 in numpy scalars
        assert repr(jet_mul(a, b).coeffs) == repr(_loop_mul(ac, bc))
        assert repr(jet_add(a, b).coeffs) == repr(
            tuple([x + y for x, y in zip(ac, bc)]))
        assert repr(jet_scale(a, s).coeffs) == repr(
            tuple([s * x for x in ac]))
