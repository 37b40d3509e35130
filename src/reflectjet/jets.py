"""Truncated jet (normal-derivative) arithmetic.

A jet stores raw derivative values (f, f', f'', ...) of a scalar field
along the interface normal, truncated at a fixed depth.  Coefficients are
*not* factorial-normalized Taylor coefficients: coeffs[k] is the k-th
derivative itself, so the product rule is the Leibniz convolution with
binomial weights.  All recurrences below are closed-form; the only error
is floating-point round-off.

Coefficients may be real or complex (amplitude jets in the forward
engines are complex).
"""

from __future__ import annotations

import cmath
import math

from .errors import DepthMismatch, DivisionByZeroJet, NonPositiveBase

_BINOM_ROWS = [(1,)]


def _binom_row(n: int):
    """Row n of Pascal's triangle, cached."""
    if n < len(_BINOM_ROWS):
        return _BINOM_ROWS[n]
    while len(_BINOM_ROWS) <= n:
        prev = _BINOM_ROWS[-1]
        row = (1,) + tuple(prev[i] + prev[i + 1] for i in range(len(prev) - 1)) + (1,)
        _BINOM_ROWS.append(row)
    return _BINOM_ROWS[n]


_LEIBNIZ = {}


def _leibniz_terms(n: int):
    """For k < n, the Leibniz terms (C(k,j), j, k-j) of coefficient k of
    a product, cached per n."""
    terms = _LEIBNIZ.get(n)
    if terms is None:
        terms = tuple(tuple((c, j, k - j) for j, c in enumerate(_binom_row(k)))
                      for k in range(n))
        _LEIBNIZ[n] = terms
    return terms


# Products, sums and scalings run straight-line kernels, one per jet
# length, made on that length's first use.  Each spells out the loop's
# expression `0 + C*a[i]*b[j] + ...` in index order, so every rounding
# and signed zero is the loop's.  The recurrences of `jet_inv`, `jet_log`
# and `jet_exp` accumulate in explicit loops of the same form: the
# operations sum() performs up to Python 3.11 (3.12 compensates float
# sums), without a generator's set-up cost, which dominated on short jets.
# Both engines replay tapes of these operations (`reflectjet.tape`); the
# kernels serve the recordings and the calls that run a body.


class _Kernels(dict):
    """Kernels keyed by jet length, each made on its first use;
    `coeff(n, k)` is coefficient k's expression in the arguments a, b."""

    def __init__(self, coeff):
        self.coeff = coeff

    def __missing__(self, n):
        body = ", ".join(self.coeff(n, k) for k in range(n))
        kernel = self[n] = eval(f"lambda a, b: ({body},)")
        return kernel


_MUL = _Kernels(lambda n, k: " + ".join(
    ["0"] + [f"{c}*a[{i}]*b[{j}]" for c, i, j in _leibniz_terms(n)[k]]))
_ADD = _Kernels(lambda n, k: f"a[{k}] + b[{k}]")
_SCALE = _Kernels(lambda n, k: f"b * a[{k}]")  # b is the scalar


class Jet:
    """Derivative values (coeffs[k] = d^k f / d nu^k at the interface)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the value coefficient")
        self.coeffs = coeffs

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"

    def __eq__(self, other):
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # operator sugar for the engines; the primary surface is the
    # module-level functions below
    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return jet_scale(self, other)

    __rmul__ = __mul__

    def __add__(self, other):
        return jet_add(self, other)

    def __sub__(self, other):
        return jet_add(self, jet_scale(other, -1.0))

    def __neg__(self):
        return jet_scale(self, -1.0)

    def truncate(self, depth: int) -> "Jet":
        """Drop derivatives above `depth` (extend with zeros if shorter).

        A jet is immutable, so one already at `depth` is returned as is."""
        n = depth + 1
        if len(self.coeffs) == n:
            return self
        if len(self.coeffs) > n:
            return Jet(self.coeffs[:n])
        return Jet(self.coeffs + (0.0,) * (n - len(self.coeffs)))


_new_jet = Jet.__new__


def _jet(coeffs: tuple) -> Jet:
    """A jet on a non-empty coefficient tuple, without Jet's checks: the
    functions below build their results from jets that passed them."""
    out = _new_jet(Jet)
    out.coeffs = coeffs
    return out


def constant_jet(value, depth: int) -> Jet:
    return _jet((value,) + (0.0,) * depth)


def _check_depths(a: Jet, b: Jet):
    if a.depth != b.depth:
        raise DepthMismatch(f"jet depths differ: {a.depth} vs {b.depth}")


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product: out[k] = sum_j C(k,j) a[j] b[k-j]."""
    ac, bc = a.coeffs, b.coeffs
    if len(ac) != len(bc):
        _check_depths(a, b)  # raises
    return _jet(_MUL[len(ac)](ac, bc))


def jet_add(a: Jet, b: Jet) -> Jet:
    ac, bc = a.coeffs, b.coeffs
    if len(ac) != len(bc):
        _check_depths(a, b)  # raises
    return _jet(_ADD[len(ac)](ac, bc))


def jet_scale(a: Jet, s) -> Jet:
    return _jet(_SCALE[len(a.coeffs)](a.coeffs, s))


def jet_inv(a: Jet) -> Jet:
    """Multiplicative inverse: jet_mul(a, jet_inv(a)) == identity."""
    if a.coeffs[0] == 0:
        raise DivisionByZeroJet("jet value at the interface is zero")
    ac = a.coeffs
    inv0 = 1.0 / ac[0]
    out = [inv0]
    for k in range(1, len(ac)):
        row = _binom_row(k)
        acc = 0
        for j in range(1, k + 1):
            acc += row[j] * ac[j] * out[k - j]
        out.append(-acc * inv0)
    return _jet(tuple(out))


def jet_log(a: Jet) -> Jet:
    """Jet of log(f), from f' = f * (log f)' and Leibniz.

    Requires a real positive value coefficient; derivatives may be any
    sign.  out[m+1] solves a[m+1] = sum_j C(m,j) a[j] out[m+1-j].
    """
    a0 = a.coeffs[0]
    if isinstance(a0, complex) or not a0 > 0.0:
        raise NonPositiveBase("jet_log requires a positive value at the interface")
    ac = a.coeffs
    out = [math.log(a0)]
    for m in range(len(ac) - 1):
        row = _binom_row(m)
        acc = 0
        for j in range(1, m + 1):
            acc += row[j] * ac[j] * out[m + 1 - j]
        out.append((ac[m + 1] - acc) / a0)
    return _jet(tuple(out))


def jet_exp(a: Jet) -> Jet:
    """Jet of exp(f): out' = out * f'."""
    exp0 = cmath.exp(a.coeffs[0]) if isinstance(a.coeffs[0], complex) \
        else math.exp(a.coeffs[0])
    out = [exp0]
    ac = a.coeffs
    for m in range(len(ac) - 1):
        row = _binom_row(m)
        acc = 0
        for j in range(m + 1):
            acc += row[j] * out[j] * ac[m + 1 - j]
        out.append(acc)
    return _jet(tuple(out))


def jet_sqrt(a: Jet) -> Jet:
    """Jet of sqrt(f) via exp(log(f)/2); needs a[0] > 0."""
    return jet_exp(jet_scale(jet_log(a), 0.5))


def jet_derivative(a: Jet) -> Jet:
    """Shift: the jet of f' (depth drops by one)."""
    if a.depth == 0:
        raise DepthMismatch("cannot differentiate a depth-0 jet")
    return _jet(a.coeffs[1:])
