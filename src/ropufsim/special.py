"""Special functions for statistical p-value computation.

The regularized incomplete gamma functions are evaluated with the classic
series / continued-fraction split (series below the a+1 crossover, modified
Lentz continued fraction above it).  Truncated continued fractions are
rational approximants; iteration continues until the relative update falls
below 1e-15, so the result is accurate to well under the 1e-10 budget the
statistical tests need.  erfc rides on the identity erfc(x) = Q(1/2, x^2).
"""

from __future__ import annotations

import math

_EPS = 1e-15
_MAX_ITER = 500
_FPMIN = 1e-300


def _gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a+1)."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"gamma series did not converge for a={a}, x={x}")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a+1)."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"gamma continued fraction did not converge for a={a}, x={x}")
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x)/Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def erfc(x: float) -> float:
    """Complementary error function via erfc(x) = Q(1/2, x^2) for x >= 0."""
    if x == 0.0:
        return 1.0
    if x > 0.0:
        if x > 27.0:
            return 0.0  # below double underflow of exp(-x^2)
        return reg_gamma_upper(0.5, x * x)
    return 2.0 - erfc(-x)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * erfc(-x / math.sqrt(2.0))
