"""Special functions for statistical p-value computation.

The regularized incomplete gamma functions are evaluated with the classic
series / continued-fraction split (series below the a+1 crossover, modified
Lentz continued fraction above it).  Truncated continued fractions are
rational approximants; iteration continues until the relative update falls
below 1e-15, so the result is accurate to well under the 1e-10 budget the
statistical tests need.  erfc rides on the identity erfc(x) = Q(1/2, x^2).

``reg_gamma_upper`` memoizes Q(a, x) on its exact float arguments, process
wide, as ``{a: {x: Q}}``.  The SP 800-22 statistics behind its arguments are
mostly integers, so judging many populations asks for the same (a, x) again
and again; every erfc and normal CDF goes through it too.  A stored value is
the float the series or continued fraction gave for those arguments, so a
hit returns exactly what a fresh evaluation would.  The memo stores entries
until it holds ``_MEMO_CAP`` of them, then stores no more; nothing is
evicted.  Arguments are checked before the lookup, so nothing invalid is
stored.
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


def _reg_gamma_upper(a: float, x: float) -> float:
    """Q(a, x) evaluated afresh, for a checked a > 0 and finite x > 0."""
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


# Sized so the 15k distinct arguments of 120 54-sequence populations fit;
# at about 100 bytes per entry, a full memo holds under 2 MB.  It takes no
# lock: ropufsim runs in one thread, and a lost size update from another
# thread could only overshoot the cap, never store a wrong value.
_MEMO_CAP = 1 << 14
_memo: dict[float, dict[float, float]] = {}
_memo_size = 0


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x)/Gamma(a).

    ``a`` must be positive and finite and ``x`` non-negative; Q(a, +inf) = 0.
    """
    global _memo_size
    if not 0.0 < a < math.inf:
        if math.isnan(a):
            raise ValueError("shape parameter a must not be NaN")
        if a > 0.0:
            raise ValueError(f"shape parameter a must be finite, got {a}")
        raise ValueError(f"shape parameter a must be positive, got {a}")
    if not 0.0 <= x < math.inf:
        if math.isnan(x):
            raise ValueError("argument x must not be NaN")
        if x > 0.0:
            return 0.0
        raise ValueError(f"argument x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    by_x = _memo.get(a)
    if by_x is not None:
        q = by_x.get(x)
        if q is not None:
            return q
    q = _reg_gamma_upper(a, x)
    if _memo_size < _MEMO_CAP:
        if by_x is None:
            by_x = _memo[a] = {}
        by_x[x] = q
        _memo_size += 1
    return q


def erfc(x: float) -> float:
    """Complementary error function via erfc(x) = Q(1/2, x^2) for x >= 0."""
    if x > 0.0:
        if x > 27.0:
            return 0.0  # below double underflow of exp(-x^2)
        return reg_gamma_upper(0.5, x * x)
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x == 0.0:
        return 1.0
    raise ValueError("erfc argument x must not be NaN")


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if math.isnan(x):
        raise ValueError("normal_cdf argument x must not be NaN")
    return 0.5 * erfc(-x / math.sqrt(2.0))
