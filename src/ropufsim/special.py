"""Special functions for statistical p-value computation, as array maps.

The regularized incomplete gamma functions are evaluated with the classic
series / continued-fraction split (series below the a+1 crossover, modified
Lentz continued fraction above it).  Truncated continued fractions are
rational approximants; iteration continues until the relative update falls
below 1e-15, so the result is accurate to well under the 1e-10 budget the
statistical tests need.  erfc rides on the identity erfc(x) = Q(1/2, x^2).

``reg_gamma_upper``, ``erfc`` and ``normal_cdf`` each take a float, giving
a float, or an array, giving an array of its shape; a caller maps a whole
column of statistics with one call.  The elementwise arithmetic around Q
(squares, negations, 2 - erfc) is IEEE double arithmetic in numpy as in
Python, so an element's value does not depend on how it was passed.

``reg_gamma_upper`` memoizes Q(a, x) on its exact float arguments, process
wide, as ``{a: {x: Q}}``, and looks up the shape's table once per call.  The
SP 800-22 statistics behind its arguments are mostly integers, so judging
many populations asks for the same (a, x) again and again; every erfc and
normal CDF goes through it too.  A stored value is the float the series or
continued fraction gave for those arguments, so a hit returns exactly what
a fresh evaluation would.  The memo stores entries until it holds
``_MEMO_CAP`` of them, then stores no more; nothing is evicted.  It holds
valid arguments alone, so only the misses of a call are checked, all of
them before any is evaluated: nothing invalid is stored, and a call that
raises stores nothing.
"""

from __future__ import annotations

import math

import numpy as np

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
        if term < total * _EPS:  # every term is positive
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
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_EPS < delta - 1.0 < _EPS:
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


def reg_gamma_upper(a: float, x):
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x)/Gamma(a).

    ``x`` is a float, which gives a float, or an array, which gives Q at each
    element in an array of its shape; the memo is looked up once per call
    for the shape ``a``.  ``a`` must be positive and finite and every x
    non-negative; Q(a, 0) = 1 and Q(a, +inf) = 0, neither of them stored.
    A call with an invalid argument raises before it stores anything.
    """
    global _memo_size
    if not 0.0 < a < math.inf:
        if math.isnan(a):
            raise ValueError("shape parameter a must not be NaN")
        if a > 0.0:
            raise ValueError(f"shape parameter a must be finite, got {a}")
        raise ValueError(f"shape parameter a must be positive, got {a}")
    xs = np.asarray(x, dtype=float)
    values = xs.ravel().tolist()
    by_x = _memo.get(a, {})
    qs = list(map(by_x.get, values))
    if None in qs:
        # the memo holds valid arguments alone, so only a miss is checked
        misses = [i for i, q in enumerate(qs) if q is None]
        for v in [values[i] for i in misses]:
            if not v >= 0.0:
                if math.isnan(v):
                    raise ValueError("argument x must not be NaN")
                raise ValueError(f"argument x must be non-negative, got {v}")
        for i in misses:
            v = values[i]
            q = by_x.get(v)  # an earlier miss of this call may have stored it
            if q is None:
                if not 0.0 < v < math.inf:
                    q = 1.0 if v == 0.0 else 0.0
                else:
                    q = _reg_gamma_upper(a, v)
                    if _memo_size < _MEMO_CAP:
                        _memo.setdefault(a, by_x)[v] = q
                        _memo_size += 1
            qs[i] = q
    return np.array(qs).reshape(xs.shape) if xs.ndim else qs[0]


def erfc(x):
    """Complementary error function at a float x, or elementwise over an
    array, via erfc(x) = Q(1/2, x^2) for x >= 0 and 2 - erfc(-x) below 0."""
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs)
    # above 27, exp(-x^2) underflows and erfc(x) is 0.0; NaN is never inside
    inside = ax <= 27.0
    if not inside.all() and np.isnan(xs).any():
        raise ValueError("erfc argument x must not be NaN")
    q = np.zeros(xs.shape)
    q[inside] = reg_gamma_upper(0.5, np.square(ax[inside]))
    np.subtract(2.0, q, out=q, where=xs < 0.0)
    return q if q.ndim else float(q)


def normal_cdf(x):
    """Standard normal CDF at a float x, or elementwise over an array."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("normal_cdf argument x must not be NaN")
    return 0.5 * erfc(-xs / math.sqrt(2.0))
