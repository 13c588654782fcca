"""Shared numerical kernels: quadrature, one-sided derivatives, extrapolation."""

from __future__ import annotations

import math
from typing import Callable, Sequence

from scipy import integrate as _sciint

# Quadrature targets; equality tests downstream run at 1e-8, leaving headroom.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10

# Relative slack granted to inequality checks against the dominating side.
INEQ_SLACK = 1e-9


def integrate(fn: Callable[[float], float], a: float, b: float,
              breakpoints: Sequence[float] = ()) -> float:
    """Adaptive quadrature of fn over [a, b], splitting at interior breakpoints."""
    if not (b > a):
        return 0.0
    pts = sorted(p for p in breakpoints if a < p < b)
    value, _ = _sciint.quad(fn, a, b, points=pts or None, limit=200,
                            epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL)
    return value


def one_sided_derivative(fn: Callable[[float], float], r: float, side: str,
                         base_step: float, levels: int = 8,
                         diverge_threshold: float = 1e8) -> float:
    """One-sided derivative of fn at r by difference quotients with Richardson
    extrapolation over the step sequence base_step * 2**(-k).

    side is "plus" or "minus".  Returns +-inf when fn is -inf at an endpoint of
    the quotient or when the quotients exceed diverge_threshold and keep growing.
    """
    sign = 1.0 if side == "plus" else -1.0
    f0 = fn(r)
    if math.isinf(f0):
        # log of a vanishing density: the quotient jumps from -inf upward.
        return math.inf if side == "plus" else -math.inf

    quotients = []
    growth = 0
    for k in range(levels):
        h = base_step * 0.5 ** k
        fk = fn(r + sign * h)
        if math.isinf(fk):
            return -math.inf if side == "plus" else math.inf
        q = (fk - f0) / (sign * h)
        if quotients and abs(q) > diverge_threshold and abs(q) >= abs(quotients[-1]):
            growth += 1
            if growth >= 2:
                return math.copysign(math.inf, q)
        else:
            growth = 0
        quotients.append(q)

    # Richardson table for a first-order method (error expansion in powers of h).
    table = list(quotients)
    n = len(table)
    for j in range(1, n):
        factor = 2.0 ** j
        for i in range(n - 1, j - 1, -1):
            table[i] = (factor * table[i] - table[i - 1]) / (factor - 1.0)
    return table[n - 1]


def extrapolate_to_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Neville polynomial extrapolation of the samples (x, y) to x = 0."""
    n = len(xs)
    if n < 2:
        return ys[0]
    table = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            x_hi, x_lo = xs[i], xs[i - j]
            table[i] = (x_hi * table[i - 1] - x_lo * table[i]) / (x_hi - x_lo)
    return table[n - 1]
