"""Calculus on single needle densities.

A needle carries a positive one-dimensional density on an interval with the
surface crossing at parameter 0.  This module provides one-sided logarithmic
derivatives, the curvature-dimension density check, the mollified comparison
bound, the density-ratio bound against the distortion profile, masses and the
regular part of the signed-distance Laplacian.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from typing import Callable, NamedTuple, Optional

from .errors import CurvatureError, DomainError, ParameterError
from .model1d import (Checked, CurvatureDimension, JacobianParams, cos_kappa, jacobian,
                      sigma_kappa, sin_kappa)
from .numerics import INEQ_SLACK, integrate, one_sided_derivative

# Finite-difference base step, as a fraction of the interval length.
FD_BASE_STEP_FRACTION = 1e-3
# Points of the uniform grid on which a DensityProfile is validated.
GRID_SIZE = 1024

_TINY = 1e-300

# Triples (r0, r1, t) per array block of check_cd_density: bounds its memory.
_CD_BLOCK_TRIPLES = 8192


def _grid_point(a: float, b: float, n: int) -> Callable[[int], float]:
    """i -> np.linspace(a, b, n)[i] as a float, bit for bit (n >= 2)."""
    step = (b - a) / (n - 1)
    if step == 0.0:  # a subnormal width: numpy then divides before it scales
        return lambda i: i / (n - 1) * (b - a) + a if i < n - 1 else b
    return lambda i: i * step + a if i < n - 1 else b


class DensityProfile(Checked, namedtuple("DensityProfile", "a b fn deriv mode",
                                         defaults=(None, None))):
    """Positive density on [a, b], validated on a uniform grid of GRID_SIZE points.

    fn must be positive on the open interval and extend continuously to the
    closed one (the endpoint values may vanish).  deriv, when given, is the
    closed-form derivative of fn and is preferred over finite differences.
    mode, when given, declares fn non-decreasing on [a, mode] and non-increasing
    on [mode, b].  Construction validates fn on the grid in pure Python, given a
    mode only where the grid's extremes can lie (both ends, their interior
    neighbours, the points around the mode).
    """

    # No __slots__: the checked values live in the instance dict.  The checks
    # run in __init__, so that a wrapper of __init__ (perfbench/tracer.py
    # installs one) sees every checked construction.

    def __init__(self, *args, **kwargs):
        a, b, fn, unused_deriv, mode = self
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ParameterError(f"invalid interval [{a}, {b}]")
        if mode is not None and math.isnan(mode):
            raise ParameterError("mode must not be NaN")
        n = GRID_SIZE
        point = _grid_point(a, b, n)
        indices = range(n)
        if mode is not None:
            # The least interior value sits next to an end and the largest next
            # to the mode; a point more on each side absorbs rounding in the mode.
            k = bisect_right(indices, mode, key=point)  # grid points <= mode
            indices = sorted({i for i in (0, 1, k - 2, k - 1, k, k + 1, n - 2, n - 1)
                              if 0 <= i < n})
        self._check(tuple(map(fn, map(point, indices))))

    def _check(self, values: tuple) -> None:
        if not (all(map(math.isfinite, values)) and min(values[1:-1]) > 0.0
                and values[0] >= 0.0 and values[-1] >= 0.0):
            raise ParameterError("density must be positive on the open interval "
                                 "and finite, non-negative at the endpoints")
        self._checked = values

    def power(self, exponent: float) -> "DensityProfile":
        """The profile raised pointwise to a power, derivative chained.

        The checked values are the parent's raised to the power (the same
        floats as evaluating the new fn there), validated as in construction;
        an overflow is a ParameterError.  A positive power keeps the mode.
        """
        fn = self.fn
        deriv = self.deriv
        new_deriv = None
        if deriv is not None:
            new_deriv = lambda r: exponent * fn(r) ** (exponent - 1.0) * deriv(r)
        # __new__ alone: DensityProfile(...) would call fn on the grid again.
        out = DensityProfile.__new__(DensityProfile, self.a, self.b, lambda r: fn(r) ** exponent,
                                     new_deriv, self.mode if exponent > 0.0 else None)
        try:  # x ** exponent is monotone: the extremes stay where they were
            out._check(tuple(s ** exponent for s in self._checked))
        except OverflowError:  # float ** raises where an array holds inf: reject that
            out._check((math.inf,))
        return out


class Needle(Checked, namedtuple("Needle", "profile weight")):
    """A density profile with base point 0 plus the quotient weight it carries."""

    __slots__ = ()

    def __new__(cls, profile: DensityProfile, weight: float = 1.0):
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ParameterError(f"needle weight must be finite and >= 0, got {weight}")
        if not profile.a <= 0.0 <= profile.b:
            raise ParameterError(f"needle base 0 must lie in [{profile.a}, {profile.b}]")
        return super().__new__(cls, profile, weight)


class CdDensityReport(NamedTuple):
    passed: bool
    worst_violation: float
    witness: Optional[tuple[float, float, float]]


class SturmReport(NamedTuple):
    passed: bool
    max_excess: float


class RatioReport(NamedTuple):
    passed: bool
    H_used: float
    max_excess: float


def one_sided_log_derivative(profile: DensityProfile, r: float, side: str) -> float:
    """d^+/dr or d^-/dr of log(profile) at r.

    Uses the registered closed-form derivative when available, otherwise
    one-sided difference quotients with Richardson extrapolation.  Returns
    +-inf when the quotients diverge (vanishing density at the base point).
    """
    if side not in ("plus", "minus"):
        raise ParameterError(f"side must be 'plus' or 'minus', got {side!r}")
    a, b = profile.a, profile.b
    if side == "plus" and not a <= r < b:
        raise DomainError(f"r={r} outside [{a}, {b}) for a right derivative")
    if side == "minus" and not a < r <= b:
        raise DomainError(f"r={r} outside ({a}, {b}] for a left derivative")

    if profile.deriv is not None:
        value = profile.fn(r)
        slope = profile.deriv(r)
        if value > 0.0 and math.isfinite(slope):
            return slope / value
        if value == 0.0 or math.isinf(slope):
            sign_src = slope if slope != 0.0 else (1.0 if side == "plus" else -1.0)
            return math.copysign(math.inf, sign_src)

    room = (b - r) if side == "plus" else (r - a)
    base_step = min(FD_BASE_STEP_FRACTION * (b - a), 0.5 * room)
    log_fn = lambda x: math.log(profile.fn(x)) if profile.fn(x) > 0.0 else -math.inf
    return one_sided_derivative(log_fn, r, side, base_step)


def check_cd_density(profile: DensityProfile, cd: CurvatureDimension,
                     grid_size: int = 24) -> CdDensityReport:
    """Brute-force check that profile^{1/(N-1)} satisfies the curvature-dimension
    concavity inequality at level K/(N-1) over all grid triples (r0, r1, t).

    With G = grid_size every point lies on the lattice
    x_q = a + (b - a) (q / (G+1)^2): the grid point i is q = (i+1)(G+1), and the
    point at t_m = (m+1)/(G+1) between grid points i < j is
    q = (i+1)(G+1) + (m+1)(j-i), at separation theta = (b - a) ((j-i)/(G+1)).
    The density is evaluated once per lattice point, G^2 calls in ascending q,
    and sigma_kappa once per side over every (j-i, m), so memory is O(G^2).

    Violations are measured relative to the left side; the check passes when
    the worst one does not exceed the inequality slack.  The witness is the
    first triple in (r0, r1, t) grid order reaching the worst violation; NaN
    violations never count.  The triples are evaluated as arrays, in blocks of
    whole pairs (r0, r1) taken in that order.  A u or a distortion coefficient
    that overflows a float is a ParameterError.
    """
    if grid_size < 3:
        raise ParameterError(f"grid_size must be >= 3, got {grid_size}")
    if cd.N <= 1.0:
        raise ParameterError(f"density check requires N > 1, got N={cd.N}")
    import numpy as np
    kap = cd.K / (cd.N - 1.0)
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    g1 = grid_size + 1
    # The pairs j = i + 1 alone reach every q from G+1 to G(G+1), so u holds
    # all G^2 of them; u[q - (G+1)] is the value at x_q.
    xs = a + (b - a) * (np.arange(g1, grid_size * g1 + 1) / float(g1 * g1))
    fn = profile.fn
    try:
        u = np.array([fn(x) ** expo for x in xs.tolist()], dtype=float)
    except OverflowError:
        raise ParameterError("the density check's u = h**(1/(N-1)) overflows a float "
                             "at these parameters") from None

    steps = np.arange(1, g1)  # m + 1 and j - i
    ts = steps / float(g1)
    thetas = (b - a) * (steps[:-1] / float(g1))
    try:  # sinh of a strongly negative K
        s_lo = sigma_kappa(kap, 1.0 - ts, thetas[:, None])  # row j-i-1, column m
        s_hi = sigma_kappa(kap, ts, thetas[:, None])
    except OverflowError:
        raise ParameterError("the distortion coefficients of the density check "
                             "overflow a float at these parameters") from None
    infinite = np.isinf(s_lo) | np.isinf(s_hi)

    # The pairs i < j in (r0, r1) order.
    lo, hi = np.triu_indices(grid_size, 1)
    worst = -math.inf
    witness = None
    step = max(1, _CD_BLOCK_TRIPLES // grid_size)  # pairs per block
    for p0 in range(0, lo.size, step):
        i, j = lo[p0:p0 + step, None], hi[p0:p0 + step, None]
        row = (j - i - 1)[:, 0]  # of the separation in the sigma tables
        lhs = u[i * g1 + steps * (j - i)]
        with np.errstate(invalid="ignore", over="ignore"):
            rhs = np.where(infinite[row], math.inf,
                           s_lo[row] * u[i * g1] + s_hi[row] * u[j * g1])
            violation = (rhs - lhs) / np.maximum(np.abs(lhs), _TINY)
        # NaN never counts as worse; argmax takes the first (pair, t) in order.
        violation[np.isnan(violation)] = -math.inf
        k = int(np.argmax(violation))
        if violation.flat[k] > worst:
            worst = float(violation.flat[k])
            p, m = divmod(k, grid_size)
            witness = (float(xs[lo[p0 + p] * g1]), float(xs[hi[p0 + p] * g1]),
                       float(ts[m]))
    return CdDensityReport(passed=worst <= INEQ_SLACK, worst_violation=worst,
                           witness=witness)


def sturm_bound_check(u: DensityProfile, kappa: float, r0: float,
                      grid_size: int = 40) -> SturmReport:
    """Verify the comparison bound
    u(r) <= u(r0) cos_kappa(r - r0) + d^+u(r0) sin_kappa(r - r0) on (r0, b),
    together with positivity of the right-hand side there.
    """
    if not u.a < r0 < u.b:
        raise DomainError(f"base point r0={r0} outside ({u.a}, {u.b})")
    u0 = u.fn(r0)
    du0 = u0 * one_sided_log_derivative(u, r0, "plus")
    max_excess = -math.inf
    passed = True
    for i in range(grid_size):
        r = r0 + (u.b - r0) * (i + 1.0) / (grid_size + 1.0)
        bound = u0 * cos_kappa(kappa, r - r0) + du0 * sin_kappa(kappa, r - r0)
        if bound <= 0.0:
            passed = False
        excess = (u.fn(r) - bound) / max(abs(bound), _TINY)
        max_excess = max(max_excess, excess)
    return SturmReport(passed=passed and max_excess <= INEQ_SLACK, max_excess=max_excess)


def density_ratio_check(needle: Needle, cd: CurvatureDimension,
                        grid_size: int = 60) -> RatioReport:
    """Verify h(r)/h(0) <= J_{H,K,N}(r) with H = d^+ log h(0) on (0, b), and the
    orientation-reversed bound with H = -d^- log h(0) on (a, 0)."""
    profile = needle.profile
    if not profile.a < 0.0 < profile.b:
        raise DomainError("needle base must lie in the open interval")
    h0 = profile.fn(0.0)

    def side_excess(h_side: Callable[[float], float], extent: float, H: float) -> float:
        if math.isinf(H):
            raise CurvatureError("one-sided log derivative at the base is infinite")
        params = JacobianParams(H, cd)
        worst = -math.inf
        for i in range(grid_size):
            r = extent * (i + 1.0) / (grid_size + 1.0)
            ratio = h_side(r) / h0
            bound = jacobian(params, r)
            if bound <= 0.0:
                worst = max(worst, math.inf if ratio > INEQ_SLACK else 0.0)
            else:
                worst = max(worst, (ratio - bound) / bound)
        return worst

    H_plus = one_sided_log_derivative(profile, 0.0, "plus")
    max_excess = max(side_excess(profile.fn, profile.b, H_plus),
                     side_excess(lambda r: profile.fn(-r), -profile.a,
                                 -one_sided_log_derivative(profile, 0.0, "minus")))
    return RatioReport(passed=max_excess <= INEQ_SLACK, H_used=H_plus,
                       max_excess=max_excess)


def needle_mass(needle: Needle) -> float:
    """weight times the integral of the density over its interval."""
    return needle.weight * integrate(needle.profile.fn, needle.profile.a, needle.profile.b)


def laplacian_regular_part(needle: Needle, r: float, side: str = "plus") -> float:
    """-(log h)'(r): density of the regular part of the signed-distance
    Laplacian along this needle.  Uses the right derivative by default."""
    profile = needle.profile
    if not profile.a < r < profile.b:
        raise DomainError(f"r={r} outside ({profile.a}, {profile.b})")
    return -one_sided_log_derivative(profile, r, side)
