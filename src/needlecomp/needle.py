"""Calculus on single needle densities.

A needle carries a positive one-dimensional density on an interval with the
surface crossing at parameter 0.  This module provides one-sided logarithmic
derivatives, the curvature-dimension density check, the mollified comparison
bound and the density-ratio bound against the distortion profile.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import repeat
from typing import Callable, NamedTuple, Optional

from .errors import CurvatureError, DomainError, ParameterError
from .model1d import (J_OVERFLOWS, Checked, CurvatureDimension, JacobianParams, jacobian,
                      kappa_trig, sigma_kappa)
from .numerics import INEQ_SLACK, one_sided_derivative

# Finite-difference base step, as a fraction of the interval length.
FD_BASE_STEP_FRACTION = 1e-3
# Points of the uniform grid on which a DensityProfile is validated.
GRID_SIZE = 1024

_TINY = 1e-300

# Lattice points, or midpoint comparisons, per array pass of check_cd_density:
# bounds the Python float lists and numpy temporaries behind its G^2 values.
_CD_BLOCK = 16384
# Lattice points up to which check_cd_density works in Python floats while
# numpy is not yet imported: at G = 32 that takes about 1 ms longer than the
# array pass, and importing numpy about 140 ms.
_CD_FLOAT_POINTS = 1024
_U_OVERFLOWS = "the density check's u = h**(1/(N-1)) overflows a float at these parameters"
_NOT_A_DENSITY = ("density must be positive on the open interval "
                  "and finite, non-negative at the endpoints")
_BOUND_OVERFLOWS = ("the sturm check's comparison bound u(r0) cos_kappa + u'(r0) sin_kappa "
                    "overflows a float at these parameters")
_SIGMA_OVERFLOWS = ("the distortion coefficients of the density check overflow a float "
                    "at these parameters")


def _grid_point(a: float, b: float, n: int) -> Callable[[int], float]:
    """i -> np.linspace(a, b, n)[i] as a float, bit for bit (n >= 2)."""
    step = (b - a) / (n - 1)
    if step == 0.0:  # a subnormal width: numpy then divides before it scales
        return lambda i: i / (n - 1) * (b - a) + a if i < n - 1 else b
    return lambda i: i * step + a if i < n - 1 else b


class DensityProfile(Checked, namedtuple("DensityProfile", "a b fn deriv mode values",
                                         defaults=(None, None, None))):
    """Positive density on [a, b], validated on a uniform grid of GRID_SIZE points.

    fn must be positive on the open interval and extend continuously to the
    closed one (the endpoint values may vanish).  deriv, when given, is the
    closed-form derivative of fn and is preferred over finite differences.
    mode, when given, declares fn non-decreasing on [a, mode] and non-increasing
    on [mode, b].  Construction validates fn on the grid in pure Python, given a
    mode only where the grid's extremes can lie (both ends, their interior
    neighbours, the points around the mode).  values, when given, is fn's array
    form: a numpy array of points in [a, b] to the array of fn at each, the same
    floats bit for bit (or the same error) with numpy's overflow and invalid
    warnings off; check_cd_density fills its lattice from it.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # The checks run in __init__, so that a wrapper of __init__ (perfbench/tracer.py
        # installs one) sees every checked construction.
        a, b, fn, unused_deriv, mode, unused_values = self
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
        values = tuple(map(fn, map(point, indices)))
        if not (all(map(math.isfinite, values)) and min(values[1:-1]) > 0.0
                and values[0] >= 0.0 and values[-1] >= 0.0):
            raise ParameterError(_NOT_A_DENSITY)

    def power(self, exponent: float) -> "DensityProfile":
        """The profile raised pointwise to a power, derivative chained, checked as
        any profile (an overflow is a ParameterError).  A positive power keeps the mode."""
        fn, deriv = self.fn, self.deriv
        new_deriv = None if deriv is None else (
            lambda r: exponent * fn(r) ** (exponent - 1.0) * deriv(r))
        try:
            return DensityProfile(self.a, self.b, lambda r: fn(r) ** exponent, new_deriv,
                                  self.mode if exponent > 0.0 else None)
        except OverflowError:  # float ** raises where an array holds inf: reject that
            raise ParameterError(_NOT_A_DENSITY) from None


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
    """Check that u = profile^{1/(N-1)} satisfies the curvature-dimension
    concavity inequality at level kappa = K/(N-1) on a lattice, at every
    dyadic scale.

    With G = grid_size and delta = (b - a)/(G+1)^2, u is evaluated once at each
    lattice point x_q = a + (b - a) (q / (G+1)^2), q = G+1, ..., G(G+1): from
    the profile's array form where it has one, else by G^2 density calls in
    ascending q.  For each s = 1, 2, 4, ... with 2s < G^2, u_q
    is compared with sigma_kappa^{(1/2)}(2 s delta) (u_{q-s} + u_{q+s}) at every
    q whose neighbours q -+ s are on the lattice.  In one dimension the CD(K, N)
    condition is local (u'' + kappa u <= 0), so these midpoint conditions stand
    for every triple; the coarser scales show smooth defects that the slack
    hides at the finest one.  The work is O(G^2 log G).  The memory is two
    arrays of G^2 floats (the lattice points, which then hold max(|u_q|, _TINY),
    and u) and one buffer of _CD_BLOCK points, in which each scale's
    violations are computed in place, block by block.

    A lattice of at most _CD_FLOAT_POINTS points (G <= 32) is checked in Python
    floats, by density calls, while numpy is not yet imported: the same report
    bit for bit, or the same error, without paying numpy's import for a check
    that takes a millisecond.  Once numpy is loaded, every lattice takes the
    array path.

    Violations are measured relative to |u_q|; the check passes when the worst
    one does not exceed the inequality slack.  The witness (x_{q-s}, x_{q+s},
    0.5) is the first, by s and then q, reaching the worst violation; NaN
    violations never count, and a span of at least pi_kappa has an infinite
    right side.  A negative density value is a ParameterError naming its point,
    and so is a u or a distortion coefficient that overflows a float.
    """
    if grid_size < 3:
        raise ParameterError(f"grid_size must be >= 3, got {grid_size}")
    if grid_size * grid_size <= _CD_FLOAT_POINTS and "numpy" not in sys.modules:
        return _cd_density_floats(profile, cd, grid_size)
    import numpy as np
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    g1 = grid_size + 1
    n = grid_size * grid_size
    xs = a + (b - a) * (np.arange(g1, grid_size * g1 + 1) / float(g1 * g1))
    fill = profile.values
    if fill is None:
        fill = lambda x: np.fromiter(map(profile.fn, x.tolist()), float, x.size)
    u = np.empty(n)  # h, then h**(1/(N-1)) in place
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as Python floats
        for lo in range(0, n, _CD_BLOCK):
            u[lo:lo + _CD_BLOCK] = fill(xs[lo:lo + _CD_BLOCK])
    negative = u < 0.0
    if negative.any():
        raise _negative_density(float(xs[negative.argmax()]))
    try:
        for lo in range(0, n, _CD_BLOCK):
            h = u[lo:lo + _CD_BLOCK]
            h[:] = np.fromiter(map(pow, h.tolist(), repeat(expo)), float)
    except OverflowError:
        raise ParameterError(_U_OVERFLOWS) from None

    x_at = lambda q: float(a + (b - a) * ((q + g1) / float(g1 * g1)))  # xs[q], bit for bit
    block = np.empty(min(_CD_BLOCK, n))
    worst = -math.inf
    witness = None
    s = 1
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(np.abs(u, out=xs), _TINY, out=xs)  # xs is spent: reuse it
        while 2 * s < n:
            try:  # sinh of a strongly negative K
                sigma = sigma_kappa(cd.kappa, 0.5, (b - a) * (2 * s / (g1 * g1)))
            except OverflowError:
                raise ParameterError(_SIGMA_OVERFLOWS) from None
            for lo in range(s, n - s, _CD_BLOCK):
                hi = min(lo + _CD_BLOCK, n - s)
                # (rhs - lhs) / max(|lhs|, _TINY), rhs = sigma (u_{q-s} + u_{q+s})
                violation = block[:hi - lo]
                if math.isinf(sigma):
                    violation.fill(math.inf)
                else:
                    np.add(u[lo - s:hi - s], u[lo + s:hi + s], out=violation)
                    violation *= sigma
                violation -= u[lo:hi]
                violation /= scale[lo:hi]
                # NaN never counts as worse: argmax takes the first NaN, if there
                # is one, else the first q; a later block must be strictly worse.
                k = int(violation.argmax())
                if math.isnan(violation[k]):
                    violation[np.isnan(violation)] = -math.inf
                    k = int(violation.argmax())
                if violation[k] > worst:
                    worst = float(violation[k])
                    witness = (x_at(lo + k - s), x_at(lo + k + s), 0.5)
            s *= 2
    return CdDensityReport(passed=worst <= INEQ_SLACK, worst_violation=worst,
                           witness=witness)


def _cd_density_floats(profile: DensityProfile, cd: CurvatureDimension,
                       grid_size: int) -> CdDensityReport:
    """check_cd_density's array pass in Python floats: the same lattice, u,
    scale and violations, floats and report bit for bit, or the same error."""
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    g1 = grid_size + 1
    n = grid_size * grid_size
    xs = [a + (b - a) * (q / float(g1 * g1)) for q in range(g1, grid_size * g1 + 1)]
    u = list(map(profile.fn, xs))
    for x, h in zip(xs, u):
        if h < 0.0:
            raise _negative_density(x)
    try:
        u = list(map(pow, u, repeat(expo)))
    except OverflowError:
        raise ParameterError(_U_OVERFLOWS) from None
    scale = [_TINY if _TINY > h else h for h in map(abs, u)]  # max(|u|, _TINY), NaN kept
    worst = -math.inf
    witness = None
    s = 1
    while 2 * s < n:
        try:  # sinh of a strongly negative K
            sigma = sigma_kappa(cd.kappa, 0.5, (b - a) * (2 * s / (g1 * g1)))
        except OverflowError:
            raise ParameterError(_SIGMA_OVERFLOWS) from None
        mid, scale_mid = u[s:n - s], scale[s:n - s]
        if math.isinf(sigma):
            violation = [(math.inf - h) / w for h, w in zip(mid, scale_mid)]
        else:
            violation = [(sigma * (lo + hi) - h) / w
                         for lo, hi, h, w in zip(u, u[2 * s:], mid, scale_mid)]
        # max keeps the first of equal values and skips NaN unless it comes
        # first, as the array pass's argmax does once NaN is filtered out
        top = max(violation)
        if math.isnan(top):
            top = max((v for v in violation if not math.isnan(v)), default=-math.inf)
        if top > worst:
            worst = top
            k = violation.index(top)
            witness = (xs[k], xs[k + 2 * s], 0.5)
        s *= 2
    return CdDensityReport(passed=worst <= INEQ_SLACK, worst_violation=worst,
                           witness=witness)


def _negative_density(x: float) -> ParameterError:
    return ParameterError(f"the density is negative at {x!r}")


def sturm_bound_check(u: DensityProfile, kappa: float, r0: float,
                      grid_size: int = 40) -> SturmReport:
    """Verify the comparison bound
    u(r) <= u(r0) cos_kappa(r - r0) + d^+u(r0) sin_kappa(r - r0) on (r0, b),
    together with positivity of the right-hand side there.  A negative value of
    u, or a complex one (a negative density to a fractional power), is a
    ParameterError naming its point.  A bound that overflows a float is a
    ParameterError too.
    """
    if not u.a < r0 < u.b:
        raise DomainError(f"base point r0={r0} outside ({u.a}, {u.b})")
    u0 = u.fn(r0)
    if type(u0) is complex or u0 < 0.0:
        raise _negative_density(r0)
    du0 = u0 * one_sided_log_derivative(u, r0, "plus")
    # cos_kappa(kappa, t) and sin_kappa(kappa, t) as cs(rt t) and sn(rt t) / rt,
    # the same floats; for kappa = 0, u0 * 1.0 + du0 * (t / 1.0) is u0 + du0 * t
    trig = kappa_trig(kappa)
    if trig is not None:
        rt, sn, cs = trig
    fn, span, g1 = u.fn, u.b - r0, grid_size + 1.0
    max_excess = -math.inf
    passed = True
    for i in range(grid_size):
        r = r0 + span * (i + 1.0) / g1
        if trig is None:
            bound = u0 + du0 * (r - r0)
        else:
            t = rt * (r - r0)
            try:  # cosh and sinh of a strongly negative kappa
                bound = u0 * cs(t) + du0 * (sn(t) / rt)
            except OverflowError:
                raise ParameterError(_BOUND_OVERFLOWS) from None
        if bound <= 0.0:
            passed = False
        value = fn(r)
        if type(value) is complex or value < 0.0:
            raise _negative_density(r)
        scale = abs(bound)
        excess = (value - bound) / (_TINY if _TINY > scale else scale)  # max(scale, _TINY)
        if excess > max_excess:
            max_excess = excess
    return SturmReport(passed=passed and max_excess <= INEQ_SLACK, max_excess=max_excess)


def density_ratio_check(needle: Needle, cd: CurvatureDimension,
                        grid_size: int = 60) -> RatioReport:
    """Verify h(r)/h(0) <= J_{H,K,N}(r) with H = d^+ log h(0) on (0, b), and the
    orientation-reversed bound with H = -d^- log h(0) on (a, 0).  A J that
    overflows a float is a ParameterError."""
    profile = needle.profile
    if not profile.a < 0.0 < profile.b:
        raise DomainError("needle base must lie in the open interval")
    h0 = profile.fn(0.0)

    fn, g1 = profile.fn, grid_size + 1.0

    def side_excess(sign: float, extent: float, H: float) -> float:
        """The worst excess of h(sign r)/h(0) over J_H(r) on (0, extent); sign
        r is r or -r exactly.  `if x > worst` keeps max(worst, x)'s floats."""
        if math.isinf(H):
            raise CurvatureError("one-sided log derivative at the base is infinite")
        params = JacobianParams(H, cd)
        worst = -math.inf
        for i in range(grid_size):
            r = extent * (i + 1.0) / g1
            ratio = fn(sign * r) / h0
            try:  # cosh, sinh or the power in J
                bound = jacobian(params, r)
            except OverflowError:
                raise ParameterError(J_OVERFLOWS) from None
            if bound <= 0.0:
                excess = math.inf if ratio > INEQ_SLACK else 0.0
            else:
                excess = (ratio - bound) / bound
            if excess > worst:
                worst = excess
        return worst

    H_plus = one_sided_log_derivative(profile, 0.0, "plus")
    max_excess = max(side_excess(1.0, profile.b, H_plus),
                     side_excess(-1.0, -profile.a,
                                 -one_sided_log_derivative(profile, 0.0, "minus")))
    return RatioReport(passed=max_excess <= INEQ_SLACK, H_used=H_plus,
                       max_excess=max_excess)
