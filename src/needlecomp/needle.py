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
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .errors import CurvatureError, DomainError, ParameterError
from .model1d import CurvatureDimension, JacobianParams, cos_kappa, jacobian, sigma_kappa, sin_kappa
from .numerics import INEQ_SLACK, integrate, one_sided_derivative

# Finite-difference defaults for one-sided derivatives.
FD_BASE_STEP_FRACTION = 1e-3
FD_LEVELS = 8
FD_DIVERGE_THRESHOLD = 1e8

_TINY = 1e-300

# Triples (r0, r1, t) per array block of check_cd_density: bounds its memory.
_CD_BLOCK_TRIPLES = 8192


def _grid_point(a: float, b: float, n: int) -> Callable[[int], float]:
    """i -> np.linspace(a, b, n)[i] as a float, bit for bit (n >= 2)."""
    step = (b - a) / (n - 1)
    if step == 0.0:  # a subnormal width: numpy then divides before it scales
        return lambda i: i / (n - 1) * (b - a) + a if i < n - 1 else b
    return lambda i: i * step + a if i < n - 1 else b


class DensityProfile:
    """Positive density on [a, b], as a callable plus its values on a uniform grid.

    fn must be positive on the open interval and extend continuously to the
    closed one (the endpoint values may vanish).  deriv, when given, is the
    closed-form derivative of fn and is preferred over finite differences.
    mode, when given, declares fn non-decreasing on [a, mode] and non-increasing
    on [mode, b].  Construction validates fn on grid() in pure Python, given a
    mode only where the grid's extremes can lie (both ends, their interior
    neighbours, the points around the mode); samples is built on first access.
    """

    def __init__(self, a: float, b: float, fn: Callable[[float], float],
                 deriv: Optional[Callable[[float], float]] = None, grid_size: int = 1024,
                 mode: Optional[float] = None):
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ParameterError(f"invalid interval [{a}, {b}]")
        if grid_size < 2:
            raise ParameterError(f"grid_size must be >= 2, got {grid_size}")
        if mode is not None and math.isnan(mode):
            raise ParameterError("mode must not be NaN")
        self.a, self.b, self.fn, self.deriv = a, b, fn, deriv
        self.grid_size, self.mode = grid_size, mode
        n = grid_size
        point = _grid_point(a, b, n)
        indices = range(n)
        if mode is not None:
            # The least interior value sits next to an end and the largest next
            # to the mode; a point more on each side absorbs rounding in the mode.
            k = bisect_right(indices, mode, key=point)  # grid points <= mode
            indices = sorted({i for i in (0, 1, k - 2, k - 1, k, k + 1, n - 2, n - 1)
                              if 0 <= i < n})
        self._check(tuple(map(fn, map(point, indices))))

    def _key(self) -> tuple:
        return self.a, self.b, self.fn, self.deriv, self.grid_size, self.mode

    def __repr__(self) -> str:
        return ("DensityProfile(a={!r}, b={!r}, fn={!r}, deriv={!r}, grid_size={!r}, "
                "mode={!r})".format(*self._key()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _check(self, values: tuple) -> None:
        if not (all(map(math.isfinite, values)) and min(values[1:-1], default=1.0) > 0.0
                and values[0] >= 0.0 and values[-1] >= 0.0):
            raise ParameterError("density must be positive on the open interval "
                                 "and finite, non-negative at the endpoints")
        self._checked = values

    @cached_property
    def samples(self):
        """fn on grid(), as a read-only ndarray."""
        import numpy as np
        n, values = self.grid_size, self._checked
        if len(values) < n:
            values = list(map(self.fn, map(_grid_point(self.a, self.b, n), range(n))))
        samples = np.array(values)
        samples.flags.writeable = False
        return samples

    def __call__(self, r: float) -> float:
        return self.fn(r)

    def grid(self):
        import numpy as np
        return np.linspace(self.a, self.b, self.grid_size)

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
        # Not DensityProfile(...): __init__ would call fn on the grid again.
        out = object.__new__(DensityProfile)
        out.a, out.b, out.fn, out.deriv = self.a, self.b, lambda r: fn(r) ** exponent, new_deriv
        out.grid_size, out.mode = self.grid_size, self.mode if exponent > 0.0 else None
        try:  # x ** exponent is monotone: the extremes stay where they were
            out._check(tuple(s ** exponent for s in self._checked))
        except OverflowError:  # float ** raises where an array holds inf: reject that
            out._check((math.inf,))
        return out


class Needle(namedtuple("Needle", "profile weight")):
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
    return one_sided_derivative(log_fn, r, side, base_step,
                                levels=FD_LEVELS, diverge_threshold=FD_DIVERGE_THRESHOLD)


def check_cd_density(profile: DensityProfile, cd: CurvatureDimension,
                     grid_size: int = 24) -> CdDensityReport:
    """Brute-force check that profile^{1/(N-1)} satisfies the curvature-dimension
    concavity inequality at level K/(N-1) over all grid triples (r0, r1, t).

    Violations are measured relative to the left side; the check passes when
    the worst one does not exceed the inequality slack.  The witness is the
    first triple in (r0, r1, t) grid order reaching the worst violation; NaN
    violations never count.  The triples are evaluated as arrays, in blocks of
    whole pairs (r0, r1) taken in that order.
    """
    if grid_size < 3:
        raise ParameterError(f"grid_size must be >= 3, got {grid_size}")
    if cd.N <= 1.0:
        raise ParameterError(f"density check requires N > 1, got N={cd.N}")
    import numpy as np
    kap = cd.K / (cd.N - 1.0)
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    steps = np.arange(grid_size) + 1.0
    rs = a + (b - a) * steps / (grid_size + 1.0)
    ts = steps / (grid_size + 1.0)
    # The pairs rs[lo[p]] < rs[hi[p]] in (r0, r1) order, and their separations.
    lo, hi = np.triu_indices(grid_size, 1)
    thetas = rs[hi] - rs[lo]

    # Every grid point, then each pair's midpoints r0 + t theta in t order.
    points = np.empty(grid_size * (1 + thetas.size))
    points[:grid_size] = rs
    mids = points[grid_size:].reshape(thetas.size, grid_size)
    np.multiply(ts, thetas[:, None], out=mids)
    np.add(rs[lo, None], mids, out=mids)
    del mids
    # u = fn^expo once per distinct point; index[k] locates points[k] among them.
    order = np.argsort(points)
    points = points[order]
    new = np.empty(points.size, dtype=bool)
    new[0] = True
    np.not_equal(points[1:], points[:-1], out=new[1:])
    distinct = points[new].tolist()
    del points
    index = np.empty(order.size, dtype=np.int32 if order.size < 2**31 else np.intp)
    index[order] = np.cumsum(new, dtype=index.dtype) - 1
    del order, new
    fn = profile.fn
    values = np.array([fn(x) ** expo for x in distinct], dtype=float)
    del distinct
    u_rs = values[index[:grid_size]]

    worst = -math.inf
    witness = None
    step = max(1, _CD_BLOCK_TRIPLES // grid_size)  # pairs per block
    for p0 in range(0, thetas.size, step):
        p1 = min(p0 + step, thetas.size)
        theta = thetas[p0:p1, None]
        s_lo = sigma_kappa(kap, 1.0 - ts, theta)
        s_hi = sigma_kappa(kap, ts, theta)
        lhs = values[index[grid_size * (1 + p0):grid_size * (1 + p1)]].reshape(-1, grid_size)
        with np.errstate(invalid="ignore", over="ignore"):
            rhs = np.where(np.isinf(s_lo) | np.isinf(s_hi), math.inf,
                           s_lo * u_rs[lo[p0:p1], None] + s_hi * u_rs[hi[p0:p1], None])
            violation = (rhs - lhs) / np.maximum(np.abs(lhs), _TINY)
        # NaN never counts as worse; argmax takes the first (pair, t) in order.
        violation[np.isnan(violation)] = -math.inf
        k = int(np.argmax(violation))
        if violation.flat[k] > worst:
            worst = float(violation.flat[k])
            p, m = divmod(k, grid_size)
            witness = (float(rs[lo[p0 + p]]), float(rs[hi[p0 + p]]), float(ts[m]))
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
    if max_excess > INEQ_SLACK:
        passed = False
    return SturmReport(passed=passed, max_excess=max_excess)


def density_ratio_check(needle: Needle, cd: CurvatureDimension,
                        grid_size: int = 60) -> RatioReport:
    """Verify h(r)/h(0) <= J_{H,K,N}(r) with H = d^+ log h(0) on (0, b), and the
    orientation-reversed bound with H = -d^- log h(0) on (a, 0)."""
    profile = needle.profile
    if not profile.a < 0.0 < profile.b:
        raise DomainError("needle base must lie in the open interval")
    h0 = profile.fn(0.0)
    max_excess = -math.inf

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
    max_excess = max(max_excess, side_excess(profile.fn, profile.b, H_plus))
    H_reflected = -one_sided_log_derivative(profile, 0.0, "minus")
    max_excess = max(max_excess,
                     side_excess(lambda r: profile.fn(-r), -profile.a, H_reflected))
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
