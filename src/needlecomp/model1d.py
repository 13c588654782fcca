"""Model-space special functions.

Generalized trigonometric functions, distortion coefficients, the volume
distortion profile J_{H,K,N} with its support, and the model isoperimetric
profile of the positively curved one-dimensional model space.

Conventions: K is the Ricci curvature lower bound, N the dimension upper
bound, H the (outer) mean curvature at the surface crossing.  Infinite values
are represented by math.inf.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import cached_property, partial

from .errors import ParameterError
from .numerics import integrate

J_OVERFLOWS = "the distortion profile J overflows a float at these parameters"


class Checked:
    """Base of the named tuples whose constructor checks its fields: _make, and
    with it _replace, builds through the constructor, so the checks run again."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CurvatureDimension(Checked, namedtuple("CurvatureDimension", "K N")):
    """Curvature bound K (units 1/length^2) and dimension bound N (J needs N above 1),
    with kappa = K/(N-1) finite and, unless it rounds to 0, a normal float: a
    subnormal kappa has too few digits for sqrt(kappa) and the sines built on it."""

    __slots__ = ()

    def __new__(cls, K: float, N: float):
        if not math.isfinite(K):
            raise ParameterError(f"curvature bound K must be finite, got {K}", key="K")
        if not (math.isfinite(N) and N > 1.0):
            raise ParameterError(f"dimension bound N must be finite and > 1, got {N}",
                                 key="N")
        self = super().__new__(cls, K, N)
        kappa = self.kappa
        if math.isinf(kappa):
            raise ParameterError(f"K/(N-1) overflows a float at K={K}, N={N}", key="K")
        if 0.0 < abs(kappa) < sys.float_info.min:
            raise ParameterError(f"K/(N-1) is a subnormal float at K={K}, N={N}", key="K")
        return self

    @property
    def kappa(self) -> float:
        """K/(N-1), the curvature level of sin_kappa, cos_kappa and J."""
        return self.K / (self.N - 1.0)


class JacobianParams(Checked, namedtuple("JacobianParams", "H cd")):
    """Mean curvature H together with the ambient (K, N)."""

    # No __slots__: the cached _consts lives in the instance dict.

    def __new__(cls, H: float, cd: CurvatureDimension):
        if not math.isfinite(H):
            raise ParameterError(f"mean curvature H must be finite, got {H}")
        return super().__new__(cls, H, cd)

    @cached_property
    def _consts(self) -> tuple:
        """(kappa, rt, sn, cs, H/(N-1), N-1), (rt, sn, cs) from kappa_trig, for jacobian."""
        m, kappa = self.cd.N - 1.0, self.cd.kappa
        rt, sn, cs = kappa_trig(kappa) or (0.0, None, None)
        return kappa, rt, sn, cs, self.H / m, m

    @property
    def K(self) -> float:
        return self.cd.K

    @property
    def N(self) -> float:
        return self.cd.N


def kappa_trig(kappa: float) -> tuple | None:
    """(rt, sn, cs) with sin_kappa(r) = sn(rt r) / rt and cos_kappa(r) = cs(rt r):
    (sqrt(kappa), sin, cos) for kappa > 0, (sqrt(-kappa), sinh, cosh) for kappa < 0
    and None for kappa = 0 (or NaN), where sin_kappa(r) = r and cos_kappa(r) = 1."""
    if kappa > 0.0:
        return math.sqrt(kappa), math.sin, math.cos
    if kappa < 0.0:
        return math.sqrt(-kappa), math.sinh, math.cosh
    return None


def sin_kappa(kappa: float, r: float) -> float:
    """The solution of v'' + kappa v = 0 with v(0) = 0, v'(0) = 1; cos_kappa is the
    one with v(0) = 1, v'(0) = 0, and cos_kappa^2 + kappa sin_kappa^2 = 1."""
    trig = kappa_trig(kappa)
    if trig is None:
        return r
    rt, sn, _ = trig
    return sn(rt * r) / rt


def cos_kappa(kappa: float, r: float) -> float:
    trig = kappa_trig(kappa)
    if trig is None:
        return 1.0
    rt, _, cs = trig
    return cs(rt * r)


def pi_kappa(kappa: float) -> float:
    """Diameter of the simply connected space form of curvature kappa."""
    if kappa <= 0.0:
        return math.inf
    return math.pi / math.sqrt(kappa)


def sigma_kappa(kappa: float, t: float, theta: float) -> float:
    """Distortion coefficient at curvature level kappa:
    sin_kappa(t * theta) / sin_kappa(theta) for theta in [0, pi_kappa), else inf.

    sigma(t, 0) = t by the limit convention; for kappa = 0 the ratio is t exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"interpolation parameter t must lie in [0, 1], got {t}")
    if theta < 0.0:
        raise ParameterError(f"separation theta must be >= 0, got {theta}")
    if theta == 0.0 or kappa == 0.0:
        return t
    if theta >= pi_kappa(kappa):
        return math.inf
    return sin_kappa(kappa, t * theta) / sin_kappa(kappa, theta)


def jacobian(p: JacobianParams, r: float) -> float:
    """Volume distortion profile J_{H,K,N}(r): the positive part of the base
    cos_{K/(N-1)}(r) + H/(N-1) * sin_{K/(N-1)}(r) raised to the power N-1.
    J(0) = 1; J is non-negative everywhere.  Computed in one frame from
    constants cached on p, as the profile match calls it thousands of times.
    """
    _, rt, sn, cs, lam, m = p._consts
    base = 1.0 + lam * r if sn is None else cs(rt * r) + lam * (sn(rt * r) / rt)
    if base <= 0.0:
        return 0.0
    return base ** m


def jacobian_support(p: JacobianParams) -> tuple[float, float]:
    """Maximal interval around 0 on which the base of J_{H,K,N} is positive."""
    kap, rt, _, _, lam, _ = p._consts
    if kap > 0.0:
        phase = math.atan2(lam / rt, 1.0)
        return (phase - 0.5 * math.pi) / rt, (phase + 0.5 * math.pi) / rt
    if kap == 0.0:
        if lam == 0.0:
            return -math.inf, math.inf
        zero = -1.0 / lam
        return (zero, math.inf) if lam > 0.0 else (-math.inf, zero)
    c = lam / rt
    if abs(c) <= 1.0:
        return -math.inf, math.inf
    zero = math.atanh(-1.0 / c) / rt
    return (zero, math.inf) if c > 0.0 else (-math.inf, zero)


def kappa_eff(p: JacobianParams) -> float:
    """K/(N-1) + (H/(N-1))^2, the conserved energy of the base of J."""
    kappa, _, _, _, lam, _ = p._consts
    return kappa + lam * lam


def check_sine_curvature(cd: CurvatureDimension) -> None:
    """A K > 0 so small that K/(N-1) underflows to 0 has no sine-power density."""
    if cd.kappa == 0.0:
        raise ParameterError(f"K={cd.K} is too small for N={cd.N}: K/(N-1) underflows to 0",
                             key="K")


def _require_positive_curvature(cd: CurvatureDimension) -> float:
    if cd.K <= 0.0:
        raise ParameterError(f"positive curvature bound required, got K={cd.K}")
    check_sine_curvature(cd)
    return cd.kappa


def _half_beta(N: float) -> float:
    """B(N/2, 1/2), the integral of sin^{N-1} over [0, pi]; _log_beta past
    the range where Gamma(N/2) is finite."""
    a = 0.5 * N
    if a < 170.0:
        return math.sqrt(math.pi) * math.gamma(a) / math.gamma(a + 0.5)
    return math.exp(_log_beta(a, 0.5))


# Lentz's continued fraction: convergence test, floor for vanishing
# denominators, and a term bound that also guarantees termination.
_CF_EPS = sys.float_info.epsilon
_CF_TINY = sys.float_info.min / sys.float_info.epsilon
_CF_MAX_TERMS = 100_000
_NEWTON_MAX_STEPS = 200
# The largest power of ten at which model_profile agreed with a 40-digit mpmath
# reference to 1e-9 relative: worst 6.8e-10 over 420 draws of N in [5e6, 1e7],
# K in [1e-3, 1e3] and v in [1e-12, 1/2]; 1.35e-9 already at N = 3e7.
MAX_PROFILE_N = 1e7


def _check_beta_shape(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"beta shape parameters must be finite and positive, "
                             f"got a={a}, b={b}")


def _log_beta(a: float, b: float) -> float:
    """log B(a, b); from a = 20 on, lgamma(a) - lgamma(a + b) by Stirling series
    (DLMF 5.11.1), free of the rounding of two large lgamma values."""
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    tail = lambda x: (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x * x)) / (x * x)) / (x * x)) / x
    return (math.lgamma(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b
            + tail(a) - tail(a + b))


def _lentz_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of DLMF 8.17.22, evaluated by the modified Lentz
    method; it converges fast for x below (a + 1) / (a + b + 2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) <= _CF_EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and x in
    [0, 1]: the continued fraction on the side of the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) where it converges fast."""
    _check_beta_shape(a, b)
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"argument x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    return _regularized_beta(a, b, x, _log_beta(a, b))


def _regularized_beta(a: float, b: float, x: float, log_beta: float) -> float:
    """I_x(a, b) as x^a (1-x)^b / (a B(a, b)) times _lentz_fraction, or 1 - I_{1-x}(b, a)."""
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, 1.0 - x
    h = _lentz_fraction(a, b, x)
    part = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta) / a * h
    return 1.0 - part if flip else part


def inverse_regularized_beta(a: float, b: float, y: float) -> float:
    """The x in [0, 1] with I_x(a, b) = y: Newton steps on the closed-form
    derivative x^{a-1} (1-x)^{b-1} / B(a, b), kept inside a bracket that
    shrinks with every evaluation, so that it always terminates."""
    _check_beta_shape(a, b)
    if not 0.0 <= y <= 1.0:
        raise ParameterError(f"probability y must lie in [0, 1], got {y}")
    if y == 0.0 or y == 1.0:
        return y
    log_beta = _log_beta(a, b)
    # start from the leading term of the tail that y falls in
    t = math.exp(a * math.log(a / (a + b))) / a
    u = math.exp(b * math.log(b / (a + b))) / b
    w = t + u
    if y < t / w:
        x = (a * w * y) ** (1.0 / a)
    else:
        x = 1.0 - (b * w * (1.0 - y)) ** (1.0 / b)
    # the guess may round to 0 or 1; the root then lies within a float of it
    x = min(max(x, sys.float_info.min), 1.0 - 0.5 * _CF_EPS)
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_MAX_STEPS):
        err = _regularized_beta(a, b, x, log_beta) - y
        if err == 0.0:
            return x
        if err < 0.0:
            lo = x
        else:
            hi = x
        # err / density, with the exponent capped where the density vanishes
        log_inverse_density = log_beta - (a - 1.0) * math.log(x) - (b - 1.0) * math.log1p(-x)
        nxt = x - err * math.exp(min(log_inverse_density, 700.0))
        if abs(nxt - x) <= 2.0 * _CF_EPS * x:
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return x  # the bracket holds two adjacent floats
        x = nxt
    return x


def model_density_normalizer(cd: CurvatureDimension) -> float:
    """Total mass of sin_{K/(N-1)}^{N-1} over [0, pi_{K/(N-1)}] (K > 0):
    kappa^{-N/2} B(N/2, 1/2) with kappa = K/(N-1)."""
    kap = _require_positive_curvature(cd)
    return kap ** (-0.5 * cd.N) * _half_beta(cd.N)


def model_profile(cd: CurvatureDimension, v: float) -> float:
    """Isoperimetric profile of the 1D model space with density
    sin_kappa^{N-1} on [0, pi_kappa], kappa = K/(N-1), at volume fraction v.

    Closed form (DLMF 8.17): sqrt(kappa) x^{(N-1)/2} / B(N/2, 1/2) with
    x = I^{-1}(2 min(v, 1 - v); N/2, 1/2), I the regularized incomplete beta
    (inverse_regularized_beta).
    Concave in v, symmetric about v = 1/2 and zero at v in {0, 1}.  kappa is
    finite (CurvatureDimension), so the profile is below
    sqrt(kappa) / B(N/2, 1/2) < 1e155.  An N above MAX_PROFILE_N is a
    ParameterError: the power (N-1)/2 multiplies x's rounding error.
    """
    kap = _require_positive_curvature(cd)
    if cd.N > MAX_PROFILE_N:
        raise ParameterError(f"the model profile is resolved only for N <= {MAX_PROFILE_N:.0e}, "
                             f"got N={cd.N}", key="N")
    if not 0.0 <= v <= 1.0:
        raise ParameterError(f"volume fraction v must lie in [0, 1], got {v}")
    if v == 0.0 or v == 1.0:
        return 0.0
    x = inverse_regularized_beta(0.5 * cd.N, 0.5, 2.0 * min(v, 1.0 - v))
    return math.sqrt(kap) * x ** (0.5 * (cd.N - 1.0)) / _half_beta(cd.N)


def model_rhs_constant_H(p: JacobianParams) -> float:
    """The integral of J_{H,K,N} (K > 0) over its full support: kappa_eff^{(N-1)/2}
    times the model density normalizer or, where that alone overflows, the same
    as (kappa_eff/kappa)^{(N-1)/2} B(N/2, 1/2) / sqrt(kappa).  An integral that
    overflows a float is a ParameterError."""
    kap = _require_positive_curvature(p.cd)
    kap_eff, expo = kappa_eff(p), 0.5 * (p.cd.N - 1.0)
    try:
        if -0.5 * p.cd.N * math.log(kap) < 700.0:
            total = kap_eff ** expo * model_density_normalizer(p.cd)
        else:
            total = (kap_eff / kap) ** expo * _half_beta(p.cd.N) / math.sqrt(kap)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise ParameterError(J_OVERFLOWS)
    return total


def jacobian_integral(p: JacobianParams, lo: float, hi: float) -> float:
    """Integral of J over [lo, hi] within its support: a difference of masses from
    the support end (K > 0) or from 0 (K = 0); the quadrature of J for K < 0 and
    where terms or errors exceed that 256-fold.  Overflow is a ParameterError."""
    sup_lo, sup_hi = jacobian_support(p)
    a, b = max(lo, sup_lo), min(hi, sup_hi)
    if not b > a:
        return 0.0
    kappa, _, _, _, lam, _ = p._consts
    total, scale = 0.0, math.inf
    try:
        if kappa > 0.0:
            k_a, part_a, err_a = (0, 0.0, 0.0) if a == sup_lo else _jacobian_mass_to(p, a)
            k_b, part_b, err_b = (2, 0.0, 0.0) if b == sup_hi else _jacobian_mass_to(p, b)
            whole = 0.5 * (k_b - k_a) * model_rhs_constant_H(p) if k_b != k_a else 0.0
            total, scale = whole + part_b - part_a, max(abs(whole), err_a, err_b)
        elif kappa == 0.0:
            part_a, part_b = _power_mass_to(lam, p.N, a), _power_mass_to(lam, p.N, b)
            total, scale = part_b - part_a, max(abs(part_a), abs(part_b))
        if not scale <= 256.0 * total:
            total = integrate(partial(jacobian, p), a, b)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise ParameterError(J_OVERFLOWS)
    return total


def _jacobian_mass_to(p: JacobianParams, r: float) -> tuple[int, float, float]:
    """(halves, part, err): J's mass (K > 0) from its lower support end to r is
    halves half masses plus part, the incomplete beta tail (DLMF 8.17.22) to the
    nearer support end or, past the switch of its continued fraction, to the
    peak; err = J(r) (|r| + 1/rt) bounds the error rounding r passes to part.
    J(r) = (A sin v)^{N-1}, A^2 = 1 + c^2, v = rt r + atan2(1, c), rt = sqrt(kappa)."""
    _, rt, sn, cs, lam, m = p._consts
    c = lam / rt
    s, co = sn(rt * r), cs(rt * r)
    base, slope = co + c * s, c * co - s
    if base <= 0.0:  # r rounds onto or past the end of the support
        return (0 if slope >= 0.0 else 2), 0.0, 0.0
    amp, a, jac = math.sqrt(1.0 + c * c), 0.5 * (m + 1.0), base ** m
    sin_v, cos_v = base / amp, abs(slope) / amp
    if sin_v * sin_v <= (a + 1.0) / (a + 2.5):  # 1/2 B(sin^2 v; a, 1/2) to the end
        tail = jac * sin_v * cos_v * _lentz_fraction(a, 0.5, sin_v * sin_v) / ((m + 1.0) * rt)
        halves, part = (0, tail) if slope >= 0.0 else (2, -tail)
    else:  # 1/2 B(cos^2 v; 1/2, a) to the peak
        tail = jac * sin_v * cos_v * _lentz_fraction(0.5, a, cos_v * cos_v) / rt
        halves, part = 1, (-tail if slope >= 0.0 else tail)
    return halves, part, jac * (abs(r) + 1.0 / rt)


def _power_mass_to(lam: float, N: float, r: float) -> float:
    """Integral of (1 + lam s)_+^{N-1} over [0, r], by expm1 and log1p below lam r = 1."""
    x = lam * r
    if x == 0.0 or x <= -1.0:
        return r if x == 0.0 else -1.0 / (lam * N)
    if x < 1.0:
        return math.expm1(N * math.log1p(x)) / (lam * N)
    return ((1.0 + x) ** N - 1.0) / (lam * N)


def unit_sphere_volume(dim: int) -> float:
    """Riemannian volume of the round unit sphere of the given dimension;
    log-gamma from dim = 342 on, where Gamma((dim + 1) / 2) overflows."""
    if dim < 0:
        raise ParameterError(f"sphere dimension must be >= 0, got {dim}")
    h = 0.5 * (dim + 1)
    return 2.0 * (math.pi ** h / math.gamma(h) if dim < 342
                  else math.exp(h * math.log(math.pi) - math.lgamma(h)))
