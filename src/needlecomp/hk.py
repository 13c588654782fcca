"""Tube-volume bound engine.

Evaluates both sides of the outer and two-sided tube-volume inequalities, the
closed-form corollary bounds, the isoperimetric comparison, and detects the
sharp equality (rigidity) configuration.  The right-hand sides integrate the
distortion profile J over [0, t] or [-D, D] clipped to its support, in closed
form for K >= 0 (model1d.jacobian_integral).  The left-hand sides stay
quadratures of the needle densities, so each bound compares two independent
evaluations.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple, Optional

from .errors import InequalityViolation, ParameterError
from .geometry import NeedleDecomposition, inner_mass, tube_volume
from .model1d import (J_OVERFLOWS, JacobianParams, jacobian, jacobian_integral,
                      jacobian_support, kappa_eff, model_profile, model_rhs_constant_H,
                      unit_sphere_volume)
from .numerics import INEQ_SLACK

DEFAULT_EQUALITY_TOL = 1e-8
TOLERANCE_ENV_VAR = "NEEDLECOMP_TOL"
# Interior points at which a needle density is compared with h(0) J_H.
PROFILE_MATCH_POINTS = 200

_TINY = 1e-300


def equality_tolerance(override: Optional[float] = None) -> float:
    """Equality detection tolerance: explicit override, else the NEEDLECOMP_TOL
    environment variable, else the default."""
    if override is not None:
        value = float(override)
    else:
        raw = os.environ.get(TOLERANCE_ENV_VAR)
        if raw is None:
            return DEFAULT_EQUALITY_TOL
        try:
            value = float(raw)
        except ValueError:
            raise ParameterError(f"invalid {TOLERANCE_ENV_VAR} value {raw!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"equality tolerance must be positive, got {value}")
    return value


class HKReport(NamedTuple):
    """One statement's comparison: lhs against rhs, their gap and whether they
    are equal.  The rigidity statement compares no sides of its own; it
    carries hk-full's gap and names the conditions that failed."""

    statement: str
    lhs: Optional[float]
    rhs: Optional[float]
    gap: float
    relative_gap: float
    equality: bool
    t: Optional[float] = None
    failed: tuple[str, ...] = ()


def _guard_inequality(statement: str, lhs: float, rhs: float) -> None:
    if lhs > rhs + INEQ_SLACK * abs(rhs):
        raise InequalityViolation(
            f"{statement}: lhs {lhs!r} exceeds rhs {rhs!r} beyond slack; "
            "this indicates a software defect")


def _build_report(statement: str, lhs: float, rhs: float, tol: float,
                  t: Optional[float] = None) -> HKReport:
    _guard_inequality(statement, lhs, rhs)
    gap = rhs - lhs
    relative_gap = gap / max(abs(rhs), _TINY)
    return HKReport(statement=statement, lhs=lhs, rhs=rhs, gap=gap,
                    relative_gap=relative_gap, equality=relative_gap < tol, t=t)


def hk_outer(dec: NeedleDecomposition, t: float,
             tolerance: Optional[float] = None) -> HKReport:
    """Outer tube bound at width t: mass of the outer t-tube on the left,
    the surface-weighted integral of J_{H_plus} over [0, t] on the right."""
    tol = equality_tolerance(tolerance)
    lhs = tube_volume(dec, t, "outer")
    rhs = dec.surface_total * jacobian_integral(JacobianParams(dec.H_plus, dec.cd), 0.0, t)
    return _build_report("hk-outer", lhs, rhs, tol, t=t)


def hk_full(dec: NeedleDecomposition,
            tolerance: Optional[float] = None) -> HKReport:
    """Two-sided bound: total mass against the surface-weighted integral of
    J_H over [-D, D] with D the diameter and H = max(H_plus, -H_minus)."""
    tol = equality_tolerance(tolerance)
    D = dec.diameter
    rhs = dec.surface_total * jacobian_integral(JacobianParams(dec.H, dec.cd), -D, D)
    return _build_report("hk-full", dec.total_mass, rhs, tol)


def closed_form_bounds(dec: NeedleDecomposition, H0: Optional[float] = None,
                       tolerance: Optional[float] = None) -> tuple[HKReport, ...]:
    """Evaluate every applicable closed-form corollary bound on the total mass.

    Branches: (a) a constant curvature bound H0 dominating the needle's H,
    (b) the diameter bound for H <= 0 and K >= 0, (c) for K > 0 the sharp
    bound through kappa_eff, plus its sphere-volume form for integer N.
    Raises when no branch applies, when H0 fails to dominate or when a bound
    overflows a float.
    """
    tol = equality_tolerance(tolerance)
    cd, D, H = dec.cd, dec.diameter, dec.H
    weight = dec.surface_total

    def report(statement: str, rhs: float) -> HKReport:
        if math.isinf(rhs):
            raise ParameterError(J_OVERFLOWS)
        return _build_report(statement, dec.total_mass, rhs, tol)

    # Sign and dominance preconditions tolerate float noise around equality
    # (cot of a numerically represented half-diameter is ~1e-16, not 0), on
    # the scale 1/L of H, L = min(D, 1/sqrt(kappa)) the needle's length scale.
    slack, kap = 1e-12, cd.kappa
    L = min(D, 1.0 / math.sqrt(kap)) if kap > 0.0 else D
    reports = []
    if H0 is not None:
        if not H <= H0 + slack * max(1.0 / L, abs(H0)):
            raise ParameterError(
                f"H0={H0} does not dominate the needle's mean curvature H={H}")
        reports.append(report("corollary-constant-H",
                              weight * jacobian_integral(JacobianParams(H0, cd), -D, D)))
    if cd.K >= 0.0 and H <= slack / L:
        reports.append(report("corollary-diameter", weight * D))
    if cd.K > 0.0:
        reports.append(report("corollary-positive-K",
                              weight * model_rhs_constant_H(JacobianParams(H, cd))))
        if abs(cd.N - round(cd.N)) < 1e-12:
            n = int(round(cd.N))
            # Where kappa^{-n/2} would overflow, scale kappa_eff by kappa
            # instead, as model_rhs_constant_H does.
            if -0.5 * cd.N * math.log(kap) < 700.0:
                ratio, scale = unit_sphere_volume(n) * kap ** (-0.5 * n), 1.0
            else:
                ratio, scale = unit_sphere_volume(n) / math.sqrt(kap), kap
            ratio /= unit_sphere_volume(n - 1)
            # model_rhs_constant_H raised above if this power overflows
            power = (kappa_eff(JacobianParams(H, cd)) / scale) ** (0.5 * (cd.N - 1.0))
            rhs = weight * ratio * power
            if rhs < sys.float_info.min:
                # weight * ratio underflows for a tiny sphere; regroup only
                # then, since regrouping moves the last digit of other bounds
                rhs = weight * (ratio * power)
            reports.append(report("corollary-positive-K-spheres", rhs))
    if not reports:
        raise ParameterError(
            "no corollary bound applies: provide a dominating H0, or satisfy "
            "K >= 0 with H <= 0, or K > 0")
    return tuple(reports)


def levy_gromov_check(dec: NeedleDecomposition,
                      tolerance: Optional[float] = None) -> HKReport:
    """Isoperimetric comparison for the inner region: the model profile at the
    inner volume fraction (lhs) against the normalized boundary content (rhs).

    On these model surfaces the Minkowski content equals the surface measure
    total, which is used exactly here; the tube-width extrapolation estimate
    is validated against it separately.  A model profile that overflows a
    float (where K/(N-1) does) is a ParameterError, and content below the
    profile beyond slack is an InequalityViolation.
    """
    if dec.cd.K <= 0.0:
        raise ParameterError(f"isoperimetric comparison requires K > 0, got K={dec.cd.K}")
    tol = equality_tolerance(tolerance)
    content = dec.surface_total / dec.total_mass
    # The profile is symmetric: take the smaller side's fraction, both sides
    # integrated, since a fraction near 1 loses its digits in 1 - v.
    smaller = min(inner_mass(dec), tube_volume(dec, dec.diameter, "outer"))
    fraction = smaller / dec.total_mass
    profile_value = model_profile(dec.cd, min(max(fraction, 0.0), 1.0))
    gap = content - profile_value
    scale = max(abs(content), abs(profile_value), _TINY)
    if gap < -INEQ_SLACK * scale:
        raise InequalityViolation(
            f"levy-gromov: content {content!r} fell below the model profile "
            f"{profile_value!r} beyond slack")
    return HKReport("levy-gromov", profile_value, content, gap, gap / max(content, _TINY),
                    abs(gap) < tol * scale)


def _profile_deviation(dec: NeedleDecomposition) -> float:
    """max |h(r)/h(0) - J_H(r)| / max(J_H(r), 1e-12) over PROFILE_MATCH_POINTS
    interior points of the needle.  A J that overflows a float there is a
    ParameterError."""
    params, p = JacobianParams(dec.H, dec.cd), dec.needle.profile
    # jacobian is read from the module once per call, so a rebinding of
    # hk.jacobian (a counting wrapper) still sees every evaluation
    fn, a, width, jac = p.fn, p.a, p.b - p.a, jacobian
    h0, worst, n1 = fn(0.0), 0.0, PROFILE_MATCH_POINTS + 1.0
    try:
        for k in range(1, PROFILE_MATCH_POINTS + 1):
            r = a + width * k / n1
            bound = jac(params, r)
            # max(bound, 1e-12) and max(worst, deviation), NaN included
            deviation = abs(fn(r) / h0 - bound) / (1e-12 if 1e-12 > bound else bound)
            if deviation > worst:
                worst = deviation
    except OverflowError:
        raise ParameterError(J_OVERFLOWS) from None
    return worst


def equality_detect(dec: NeedleDecomposition,
                    tolerance: Optional[float] = None) -> HKReport:
    """Detect the sharp equality configuration (K > 0): the two-sided bound is
    an equality ("gap"), the needle density equals h(0) J_{H} on its interval
    ("profile"), and the needle spans the full support of its distortion
    profile ("span").  The report carries hk-full's gap, equality when all
    three hold, and the names of those that fail."""
    if dec.cd.K <= 0.0:
        raise ParameterError(f"rigidity detection requires K > 0, got K={dec.cd.K}")
    tol = equality_tolerance(tolerance)
    full = hk_full(dec, tolerance=tol)
    profile = _profile_deviation(dec) <= tol
    span_tol = tol * max(1.0, dec.diameter)
    lo, hi = jacobian_support(JacobianParams(dec.H, dec.cd))
    p = dec.needle.profile
    span = abs(p.a - lo) <= span_tol and abs(p.b - hi) <= span_tol

    failed = tuple(name for name, holds in (("gap", full.equality), ("profile", profile),
                                            ("span", span)) if not holds)
    return HKReport("rigidity", None, None, full.gap, full.relative_gap, not failed,
                    failed=failed)
