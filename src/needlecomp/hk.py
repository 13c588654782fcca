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
from typing import NamedTuple, Optional

from .errors import CurvatureError, InequalityViolation, ParameterError
from .geometry import NeedleDecomposition, inner_mass, tube_volume
from .model1d import (J_OVERFLOWS, JacobianParams, jacobian_integral, jacobian_support,
                      kappa_eff, model_profile, model_rhs_constant_H,
                      unit_sphere_volume)
from .numerics import INEQ_SLACK

DEFAULT_EQUALITY_TOL = 1e-8
TOLERANCE_ENV_VAR = "NEEDLECOMP_TOL"

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


class PerNeedle(NamedTuple):
    index: int
    H: float
    rhs_contribution: float
    profile_match: bool


class HKReport(NamedTuple):
    statement: str
    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    equality: bool
    per_needle: tuple[PerNeedle, ...]
    t: Optional[float] = None


class LevyGromovReport(NamedTuple):
    content: float
    profile_value: float
    passed: bool
    equality: bool
    gap: float


class RigidityReport(NamedTuple):
    rigid: bool
    per_needle_match: tuple[bool, ...]
    gap: float
    relative_gap: float
    failed_conditions: tuple[str, ...]


def _guard_inequality(statement: str, lhs: float, rhs: float) -> None:
    if lhs > rhs + INEQ_SLACK * abs(rhs):
        raise InequalityViolation(
            f"{statement}: lhs {lhs!r} exceeds rhs {rhs!r} beyond slack; "
            "this indicates a software defect")


def _build_report(statement: str, lhs: float, per_needle: tuple[PerNeedle, ...],
                  tol: float, t: Optional[float] = None) -> HKReport:
    rhs = sum(entry.rhs_contribution for entry in per_needle)
    _guard_inequality(statement, lhs, rhs)
    gap = rhs - lhs
    relative_gap = gap / max(abs(rhs), _TINY)
    return HKReport(statement=statement, lhs=lhs, rhs=rhs, gap=gap,
                    relative_gap=relative_gap, equality=relative_gap < tol,
                    per_needle=per_needle, t=t)


def _jacobian_shares(dec: NeedleDecomposition, Hs: tuple[float, ...], lo: float,
                     hi: float, tol: float) -> tuple[PerNeedle, ...]:
    """Per needle, its surface weight times the integral of J_{Hs[i]} over [lo, hi]."""
    return tuple(
        PerNeedle(i, Hs[i], (needle.weight * needle.profile.fn(0.0)
                             * jacobian_integral(JacobianParams(Hs[i], dec.cd), lo, hi)),
                  dec.profile_deviation[i] <= tol)
        for i, needle in enumerate(dec.needles))


def _require_finite(values, what: str) -> None:
    if any(math.isinf(v) or math.isnan(v) for v in values):
        raise CurvatureError(f"{what} must be finite for this bound")


def hk_outer(dec: NeedleDecomposition, t: float,
             tolerance: Optional[float] = None) -> HKReport:
    """Outer tube bound at width t: mass of the outer t-tube on the left,
    the surface-weighted integral of J_{H_plus} over [0, t] on the right."""
    if not t > 0.0:
        raise ParameterError(f"tube width t must be positive, got {t}")
    _require_finite(dec.H_plus, "outer mean curvature")
    tol = equality_tolerance(tolerance)
    lhs = tube_volume(dec, t, "outer")
    return _build_report("hk-outer", lhs, _jacobian_shares(dec, dec.H_plus, 0.0, t, tol),
                         tol, t=t)


def hk_full(dec: NeedleDecomposition,
            tolerance: Optional[float] = None) -> HKReport:
    """Two-sided bound: total mass against the surface-weighted integral of
    J_H over [-D, D] with D the diameter and H = max(H_plus, -H_minus)."""
    _require_finite(dec.H_plus, "outer mean curvature")
    _require_finite(dec.H_minus, "inner mean curvature")
    tol = equality_tolerance(tolerance)
    D = dec.diameter
    return _build_report("hk-full", dec.total_mass,
                         _jacobian_shares(dec, dec.H, -D, D, tol), tol)


def closed_form_bounds(dec: NeedleDecomposition, H0: Optional[float] = None,
                       tolerance: Optional[float] = None) -> tuple[HKReport, ...]:
    """Evaluate every applicable closed-form corollary bound on the total mass.

    Branches: (a) a constant curvature bound H0 dominating every needle,
    (b) the diameter bound for H <= 0 and K >= 0, (c) for K > 0 the sharp
    bound through kappa_eff, plus its sphere-volume form for integer N.
    Raises when no branch applies, when H0 fails to dominate or when a bound
    overflows a float.
    """
    tol = equality_tolerance(tolerance)
    _require_finite(dec.H_plus, "outer mean curvature")
    _require_finite(dec.H_minus, "inner mean curvature")
    cd = dec.cd
    D = dec.diameter
    lhs = dec.total_mass
    weights = [n.weight * n.profile.fn(0.0) for n in dec.needles]

    def needles_report(statement: str, shares) -> HKReport:
        if math.isinf(sum(shares)):
            raise ParameterError(J_OVERFLOWS)
        per_needle = tuple(
            PerNeedle(i, dec.H[i], share, dec.profile_deviation[i] <= tol)
            for i, share in enumerate(shares))
        return _build_report(statement, lhs, per_needle, tol)

    # Sign and dominance preconditions tolerate float noise around equality
    # (cot of a numerically represented half-diameter is ~1e-16, not 0).
    slack = 1e-12
    reports = []
    if H0 is not None:
        if not all(h <= H0 + slack * max(1.0, abs(H0)) for h in dec.H):
            raise ParameterError(
                f"H0={H0} does not dominate the per-needle curvatures {dec.H}")
        const_integral = jacobian_integral(JacobianParams(H0, cd), -D, D)
        reports.append(needles_report("corollary-constant-H",
                                      [w * const_integral for w in weights]))
    if cd.K >= 0.0 and all(h <= slack for h in dec.H):
        reports.append(needles_report("corollary-diameter", [w * D for w in weights]))
    if cd.K > 0.0:
        reports.append(needles_report(
            "corollary-positive-K",
            [w * model_rhs_constant_H(JacobianParams(h, cd)) for w, h in zip(weights, dec.H)]))
        if abs(cd.N - round(cd.N)) < 1e-12:
            n = int(round(cd.N))
            kap = cd.K / (cd.N - 1.0)
            # Where kappa^{-n/2} would overflow, scale kappa_eff by kappa
            # instead, as model_rhs_constant_H does.
            if -0.5 * cd.N * math.log(kap) < 700.0:
                ratio, scale = unit_sphere_volume(n) * kap ** (-0.5 * n), 1.0
            else:
                ratio, scale = unit_sphere_volume(n) / math.sqrt(kap), kap
            ratio /= unit_sphere_volume(n - 1)
            # model_rhs_constant_H raised above if this power overflows
            reports.append(needles_report("corollary-positive-K-spheres", [
                w * ratio * (kappa_eff(JacobianParams(h, cd)) / scale) ** (0.5 * (cd.N - 1.0))
                for w, h in zip(weights, dec.H)]))
    if not reports:
        raise ParameterError(
            "no corollary bound applies: provide a dominating H0, or satisfy "
            "K >= 0 with H <= 0, or K > 0")
    return tuple(reports)


def levy_gromov_check(dec: NeedleDecomposition,
                      tolerance: Optional[float] = None) -> LevyGromovReport:
    """Isoperimetric comparison for the inner region: normalized boundary
    content against the model profile at the inner volume fraction.

    On these model surfaces the Minkowski content equals the surface measure
    total, which is used exactly here; the tube-width extrapolation estimate
    is validated against it separately.
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
    return LevyGromovReport(content=content, profile_value=profile_value,
                            passed=gap >= -INEQ_SLACK * scale,
                            equality=abs(gap) < tol * scale, gap=gap)


def equality_detect(dec: NeedleDecomposition,
                    tolerance: Optional[float] = None) -> RigidityReport:
    """Detect the sharp equality configuration (K > 0): the two-sided bound is
    an equality, every needle density equals h(0) J_{H} on its interval, and
    every needle spans the full support of its distortion profile."""
    if dec.cd.K <= 0.0:
        raise ParameterError(f"rigidity detection requires K > 0, got K={dec.cd.K}")
    tol = equality_tolerance(tolerance)
    full = hk_full(dec, tolerance=tol)
    span_tol = tol * max(1.0, dec.diameter)

    matches = tuple(entry.profile_match for entry in full.per_needle)
    spans = []
    for i, needle in enumerate(dec.needles):
        lo, hi = jacobian_support(JacobianParams(dec.H[i], dec.cd))
        spans.append(abs(needle.profile.a - lo) <= span_tol
                     and abs(needle.profile.b - hi) <= span_tol)

    failed = []
    if not full.equality:
        failed.append("gap")
    if not all(matches):
        failed.append("profile")
    if not all(spans):
        failed.append("span")
    return RigidityReport(rigid=not failed, per_needle_match=matches,
                          gap=full.gap, relative_gap=full.relative_gap,
                          failed_conditions=tuple(failed))
