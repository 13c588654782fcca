"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.

Every criterion states a true property of the model geometries and is
expected to pass.  Two of them check statements that are easy to get the
wrong way round, for reasons given inline:

* criterion 3: for flat balls the two-sided bound over [-D, D] is strict
  (the paper characterizes equality only for K > 0), while the outer bound is
  an equality up to the ray end;
* criterion 8: the distortion profile J is non-increasing in the curvature
  bound K and non-decreasing in the dimension bound N, since CD(K, N)
  implies CD(K', N') for K' <= K and N' >= N.
"""

import math
import time

import numpy as np
from scipy import integrate as sciint

from needlecomp import (CurvatureDimension, DensityProfile, EuclideanBall,
                        GeodesicSphere, JacobianParams, LevelPoint,
                        RoundSphere, SphericalSuspension, check_cd_density,
                        decompose, density_ratio_check, equality_detect,
                        equality_tolerance, hk_full, hk_outer, jacobian, levy_gromov_check,
                        minkowski_content_from_dec, model_interval,
                        model_profile, one_sided_log_derivative, sigma_kappa,
                        sturm_bound_check, unit_sphere_volume)
from needlecomp.hk import _profile_deviation, closed_form_bounds

SPHERE = RoundSphere(2, 1.0)
CAP_RADII = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3)
BALL_DIMS = (2, 3, 5)
BALL_RADII = (0.25, 0.5, 0.75)
INTERVAL_PARAMS = ((1.0, 2.0), (2.0, 3.0), (1.0, 4.5))


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {num}] {status} {label}{suffix}")
    return ok


def _mass_median(geom) -> float:
    """Mass median of an interval geometry, found by bisection on the
    cumulative density (independent of the decomposition code)."""
    density = geom.density
    total, _ = sciint.quad(density.fn, 0.0, geom.length, limit=200)
    lo, hi = 0.0, geom.length
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        mass, _ = sciint.quad(density.fn, 0.0, mid, limit=200)
        if mass < 0.5 * total:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interval_decompositions():
    decs = []
    for K, N in INTERVAL_PARAMS:
        geom = model_interval(CurvatureDimension(K, N))
        decs.append(((K, N), decompose(geom, LevelPoint(_mass_median(geom)))))
    return decs


def test_criterion_1_sphere_rigidity():
    start = time.perf_counter()
    dec = decompose(SPHERE, GeodesicSphere(math.pi / 2))
    report = hk_full(dec)
    verdict = equality_detect(dec)
    elapsed = time.perf_counter() - start
    ok = (abs(report.lhs - 4 * math.pi) < 1e-8 * 4 * math.pi
          and abs(report.rhs - 4 * math.pi) < 1e-8 * 4 * math.pi
          and abs(report.relative_gap) < 1e-8
          and verdict.equality
          and elapsed < 1.0)
    assert _verdict(1, "sphere rigidity at the equator", ok,
                    f"lhs={report.lhs:.12g} rhs={report.rhs:.12g} "
                    f"rigid={verdict.equality} elapsed={elapsed:.3f}s")


def test_criterion_2_cap_family():
    start = time.perf_counter()
    worst_gap = 0.0
    worst_iso = 0.0
    for r0 in CAP_RADII:
        dec = decompose(SPHERE, GeodesicSphere(r0))
        worst_gap = max(worst_gap, abs(hk_full(dec).relative_gap))
        iso = levy_gromov_check(dec)
        scale = max(iso.rhs, iso.lhs)
        worst_iso = max(worst_iso, abs(iso.gap) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-8 and worst_iso < 1e-8 and elapsed < 2.0
    assert _verdict(2, "spherical cap family", ok,
                    f"worst relative gap={worst_gap:.3e} "
                    f"worst isoperimetric mismatch={worst_iso:.3e} "
                    f"elapsed={elapsed:.3f}s")


def test_criterion_3_euclidean_concentric_balls():
    # The needle runs from the center (r = -r0) to the boundary (r = R - r0)
    # with density h(0) J exactly (the shell identity), J = (1 + r/r0)^{n-1}.
    # With K = 0, J stays positive past the ray end, so integrating it over
    # [-D, D] with D = 2R gives the two-sided right side
    # omega_{n-1} (r0 + D)^n / n, strictly larger than the ball volume: a flat
    # ball is no equality case.  The outer bound at width R - r0 integrates J
    # only up to the ray end and is exactly the annulus volume
    # omega_{n-1} (R^n - r0^n) / n on both sides.
    R = 1.0
    failures = []

    def off(value: float, expected: float) -> bool:
        return abs(value - expected) > 1e-8 * expected

    for n in BALL_DIMS:
        omega = unit_sphere_volume(n - 1)
        for r0 in BALL_RADII:
            dec = decompose(EuclideanBall(n, R), GeodesicSphere(r0))
            full = hk_full(dec)
            outer = hk_outer(dec, R - r0)
            volume = omega * R ** n / n
            full_rhs = omega * (r0 + 2.0 * R) ** n / n
            annulus = omega * (R ** n - r0 ** n) / n
            where = f"n={n} r0={r0}"
            if off(full.lhs, volume):
                failures.append(f"{where}: lhs={full.lhs:.6g} expected={volume:.6g}")
            if off(full.rhs, full_rhs):
                failures.append(f"{where}: rhs={full.rhs:.6g} expected={full_rhs:.6g}")
            if full.equality:
                failures.append(f"{where}: two-sided bound reported as an equality")
            if not _profile_deviation(dec) <= equality_tolerance():
                failures.append(f"{where}: needle density is not h(0) J")
            if off(outer.lhs, annulus) or off(outer.rhs, annulus):
                failures.append(f"{where}: outer lhs={outer.lhs:.6g} "
                                f"rhs={outer.rhs:.6g} expected={annulus:.6g}")
            if not outer.equality:
                failures.append(f"{where}: outer bound at the ray end not an equality")
    ok = not failures
    assert _verdict(3, "flat concentric balls, strict two-sided bound and "
                    "tight outer bound", ok,
                    failures[0] + f" (+{len(failures) - 1} more)" if failures else "")


def test_criterion_4_model_intervals_at_median():
    worst_gap = 0.0
    worst_consistency = 0.0
    for _, dec in _interval_decompositions():
        full = hk_full(dec)
        worst_gap = max(worst_gap, abs(full.relative_gap))
        sharp = next(r for r in closed_form_bounds(dec)
                     if r.statement == "corollary-positive-K")
        worst_consistency = max(worst_consistency,
                                abs(sharp.rhs - full.rhs) / full.rhs)
    ok = worst_gap < 1e-8 and worst_consistency < 1e-9
    assert _verdict(4, "model intervals at the mass median", ok,
                    f"worst relative gap={worst_gap:.3e} "
                    f"sharp-bound mismatch={worst_consistency:.3e}")


def test_criterion_5_truncated_interval_strictness():
    delta = 0.1
    geom = model_interval(CurvatureDimension(1.0, 2.0), length=math.pi - delta)
    dec = decompose(geom, LevelPoint(math.pi / 2))
    report = hk_full(dec)
    verdict = equality_detect(dec)
    lhs_expected = 1.0 + math.cos(delta)
    ok = (report.gap > 0.004
          and abs(report.lhs - lhs_expected) < 1e-9
          and abs(report.rhs - 2.0) < 1e-9
          and not verdict.equality)
    assert _verdict(5, "truncated interval is strict and non-rigid", ok,
                    f"gap={report.gap:.6g} rigid={verdict.equality} "
                    f"failed={verdict.failed}")


def _random_configuration(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        n = int(rng.integers(2, 6))
        radius = rng.uniform(0.5, 2.0)
        geom = RoundSphere(n, radius)
        length = math.pi * radius
        surf = GeodesicSphere(length * rng.uniform(0.05, 0.95))
    elif kind == 1:
        n = int(rng.integers(2, 6))
        R = rng.uniform(0.5, 2.0)
        geom = EuclideanBall(n, R)
        surf = GeodesicSphere(R * rng.uniform(0.05, 0.95))
    elif kind == 2:
        K = rng.uniform(0.3, 3.0)
        N = rng.uniform(1.5, 6.0)
        kap = K / (N - 1.0)
        full = math.pi / math.sqrt(kap)
        length = full * rng.uniform(0.6, 1.0)
        geom = model_interval(CurvatureDimension(K, N), length=length)
        surf = LevelPoint(length * rng.uniform(0.05, 0.95))
    else:
        K = rng.uniform(0.5, 3.0)
        N = rng.uniform(2.0, 6.0)
        geom = SphericalSuspension(CurvatureDimension(K, N), rng.uniform(0.5, 10.0))
        full = math.pi / math.sqrt(K / (N - 1.0))
        surf = GeodesicSphere(full * rng.uniform(0.05, 0.95))
    return geom, surf


def test_criterion_6_randomized_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = math.inf
    for _ in range(200):
        geom, surf = _random_configuration(rng)
        dec = decompose(geom, surf)
        t = dec.diameter * rng.uniform(0.02, 1.0)
        outer = hk_outer(dec, t)  # raises InequalityViolation beyond slack
        full = hk_full(dec)
        worst = min(worst, outer.gap / max(outer.rhs, 1e-300),
                    full.gap / max(full.rhs, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 30.0
    assert _verdict(6, "randomized inequality suite (200 configurations)", ok,
                    f"most negative relative gap={worst:.3e} elapsed={elapsed:.2f}s")


def test_criterion_7_oracle_suite():
    failures = []

    decs = [decompose(SPHERE, GeodesicSphere(r0)) for r0 in CAP_RADII]
    decs += [decompose(EuclideanBall(n, 1.0), GeodesicSphere(r0))
             for n in BALL_DIMS for r0 in BALL_RADII]
    decs += [dec for _, dec in _interval_decompositions()]
    decs.append(decompose(SphericalSuspension(CurvatureDimension(1.0, 3.0), 2.5),
                          GeodesicSphere(0.7)))

    for dec in decs:
        if not check_cd_density(dec.needle.profile, dec.cd, grid_size=10).passed:
            failures.append("cd-density failed on a produced needle")
        u = dec.needle.profile.power(1.0 / (dec.cd.N - 1.0))
        kap = dec.cd.K / (dec.cd.N - 1.0)
        for j in range(10):
            r0 = u.a + (u.b - u.a) * (j + 1.0) / 11.0
            if not sturm_bound_check(u, kap, r0, grid_size=24).passed:
                failures.append(f"sturm bound failed at base {r0:.3f}")

    constant = DensityProfile(0.0, math.pi / 2, lambda r: 1.0)
    if check_cd_density(constant, CurvatureDimension(1.0, 2.0), grid_size=12).passed:
        failures.append("constant density wrongly passed under K=1")

    ratio_decs = [decompose(SPHERE, GeodesicSphere(r0)) for r0 in CAP_RADII]
    ratio_decs += [decompose(EuclideanBall(n, 1.0), GeodesicSphere(0.5))
                   for n in BALL_DIMS]
    for dec in ratio_decs:
        report = density_ratio_check(dec.needle, dec.cd, grid_size=60)
        if not report.passed or abs(report.max_excess) >= 1e-8:
            failures.append(f"ratio bound not tight: excess={report.max_excess:.3e}")

    ok = not failures
    assert _verdict(7, "needle oracle suite", ok,
                    failures[0] if failures else "")


def test_criterion_8_function_level():
    failures = []

    # Monotonicity of J on r >= 0: non-decreasing in H, non-increasing in K
    # and non-decreasing in N, since CD(K, N) implies CD(K', N') for K' <= K
    # and N' >= N.  A larger curvature bound tightens the profile
    # (J_{0,1,2}(1) = cos 1 < 1 = J_{0,0,2}(1)) and a larger dimension bound
    # loosens it (J_{1,0,3}(1) = 2.25 > 2 = J_{1,0,2}(1), increasing toward
    # e^{Hr}), so the opposite directions fail.
    rng = np.random.default_rng(7)
    bad_h = bad_k = bad_n = 0
    for _ in range(1000):
        H = rng.uniform(-4.0, 4.0)
        K = rng.uniform(-4.0, 4.0)
        N = rng.uniform(2.0, 8.0)
        r = rng.uniform(0.0, 1.2)
        bump = rng.uniform(0.01, 2.0)
        base = jacobian(JacobianParams(H, CurvatureDimension(K, N)), r)
        slack = 1e-11 * max(1.0, base)
        if jacobian(JacobianParams(H + bump, CurvatureDimension(K, N)), r) < base - slack:
            bad_h += 1
        if jacobian(JacobianParams(H, CurvatureDimension(K + bump, N)), r) > base + slack:
            bad_k += 1
        if jacobian(JacobianParams(H, CurvatureDimension(K, N + bump)), r) < base - slack:
            bad_n += 1
    if bad_h:
        failures.append(f"J not non-decreasing in H on {bad_h}/1000 tuples")
    if bad_k:
        failures.append(f"J not non-increasing in K on {bad_k}/1000 tuples")
    if bad_n:
        failures.append(f"J not non-decreasing in N on {bad_n}/1000 tuples")

    for t in np.linspace(0.0, 1.0, 21):
        if sigma_kappa(0.5, float(t), 0.0) != float(t):
            failures.append("sigma(t, 0) != t exactly")
            break

    profile_mid = model_profile(CurvatureDimension(1.0, 2.0), 0.5)
    if abs(profile_mid - 0.5) > 1e-10:
        failures.append(f"profile(1,2)(1/2) = {profile_mid!r}")

    for K, N in INTERVAL_PARAMS:
        cd = CurvatureDimension(K, N)
        values = [model_profile(cd, float(v)) for v in np.linspace(0.02, 0.98, 33)]
        if np.diff(values, 2).max() > 1e-9:
            failures.append(f"profile not concave for (K,N)=({K},{N})")

    rng = np.random.default_rng(11)
    for _ in range(100):
        H = rng.uniform(-3.0, 3.0)
        K = rng.uniform(-3.0, 3.0)
        N = rng.uniform(1.5, 8.0)
        params = JacobianParams(H, CurvatureDimension(K, N))
        window = 0.2
        profile = DensityProfile(-window, window, lambda r: jacobian(params, r))
        slope = one_sided_log_derivative(profile, 0.0, "plus")
        if abs(slope - H) > 1e-6:
            failures.append(f"d+ log J(0) = {slope!r} != H = {H!r}")
            break

    ok = not failures
    assert _verdict(8, "function-level properties", ok, "; ".join(failures))


def test_criterion_9_surface_measure_consistency():
    decs = [decompose(SPHERE, GeodesicSphere(r0)) for r0 in CAP_RADII]
    decs += [decompose(EuclideanBall(n, 1.0), GeodesicSphere(r0))
             for n in BALL_DIMS for r0 in BALL_RADII]
    decs += [dec for _, dec in _interval_decompositions()]
    worst = 0.0
    for dec in decs:
        content = minkowski_content_from_dec(dec)
        worst = max(worst, abs(content - dec.surface_total) / dec.surface_total)
    ok = worst < 1e-6
    assert _verdict(9, "tube extrapolation matches surface measure", ok,
                    f"worst relative deviation={worst:.3e}")
