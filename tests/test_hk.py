import math
import re
from unittest import mock

import pytest

from needlecomp import (CurvatureDimension, DEFAULT_EQUALITY_TOL, DensityProfile,
                        EuclideanBall, GeodesicSphere, InequalityViolation,
                        JacobianParams, LevelPoint, ParameterError, RoundSphere,
                        SphericalSuspension, WeightedInterval, closed_form_bounds, decompose,
                        equality_detect, equality_tolerance, hk_full, hk_outer,
                        jacobian, levy_gromov_check, model_interval)
from needlecomp import hk

SPHERE = RoundSphere(2, 1.0)
BALL = EuclideanBall(3, 1.0)
EQUATOR = GeodesicSphere(math.pi / 2)


def interval_dec(K=1.0, N=2.0, r0=None, length=None):
    cd = CurvatureDimension(K, N)
    kap = K / (N - 1.0)
    if r0 is None:
        r0 = math.pi / math.sqrt(kap) / 2.0
    return decompose(model_interval(cd, length=length), LevelPoint(r0))


# ---------------------------------------------------------------- hk_outer

def test_hk_outer_sphere_band_is_tight():
    dec = decompose(SPHERE, EQUATOR)
    report = hk_outer(dec, math.pi / 4)
    assert report.lhs == pytest.approx(2 * math.pi * math.sin(math.pi / 4), rel=1e-10)
    assert report.rhs == pytest.approx(report.lhs, rel=1e-10)
    assert report.equality
    assert report.statement == "hk-outer" and report.t == math.pi / 4


def test_hk_outer_ball_shell_is_tight():
    dec = decompose(BALL, GeodesicSphere(0.5))
    report = hk_outer(dec, 0.25)
    expected = 4 * math.pi / 3 * (0.75 ** 3 - 0.5 ** 3)
    assert report.lhs == pytest.approx(expected, rel=1e-10)
    assert report.rhs == pytest.approx(expected, rel=1e-10)
    assert report.equality


def test_hk_outer_small_width_recovers_surface_measure():
    dec = decompose(SPHERE, GeodesicSphere(1.0))
    t = 1e-6
    report = hk_outer(dec, t)
    assert report.lhs / t == pytest.approx(dec.surface_total, rel=1e-5)
    assert report.rhs / t == pytest.approx(dec.surface_total, rel=1e-5)


def test_hk_outer_rejects_bad_width():
    dec = decompose(SPHERE, EQUATOR)
    with pytest.raises(ParameterError):
        hk_outer(dec, 0.0)


# ----------------------------------------------------------------- hk_full

def test_hk_full_sphere_equator_equality():
    dec = decompose(SPHERE, EQUATOR)
    report = hk_full(dec)
    assert report.lhs == pytest.approx(4 * math.pi, rel=1e-12)
    assert report.rhs == pytest.approx(4 * math.pi, rel=1e-10)
    assert report.equality
    assert "profile" not in equality_detect(dec).failed


def test_hk_full_cap_family_equality():
    for r0 in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        report = hk_full(decompose(SPHERE, GeodesicSphere(r0)))
        assert abs(report.relative_gap) < 1e-10, r0


def test_hk_full_flat_ball_has_strict_gap():
    # J stays positive past the needle end for flat balls: the two-sided
    # bound over [-D, D] is strict there.
    dec = decompose(BALL, GeodesicSphere(0.5))
    report = hk_full(dec)
    assert report.lhs == pytest.approx(4 * math.pi / 3, rel=1e-10)
    assert report.gap > 1.0
    assert not report.equality
    assert hk._profile_deviation(dec) <= DEFAULT_EQUALITY_TOL


def test_hk_full_truncated_interval_gap():
    delta = 0.1
    dec = interval_dec(length=math.pi - delta)
    report = hk_full(dec)
    assert report.lhs == pytest.approx(1.0 + math.cos(delta), rel=1e-10)
    assert report.rhs == pytest.approx(2.0, rel=1e-10)
    assert report.gap == pytest.approx(1.0 - math.cos(delta), rel=1e-8)
    assert not report.equality


def test_hk_full_rhs_monotone_in_mean_curvature():
    dec = decompose(BALL, GeodesicSphere(0.5))
    bumped = dec._replace(H=dec.H + 1.0, H_plus=dec.H_plus + 1.0)
    assert hk_full(bumped).rhs >= hk_full(dec).rhs


def test_hk_outer_rhs_monotone_in_outer_curvature():
    # the one-sided right side integrates J over r >= 0 only, where J is
    # pointwise non-decreasing in H; the two-sided integral is even in H for
    # full-support needles, so no such monotonicity holds there in general
    dec = decompose(SPHERE, GeodesicSphere(2 * math.pi / 3))
    rhs_values = []
    for bump in (0.0, 0.5, 1.0, 2.0):
        shifted = dec._replace(H_plus=dec.H_plus + bump)
        rhs_values.append(hk_outer(shifted, 0.8).rhs)
    assert all(b >= a - 1e-12 for a, b in zip(rhs_values, rhs_values[1:]))


def test_violation_guard_raises():
    # an understated mean curvature shrinks the tight outer bound below the
    # true tube mass, which the guard must flag as a defect
    dec = decompose(BALL, GeodesicSphere(0.5))
    broken = dec._replace(H_plus=0.0)
    with pytest.raises(InequalityViolation):
        hk_outer(broken, 0.25)


def test_infinite_curvature_is_rejected():
    from needlecomp import CurvatureError

    # the decomposition's constructor refuses it, so no bound sees it
    dec = decompose(BALL, GeodesicSphere(0.5))
    for field, value in (("H_plus", math.inf), ("H_minus", -math.inf), ("H_minus", math.nan)):
        with pytest.raises(CurvatureError,
                           match="^needle has infinite one-sided curvature at its base$"):
            dec._replace(**{field: value})


# -------------------------------------------------------------- corollaries

def test_corollary_positive_curvature_sphere():
    dec = decompose(SPHERE, EQUATOR)
    reports = {r.statement: r for r in closed_form_bounds(dec)}
    sharp = reports["corollary-positive-K"]
    assert sharp.rhs == pytest.approx(4 * math.pi, rel=1e-10)
    assert sharp.equality
    spheres = reports["corollary-positive-K-spheres"]
    assert spheres.rhs == pytest.approx(sharp.rhs, rel=1e-12)


# kappa^{-N/2} overflows a float here while the weighted bounds do not
FAR_SUSPENSION = SphericalSuspension(CurvatureDimension(1.02e-4, 103.0), 1e-300)


def test_corollary_spheres_past_the_power_overflow_matches_positive_K():
    dec = decompose(FAR_SUSPENSION, GeodesicSphere(1000.0))
    reports = {r.statement: r for r in closed_form_bounds(dec)}
    sharp = reports["corollary-positive-K"]
    spheres = reports["corollary-positive-K-spheres"]
    assert sharp.rhs == 247585620.7011551
    # |S^103|/|S^102| and B(103/2, 1/2) differ in the last place
    assert abs(spheres.rhs - sharp.rhs) <= 4 * math.ulp(sharp.rhs)
    assert sharp.equality and spheres.equality


def test_corollary_spheres_of_a_tiny_sphere_do_not_underflow():
    # weight * ratio underflows to 0 at radius 1e-150, so the left-to-right
    # product gave rhs 0.0 and a false InequalityViolation
    dec = decompose(RoundSphere(2, 1e-150), GeodesicSphere(1e-150))
    reports = {r.statement: r for r in closed_form_bounds(dec)}
    spheres = reports["corollary-positive-K-spheres"]
    assert spheres.rhs == 1.2566370614359172e-299
    assert spheres.rhs == reports["corollary-positive-K"].rhs
    assert spheres.equality
    # a bound that does not underflow keeps the left-to-right product, whose
    # last digit the other grouping moves (to 19.73920880217872 here)
    dec = decompose(RoundSphere(3, 1.0), GeodesicSphere(0.25 * math.pi))
    reports = {r.statement: r for r in closed_form_bounds(dec)}
    assert reports["corollary-positive-K-spheres"].rhs == 19.739208802178716


@pytest.mark.parametrize("N", (103.0, 103.2))
def test_corollary_overflow_is_a_parameter_error(N):
    # the mass fits a float; the surface weight times the bound does not
    dec = decompose(model_interval(CurvatureDimension(1.02e-4, N), length=1400.0),
                    LevelPoint(1000.0))
    assert math.isfinite(dec.total_mass)
    with pytest.raises(ParameterError, match="overflows a float"):
        closed_form_bounds(dec)


def test_corollary_spheres_overflow_is_a_parameter_error(monkeypatch):
    dec = decompose(model_interval(FAR_SUSPENSION.cd, length=1400.0), LevelPoint(1000.0))
    weight = dec.needle.weight * dec.needle.profile.fn(0.0)
    # a finite sharp bound, so that only the sphere-volume form overflows
    monkeypatch.setattr(hk, "model_rhs_constant_H", lambda p: dec.total_mass / weight)
    with pytest.raises(ParameterError, match="overflows a float"):
        closed_form_bounds(dec)


def test_corollary_constant_H_interval():
    dec = interval_dec()
    reports = {r.statement: r for r in closed_form_bounds(dec, H0=0.0)}
    const = reports["corollary-constant-H"]
    assert const.rhs == pytest.approx(2.0, rel=1e-10)
    assert const.equality
    diam = reports["corollary-diameter"]
    assert diam.rhs == pytest.approx(math.pi, rel=1e-12)
    assert not diam.equality


def test_corollary_sharp_matches_full_rhs_on_model_needles():
    for K, N in [(1.0, 2.0), (2.0, 3.0), (1.0, 4.5)]:
        dec = interval_dec(K, N)
        full = hk_full(dec)
        sharp = next(r for r in closed_form_bounds(dec)
                     if r.statement == "corollary-positive-K")
        assert sharp.rhs == pytest.approx(full.rhs, rel=1e-9)


def test_corollary_preconditions():
    ball_dec = decompose(BALL, GeodesicSphere(0.5))
    with pytest.raises(ParameterError):
        closed_form_bounds(ball_dec)  # K=0 and H=4>0: no branch applies
    with pytest.raises(ParameterError):
        closed_form_bounds(decompose(SPHERE, EQUATOR), H0=-1.0)  # H0 below H
    # K=0 with H0 given: only the constant-H branch applies
    reports = closed_form_bounds(ball_dec, H0=5.0)
    assert [r.statement for r in reports] == ["corollary-constant-H"]


def test_corollary_constant_H_names_the_undominated_curvature():
    dec = interval_dec(r0=math.pi / 4)  # H = cot(pi/4)
    assert isinstance(dec.H, float)
    message = f"H0=0.5 does not dominate the needle's mean curvature H={dec.H}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        closed_form_bounds(dec, H0=0.5)


def test_corollary_diameter_branch_on_negative_curvature_surface():
    dec = interval_dec(r0=0.6 * math.pi)  # H = cot(0.6 pi) < 0
    reports = {r.statement: r for r in closed_form_bounds(dec)}
    assert "corollary-diameter" in reports
    diam = reports["corollary-diameter"]
    assert diam.rhs == pytest.approx(math.pi * math.sin(0.6 * math.pi), rel=1e-10)
    assert diam.lhs <= diam.rhs


# ----------------------------------------------------------- profile match

def reference_profile_match(needle, params, tol, grid_size=200):
    """The per-call 200-point comparison of h(r)/h(0) with J_H(r) that the
    cached per-decomposition deviation replaces."""
    p = needle.profile
    h0 = p.fn(0.0)
    for i in range(grid_size):
        r = p.a + (p.b - p.a) * (i + 1.0) / (grid_size + 1.0)
        ratio = p.fn(r) / h0
        bound = jacobian(params, r)
        if abs(ratio - bound) > tol * max(bound, 1e-12):
            return False
    return True


def profile_match_cases():
    return [decompose(SPHERE, GeodesicSphere(math.pi / 4)),
            decompose(BALL, GeodesicSphere(0.5)),
            interval_dec(length=math.pi - 0.1)]


def test_profile_match_flags_equal_reference():
    for dec in profile_match_cases():
        deviation = hk._profile_deviation(dec)
        assert deviation > 0.0
        for tol in (DEFAULT_EQUALITY_TOL, 0.5 * deviation, 2.0 * deviation):
            expected = reference_profile_match(dec.needle, JacobianParams(dec.H, dec.cd), tol)
            assert expected == (tol > deviation)
            if dec.cd.K > 0.0:
                verdict = equality_detect(dec, tolerance=tol)
                assert ("profile" not in verdict.failed) == expected, tol


def test_hk_bounds_leave_the_profile_match_uncomputed():
    # only the rigidity statement reads the profile match
    with mock.patch.object(hk, "_profile_deviation") as deviation:
        for dec in profile_match_cases():
            hk_outer(dec, 0.5 * dec.needle.profile.b)
            hk_full(dec)
            closed_form_bounds(dec, H0=dec.H + 1.0)
    deviation.assert_not_called()


def test_profile_deviation_of_a_wrong_H():
    dec = decompose(SPHERE, GeodesicSphere(1.0))
    assert "profile" not in equality_detect(dec).failed
    # a wrong H makes J vanish before the needle ends: near r = -1 for a
    # larger H, near its far end for a smaller one
    for bump in (0.5, -0.5):
        shifted = dec._replace(H=dec.H + bump)
        deviation = hk._profile_deviation(shifted)
        assert deviation > 0.1
        for tol in (DEFAULT_EQUALITY_TOL, 0.5 * deviation, 2.0 * deviation):
            expected = reference_profile_match(
                shifted.needle, JacobianParams(shifted.H, dec.cd), tol)
            assert expected == (tol > deviation)


# -------------------------------------------------------------- levy-gromov

def test_levy_gromov_equator():
    report = levy_gromov_check(decompose(SPHERE, EQUATOR))
    assert report.rhs == pytest.approx(0.5, rel=1e-10)
    assert report.lhs == pytest.approx(0.5, rel=1e-8)
    assert report.equality


def test_levy_gromov_cap():
    report = levy_gromov_check(decompose(SPHERE, GeodesicSphere(math.pi / 4)))
    expected = math.sin(math.pi / 4) / 2.0
    assert report.rhs == pytest.approx(expected, rel=1e-10)
    assert report.lhs == pytest.approx(expected, abs=1e-8)
    assert report.equality


def test_levy_gromov_interval_half():
    report = levy_gromov_check(interval_dec())
    assert report.rhs == pytest.approx(0.5, rel=1e-10)
    assert report.lhs == pytest.approx(0.5, abs=1e-9)
    assert report.equality


def test_levy_gromov_large_sphere_terminates(run_isolated):
    out = run_isolated(
        "from needlecomp import GeodesicSphere, RoundSphere, decompose, levy_gromov_check\n"
        "report = levy_gromov_check(decompose(RoundSphere(3, 1e4), GeodesicSphere(1e4)))\n"
        "print(report.equality)")
    assert out.split() == ["True"]


@pytest.mark.parametrize("at_surface", (1.0, math.inf))
def test_levy_gromov_infinite_model_profile_is_a_parameter_error(at_surface):
    # K/(N-1) overflows, so the model profile is inf: against a finite content
    # the gap was -inf and passed the slack test, and against an infinite one
    # (the density is inf at the surface) it was NaN.  CurvatureDimension now
    # refuses such a K, so no decomposition reaches the profile.
    profile = DensityProfile(0.0, 1.0, lambda r: at_surface if r == 0.3 else 1.0,
                             deriv=lambda r: 0.0)
    with pytest.raises(ParameterError, match=r"^K/\(N-1\) overflows a float") as err:
        levy_gromov_check(decompose(
            WeightedInterval(1.0, profile, CurvatureDimension(1e308, 1.0000001)),
            LevelPoint(0.3)))
    assert err.value.key == "K"


def test_levy_gromov_refuses_a_dimension_the_model_profile_cannot_resolve():
    profile = DensityProfile(0.0, 1.0, lambda r: 1.0, deriv=lambda r: 0.0)
    dec = decompose(WeightedInterval(1.0, profile, CurvatureDimension(1.0, 1e16)),
                    LevelPoint(0.5))
    with pytest.raises(ParameterError, match="^the model profile is resolved only") as err:
        levy_gromov_check(dec)
    assert err.value.key == "N"


def test_levy_gromov_requires_positive_curvature():
    with pytest.raises(ParameterError):
        levy_gromov_check(decompose(BALL, GeodesicSphere(0.5)))


# ----------------------------------------------------------------- rigidity

def test_rigidity_on_spheres_any_radius():
    for r0 in (math.pi / 6, math.pi / 2, 2 * math.pi / 3, 2.9):
        verdict = equality_detect(decompose(SPHERE, GeodesicSphere(r0)))
        assert verdict.equality, (r0, verdict.failed)


def test_rigidity_on_suspension():
    susp = SphericalSuspension(CurvatureDimension(1.0, 3.0), 2.5)
    verdict = equality_detect(decompose(susp, GeodesicSphere(0.7)))
    assert verdict.equality


def test_rigidity_fails_on_truncated_interval():
    dec = interval_dec(length=math.pi - 0.1)
    verdict = equality_detect(dec)
    assert not verdict.equality
    assert "gap" in verdict.failed
    assert "span" in verdict.failed
    assert verdict.gap > 0.004


def test_rigidity_requires_positive_curvature():
    with pytest.raises(ParameterError):
        equality_detect(decompose(BALL, GeodesicSphere(0.5)))


def test_rigidity_iff_full_equality_on_positive_curvature_family():
    cases = [decompose(SPHERE, GeodesicSphere(r0)) for r0 in (0.5, math.pi / 2, 2.5)]
    cases.append(interval_dec())
    cases.append(interval_dec(2.0, 3.0))
    cases.append(interval_dec(length=math.pi - 0.1))
    cases.append(decompose(SphericalSuspension(CurvatureDimension(1.0, 3.0), 1.0),
                           GeodesicSphere(1.0)))
    for dec in cases:
        assert equality_detect(dec).equality == hk_full(dec).equality


def test_equality_implies_profile_match():
    for dec in (decompose(SPHERE, GeodesicSphere(1.0)), interval_dec(),
                decompose(BALL, GeodesicSphere(0.5))):
        report = hk_full(dec)
        if report.equality:
            assert hk._profile_deviation(dec) <= DEFAULT_EQUALITY_TOL


# ---------------------------------------------------------------- tolerance

def test_tolerance_env_override(monkeypatch):
    dec = interval_dec(length=math.pi - 1e-4)  # relative gap ~ 2.5e-9
    report = hk_full(dec)
    assert 0.0 < report.relative_gap < 1e-8
    assert report.equality  # within the default 1e-8
    monkeypatch.setenv("NEEDLECOMP_TOL", "1e-12")
    assert not hk_full(dec).equality
    monkeypatch.setenv("NEEDLECOMP_TOL", "not-a-number")
    with pytest.raises(ParameterError):
        equality_tolerance()


def test_tolerance_argument_beats_environment(monkeypatch):
    monkeypatch.setenv("NEEDLECOMP_TOL", "1e-15")
    assert equality_tolerance(1e-3) == 1e-3
    assert equality_tolerance() == 1e-15
