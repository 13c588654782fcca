import math
import random
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from needlecomp import (CdDensityReport, CurvatureDimension, CurvatureError,
                        DensityProfile, DomainError, EuclideanBall, GeodesicSphere,
                        JacobianParams, LevelPoint, Needle, NeedlecompError,
                        ParameterError, RatioReport, RoundSphere, SphericalSuspension,
                        SturmReport, WeightedInterval, check_cd_density, constant_interval,
                        decompose, density_ratio_check, geometry,
                        jacobian, model_interval, one_sided_log_derivative,
                        sigma_kappa, sin_kappa, sturm_bound_check)
from needlecomp import needle as needle_module
from needlecomp.needle import GRID_SIZE, _grid_point
from needlecomp.numerics import INEQ_SLACK, integrate

import kappa_reference


def sin_profile():
    return DensityProfile(0.0, math.pi, math.sin)


# ------------------------------------------------------------ construction

def test_profile_requires_ordered_interval():
    with pytest.raises(ParameterError):
        DensityProfile(1.0, 0.0, lambda r: 1.0)


def test_profile_requires_positive_interior():
    with pytest.raises(ParameterError):
        DensityProfile(-1.0, 1.0, lambda r: r)  # negative on half the interval


def test_profile_power_chains_derivative():
    p = DensityProfile(0.0, 2.0, lambda r: (1.0 + r) ** 3,
                       deriv=lambda r: 3.0 * (1.0 + r) ** 2)
    q = p.power(1.0 / 3.0)
    assert q.fn(1.0) == pytest.approx(2.0, rel=1e-14)
    assert q.deriv(1.0) == pytest.approx(1.0, rel=1e-12)


def test_profile_power_samples_equal_reevaluation():
    # without a mode, power() checks its fn on the whole grid, as any profile
    seen = []
    p = DensityProfile(0.0, math.pi, lambda r: seen.append(r) or 2.0 * math.sin(r) ** 3)
    grid = np.linspace(0.0, math.pi, GRID_SIZE).tolist()
    for exponent in (0.5, 1.0 / 3.0, 2.0):
        seen.clear()
        q = p.power(exponent)
        assert seen == grid
        assert (q.a, q.b) == (p.a, p.b)


def test_profile_power_validates_its_samples():
    # positive samples whose square underflows to 0 in the interior
    p = DensityProfile(0.0, 1.0, lambda r: 1e-200)
    with pytest.raises(ParameterError):
        p.power(2.0)


def _grid_seen_by_fn(a, b):
    """The points a construction evaluates fn at, in order."""
    seen = []
    DensityProfile(a, b, lambda r: seen.append(r) or 1.0)
    return seen


def _grid(a, b, n):
    return [_grid_point(a, b, n)(i) for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
@pytest.mark.parametrize("a, b", [(0.0, math.pi), (-7.5, -0.25), (-3.0, 11.0),
                                  (1e-300, 3e-300), (0.0, 5e-324), (0.0, 1e-320),
                                  (1.0, 1.0 + 2.0 ** -40), (-1e300, 1e300), (1e15, 1e300)])
def test_profile_grid_is_numpy_linspace(a, b, n):
    grid = _grid(a, b, n)
    assert grid == np.linspace(a, b, n).tolist()
    assert all(type(r) is float for r in grid)
    if n == GRID_SIZE:
        assert _grid_seen_by_fn(a, b) == grid


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1e6, 1e6), width=st.floats(1e-300, 1e6),
       n=st.integers(2, 300))
def test_profile_grid_is_numpy_linspace_on_random_intervals(a, width, n):
    b = a + width
    if b > a:
        assert _grid(a, b, n) == np.linspace(a, b, n).tolist()


def _numpy_verdict(values):
    """The construction-time validation as it was done on an ndarray."""
    samples = np.array(values)
    interior = samples[1:-1]
    return bool(np.isfinite(samples).all() and (interior > 0.0).all()
                and samples[0] >= 0.0 and samples[-1] >= 0.0)


def _constructs(make):
    try:
        make()
    except ParameterError:
        return False
    return True


def _at(x, value, otherwise=1.0):
    return lambda r: value if r == x else otherwise


GRID = np.linspace(0.0, 1.0, GRID_SIZE).tolist()
VALIDATION_CASES = {
    "positive": lambda r: 1.0 + r,
    "nan inside": _at(GRID[10], math.nan),
    "nan at an end": _at(0.0, math.nan),
    "inf inside": _at(GRID[10], math.inf),
    "-inf inside": _at(GRID[10], -math.inf),
    "inf at an end": _at(1.0, math.inf),
    "zero inside": _at(GRID[10], 0.0),
    "zero at both ends": lambda r: r * (1.0 - r),
    "negative end": _at(0.0, -1e-300),
    "negative inside": lambda r: r - 0.5,
    "int values": lambda r: 3,
}


@pytest.mark.parametrize("name", sorted(VALIDATION_CASES))
def test_profile_validation_matches_numpy(name):
    fn = VALIDATION_CASES[name]
    values = [fn(r) for r in GRID]
    assert _constructs(lambda: DensityProfile(0.0, 1.0, fn)) == _numpy_verdict(values)


@pytest.mark.parametrize("value, exponent", [(1e-200, 2.0), (1e-200, 1.5), (1e-100, 2.0),
                                             (1e-300, 0.5), (5e-324, 0.999)])
def test_profile_power_validation_matches_numpy(value, exponent):
    # a power that underflows to 0 in the interior is rejected
    p = DensityProfile(0.0, 1.0, lambda r: value)
    powered = [p.fn(r) ** exponent for r in GRID]
    assert _constructs(lambda: p.power(exponent)) == _numpy_verdict(powered)


def _verdict(make):
    """None when make() succeeds, else the type of the error it raises."""
    try:
        make()
    except (ParameterError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return None


def _full_grid_verdict(a, b, fn, exponent=None):
    """The construction verdict (or power(exponent)'s) from every point of
    np.linspace(a, b, GRID_SIZE): the reference that a declared mode must
    reproduce."""
    try:
        values = [fn(r) for r in np.linspace(a, b, GRID_SIZE).tolist()]
    except OverflowError:
        return OverflowError
    if exponent is not None:
        if not _numpy_verdict(values):
            return None  # the profile itself is rejected; nothing to raise
        try:
            values = [v ** exponent for v in values]
        except OverflowError:
            return ParameterError
        except ZeroDivisionError:  # 0.0 to a negative power, as float ** raises it
            return ZeroDivisionError
    return None if _numpy_verdict(values) else ParameterError


def assert_mode_verdict_is_full_verdict(a, b, fn, mode, exponent=None):
    make = lambda: DensityProfile(a, b, fn, mode=mode)
    got = _verdict(make)
    assert got == _full_grid_verdict(a, b, fn)
    if exponent is not None and got is None:
        assert _verdict(lambda: make().power(exponent)) == \
            _full_grid_verdict(a, b, fn, exponent)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3), at=st.floats(-0.1, 1.1),
       steep=st.floats(0.0, 1e4), scale_exp=st.floats(-330.0, 320.0),
       exponent=st.sampled_from([-2.0, -0.5, 1e-3, 0.5, 1.0, 3.0, 250.0]))
def test_mode_verdict_is_full_grid_verdict(a, width, at, steep, scale_exp, exponent):
    # a Gaussian bump, possibly centred off the interval, that underflows to 0
    # away from its mode or overflows a float near it
    b = a + width
    mode = a + at * width
    scale = 10.0 ** scale_exp if scale_exp < 308.0 else math.inf
    fn = lambda r: scale * math.exp(-steep * ((r - mode) / width) ** 2)
    assert_mode_verdict_is_full_verdict(a, b, fn, mode, exponent)


@pytest.mark.parametrize("fn, mode", [
    (lambda r: 1e200 * (1.0 - abs(r - 0.3)), 0.3),  # the power overflows at the peak
    (lambda r: max(math.sin(math.pi * r), 0.0) ** 200, 0.5),  # interior values underflow
    (lambda r: 5e-324 if r < 0.7 else 1.0, 1.0),  # a subnormal plateau, power underflows
    (lambda r: 1e300 * math.exp(800.0 * r) if r < 0.9 else 0.0, 0.9),  # fn overflows
])
def test_mode_verdict_on_float_extremes(fn, mode):
    for exponent in (0.5, 2.0):
        assert_mode_verdict_is_full_verdict(0.0, 1.0, fn, mode, exponent)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def registered_geometries(draw):
    """(factory, N) for a geometry of a registered kind, drawn over ranges
    where its density underflows or overflows."""
    kind = draw(st.sampled_from(("sphere", "ball", "suspension", "model", "constant")))
    n = draw(st.integers(1 if kind == "ball" else 2, 400))
    size = draw(_log_uniform(1e-4, 1e4))  # radius, R, K or length
    cd = CurvatureDimension(size, 1.0 + draw(_log_uniform(1e-6, 399.0)))
    base_volume = draw(_log_uniform(1e-200, 1e200))
    share = draw(st.one_of(st.none(), st.floats(0.01, 1.0)))
    K = draw(st.sampled_from((-1.0, 0.0, 1.0))) * draw(_log_uniform(1e-4, 1e4))
    if kind == "sphere":
        return (lambda: RoundSphere(n, size)), float(n)
    if kind == "ball":
        return (lambda: EuclideanBall(n, size)), float(n)
    if kind == "suspension":
        return (lambda: SphericalSuspension(cd, base_volume)), cd.N
    if kind == "model":
        full = math.pi / math.sqrt(cd.K / (cd.N - 1.0))
        length = None if share is None else min(share * full, full)
        return (lambda: model_interval(cd, length)), cd.N
    return (lambda: constant_interval(size, CurvatureDimension(K, cd.N))), cd.N


@settings(max_examples=150, deadline=None)
@example(geometry_and_N=(lambda: SphericalSuspension(CurvatureDimension(1e-4, 400.0), 1e200),
                         400.0), where="inside", share=0.5, offset=1e-6)  # ** overflows
@example(geometry_and_N=(lambda: EuclideanBall(300, 1e4), 300.0),
         where="near the end", share=0.5, offset=1e-6)  # ** overflows
@example(geometry_and_N=(lambda: RoundSphere(300, 1.0), 300.0),
         where="near 0", share=0.5, offset=1e-6)  # the needle underflows near its ends
@example(geometry_and_N=(lambda: RoundSphere(210, 0.01), 210.0),
         where="inside", share=0.5, offset=1e-6)  # the total mass underflows to 0
@example(geometry_and_N=(lambda: model_interval(CurvatureDimension(1.0, 1.000001)), 1.000001),
         where="inside", share=0.5, offset=1e-6)  # the power 1e6 underflows
@given(geometry_and_N=registered_geometries(),
       where=st.sampled_from(("inside", "near 0", "near the end")),
       share=st.floats(0.001, 0.999), offset=_log_uniform(1e-300, 1e-6))
def test_registered_densities_get_the_full_grid_verdict(geometry_and_N, where, share,
                                                        offset):
    """Every profile that a registered geometry and its decomposition build
    declares a mode, and that mode's few points give the full grid's verdict,
    for the profile and for its power 1/(N-1).  So does the radial density
    before it is normalized, which overflows where the needle does not."""
    make_geometry, N = geometry_and_N
    built = []

    def recording(a, b, fn, **kwargs):
        built.append((a, b, fn, kwargs["mode"]))
        return DensityProfile(a, b, fn, **kwargs)

    with mock.patch.object(geometry, "DensityProfile", recording):
        try:
            geom = make_geometry()
            model = geometry.radial_model(geom)
            built.append((0.0, model.length, model.density, model.mode))
            length = model.length
            r0 = {"inside": share * length, "near 0": offset,
                  "near the end": length - offset}[where]
            decompose(geom, LevelPoint(r0) if isinstance(geom, WeightedInterval)
                      else GeodesicSphere(r0))
        except NeedlecompError:
            pass
    for a, b, fn, mode in built:
        assert mode is not None
        assert_mode_verdict_is_full_verdict(a, b, fn, mode,
                                            exponent=1.0 / (N - 1.0) if N > 1.0 else None)


def test_mode_construction_evaluates_only_near_the_extremes():
    seen = []
    p = DensityProfile(-0.3, 1.9, lambda r: seen.append(r) or 1.0 + r * (2.0 - r), mode=1.0)
    grid = np.linspace(-0.3, 1.9, GRID_SIZE).tolist()
    k = max(i for i, r in enumerate(grid) if r <= 1.0)
    points = [grid[i] for i in (0, 1, k - 1, k, k + 1, k + 2, 1022, 1023)]
    assert seen == points
    seen.clear()
    p.power(0.5)  # a positive power keeps the mode, and is checked at the same points
    assert seen == points


def test_mode_must_not_be_nan():
    with pytest.raises(ParameterError):
        DensityProfile(0.0, 1.0, lambda r: 1.0, mode=math.nan)


def test_power_keeps_a_positive_mode_and_drops_another():
    seen = []
    p = DensityProfile(0.0, 1.0, lambda r: seen.append(r) or 1.0 + r, mode=1.0)
    points = list(seen)
    assert len(points) <= 8
    seen.clear()
    assert p.power(0.5).mode == 1.0
    assert seen == points
    seen.clear()
    q = p.power(-1.0)  # a decreasing profile, checked on the whole grid
    assert q.mode is None
    assert seen == np.linspace(0.0, 1.0, GRID_SIZE).tolist()


@pytest.mark.parametrize("mode", [None, 0.5])
def test_power_overflow_is_a_parameter_error(mode):
    p = DensityProfile(0.0, 1.0, lambda r: 1e200, mode=mode)
    with pytest.raises(ParameterError, match="finite"):
        p.power(2.0)


def test_needle_requires_base_in_interval():
    with pytest.raises(ParameterError):
        Needle(DensityProfile(1.0, 2.0, lambda r: 1.0), weight=1.0)
    with pytest.raises(ParameterError):
        Needle(DensityProfile(-1.0, 1.0, lambda r: 1.0), weight=-2.0)


# ------------------------------------------------- one-sided log derivative

def test_log_derivative_of_sine_at_midpoint():
    p = sin_profile()
    assert one_sided_log_derivative(p, math.pi / 2, "plus") == pytest.approx(0.0, abs=1e-9)
    assert one_sided_log_derivative(p, math.pi / 3, "plus") == \
        pytest.approx(1.0 / math.tan(math.pi / 3), rel=1e-8)


def test_log_derivative_detects_kink():
    p = DensityProfile(-1.0, 1.0, lambda r: math.exp(abs(r)))
    assert one_sided_log_derivative(p, 0.0, "plus") == pytest.approx(1.0, abs=1e-8)
    assert one_sided_log_derivative(p, 0.0, "minus") == pytest.approx(-1.0, abs=1e-8)


def test_log_derivative_of_distortion_profile_is_mean_curvature():
    # d/dr log J at 0 equals H: the base has value 1 and slope H/(N-1) there
    for H, K, N in [(1.0, 1.0, 2.0), (-0.5, 0.0, 3.0), (2.0, -1.0, 4.5)]:
        params = JacobianParams(H, CurvatureDimension(K, N))
        p = DensityProfile(-0.2, 0.2, lambda r: jacobian(params, r))
        assert one_sided_log_derivative(p, 0.0, "plus") == pytest.approx(H, abs=1e-6)


def test_log_derivative_prefers_registered_derivative():
    p = DensityProfile(0.0, 1.0, lambda r: 1.0 + r, deriv=lambda r: 1.0)
    assert one_sided_log_derivative(p, 0.5, "plus") == 1.0 / 1.5
    assert one_sided_log_derivative(p, 0.5, "minus") == 1.0 / 1.5


def test_log_derivative_domain_errors():
    p = sin_profile()
    with pytest.raises(DomainError):
        one_sided_log_derivative(p, math.pi, "plus")
    with pytest.raises(DomainError):
        one_sided_log_derivative(p, 0.0, "minus")
    with pytest.raises(ParameterError):
        one_sided_log_derivative(p, 0.5, "up")


def test_log_derivative_diverges_at_vanishing_endpoint():
    p = sin_profile()
    assert one_sided_log_derivative(p, 0.0, "plus") == math.inf
    q = DensityProfile(0.0, 1.0, lambda r: 1.0 - r)  # exact zero at the right end
    assert one_sided_log_derivative(q, 1.0, "minus") == -math.inf


def test_one_sided_derivatives_ordered_at_concave_kink():
    p = DensityProfile(-1.0, 1.0, lambda r: math.exp(-abs(r)))
    d_plus = one_sided_log_derivative(p, 0.0, "plus")
    d_minus = one_sided_log_derivative(p, 0.0, "minus")
    assert d_plus <= d_minus
    assert d_plus == pytest.approx(-1.0, abs=1e-8)
    assert d_minus == pytest.approx(1.0, abs=1e-8)


# --------------------------------------------------------- density checks

def test_cd_density_equality_case():
    for N in (2.0, 3.0, 4.5):
        p = DensityProfile(0.0, math.pi, lambda r: max(math.sin(r), 0.0) ** (N - 1.0))
        report = check_cd_density(p, CurvatureDimension(N - 1.0, N), grid_size=16)
        assert report.passed
        assert abs(report.worst_violation) < 1e-9


def test_cd_density_constant_flat_passes():
    p = DensityProfile(0.0, 1.0, lambda r: 1.0)
    assert check_cd_density(p, CurvatureDimension(0.0, 2.0), grid_size=12).passed


def test_cd_density_constant_positive_curvature_fails():
    p = DensityProfile(0.0, math.pi / 2, lambda r: 1.0)
    report = check_cd_density(p, CurvatureDimension(1.0, 2.0), grid_size=12)
    assert not report.passed
    assert report.worst_violation > 1e-3
    r0, r1, t = report.witness
    assert 0.0 < r0 < r1 < math.pi / 2 and 0.0 < t < 1.0


def _reference_cd_density(profile, cd, grid_size):
    """The triple loop on the lattice x_q = a + (b - a) (q / (G+1)^2), one
    scalar density value and distortion coefficient per call."""
    kap = cd.K / (cd.N - 1.0)
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    g1 = grid_size + 1
    x = lambda q: a + (b - a) * (q / g1 ** 2)
    u = lambda q: profile.fn(x(q)) ** expo
    worst = -math.inf
    witness = None
    for i in range(grid_size):
        q0 = (i + 1) * g1
        u0 = u(q0)
        for j in range(i + 1, grid_size):
            q1 = (j + 1) * g1
            u1 = u(q1)
            theta = (b - a) * ((j - i) / g1)
            for m in range(grid_size):
                t = (m + 1) / g1
                s_lo = sigma_kappa(kap, 1.0 - t, theta)
                s_hi = sigma_kappa(kap, t, theta)
                lhs = u(q0 + (m + 1) * (j - i))
                if math.isinf(s_lo) or math.isinf(s_hi):
                    rhs = math.inf
                else:
                    rhs = s_lo * u0 + s_hi * u1
                violation = (rhs - lhs) / max(abs(lhs), 1e-300)
                if violation > worst:
                    worst = violation
                    witness = (x(q0), x(q1), t)
    return CdDensityReport(passed=worst <= INEQ_SLACK, worst_violation=worst,
                           witness=witness)


def _reference_multiscale_cd_density(profile, cd, grid_size):
    """The multiscale midpoint check in scalars: for each s = 1, 2, 4, ... with
    2s < G^2 and each lattice point q with q -+ s on the lattice, u_q against
    sigma_kappa^{(1/2)}(2 s delta) (u_{q-s} + u_{q+s}), delta = (b - a)/(G+1)^2."""
    kap = cd.K / (cd.N - 1.0)
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    g1 = grid_size + 1
    n = grid_size * grid_size
    xs = [a + (b - a) * (q / g1 ** 2) for q in range(g1, g1 + n)]
    u = [profile.fn(x) ** expo for x in xs]
    worst = -math.inf
    witness = None
    s = 1
    while 2 * s < n:
        sigma = sigma_kappa(kap, 0.5, (b - a) * (2 * s / g1 ** 2))
        for q in range(s, n - s):
            lhs = u[q]
            rhs = math.inf if math.isinf(sigma) else sigma * (u[q - s] + u[q + s])
            violation = (rhs - lhs) / max(abs(lhs), 1e-300)
            if violation > worst:
                worst = violation
                witness = (xs[q - s], xs[q + s], 0.5)
        s *= 2
    return CdDensityReport(passed=worst <= INEQ_SLACK, worst_violation=worst,
                           witness=witness)


def _float_grid_cd_density(profile, cd, grid_size):
    """The triple loop on points formed in floating point as r0 + t theta."""
    kap = cd.K / (cd.N - 1.0)
    expo = 1.0 / (cd.N - 1.0)
    a, b = profile.a, profile.b
    rs = [a + (b - a) * (i + 1.0) / (grid_size + 1.0) for i in range(grid_size)]
    ts = [(j + 1.0) / (grid_size + 1.0) for j in range(grid_size)]

    u = lambda r: profile.fn(r) ** expo
    worst = -math.inf
    witness = None
    for i in range(len(rs)):
        r0 = rs[i]
        u0 = u(r0)
        for j in range(i + 1, len(rs)):
            r1 = rs[j]
            u1 = u(r1)
            theta = r1 - r0
            for t in ts:
                s_lo = sigma_kappa(kap, 1.0 - t, theta)
                s_hi = sigma_kappa(kap, t, theta)
                lhs = u(r0 + t * theta)
                if math.isinf(s_lo) or math.isinf(s_hi):
                    rhs = math.inf
                else:
                    rhs = s_lo * u0 + s_hi * u1
                violation = (rhs - lhs) / max(abs(lhs), 1e-300)
                if violation > worst:
                    worst = violation
                    witness = (r0, r1, t)
    return CdDensityReport(passed=worst <= INEQ_SLACK, worst_violation=worst,
                           witness=witness)


# One needle per geometry kind, with the surface off-centre.
_KIND_NEEDLES = {
    "round-sphere": (RoundSphere(3, 1.3), GeodesicSphere(0.7)),
    "euclidean-ball": (EuclideanBall(3, 1.7), GeodesicSphere(0.6)),
    "spherical-suspension": (SphericalSuspension(CurvatureDimension(0.8, 4.5), 1.2),
                             GeodesicSphere(1.9)),
    "weighted-interval": (model_interval(CurvatureDimension(1.1, 2.5), length=2.0),
                          LevelPoint(0.7)),
}


# A constant interval under a negative curvature bound, with its surface.
_CONSTANT_NEEDLE = (constant_interval(2.0, CurvatureDimension(-1.5, 3.0)), LevelPoint(0.7))


def _kind_needle(kind):
    dec = decompose(*_KIND_NEEDLES[kind])
    return dec.needle.profile, dec.cd


@pytest.mark.parametrize("dec_args", [*_KIND_NEEDLES.values(), _CONSTANT_NEEDLE],
                         ids=[*_KIND_NEEDLES, "constant-interval"])
def test_power_of_a_built_in_needle_evaluates_its_modes_points(dec_args):
    # the sturm check's u = h^(1/(N-1)) is checked where the needle was: at most
    # 8 points, its ends, their neighbours and the points around its mode
    dec = decompose(*dec_args)
    profile, seen = dec.needle.profile, []
    watched = profile._replace(fn=lambda r: seen.append(r) or profile.fn(r))
    points = list(seen)
    assert profile.mode is not None and 4 <= len(points) <= 8
    seen.clear()
    watched.power(1.0 / (dec.cd.N - 1.0))
    assert seen == points


def _assert_same_report(got, want):
    assert type(got.worst_violation) is float
    assert all(type(x) is float for x in got.witness or ())
    # NaN-free and equal bit for bit; inf == inf covers violated 2K bounds
    assert (got.worst_violation, got.witness, got.passed) == \
        (want.worst_violation, want.witness, want.passed)


def _assert_matches_references(profile, cd, grid, verdict=_reference_cd_density):
    """The verdict of the oracle `verdict` (by default the triple loop), and the
    worst violation and witness of the scalar multiscale reference, bit for bit."""
    got = check_cd_density(profile, cd, grid)
    _assert_same_report(got, _reference_multiscale_cd_density(profile, cd, grid))
    assert got.passed == verdict(profile, cd, grid).passed
    return got


@pytest.mark.parametrize("grid", (3, 10, 24, 48, 70))
@pytest.mark.parametrize("bound", ("true", "violated"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_matches_triple_loop(kind, bound, grid):
    profile, cd = _kind_needle(kind)
    if bound == "violated":
        cd = CurvatureDimension(2.0 * cd.K if cd.K > 0.0 else 1.0, cd.N)
    got = _assert_matches_references(profile, cd, grid)
    assert got.passed == (bound == "true")


@pytest.mark.parametrize("grid", (3, 10, 24, 48, 70))
@pytest.mark.parametrize("bound", ("true", "violated"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_agrees_with_the_float_grid(kind, bound, grid):
    # the triple loop on points rounded as r0 + t theta reaches the same verdict
    profile, cd = _kind_needle(kind)
    if bound == "violated":
        cd = CurvatureDimension(2.0 * cd.K if cd.K > 0.0 else 1.0, cd.N)
    _assert_matches_references(profile, cd, grid, verdict=_float_grid_cd_density)


@pytest.mark.parametrize("grid", (24, 48))
def test_cd_density_calls_the_density_once_per_lattice_point(grid):
    profile, cd = _kind_needle("round-sphere")
    seen = []
    fn = profile.fn
    counted = DensityProfile(profile.a, profile.b, lambda r: seen.append(r) or fn(r))
    seen.clear()
    check_cd_density(counted, cd, grid)
    assert len(seen) == grid * grid
    assert all(x < y for x, y in zip(seen, seen[1:]))


@pytest.mark.parametrize("grid", (3, 24))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_negative_curvature_matches_triple_loop(kind, grid):
    profile, cd = _kind_needle(kind)
    for K in (-1.0, -7.5):
        _assert_matches_references(profile, CurvatureDimension(K, cd.N), grid)


def test_cd_density_overflow_raises_as_the_triple_loop():
    # sinh(sqrt(-kappa) theta) overflows a float for the wider separations, and
    # u = h^(1/(N-1)) = h^2 does although K = 0; where the triple loop
    # overflows, the check raises its own typed error
    for p, cd, message in [
            (DensityProfile(0.0, 10.0, lambda r: 1.0 + r), CurvatureDimension(-1e4, 2.0),
             "the distortion coefficients of the density check overflow a float"),
            (DensityProfile(0.0, 1e-200, lambda r: 1e200), CurvatureDimension(0.0, 1.5),
             "the density check's u = h**(1/(N-1)) overflows a float")]:
        with pytest.raises(OverflowError):
            _reference_cd_density(p, cd, 12)
        with pytest.raises(ParameterError, match="^" + re.escape(message)):
            check_cd_density(p, cd, 12)


def test_cd_density_beyond_model_diameter_is_infinite():
    # separations past pi_kappa = pi get an infinite right side
    p = DensityProfile(0.0, 10.0, lambda r: 1.0 + 0.1 * r)
    cd = CurvatureDimension(1.0, 2.0)
    got = _assert_matches_references(p, cd, 12)
    assert got.worst_violation == math.inf and not got.passed


def test_cd_density_skips_nan_midpoints():
    # with its mode at 0, validation sees only points near the ends
    fn = lambda r: math.nan if 0.3 < r < 0.6 else math.exp(-r * r)
    p = DensityProfile(0.0, 1.0, fn, mode=0.0)
    for K in (0.0, 1.0, 4.0):
        cd = CurvatureDimension(K, 3.0)
        got = _assert_matches_references(p, cd, 16)
        assert math.isfinite(got.worst_violation)


def test_cd_density_skips_leading_nan():
    # every scale's first midpoints are NaN; built unchecked, as below
    p = DensityProfile.__new__(DensityProfile, 0.0, 1.0,
                               lambda r: math.nan if r < 0.4 else math.exp(-r * r))
    for K in (0.0, 4.0):
        got = _assert_matches_references(p, CurvatureDimension(K, 3.0), 16)
        assert math.isfinite(got.worst_violation)


def test_cd_density_all_nan_grid():
    # built unchecked: validation would reject the NaN
    p = DensityProfile.__new__(DensityProfile, 0.0, 1.0,
                               lambda r: 1.0 if r in (0.0, 1.0) else math.nan)
    report = check_cd_density(p, CurvatureDimension(1.0, 2.0), grid_size=8)
    assert report.worst_violation == -math.inf
    assert report.witness is None
    assert report.passed


# Midpoint comparisons (and lattice points) per block: one neighbour pair
# (q - s, q + s) per block, and seven, which leaves a short last block at six
# of grid 24's nine scales.
@pytest.fixture(params=(1, 7), ids=("one-pair", "seven-pairs"))
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(needle_module, "_CD_BLOCK", request.param)


@pytest.mark.parametrize("bound", ("true", "violated"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_blocks_match_triple_loop(small_blocks, kind, bound):
    test_cd_density_matches_triple_loop(kind, bound, 24)


def test_cd_density_blocks_keep_the_first_infinite_witness(small_blocks):
    test_cd_density_beyond_model_diameter_is_infinite()  # inf in several blocks


def test_cd_density_blocks_of_nan_have_no_witness(small_blocks):
    test_cd_density_all_nan_grid()


# check_cd_density takes its Python-float path only while numpy is not loaded,
# and this suite loads numpy: the tests below call that path directly.
_check_cd_density_array = check_cd_density


def _check_both_paths(profile, cd, grid_size=24):
    """check_cd_density's array report or error, after requiring the float
    path's to be the same: the report's floats bit for bit, or the error's
    type and message."""
    try:
        want = _check_cd_density_array(profile, cd, grid_size)
    except (NeedlecompError, ArithmeticError) as exc:
        with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
            needle_module._cd_density_floats(profile, cd, grid_size)
        raise
    got = needle_module._cd_density_floats(profile, cd, grid_size)
    _assert_same_report(got, want)
    assert repr(got) == repr(want)  # tells 0.0 from -0.0
    return want


@pytest.fixture
def float_path(monkeypatch):
    """Every check_cd_density call in this module's tests checks both paths."""
    monkeypatch.setattr(sys.modules[__name__], "check_cd_density", _check_both_paths)


@pytest.mark.parametrize("grid", (3, 10, 24, 32))
@pytest.mark.parametrize("bound", ("true", "violated"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_float_path_matches_triple_loop(float_path, kind, bound, grid):
    test_cd_density_matches_triple_loop(kind, bound, grid)


@pytest.mark.parametrize("grid", (3, 24, 32))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_float_path_under_negative_curvature(float_path, kind, grid):
    test_cd_density_negative_curvature_matches_triple_loop(kind, grid)


@pytest.mark.parametrize("test", [
    test_cd_density_equality_case, test_cd_density_constant_flat_passes,
    test_cd_density_constant_positive_curvature_fails,
    test_cd_density_overflow_raises_as_the_triple_loop,
    test_cd_density_beyond_model_diameter_is_infinite, test_cd_density_skips_nan_midpoints,
    test_cd_density_skips_leading_nan, test_cd_density_all_nan_grid],
    ids=lambda test: test.__name__[len("test_cd_density_"):])
def test_cd_density_float_path_cases(float_path, test):
    test()


def test_cd_density_float_path_calls_the_density_once_per_lattice_point():
    profile, cd = _kind_needle("round-sphere")
    seen = []
    fn = profile.fn
    counted = DensityProfile(profile.a, profile.b, lambda r: seen.append(r) or fn(r))
    seen.clear()
    needle_module._cd_density_floats(counted, cd, 32)
    assert len(seen) == 32 * 32
    assert all(x < y for x, y in zip(seen, seen[1:]))


def _outcome(call, *args):
    """repr(call(*args)), which tells floats apart bit for bit short of NaN
    payloads, or the type and message of the error it raises."""
    try:
        return repr(call(*args))
    except (NeedlecompError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _bits(call):
    """The floats call() returns as integers, bit for bit, computed with
    numpy's overflow and invalid warnings off; or the type and message of the
    error it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array(call(), dtype=float).view(np.int64).tolist()
    except (NeedlecompError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def built_in_needles(draw, with_geometry=False):
    """The decomposition of a built-in kind, or (geometry, decomposition) with
    with_geometry: n or N up to 400; radius, R, K, base volume and length in
    [1e-4, 1e4]; the surface inside the radial range or within 1e-6 of either
    end.  Draws that decompose refuses are rejected."""
    kind = draw(st.sampled_from(("sphere", "ball", "suspension", "model", "constant")))
    n = draw(st.integers(2, 400))
    size = draw(_log_uniform(1e-4, 1e4))  # radius, R, K or length
    N = 1.0 + draw(_log_uniform(1e-6, 399.0))
    try:
        if kind == "sphere":
            geom = RoundSphere(n, size)
        elif kind == "ball":
            geom = EuclideanBall(n, size)
        elif kind == "suspension":
            geom = SphericalSuspension(CurvatureDimension(size, N),
                                       draw(_log_uniform(1e-4, 1e4)))
        elif kind == "model":
            cd = CurvatureDimension(size, N)
            full = math.pi / math.sqrt(cd.K / (cd.N - 1.0))
            share = draw(st.one_of(st.none(), st.floats(0.01, 1.0)))
            geom = model_interval(cd, None if share is None else min(share * full, full))
        else:
            K = -draw(st.sampled_from((0.0, 1.0))) * draw(_log_uniform(1e-4, 1e4))
            geom = constant_interval(size, CurvatureDimension(K, N))
        length = geometry.radial_model(geom).length
        offset = draw(_log_uniform(1e-12, 1e-6))
        r0 = draw(st.sampled_from((draw(st.floats(0.001, 0.999)) * length,
                                   offset, length - offset)))
        dec = decompose(geom, LevelPoint(r0) if isinstance(geom, WeightedInterval)
                        else GeodesicSphere(r0))
    except NeedlecompError:
        assume(False)
    return (geom, dec) if with_geometry else dec


def _assert_array_form_is_the_density(dec, grid):
    """On check_cd_density's lattice and at both (often vanishing) ends, the
    needle's array form gives fn's floats bit for bit, or fn's error; and
    check_cd_density reports the same from it as from fn alone."""
    p = dec.needle.profile
    assert p.values is not None
    g1 = grid + 1
    xs = p.a + (p.b - p.a) * (np.arange(g1, grid * g1 + 1) / float(g1 * g1))
    xs = np.concatenate(([p.a], xs, [p.b]))
    assert _bits(lambda: p.values(xs)) == _bits(lambda: [p.fn(x) for x in xs.tolist()])
    assert _outcome(check_cd_density, p, dec.cd, grid) == \
        _outcome(check_cd_density, p._replace(values=None), dec.cd, grid)


@settings(max_examples=150, deadline=None)
@given(dec=built_in_needles(), grid=st.integers(3, 48))
def test_array_form_is_the_scalar_density_bit_for_bit(dec, grid):
    _assert_array_form_is_the_density(dec, grid)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dec=built_in_needles(), grid=st.integers(3, 12))
def test_array_form_is_the_scalar_density_across_block_seams(small_blocks, dec, grid):
    _assert_array_form_is_the_density(dec, grid)


def test_power_form_clamps_as_max_does():
    # max(x, 0.0) keeps NaN and -0.0, and (-0.0) ** 3 is -0.0; a float power
    # raises OverflowError where a float product gives inf
    values = geometry._power_form(lambda np_, r: r, 3, 1e300)
    for xs in ([-0.0, math.nan, -1.5, 0.0, 2.5, 1e10], [1.0, 1e200]):
        assert _bits(lambda: values(np.array(xs))) == \
            _bits(lambda: [1e300 * max(x, 0.0) ** 3 for x in xs])


def _reference_radial_density(geom):
    """The radial density of a built-in geometry as r -> float, written as
    its own lambda, with max for the clamp."""
    if isinstance(geom, EuclideanBall):
        n, scale = geom.n, geometry.unit_sphere_volume(geom.n - 1)
        return lambda s: scale * s ** (n - 1)
    if isinstance(geom, WeightedInterval) and geom.cd.K <= 0.0:
        return lambda s: 1.0
    cd, scale = geom.cd, getattr(geom, "base_volume", 1.0)
    if isinstance(geom, RoundSphere):
        scale = geometry.unit_sphere_volume(geom.n - 1)
    expo = cd.N - 1.0
    rt = math.sqrt(cd.K / expo)
    return lambda s: scale * max(math.sin(rt * s) / rt, 0.0) ** expo


def _with_decomposition(geom, surf):
    return geom, decompose(geom, surf)


@settings(max_examples=150, deadline=None)
# moderate parameters, a sphere with R != 1 among them, which the strategy rarely draws
@example(geom_and_dec=_with_decomposition(*_KIND_NEEDLES["round-sphere"]), grid=24, extra=[])
@example(geom_and_dec=_with_decomposition(RoundSphere(6, 0.37), GeodesicSphere(0.9)),
         grid=7, extra=[0.3, 0.95])
@example(geom_and_dec=_with_decomposition(*_KIND_NEEDLES["euclidean-ball"]), grid=24, extra=[])
@example(geom_and_dec=_with_decomposition(*_KIND_NEEDLES["spherical-suspension"]), grid=24,
         extra=[])
@example(geom_and_dec=_with_decomposition(*_KIND_NEEDLES["weighted-interval"]), grid=24,
         extra=[])  # a truncated model interval
@given(geom_and_dec=built_in_needles(with_geometry=True), grid=st.integers(3, 48),
       extra=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_needle_density_is_the_rebased_radial_density_bit_for_bit(geom_and_dec, grid, extra):
    # one closure per built-in needle density: the floats of the generic
    # h(r0 + r) / total on the cd-density lattice, both ends and random points
    geom, dec = geom_and_dec
    p = dec.needle.profile
    density, r0, total = _reference_radial_density(geom), -p.a, dec.total_mass
    assert total == integrate(density, 0.0, geometry.radial_model(geom).length)
    g1 = grid + 1
    rs = (p.a + (p.b - p.a) * (np.arange(g1, grid * g1 + 1) / float(g1 * g1))).tolist()
    rs += [p.a, 0.0, p.b] + [p.a + (p.b - p.a) * x for x in extra]
    assert _bits(lambda: [p.fn(r) for r in rs]) == \
        _bits(lambda: [density(r0 + r) / total for r in rs])


@pytest.mark.parametrize("make, at_minus_tiny", [
    (lambda: RoundSphere(4, 3.0), "-0.0"),  # an odd power keeps the sine's -0.0
    (lambda: RoundSphere(3, 0.5), "0.0"),
    (lambda: SphericalSuspension(CurvatureDimension(0.09, 2.0), 1.5), "-0.0"),  # power 1
    (lambda: model_interval(CurvatureDimension(2.0, 3.5), 1.0), "0.0"),
], ids=("sphere-odd", "sphere-even", "suspension", "model-interval"))
def test_sine_power_densities_clamp_as_max_does(make, at_minus_tiny):
    # 0.0 if 0.0 > x else x keeps max(x, 0.0)'s NaN and -0.0: a NaN point, a
    # sine that rounds to -0.0 just below 0, and negative sines on both sides
    geom = make()
    density = _reference_radial_density(geom)
    model = geometry.radial_model(geom)
    rs = [math.nan, -0.0, 0.0, -5e-324, -1e-310, -0.5, 1.0, model.length,
          model.length + 0.25]
    assert repr(density(-5e-324)) == at_minus_tiny
    for r0, total in ((0.0, 1.0), (0.25, 3.0), (0.0, 0.7)):
        fn = model.density.rebased(r0, total)
        assert _bits(lambda: [fn(r) for r in rs]) == \
            _bits(lambda: [density(r0 + r) / total for r in rs])


def _python_calls(fn, x):
    """The Python functions that fn(x) calls, fn itself included, as
    sys.setprofile's call events see them (calls into C are c_call events)."""
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)
                   if event == "call" else None)
    try:
        fn(x)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES) + ["constant-interval"])
def test_built_in_needle_density_is_one_python_call(kind):
    geom, surf = _KIND_NEEDLES.get(kind, _CONSTANT_NEEDLE)
    p = decompose(geom, surf).needle.profile
    r = 0.5 * p.b
    assert len(_python_calls(p.fn, r)) == 1
    assert len(_python_calls(geometry.radial_model(geom).density, surf.r0 + r)) == 1
    assert len(_python_calls(p.power(0.5).fn, r)) == 2  # power's wrapper, then fn


def test_api_densities_have_no_array_form():
    dec = decompose(WeightedInterval(1.0, DensityProfile(0.0, 1.0, lambda r: 1.0 + r),
                                     CurvatureDimension(0.0, 2.0)), LevelPoint(0.5))
    assert dec.needle.profile.values is None
    # nor a rebased closure: decompose's wrapper calls the density
    assert len(_python_calls(dec.needle.profile.fn, 0.25)) == 2
    assert dec.needle.profile.fn(0.25) == (1.0 + (0.5 + 0.25)) / dec.total_mass
    assert sin_profile().power(0.5).values is None

def _kappa_line(kappa, length, c0, c1):
    """The solution of v'' + kappa v = 0 on [0, length] with v(0) = c0 and
    v(length) = c1; length < pi_kappa."""
    whole = sin_kappa(kappa, length)
    return lambda r: (c0 * sin_kappa(kappa, length - r) + c1 * sin_kappa(kappa, r)) / whole


def _random_cd_corpus(count_per_family=3):
    """(id, profile, cd, grid, is_cd) over K in {-1, 0, 1, 2} and N in [1.5, 8]:
    - "min": h = (min of three kappa-lines)^(N-1), a CD(K, N) density, since
      every line solves u'' + kappa u = 0 and a minimum adds concave kinks only;
    - "max": the maximum of two crossing kappa-lines, with a convex kink, not CD;
    - "shift": one line of kappa' = K'/(N-1), K' = K -+ 1e-6 ... 0.3, checked
      at K: CD exactly when K' >= K (a line through 0 is the model density)."""
    rng = random.Random(2606)
    corpus = []
    for K in (-1.0, 0.0, 1.0, 2.0):
        for family in ("min", "max", "shift"):
            for k in range(count_per_family):
                N = rng.uniform(1.5, 8.0)
                kappa = K / (N - 1.0)
                full = math.pi / math.sqrt(kappa) if kappa > 0.0 else 3.0
                length = rng.uniform(0.3, 0.95) * full
                draw = lambda: rng.uniform(0.5, 2.0)
                if family == "min":
                    lines = [_kappa_line(kappa, length, draw(), draw()) for _ in range(3)]
                    u, is_cd = (lambda r, ls=lines: min(f(r) for f in ls)), True
                elif family == "max":
                    lo, hi = sorted((draw(), draw()))
                    lines = [_kappa_line(kappa, length, hi, lo),
                             _kappa_line(kappa, length, lo, hi)]
                    u, is_cd = (lambda r, ls=lines: max(f(r) for f in ls)), False
                else:
                    shift = math.copysign(10.0 ** rng.uniform(-6.0, math.log10(0.3)),
                                          rng.choice((-1.0, 1.0)))
                    kappa_shifted = (K + shift) / (N - 1.0)
                    if kappa_shifted > 0.0:
                        length = min(length, 0.95 * math.pi / math.sqrt(kappa_shifted))
                    u = _kappa_line(kappa_shifted, length, 0.0 if k == 0 else draw(), draw())
                    is_cd = shift > 0.0
                profile = DensityProfile(0.0, length, lambda r, u=u, N=N: u(r) ** (N - 1.0))
                corpus.append(pytest.param(profile, CurvatureDimension(K, N), (24, 48)[k % 2],
                                           is_cd, id=f"{family}-K{K:g}-{k}"))
    return corpus


@pytest.mark.parametrize("profile, cd, grid, is_cd", _random_cd_corpus())
def test_cd_density_verdict_matches_triple_loop_on_random_densities(profile, cd, grid,
                                                                     is_cd):
    assert _assert_matches_references(profile, cd, grid).passed == is_cd


@pytest.mark.parametrize("profile, cd, grid, is_cd", _random_cd_corpus())
def test_cd_density_float_path_on_random_densities(float_path, profile, cd, grid, is_cd):
    test_cd_density_verdict_matches_triple_loop_on_random_densities(profile, cd, grid, is_cd)


@settings(max_examples=150, deadline=None)
@given(dec=built_in_needles(), grid=st.integers(3, 32))
def test_cd_density_float_path_on_built_in_needles(dec, grid):
    # fn at each lattice point where the array path fills from the array form
    p = dec.needle.profile
    assert p.values is not None
    assert _outcome(needle_module._cd_density_floats, p, dec.cd, grid) == \
        _outcome(check_cd_density, p, dec.cd, grid)


def _negative_at(x):
    return "^" + re.escape(f"the density is negative at {x!r}") + "$"


def test_negative_density_between_validation_points_is_a_parameter_error():
    # negative only between the points construction validates; it was a
    # TypeError from the complex power
    fn = lambda r: 1.0 if abs(r - 0.5003) > 1e-4 else -1.0
    p = DensityProfile(0.0, 1.0, fn)
    x = 1201 / 49 ** 2  # the first negative lattice point of grid 48
    assert fn(x) < 0.0 and all(fn(q / 49 ** 2) > 0.0 for q in range(49, 1201))
    with pytest.raises(ParameterError, match=_negative_at(x)):
        check_cd_density(p, CurvatureDimension(0.0, 2.5), 48)
    r0 = 0.25
    r = r0 + (1.0 - r0) * 20.0 / 41.0  # the 20th point of sturm's grid of 40
    q = DensityProfile(0.0, 1.0, lambda s: -1.0 if abs(s - r) < 1e-6 else 1.0 + s)
    for check in (sturm_bound_check, _reference_sturm_bound_check):
        for exponent in (1.0 / 1.5, 1.0):  # a complex power, and a negative value
            with pytest.raises(ParameterError, match=_negative_at(r)):
                check(q.power(exponent), 0.0, r0, grid_size=40)
        with pytest.raises(ParameterError, match=_negative_at(r)):
            check(q.power(0.5), 0.0, r, grid_size=40)  # at the base point


@pytest.mark.parametrize("grid", (3, 17, 32))
def test_cd_density_float_path_names_the_first_negative_point(float_path, grid):
    g1 = grid + 1
    xs = [q / g1 ** 2 for q in range(g1, grid * g1 + 1)]
    bad = {xs[grid // 2], xs[-2]}  # isolated from construction's validation grid
    p = DensityProfile(0.0, 1.0, lambda r: -1.0 if r in bad else 1.0 + r)
    with pytest.raises(ParameterError, match=_negative_at(xs[grid // 2])):
        check_cd_density(p, CurvatureDimension(0.0, 2.5), grid)


def test_cd_density_memory_stays_bounded():
    # O(G^2): the lattice values and one block's arrays.  One array pass over
    # all 54k triples of grid 48 would peak at about 5 MB, and holding every
    # triple's point (G^3/2 of them) at about 85 MB for grid 192.
    profile, cd = _kind_needle("spherical-suspension")
    check_cd_density(profile, cd, 48)  # imports and caches outside the trace
    for grid, bound in ((48, 2.5e6), (192, 8e6)):
        tracemalloc.start()
        try:
            check_cd_density(profile, cd, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, grid


def test_cd_density_rejects_tiny_grid():
    p = sin_profile()
    with pytest.raises(ParameterError):
        check_cd_density(p, CurvatureDimension(1.0, 2.0), grid_size=2)


def test_sturm_bound_sine_is_tight():
    report = sturm_bound_check(sin_profile(), 1.0, math.pi / 4, grid_size=30)
    assert report.passed
    assert abs(report.max_excess) < 1e-8


def test_sturm_bound_affine_is_tight():
    p = DensityProfile(0.0, 1.0, lambda r: 1.0 - r / 2.0, deriv=lambda r: -0.5)
    report = sturm_bound_check(p, 0.0, 0.25, grid_size=20)
    assert report.passed
    assert abs(report.max_excess) < 1e-12

    q = DensityProfile(-0.5, 3.0, lambda r: 1.0 + r, deriv=lambda r: 1.0)
    report = sturm_bound_check(q, 0.0, 0.0 + 1e-9, grid_size=20)
    assert report.passed


def test_sturm_bound_domain_error():
    with pytest.raises(DomainError):
        sturm_bound_check(sin_profile(), 1.0, -0.5)


def _reference_sturm_bound_check(u, kappa, r0, grid_size=40):
    """sturm_bound_check as one cos_kappa and one sin_kappa call per point, in
    their three-way forms from kappa_reference, which share no code with it."""
    if not u.a < r0 < u.b:
        raise DomainError(f"base point r0={r0} outside ({u.a}, {u.b})")
    u0 = u.fn(r0)
    if type(u0) is complex or u0 < 0.0:
        raise needle_module._negative_density(r0)
    du0 = u0 * one_sided_log_derivative(u, r0, "plus")
    max_excess = -math.inf
    passed = True
    for i in range(grid_size):
        r = r0 + (u.b - r0) * (i + 1.0) / (grid_size + 1.0)
        bound = (u0 * kappa_reference.cos_kappa(kappa, r - r0)
                 + du0 * kappa_reference.sin_kappa(kappa, r - r0))
        if bound <= 0.0:
            passed = False
        value = u.fn(r)
        if type(value) is complex or value < 0.0:
            raise needle_module._negative_density(r)
        excess = (value - bound) / max(abs(bound), 1e-300)
        max_excess = max(max_excess, excess)
    return SturmReport(passed=passed and max_excess <= INEQ_SLACK, max_excess=max_excess)


def _assert_sturm_matches_reference(profile, cd, grid):
    """At the ten base points of the CLI's sturm check, the same report bit
    for bit as the reference loop, or the same error; returns their reprs."""
    kappa = cd.K / (cd.N - 1.0)
    u = profile.power(1.0 / (cd.N - 1.0))
    reports = []
    for j in range(10):
        r0 = u.a + (u.b - u.a) * (j + 1.0) / 11.0
        got = _outcome(sturm_bound_check, u, kappa, r0, grid)
        assert got == _outcome(_reference_sturm_bound_check, u, kappa, r0, grid)
        reports.append(got)
    return reports


@pytest.mark.parametrize("K", ("own", "larger", "zero", "negative"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES) + ["constant-interval"])
def test_sturm_matches_the_reference_loop(kind, K):
    if kind == "constant-interval":
        dec = decompose(constant_interval(2.0, CurvatureDimension(-1.5, 3.0)), LevelPoint(0.7))
        profile, cd = dec.needle.profile, dec.cd
    else:
        profile, cd = _kind_needle(kind)
    K = {"own": cd.K, "larger": 2.0 * cd.K if cd.K > 0.0 else 1.0, "zero": 0.0,
         "negative": -7.5}[K]
    for grid in (3, 40):
        _assert_sturm_matches_reference(profile, CurvatureDimension(K, cd.N), grid)


@pytest.mark.parametrize("profile, cd, grid, is_cd", _random_cd_corpus())
def test_sturm_matches_the_reference_loop_on_random_densities(profile, cd, grid, is_cd):
    # and passes at every base point exactly on the true CD(K, N) densities
    reports = _assert_sturm_matches_reference(profile, cd, grid)
    assert all(report.startswith("SturmReport(passed=True,") for report in reports) == is_cd


# ------------------------------------------------------ density ratio bound

def test_ratio_bound_spherical_needle_is_equality():
    r0 = math.pi / 3
    p = DensityProfile(-r0, math.pi - r0, lambda r: math.sin(r0 + r),
                       deriv=lambda r: math.cos(r0 + r))
    report = density_ratio_check(Needle(p, 1.0), CurvatureDimension(1.0, 2.0))
    assert report.passed
    assert abs(report.max_excess) < 1e-8
    assert report.H_used == pytest.approx(1.0 / math.tan(r0), rel=1e-12)


def test_ratio_bound_constant_needle():
    p = DensityProfile(-1.0, 1.0, lambda r: 1.0, deriv=lambda r: 0.0)
    report = density_ratio_check(Needle(p, 1.0), CurvatureDimension(0.0, 3.0))
    assert report.passed
    assert abs(report.max_excess) < 1e-12


def test_ratio_bound_flat_power_needle_is_equality():
    # (1 + r)^2 about base 1 equals J_{2,0,3} exactly
    p = DensityProfile(-1.0, 1.5, lambda r: (1.0 + r) ** 2,
                       deriv=lambda r: 2.0 * (1.0 + r))
    report = density_ratio_check(Needle(p, 1.0), CurvatureDimension(0.0, 3.0))
    assert report.passed
    assert abs(report.max_excess) < 1e-10
    assert report.H_used == pytest.approx(2.0, rel=1e-12)


def test_ratio_bound_infinite_base_curvature_raises():
    p = DensityProfile(-0.5, 0.5,
                       lambda r: 1.0 - 0.9 * math.sqrt(max(r, 0.0)),
                       deriv=lambda r: -math.inf if r == 0.0
                       else (-0.45 / math.sqrt(r) if r > 0.0 else 0.0))
    with pytest.raises(CurvatureError):
        density_ratio_check(Needle(p, 1.0), CurvatureDimension(0.0, 2.0))


def test_ratio_bound_needs_interior_base():
    p = DensityProfile(0.0, 1.0, lambda r: 1.0)
    with pytest.raises(DomainError):
        density_ratio_check(Needle(p, 1.0), CurvatureDimension(0.0, 2.0))


def _reference_density_ratio_check(needle, cd, grid_size=60):
    """density_ratio_check with a wrapper for the left side and max at every
    point."""
    profile = needle.profile
    if not profile.a < 0.0 < profile.b:
        raise DomainError("needle base must lie in the open interval")
    h0 = profile.fn(0.0)

    def side_excess(h_side, extent, H):
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


def _assert_ratio_matches_reference(needle, cd):
    for grid in (3, 60):
        assert _outcome(density_ratio_check, needle, cd, grid) == \
            _outcome(_reference_density_ratio_check, needle, cd, grid)


@pytest.mark.parametrize("K", ("own", "larger", "zero", "negative"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES) + ["constant-interval"])
def test_ratio_matches_the_reference_loop(kind, K):
    dec = decompose(*_KIND_NEEDLES.get(kind, _CONSTANT_NEEDLE))
    cd = dec.cd
    K = {"own": cd.K, "larger": 2.0 * cd.K if cd.K > 0.0 else 1.0, "zero": 0.0,
         "negative": -7.5}[K]
    _assert_ratio_matches_reference(dec.needle, CurvatureDimension(K, cd.N))


@pytest.mark.parametrize("profile, cd, grid, is_cd", _random_cd_corpus())
def test_ratio_matches_the_reference_loop_on_random_densities(profile, cd, grid, is_cd):
    # the needles with base at a quarter, a half and three quarters of the interval
    for share in (0.25, 0.5, 0.75):
        c = share * profile.b
        needle = Needle(DensityProfile(-c, profile.b - c, lambda r: profile.fn(c + r)))
        _assert_ratio_matches_reference(needle, cd)


# ------------------------------------------------------- masses, laplacian

def _mass(profile, weight=1.0):
    return weight * integrate(profile.fn, profile.a, profile.b)


def test_needle_mass_closed_forms():
    assert _mass(sin_profile()) == pytest.approx(2.0, rel=1e-10)
    assert _mass(DensityProfile(0.0, 1.0, lambda r: 1.0), 3.0) == pytest.approx(3.0, rel=1e-12)
    m = DensityProfile(0.0, 1.0, lambda r: r * r)
    assert _mass(m) == pytest.approx(1.0 / 3.0, rel=1e-10)


def _laplacian_regular_part(profile, r):
    """-(log h)'(r), the density of the regular part of the signed-distance
    Laplacian along a needle."""
    return -one_sided_log_derivative(profile, r, "plus")


def test_laplacian_regular_part_radial_flat():
    n, rho = 4, 0.7
    p = DensityProfile(-rho, 1.0, lambda r: (rho + r) ** (n - 1),
                       deriv=lambda r: (n - 1) * (rho + r) ** (n - 2))
    for r in np.linspace(-0.5, 0.9, 8):
        assert _laplacian_regular_part(p, float(r)) == \
            pytest.approx(-(n - 1) / (rho + float(r)), rel=1e-12)


def test_laplacian_regular_part_examples():
    const = DensityProfile(-1.0, 1.0, lambda r: 1.0, deriv=lambda r: 0.0)
    assert _laplacian_regular_part(const, 0.3) == 0.0

    r0 = 1.1
    p = DensityProfile(-r0, math.pi - r0, lambda r: math.sin(r0 + r),
                       deriv=lambda r: math.cos(r0 + r))
    assert _laplacian_regular_part(p, 0.0) == \
        pytest.approx(-1.0 / math.tan(r0), rel=1e-12)
    with pytest.raises(DomainError):
        _laplacian_regular_part(p, math.pi)
