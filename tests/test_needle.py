import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needlecomp import (CdDensityReport, CurvatureDimension, CurvatureError,
                        DensityProfile, DomainError, EuclideanBall, GeodesicSphere,
                        JacobianParams, LevelPoint, Needle, NeedlecompError,
                        ParameterError, RoundSphere, SphericalSuspension,
                        WeightedInterval, check_cd_density, constant_interval,
                        decompose, density_ratio_check, geometry, jacobian,
                        laplacian_regular_part, model_interval, needle_mass,
                        one_sided_log_derivative, sigma_kappa, sturm_bound_check)
from needlecomp import needle as needle_module
from needlecomp.numerics import INEQ_SLACK


def sin_profile(grid_size=1024):
    return DensityProfile(0.0, math.pi, math.sin, grid_size=grid_size)


# ------------------------------------------------------------ construction

def test_profile_requires_ordered_interval():
    with pytest.raises(ParameterError):
        DensityProfile(1.0, 0.0, lambda r: 1.0)


def test_profile_requires_positive_interior():
    with pytest.raises(ParameterError):
        DensityProfile(-1.0, 1.0, lambda r: r)  # negative on half the interval


def test_profile_samples_are_cached_evaluations():
    p = sin_profile(grid_size=64)
    grid = p.grid()
    assert len(p.samples) == 64
    for r, s in zip(grid, p.samples):
        assert s == math.sin(float(r))
    assert not p.samples.flags.writeable


def test_profile_power_chains_derivative():
    p = DensityProfile(0.0, 2.0, lambda r: (1.0 + r) ** 3,
                       deriv=lambda r: 3.0 * (1.0 + r) ** 2)
    q = p.power(1.0 / 3.0)
    assert q.fn(1.0) == pytest.approx(2.0, rel=1e-14)
    assert q.deriv(1.0) == pytest.approx(1.0, rel=1e-12)


def test_profile_power_samples_equal_reevaluation():
    p = DensityProfile(0.0, math.pi, lambda r: 2.0 * math.sin(r) ** 3, grid_size=257)
    for exponent in (0.5, 1.0 / 3.0, 2.0):
        q = p.power(exponent)
        assert q.samples.tolist() == [q.fn(float(r)) for r in q.grid()]
        assert not q.samples.flags.writeable
        assert (q.a, q.b, q.grid_size) == (p.a, p.b, p.grid_size)


def test_profile_power_validates_its_samples():
    # positive samples whose square underflows to 0 in the interior
    p = DensityProfile(0.0, 1.0, lambda r: 1e-200)
    with pytest.raises(ParameterError):
        p.power(2.0)


def _grid_seen_by_fn(a, b, n):
    """The points a construction evaluates fn at, in order."""
    seen = []
    DensityProfile(a, b, lambda r: seen.append(r) or 1.0, grid_size=n)
    return seen


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
@pytest.mark.parametrize("a, b", [(0.0, math.pi), (-7.5, -0.25), (-3.0, 11.0),
                                  (1e-300, 3e-300), (0.0, 5e-324), (0.0, 1e-320),
                                  (1.0, 1.0 + 2.0 ** -40), (-1e300, 1e300), (1e15, 1e300)])
def test_profile_grid_is_numpy_linspace(a, b, n):
    seen = _grid_seen_by_fn(a, b, n)
    assert seen == np.linspace(a, b, n).tolist()
    assert all(type(r) is float for r in seen)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1e6, 1e6), width=st.floats(1e-300, 1e6),
       n=st.integers(2, 300))
def test_profile_grid_is_numpy_linspace_on_random_intervals(a, width, n):
    b = a + width
    if b > a:
        assert _grid_seen_by_fn(a, b, n) == np.linspace(a, b, n).tolist()


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


GRID = np.linspace(0.0, 1.0, 64).tolist()
VALIDATION_CASES = {
    "positive": (lambda r: 1.0 + r, 64),
    "nan inside": (_at(GRID[10], math.nan), 64),
    "nan at an end": (_at(0.0, math.nan), 64),
    "inf inside": (_at(GRID[10], math.inf), 64),
    "-inf inside": (_at(GRID[10], -math.inf), 64),
    "inf at an end": (_at(1.0, math.inf), 64),
    "zero inside": (_at(GRID[10], 0.0), 64),
    "zero at both ends": (lambda r: r * (1.0 - r), 64),
    "negative end": (_at(0.0, -1e-300), 64),
    "negative inside": (lambda r: r - 0.5, 64),
    "no interior": (lambda r: 1.0, 2),
    "no interior, zero ends": (lambda r: 0.0, 2),
    "no interior, negative end": (_at(1.0, -1.0), 2),
    "no interior, nan end": (_at(1.0, math.nan), 2),
    "int values": (lambda r: 3, 64),
}


@pytest.mark.parametrize("name", sorted(VALIDATION_CASES))
def test_profile_validation_matches_numpy(name):
    fn, n = VALIDATION_CASES[name]
    values = [fn(r) for r in np.linspace(0.0, 1.0, n).tolist()]
    assert _constructs(lambda: DensityProfile(0.0, 1.0, fn, grid_size=n)) == \
        _numpy_verdict(values)


@pytest.mark.parametrize("value, exponent", [(1e-200, 2.0), (1e-200, 1.5), (1e-100, 2.0),
                                             (1e-300, 0.5), (5e-324, 0.999)])
def test_profile_power_validation_matches_numpy(value, exponent):
    # a power that underflows to 0 in the interior is rejected
    p = DensityProfile(0.0, 1.0, lambda r: value)
    powered = [s ** exponent for s in p.samples.tolist()]
    assert _constructs(lambda: p.power(exponent)) == _numpy_verdict(powered)


def _verdict(make):
    """None when make() succeeds, else the type of the error it raises."""
    try:
        make()
    except (ParameterError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return None


def _full_grid_verdict(a, b, fn, n, exponent=None):
    """The construction verdict (or power(exponent)'s) from every point of
    np.linspace(a, b, n): the reference that a declared mode must reproduce."""
    try:
        values = [fn(r) for r in np.linspace(a, b, n).tolist()]
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


def assert_mode_verdict_is_full_verdict(a, b, fn, mode, n=1024, exponent=None):
    make = lambda: DensityProfile(a, b, fn, grid_size=n, mode=mode)
    got = _verdict(make)
    assert got == _full_grid_verdict(a, b, fn, n)
    if exponent is not None and got is None:
        assert _verdict(lambda: make().power(exponent)) == \
            _full_grid_verdict(a, b, fn, n, exponent)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3), at=st.floats(-0.1, 1.1),
       steep=st.floats(0.0, 1e4), scale_exp=st.floats(-330.0, 320.0),
       n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 17, 1024]),
       exponent=st.sampled_from([-2.0, -0.5, 1e-3, 0.5, 1.0, 3.0, 250.0]))
def test_mode_verdict_is_full_grid_verdict(a, width, at, steep, scale_exp, n, exponent):
    # a Gaussian bump, possibly centred off the interval, that underflows to 0
    # away from its mode or overflows a float near it
    b = a + width
    mode = a + at * width
    scale = 10.0 ** scale_exp if scale_exp < 308.0 else math.inf
    fn = lambda r: scale * math.exp(-steep * ((r - mode) / width) ** 2)
    assert_mode_verdict_is_full_verdict(a, b, fn, mode, n, exponent)


@pytest.mark.parametrize("fn, mode", [
    (lambda r: 1e200 * (1.0 - abs(r - 0.3)), 0.3),  # the power overflows at the peak
    (lambda r: max(math.sin(math.pi * r), 0.0) ** 200, 0.5),  # interior values underflow
    (lambda r: 5e-324 if r < 0.7 else 1.0, 1.0),  # a subnormal plateau, power underflows
    (lambda r: 1e300 * math.exp(800.0 * r) if r < 0.9 else 0.0, 0.9),  # fn overflows
])
def test_mode_verdict_on_float_extremes(fn, mode):
    for n in (2, 3, 1024):
        for exponent in (0.5, 2.0):
            assert_mode_verdict_is_full_verdict(0.0, 1.0, fn, mode, n, exponent)


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
    grid = np.linspace(-0.3, 1.9, 1024).tolist()
    k = max(i for i, r in enumerate(grid) if r <= 1.0)
    assert seen == [grid[i] for i in (0, 1, k - 1, k, k + 1, k + 2, 1022, 1023)]
    assert p.samples.tolist() == [p.fn(r) for r in grid]  # built on first access
    assert p.power(0.5).samples.tolist() == [p.fn(r) ** 0.5 for r in grid]


def test_mode_must_not_be_nan():
    with pytest.raises(ParameterError):
        DensityProfile(0.0, 1.0, lambda r: 1.0, mode=math.nan)


def test_power_keeps_a_positive_mode_and_drops_another():
    p = DensityProfile(0.0, 1.0, lambda r: 1.0 + r, mode=1.0)
    assert p.power(0.5).mode == 1.0
    q = p.power(-1.0)  # a decreasing profile
    assert q.mode is None
    assert q.samples.tolist() == [1.0 / (1.0 + r) for r in np.linspace(0.0, 1.0, 1024)]


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
    """The triple loop, one scalar distortion coefficient per call."""
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


def _kind_needle(kind):
    dec = decompose(*_KIND_NEEDLES[kind])
    return dec.needles[0].profile, dec.cd


def _assert_same_report(got, want):
    assert type(got.worst_violation) is float
    assert all(type(x) is float for x in got.witness or ())
    # NaN-free and equal bit for bit; inf == inf covers violated 2K bounds
    assert (got.worst_violation, got.witness, got.passed) == \
        (want.worst_violation, want.witness, want.passed)


@pytest.mark.parametrize("grid", (3, 10, 24, 48, 70))
@pytest.mark.parametrize("bound", ("true", "violated"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_matches_triple_loop(kind, bound, grid):
    profile, cd = _kind_needle(kind)
    if bound == "violated":
        cd = CurvatureDimension(2.0 * cd.K if cd.K > 0.0 else 1.0, cd.N)
    got = check_cd_density(profile, cd, grid)
    _assert_same_report(got, _reference_cd_density(profile, cd, grid))
    assert got.passed == (bound == "true")


@pytest.mark.parametrize("grid", (3, 24))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_negative_curvature_matches_triple_loop(kind, grid):
    # np.sinh and math.sinh may differ in the last bit
    profile, cd = _kind_needle(kind)
    for K in (-1.0, -7.5):
        cd_neg = CurvatureDimension(K, cd.N)
        got = check_cd_density(profile, cd_neg, grid)
        want = _reference_cd_density(profile, cd_neg, grid)
        assert got.passed == want.passed
        assert abs(got.worst_violation - want.worst_violation) <= \
            1e-12 * max(1.0, abs(want.worst_violation))


def test_cd_density_overflow_raises_as_the_triple_loop():
    # sinh(sqrt(-kappa) theta) overflows a float for the wider separations
    p = DensityProfile(0.0, 10.0, lambda r: 1.0 + r)
    cd = CurvatureDimension(-1e4, 2.0)
    with pytest.raises(OverflowError):
        _reference_cd_density(p, cd, 12)
    with pytest.raises(OverflowError):
        check_cd_density(p, cd, 12)


def test_cd_density_beyond_model_diameter_is_infinite():
    # separations past pi_kappa = pi get an infinite right side
    p = DensityProfile(0.0, 10.0, lambda r: 1.0 + 0.1 * r)
    cd = CurvatureDimension(1.0, 2.0)
    got = check_cd_density(p, cd, grid_size=12)
    _assert_same_report(got, _reference_cd_density(p, cd, 12))
    assert got.worst_violation == math.inf and not got.passed


def test_cd_density_skips_nan_midpoints():
    # the 2-point validation grid sees only the endpoints
    fn = lambda r: math.nan if 0.3 < r < 0.6 else math.exp(-r * r)
    p = DensityProfile(0.0, 1.0, fn, grid_size=2)
    for K in (0.0, 1.0, 4.0):
        cd = CurvatureDimension(K, 3.0)
        got = check_cd_density(p, cd, grid_size=16)
        _assert_same_report(got, _reference_cd_density(p, cd, 16))
        assert math.isfinite(got.worst_violation)


def test_cd_density_all_nan_grid():
    p = DensityProfile(0.0, 1.0, lambda r: 1.0 if r in (0.0, 1.0) else math.nan,
                       grid_size=2)
    report = check_cd_density(p, CurvatureDimension(1.0, 2.0), grid_size=8)
    assert report.worst_violation == -math.inf
    assert report.witness is None
    assert report.passed


# Triples per block: one pair per block at any grid, and 7 pairs per block at
# grid 24, which leaves 3 of its 276 pairs for the last block.
@pytest.fixture(params=(1, 7 * 24 + 5), ids=("one-pair", "seven-pairs"))
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(needle_module, "_CD_BLOCK_TRIPLES", request.param)


@pytest.mark.parametrize("bound", ("true", "violated"))
@pytest.mark.parametrize("kind", sorted(_KIND_NEEDLES))
def test_cd_density_blocks_match_triple_loop(small_blocks, kind, bound):
    test_cd_density_matches_triple_loop(kind, bound, 24)


def test_cd_density_blocks_keep_the_first_infinite_witness(small_blocks):
    test_cd_density_beyond_model_diameter_is_infinite()  # inf in several blocks


def test_cd_density_blocks_of_nan_have_no_witness(small_blocks):
    test_cd_density_all_nan_grid()


def test_cd_density_memory_stays_bounded():
    # the point index and one block of triples; a single array pass over all
    # 54k triples of grid 48 peaks at about 5 MB
    profile, cd = _kind_needle("spherical-suspension")
    check_cd_density(profile, cd, 48)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        check_cd_density(profile, cd, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


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


# ------------------------------------------------------- masses, laplacian

def test_needle_mass_closed_forms():
    p = sin_profile()
    assert needle_mass(Needle(p, 1.0)) == pytest.approx(2.0, rel=1e-10)
    q = DensityProfile(0.0, 1.0, lambda r: 1.0)
    assert needle_mass(Needle(q, 3.0)) == pytest.approx(3.0, rel=1e-12)
    m = DensityProfile(0.0, 1.0, lambda r: r * r)
    assert needle_mass(Needle(m, 1.0)) == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_needle_mass_invariant_under_grid_refinement():
    coarse = Needle(sin_profile(grid_size=128), 1.0)
    fine = Needle(sin_profile(grid_size=4096), 1.0)
    assert needle_mass(coarse) == pytest.approx(needle_mass(fine), rel=1e-12)


def test_laplacian_regular_part_radial_flat():
    n, rho = 4, 0.7
    p = DensityProfile(-rho, 1.0, lambda r: (rho + r) ** (n - 1),
                       deriv=lambda r: (n - 1) * (rho + r) ** (n - 2))
    needle = Needle(p, 1.0)
    for r in np.linspace(-0.5, 0.9, 8):
        assert laplacian_regular_part(needle, float(r)) == \
            pytest.approx(-(n - 1) / (rho + float(r)), rel=1e-12)


def test_laplacian_regular_part_examples():
    const = Needle(DensityProfile(-1.0, 1.0, lambda r: 1.0, deriv=lambda r: 0.0), 1.0)
    assert laplacian_regular_part(const, 0.3) == 0.0

    r0 = 1.1
    p = DensityProfile(-r0, math.pi - r0, lambda r: math.sin(r0 + r),
                       deriv=lambda r: math.cos(r0 + r))
    assert laplacian_regular_part(Needle(p, 1.0), 0.0) == \
        pytest.approx(-1.0 / math.tan(r0), rel=1e-12)
    with pytest.raises(DomainError):
        laplacian_regular_part(Needle(p, 1.0), math.pi)
