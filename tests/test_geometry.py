import math
import sys
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from needlecomp import (CurvatureDimension, CurvatureError,
                        DegenerateSurfaceError, DensityProfile, EuclideanBall,
                        GeodesicSphere, LevelPoint, Needle, ParameterError,
                        RoundSphere, SphericalSuspension, WeightedInterval,
                        check_cd_density, constant_interval, decompose,
                        inner_mass, minkowski_content_from_dec, model_interval,
                        one_sided_log_derivative, tube_volume)
from needlecomp import geometry
from needlecomp.model1d import cos_kappa, sin_kappa
from needlecomp.numerics import extrapolate_to_zero, integrate
from needlecomp.needle import GRID_SIZE

SPHERE = RoundSphere(2, 1.0)
BALL = EuclideanBall(3, 1.0)
EQUATOR = GeodesicSphere(math.pi / 2)


def all_model_pairs():
    pairs = [(SPHERE, EQUATOR), (SPHERE, GeodesicSphere(math.pi / 4)),
             (SPHERE, GeodesicSphere(2 * math.pi / 3)),
             (RoundSphere(3, 1.5), GeodesicSphere(2.0)),
             (BALL, GeodesicSphere(0.5)), (EuclideanBall(2, 1.0), GeodesicSphere(0.25)),
             (EuclideanBall(5, 1.0), GeodesicSphere(0.75)),
             (SphericalSuspension(CurvatureDimension(1.0, 3.0), 2.5), GeodesicSphere(0.7))]
    for K, N in [(1.0, 2.0), (2.0, 3.0), (1.0, 4.5)]:
        cd = CurvatureDimension(K, N)
        kap = K / (N - 1.0)
        pairs.append((model_interval(cd), LevelPoint(math.pi / math.sqrt(kap) / 2)))
    return pairs


# --------------------------------------------------------------- validation

def test_geometry_validation():
    with pytest.raises(ParameterError):
        RoundSphere(1, 1.0)
    with pytest.raises(ParameterError):
        EuclideanBall(3, -1.0)
    with pytest.raises(ParameterError):
        SphericalSuspension(CurvatureDimension(0.0, 3.0), 1.0)
    with pytest.raises(ParameterError):
        # density must live on [0, length]
        WeightedInterval(2.0, DensityProfile(0.0, 1.0, lambda r: 1.0),
                         CurvatureDimension(0.0, 2.0))


def test_surface_type_must_match_geometry():
    with pytest.raises(ParameterError):
        decompose(SPHERE, LevelPoint(1.0))
    with pytest.raises(ParameterError):
        decompose(model_interval(CurvatureDimension(1.0, 2.0)), GeodesicSphere(1.0))


def test_degenerate_surface_is_rejected():
    with pytest.raises(DegenerateSurfaceError):
        decompose(SPHERE, GeodesicSphere(0.0))
    with pytest.raises(DegenerateSurfaceError):
        decompose(SPHERE, GeodesicSphere(math.pi))
    with pytest.raises(DegenerateSurfaceError):
        decompose(BALL, GeodesicSphere(1.0))


def test_decompose_rejects_one_dimensional_calculus():
    with pytest.raises(ParameterError):
        decompose(EuclideanBall(1, 1.0), GeodesicSphere(0.5))


# --------------------------------------------------------------- decompose

def test_decompose_model_interval():
    dec = decompose(model_interval(CurvatureDimension(1.0, 2.0)), LevelPoint(math.pi / 2))
    assert isinstance(dec.needle, Needle)
    needle = dec.needle
    assert needle.profile.a == pytest.approx(-math.pi / 2)
    assert needle.profile.b == pytest.approx(math.pi / 2)
    assert dec.total_mass == pytest.approx(2.0, rel=1e-10)
    assert dec.surface_total == pytest.approx(1.0, rel=1e-10)
    assert dec.H == pytest.approx(0.0, abs=1e-12)
    assert dec.diameter == pytest.approx(math.pi)


def test_needles_alias_is_the_one_needle():
    # perfbench/worker.py reads dec.needles[0]; the alias keeps it working.
    dec = decompose(SPHERE, EQUATOR)
    assert dec.needles == (dec.needle,)


def test_decompose_euclidean_ball():
    dec = decompose(BALL, GeodesicSphere(0.5))
    assert dec.total_mass == pytest.approx(4 * math.pi / 3, rel=1e-10)
    assert dec.surface_total == pytest.approx(math.pi, rel=1e-10)
    assert dec.H_plus == pytest.approx(4.0, rel=1e-12)
    assert dec.H == pytest.approx(4.0, rel=1e-12)
    assert dec.H_minus == pytest.approx(-4.0, rel=1e-12)
    assert dec.diameter == 2.0
    assert dec.cd.K == 0.0 and dec.cd.N == 3.0


def test_decompose_round_sphere_equator():
    dec = decompose(SPHERE, EQUATOR)
    assert dec.total_mass == pytest.approx(4 * math.pi, rel=1e-10)
    assert dec.surface_total == pytest.approx(2 * math.pi, rel=1e-10)
    assert dec.H == pytest.approx(0.0, abs=1e-12)
    assert dec.cd.K == pytest.approx(1.0)


def test_decompose_suspension_matches_model_density():
    cd = CurvatureDimension(2.0, 3.0)
    susp = SphericalSuspension(cd, 2.5)
    r0 = 0.8
    dec = decompose(susp, GeodesicSphere(r0))
    kap = 1.0
    norm = 2.5 * math.pi / 2.0  # base_volume * integral of sin^2 over [0, pi]
    assert dec.total_mass == pytest.approx(norm, rel=1e-10)
    needle = dec.needle
    for r in np.linspace(-0.7, 2.0, 9):
        expected = 2.5 * math.sin(r0 + float(r)) ** 2 / norm
        assert needle.profile.fn(float(r)) == pytest.approx(expected, rel=1e-12)
    assert dec.H == pytest.approx(2.0 / math.tan(r0), rel=1e-10)


def test_mean_curvature_field():
    dec = decompose(BALL, GeodesicSphere(0.5))
    assert dec.H_plus == pytest.approx(4.0, rel=1e-12)
    assert dec.H_minus == pytest.approx(-4.0, rel=1e-12)
    assert dec.H == max(dec.H_plus, -dec.H_minus)

    dec = decompose(model_interval(CurvatureDimension(1.0, 2.0)), LevelPoint(math.pi / 4))
    assert dec.H == pytest.approx(1.0, rel=1e-10)


def test_mean_curvature_max_convention():
    for geom, surf in all_model_pairs():
        dec = decompose(geom, surf)
        assert dec.H == max(dec.H_plus, -dec.H_minus)


def test_mean_curvature_rejects_infinite_base_slope():
    # the density has a cusp at the surface r0 = 0.5
    spiked = DensityProfile(0.0, 1.0, lambda r: 1.0 - 0.9 * math.sqrt(abs(r - 0.5)),
                            deriv=lambda r: -math.inf if r == 0.5
                            else math.copysign(0.45 / math.sqrt(abs(r - 0.5)), 0.5 - r))
    with pytest.raises(CurvatureError):
        decompose(WeightedInterval(1.0, spiked, CurvatureDimension(0.0, 2.0)),
                  LevelPoint(0.5))


# ------------------------------------------------------------ tube volumes

def test_tube_volume_band_on_sphere():
    dec = decompose(SPHERE, EQUATOR)
    for t in (0.25, 0.75, 1.25):
        assert tube_volume(dec, t, "outer") == pytest.approx(2 * math.pi * math.sin(t),
                                                             rel=1e-10)


def test_tube_volume_shell_on_ball():
    dec = decompose(BALL, GeodesicSphere(0.5))
    assert tube_volume(dec, 0.5, "outer") == pytest.approx(7 * math.pi / 6, rel=1e-10)


def test_tube_volume_exhausts_total_mass():
    for geom, surf in all_model_pairs():
        dec = decompose(geom, surf)
        outer = tube_volume(dec, dec.diameter, "outer")
        inner = tube_volume(dec, dec.diameter, "inner")
        assert outer + inner == pytest.approx(dec.total_mass, rel=1e-9)


def test_tube_volume_monotone_in_width():
    dec = decompose(SPHERE, GeodesicSphere(1.0))
    widths = np.linspace(0.1, math.pi, 12)
    outer = [tube_volume(dec, float(t), "outer") for t in widths]
    inner = [tube_volume(dec, float(t), "inner") for t in widths]
    assert all(b >= a - 1e-12 for a, b in zip(outer, outer[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(inner, inner[1:]))
    with pytest.raises(ParameterError):
        tube_volume(dec, 0.0, "outer")
    with pytest.raises(ParameterError):
        tube_volume(dec, 1.0, "sideways")


def test_inner_mass_of_cap():
    r0 = math.pi / 3
    dec = decompose(SPHERE, GeodesicSphere(r0))
    assert inner_mass(dec) == pytest.approx(2 * math.pi * (1 - math.cos(r0)), rel=1e-10)


@pytest.mark.parametrize("build, key", [
    (lambda: RoundSphere(1, 1.0), "n"), (lambda: RoundSphere(2, -1.0), "radius"),
    (lambda: EuclideanBall(0, 1.0), "n"), (lambda: EuclideanBall(2, math.inf), "R"),
    (lambda: CurvatureDimension(math.inf, 2.0), "K"), (lambda: CurvatureDimension(0.0, 0.5), "N"),
    (lambda: SphericalSuspension(CurvatureDimension(0.0, 3.0), 1.0), "K"),
    (lambda: SphericalSuspension(CurvatureDimension(1.0, 1.0), 1.0), "N"),
    (lambda: SphericalSuspension(CurvatureDimension(1.0, 3.0), 0.0), "base_volume"),
    (lambda: model_interval(CurvatureDimension(0.0, 3.0)), "K"),
    (lambda: model_interval(CurvatureDimension(1.0, 1.0)), "N"),
    (lambda: model_interval(CurvatureDimension(1.0, 2.0), length=4.0), "length"),
    (lambda: constant_interval(1.0, CurvatureDimension(1.0, 2.0)), "K"),
    (lambda: WeightedInterval(-1.0, DensityProfile(0.0, 1.0, math.exp),
                              CurvatureDimension(0.0, 2.0)), "length"),
    (lambda: WeightedInterval(2.0, DensityProfile(0.0, 1.0, math.exp),
                              CurvatureDimension(0.0, 2.0)), "density"),
    (lambda: constant_interval(-1.0, CurvatureDimension(0.0, 2.0)), "length"),
    (lambda: constant_interval(math.inf, CurvatureDimension(-1.0, 2.0)), "length"),
])
def test_geometry_checks_name_the_config_key_they_reject(build, key):
    with pytest.raises(ParameterError) as info:
        build()
    assert info.value.key == key
    assert str(info.value) == info.value.reason  # the key is not part of the message


# ------------------------------------------------------- minkowski content

def test_minkowski_content_closed_forms():
    assert minkowski_content_from_dec(decompose(BALL, GeodesicSphere(0.5))) == \
        pytest.approx(4 * math.pi * 0.25, rel=1e-6)
    assert minkowski_content_from_dec(decompose(SPHERE, EQUATOR)) == \
        pytest.approx(2 * math.pi, rel=1e-6)
    interval = model_interval(CurvatureDimension(1.0, 2.0))
    assert minkowski_content_from_dec(decompose(interval, LevelPoint(math.pi / 2))) == \
        pytest.approx(1.0, rel=1e-6)


def test_minkowski_matches_surface_total_everywhere():
    for geom, surf in all_model_pairs():
        dec = decompose(geom, surf)
        content = minkowski_content_from_dec(dec)
        assert content == pytest.approx(dec.surface_total, rel=1e-6)


@pytest.mark.parametrize("K", [0.0, -1.0])
def test_minkowski_schedule_of_a_constant_density(K):
    # H = 0 and K <= 0: the density does not vary, so the ray end sets the scale
    dec = decompose(constant_interval(2.0, CurvatureDimension(K, 3.0)), LevelPoint(0.5))
    assert (dec.H_plus, dec.surface_total) == (0.0, 1.0)
    eps = (0.5 * 0.0025, 0.5 * 0.00125, 0.5 * 0.000625)
    want = extrapolate_to_zero(eps, [tube_volume(dec, e, "outer") / e for e in eps])
    assert minkowski_content_from_dec(dec) == want == pytest.approx(1.0, rel=1e-12)


def test_minkowski_integrates_only_the_tubes_it_extrapolates_from():
    # at the equator |H_plus| < 1 = sqrt(K (N-1)) < the ray ends, so the scale is 1
    dec = decompose(SPHERE, EQUATOR)
    eps = (0.0025, 0.00125, 0.000625)
    want = extrapolate_to_zero(eps, [tube_volume(dec, e, "outer") / e for e in eps])
    with mock.patch.object(geometry, "tube_volume", wraps=geometry.tube_volume) as tube:
        assert minkowski_content_from_dec(dec) == want
    assert [c.args[1] for c in tube.call_args_list] == list(eps)


# ------------------------------------------------------------- consistency

def test_disintegration_consistency():
    for geom, surf in all_model_pairs():
        dec = decompose(geom, surf)
        p = dec.needle.profile
        assert dec.needle.weight * integrate(p.fn, p.a, p.b) == \
            pytest.approx(dec.total_mass, rel=1e-9)


def test_every_produced_needle_satisfies_cd_density():
    for geom, surf in all_model_pairs():
        dec = decompose(geom, surf)
        report = check_cd_density(dec.needle.profile, dec.cd, grid_size=10)
        assert report.passed, (geom, surf, report.worst_violation)


def test_euclidean_needle_laplacian_is_classical():
    n, rho = 3, 0.5
    dec = decompose(EuclideanBall(n, 1.0), GeodesicSphere(rho))
    profile = dec.needle.profile
    for r in np.linspace(-0.4, 0.45, 9):
        assert -one_sided_log_derivative(profile, float(r), "plus") == \
            pytest.approx(-(n - 1) / (rho + float(r)), rel=1e-10)


def test_constant_interval_geometry():
    geom = constant_interval(2.0, CurvatureDimension(0.0, 2.0))
    dec = decompose(geom, LevelPoint(0.5))
    assert dec.total_mass == pytest.approx(2.0, rel=1e-12)
    assert dec.surface_total == pytest.approx(1.0, rel=1e-12)
    assert dec.H == 0.0


# ---------------------------------------------- registered density shapes

def _density_calls_while_built(geom, surf):
    """How often decompose's needle profile evaluates its density while it is
    constructed."""
    counts = []

    def counting(a, b, fn, **kwargs):
        calls = [0]

        def counted(r):
            calls[0] += 1
            return fn(r)
        profile = DensityProfile(a, b, counted, **kwargs)
        counts.append(calls[0])
        return profile

    with mock.patch.object(geometry, "DensityProfile", counting):
        decompose(geom, surf)
    return counts


@pytest.mark.parametrize("geom, surf", all_model_pairs()
                         + [(constant_interval(2.0, CurvatureDimension(0.0, 2.0)),
                             LevelPoint(0.5))])
def test_registered_density_is_validated_at_a_few_points(geom, surf):
    [calls] = _density_calls_while_built(geom, surf)
    assert 4 <= calls <= 8


def test_api_density_is_validated_on_the_whole_grid():
    profile = DensityProfile(0.0, 2.0, lambda r: 1.0 + r * (2.0 - r))
    geom = WeightedInterval(2.0, profile, CurvatureDimension(0.0, 2.0))
    assert profile.mode is None
    assert _density_calls_while_built(geom, LevelPoint(0.5)) == [1024]


@pytest.mark.parametrize("K, N", [(1.0, 2.0), (3.0, 4.5), (0.01, 40.0), (100.0, 40.0),
                                  (1e4, 1.001)])
def test_inlined_model_densities_equal_the_sin_kappa_forms(K, N):
    cd = CurvatureDimension(K, N)
    kap, expo = K / (N - 1.0), N - 1.0
    interval = model_interval(cd).density
    suspension = geometry.radial_model(SphericalSuspension(cd, 2.5))
    for r in np.linspace(0.0, math.pi / math.sqrt(kap), 257)[1:-1].tolist():
        s, c = max(sin_kappa(kap, r), 0.0), cos_kappa(kap, r)
        assert interval.fn(r) == s ** expo
        assert interval.deriv(r) == expo * s ** (expo - 1.0) * c
        assert suspension.density(r) == 2.5 * s ** expo
        assert suspension.density_deriv(r) == 2.5 * expo * s ** (expo - 1.0) * c


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 60), log_radius=st.floats(-3.0, 3.0),
       share=st.floats(0.0, 0.9, exclude_min=True))
def test_sphere_density_is_accurate(n, log_radius, share):
    # |S^{n-1}| (R sin(s/R))^{n-1} for s in (0, 0.9 pi R], against 40-digit mpmath,
    # where it is a normal float.
    # The sine's argument rt * s carries rt = sqrt(K/(N-1))'s rounding errors,
    # which |theta cot theta - 1| <= 9.7 amplifies at theta = 0.9 pi: at most 18
    # epsilon in R sin(s/R), which the power multiplies by n - 1; the area
    # |S^{n-1}| and the last products add at most 16 epsilon.
    radius = 10.0 ** log_radius
    s = share * math.pi * radius
    got = geometry.radial_model(RoundSphere(n, radius)).density(s)
    with mp.workdps(40):
        R = mp.mpf(radius)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        exact = area * (R * mp.sin(mp.mpf(s) / R)) ** (n - 1)
        assume(exact >= sys.float_info.min)  # a subnormal density has no relative accuracy
        relative = abs(mp.mpf(got) - exact) / exact
    assert relative <= (18 * (n - 1) + 16) * sys.float_info.epsilon


def test_unrepresentable_radial_models_are_parameter_errors():
    with pytest.raises(ParameterError, match="overflows"):
        decompose(RoundSphere(400, 1e4), GeodesicSphere(100.0))  # R^399 overflows
    with pytest.raises(ParameterError, match="underflows"):
        decompose(RoundSphere(210, 0.01), GeodesicSphere(0.01))  # the mass is below 1e-324


@pytest.mark.parametrize("geom, surf", all_model_pairs()
                         + [(constant_interval(2.0, CurvatureDimension(0.0, 2.0)),
                             LevelPoint(0.5))])
def test_needle_mode_is_where_the_density_peaks(geom, surf):
    profile = decompose(geom, surf).needle.profile
    grid = np.linspace(profile.a, profile.b, GRID_SIZE).tolist()
    values = [profile.fn(r) for r in grid]
    for i in range(len(grid) - 1):
        if grid[i + 1] <= profile.mode:
            assert values[i] <= values[i + 1]
        if grid[i] >= profile.mode:
            assert values[i] >= values[i + 1]
    peak = max(range(len(values)), key=values.__getitem__)
    assert abs(grid[peak] - profile.mode) <= grid[1] - grid[0]
