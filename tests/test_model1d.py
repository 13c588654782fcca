import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate as sciint
from scipy.special import betaincinv

from needlecomp import (CurvatureDimension, JacobianParams, ParameterError,
                        cos_kappa, jacobian, jacobian_support, kappa_eff,
                        model_density_normalizer, model_profile,
                        model_rhs_constant_H, pi_kappa, sigma_kappa,
                        sin_kappa, unit_sphere_volume)
from needlecomp.model1d import MAX_PROFILE_N


def jp(H, K, N):
    return JacobianParams(H, CurvatureDimension(K, N))


# ------------------------------------------------------ generalized trig

def test_trig_kappa_flat():
    assert (sin_kappa(0.0, 5.0), cos_kappa(0.0, 5.0)) == (5.0, 1.0)


def test_trig_kappa_unit():
    sn, cs = sin_kappa(1.0, math.pi / 2), cos_kappa(1.0, math.pi / 2)
    assert sn == pytest.approx(1.0, abs=1e-15)
    assert cs == pytest.approx(0.0, abs=1e-15)


def test_trig_kappa_scaled():
    # closed form at kappa=4: sin(pi/2)/2 and cos(pi/2)
    sn, cs = sin_kappa(4.0, math.pi / 4), cos_kappa(4.0, math.pi / 4)
    assert sn == pytest.approx(0.5, abs=1e-15)
    assert cs == pytest.approx(0.0, abs=1e-15)


def test_trig_identity_on_grid():
    for kappa in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0):
        for r in np.linspace(-3.0, 3.0, 25):
            sn, cs = sin_kappa(kappa, float(r)), cos_kappa(kappa, float(r))
            assert abs(cs * cs + kappa * sn * sn - 1.0) < 1e-12


@given(st.floats(-4, 4), st.floats(-4, 4))
def test_trig_identity_property(kappa, r):
    sn, cs = sin_kappa(kappa, r), cos_kappa(kappa, r)
    scale = max(1.0, cs * cs, abs(kappa) * sn * sn)
    assert abs(cs * cs + kappa * sn * sn - 1.0) <= 1e-10 * scale


def test_pi_kappa():
    assert pi_kappa(0.0) == math.inf
    assert pi_kappa(-3.0) == math.inf
    assert pi_kappa(1.0) == pytest.approx(math.pi, rel=1e-15)
    assert pi_kappa(4.0) == pytest.approx(math.pi / 2, rel=1e-15)


# ------------------------------------------------- distortion coefficients

@given(st.floats(0, 1))
def test_sigma_at_zero_separation_is_exact(t):
    assert sigma_kappa(0.5, t, 0.0) == t
    assert sigma_kappa(-2.0 / 3.0, t, 0.0) == t


@given(st.floats(0, 1), st.floats(1e-6, 10))
def test_sigma_flat_is_exact(t, theta):
    assert sigma_kappa(0.0, t, theta) == t


def test_sigma_closed_form_value():
    # kappa = 1: sin(pi/4)/sin(pi/2)
    expected = math.sin(math.pi / 4) / math.sin(math.pi / 2)
    assert sigma_kappa(1.0, 0.5, math.pi / 2) == \
        pytest.approx(expected, rel=1e-15)


def test_sigma_beyond_model_diameter_is_infinite():
    kappa = 4.0  # diameter pi/2
    assert sigma_kappa(kappa, 0.5, math.pi / 2) == math.inf
    assert sigma_kappa(kappa, 0.5, 10.0) == math.inf
    assert sigma_kappa(kappa, 0.5, math.pi / 2 - 1e-9) != math.inf


def test_sigma_negative_curvature_is_finite():
    value = sigma_kappa(-2.0, 0.5, 50.0)
    assert 0.0 < value < 0.5


def test_sigma_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        sigma_kappa(0.5, -0.1, 1.0)
    with pytest.raises(ParameterError):
        sigma_kappa(0.5, 1.1, 1.0)
    with pytest.raises(ParameterError):
        sigma_kappa(0.5, 0.5, -1.0)


def test_sigma_kappa_scalar_path():
    assert type(sigma_kappa(1.0, 0.5, 1.0)) is float
    assert sigma_kappa(1.0, np.float64(0.5), 1.0) == sigma_kappa(1.0, 0.5, 1.0)


# ------------------------------------------------------ distortion profile

def test_jacobian_is_one_at_zero():
    for H, K, N in [(0.0, 0.0, 2.0), (3.0, -1.0, 2.5), (-2.0, 4.0, 7.0)]:
        assert jacobian(jp(H, K, N), 0.0) == 1.0


def test_jacobian_flat_no_curvature_is_constant():
    p = jp(0.0, 0.0, 3.0)
    for r in np.linspace(-10, 10, 21):
        assert jacobian(p, float(r)) == 1.0


def test_jacobian_flat_closed_form():
    for N in (2.0, 3.0, 4.5):
        p = jp(1.5, 0.0, N)
        for r in np.linspace(-2, 3, 31):
            base = 1.0 + 1.5 * float(r) / (N - 1.0)
            expected = max(base, 0.0) ** (N - 1.0)
            assert jacobian(p, float(r)) == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_jacobian_addition_identity():
    # H = (N-1) cot(r0) with K = N-1 reproduces (sin(r0+r)/sin(r0))_+^{N-1}
    for N in (2.0, 3.0, 4.5):
        for r0 in (math.pi / 4, math.pi / 3, 2.0):
            p = jp((N - 1.0) / math.tan(r0), N - 1.0, N)
            for r in np.linspace(-r0 + 0.05, math.pi - r0 - 0.05, 17):
                expected = (math.sin(r0 + float(r)) / math.sin(r0)) ** (N - 1.0)
                assert jacobian(p, float(r)) == pytest.approx(expected, rel=1e-12)


def _jacobian_base(p, r):
    """cos_{K/(N-1)}(r) + H/(N-1) * sin_{K/(N-1)}(r), the (N-1)-th root of J."""
    kappa = p.K / (p.N - 1.0)
    sn, cs = sin_kappa(kappa, r), cos_kappa(kappa, r)
    return cs + p.H / (p.N - 1.0) * sn


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=400, deadline=None)
@given(H=st.floats(-1e3, 1e3), sign=st.sampled_from((-1.0, 0.0, 1.0)),
       K=st.floats(1e-6, 1e4), N=st.floats(1.0, 400.0, exclude_min=True),
       r=st.floats(-1e3, 1e3))
def test_jacobian_is_its_clipped_base_to_the_power(H, sign, K, N, r):
    # bit for bit, K < 0, K = 0 and K > 0 alike, overflow of sinh or ** included
    p = jp(H, sign * K, N)
    base = _outcome(_jacobian_base, p, r)
    if base is not OverflowError:
        base = _outcome(lambda: 0.0 if base <= 0.0 else base ** (N - 1.0))
    assert _outcome(jacobian, p, r) == base


def test_jacobian_rejects_low_dimension():
    with pytest.raises(ParameterError):
        jacobian(jp(0.0, 1.0, 1.0), 0.5)
    with pytest.raises(ParameterError):
        JacobianParams(math.inf, CurvatureDimension(1.0, 2.0))


@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(2, 8),
       st.floats(0, 1.2), st.floats(0.01, 2))
def test_jacobian_monotonicity(H, K, N, r, bump):
    # On r >= 0 within the first lobe of the base (the regime the comparison
    # theory uses; beyond r = pi_{K/(N-1)} the closed form recurs), a larger
    # mean curvature or dimension bound loosens the profile while a larger
    # curvature bound tightens it.  For r < 0 the H direction reverses, since
    # J_H(-r) = J_{-H}(r).
    assume(K == 0.0 or abs(K) >= 1e-300)  # a subnormal K/(N-1) is refused
    base = jacobian(jp(H, K, N), r)
    scale = 1e-11 * max(1.0, base)
    assert jacobian(jp(H + bump, K, N), r) >= base - scale
    assert jacobian(jp(H, K + bump, N), r) <= base + scale
    assert jacobian(jp(H, K, N + bump), r) >= base - scale


def _support_oracle(p, lo, hi):
    # the base must vanish at finite endpoints, stay positive inside, and be
    # negative just outside
    if math.isfinite(lo):
        assert abs(_jacobian_base(p, lo)) < 1e-12
        assert _jacobian_base(p, lo - 1e-3) < 0.0
    if math.isfinite(hi):
        assert abs(_jacobian_base(p, hi)) < 1e-12
        assert _jacobian_base(p, hi + 1e-3) < 0.0
    for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
        a = lo if math.isfinite(lo) else -10.0
        b = hi if math.isfinite(hi) else 10.0
        assert _jacobian_base(p, a + frac * (b - a)) > 0.0


def test_jacobian_support_examples():
    for N in (2.0, 3.5):
        lo, hi = jacobian_support(jp(0.0, N - 1.0, N))
        assert (lo, hi) == pytest.approx((-math.pi / 2, math.pi / 2), rel=1e-15)
    assert jacobian_support(jp(0.0, 0.0, 3.0)) == (-math.inf, math.inf)
    assert jacobian_support(jp(1.0, 0.0, 2.0)) == (-1.0, math.inf)
    assert jacobian_support(jp(-1.0, 0.0, 2.0)) == (-math.inf, 1.0)


def test_jacobian_support_is_a_zero_bracket():
    cases = [(0.0, 1.0, 2.0), (2.0, 3.0, 2.5), (-1.5, 0.5, 4.0),
             (3.0, -1.0, 2.0), (-3.0, -1.0, 2.0), (0.5, -1.0, 2.0),
             (1.0, 0.0, 3.0), (0.0, -2.0, 3.0)]
    for H, K, N in cases:
        p = jp(H, K, N)
        lo, hi = jacobian_support(p)
        assert lo < 0.0 < hi
        _support_oracle(p, lo, hi)


def test_kappa_eff():
    assert kappa_eff(jp(0.0, 1.0, 2.0)) == 1.0
    assert kappa_eff(jp(1.0, 1.0, 2.0)) == 2.0
    assert kappa_eff(jp(3.0, 8.0, 5.0)) == pytest.approx(2.5625, rel=1e-15)


# --------------------------------------------------- model profile and rhs

def test_model_profile_half_volume():
    assert model_profile(CurvatureDimension(1.0, 2.0), 0.5) == \
        pytest.approx(0.5, abs=1e-10)


def test_model_profile_boundary_values():
    cd = CurvatureDimension(1.0, 2.0)
    assert model_profile(cd, 0.0) == 0.0
    assert model_profile(cd, 1.0) == 0.0


def test_model_profile_closed_form_n2():
    # cumulative mass is (1 - cos t)/2, so the profile is sqrt(v (1 - v))
    cd = CurvatureDimension(1.0, 2.0)
    for v in np.linspace(0.05, 0.95, 19):
        v = float(v)
        assert model_profile(cd, v) == pytest.approx(math.sqrt(v * (1 - v)), abs=1e-10)


@pytest.mark.parametrize("K, N, v", [(1e308, 1.0000001, 0.3), (1e308, 1.0000001, 0.0),
                                     (1e300, 1.0 + 1e-10, 0.5)])
def test_model_profile_overflow_is_a_parameter_error(K, N, v):
    # K/(N-1) overflows a float: the profile was inf (or 0.0 at v = 0), and now
    # CurvatureDimension refuses K
    with pytest.raises(ParameterError, match=r"^K/\(N-1\) overflows a float"):
        model_profile(CurvatureDimension(K, N), v)


def _mp_profile(K, N, v):
    """The model profile at 40 digits: Newton's method on I_z(1/2, N/2) = 1 - y
    for z = 1 - x, from the Gaussian limit of z, which keeps the hypergeometric
    series of mpmath's betainc short where N is large."""
    with mp.workdps(40):
        K, N, y = mp.mpf(K), mp.mpf(N), 2 * mp.mpf(min(v, 1.0 - v))
        a, z = N / 2, (mp.sqrt(2) * mp.erfinv(1 - y)) ** 2 / (N - 1)
        beta = mp.beta(0.5, a)
        for _ in range(30):
            step = ((mp.betainc(0.5, a, 0, z, regularized=True) - (1 - y))
                    / (z ** -0.5 * (1 - z) ** (a - 1) / beta))
            z = max(z - step, z / 2)
        return mp.sqrt(K / (N - 1)) * (1 - z) ** ((N - 1) / 2) / beta


@pytest.mark.parametrize("K", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("v", [1e-12, 0.01, 0.3, 0.5 - 1e-6])
def test_model_profile_at_its_dimension_cap_agrees_with_mpmath(K, v):
    # the power (N-1)/2 multiplies x's rounding error: at the cap it is still
    # below 1e-9 relative
    got = model_profile(CurvatureDimension(K, MAX_PROFILE_N), v)
    assert abs(got / _mp_profile(K, MAX_PROFILE_N, v) - 1) <= 1e-9


@pytest.mark.parametrize("K, N, v", [(1.0, 1e16, 0.3), (1.0, 1e17, 0.01),
                                     (1e300, 1e300, 1e-300),
                                     (1.0, math.nextafter(MAX_PROFILE_N, math.inf), 0.3)])
def test_model_profile_refuses_a_dimension_above_its_cap(K, N, v):
    # it printed phi(0) for v = 0.3 at N = 1e16, 26457.4 for v = 0.01 at
    # N = 1e17, and ran for half a minute at N = 1e300
    with pytest.raises(ParameterError, match="^the model profile is resolved only for N <= ") \
            as err:
        model_profile(CurvatureDimension(K, N), v)
    assert err.value.key == "N"


@pytest.mark.parametrize("K, N, v, value", [
    (1.0, 1.5, 0.3, 0.55450013358288), (2.5, 2.0, 0.01, 0.15732132722552275),
    (1.0, 3.0, 1e-300, 1.2652971980247824e-200), (0.7, 10.0, 0.5, 0.34316133900811696),
    (1.0, 57.5, 0.97, 0.06942248280515424), (3.0, 400.0, 0.3, 0.6027025021003473),
    (1.0, 400.0, 1e-12, 7.40408978213783e-12)])
def test_model_profile_below_its_cap_keeps_its_floats(K, N, v, value):
    # the values before the cap was introduced, bit for bit
    assert model_profile(CurvatureDimension(K, N), v) == value


def test_model_profile_symmetry():
    for K, N in [(2.0, 3.0), (1.0, 4.5)]:
        cd = CurvatureDimension(K, N)
        for v in np.linspace(0.1, 0.45, 8):
            v = float(v)
            assert model_profile(cd, v) == pytest.approx(model_profile(cd, 1.0 - v),
                                                         abs=1e-9)


def test_model_profile_concavity():
    for K, N in [(1.0, 2.0), (2.0, 3.0), (1.0, 4.5)]:
        cd = CurvatureDimension(K, N)
        vs = np.linspace(0.02, 0.98, 33)
        values = [model_profile(cd, float(v)) for v in vs]
        second = np.diff(values, 2)
        assert second.max() <= 1e-9


def test_model_profile_rejects_nonpositive_curvature():
    with pytest.raises(ParameterError):
        model_profile(CurvatureDimension(0.0, 2.0), 0.5)
    with pytest.raises(ParameterError):
        model_profile(CurvatureDimension(-1.0, 2.0), 0.5)
    with pytest.raises(ParameterError):
        model_profile(CurvatureDimension(1.0, 2.0), 1.5)


def test_model_rhs_closed_forms():
    assert model_rhs_constant_H(jp(0.0, 1.0, 2.0)) == pytest.approx(2.0, rel=1e-10)
    assert model_rhs_constant_H(jp(1.0, 1.0, 2.0)) == \
        pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)


def test_model_rhs_matches_direct_quadrature():
    # independent route: integrate J itself over its support
    for H, K, N in [(0.0, 1.0, 2.0), (1.0, 1.0, 2.0), (2.0, 2.0, 3.0),
                    (-1.5, 1.0, 4.5), (0.7, 3.0, 2.5)]:
        p = jp(H, K, N)
        lo, hi = jacobian_support(p)
        direct, _ = sciint.quad(lambda r: jacobian(p, r), lo, hi, limit=200)
        assert model_rhs_constant_H(p) == pytest.approx(direct, rel=1e-9)
    with pytest.raises(ParameterError):
        model_rhs_constant_H(jp(0.0, 0.0, 2.0))


def test_model_density_normalizer_n2():
    assert model_density_normalizer(CurvatureDimension(1.0, 2.0)) == \
        pytest.approx(2.0, rel=1e-10)


# Oracle: the model space's definition evaluated by mpmath quadrature at 45
# digits, independent of the incomplete-beta closed forms under test.
ORACLE_DPS = 45
ORACLE_N = (1.001, 1.5, 2.0, 3.0, 4.5, 7.3, 20.0, 60.0)
ORACLE_K = (1e-3, 1.0, 1e3)
ORACLE_V = (1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12)


def _sin_power_mass(m, theta):
    return mp.quad(lambda s: mp.sin(s) ** m, [0, theta])


@functools.lru_cache(maxsize=None)
def _oracle_unit_profile(N: float, v: float):
    """Profile at fraction v of the model with kappa = 1: sin^{N-1}(theta) / T
    where the mass of [0, theta] is min(v, 1 - v) T, T the total mass.  theta
    is found by Newton's method on the quadrature, started from a float guess."""
    with mp.workdps(ORACLE_DPS):
        m = mp.mpf(N) - 1
        total = _sin_power_mass(m, mp.pi)
        w = min(mp.mpf(v), 1 - mp.mpf(v))
        theta = mp.asin(mp.sqrt(betaincinv(0.5 * N, 0.5, 2.0 * float(w))))
        for _ in range(30):
            step = (_sin_power_mass(m, theta) - w * total) / mp.sin(theta) ** m
            theta -= step
            if abs(step) < mp.mpf(10) ** -30 * theta:
                return mp.sin(theta) ** m / total
    raise AssertionError(f"oracle root did not converge at N={N}, v={v}")


@pytest.mark.parametrize("N", ORACLE_N)
def test_model_profile_matches_mpmath_oracle(N):
    for K in ORACLE_K:
        cd = CurvatureDimension(K, N)
        with mp.workdps(ORACLE_DPS):
            scale = mp.sqrt(mp.mpf(K) / (mp.mpf(N) - 1))
            for v in ORACLE_V:
                expected = scale * _oracle_unit_profile(N, v)
                got = model_profile(cd, v)
                assert abs(got / expected - 1) <= 1e-11, (K, N, v, got, expected)


@pytest.mark.parametrize("N", ORACLE_N)
def test_model_density_normalizer_matches_mpmath_oracle(N):
    for K in ORACLE_K:
        with mp.workdps(ORACLE_DPS):
            rt = mp.sqrt(mp.mpf(K) / (mp.mpf(N) - 1))
            expected = mp.quad(lambda r: (mp.sin(rt * r) / rt) ** (mp.mpf(N) - 1),
                               [0, mp.pi / rt])
            got = model_density_normalizer(CurvatureDimension(K, N))
            assert abs(got / expected - 1) <= 1e-11, (K, N, got, expected)


def test_closed_forms_past_gamma_overflow():
    # Gamma(N/2) overflows a float for N > 343; B(N/2, 1/2) is still finite
    N = 400.0
    cd = CurvatureDimension(N - 1.0, N)  # kappa = 1
    with mp.workdps(ORACLE_DPS):
        total = _sin_power_mass(mp.mpf(N) - 1, mp.pi)
        assert abs(model_density_normalizer(cd) / total - 1) <= 1e-11
        for v in (1e-6, 0.5):
            expected = _oracle_unit_profile(N, v)
            assert abs(model_profile(cd, v) / expected - 1) <= 1e-11


def test_model_profile_terminates_at_tiny_curvature(run_isolated):
    # a bisection with an absolute bracket width never terminated here
    out = run_isolated("from needlecomp import CurvatureDimension, model_profile\n"
                       "print(repr(model_profile(CurvatureDimension(2e-8, 3.0), 0.3)))")
    with mp.workdps(ORACLE_DPS):
        expected = mp.sqrt(mp.mpf(2e-8) / 2) * _oracle_unit_profile(3.0, 0.3)
        assert abs(float(out) / expected - 1) <= 1e-11


def test_unit_sphere_volume():
    assert unit_sphere_volume(0) == pytest.approx(2.0, rel=1e-14)
    assert unit_sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert unit_sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


@pytest.mark.parametrize("dim", [100, 340, 341, 342, 343, 399, 420])
def test_unit_sphere_volume_past_gamma_overflow(dim):
    # Gamma((dim + 1) / 2) overflows from dim = 343 on; the area is tiny and finite
    with mp.workdps(ORACLE_DPS):
        half = mp.mpf(dim + 1) / 2
        expected = 2 * mp.pi ** half / mp.gamma(half)
    assert abs(unit_sphere_volume(dim) / expected - 1) <= 1e-12


def test_curvature_dimension_validation():
    with pytest.raises(ParameterError):
        CurvatureDimension(math.nan, 2.0)
    with pytest.raises(ParameterError):
        CurvatureDimension(1.0, 0.5)
    with pytest.raises(ParameterError):
        CurvatureDimension(1.0, math.inf)
