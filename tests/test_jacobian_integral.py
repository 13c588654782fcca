"""The integral of the distortion profile J_{H,K,N}: closed forms for K >= 0
against mpmath at 40 digits, the quadrature for K < 0, and its float limits."""

import math
import random
import sys
from functools import partial
from pathlib import Path

import mpmath as mp
import pytest

from needlecomp import (CurvatureDimension, JacobianParams, ParameterError,
                        hk_full, jacobian, jacobian_integral, jacobian_support,
                        model_interval, model_rhs_constant_H, numerics)
from needlecomp.cli import main
from needlecomp.geometry import LevelPoint, WeightedInterval, decompose
from needlecomp.needle import DensityProfile
from needlecomp.numerics import integrate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DPS = 40
REL_TOL = 1e-12


def jp(H, K, N):
    return JacobianParams(H, CurvatureDimension(K, N))


def _mp_integral(p, lo, hi):
    """(integral of J over [lo, hi] within its support, its condition number)
    from the same float inputs: for K > 0 through mpmath's incomplete beta
    function, for K = 0 through the power law.  The integral is None where it
    has no float value.  The condition number, (|lo| J(lo) + |hi| J(hi)) / the
    integral, bounds the relative error that rounding lo * sqrt(kappa) or
    lam * hi passes on to any evaluation from floats, quadrature included."""
    with mp.workdps(DPS):
        m = mp.mpf(p.N) - 1
        kappa, lam = mp.mpf(p.K) / m, mp.mpf(p.H) / m
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        if kappa > 0:
            # J(r) = (A sin v)^m with v = sqrt(kappa) r + atan2(1, c) in [0, pi]
            rt = mp.sqrt(kappa)
            c = lam / rt
            a, half = (m + 1) / 2, mp.pi / 2

            def mass(v1, v2):  # of sin^m over [v1, v2], never across pi/2
                if v2 <= half:
                    return mp.betainc(a, 0.5, mp.sin(v1) ** 2, mp.sin(v2) ** 2) / 2
                if v1 >= half:
                    return mp.betainc(a, 0.5, mp.sin(v2) ** 2, mp.sin(v1) ** 2) / 2
                return mass(v1, half) + mass(half, v2)

            amp_m = (1 + c * c) ** (m / 2)
            v1, v2 = (min(max(rt * r + mp.atan2(1, c), 0), mp.pi) for r in (lo, hi))
            value = amp_m / rt * mass(v1, v2) if v2 > v1 else mp.mpf(0)
            ends = abs(lo) * amp_m * mp.sin(v1) ** m + abs(hi) * amp_m * mp.sin(v2) ** m
        elif lam == 0:
            value, ends = hi - lo, abs(lo) + abs(hi)
        else:
            jac = lambda r: max(1 + lam * r, 0) ** m
            value = max((jac(hi) * (1 + lam * hi) - jac(lo) * (1 + lam * lo)) / (lam * (m + 1)), 0)
            ends = abs(lo) * jac(lo) + abs(hi) * jac(hi)
        if value >= mp.mpf(2) ** 1024:
            return None, None
        return value, ends / value if value > 0 else mp.inf


def _assert_matches(p, lo, hi):
    expected, condition = _mp_integral(p, lo, hi)
    if expected is None:
        with pytest.raises(ParameterError, match="overflows"):
            jacobian_integral(p, lo, hi)
        return
    got = jacobian_integral(p, lo, hi)
    if expected < 1e-290:  # not a normal float
        assert got <= 1e-280, (p, lo, hi, got)
        return
    slack = max(REL_TOL, 4 * sys.float_info.epsilon * condition)
    assert abs(got / expected - 1) <= slack, (p, lo, hi, got, float(expected), condition)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _positive_K_params(rng):
    """N from 1.001 to 400 and |c| = |H / ((N-1) sqrt(kappa))| from 0 to 1e3."""
    N = _log_uniform(rng, 1.001, 400.0)
    K = _log_uniform(rng, 1e-2, 1e2)
    c = 0.0 if rng.random() < 0.1 else rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-6, 1e3)
    return jp(c * (N - 1.0) * math.sqrt(K / (N - 1.0)), K, N)


def test_positive_K_full_support_is_model_rhs_constant_H():
    rng = random.Random(1501)
    for _ in range(100):
        p = _positive_K_params(rng)
        lo, hi = jacobian_support(p)
        _assert_matches(p, lo - 1.0, hi + 1.0)
        if _mp_integral(p, lo, hi)[0] is not None:
            whole = model_rhs_constant_H(p)
            for a, b in ((lo, hi), (lo - 1.0, hi + 1.0), (-math.inf, math.inf)):
                assert jacobian_integral(p, a, b) == whole


def test_positive_K_matches_mpmath():
    rng = random.Random(1502)
    for _ in range(200):
        p = _positive_K_params(rng)
        lo, hi = jacobian_support(p)
        width = hi - lo
        peak = 0.5 * (lo + hi)
        t = width * _log_uniform(rng, 1e-6, 1.0)
        D = width * rng.uniform(0.05, 1.2)
        u, w = width * _log_uniform(rng, 1e-3, 0.5), width * _log_uniform(rng, 1e-3, 0.5)
        for a, b in ((0.0, t),  # an outer tube
                     (-D, D),  # both sides, clipped at the support ends once D is large
                     (peak - u, peak + w),  # across the peak of J
                     (peak - u - w, peak - u),  # on its rising side
                     (peak + u, peak + u + w)):  # on its falling side
            _assert_matches(p, a, b)


def test_zero_K_matches_mpmath():
    rng = random.Random(1503)
    for _ in range(150):
        N = _log_uniform(rng, 1.001, 400.0)
        lam = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-12, 1e4)
        p = jp(lam * (N - 1.0), 0.0, N)
        scale = 1.0 / abs(lam)
        t = scale * _log_uniform(rng, 1e-6, 1e3)
        D = scale * _log_uniform(rng, 1e-6, 2.0)
        for a, b in ((0.0, t), (-t, 0.0), (-D, D)):
            _assert_matches(p, a, b)
    _assert_matches(jp(0.0, 0.0, 3.0), -2.5, 7.0)  # J = 1


def test_narrow_intervals_are_integrated_by_quadrature():
    # Away from r = 0 an interval much narrower than J's variation is the
    # difference of two nearly equal masses; the quadrature keeps its digits.
    p = jp(2.0, 1.0, 120.0)
    lo, hi = jacobian_support(p)
    a = lo + 0.3 * (hi - lo)
    for width in (1e-9, 1e-6, 1e-3):
        b = a + width * (hi - lo)
        assert jacobian_integral(p, a, b) == integrate(partial(jacobian, p), a, b)
        _assert_matches(p, a, b)


def _parent_jacobian_integral(p, lo, hi):
    """The quadrature of J over [lo, hi] clipped to its support."""
    sup_lo, sup_hi = jacobian_support(p)
    a, b = max(lo, sup_lo), min(hi, sup_hi)
    return integrate(partial(jacobian, p), a, b) if b > a else 0.0


@pytest.mark.parametrize("H, K, N, lo, hi", [
    (0.3, -1.0, 3.0, 0.0, 1.5),
    (-2.0, -0.5, 4.5, -1.0, 1.0),
    (5.0, -2.0, 2.0, -3.0, 3.0),  # a support end inside [lo, hi]
    (-0.1, -1e-3, 60.0, -10.0, 0.5),
])
def test_negative_K_keeps_the_quadrature_bit_for_bit(H, K, N, lo, hi):
    p = jp(H, K, N)
    assert jacobian_integral(p, lo, hi) == _parent_jacobian_integral(p, lo, hi)


def test_negative_K_hk_full_integrates_J(monkeypatch):
    cd = CurvatureDimension(-1.0, 3.0)
    length = 2.0
    density = DensityProfile(0.0, length, lambda r: math.cosh(r) ** 2, mode=length)
    dec = decompose(WeightedInterval(length=length, density=density, cd=cd), LevelPoint(0.8))
    integrated = []
    original = numerics.dqagse
    monkeypatch.setattr(numerics, "dqagse",
                        lambda fn, *rest: integrated.append(fn) or original(fn, *rest))
    report = hk_full(dec)
    assert any(isinstance(fn, partial) and fn.func is jacobian for fn in integrated)
    D = dec.diameter
    expected = dec.needle.weight * dec.needle.profile.fn(0.0) * \
        _parent_jacobian_integral(JacobianParams(dec.H, cd), -D, D)
    assert report.rhs == expected


def test_nonnegative_K_right_sides_integrate_no_J(monkeypatch):
    dec = decompose(model_interval(CurvatureDimension(1.0, 3.5)), LevelPoint(0.9))
    integrated = []
    original = numerics.dqagse
    monkeypatch.setattr(numerics, "dqagse",
                        lambda fn, *rest: integrated.append(fn) or original(fn, *rest))
    hk_full(dec)
    assert not any(isinstance(fn, partial) and fn.func is jacobian for fn in integrated)


@pytest.mark.parametrize("p, lo, hi", [
    (jp(1e5, 1.0, 400.0), -1e3, 1e3),  # the full support: A^{N-1} overflows
    (jp(1e5, 1.0, 400.0), 0.0, 1.0),  # the mass on either side of the peak
    (jp(299e3, 0.0, 300.0), 0.0, 10.0),  # (1 + lam r)^N
    (jp(50.0, -1.0, 300.0), 0.0, 100.0),  # the quadrature of J
])
def test_overflow_is_a_parameter_error(p, lo, hi):
    with pytest.raises(ParameterError, match="overflows a float"):
        jacobian_integral(p, lo, hi)


def test_overflowing_J_fails_hk_full_with_a_typed_error(capsys):
    # A 63-sphere of radius 2 cut 2e-5 from its pole: the density still fits
    # a float, but J's peak, 1/sin(r0/2)^62, is about 1e309.  The quadrature
    # of J raised OverflowError to the top.
    code = main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", "geometry.n=63",
                 "--set", "geometry.radius=2", "--set", "surface.r0=2e-5",
                 "--set", "run.checks=hk-full", "--path", "-"])
    out = capsys.readouterr().out
    assert code == 1
    message = "reason=ParameterError: the distortion profile J overflows a float"
    assert f"FAIL check=hk-full {message}" in out
    assert f"FAIL check=expect {message}" in out  # rigidity runs hk_full too
    assert "Traceback" not in out
