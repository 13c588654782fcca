"""The pure-Python regularized incomplete beta function and its inverse,
against mpmath at 40 digits."""

import math
import random

import mpmath as mp
import pytest
from scipy.special import betaincinv

from needlecomp import CurvatureDimension, ParameterError, model_profile
from needlecomp.model1d import _log_beta, inverse_regularized_beta, regularized_beta

DPS = 40
DRAWS = 300


def _draw_shape(rng):
    """(a, b) as model_profile uses them, a = N/2 and b = 1/2 with N from
    1.001 to 400 (log-uniform), or a general pair."""
    if rng.random() < 0.75:
        return 0.5 * math.exp(rng.uniform(math.log(1.001), math.log(400.0))), 0.5
    return math.exp(rng.uniform(-3.0, 5.0)), math.exp(rng.uniform(-3.0, 5.0))


def _draw_unit(rng):
    """A point of (0, 1): log-uniform down to 1e-20 or uniform."""
    return 10.0 ** rng.uniform(-20.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, 1.0)


def _mp_root(a, b, y, x):
    """The 40-digit root of I_t(a, b) = y, by Newton's method from x."""
    a, b = mp.mpf(a), mp.mpf(b)
    beta = mp.beta(a, b)
    t = mp.mpf(x)
    for _ in range(8):
        t -= (mp.betainc(a, b, 0, t, regularized=True) - y) / (
            t ** (a - 1) * (1 - t) ** (b - 1) / beta)
    return t


def test_regularized_beta_matches_mpmath():
    rng = random.Random(8101)
    checked = 0
    with mp.workdps(DPS):
        for _ in range(DRAWS):
            (a, b), x = _draw_shape(rng), _draw_unit(rng)
            expected = mp.betainc(a, b, 0, x, regularized=True)
            if expected < 1e-290:
                continue  # not a normal float
            got = regularized_beta(a, b, x)
            assert abs(got / expected - 1) <= 1e-12, (a, b, x, got, expected)
            checked += 1
    assert checked > DRAWS // 2


def test_regularized_beta_past_its_complement_switch_at_large_a():
    # x a little above (a + 1) / (a + b + 2) with a = N/2 large: 1 - I_{1-x}(b, a)
    # with I near 0.9 amplifies the error of log B(a, b) tenfold, so lgamma(a)
    # - lgamma(a + b) is taken from Stirling series there
    rng = random.Random(8104)
    with mp.workdps(DPS):
        for _ in range(DRAWS):
            a, b = 0.5 * rng.uniform(100.0, 400.0), 0.5
            switch = (a + 1.0) / (a + b + 2.0)
            x = switch + (1.0 - switch) * rng.uniform(0.0, 0.5)
            expected = mp.betainc(a, b, 0, x, regularized=True)
            got = regularized_beta(a, b, x)
            assert abs(got / expected - 1) <= 1e-12, (a, x, got, expected)


def test_log_beta_matches_mpmath_on_both_sides_of_the_stirling_switch():
    for a in (19.5, 20.0, 20.5, 60.0, 200.0, 1e4):
        for b in (0.5, 3.0, 30.0):
            with mp.workdps(DPS):
                expected = mp.log(mp.beta(a, b))
                got = _log_beta(a, b)
                assert abs(got - expected) <= 4e-15 * max(1.0, abs(expected)), (a, b)


def _condition(a, b, y, x):
    """|d log x / d log y| at the root: the relative error of x per relative
    error of y (1/a as x -> 0, where I_x(a, b) ~ x^a)."""
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    return y / (x ** a * (1 - x) ** (b - 1) / mp.beta(a, b))


def test_inverse_regularized_beta_matches_mpmath():
    rng = random.Random(8102)
    with mp.workdps(DPS):
        for _ in range(DRAWS):
            (a, b), y = _draw_shape(rng), _draw_unit(rng)
            x = inverse_regularized_beta(a, b, y)
            assert 0.0 < x < 1.0
            expected = _mp_root(a, b, y, x)
            slack = 1e-13 * max(1.0, _condition(a, b, y, expected))
            assert abs(x / expected - 1) <= slack, (a, b, y, x, expected)


def test_inverse_near_one_and_at_tiny_probabilities():
    with mp.workdps(DPS):
        for N in (1.001, 2.0, 7.3, 60.0, 400.0):
            a = 0.5 * N
            for y in (1e-300, 1e-20, 0.5, 1.0 - 1e-9, 1.0 - 2.0 ** -52):
                x = inverse_regularized_beta(a, 0.5, y)
                if 1e-300 < x < 1.0 - 1e-15:
                    expected = _mp_root(a, 0.5, y, x)
                    slack = 1e-13 * max(1.0, _condition(a, 0.5, y, expected))
                    assert abs(x / expected - 1) <= slack, (N, y, x, expected)
                    continue
                # the root lies within four floats of x (subnormal, or next to 1)
                lo, hi = x, x
                for _ in range(4):
                    lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
                assert (mp.betainc(a, 0.5, 0, lo, regularized=True) <= y
                        <= mp.betainc(a, 0.5, 0, hi, regularized=True)), (N, y, x)


def test_boundary_values_and_round_trip():
    for a, b in ((0.5005, 0.5), (1.5, 0.5), (200.0, 0.5), (3.0, 7.0)):
        assert regularized_beta(a, b, 0.0) == 0.0
        assert regularized_beta(a, b, 1.0) == 1.0
        assert inverse_regularized_beta(a, b, 0.0) == 0.0
        assert inverse_regularized_beta(a, b, 1.0) == 1.0
        for y in (1e-8, 0.3, 0.9):
            x = inverse_regularized_beta(a, b, y)
            assert regularized_beta(a, b, x) == pytest.approx(y, rel=1e-12)
    # I_x(1, 1) = x and I_x(a, b) = 1 - I_{1-x}(b, a)
    assert regularized_beta(1.0, 1.0, 0.375) == pytest.approx(0.375, rel=1e-15)
    assert regularized_beta(2.5, 4.0, 0.3) == pytest.approx(
        1.0 - regularized_beta(4.0, 2.5, 0.7), rel=1e-14)


@pytest.mark.parametrize("args", [(0.0, 0.5, 0.5), (-1.0, 0.5, 0.5), (1.0, math.inf, 0.5),
                                  (1.0, math.nan, 0.5), (1.0, 0.5, -0.1), (1.0, 0.5, 1.5),
                                  (1.0, 0.5, math.nan)])
def test_invalid_arguments_raise(args):
    with pytest.raises(ParameterError):
        regularized_beta(*args)
    with pytest.raises(ParameterError):
        inverse_regularized_beta(*args)


def test_model_profile_agrees_with_scipy_inverse():
    # the closed form before scipy left the runtime, to within the last digits
    rng = random.Random(8103)
    for _ in range(DRAWS):
        N = math.exp(rng.uniform(math.log(1.001), math.log(400.0)))
        K = math.exp(rng.uniform(-7.0, 7.0))
        v = _draw_unit(rng)
        kappa = K / (N - 1.0)
        x = float(betaincinv(0.5 * N, 0.5, 2.0 * min(v, 1.0 - v)))
        beta = math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * N) - math.lgamma(0.5 * N + 0.5))
        expected = math.sqrt(kappa) * x ** (0.5 * (N - 1.0)) / beta
        got = model_profile(CurvatureDimension(K, N), v)
        assert got == pytest.approx(expected, rel=1e-11, abs=0.0), (N, K, v)
