"""The pure-Python QUADPACK port against scipy.integrate.quad, its oracle.

scipy's quad calls the same routines (dqagse, dqk21, dqpsrt, dqelg), so the
value, the error estimate and the evaluation count must agree bit for bit.
scipy is needed by these tests only; the package never imports it.
"""

import math
import warnings
from functools import partial
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint

from needlecomp import GeodesicSphere, RoundSphere, decompose, hk, numerics
from needlecomp.cli import parse_config, run
from needlecomp.model1d import jacobian, jacobian_support
from needlecomp.numerics import (QUAD_ABS_TOL, QUAD_LIMIT, QUAD_REL_TOL, dqagse,
                                 integrate)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _quad(fn, a, b):
    """(result, abserr, neval, converged) from scipy at the package settings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = sciint.quad(fn, a, b, limit=QUAD_LIMIT, epsabs=QUAD_ABS_TOL,
                          epsrel=QUAD_REL_TOL, full_output=1)
    # a fourth element (the message) is returned exactly when ier != 0
    return out[0], out[1], out[2]["neval"], len(out) == 3


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def assert_matches_quad(fn, a, b):
    result, abserr, neval, ier = dqagse(fn, a, b, QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_LIMIT)
    ref = _quad(fn, a, b)
    got = (result, abserr, neval, ier == 0)
    assert all(_same(x, y) for x, y in zip(got, ref)), (got, ref)
    if b > a:
        assert _same(integrate(fn, a, b), ref[0])


HARD = {
    "inverse sqrt": (lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0),
    "log": (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0),
    "x^-0.9": (lambda x: x ** -0.9 if x > 0.0 else 0.0, 0.0, 1.0),
    "x^0.001": (lambda x: x ** 0.001, 0.0, 1.0),
    "sin(1000x) to the limit": (lambda x: math.sin(1000.0 * x), 0.0, 10.0),
    "step": (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0),
    "kink": (lambda x: abs(x - 0.3), 0.0, 1.0),
    "nan": (lambda x: math.nan, 0.0, 1.0),
    "nan on a part": (lambda x: math.nan if x > 0.7 else x, 0.0, 1.0),
    "zero": (lambda x: 0.0, 0.0, 1.0),
    "1e-300 scale": (lambda x: 1e-300 * math.exp(x), 0.0, 1.0),
    "sin^99": (lambda x: math.sin(x) ** 99, 0.0, math.pi),
    "infinite": (lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0),
    "reversed": (lambda x: x, 1.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_hard_integrands_match_quad(name):
    assert_matches_quad(*HARD[name])


def test_limit_is_reached_and_reported():
    result, abserr, neval, ier = dqagse(*HARD["sin(1000x) to the limit"],
                                        QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_LIMIT)
    assert ier != 0 and neval > 21 * QUAD_LIMIT


def test_integrate_is_zero_on_empty_interval():
    assert integrate(math.exp, 1.0, 1.0) == 0.0
    assert integrate(math.exp, 2.0, 1.0) == 0.0


def test_zero_integrand_stops_after_one_rule():
    # with no absolute target, a zero integral still ends on its first estimate
    assert dqagse(*HARD["zero"], QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_LIMIT) == (0.0, 0.0, 21, 0)


def test_tiny_total_mass_meets_the_relative_target():
    # the 100-sphere's density is omega_99 sin^99, and its mass about 6e-39:
    # far below any fixed absolute target, so only the relative one may govern
    dec = decompose(RoundSphere(n=100, radius=1.0), GeodesicSphere(math.pi / 2))
    with mp.workdps(40):
        exact = 2 * mp.pi ** mp.mpf(50.5) / mp.gamma(mp.mpf(50.5))
        assert abs(dec.total_mass - exact) <= 1e-10 * exact


def _shipped_integrals(monkeypatch, path, overrides=()):
    """Every (fn, a, b, value) that running the config integrates: value is
    None for a quadrature, and for an integral of J that hk asks
    jacobian_integral for, its value (fn is then J, [a, b] its clipped range)."""
    calls = []
    original, original_jacobian_integral = numerics.dqagse, hk.jacobian_integral

    def recording(fn, a, b, *rest):
        calls.append((fn, a, b, None))
        return original(fn, a, b, *rest)

    def recording_jacobian_integral(p, lo, hi):
        value = original_jacobian_integral(p, lo, hi)
        sup_lo, sup_hi = jacobian_support(p)
        calls.append((partial(jacobian, p), max(lo, sup_lo), min(hi, sup_hi), value))
        return value

    monkeypatch.setattr(numerics, "dqagse", recording)
    monkeypatch.setattr(hk, "jacobian_integral", recording_jacobian_integral)
    config = parse_config(path.read_text(),
                          overrides=["output.path=-", *overrides])
    run(config)
    monkeypatch.undo()  # the comparisons below must not record more calls
    return calls


@pytest.mark.parametrize("name", ["sphere_equator", "suspension", "euclidean_ball",
                                  "truncated_interval"])
def test_shipped_densities_and_jacobians_match_quad(name, monkeypatch, capsys):
    # the densities (masses and tube volumes) and J (the hk right sides); the
    # closed form of J is checked against the same quadrature
    checks = "run.checks=hk-outer,hk-full,corollaries,minkowski"
    overrides = [checks, "run.t_values=0.1,0.5,1.5"]
    if name != "euclidean_ball":
        overrides[0] += ",levy-gromov"
    calls = _shipped_integrals(monkeypatch, CONFIGS / f"{name}.cfg", overrides)
    capsys.readouterr()
    assert len(calls) >= 8
    for fn, a, b, closed in calls:
        assert_matches_quad(fn, a, b)
        if closed is not None:
            quad = integrate(fn, a, b)
            assert abs(closed - quad) <= 1e-12 * abs(quad), (a, b, closed, quad)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(-0.95, 6.0), w=st.floats(0.0, 60.0), c=st.floats(-3.0, 3.0),
       a=st.floats(0.0, 2.0), width=st.floats(1e-6, 8.0))
def test_random_integrands_match_quad(p, w, c, a, width):
    assert_matches_quad(lambda x: x ** p * math.cos(w * x + c) if x > 0.0 else 0.0,
                        a, a + width)


@settings(max_examples=40, deadline=None)
@given(m=st.floats(0.0, 120.0), scale=st.floats(0.1, 10.0), lo=st.floats(0.0, 1.0),
       hi=st.floats(0.0, 1.0))
def test_random_sine_powers_match_quad(m, scale, lo, hi):
    # the shipped model densities are sin_kappa^m, cut off past the antipode
    top = math.pi * scale
    assert_matches_quad(lambda s: max(math.sin(s / scale), 0.0) ** m,
                        lo * top, max(lo, hi) * top)
