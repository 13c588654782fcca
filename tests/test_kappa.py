"""kappa = K/(N-1) and its sine and cosine, formed once: the package against
the three-way forms of kappa_reference bit for bit, and the edge values of
kappa that are refused with a typed error."""

import csv
import math
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from needlecomp import (CurvatureDimension, DensityProfile, GeodesicSphere, JacobianParams,
                        LevelPoint, NeedlecompError, ParameterError, RoundSphere,
                        WeightedInterval, closed_form_bounds, cos_kappa, decompose, jacobian,
                        levy_gromov_check, model_density_normalizer, model_profile,
                        model_rhs_constant_H, sin_kappa, sturm_bound_check)
from needlecomp.cli import main

import kappa_reference

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _outcome(call, *args):
    """repr(call(*args)), which tells floats apart bit for bit short of NaN
    payloads, or the type and message of the error it raises."""
    try:
        return repr(call(*args))
    except (NeedlecompError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _signed(lo_exp, hi_exp):
    """Floats of either sign with magnitudes 10^lo_exp to 10^hi_exp, and +-0.0."""
    return st.one_of(st.sampled_from((0.0, -0.0)),
                     st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                               st.floats(lo_exp, hi_exp)))


# ------------------------------------------- bit for bit against the three-way forms

@given(st.one_of(_signed(-3, 3), _signed(-300, 300), st.floats()),
       st.one_of(st.floats(-10, 10), st.floats()))
def test_sin_and_cos_kappa_are_the_three_way_forms(kappa, r):
    assert _outcome(sin_kappa, kappa, r) == _outcome(kappa_reference.sin_kappa, kappa, r)
    assert _outcome(cos_kappa, kappa, r) == _outcome(kappa_reference.cos_kappa, kappa, r)


@given(st.one_of(st.floats(-10, 10), st.floats(-1e3, 1e3)),
       st.one_of(_signed(-3, 3), _signed(-300, 300)),
       st.one_of(st.floats(0.5, 10), st.floats(-8, 2.6).map(lambda e: 10.0 ** e)),
       st.one_of(st.floats(-5, 5), st.floats(-1e6, 1e6)))
def test_jacobian_is_the_three_way_form(H, K, m, r):
    # m = N - 1 below 1 maps neighbouring bases to one float: draw it mostly above
    try:
        cd = CurvatureDimension(K, 1.0 + m)
    except ParameterError:
        assume(False)
    assert repr(cd.kappa) == repr(cd.K / (cd.N - 1.0))
    p = JacobianParams(H, cd)
    assert _outcome(jacobian, p, r) == _outcome(kappa_reference.jacobian, p, r)


@given(st.floats(-3.0, 3.0), st.floats(0.0, 0.99), st.floats(0.0, 10.0),
       st.floats(0.1, 10.0), st.floats(0.001, 0.999), _signed(-6, 3),
       st.integers(1, 60))
def test_sturm_bound_check_is_the_three_way_form(alpha, beta, omega, length, share, kappa,
                                                 grid):
    u = DensityProfile(0.0, length,
                       lambda r: math.exp(alpha * r) * (1.0 + beta * math.sin(omega * r)))
    r0 = share * length
    assert (_outcome(sturm_bound_check, u, kappa, r0, grid)
            == _outcome(kappa_reference.sturm_bound_check, u, kappa, r0, grid))


# ------------------------------------------- a K/(N-1) that overflows a float

@pytest.mark.parametrize("K", (1e308, -1e308))
def test_curvature_level_that_overflows_is_refused(K):
    with pytest.raises(ParameterError, match=r"^K/\(N-1\) overflows a float at K=") as err:
        CurvatureDimension(K, 1.0000001)
    assert err.value.key == "K"
    with pytest.raises(ParameterError, match=r"^K/\(N-1\) overflows"):
        CurvatureDimension(K, 2.0)._replace(N=1.0000001)


@pytest.mark.parametrize("r", ("0.5", "0"))
def test_jacobian_command_refuses_an_overflowing_curvature_level(capsys, r):
    # r = 0.5 ended in a ValueError traceback, and r = 0 printed nan
    assert main(["jacobian", "--H", "1", "--K", "1e308", "--N", "1.0000001", "--r", r]) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: K/(N-1) "
                                       "overflows a float at K=1e+308, N=1.0000001\n")


def test_constant_interval_with_an_overflowing_curvature_level_is_a_config_error(capsys):
    # hk-full's rhs was nan and the worst ratio and cd-density violations -inf,
    # so the checks passed vacuously
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"),
                 "--set", "geometry.density=constant", "--set", "geometry.K=-1e308",
                 "--set", "geometry.N=1.0000001", "--set", "geometry.length=2",
                 "--set", "surface.r0=1", "--set", "run.checks=hk-full,ratio,cd-density",
                 "--format", "csv", "--path", "-"]) == 2
    assert capsys.readouterr().out == (
        "FAIL check=config reason=ConfigError: --set #2, key 'K': K/(N-1) overflows a "
        "float at K=-1e+308, N=1.0000001\n")


def test_suspension_with_an_overflowing_curvature_level_names_K(capsys):
    # the model diameter was 0.0, and the error blamed r0
    assert main(["run", str(CONFIGS / "suspension.cfg"), "--set", "geometry.K=1e308",
                 "--set", "geometry.N=1.0000001", "--path", "-"]) == 2
    assert capsys.readouterr().out == (
        "FAIL check=config reason=ConfigError: --set #1, key 'K': K/(N-1) overflows a "
        "float at K=1e+308, N=1.0000001\n")


# ------------------------------------------- a K/(N-1) that is a subnormal float

@pytest.mark.parametrize("K, N", [(1e-320, 3.0), (-1e-320, 3.0), (1e-308, 2.0),
                                  (1.5 * sys.float_info.min, 3.0)])
def test_subnormal_curvature_level_is_refused(K, N):
    with pytest.raises(ParameterError, match=r"^K/\(N-1\) is a subnormal float at K=") as err:
        CurvatureDimension(K, N)
    assert err.value.key == "K"
    CurvatureDimension(2.0 * sys.float_info.min * (N - 1.0), N)  # a normal kappa is kept


@pytest.mark.parametrize("command", [
    ["profile", "--K", "1e-320", "--N", "3", "--v", "0.3"],  # printed 4.041485465827857e-161
    ["jacobian", "--H", "1", "--K", "1e-320", "--N", "3", "--r", "0.5"],  # printed 1.5625
], ids=("profile", "jacobian"))
def test_commands_refuse_a_subnormal_curvature_level(capsys, command):
    assert main(command) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: K/(N-1) is a "
                                       "subnormal float at K=1e-320, N=3.0\n")


# ------------------------------------------- a K > 0 whose K/(N-1) underflows to 0

TINY_K = CurvatureDimension(5e-324, 3.0)
UNDERFLOWS = r"^K=5e-324 is too small for N=3.0: K/\(N-1\) underflows to 0$"


def _tiny_K_interval():
    profile = DensityProfile(0.0, 1.0, lambda r: 1.0, deriv=lambda r: 0.0)
    return decompose(WeightedInterval(1.0, profile, TINY_K), LevelPoint(0.5))


@pytest.mark.parametrize("call", [
    lambda: model_density_normalizer(TINY_K),  # was a ZeroDivisionError
    lambda: model_profile(TINY_K, 0.3),  # was 0.0
    lambda: model_rhs_constant_H(JacobianParams(0.0, TINY_K)),
    lambda: closed_form_bounds(_tiny_K_interval()),  # was a ValueError (math domain error)
    lambda: levy_gromov_check(_tiny_K_interval()),
])
def test_model_quantities_refuse_a_curvature_level_that_underflows(call):
    with pytest.raises(ParameterError, match=UNDERFLOWS) as err:
        call()
    assert err.value.key == "K"


def test_profile_command_refuses_a_curvature_level_that_underflows(capsys):
    # it printed 0.0, where the profile is about 6e-163
    assert main(["profile", "--K", "5e-324", "--N", "3", "--v", "0.3"]) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: K=5e-324 is "
                                       "too small for N=3.0: K/(N-1) underflows to 0\n")


def test_jacobian_of_a_curvature_level_that_underflows_is_flat(capsys):
    assert main(["jacobian", "--H", "1", "--K", "5e-324", "--N", "3", "--r", "0.5"]) == 0
    assert capsys.readouterr().out == "1.5625\n"  # (1 + 0.5 / 2)^2


# ------------------------------------------- a sphere radius without a float curvature

@pytest.mark.parametrize("radius", (1e-200, 1e-160, 1e154, 1e200))
def test_sphere_radius_without_a_float_curvature_is_refused(radius):
    for make in (lambda: RoundSphere(2, radius), lambda: RoundSphere(2, 1.0)._replace(
            radius=radius)):
        with pytest.raises(ParameterError, match="^sphere radius must give a positive "
                                                 "finite curvature") as err:
            make()
        assert err.value.key == "radius"


@pytest.mark.parametrize("radius", ("1e-200", "1e-160", "1e+154", "1e+200"))
def test_sphere_radius_without_a_float_curvature_is_a_config_error(capsys, radius):
    # 1e-200 was a ZeroDivisionError traceback, 1e-160 was blamed on K and 1e200
    # was reported as a radial density that overflows
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set",
                 f"geometry.radius={radius}", "--set", f"surface.r0={radius}",
                 "--path", "-"]) == 2
    assert capsys.readouterr().out == (
        f"FAIL check=config reason=ConfigError: --set #1, key 'radius': sphere radius must "
        f"give a positive finite curvature (n-1)/radius^2, got radius={radius}\n")


# ------------------------------------------- dimensionless corollary gates

def _corollary_verdicts(capsys, radius, r0):
    """The exit code and each summary row's (statement, equality) of the
    sphere's corollaries."""
    code = main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set",
                 f"geometry.radius={radius!r}", "--set", f"surface.r0={r0!r}",
                 "--set", "run.checks=corollaries", "--format", "csv", "--path", "-"])
    rows = csv.DictReader(capsys.readouterr().out.splitlines())
    return code, [(row["statement"], row["equality"]) for row in rows if row["relative_gap"]]


@pytest.mark.parametrize("radius, r0, unit_r0, diameter_row", [
    (1e100, 1e99, 0.1, False), (2.0 ** -40, 0.5 * math.pi * 2.0 ** -40, 0.5 * math.pi, True)])
def test_corollary_gates_scale_with_the_sphere(capsys, radius, r0, unit_r0, diameter_row):
    # radius 1e100 with H R = cot(0.1) > 0 passed the diameter gate and raised a
    # false InequalityViolation; the equator at radius 2^-40 lost its
    # corollary-diameter row.  Both now give the verdicts of radius 1.
    code, verdicts = _corollary_verdicts(capsys, radius, r0)
    assert (code, verdicts) == _corollary_verdicts(capsys, 1.0, unit_r0)
    assert code == 0
    assert ("corollary-diameter", "false") in verdicts if diameter_row else (
        "corollary-diameter" not in [statement for statement, _ in verdicts])


def test_dominance_gate_of_H0_scales_with_the_sphere():
    small = decompose(RoundSphere(2, 2.0 ** -40), GeodesicSphere(0.5 * math.pi * 2.0 ** -40))
    assert small.H > 1e-12  # cot of a rounded pi/2, over the radius
    assert closed_form_bounds(small, H0=0.0)[0].statement == "corollary-constant-H"
    large = decompose(RoundSphere(2, 1e100), GeodesicSphere(1e99))
    assert 0.0 < large.H < 1e-12  # cot(0.1) / 1e100
    with pytest.raises(ParameterError, match="^H0=0.0 does not dominate"):
        closed_form_bounds(large, H0=0.0)
