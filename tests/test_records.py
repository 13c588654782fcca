"""The value types' contract: construction, checks, repr, equality, hashing,
immutability and caching.  The repr strings are those the package printed
when these types were dataclasses; builtin functions stand in for densities
because their repr is stable."""

import math

import pytest

from needlecomp import (CdDensityReport, CurvatureDimension, DensityProfile, EuclideanBall,
                        GeodesicSphere, HKReport, JacobianParams, LevelPoint,
                        Needle, NeedleDecomposition, ParameterError, RatioReport, RoundSphere,
                        SphericalSuspension, SturmReport, WeightedInterval, decompose)
from needlecomp.cli import ExperimentConfig, Row
from needlecomp.hk import _profile_deviation

CD = CurvatureDimension(1.0, 3.0)
EXP = ("DensityProfile(a={}, b={}, fn=<built-in function exp>, deriv=None, mode=None, "
       "values=None)")


def _decomposition():
    return NeedleDecomposition(Needle(DensityProfile(-1.0, 1.0, math.exp), 2.0), 2.0, 2.0,
                               CurvatureDimension(0.0, 2.0), 2.0, 1.0, -1.0, 1.0)


REPRS = [
    (lambda: CD, "CurvatureDimension(K=1.0, N=3.0)"),
    (lambda: JacobianParams(0.5, CD),
     "JacobianParams(H=0.5, cd=CurvatureDimension(K=1.0, N=3.0))"),
    (lambda: DensityProfile(0.0, 1.0, math.exp), EXP.format(0.0, 1.0)),
    (lambda: DensityProfile(-1.0, 2.0, math.exp, deriv=math.exp, mode=2.0),
     "DensityProfile(a=-1.0, b=2.0, fn=<built-in function exp>, "
     "deriv=<built-in function exp>, mode=2.0, values=None)"),
    (lambda: Needle(DensityProfile(-1.0, 1.0, math.exp)),
     f"Needle(profile={EXP.format(-1.0, 1.0)}, weight=1.0)"),
    (lambda: WeightedInterval(1.0, DensityProfile(0.0, 1.0, math.exp),
                              CurvatureDimension(0.0, 2.0)),
     f"WeightedInterval(length=1.0, density={EXP.format(0.0, 1.0)}, "
     "cd=CurvatureDimension(K=0.0, N=2.0))"),
    (lambda: RoundSphere(3, 2.0), "RoundSphere(n=3, radius=2.0)"),
    (lambda: EuclideanBall(2, 1.5), "EuclideanBall(n=2, R=1.5)"),
    (lambda: SphericalSuspension(CD, 2.0),
     "SphericalSuspension(cd=CurvatureDimension(K=1.0, N=3.0), base_volume=2.0)"),
    (lambda: LevelPoint(0.5), "LevelPoint(r0=0.5)"),
    (lambda: GeodesicSphere(0.25), "GeodesicSphere(r0=0.25)"),
    (_decomposition,
     f"NeedleDecomposition(needle=Needle(profile={EXP.format(-1.0, 1.0)}, weight=2.0), "
     "total_mass=2.0, diameter=2.0, cd=CurvatureDimension(K=0.0, N=2.0), surface_total=2.0, "
     "H_plus=1.0, H_minus=-1.0, H=1.0)"),
    (lambda: CdDensityReport(False, 0.5, (-0.5, 0.5, 0.25)),
     "CdDensityReport(passed=False, worst_violation=0.5, witness=(-0.5, 0.5, 0.25))"),
    (lambda: SturmReport(True, -1.0), "SturmReport(passed=True, max_excess=-1.0)"),
    (lambda: RatioReport(False, 1.0, 0.125),
     "RatioReport(passed=False, H_used=1.0, max_excess=0.125)"),
    (lambda: HKReport("hk-full", 1.0, 1.0, 0.0, 0.0, True),
     "HKReport(statement='hk-full', lhs=1.0, rhs=1.0, gap=0.0, relative_gap=0.0, "
     "equality=True, t=None, failed=())"),
    (lambda: ExperimentConfig(RoundSphere(2, 1.0), GeodesicSphere(1.0), ("hk-full",)),
     "ExperimentConfig(geometry=RoundSphere(n=2, radius=1.0), surface=GeodesicSphere(r0=1.0), "
     "checks=('hk-full',), t_values=(), tolerance=None, expect=None, grid_size=24, H0=None, "
     "output_format='report', output_path=None)"),
    (lambda: Row("hk-outer", "summary", t=0.5, lhs=1.0, rhs=2.0),
     "Row(statement='hk-outer', kind='summary', t=0.5, lhs=1.0, rhs=2.0, gap=None, "
     "relative_gap=None, equality=None, H_plus=None, H_minus=None, H=None)"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_equality_and_hash(make, text):
    value, again = make(), make()
    assert repr(value) == text
    assert value == again and hash(value) == hash(again)


# The hk report of each statement without sides of the needle's own: the
# Levy-Gromov comparison (model profile, boundary content) and rigidity.
HK_REPRS = {
    "levy-gromov": (
        lambda: HKReport("levy-gromov", 0.5, 0.5, 0.0, 0.0, True),
        "HKReport(statement='levy-gromov', lhs=0.5, rhs=0.5, gap=0.0, relative_gap=0.0, "
        "equality=True, t=None, failed=())"),
    "rigidity": (
        lambda: HKReport("rigidity", None, None, 0.5, 0.25, False, failed=("profile",)),
        "HKReport(statement='rigidity', lhs=None, rhs=None, gap=0.5, relative_gap=0.25, "
        "equality=False, t=None, failed=('profile',))"),
}


@pytest.mark.parametrize("make, text", HK_REPRS.values(), ids=HK_REPRS)
def test_hk_report_repr_of_each_statement(make, text):
    value, again = make(), make()
    assert repr(value) == text
    assert value == again and hash(value) == hash(again)


def test_unequal_values_differ():
    assert CurvatureDimension(1.0, 3.0) != CurvatureDimension(1.0, 4.0)
    assert DensityProfile(0.0, 1.0, math.exp) != DensityProfile(0.0, 2.0, math.exp)
    assert Needle(DensityProfile(-1.0, 1.0, math.exp), 2.0) != Needle(
        DensityProfile(-1.0, 1.0, math.exp), 3.0)


P = DensityProfile(0.0, 1.0, math.exp)
CHECKS = [
    (CurvatureDimension, dict(K=math.inf, N=2.0), "curvature bound K must be finite, got inf"),
    (CurvatureDimension, dict(K=0.0, N=0.5), "dimension bound N must be finite and > 1, got 0.5"),
    (JacobianParams, dict(H=math.nan, cd=CD), "mean curvature H must be finite, got nan"),
    (WeightedInterval, dict(length=0.0, density=P, cd=CD),
     "interval length must be positive, got 0.0"),
    (WeightedInterval, dict(length=2.0, density=P, cd=CD),
     "interval density must live on [0, length]"),
    (RoundSphere, dict(n=1, radius=1.0), "sphere dimension must be >= 2, got 1"),
    (RoundSphere, dict(n=2, radius=-1.0), "sphere radius must be positive, got -1.0"),
    (EuclideanBall, dict(n=1, R=1.0), "ball dimension must be >= 2, got 1"),
    (EuclideanBall, dict(n=2, R=math.inf), "ball radius must be positive, got inf"),
    (SphericalSuspension, dict(cd=CurvatureDimension(0.0, 3.0), base_volume=1.0),
     "suspension requires K > 0, got K=0.0"),
    (SphericalSuspension, dict(cd=CurvatureDimension(-1.0, 3.0), base_volume=1.0),
     "suspension requires K > 0, got K=-1.0"),
    (SphericalSuspension, dict(cd=CD, base_volume=0.0), "base volume must be positive, got 0.0"),
    (Needle, dict(profile=DensityProfile(-1.0, 1.0, math.exp), weight=-1.0),
     "needle weight must be finite and >= 0, got -1.0"),
    (Needle, dict(profile=DensityProfile(1.0, 2.0, math.exp)),
     "needle base 0 must lie in [1.0, 2.0]"),
    (DensityProfile, dict(a=1.0, b=0.0, fn=math.exp), "invalid interval [1.0, 0.0]"),
    (DensityProfile, dict(a=0.0, b=math.inf, fn=math.exp), "invalid interval [0.0, inf]"),
    (DensityProfile, dict(a=0.0, b=1.0, fn=math.exp, deriv=None, mode=math.nan),
     "mode must not be NaN"),
    (DensityProfile, dict(a=-1.0, b=1.0, fn=math.sin),
     "density must be positive on the open interval and finite, non-negative at the endpoints"),
    (CurvatureDimension, dict(K=1.0, N=1.0), "dimension bound N must be finite and > 1, got 1.0"),
]


@pytest.mark.parametrize("cls, kwargs, message", CHECKS)
def test_constructor_checks_positional_and_keyword(cls, kwargs, message):
    for build in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs)):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message


VALID = {CurvatureDimension: CD, JacobianParams: JacobianParams(0.5, CD),
         WeightedInterval: WeightedInterval(1.0, P, CD), RoundSphere: RoundSphere(2, 1.0),
         EuclideanBall: EuclideanBall(2, 1.0), SphericalSuspension: SphericalSuspension(CD, 1.0),
         Needle: Needle(DensityProfile(-1.0, 1.0, math.exp)), DensityProfile: P}


@pytest.mark.parametrize("cls, kwargs, message", [check for check in CHECKS
                                                   if check[0] in VALID])
def test_replace_reruns_the_constructor_checks(cls, kwargs, message):
    with pytest.raises(ParameterError) as info:
        VALID[cls]._replace(**kwargs)
    assert str(info.value) == message


def test_replace_builds_the_checked_type():
    replaced = RoundSphere(2, 1.0)._replace(radius=2.0)
    assert type(replaced) is RoundSphere and replaced == RoundSphere(2, 2.0)
    with pytest.raises(ParameterError, match="^dimension bound N must be finite and > 1, "
                                             "got 0.5$"):
        CurvatureDimension(1.0, 3.0)._replace(N=0.5)
    with pytest.raises(ParameterError, match="^sphere radius must be positive, got -1.0$"):
        decompose(RoundSphere(2, 1.0)._replace(radius=-1.0), GeodesicSphere(0.5))


@pytest.mark.parametrize("make", [make for make, text in (*REPRS, *HK_REPRS.values())
                                  if not text.startswith("DensityProfile")])
def test_fields_of_named_tuples_cannot_be_assigned(make):
    value = make()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_density_profile_is_a_checked_named_tuple():
    # it was a plain class with hand-written repr, equality and hash
    assert P._fields == ("a", "b", "fn", "deriv", "mode", "values")
    assert P == (0.0, 1.0, math.exp, None, None, None)
    assert not any(hasattr(P, name) for name in ("grid_size", "samples", "grid", "__call__"))
    for field in P._fields:
        with pytest.raises(AttributeError):
            setattr(P, field, None)
    replaced = P._replace(b=2.0)
    assert type(replaced) is DensityProfile and replaced == DensityProfile(0.0, 2.0, math.exp)


def test_power_is_checked_at_its_own_modes_points():
    # power() builds through the constructor: it evaluates fn where the
    # parent's checks did, and its values are the parent's to the power
    calls = []
    profile = DensityProfile(0.0, 1.0, lambda r: calls.append(r) or 1.0 + r, mode=1.0)
    points = list(calls)
    calls.clear()
    root = profile.power(0.5)
    assert calls == points and type(root) is DensityProfile
    assert [root.fn(r) for r in points] == [(1.0 + r) ** 0.5 for r in points]
    assert not hasattr(root, "__dict__")
    with pytest.raises(ParameterError, match="^density must be positive"):
        DensityProfile(0.0, 1.0, lambda r: 1e300).power(2.0)


def test_replaced_decomposition_recomputes_its_profile_deviation():
    dec = decompose(RoundSphere(2, 1.0), GeodesicSphere(math.pi / 2))
    deviation = _profile_deviation(dec)
    bumped = dec._replace(H=dec.H + 1.0)
    assert _profile_deviation(bumped) != deviation
    assert _profile_deviation(bumped) == _profile_deviation(NeedleDecomposition(*bumped))


def test_cached_properties_are_computed_once_per_instance():
    params = JacobianParams(0.5, CD)
    assert params._consts is params._consts
    assert JacobianParams(0.5, CD)._consts is not params._consts
