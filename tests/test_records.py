"""The value types' contract: construction, checks, repr, equality, hashing,
immutability and caching.  The repr strings are those the package printed
when these types were dataclasses; builtin functions stand in for densities
because their repr is stable."""

import math

import pytest

from needlecomp import (CdDensityReport, CurvatureDimension, DensityProfile, EuclideanBall,
                        GeodesicSphere, HKReport, JacobianParams, LevelPoint,
                        LevyGromovReport, Needle, NeedleDecomposition, ParameterError,
                        PerNeedle, RatioReport, RigidityReport, RoundSphere,
                        SphericalSuspension, SturmReport, WeightedInterval, decompose)
from needlecomp.cli import ExperimentConfig, Row

CD = CurvatureDimension(1.0, 3.0)
EXP = ("DensityProfile(a={}, b={}, fn=<built-in function exp>, deriv=None, grid_size=1024, "
       "mode=None)")


def _decomposition():
    return NeedleDecomposition((Needle(DensityProfile(-1.0, 1.0, math.exp), 2.0),), 2.0, 2.0,
                               CurvatureDimension(0.0, 2.0), 2.0, (1.0,), (-1.0,), (1.0,))


REPRS = [
    (lambda: CD, "CurvatureDimension(K=1.0, N=3.0)"),
    (lambda: JacobianParams(0.5, CD),
     "JacobianParams(H=0.5, cd=CurvatureDimension(K=1.0, N=3.0))"),
    (lambda: DensityProfile(0.0, 1.0, math.exp), EXP.format(0.0, 1.0)),
    (lambda: DensityProfile(-1.0, 2.0, math.exp, deriv=math.exp, grid_size=16, mode=2.0),
     "DensityProfile(a=-1.0, b=2.0, fn=<built-in function exp>, "
     "deriv=<built-in function exp>, grid_size=16, mode=2.0)"),
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
     f"NeedleDecomposition(needles=(Needle(profile={EXP.format(-1.0, 1.0)}, weight=2.0),), "
     "total_mass=2.0, diameter=2.0, cd=CurvatureDimension(K=0.0, N=2.0), surface_total=2.0, "
     "H_plus=(1.0,), H_minus=(-1.0,), H=(1.0,))"),
    (lambda: CdDensityReport(False, 0.5, (-0.5, 0.5, 0.25)),
     "CdDensityReport(passed=False, worst_violation=0.5, witness=(-0.5, 0.5, 0.25))"),
    (lambda: SturmReport(True, -1.0), "SturmReport(passed=True, max_excess=-1.0)"),
    (lambda: RatioReport(False, 1.0, 0.125),
     "RatioReport(passed=False, H_used=1.0, max_excess=0.125)"),
    (lambda: PerNeedle(0, 1.0, 2.0, True),
     "PerNeedle(index=0, H=1.0, rhs_contribution=2.0, profile_match=True)"),
    (lambda: HKReport("hk-full", 1.0, 1.0, 0.0, 0.0, True, ()),
     "HKReport(statement='hk-full', lhs=1.0, rhs=1.0, gap=0.0, relative_gap=0.0, "
     "equality=True, per_needle=(), t=None)"),
    (lambda: LevyGromovReport(0.5, 0.5, True, True, 0.0),
     "LevyGromovReport(content=0.5, profile_value=0.5, passed=True, equality=True, gap=0.0)"),
    (lambda: RigidityReport(False, (False,), 0.5, 0.25, ("profile",)),
     "RigidityReport(rigid=False, per_needle_match=(False,), gap=0.5, relative_gap=0.25, "
     "failed_conditions=('profile',))"),
    (lambda: ExperimentConfig(RoundSphere(2, 1.0), GeodesicSphere(1.0), ("hk-full",)),
     "ExperimentConfig(geometry=RoundSphere(n=2, radius=1.0), surface=GeodesicSphere(r0=1.0), "
     "checks=('hk-full',), t_values=(), tolerance=None, expect=None, grid_size=24, H0=None, "
     "epsilons=None, output_format='report', output_path=None)"),
    (lambda: Row("hk-outer", "summary", t=0.5, lhs=1.0, rhs=2.0),
     "Row(statement='hk-outer', kind='summary', t=0.5, lhs=1.0, rhs=2.0, gap=None, "
     "relative_gap=None, equality=None, H_plus=None, H_minus=None, H=None)"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_equality_and_hash(make, text):
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
    (CurvatureDimension, dict(K=0.0, N=0.5), "dimension bound N must be finite and >= 1, got 0.5"),
    (JacobianParams, dict(H=math.nan, cd=CD), "mean curvature H must be finite, got nan"),
    (WeightedInterval, dict(length=0.0, density=P, cd=CD),
     "interval length must be positive, got 0.0"),
    (WeightedInterval, dict(length=2.0, density=P, cd=CD),
     "interval density must live on [0, length]"),
    (RoundSphere, dict(n=1, radius=1.0), "sphere dimension must be >= 2, got 1"),
    (RoundSphere, dict(n=2, radius=-1.0), "sphere radius must be positive, got -1.0"),
    (EuclideanBall, dict(n=0, R=1.0), "ball dimension must be >= 1, got 0"),
    (EuclideanBall, dict(n=2, R=math.inf), "ball radius must be positive, got inf"),
    (SphericalSuspension, dict(cd=CurvatureDimension(0.0, 3.0), base_volume=1.0),
     "suspension requires K > 0, got K=0.0"),
    (SphericalSuspension, dict(cd=CurvatureDimension(1.0, 1.0), base_volume=1.0),
     "suspension requires N > 1, got N=1.0"),
    (SphericalSuspension, dict(cd=CD, base_volume=0.0), "base volume must be positive, got 0.0"),
    (Needle, dict(profile=DensityProfile(-1.0, 1.0, math.exp), weight=-1.0),
     "needle weight must be finite and >= 0, got -1.0"),
    (Needle, dict(profile=DensityProfile(1.0, 2.0, math.exp)),
     "needle base 0 must lie in [1.0, 2.0]"),
    (DensityProfile, dict(a=1.0, b=0.0, fn=math.exp), "invalid interval [1.0, 0.0]"),
    (DensityProfile, dict(a=0.0, b=1.0, fn=math.exp, deriv=None, grid_size=1),
     "grid_size must be >= 2, got 1"),
    (DensityProfile, dict(a=0.0, b=1.0, fn=math.exp, deriv=None, grid_size=8, mode=math.nan),
     "mode must not be NaN"),
    (DensityProfile, dict(a=-1.0, b=1.0, fn=math.sin),
     "density must be positive on the open interval and finite, non-negative at the endpoints"),
]


@pytest.mark.parametrize("cls, kwargs, message", CHECKS)
def test_constructor_checks_positional_and_keyword(cls, kwargs, message):
    for build in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs)):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("make", [make for make, text in REPRS
                                  if not text.startswith("DensityProfile")])
def test_fields_of_named_tuples_cannot_be_assigned(make):
    value = make()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_replaced_decomposition_recomputes_its_profile_deviation():
    dec = decompose(RoundSphere(2, 1.0), GeodesicSphere(math.pi / 2))
    deviation = dec.profile_deviation
    bumped = dec._replace(H=(dec.H[0] + 1.0,))
    assert bumped.profile_deviation != deviation
    assert bumped.profile_deviation == NeedleDecomposition(*bumped).profile_deviation
    assert dec.profile_deviation is deviation


def test_cached_properties_are_computed_once_per_instance():
    params = JacobianParams(0.5, CD)
    assert params._consts is params._consts
    assert JacobianParams(0.5, CD)._consts is not params._consts
    calls = []
    profile = DensityProfile(0.0, 1.0, lambda r: calls.append(r) or 1.0 + r, grid_size=16,
                             mode=1.0)
    calls.clear()  # construction evaluates only near the extremes
    assert profile.samples is profile.samples
    assert len(calls) == 16
