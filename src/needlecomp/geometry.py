"""Model geometries and their closed-form needle decompositions.

Every supported geometry is rotationally symmetric around a pole or center, so
the radial coordinate is the only spatial datum: a geometry reduces to a radial
density on [0, L].  Each needle through a geodesic sphere is congruent to the
others, so the quotient collapses to one needle whose weight is the total mass.
Needle densities are stored normalized to probability measures, with the
normalizer folded into the weight; the surface measure total is weight * h(0).
GEOMETRY_KINDS describes each kind once, keyed by its configuration name.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from collections import namedtuple
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Union

from .errors import (ConfigError, CurvatureError, DegenerateSurfaceError,
                     ParameterError)
from .model1d import (Checked, CurvatureDimension, check_sine_curvature, kappa_trig, pi_kappa,
                      unit_sphere_volume)
from .needle import DensityProfile, Needle, one_sided_log_derivative
from .numerics import extrapolate_to_zero, integrate


def _check_length(length: float) -> None:
    if not (math.isfinite(length) and length > 0.0):
        raise ParameterError(f"interval length must be positive, got {length}", key="length")


class WeightedInterval(Checked, namedtuple("WeightedInterval", "length density cd")):
    """Interval [0, length] carrying an explicit density and its CD parameters."""

    __slots__ = ()

    def __new__(cls, length: float, density: DensityProfile, cd: CurvatureDimension):
        _check_length(length)
        if density.a != 0.0 or density.b != length:
            raise ParameterError("interval density must live on [0, length]", key="density")
        return super().__new__(cls, length, density, cd)


class RoundSphere(Checked, namedtuple("RoundSphere", "n radius")):
    """Round sphere of dimension n and the given radius, Riemannian volume."""

    __slots__ = ()

    def __new__(cls, n: int, radius: float):
        if n < 2:
            raise ParameterError(f"sphere dimension must be >= 2, got {n}", key="n")
        if not (math.isfinite(radius) and radius > 0.0):
            raise ParameterError(f"sphere radius must be positive, got {radius}", key="radius")
        try:
            K = (n - 1) / radius ** 2
        except (OverflowError, ZeroDivisionError):
            K = 0.0
        # kappa = K/(N-1) as CurvatureDimension forms it: a normal float
        if not sys.float_info.min <= K / (n - 1) < math.inf:
            raise ParameterError(f"sphere radius must give a positive finite curvature "
                                 f"(n-1)/radius^2, got radius={radius}", key="radius")
        return super().__new__(cls, n, radius)

    @property
    def cd(self) -> CurvatureDimension:
        return CurvatureDimension((self.n - 1) / self.radius ** 2, float(self.n))


class EuclideanBall(Checked, namedtuple("EuclideanBall", "n R")):
    """Closed ball of radius R in n-dimensional flat space, Lebesgue measure."""

    __slots__ = ()

    def __new__(cls, n: int, R: float):
        if n < 2:
            raise ParameterError(f"ball dimension must be >= 2, got {n}", key="n")
        if not (math.isfinite(R) and R > 0.0):
            raise ParameterError(f"ball radius must be positive, got {R}", key="R")
        return super().__new__(cls, n, R)

    @property
    def cd(self) -> CurvatureDimension:
        return CurvatureDimension(0.0, float(self.n))


class SphericalSuspension(Checked, namedtuple("SphericalSuspension", "cd base_volume")):
    """Warped product over the positively curved 1D model space; the cross
    section enters only through its total measure."""

    __slots__ = ()

    def __new__(cls, cd: CurvatureDimension, base_volume: float):
        if cd.K <= 0.0:
            raise ParameterError(f"suspension requires K > 0, got K={cd.K}", key="K")
        check_sine_curvature(cd)
        if not (math.isfinite(base_volume) and base_volume > 0.0):
            raise ParameterError(f"base volume must be positive, got {base_volume}",
                                 key="base_volume")
        return super().__new__(cls, cd, base_volume)


GeometrySpec = Union[WeightedInterval, RoundSphere, EuclideanBall, SphericalSuspension]


class LevelPoint(NamedTuple):
    """Surface {r0} of a weighted interval; the inner region is [0, r0]."""

    r0: float


class GeodesicSphere(NamedTuple):
    """Distance sphere of radius r0 about the pole/center; inner region is the ball."""

    r0: float


SurfaceSpec = Union[LevelPoint, GeodesicSphere]


class NeedleDecomposition(Checked, namedtuple("NeedleDecomposition", (
        "needle", "total_mass", "diameter", "cd", "surface_total", "H_plus", "H_minus", "H"))):
    """The needle of one geometry/surface pair, which every needle through the
    surface is congruent to, with the surface measure total and the needle's
    mean curvatures H_plus and H_minus, both finite, and H = max(H_plus, -H_minus)."""

    __slots__ = ()

    def __new__(cls, needle: Needle, total_mass: float, diameter: float,
                cd: CurvatureDimension, surface_total: float, H_plus: float,
                H_minus: float, H: float):
        if not (math.isfinite(H_plus) and math.isfinite(H_minus)):
            raise CurvatureError("needle has infinite one-sided curvature at its base")
        return super().__new__(cls, needle, total_mass, diameter, cd, surface_total,
                               H_plus, H_minus, H)

    @property
    def needles(self) -> tuple[Needle]:
        """(needle,), for perfbench/worker.py, which reads needles[0]."""
        return (self.needle,)


class _RadialModel(NamedTuple):
    length: float
    diameter: float
    density: Callable[[float], float]
    density_deriv: Optional[Callable[[float], float]]
    mode: Optional[float]  # where the density peaks, as DensityProfile.mode
    values: Optional[Callable]  # the density's array form, as DensityProfile.values


def _power_form(base: Callable, expo: float, scale: float) -> Callable:
    """The array form of r -> scale * max(base(r), 0.0) ** expo, given base as
    (numpy, array) -> array: the power is Python's float pow elementwise, since
    np.power differs from it in the last bit, and the clamp keeps max's NaN and
    -0.0, which np.maximum does not."""
    def values(rs):
        import numpy as np
        m = base(np, rs)
        m = np.where(m < 0.0, 0.0, m)
        return scale * np.fromiter(map(pow, m.tolist(), repeat(expo)), float, m.size)
    return values


def _rebased(builder: Callable[[float, float], Callable[[float], float]]) -> Callable:
    """The radial density h = builder(0.0, 1.0), carrying builder as its rebased
    attribute.  builder(r0, total) is r -> h(r0 + r) / total written out as one
    closure, the same floats (0.0 + s is s for every s but -0.0, and x / 1.0 is
    x), so that decompose's needle density is one Python frame per call."""
    h = builder(0.0, 1.0)
    h.rebased = builder
    return h


def _sin_power(cd: CurvatureDimension, scale: float, length: float,
               diameter: float) -> _RadialModel:
    """The radial model of scale * sin_kappa^{N-1} on [0, length], kappa =
    K/(N-1): the density as a rebased closure (_rebased), clamped at 0 past
    pi_kappa, its derivative, its array form and its mode.  kappa = 0 gives
    scale * r^{N-1}, the flat ball's density."""
    expo, kappa = cd.N - 1.0, cd.kappa
    trig = kappa_trig(kappa)
    if trig is None:
        density = lambda r0, total: lambda r: scale * (r0 + r) ** expo / total
        deriv = lambda r: scale * expo * r ** (expo - 1.0)
        base = lambda np, r: r  # r >= 0: the array form's clamp is a no-op
    else:
        rt, sn, cs = trig  # sin_kappa(kappa, r) is sn(rt * r) / rt

        def density(r0: float, total: float) -> Callable[[float], float]:
            def fn(r):
                x = sn(rt * (r0 + r)) / rt
                return scale * (0.0 if 0.0 > x else x) ** expo / total  # max(x, 0.0)
            return fn
        deriv = lambda r: (scale * expo * max(sn(rt * r) / rt, 0.0) ** (expo - 1.0)
                           * cs(rt * r))
        base = lambda np, r: getattr(np, sn.__name__)(rt * r) / rt  # np.sin for math.sin
    return _RadialModel(length, diameter, _rebased(density), deriv,
                        min(length, 0.5 * pi_kappa(kappa)), _power_form(base, expo, scale))


def model_interval(cd: CurvatureDimension, length: Optional[float] = None) -> WeightedInterval:
    """The 1D model geometry for K > 0: density sin_{K/(N-1)}^{N-1} on
    [0, length], with length defaulting to the full model diameter."""
    if cd.K <= 0.0:
        raise ParameterError("model interval requires K > 0", key="K")
    check_sine_curvature(cd)
    full = pi_kappa(cd.kappa)
    if length is None:
        length = full
    if not 0.0 < length <= full:
        raise ParameterError(f"length must lie in (0, {full}], got {length}", key="length")
    model = _sin_power(cd, 1.0, length, length)
    try:
        profile = DensityProfile(0.0, length, model.density, deriv=model.density_deriv,
                                 mode=model.mode, values=model.values)
    except OverflowError:
        raise ParameterError("the model interval's density overflows a float") from None
    return WeightedInterval(length=length, density=profile, cd=cd)


def constant_interval(length: float, cd: CurvatureDimension) -> WeightedInterval:
    """Interval [0, length] with unit density.  Its u = h^{1/(N-1)} is constant,
    so u'' + K/(N-1) u <= 0, the CD(K, N) condition, holds only for K <= 0."""
    if cd.K > 0.0:
        raise ParameterError(f"a constant density satisfies CD(K, N) only for K <= 0, "
                             f"got K={cd.K}", key="K")
    _check_length(length)  # before DensityProfile, whose check names no key
    profile = DensityProfile(0.0, length, _rebased(lambda r0, total: lambda r: 1.0 / total),
                             deriv=lambda r: 0.0, mode=0.0,
                             values=_power_form(lambda np, r: r, 0, 1.0))  # r ** 0 is 1.0
    return WeightedInterval(length=length, density=profile, cd=cd)


def _configured_interval(K: float, N: float, density: str = "model",
                         length: Optional[float] = None) -> WeightedInterval:
    cd = CurvatureDimension(K, N)
    if density == "model":
        return model_interval(cd, length=length)
    if density == "constant":
        if length is None:
            raise ConfigError("constant density requires a length", key="length")
        return constant_interval(length, cd)
    raise ConfigError(f"unknown density family {density!r} (model or constant)",
                      key="density")


def _interval_radial(geom: WeightedInterval) -> _RadialModel:
    p = geom.density
    return _RadialModel(geom.length, geom.length, p.fn, p.deriv, p.mode, p.values)


class GeometryKind(NamedTuple):
    """One geometry kind: its configuration keys and how they build it, the
    surface class it takes, and its radial model."""

    name: str  # the config value of [geometry] kind
    cls: type
    keys: tuple[str, ...]  # required config keys besides kind
    optional: tuple[str, ...]  # optional config keys
    build: Callable[..., GeometrySpec]  # the geometry from its keys, by keyword
    surface: type  # GeodesicSphere or LevelPoint
    end: str  # what a surface at either end of the radial range touches
    radial: Callable[..., _RadialModel]


GEOMETRY_KINDS = {kind.name: kind for kind in (
    GeometryKind("weighted-interval", WeightedInterval, ("K", "N"), ("density", "length"),
                 _configured_interval, LevelPoint, "boundary", _interval_radial),
    GeometryKind("round-sphere", RoundSphere, ("n", "radius"), (), RoundSphere,
                 GeodesicSphere, "pole",
                 lambda g: _sin_power(g.cd, unit_sphere_volume(g.n - 1), math.pi * g.radius,
                                      math.pi * g.radius)),
    GeometryKind("euclidean-ball", EuclideanBall, ("n", "R"), (), EuclideanBall,
                 GeodesicSphere, "boundary",
                 lambda g: _sin_power(g.cd, unit_sphere_volume(g.n - 1), g.R, 2.0 * g.R)),
    GeometryKind("spherical-suspension", SphericalSuspension, ("K", "N", "base_volume"), (),
                 lambda K, N, base_volume: SphericalSuspension(CurvatureDimension(K, N),
                                                               base_volume),
                 GeodesicSphere, "pole",
                 lambda g: _sin_power(g.cd, g.base_volume, pi_kappa(g.cd.kappa),
                                      pi_kappa(g.cd.kappa))),
)}
_KIND_OF_CLASS = {kind.cls: kind for kind in GEOMETRY_KINDS.values()}


def _kind_of(geom: GeometrySpec) -> GeometryKind:
    """The GEOMETRY_KINDS entry of the geometry's class."""
    kind = _KIND_OF_CLASS.get(type(geom))
    if kind is None:
        raise ParameterError(f"unsupported geometry {geom!r}")
    return kind


@contextmanager
def _density_overflow_is_parameter_error(kind: GeometryKind):
    try:
        yield
    except OverflowError:
        raise ParameterError(f"the radial density of {kind.name} overflows a float "
                             "at these parameters") from None


def radial_model(geom: GeometrySpec) -> _RadialModel:
    """The radial density of the geometry on [0, length], with its diameter."""
    kind = _kind_of(geom)
    with _density_overflow_is_parameter_error(kind):
        return kind.radial(geom)


def decompose(geom: GeometrySpec, surf: SurfaceSpec) -> NeedleDecomposition:
    """Closed-form needle decomposition for the signed distance to the surface.

    The single congruence class is the radial density re-based at r0 and
    normalized; its weight is the total mass.  Raises DegenerateSurfaceError
    when r0 sits at the boundary of the radial range (needle base at an
    interval endpoint), CurvatureError when the base curvature is infinite,
    and ParameterError when the density or its mass overflows a float or the
    mass underflows to 0.
    """
    kind = _kind_of(geom)
    with _density_overflow_is_parameter_error(kind):
        model = kind.radial(geom)
        if not isinstance(surf, kind.surface):
            raise ParameterError(f"{kind.name} takes a {kind.surface.__name__} surface")
        r0 = surf.r0
        if not 0.0 < r0 < model.length:
            raise DegenerateSurfaceError(
                f"surface at r0={r0} touches the boundary of the radial range "
                f"(0, {model.length}) of {kind.name}")
        density = model.density
        density_deriv = model.density_deriv
        total = integrate(density, 0.0, model.length)
        if total == 0.0:
            raise ParameterError(f"the total mass of {kind.name} underflows to 0")
        if not math.isfinite(total):
            raise ParameterError(f"the total mass of {kind.name} overflows a float")
        rebased = getattr(density, "rebased", None)  # a built-in density's one frame
        fn = (rebased(r0, total) if rebased is not None
              else lambda r: density(r0 + r) / total)
        deriv = None
        if density_deriv is not None:
            deriv = lambda r: density_deriv(r0 + r) / total
        array_form = model.values
        profile = DensityProfile(
            -r0, model.length - r0, fn, deriv=deriv,
            mode=None if model.mode is None else model.mode - r0,
            values=None if array_form is None else lambda xs: array_form(r0 + xs) / total)
        d_plus = one_sided_log_derivative(profile, 0.0, "plus")
        d_minus = one_sided_log_derivative(profile, 0.0, "minus")
    # Inner mean curvature is the outer one of the role-swapped configuration,
    # i.e. -d^- log h(0); then H = max(H_plus, -H_minus) = max(d^+, d^-) log h(0).
    return NeedleDecomposition(
        needle=Needle(profile=profile, weight=total),
        total_mass=total,
        diameter=model.diameter,
        cd=geom.cd,
        surface_total=total * profile.fn(0.0),
        H_plus=d_plus,
        H_minus=-d_minus,
        H=max(d_plus, d_minus),
    )


def tube_volume(dec: NeedleDecomposition, t: float, side: str) -> float:
    """Mass of the one-sided tube of width t around the surface.  A needle
    density that is subnormal on average over the tube is a ParameterError:
    its quadrature has lost the digits the bounds compare."""
    if not t > 0.0:
        raise ParameterError(f"tube width t must be positive, got {t}")
    if side not in ("outer", "inner"):
        raise ParameterError(f"side must be 'outer' or 'inner', got {side!r}")
    p = dec.needle.profile
    lo, hi = (0.0, min(p.b, t)) if side == "outer" else (max(p.a, -t), 0.0)
    mass = integrate(p.fn, lo, hi)
    if mass < sys.float_info.min * (hi - lo):
        raise ParameterError(f"the needle density is subnormal on average over the {side} "
                             f"tube of width {t}: its mass is not resolved in a float")
    return dec.needle.weight * mass


def inner_mass(dec: NeedleDecomposition) -> float:
    """Mass of the inner region (the side the needle enters at negative r)."""
    return tube_volume(dec, dec.diameter, "inner")


def minkowski_content_from_dec(dec: NeedleDecomposition) -> float:
    """Outer Minkowski content estimate: tube_volume(eps)/eps at three halving
    widths eps, Richardson-extrapolated to 0.

    Quadratic extrapolation leaves an error of order eps1*eps2*eps3 relative to
    the cube of the local density-variation scale, so the widths are small
    against that scale: the distance from the surface to the nearest ray end,
    and 1/rate with rate = max(|H_plus|, sqrt(K (N-1))), the rate at which the
    density varies at the surface."""
    p = dec.needle.profile
    rate = max(abs(dec.H_plus), math.sqrt(max(dec.cd.K, 0.0) * (dec.cd.N - 1.0)))
    scale = min(dec.diameter, -p.a, p.b, 1.0 / rate if rate > 0.0 else math.inf)
    eps = (0.0025 * scale, 0.00125 * scale, 0.000625 * scale)
    return extrapolate_to_zero(eps, [tube_volume(dec, e, "outer") / e for e in eps])
