"""Model geometries and their closed-form needle decompositions.

Every supported geometry is rotationally symmetric around a pole or center, so
the radial coordinate is the only spatial datum: a geometry reduces to a radial
density on [0, L].  All needles through a geodesic sphere are congruent and the
quotient collapses to one representative needle whose weight is the total mass.
Needle densities are stored normalized to probability measures, with the
normalizer folded into the weight; the surface measure total is weight * h(0).
GEOMETRY_KINDS describes each kind once, keyed by its configuration name.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from collections import namedtuple
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .errors import (ConfigError, CurvatureError, DegenerateSurfaceError,
                     ParameterError)
from .model1d import (J_OVERFLOWS, CurvatureDimension, JacobianParams, jacobian,
                      pi_kappa, unit_sphere_volume)
from .needle import DensityProfile, Needle, one_sided_log_derivative
from .numerics import extrapolate_to_zero, integrate

# Interior points at which a needle density is compared with h(0) J_H.
PROFILE_MATCH_POINTS = 200


class WeightedInterval(namedtuple("WeightedInterval", "length density cd")):
    """Interval [0, length] carrying an explicit density and its CD parameters."""

    __slots__ = ()

    def __new__(cls, length: float, density: DensityProfile, cd: CurvatureDimension):
        if not (math.isfinite(length) and length > 0.0):
            raise ParameterError(f"interval length must be positive, got {length}")
        if density.a != 0.0 or density.b != length:
            raise ParameterError("interval density must live on [0, length]")
        return super().__new__(cls, length, density, cd)


class RoundSphere(namedtuple("RoundSphere", "n radius")):
    """Round sphere of dimension n and the given radius, Riemannian volume."""

    __slots__ = ()

    def __new__(cls, n: int, radius: float):
        if n < 2:
            raise ParameterError(f"sphere dimension must be >= 2, got {n}")
        if not (math.isfinite(radius) and radius > 0.0):
            raise ParameterError(f"sphere radius must be positive, got {radius}")
        return super().__new__(cls, n, radius)

    @property
    def cd(self) -> CurvatureDimension:
        return CurvatureDimension((self.n - 1) / self.radius ** 2, float(self.n))


class EuclideanBall(namedtuple("EuclideanBall", "n R")):
    """Closed ball of radius R in n-dimensional flat space, Lebesgue measure."""

    __slots__ = ()

    def __new__(cls, n: int, R: float):
        if n < 1:
            raise ParameterError(f"ball dimension must be >= 1, got {n}")
        if not (math.isfinite(R) and R > 0.0):
            raise ParameterError(f"ball radius must be positive, got {R}")
        return super().__new__(cls, n, R)

    @property
    def cd(self) -> CurvatureDimension:
        return CurvatureDimension(0.0, float(self.n))


class SphericalSuspension(namedtuple("SphericalSuspension", "cd base_volume")):
    """Warped product over the positively curved 1D model space; the cross
    section enters only through its total measure."""

    __slots__ = ()

    def __new__(cls, cd: CurvatureDimension, base_volume: float):
        if cd.K <= 0.0:
            raise ParameterError(f"suspension requires K > 0, got K={cd.K}")
        if cd.N <= 1.0:
            raise ParameterError(f"suspension requires N > 1, got N={cd.N}")
        if not (math.isfinite(base_volume) and base_volume > 0.0):
            raise ParameterError(f"base volume must be positive, got {base_volume}")
        return super().__new__(cls, cd, base_volume)


GeometrySpec = Union[WeightedInterval, RoundSphere, EuclideanBall, SphericalSuspension]


class LevelPoint(NamedTuple):
    """Surface {r0} of a weighted interval; the inner region is [0, r0]."""

    r0: float


class GeodesicSphere(NamedTuple):
    """Distance sphere of radius r0 about the pole/center; inner region is the ball."""

    r0: float


SurfaceSpec = Union[LevelPoint, GeodesicSphere]


class NeedleDecomposition(namedtuple("NeedleDecomposition", (
        "needles", "total_mass", "diameter", "cd", "surface_total", "H_plus", "H_minus", "H"))):
    """Weighted needle family for one geometry/surface pair, with the surface
    measure total and per-needle mean curvatures.  needles is a tuple of
    Needle; H_plus, H_minus and H are tuples of floats, one per needle."""

    # No __slots__: the cached profile_deviation lives in the instance dict.

    @cached_property
    def profile_deviation(self) -> tuple[float, ...]:
        """Per needle, max |h(r)/h(0) - J_H(r)| / max(J_H(r), 1e-12) over
        PROFILE_MATCH_POINTS interior points; computed on first use.  A J that
        overflows a float there is a ParameterError."""
        deviations = []
        for needle, H in zip(self.needles, self.H):
            params, p = JacobianParams(H, self.cd), needle.profile
            h0, worst = p.fn(0.0), 0.0
            try:
                for i in range(PROFILE_MATCH_POINTS):
                    r = p.a + (p.b - p.a) * (i + 1.0) / (PROFILE_MATCH_POINTS + 1.0)
                    bound = jacobian(params, r)
                    worst = max(worst, abs(p.fn(r) / h0 - bound) / max(bound, 1e-12))
            except OverflowError:
                raise ParameterError(J_OVERFLOWS) from None
            deviations.append(worst)
        return tuple(deviations)


class _RadialModel(NamedTuple):
    length: float
    diameter: float
    density: Callable[[float], float]
    density_deriv: Optional[Callable[[float], float]]
    mode: Optional[float]  # where the density peaks, as DensityProfile.mode


def _sin_power(cd: CurvatureDimension, scale: float = 1.0):
    """scale * sin_{K/(N-1)}^{N-1} and its derivative, clamped at 0 past pi_kappa."""
    expo = cd.N - 1.0
    rt = math.sqrt(cd.K / expo)  # sin_kappa(kap, r) is math.sin(rt * r) / rt
    return (lambda r: scale * max(math.sin(rt * r) / rt, 0.0) ** expo,
            lambda r: (scale * expo * max(math.sin(rt * r) / rt, 0.0) ** (expo - 1.0)
                       * math.cos(rt * r)))


def model_interval(cd: CurvatureDimension, length: Optional[float] = None,
                   grid_size: int = 1024) -> WeightedInterval:
    """The 1D model geometry for K > 0: density sin_{K/(N-1)}^{N-1} on
    [0, length], with length defaulting to the full model diameter."""
    if cd.K <= 0.0 or cd.N <= 1.0:
        raise ParameterError("model interval requires K > 0 and N > 1")
    full = pi_kappa(cd.K / (cd.N - 1.0))
    if length is None:
        length = full
    if not 0.0 < length <= full:
        raise ParameterError(f"length must lie in (0, {full}], got {length}")
    fn, deriv = _sin_power(cd)
    try:
        profile = DensityProfile(0.0, length, fn, deriv=deriv, grid_size=grid_size,
                                 mode=min(length, 0.5 * full))
    except OverflowError:
        raise ParameterError("the model interval's density overflows a float") from None
    return WeightedInterval(length=length, density=profile, cd=cd)


def constant_interval(length: float, cd: CurvatureDimension,
                      grid_size: int = 1024) -> WeightedInterval:
    """Interval [0, length] with unit density.  Its u = h^{1/(N-1)} is constant,
    so u'' + K/(N-1) u <= 0, the CD(K, N) condition, holds only for K <= 0."""
    if cd.K > 0.0:
        raise ParameterError(f"a constant density satisfies CD(K, N) only for K <= 0, "
                             f"got K={cd.K}")
    profile = DensityProfile(0.0, length, lambda r: 1.0, deriv=lambda r: 0.0,
                             grid_size=grid_size, mode=0.0)
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
    return _RadialModel(geom.length, geom.length, p.fn, p.deriv, p.mode)


def _sphere_radial(geom: RoundSphere) -> _RadialModel:
    n, radius = geom.n, geom.radius
    scale = unit_sphere_volume(n - 1) * radius ** (n - 1)
    density = lambda s: scale * max(math.sin(s / radius), 0.0) ** (n - 1)
    deriv = lambda s: (scale * (n - 1) * max(math.sin(s / radius), 0.0) ** (n - 2)
                       * math.cos(s / radius) / radius)
    return _RadialModel(math.pi * radius, math.pi * radius, density, deriv,
                        0.5 * math.pi * radius)


def _ball_radial(geom: EuclideanBall) -> _RadialModel:
    n, scale = geom.n, unit_sphere_volume(geom.n - 1)
    deriv = (lambda s: 0.0) if n == 1 else (lambda s: scale * (n - 1) * s ** (n - 2))
    return _RadialModel(geom.R, 2.0 * geom.R, lambda s: scale * s ** (n - 1), deriv, geom.R)


def _suspension_radial(geom: SphericalSuspension) -> _RadialModel:
    top = pi_kappa(geom.cd.K / (geom.cd.N - 1.0))
    density, deriv = _sin_power(geom.cd, geom.base_volume)
    return _RadialModel(top, top, density, deriv, 0.5 * top)


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
                 GeodesicSphere, "pole", _sphere_radial),
    GeometryKind("euclidean-ball", EuclideanBall, ("n", "R"), (), EuclideanBall,
                 GeodesicSphere, "boundary", _ball_radial),
    GeometryKind("spherical-suspension", SphericalSuspension, ("K", "N", "base_volume"), (),
                 lambda K, N, base_volume: SphericalSuspension(CurvatureDimension(K, N),
                                                               base_volume),
                 GeodesicSphere, "pole", _suspension_radial),
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


def decompose(geom: GeometrySpec, surf: SurfaceSpec,
              grid_size: int = 1024) -> NeedleDecomposition:
    """Closed-form needle decomposition for the signed distance to the surface.

    The single congruence class is the radial density re-based at r0 and
    normalized; its weight is the total mass.  Raises DegenerateSurfaceError
    when r0 sits at the boundary of the radial range (needle base at an
    interval endpoint), CurvatureError when the base curvature is infinite,
    and ParameterError when the density overflows or its mass underflows a float.
    """
    kind = _kind_of(geom)
    with _density_overflow_is_parameter_error(kind):
        model = kind.radial(geom)
        if geom.cd.N <= 1.0:
            raise ParameterError(f"needle calculus requires N > 1, got N={geom.cd.N}")
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
        fn = lambda r: density(r0 + r) / total
        deriv = None
        if density_deriv is not None:
            deriv = lambda r: density_deriv(r0 + r) / total
        profile = DensityProfile(-r0, model.length - r0, fn, deriv=deriv,
                                 grid_size=grid_size,
                                 mode=None if model.mode is None else model.mode - r0)
        d_plus = one_sided_log_derivative(profile, 0.0, "plus")
        d_minus = one_sided_log_derivative(profile, 0.0, "minus")
    if math.isinf(d_plus) or math.isinf(d_minus):
        raise CurvatureError("needle has infinite one-sided curvature at its base")
    # Inner mean curvature is the outer one of the role-swapped configuration,
    # i.e. -d^- log h(0); then H = max(H_plus, -H_minus) = max(d^+, d^-) log h(0).
    return NeedleDecomposition(
        needles=(Needle(profile=profile, weight=total),),
        total_mass=total,
        diameter=model.diameter,
        cd=geom.cd,
        surface_total=total * profile.fn(0.0),
        H_plus=(d_plus,),
        H_minus=(-d_minus,),
        H=(max(d_plus, d_minus),),
    )


def tube_volume(dec: NeedleDecomposition, t: float, side: str) -> float:
    """Mass of the one-sided tube of width t around the surface."""
    if not t > 0.0:
        raise ParameterError(f"tube width t must be positive, got {t}")
    if side not in ("outer", "inner"):
        raise ParameterError(f"side must be 'outer' or 'inner', got {side!r}")
    total = 0.0
    for needle in dec.needles:
        p = needle.profile
        if side == "outer":
            total += needle.weight * integrate(p.fn, 0.0, min(p.b, t))
        else:
            total += needle.weight * integrate(p.fn, max(p.a, -t), 0.0)
    return total


def inner_mass(dec: NeedleDecomposition) -> float:
    """Mass of the inner region (the side the needles enter at negative r)."""
    return tube_volume(dec, dec.diameter, "inner")


def minkowski_content_from_dec(dec: NeedleDecomposition,
                               epsilons: Optional[tuple[float, ...]] = None) -> float:
    """Outer Minkowski content estimate: tube_volume(eps)/eps along a decreasing
    schedule, Richardson-extrapolated to 0 from the last three values.

    Quadratic extrapolation leaves an error of order eps1*eps2*eps3 relative to
    the cube of the local density-variation scale, so the default schedule is
    small against that scale: the distance from the surface to the nearest ray
    end, not the diameter."""
    if epsilons is None:
        scale = min([dec.diameter] + [min(-n.profile.a, n.profile.b) for n in dec.needles])
        epsilons = (0.0025 * scale, 0.00125 * scale, 0.000625 * scale)
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ParameterError(f"need at least 3 epsilons, got {len(eps)}")
    if any(e <= 0.0 for e in eps) or any(later >= earlier
                                         for later, earlier in zip(eps[1:], eps[:-1])):
        raise ParameterError("epsilons must be positive and strictly decreasing")
    values = [tube_volume(dec, e, "outer") / e for e in eps]
    return extrapolate_to_zero(eps[-3:], values[-3:])
