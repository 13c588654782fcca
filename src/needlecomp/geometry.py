"""Model geometries and their closed-form needle decompositions.

Every supported geometry is rotationally symmetric around a pole or center, so
the radial coordinate is the only spatial datum: a geometry reduces to a radial
density on [0, L].  All needles through a geodesic sphere are congruent and the
quotient collapses to one representative needle whose weight is the total mass.
Needle densities are stored normalized to probability measures, with the
normalizer folded into the weight; the surface measure total is weight * h(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

from .errors import (CurvatureError, DegenerateSurfaceError, DomainError,
                     ParameterError)
from .model1d import (CurvatureDimension, JacobianParams, jacobian, pi_kappa,
                      unit_sphere_volume)
from .needle import DensityProfile, Needle, needle_mass, one_sided_log_derivative
from .numerics import extrapolate_to_zero, integrate

# Interior points at which a needle density is compared with h(0) J_H.
PROFILE_MATCH_POINTS = 200


@dataclass(frozen=True)
class WeightedInterval:
    """Interval [0, length] carrying an explicit density and its CD parameters."""

    length: float
    density: DensityProfile
    cd: CurvatureDimension

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ParameterError(f"interval length must be positive, got {self.length}")
        if self.density.a != 0.0 or self.density.b != self.length:
            raise ParameterError("interval density must live on [0, length]")


@dataclass(frozen=True)
class RoundSphere:
    """Round sphere of dimension n and the given radius, Riemannian volume."""

    n: int
    radius: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"sphere dimension must be >= 2, got {self.n}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ParameterError(f"sphere radius must be positive, got {self.radius}")

    @property
    def cd(self) -> CurvatureDimension:
        return CurvatureDimension((self.n - 1) / self.radius ** 2, float(self.n))


@dataclass(frozen=True)
class EuclideanBall:
    """Closed ball of radius R in n-dimensional flat space, Lebesgue measure."""

    n: int
    R: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"ball dimension must be >= 1, got {self.n}")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ParameterError(f"ball radius must be positive, got {self.R}")

    @property
    def cd(self) -> CurvatureDimension:
        return CurvatureDimension(0.0, float(self.n))


@dataclass(frozen=True)
class SphericalSuspension:
    """Warped product over the positively curved 1D model space; the cross
    section enters only through its total measure."""

    cd: CurvatureDimension
    base_volume: float

    def __post_init__(self):
        if self.cd.K <= 0.0:
            raise ParameterError(f"suspension requires K > 0, got K={self.cd.K}")
        if self.cd.N <= 1.0:
            raise ParameterError(f"suspension requires N > 1, got N={self.cd.N}")
        if not (math.isfinite(self.base_volume) and self.base_volume > 0.0):
            raise ParameterError(f"base volume must be positive, got {self.base_volume}")


GeometrySpec = Union[WeightedInterval, RoundSphere, EuclideanBall, SphericalSuspension]


@dataclass(frozen=True)
class LevelPoint:
    """Surface {r0} of a weighted interval; the inner region is [0, r0]."""

    r0: float


@dataclass(frozen=True)
class GeodesicSphere:
    """Distance sphere of radius r0 about the pole/center; inner region is the ball."""

    r0: float


SurfaceSpec = Union[LevelPoint, GeodesicSphere]


@dataclass(frozen=True)
class MeanCurvature:
    H_plus: float
    H_minus: float
    H: float


@dataclass(frozen=True)
class NeedleDecomposition:
    """Weighted needle family for one geometry/surface pair, with the surface
    measure total and per-needle mean curvatures."""

    needles: tuple[Needle, ...]
    total_mass: float
    diameter: float
    cd: CurvatureDimension
    surface_total: float
    H_plus: tuple[float, ...]
    H_minus: tuple[float, ...]
    H: tuple[float, ...]

    @cached_property
    def profile_deviation(self) -> tuple[float, ...]:
        """Per needle, max |h(r)/h(0) - J_H(r)| / max(J_H(r), 1e-12) over
        PROFILE_MATCH_POINTS interior points; computed on first use."""
        deviations = []
        for needle, H in zip(self.needles, self.H):
            params, p = JacobianParams(H, self.cd), needle.profile
            h0, worst = p.fn(0.0), 0.0
            for i in range(PROFILE_MATCH_POINTS):
                r = p.a + (p.b - p.a) * (i + 1.0) / (PROFILE_MATCH_POINTS + 1.0)
                bound = jacobian(params, r)
                worst = max(worst, abs(p.fn(r) / h0 - bound) / max(bound, 1e-12))
            deviations.append(worst)
        return tuple(deviations)


@dataclass(frozen=True)
class _RadialModel:
    kind: str
    length: float
    density: Callable[[float], float]
    density_deriv: Optional[Callable[[float], float]]
    cd: CurvatureDimension
    diameter: float
    mode: Optional[float]  # where the density peaks, as DensityProfile.mode


def model_interval(cd: CurvatureDimension, length: Optional[float] = None,
                   grid_size: int = 1024) -> WeightedInterval:
    """The 1D model geometry for K > 0: density sin_{K/(N-1)}^{N-1} on
    [0, length], with length defaulting to the full model diameter."""
    if cd.K <= 0.0 or cd.N <= 1.0:
        raise ParameterError("model interval requires K > 0 and N > 1")
    kap = cd.K / (cd.N - 1.0)
    full = pi_kappa(kap)
    if length is None:
        length = full
    if not 0.0 < length <= full:
        raise ParameterError(f"length must lie in (0, {full}], got {length}")
    expo = cd.N - 1.0
    rt = math.sqrt(kap)  # sin_kappa(kap, r) is math.sin(rt * r) / rt
    fn = lambda r: max(math.sin(rt * r) / rt, 0.0) ** expo
    deriv = lambda r: expo * max(math.sin(rt * r) / rt, 0.0) ** (expo - 1.0) * math.cos(rt * r)
    try:
        profile = DensityProfile(0.0, length, fn, deriv=deriv, grid_size=grid_size,
                                 mode=min(length, 0.5 * full))
    except OverflowError:
        raise ParameterError("the model interval's density overflows a float") from None
    return WeightedInterval(length=length, density=profile, cd=cd)


def constant_interval(length: float, cd: CurvatureDimension,
                      grid_size: int = 1024) -> WeightedInterval:
    """Interval [0, length] with unit density."""
    profile = DensityProfile(0.0, length, lambda r: 1.0, deriv=lambda r: 0.0,
                             grid_size=grid_size, mode=0.0)
    return WeightedInterval(length=length, density=profile, cd=cd)


def _radial_model(geom: GeometrySpec) -> _RadialModel:
    try:
        if isinstance(geom, WeightedInterval):
            return _RadialModel("weighted-interval", geom.length, geom.density.fn,
                                geom.density.deriv, geom.cd, geom.length, geom.density.mode)
        if isinstance(geom, RoundSphere):
            n, radius = geom.n, geom.radius
            scale = unit_sphere_volume(n - 1) * radius ** (n - 1)
            density = lambda s: scale * max(math.sin(s / radius), 0.0) ** (n - 1)
            deriv = lambda s: (scale * (n - 1) * max(math.sin(s / radius), 0.0) ** (n - 2)
                               * math.cos(s / radius) / radius)
            return _RadialModel("round-sphere", math.pi * radius, density, deriv,
                                geom.cd, math.pi * radius, 0.5 * math.pi * radius)
        if isinstance(geom, EuclideanBall):
            n, R = geom.n, geom.R
            scale = unit_sphere_volume(n - 1)
            density = lambda s: scale * s ** (n - 1)
            if n == 1:
                deriv = lambda s: 0.0
            else:
                deriv = lambda s: scale * (n - 1) * s ** (n - 2)
            return _RadialModel("euclidean-ball", R, density, deriv, geom.cd, 2.0 * R, R)
        if isinstance(geom, SphericalSuspension):
            cd = geom.cd
            kap = cd.K / (cd.N - 1.0)
            top = pi_kappa(kap)
            expo = cd.N - 1.0
            vol = geom.base_volume
            rt = math.sqrt(kap)  # sin_kappa(kap, s) is math.sin(rt * s) / rt
            density = lambda s: vol * max(math.sin(rt * s) / rt, 0.0) ** expo
            deriv = lambda s: (vol * expo * max(math.sin(rt * s) / rt, 0.0) ** (expo - 1.0)
                               * math.cos(rt * s))
            return _RadialModel("spherical-suspension", top, density, deriv, cd, top, 0.5 * top)
        raise ParameterError(f"unsupported geometry {geom!r}")
    except OverflowError:
        raise ParameterError(f"the radial density of {type(geom).__name__} overflows "
                             "a float at these parameters") from None


def _surface_offset(geom: GeometrySpec, surf: SurfaceSpec, model: _RadialModel) -> float:
    if isinstance(geom, WeightedInterval):
        if not isinstance(surf, LevelPoint):
            raise ParameterError("a weighted interval takes a LevelPoint surface")
    elif not isinstance(surf, GeodesicSphere):
        raise ParameterError(f"{model.kind} takes a GeodesicSphere surface")
    r0 = surf.r0
    if not 0.0 < r0 < model.length:
        raise DegenerateSurfaceError(
            f"surface at r0={r0} touches the boundary of the radial range "
            f"(0, {model.length}) of {model.kind}")
    return r0


def signed_distance(geom: GeometrySpec, surf: SurfaceSpec, x: float) -> float:
    """Signed distance of the point at radial coordinate x from the surface:
    negative inside the inner region, zero on the surface, positive outside."""
    model = _radial_model(geom)
    r0 = _surface_offset(geom, surf, model)
    if not 0.0 <= x <= model.length:
        raise DomainError(f"radial coordinate {x} outside [0, {model.length}]")
    return x - r0


def _needle_curvature(needle: Needle) -> MeanCurvature:
    profile = needle.profile
    d_plus = one_sided_log_derivative(profile, 0.0, "plus")
    d_minus = one_sided_log_derivative(profile, 0.0, "minus")
    if math.isinf(d_plus) or math.isinf(d_minus):
        raise CurvatureError("needle has infinite one-sided curvature at its base")
    # Inner mean curvature is the outer one of the role-swapped configuration,
    # i.e. -d^- log h(0); then H = max(H_plus, -H_minus) = max(d^+, d^-) log h(0).
    return MeanCurvature(H_plus=d_plus, H_minus=-d_minus, H=max(d_plus, d_minus))


def mean_curvature_field(dec: NeedleDecomposition) -> tuple[MeanCurvature, ...]:
    """Recompute (H_plus, H_minus, H) for every needle of the decomposition."""
    for needle in dec.needles:
        if not needle.profile.a < 0.0 < needle.profile.b:
            raise DomainError("needle base must lie in the open interval")
    return tuple(_needle_curvature(n) for n in dec.needles)


def decompose(geom: GeometrySpec, surf: SurfaceSpec,
              grid_size: int = 1024) -> NeedleDecomposition:
    """Closed-form needle decomposition for the signed distance to the surface.

    The single congruence class is the radial density re-based at r0 and
    normalized; its weight is the total mass.  Raises DegenerateSurfaceError
    when r0 sits at the boundary of the radial range (needle base at an
    interval endpoint), CurvatureError when the base curvature is infinite,
    and ParameterError when the density overflows or its mass underflows a float.
    """
    model = _radial_model(geom)
    if model.cd.N <= 1.0:
        raise ParameterError(f"needle calculus requires N > 1, got N={model.cd.N}")
    r0 = _surface_offset(geom, surf, model)

    density = model.density
    density_deriv = model.density_deriv
    try:
        total = integrate(density, 0.0, model.length)
        if total == 0.0:
            raise ParameterError(f"the total mass of {model.kind} underflows to 0")
        fn = lambda r: density(r0 + r) / total
        deriv = None
        if density_deriv is not None:
            deriv = lambda r: density_deriv(r0 + r) / total
        profile = DensityProfile(-r0, model.length - r0, fn, deriv=deriv,
                                 grid_size=grid_size,
                                 mode=None if model.mode is None else model.mode - r0)
        needle = Needle(profile=profile, weight=total)
        curvature = _needle_curvature(needle)
    except OverflowError:
        raise ParameterError(f"the radial density of {model.kind} overflows a float "
                             "at these parameters") from None
    surface_total = needle.weight * profile.fn(0.0)
    return NeedleDecomposition(
        needles=(needle,),
        total_mass=total,
        diameter=model.diameter,
        cd=model.cd,
        surface_total=surface_total,
        H_plus=(curvature.H_plus,),
        H_minus=(curvature.H_minus,),
        H=(curvature.H,),
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


def default_epsilons(scale: float) -> tuple[float, float, float]:
    """Tube-width schedule for Minkowski content extrapolation.

    Quadratic extrapolation leaves an error of order eps1*eps2*eps3 relative
    to the cube of the local density-variation scale, so the schedule must be
    small against that scale (the distance from the surface to the nearest
    ray end, not the diameter)."""
    return (0.0025 * scale, 0.00125 * scale, 0.000625 * scale)


def _feature_scale(dec: "NeedleDecomposition") -> float:
    scale = dec.diameter
    for needle in dec.needles:
        scale = min(scale, -needle.profile.a, needle.profile.b)
    return scale


def minkowski_content_from_dec(dec: NeedleDecomposition,
                               epsilons: Optional[tuple[float, ...]] = None) -> float:
    """Outer Minkowski content estimate: tube_volume(eps)/eps along a decreasing
    schedule, Richardson-extrapolated to 0 from the last three values."""
    if epsilons is None:
        epsilons = default_epsilons(_feature_scale(dec))
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ParameterError(f"need at least 3 epsilons, got {len(eps)}")
    if any(e <= 0.0 for e in eps) or any(later >= earlier
                                         for later, earlier in zip(eps[1:], eps[:-1])):
        raise ParameterError("epsilons must be positive and strictly decreasing")
    values = [tube_volume(dec, e, "outer") / e for e in eps]
    return extrapolate_to_zero(eps[-3:], values[-3:])


def minkowski_content(geom: GeometrySpec, surf: SurfaceSpec,
                      epsilons: Optional[tuple[float, ...]] = None) -> float:
    """Outer Minkowski content of the inner region; for these model surfaces it
    equals the surface measure total."""
    dec = decompose(geom, surf)
    return minkowski_content_from_dec(dec, epsilons)


def disintegration_defect(dec: NeedleDecomposition) -> float:
    """Relative mismatch between the summed needle masses and the total mass."""
    summed = sum(needle_mass(n) for n in dec.needles)
    return abs(summed - dec.total_mass) / dec.total_mass
