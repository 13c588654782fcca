"""Needle calculus on model metric measure spaces.

Builds closed-form needle decompositions for signed distance functions to
geodesic spheres, evaluates tube-volume bounds against mean-curvature
distortion profiles, runs the isoperimetric comparison, and detects the sharp
equality (rigidity) configuration.
"""

from .errors import (ConfigError, CurvatureError, DegenerateSurfaceError,
                     DomainError, InequalityViolation, NeedlecompError,
                     ParameterError)
from .geometry import (EuclideanBall, GeodesicSphere, GeometrySpec, LevelPoint,
                       NeedleDecomposition, RoundSphere, SphericalSuspension,
                       SurfaceSpec, WeightedInterval, constant_interval, decompose,
                       inner_mass, minkowski_content_from_dec, model_interval,
                       tube_volume)
from .hk import (DEFAULT_EQUALITY_TOL, HKReport, TOLERANCE_ENV_VAR, closed_form_bounds,
                 equality_detect, equality_tolerance, hk_full, hk_outer, levy_gromov_check)
from .model1d import (CurvatureDimension, JacobianParams, cos_kappa, jacobian,
                      jacobian_integral, jacobian_support, kappa_eff,
                      model_density_normalizer,
                      model_profile, model_rhs_constant_H, pi_kappa,
                      sigma_kappa, sin_kappa, unit_sphere_volume)
from .needle import (CdDensityReport, DensityProfile, Needle, RatioReport,
                     SturmReport, check_cd_density, density_ratio_check,
                     one_sided_log_derivative, sturm_bound_check)

__version__ = "0.1.0"
