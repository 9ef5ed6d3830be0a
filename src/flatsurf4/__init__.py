"""Numerical construction and verification of flat surfaces in R^4 with
flat normal bundle: quaternionic flat maps, Hopf tori, the representation
formula f = alpha N + beta Nhat + alpha_u N_u + beta_u Nhat_u, and the
perturbed-Hopf flat tori and complete flat cylinders built from it.
"""

from .curve import (CurvatureProfile, QuasiPeriodicProfile, S3Curve,
                    asymptotic_lift, frenet_s3, helix, helix_curvature,
                    parse_profile)
from .errors import (ClosureFailure, DegenerateMetric, EqualSpeeds,
                     FlatSurfaceError, GridMismatch, IntegrationFailure,
                     NoLambdaFound, NonConstantAngle, NoSignChange,
                     NotOnSphere, PathDependence, PoleOnSurface,
                     PreconditionViolated, SingularAfterRescale)
from .flatmap import (AngleFunction, FlatMapGrid, SampledMaps,
                      bianchi_spivak_product, clifford_flat_map,
                      helix_product_map, hopf_flat_map, linear_angle,
                      profile_angle, read_flatmap_csv, verify_flat_map,
                      write_flatmap_csv)
from .hypsys import (FactorSolution, GridSpec, SmoothFn, SolutionGrid,
                     constant_solution, exponential_solution, geometric_solution,
                     helical_angle_solution, quadrature_transform,
                     solve_numeric, stretched_solution, system_residual,
                     wave_solution, zero_solution)
from .immersion import (ImmersionGrid, SphereFit, assemble, auto_lambda,
                        brioschi_curvature, lambda_rescale, metric_checks,
                        metric_identity_check, sphere_fit, tangency_check,
                        verify_frame, write_immersion_csv)
from .quat import (QI, QJ, QK, QONE, ad, fiber_circle, hopf, qconj, qexp_pure,
                   qinv, qmul, qnorm, qnormalize)
from .torusearch import (HolonomyResult, SearchOutcome, a_n,
                         build_perturbed_cylinder, build_perturbed_torus,
                         holonomy, holonomy_closure_residual,
                         lift_closure_multiple, rationalize, search_rational,
                         single_harmonic_family)

__version__ = "0.1.0"
