"""Net magnetisation moment recovery from planar disk field maps.

Synthesize the normal field of a dipole ensemble on a measurement disk,
estimate the net moment components with polynomial weights of increasing
asymptotic order, predict the leading error terms, recover far-field
expansion coefficients from data, and study robustness under additive
measurement noise.
"""

__version__ = "0.1.0"

from .scene import (MU0, Dipole, DipoleScene, MomentVector, SceneError,
                    algebraic_moment, height_moment, load_scene, net_moment,
                    scene_from_dict, scene_to_dict)
from .field import (AsymptCoeffs, asympt_coefficients, asympt_condition_margin,
                    b3, b3_asympt)
from .quad import (DiskGrid, FieldMap, Provenance, build_grid, integrate_weighted,
                   read_field_csv, sample_field, write_field_csv)
from .noise import DetrendPoint, NoiseSpec, add_noise, detrend_backward, noise_sigma
from .estimate import (EstimatorSpec, GridParams, RecoveredCoeffs, SweepResult,
                       SweepRow, TQuantities, all_specs, convergence_slope,
                       d_coefficients, estimate_moment, estimator_weight,
                       predicted_leading_error, raster_m3_drift_series,
                       recovered_coefficients, sweep, t_quantities,
                       t_quantities_analytic)
from . import specfun

__all__ = [
    "MU0",
    "Dipole",
    "DipoleScene",
    "MomentVector",
    "SceneError",
    "algebraic_moment",
    "height_moment",
    "load_scene",
    "net_moment",
    "scene_from_dict",
    "scene_to_dict",
    "AsymptCoeffs",
    "asympt_coefficients",
    "asympt_condition_margin",
    "b3",
    "b3_asympt",
    "DiskGrid",
    "FieldMap",
    "Provenance",
    "build_grid",
    "integrate_weighted",
    "read_field_csv",
    "sample_field",
    "write_field_csv",
    "DetrendPoint",
    "NoiseSpec",
    "add_noise",
    "detrend_backward",
    "noise_sigma",
    "EstimatorSpec",
    "GridParams",
    "RecoveredCoeffs",
    "SweepResult",
    "SweepRow",
    "TQuantities",
    "all_specs",
    "convergence_slope",
    "d_coefficients",
    "estimate_moment",
    "estimator_weight",
    "predicted_leading_error",
    "raster_m3_drift_series",
    "recovered_coefficients",
    "sweep",
    "t_quantities",
    "t_quantities_analytic",
    "specfun",
]
