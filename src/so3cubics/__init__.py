"""Riemannian cubics in SO(3).

Numerical integration of Lie quadratics (V'' = [V', V] + C) and of the
rotation curves they drive, closed-form first/second-order approximants
to nearly constant quadratics, quadrature reconstruction of cubics from
quadratics, and an experiment harness that generates figure and
convergence artifacts.
"""

from .algebra import (Frame, as_vector, bracket, frame_from_axis, frame_from_pair,
                      plane_rotation, rot_exp, rotation_error)
from .approximants import (ApproxParams, first_approximant, fit_params,
                           second_approximant, second_correction, taylor2_baseline)
from .errors import (ConfigError, DegeneracyError, DegenerateB, DegenerateFrame,
                     DegenerateThirdDerivative, OutOfDomain, StepTooLarge, ZeroDirection)
from .harness import ExperimentConfig, RunResult, default_config, run_experiment
from .quadratic import (QuadraticIVP, QuadraticTrajectory, RotationTrajectory,
                        conserved_constant, integrate_cubic, integrate_quadratic, is_null)
from .reconstruction import (ReconstructionInput, approx_cubic, reconstruct_cubic,
                             rotation_phase, rotation_phase_approx, so3_distance)

__version__ = "0.1.0"

__all__ = [
    "ApproxParams", "ConfigError", "DegeneracyError", "DegenerateB",
    "DegenerateFrame", "DegenerateThirdDerivative",
    "ExperimentConfig", "Frame", "OutOfDomain",
    "QuadraticIVP", "QuadraticTrajectory", "ReconstructionInput",
    "RotationTrajectory", "RunResult", "StepTooLarge", "ZeroDirection",
    "approx_cubic", "as_vector", "bracket", "conserved_constant", "default_config",
    "first_approximant", "fit_params", "frame_from_axis", "frame_from_pair",
    "integrate_cubic", "integrate_quadratic", "is_null", "plane_rotation",
    "reconstruct_cubic", "rot_exp",
    "rotation_error", "rotation_phase", "rotation_phase_approx", "run_experiment",
    "second_approximant", "second_correction", "so3_distance", "taylor2_baseline",
]
