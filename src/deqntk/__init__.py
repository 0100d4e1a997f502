"""Equilibrium-network kernel computations: fixed-point, convolutional,
finite-width empirical, spectral and regression tooling."""

import logging

__version__ = "0.1.0"

# Fallbacks are logged; nothing is printed unless the application asks.
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .errors import (
    ConvergenceError,
    DataFormatError,
    DomainError,
    SingularityError,
)
from .kernel import (
    FixedPointResult,
    PairKernelState,
    dual_activation,
    dual_activation_dot,
    finite_depth_ntk,
    finite_depth_theta,
    theta_deq,
    theta_deq_grid,
    theta_linear_deq,
)
from .params import LINEAR, NORMALIZED_RELU, KernelParams

__all__ = [
    "ConvergenceError",
    "DataFormatError",
    "DomainError",
    "SingularityError",
    "FixedPointResult",
    "PairKernelState",
    "dual_activation",
    "dual_activation_dot",
    "finite_depth_ntk",
    "finite_depth_theta",
    "theta_deq",
    "theta_deq_grid",
    "theta_linear_deq",
    "KernelParams",
    "LINEAR",
    "NORMALIZED_RELU",
    "__version__",
]
