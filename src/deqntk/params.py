"""Kernel hyperparameters: the variance triple plus the output-layer variance.

The same parameter set drives every kernel in the package (scalar, empirical
and convolutional).  ``activation`` selects between the normalized ReLU
sqrt(2)*max(0, x) and the identity; the latter turns the fixed-point kernel
into the closed-form linear-DEQ kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

NORMALIZED_RELU = "normalized-relu"
LINEAR = "linear"


@dataclass(frozen=True)
class KernelParams:
    """Variance parameters (sigma_W^2, sigma_U^2, sigma_b^2, sigma_v^2).

    sigma_w_sq scales the recurrent weight, sigma_u_sq the input injection,
    sigma_b_sq the bias and sigma_v_sq the readout layer.
    """

    sigma_w_sq: float
    sigma_u_sq: float
    sigma_b_sq: float = 0.0
    sigma_v_sq: float = 1.0
    activation: str = NORMALIZED_RELU

    def __post_init__(self):
        for name in ("sigma_w_sq", "sigma_u_sq", "sigma_b_sq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.sigma_v_sq <= 0:
            raise ValueError("sigma_v_sq must be positive")
        if self.activation not in (NORMALIZED_RELU, LINEAR):
            raise ValueError(f"unknown activation {self.activation!r}")

    def require_contraction(self):
        """Fixed-point kernels need sigma_w_sq < 1 for the map to contract."""
        if self.sigma_w_sq >= 1.0:
            raise ValueError(
                f"sigma_w_sq={self.sigma_w_sq} >= 1: fixed-point map is not a "
                "contraction"
            )
