"""Output error, the fixed random projection, and modulated-input construction.

The projection matrix maps output-space error back to input space; adding the
projected error to the original input produces the second ("modulated") pass
of the two-pass rule.  The matrix is sampled once and never resampled during
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError

__all__ = [
    "ProjectionMatrix",
    "sample_projection",
    "output_error",
    "modulate_input",
]


@dataclass(frozen=True)
class ProjectionMatrix:
    """Fixed Gaussian matrix of shape (input_dim, output_dim)."""

    matrix: np.ndarray
    seed: int
    sigma: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"projection matrix must be 2-D, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[1]


def sample_projection(
    input_dim: int, output_dim: int, seed: int, scale: float = 0.05
) -> ProjectionMatrix:
    """Sample the projection: entries i.i.d. N(0, sigma^2), sigma = scale*sqrt(6/input_dim).

    The 0.05 default follows the fan-in scaling rule; deterministic per seed.
    """
    if input_dim < 1 or output_dim < 1:
        raise ValueError(f"projection dims must be >= 1, got {input_dim}x{output_dim}")
    sigma = scale * np.sqrt(6.0 / input_dim)
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, sigma, size=(input_dim, output_dim))
    return ProjectionMatrix(matrix=matrix, seed=seed, sigma=float(sigma))


def output_error(x_l: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Error at the output layer: network output minus target.

    The reported mean-squared-error metric is ``mean(gamma**2)`` over the
    returned vector.
    """
    x_l = np.asarray(x_l, dtype=float)
    target = np.asarray(target, dtype=float)
    if x_l.shape != target.shape:
        raise ValueError(f"output shape {x_l.shape} != target shape {target.shape}")
    gamma = x_l - target
    if not np.isfinite(gamma).all():
        raise NonFiniteError("output error contains non-finite values")
    return gamma


def modulate_input(
    x0: np.ndarray, proj: ProjectionMatrix, gamma: np.ndarray
) -> np.ndarray:
    """Modulated input for the second pass: x0 + F @ gamma.

    Affine in gamma; x0 and gamma may be single vectors or (d, B) column
    batches.
    """
    x0 = np.asarray(x0, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if x0.shape[0] != proj.input_dim:
        raise ValueError(f"input length {x0.shape[0]} != projection rows {proj.input_dim}")
    if gamma.shape[0] != proj.output_dim:
        raise ValueError(
            f"error length {gamma.shape[0]} != projection cols {proj.output_dim}"
        )
    return x0 + proj.matrix @ gamma
