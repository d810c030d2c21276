"""Output error, the fixed random projection, and modulated-input construction.

The projection ``F`` is a plain ``(input_dim, output_dim)`` array that maps
output-space error back to input space; adding the projected error to the
original input produces the second ("modulated") pass of the two-pass rule.
``F`` is sampled once and returned read-only, so it cannot change during
training.
"""

from __future__ import annotations

import numpy as np

from .core import _require_finite

__all__ = [
    "sample_projection",
    "output_error",
    "modulate_input",
]


def sample_projection(
    input_dim: int, output_dim: int, seed: int, scale: float = 0.05
) -> np.ndarray:
    """Sample F: entries i.i.d. N(0, sigma^2), sigma = scale*sqrt(6/input_dim).

    F is returned read-only, shape (input_dim, output_dim).  The 0.05 default
    follows the fan-in scaling rule; deterministic per seed.
    """
    if input_dim < 1 or output_dim < 1:
        raise ValueError(f"projection dims must be >= 1, got {input_dim}x{output_dim}")
    sigma = scale * np.sqrt(6.0 / input_dim)
    proj = np.random.default_rng(seed).normal(0.0, sigma, size=(input_dim, output_dim))
    proj.flags.writeable = False
    return proj


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
    _require_finite("output error", gamma)
    return gamma


def modulate_input(x0: np.ndarray, proj: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Modulated input for the second pass: x0 + F @ gamma.

    Affine in gamma; x0 and gamma may be single vectors or (d, B) column
    batches.
    """
    x0 = np.asarray(x0, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if proj.ndim != 2:
        raise ValueError(f"projection must be 2-D, got shape {proj.shape}")
    if x0.shape[0] != proj.shape[0]:
        raise ValueError(f"input length {x0.shape[0]} != projection rows {proj.shape[0]}")
    if gamma.shape[0] != proj.shape[1]:
        raise ValueError(f"error length {gamma.shape[0]} != projection cols {proj.shape[1]}")
    return x0 + proj @ gamma
