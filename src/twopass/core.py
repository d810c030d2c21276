"""Feed-forward networks: activations, weight init, layers, and the forward pass.

Arrays follow a column convention throughout the package: a single sample is a
1-D vector of length ``d`` and a batch is a ``(d, B)`` matrix whose columns are
samples, so ``W @ x`` covers both cases unchanged.  All public operations
validate that their inputs and outputs are finite; a violation raises
:class:`NonFiniteError`.

There is one layer type, :class:`Layer`, stored as a ``(k, o, i)`` stack of
diagonal blocks; a dense layer is one block.  It exposes the four products a
trainer needs (``matvec``, ``rmatvec``, ``avg_outer``, ``step``), so the
trainers never touch the weight storage directly, and every update is shaped
like the blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Activation",
    "NonFiniteError",
    "LayerSpec",
    "Layer",
    "Network",
    "ForwardTrace",
    "activation_apply",
    "activation_derivative",
    "forward",
    "init_weights",
    "build_network",
    "softmax_backward",
]


class Activation(str, Enum):
    """Layer nonlinearities.

    SQUARE is the elementwise ``z * z`` measured by an ideal photodetector on a
    real field; SOFTMAX acts along the feature axis (axis 0) and is the only
    non-elementwise kind.
    """

    IDENTITY = "identity"
    RELU = "relu"
    SQUARE = "square"
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"


class NonFiniteError(ValueError):
    """A value that must be finite is not: the signature of a diverging run."""


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite values")


def activation_apply(kind: Activation, z: np.ndarray) -> np.ndarray:
    """Apply ``kind`` to pre-activations ``z`` ((d,) vector or (d, B) batch)."""
    z = np.asarray(z, dtype=float)
    _require_finite("activation input", z)
    if kind is Activation.IDENTITY:
        return z
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    if kind is Activation.SQUARE:
        return z * z
    if kind is Activation.SIGMOID:
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    if kind is Activation.SOFTMAX:
        e = np.exp(z - z.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_derivative(kind: Activation, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise derivative f'(z), given z and x = f(z).

    ReLU uses subgradient 0 at z = 0.  SOFTMAX has a full Jacobian rather than
    an elementwise derivative; use :func:`softmax_backward` for it.
    """
    if kind is Activation.IDENTITY:
        return np.ones_like(z)
    if kind is Activation.RELU:
        return (z > 0.0).astype(float)
    if kind is Activation.SQUARE:
        return 2.0 * z
    if kind is Activation.SIGMOID:
        return x * (1.0 - x)
    raise ValueError(f"{kind!r} has no elementwise derivative")


def softmax_backward(x: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of softmax: dL/dz from x = softmax(z), dL/dx."""
    return x * (grad_x - (grad_x * x).sum(axis=0, keepdims=True))


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one dense layer."""

    in_dim: int
    out_dim: int
    activation: Activation

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")


@dataclass(frozen=True)
class Layer:
    """One layer, no bias, stored as its ``(k, o, i)`` stack of diagonal blocks.

    Block ``j`` maps inputs ``j*i .. (j+1)*i`` to outputs ``j*o .. (j+1)*o``;
    every other entry of the ``(k*o, k*i)`` weight is zero by construction,
    since it is never stored.  A dense layer is one block: ``Layer(w, act)``
    with a 2-D ``w`` stores ``w[None]``.  Products and updates touch only the
    blocks (``k*o*i`` entries rather than ``k*o*k*i``), and every update is
    block-shaped.  The dense 2-D ``weight`` is built on each read, for
    inspection only; serialization, the trainers and the photonic backend
    never read it.
    """

    blocks: np.ndarray
    activation: Activation

    def __post_init__(self) -> None:
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim == 2:
            b = b[None]
        if b.ndim != 3:
            raise ValueError(f"layer weight must be 2-D or 3-D (k, o, i), got shape {b.shape}")
        _require_finite("layer weight", b)
        object.__setattr__(self, "blocks", b)

    @property
    def in_dim(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[2]

    @property
    def out_dim(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    @property
    def weight(self) -> np.ndarray:
        """The dense (out_dim, in_dim) block-diagonal matrix, built on each read."""
        k, o, i = self.blocks.shape
        diag = np.arange(k)
        dense = np.zeros((k, o, k, i))
        dense[diag, :, diag, :] = self.blocks
        return dense.reshape(k * o, k * i)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``W @ x`` for a (in_dim,) vector or an (in_dim, B) batch, block by block."""
        k, o, i = self.blocks.shape
        return (self.blocks @ x.reshape(k, i, -1)).reshape((k * o,) + x.shape[1:])

    def rmatvec(self, delta: np.ndarray) -> np.ndarray:
        """``W.T @ delta`` for a (out_dim,) vector or an (out_dim, B) batch."""
        k, o, i = self.blocks.shape
        out = np.matmul(self.blocks.transpose(0, 2, 1), delta.reshape(k, o, -1))
        return out.reshape((k * i,) + delta.shape[1:])

    def avg_outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batch-mean outer product ``a_i b_i^T``, computed only inside the blocks."""
        k, o, i = self.blocks.shape
        prod = np.matmul(a.reshape(k, o, -1), b.reshape(k, i, -1).transpose(0, 2, 1))
        return prod / (1 if a.ndim == 1 else a.shape[1])

    def step(self, dw: np.ndarray, learning_rate: float) -> "Layer":
        """The layer with blocks ``B - learning_rate * dw``; ``dw`` is block-shaped."""
        if dw.shape != self.blocks.shape:
            raise ValueError(f"update shape {dw.shape} != block shape {self.blocks.shape}")
        return Layer(self.blocks - learning_rate * dw, self.activation)


@dataclass(frozen=True)
class Network:
    """Ordered layers; adjacent layers must be dimension compatible."""

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if cur.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer dims incompatible: {prev.out_dim} -> {cur.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def to_json(self) -> str:
        """Serialize shapes, activation names, block counts and row-major blocks."""
        doc = {
            "layers": [
                {
                    "in_dim": layer.in_dim,
                    "out_dim": layer.out_dim,
                    "activation": layer.activation.value,
                    "blocks": layer.blocks.shape[0],
                    "weights": layer.blocks.ravel().tolist(),
                }
                for layer in self.layers
            ]
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Network":
        doc = json.loads(text)
        layers = []
        for entry in doc["layers"]:
            k, out_dim, in_dim = entry["blocks"], entry["out_dim"], entry["in_dim"]
            if isinstance(k, bool) or not isinstance(k, int) or k < 1 or out_dim % k or in_dim % k:
                raise ValueError(
                    f"blocks must be an integer >= 1 dividing {out_dim}x{in_dim}, got {k!r}"
                )
            o, i = out_dim // k, in_dim // k
            w = np.asarray(entry["weights"], dtype=float)
            if w.size != k * o * i:
                raise ValueError(f"{k} blocks of {o}x{i} need {k * o * i} weights, got {w.size}")
            layers.append(Layer(w.reshape(k, o, i), Activation(entry["activation"])))
        return cls(tuple(layers))


@dataclass(frozen=True)
class ForwardTrace:
    """Input plus per-layer pre-activations and activations of one pass."""

    x0: np.ndarray
    zs: tuple[np.ndarray, ...]
    xs: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.zs)

    @property
    def output(self) -> np.ndarray:
        return self.xs[-1]

    def activation(self, layer: int) -> np.ndarray:
        """Activation entering layer ``layer + 1``; layer 0 is the input."""
        return self.x0 if layer == 0 else self.xs[layer - 1]


def forward(net: Network, x0: np.ndarray) -> ForwardTrace:
    """Run the clean forward pass z_l = W_l x_{l-1}, x_l = f_l(z_l).

    Pure: the network is unchanged and repeated calls give bit-identical
    traces.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[0] != net.in_dim:
        raise ValueError(f"input length {x0.shape[0]} != network in_dim {net.in_dim}")
    _require_finite("forward input", x0)
    zs, xs = [], []
    x = x0
    for layer in net.layers:
        z = layer.matvec(x)
        x = activation_apply(layer.activation, z)
        zs.append(z)
        xs.append(x)
    return ForwardTrace(x0=x0, zs=tuple(zs), xs=tuple(xs))


def init_weights(spec: LayerSpec, seed: int) -> np.ndarray:
    """Glorot-uniform init: entries i.i.d. uniform on +-sqrt(6/(in+out))."""
    bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))


def build_network(specs: list[LayerSpec], seed: int) -> Network:
    """Build a network from layer specs with per-layer seeds derived from ``seed``."""
    for prev, cur in zip(specs, specs[1:]):
        if cur.in_dim != prev.out_dim:
            raise ValueError(f"layer specs incompatible: {prev.out_dim} -> {cur.in_dim}")
    child_seeds = np.random.SeedSequence(seed).generate_state(len(specs))
    layers = tuple(
        Layer(init_weights(spec, int(child_seeds[i])), spec.activation)
        for i, spec in enumerate(specs)
    )
    return Network(layers)
