"""Feed-forward networks: activations, weight init, layers, and the forward pass.

Arrays follow a column convention throughout the package: a single sample is a
1-D vector of length ``d`` and a batch is a ``(d, B)`` matrix whose columns are
samples, so ``W @ x`` covers both cases unchanged.  All public operations
validate that their inputs and outputs are finite; a violation raises
:class:`NonFiniteError`.  :func:`forward` checks its input through its first
products rather than on its own: every weight is finite and every block is at
least 1x1, so each input entry meets at least one weight, and a NaN or +-inf
there makes a pre-activation non-finite (w*NaN = NaN, 0*inf = NaN, w*inf =
+-inf), which the first layer's :func:`activation_apply` refuses.

There is one layer type, :class:`Layer`, stored as a ``(k, o, i)`` stack of
diagonal blocks; a dense layer is one block.  It exposes the four products a
trainer needs (``matvec``, ``rmatvec``, ``avg_outer``, ``step``), so the
trainers never touch the weight storage directly, and every update is shaped
like the blocks.

:func:`activation_apply`, :func:`activation_backward`, ``Layer.matvec`` and
:func:`forward` each have one code path, which writes into an optional
``out``; an allocating call runs that code on fresh buffers.
"""

from __future__ import annotations

import math
import numbers
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
    "activation_backward",
    "forward",
    "init_weights",
    "build_network",
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


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a positive, finite real (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _activation(kind) -> Activation:
    """``kind``, an :class:`Activation` or its name, as the member."""
    if isinstance(kind, Activation):
        return kind
    try:
        return Activation(kind)
    except ValueError:
        raise ValueError(f"unknown activation kind: {kind!r}") from None


def activation_apply(kind: Activation, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply ``kind`` (an :class:`Activation` or its name) to pre-activations ``z``.

    ``z`` is a (d,) vector or a (d, B) batch.  The result is written into
    ``out``, an array shaped like ``z``, and ``out`` is returned; ``out`` may
    be ``z``, which applies the activation in place.  Without ``out`` the
    same code runs on a new array, so the result is new and ``z`` is not
    changed.
    """
    kind = _activation(kind)
    z = np.asarray(z, dtype=float)
    _require_finite("activation input", z)
    if out is None:
        out = np.empty_like(z)
    elif out.shape != z.shape:
        raise ValueError(f"out shape {out.shape} != input shape {z.shape}")
    if kind is Activation.IDENTITY:
        np.copyto(out, z)
        return out
    if kind is Activation.RELU:
        return np.maximum(z, 0.0, out=out)
    if kind is Activation.SQUARE:
        return np.multiply(z, z, out=out)
    if kind is Activation.SIGMOID:
        # 1/(1+e) for z >= 0 and e/(1+e) below, with e = exp(-|z|) <= 1.
        e = np.exp(-np.abs(z))
        return np.divide(np.where(z >= 0.0, 1.0, e), 1.0 + e, out=out)
    # SOFTMAX, the one kind left.
    e = np.subtract(z, z.max(axis=0, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=0, keepdims=True), out=e)


def activation_backward(
    kind: Activation, z: np.ndarray, x: np.ndarray, grad: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """dL/dz of a layer, given z, x = f(z) and grad = dL/dx.

    ``kind`` is an :class:`Activation` or its name.  Elementwise kinds give
    f'(z) * grad (ReLU uses subgradient 0 at z = 0); SOFTMAX gives its
    Jacobian product x * (grad - sum(grad * x)), summed over each column.
    The result is written into ``out``, an array shaped like ``z`` (``z``
    itself included, ``x`` and ``grad`` not), and ``out`` is returned;
    without ``out`` the same code runs on a new array.
    """
    kind = _activation(kind)
    if out is None:
        out = np.empty_like(z, dtype=float)
    elif out.shape != z.shape:
        raise ValueError(f"out shape {out.shape} != input shape {z.shape}")
    if kind is Activation.SOFTMAX:
        dot = np.multiply(grad, x, out=out).sum(axis=0, keepdims=True)
        return np.multiply(x, np.subtract(grad, dot, out=out), out=out)
    if kind is Activation.IDENTITY:
        np.copyto(out, 1.0)
    elif kind is Activation.RELU:
        np.greater(z, 0.0, out=out)
    elif kind is Activation.SQUARE:
        np.multiply(2.0, z, out=out)
    else:  # SIGMOID, the one kind left.
        np.multiply(x, np.subtract(1.0, x, out=out), out=out)
    return np.multiply(grad, out, out=out)


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity (an :class:`Activation` or its name) of one dense layer."""

    in_dim: int
    out_dim: int
    activation: Activation

    def __post_init__(self) -> None:
        _check_int("in_dim", self.in_dim, 1)
        _check_int("out_dim", self.out_dim, 1)
        object.__setattr__(self, "activation", Activation(self.activation))


@dataclass(frozen=True)
class Layer:
    """One layer, no bias, stored as its ``(k, o, i)`` stack of diagonal blocks.

    Block ``j`` maps inputs ``j*i .. (j+1)*i`` to outputs ``j*o .. (j+1)*o``;
    every other entry of the ``(k*o, k*i)`` weight is zero by construction,
    since it is never stored.  A dense layer is one block: ``Layer(w, act)``
    with a 2-D ``w`` stores ``w[None]``.  Products and updates touch only the
    blocks (``k*o*i`` entries rather than ``k*o*k*i``), and every update is
    block-shaped.  The dense 2-D ``weight`` is built on each read, for
    inspection only; the trainers and the photonic backend never read it.
    ``activation`` may be given by name.
    """

    blocks: np.ndarray
    activation: Activation

    def __post_init__(self) -> None:
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim == 2:
            b = b[None]
        if b.ndim != 3:
            raise ValueError(f"layer weight must be 2-D or 3-D (k, o, i), got shape {b.shape}")
        if 0 in b.shape:
            raise ValueError(f"layer blocks need k, o, i >= 1, got shape {b.shape}")
        _require_finite("layer weight", b)
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "activation", Activation(self.activation))

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

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``W @ x`` for a (in_dim,) vector or an (in_dim, B) batch, block by block.

        The product is written into ``out``, a C-contiguous array of the
        result's shape, and ``out`` is returned; without ``out`` it is
        written into a new one.
        """
        k, o, i = self.blocks.shape
        shape = (k * o,) + x.shape[1:]
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {shape}, got {out.shape}")
        # Reshaping a C-contiguous array gives a view, so the product lands in out.
        np.matmul(self.blocks, x.reshape(k, i, -1), out=out.reshape(k, o, -1))
        return out

    def rmatvec(self, delta: np.ndarray) -> np.ndarray:
        """``W.T @ delta`` for a (out_dim,) vector or an (out_dim, B) batch."""
        k, o, i = self.blocks.shape
        out = np.matmul(self.blocks.transpose(0, 2, 1), delta.reshape(k, o, -1))
        return out.reshape((k * i,) + delta.shape[1:])

    def avg_outer(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batch-mean outer product ``a_i b_i^T``, computed only inside the blocks.

        With ``out``, an array of the blocks' shape, the result is written
        into it and ``out`` is returned.
        """
        k, o, i = self.blocks.shape
        prod = np.matmul(a.reshape(k, o, -1), b.reshape(k, i, -1).transpose(0, 2, 1), out=out)
        prod /= 1 if a.ndim == 1 else a.shape[1]
        return prod

    def step(self, dw: np.ndarray, learning_rate: float) -> "Layer":
        """The layer with blocks ``B - learning_rate * dw``; ``dw`` is block-shaped."""
        if dw.shape != self.blocks.shape:
            raise ValueError(f"update shape {dw.shape} != block shape {self.blocks.shape}")
        # One new array: learning_rate * dw, then B minus it in the same memory.
        new = np.multiply(dw, learning_rate)
        return Layer(np.subtract(self.blocks, new, out=new), self.activation)


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


def _trace_buffers(net: Network, x0: np.ndarray, in_place: bool) -> ForwardTrace:
    """A trace of ``x0`` and uninitialized C-contiguous buffers for a pass through ``net``.

    Every buffer has ``x0``'s trailing shape: ``()`` for one sample, ``(B,)``
    for a batch of B.  With ``in_place`` each layer's z and x buffers are one
    array, so the pass applies its activations in place (see :func:`forward`).
    """
    xs = tuple(np.empty((layer.out_dim, *x0.shape[1:])) for layer in net.layers)
    zs = xs if in_place else tuple(np.empty_like(x) for x in xs)
    return ForwardTrace(x0=x0, zs=zs, xs=xs)


def forward(net: Network, x0: np.ndarray, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the clean forward pass z_l = W_l x_{l-1}, x_l = f_l(z_l).

    Pure: the network is unchanged and repeated calls give bit-identical
    traces.  A non-finite entry of ``x0`` raises :class:`NonFiniteError`
    from the first layer's activation (see the module docstring), with
    numpy's floating-point warnings silenced.  Each layer's z and x are
    written into ``out``'s arrays, a trace of C-contiguous buffers shaped
    like the result (its ``x0`` is not read), and the returned trace holds
    ``x0`` and those arrays.  Where a layer's z and x buffers are one array,
    the activation is applied in place, so that trace's z is the activation.
    Without ``out`` the same code runs on new buffers, with z and x apart.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[0] != net.in_dim:
        raise ValueError(f"input length {x0.shape[0]} != network in_dim {net.in_dim}")
    if out is None:
        out = _trace_buffers(net, x0, in_place=False)
    elif out.depth != net.depth:
        raise ValueError(f"out trace depth {out.depth} != network depth {net.depth}")
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, z, x_out in zip(net.layers, out.zs, out.xs):
            x = activation_apply(layer.activation, layer.matvec(x, z), x_out)
    return ForwardTrace(x0=x0, zs=out.zs, xs=out.xs)


def init_weights(spec: LayerSpec, seed: int) -> np.ndarray:
    """Glorot-uniform init: entries i.i.d. uniform on +-sqrt(6/(in+out))."""
    bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))


def build_network(specs: list[LayerSpec], seed: int) -> Network:
    """Build a network from layer specs with per-layer seeds derived from ``seed``."""
    child_seeds = np.random.SeedSequence(seed).generate_state(len(specs))
    layers = tuple(
        Layer(init_weights(spec, int(child_seeds[i])), spec.activation)
        for i, spec in enumerate(specs)
    )
    return Network(layers)
