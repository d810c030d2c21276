"""Two-pass forward training loop and a backpropagation baseline.

One training step: clean forward pass, output error, error projected into
input space and added to the input, second forward pass under the *same*
(frozen) weights, then per-layer updates from activation differences between
the two passes.  Updates are a tuple of arrays, one per layer, batch-averaged
and applied once, only after both passes complete.  Non-finite values in a
step or an evaluation raise :class:`~twopass.core.NonFiniteError`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Activation,
    ForwardTrace,
    Network,
    NonFiniteError,
    activation_derivative,
    forward,
    softmax_backward,
)
from .data import Dataset
from .modulation import modulate_input, output_error

__all__ = [
    "Algorithm",
    "TrainConfig",
    "MetricRecord",
    "MetricsHistory",
    "EvalResult",
    "two_pass_updates",
    "backprop_updates",
    "apply_updates",
    "train",
    "evaluate",
]


class Algorithm(str, Enum):
    TWO_PASS = "two_pass"
    BACKPROP = "backprop"


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 1
    batch_size: int = 64
    seed: int = 0
    algorithm: Algorithm = Algorithm.TWO_PASS
    lr_decay: float = 0.1
    lr_decay_at: float = 2.0 / 3.0
    shuffle: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        _check_int("epochs", self.epochs, 1)
        _check_int("batch_size", self.batch_size, 1)
        _check_int("seed", self.seed, 0)
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if not 0.0 < self.lr_decay_at <= 1.0:
            raise ValueError("lr_decay_at must be in (0, 1]")


@dataclass(frozen=True)
class MetricRecord:
    iteration: int
    mse: float
    accuracy: float | None


@dataclass(frozen=True)
class MetricsHistory:
    """Per-iteration training metrics, iteration index strictly increasing."""

    records: tuple[MetricRecord, ...]

    def __post_init__(self) -> None:
        its = [r.iteration for r in self.records]
        if any(b <= a for a, b in zip(its, its[1:])):
            raise ValueError("iteration indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> MetricRecord:
        return self.records[-1]


@dataclass(frozen=True)
class EvalResult:
    mse: float
    accuracy: float | None
    predictions: np.ndarray


def _batch_width(arr: np.ndarray) -> int:
    return 1 if arr.ndim == 1 else arr.shape[1]


def two_pass_updates(
    net: Network, clean: ForwardTrace, modulated: ForwardTrace, gamma: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per-layer updates from the activation differences of the two passes.

    Layers 1..L-1 use (x_l - x_err,l) outer the modulated presynaptic
    activation (for layer 1 that presynaptic term is the modulated input
    itself); the last layer uses the output error gamma.  Batched traces
    yield batch-averaged updates.  ``net`` is the network both passes ran
    under; each update is shaped like its layer's ``(k, o, i)`` blocks.
    """
    if clean.depth != modulated.depth:
        raise ValueError(f"trace depth mismatch: {clean.depth} != {modulated.depth}")
    if clean.depth != net.depth:
        raise ValueError(f"trace depth {clean.depth} != network depth {net.depth}")
    if _batch_width(clean.x0) != _batch_width(modulated.x0):
        raise ValueError("clean and modulated traces have different batch widths")
    depth = net.depth
    deltas = []
    for l in range(1, depth):
        diff = clean.xs[l - 1] - modulated.xs[l - 1]
        deltas.append(net.layers[l - 1].avg_outer(diff, modulated.activation(l - 1)))
    deltas.append(net.layers[-1].avg_outer(gamma, modulated.activation(depth - 1)))
    return tuple(deltas)


def backprop_updates(
    net: Network, clean: ForwardTrace, gamma: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Exact gradient of the loss 0.5*sum((x_L - target)^2), batch-averaged.

    gamma is x_L - target; the chain rule runs through every activation
    (ReLU subgradient 0 at 0, softmax via its full Jacobian).
    """
    if clean.depth != net.depth:
        raise ValueError(f"trace depth {clean.depth} != network depth {net.depth}")
    deltas: list[np.ndarray] = [np.empty(0)] * net.depth
    grad_x = gamma
    for l in reversed(range(net.depth)):
        layer = net.layers[l]
        z, x = clean.zs[l], clean.xs[l]
        if layer.activation is Activation.SOFTMAX:
            delta = softmax_backward(x, grad_x)
        else:
            delta = grad_x * activation_derivative(layer.activation, z, x)
        deltas[l] = layer.avg_outer(delta, clean.activation(l))
        if l > 0:
            grad_x = layer.rmatvec(delta)
    return tuple(deltas)


def apply_updates(
    net: Network, updates: tuple[np.ndarray, ...], learning_rate: float
) -> Network:
    """W_l(t+1) = W_l(t) - eta * dW_l, block by block.

    Raises :class:`~twopass.core.NonFiniteError` if a new weight is not finite.
    """
    if len(updates) != net.depth:
        raise ValueError(f"{len(updates)} updates for {net.depth} layers")
    return Network(tuple(layer.step(dw, learning_rate) for layer, dw in zip(net.layers, updates)))


def _validate_setup(net: Network, data: Dataset, proj: np.ndarray) -> None:
    if data.inputs.shape[0] == 0:
        raise ValueError("dataset is empty")
    if data.inputs.shape[1] != net.in_dim:
        raise ValueError(f"data dim {data.inputs.shape[1]} != network in_dim {net.in_dim}")
    if data.targets.shape[1] != net.out_dim:
        raise ValueError(f"target dim {data.targets.shape[1]} != network out_dim {net.out_dim}")
    if proj.shape != (net.in_dim, net.out_dim):
        raise ValueError(
            f"projection shape {proj.shape} does not match network {net.in_dim}->{net.out_dim}"
        )


def train(
    net: Network,
    data: Dataset,
    proj: np.ndarray,
    cfg: TrainConfig,
    realize=None,
) -> tuple[Network, MetricsHistory]:
    """Train ``net`` on ``data``; returns the trained network and metrics.

    Deterministic for a fixed config: shuffling uses cfg.seed, batches are
    processed in a fixed order, and each update is applied only after both
    passes of its batch complete.  ``realize``, when given, is a
    ``Network -> Network`` function mapping the current weights to the
    network that actually runs (for instance
    :func:`~twopass.photonic.realize_network`); it is applied once per step,
    both passes run through its result, and the update is applied to ``net``.
    """
    _validate_setup(net, data, proj)

    x_all = data.inputs.T
    t_all = data.targets.T
    labels = data.labels
    classification = data.targets.shape[1] >= 2
    n = data.inputs.shape[0]
    rng = np.random.default_rng(cfg.seed)
    decay_epoch = max(1, int(np.floor(cfg.epochs * cfg.lr_decay_at)))

    records = []
    iteration = 0
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (cfg.lr_decay if epoch >= decay_epoch else 1.0)
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            # Fix the batch's memory layout: the modulated input (xb + F gamma)
            # comes out C-contiguous, and matmul rounding depends on layout, so
            # a C-contiguous clean batch makes both passes bitwise identical
            # whenever gamma is zero (exact fixed point at zero error).
            xb = np.ascontiguousarray(x_all[:, idx])
            tb = t_all[:, idx]
            iteration += 1
            # Divergence shows up as non-finite values; those are detected and
            # reported, so the intermediate overflow warnings are just noise.
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    run = net if realize is None else realize(net)
                    clean = forward(run, xb)
                    gamma = output_error(clean.output, tb)
                    mse = float(np.mean(gamma * gamma))
                    if not np.isfinite(mse):
                        raise NonFiniteError("non-finite loss")
                    if cfg.algorithm is Algorithm.TWO_PASS:
                        # Second pass under the same frozen weights: no
                        # update is applied until both passes are done.
                        x_err0 = modulate_input(xb, proj, gamma)
                        modulated = forward(run, x_err0)
                        updates = two_pass_updates(net, clean, modulated, gamma)
                    else:
                        updates = backprop_updates(net, clean, gamma)
                    # Applying the update is validated here too: on the run's
                    # last batch there is no later forward pass to trip on an
                    # overflowed weight subtraction.
                    net = apply_updates(net, updates, lr)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"training diverged (non-finite values) at iteration {iteration}"
                ) from exc
            accuracy = (
                float(np.mean(np.argmax(clean.output, axis=0) == labels[idx]))
                if classification
                else None
            )
            records.append(MetricRecord(iteration, mse, accuracy))
    return net, MetricsHistory(tuple(records))


def evaluate(
    net: Network, data: Dataset, realize=None, batch_size: int = 2000
) -> EvalResult:
    """Mean squared error, accuracy (classification only), and predictions.

    Samples are evaluated in dataset order, in fixed-size chunks, through
    ``realize(net)`` when ``realize`` is given.  Weights that are finite but
    so large that a forward pass overflows raise
    :class:`~twopass.core.NonFiniteError`, as divergence does in training.
    """
    n = data.inputs.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    classification = data.targets.shape[1] >= 2
    sq_sum = 0.0
    count = 0
    preds = np.empty(n, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        run = net if realize is None else realize(net)
        for start in range(0, n, batch_size):
            xb = data.inputs[start : start + batch_size].T
            tb = data.targets[start : start + batch_size].T
            trace = forward(run, xb)
            gamma = output_error(trace.output, tb)
            sq_sum += float(np.sum(gamma * gamma))
            count += gamma.size
            preds[start : start + batch_size] = np.argmax(trace.output, axis=0)
    mse = sq_sum / count
    accuracy = float(np.mean(preds == data.labels)) if classification else None
    return EvalResult(mse=mse, accuracy=accuracy, predictions=preds)
