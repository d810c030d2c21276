"""Two-pass forward training loop and a backpropagation baseline.

One training step: clean forward pass, output error, error projected into
input space and added to the input, second forward pass under the *same*
(frozen) weights, then per-layer updates from activation differences between
the two passes.  Updates are a tuple of arrays, one per layer, batch-averaged
and applied once, only after both passes complete.  Non-finite values in a
step or an evaluation raise :class:`~twopass.core.NonFiniteError`.

A learning rule is one entry of ``_RULES``: a function that allocates the
buffers of its passes, and one function that runs what follows the clean
pass and the output error and returns the updates.  Every rule shares the
rest of the step (batch, clean pass, error, mse, apply), so a new rule is a
new :class:`Algorithm` member and one more entry there.

``train`` allocates its rule's buffers for the width of the batch they
serve, again only when that width changes, and every step writes its batch,
its passes, the modulated input, the activation differences and the updates
into them; ``evaluate`` likewise reuses one chunk's batch and activations.
The step functions take these buffers through an optional ``out``
argument; an allocating call runs the same code on fresh buffers and
changes no argument.

A two-pass step computes and holds only what its rule reads.  Hidden layer
l learns from x_l - x_err,l and the output layer from gamma, each with the
modulated activation entering it, so nothing reads the modulated output: the
second pass stops at the last hidden layer, and a one-layer network runs
none.  Both passes apply their activations in place, since no pre-activation
is read, and the differences overwrite the clean hidden activations.  Nothing
reads the batch once the modulated input is formed, so the modulated first
hidden activation overwrites it: the two are the first rows of one array.
What a two-pass step still allocates is small (the 10xB error arrays, byte
gathers and finiteness masks) or must be new: the updated weight blocks,
since a network's layers are never changed in place.  A backprop step also
allocates ``W.T @ delta`` for each layer but the first; every layer's
delta, a softmax layer's included, overwrites its pre-activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ForwardTrace,
    Network,
    NonFiniteError,
    _check_int,
    _check_positive,
    _trace_buffers,
    activation_backward,
    forward,
)
from .data import Dataset
from .modulation import modulate_input, output_error

__all__ = [
    "Algorithm",
    "TrainConfig",
    "MetricRecord",
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


# The learning rate drops to LR_DECAY times its value from the 0-based epoch
# max(1, floor(epochs * LR_DECAY_AT)) on.
LR_DECAY = 0.1
LR_DECAY_AT = 2.0 / 3.0

# Samples per forward pass in evaluate, which reuses one chunk's batch and
# activations (1.6 MB apiece at width 784).  Every pass is min(EVAL_BATCH, n)
# columns wide, so a sample's outputs depend only on the network, the sample
# and this size (see evaluate).
EVAL_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 1
    batch_size: int = 64
    seed: int = 0
    algorithm: Algorithm = Algorithm.TWO_PASS

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        _check_positive("learning_rate", self.learning_rate)
        _check_int("epochs", self.epochs, 1)
        _check_int("batch_size", self.batch_size, 1)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class MetricRecord:
    iteration: int
    mse: float
    accuracy: float | None


@dataclass(frozen=True)
class EvalResult:
    mse: float
    accuracy: float | None
    predictions: np.ndarray


def _batch_width(arr: np.ndarray) -> int:
    return 1 if arr.ndim == 1 else arr.shape[1]


def _buffers(name: str, buffers: tuple | None, count: int) -> tuple:
    """``buffers``, or ``count`` Nones when it is None; it must hold ``count`` arrays."""
    if buffers is None:
        return (None,) * count
    if len(buffers) != count:
        raise ValueError(f"{len(buffers)} {name} buffers for {count} layers")
    return buffers


def two_pass_updates(
    net: Network,
    clean: ForwardTrace,
    modulated: ForwardTrace,
    gamma: np.ndarray,
    out: tuple[np.ndarray, ...] | None = None,
    *,
    diff_out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, ...]:
    """Per-layer updates from the activation differences of the two passes.

    Layers 1..L-1 use (x_l - x_err,l) outer the modulated presynaptic
    activation (for layer 1 that presynaptic term is the modulated input
    itself); the last layer uses the output error gamma.  Batched traces
    yield batch-averaged updates.  ``net`` is the network both passes ran
    under; each update is shaped like its layer's ``(k, o, i)`` blocks.
    ``clean`` covers all L layers.  ``modulated`` may cover the L-1 hidden
    layers only, since the rule reads nothing of its output layer, or all
    L, whose output is then not read; the bits are the same.

    Without ``out`` the updates are new arrays; with ``out``, one
    block-shaped array per layer, they are written into it and ``out`` is
    returned.  The differences x_l - x_err,l are new arrays unless
    ``diff_out`` gives one array per layer but the last, shaped like its
    activation, to write them into; that may be ``clean.xs[:-1]`` itself,
    which overwrites the clean trace.  No other argument changes, and the
    bits are the same either way.
    """
    if clean.depth != net.depth:
        raise ValueError(f"clean trace depth {clean.depth} != network depth {net.depth}")
    if modulated.depth not in (net.depth - 1, net.depth):
        raise ValueError(
            f"modulated trace depth {modulated.depth} is neither {net.depth - 1} nor {net.depth}"
        )
    if _batch_width(clean.x0) != _batch_width(modulated.x0):
        raise ValueError("clean and modulated traces have different batch widths")
    depth = net.depth
    out = _buffers("update", out, depth)
    diff_out = _buffers("difference", diff_out, depth - 1)
    deltas = []
    for l in range(1, depth):
        diff = np.subtract(clean.xs[l - 1], modulated.xs[l - 1], out=diff_out[l - 1])
        deltas.append(net.layers[l - 1].avg_outer(diff, modulated.activation(l - 1), out[l - 1]))
    deltas.append(net.layers[-1].avg_outer(gamma, modulated.activation(depth - 1), out[-1]))
    return tuple(deltas)


def backprop_updates(
    net: Network,
    clean: ForwardTrace,
    gamma: np.ndarray,
    out: tuple[np.ndarray, ...] | None = None,
    *,
    delta_out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, ...]:
    """Exact gradient of the loss 0.5*sum((x_L - target)^2), batch-averaged.

    gamma is x_L - target; the chain rule runs through every activation by
    :func:`~twopass.core.activation_backward` (ReLU subgradient 0 at 0,
    softmax via its full Jacobian).

    Without ``out`` the updates are new arrays; with ``out``, one
    block-shaped array per layer, they are written into it and ``out`` is
    returned.  Each layer's delta dL/dz is a new array unless ``delta_out``
    gives one array per layer, shaped like its pre-activation, to write it
    into; that may be ``clean.zs`` itself, which overwrites the clean trace.
    No other argument changes, and the bits are the same either way.
    """
    if clean.depth != net.depth:
        raise ValueError(f"trace depth {clean.depth} != network depth {net.depth}")
    out = _buffers("update", out, net.depth)
    delta_out = _buffers("delta", delta_out, net.depth)
    deltas: list[np.ndarray] = [np.empty(0)] * net.depth
    grad_x = gamma
    for l in reversed(range(net.depth)):
        layer = net.layers[l]
        delta = activation_backward(
            layer.activation, clean.zs[l], clean.xs[l], grad_x, out=delta_out[l]
        )
        deltas[l] = layer.avg_outer(delta, clean.activation(l), out[l])
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


def _batch(inputs: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Samples ``idx`` of ``inputs`` as a C-ordered float64 ``(d, B)`` batch.

    Column b holds sample ``idx[b]``'s entries in column-major order (see
    Dataset); for 1-D samples that is ``inputs[idx].T``.  uint8 bytes are
    divided by 255, exactly as ``inputs[idx].T / 255.0`` would.  Only the
    batch's samples are gathered, as contiguous rows, and ``.T`` reorders
    them in the one pass that writes the output: a new array, or ``out``
    when it is given (a C-contiguous ``(d, B)`` float64 array).  The layout
    is fixed because matmul rounding may depend on it: the modulated input
    ``xb + F gamma`` comes out C-ordered, so a C-ordered clean batch makes
    both passes bitwise identical whenever gamma is zero (the exact fixed
    point at zero error).
    """
    rows = inputs.take(idx, axis=0).T
    shape = (math.prod(inputs.shape[1:]), rows.shape[-1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    if inputs.dtype == np.uint8:
        np.divide(rows, 255.0, out=out.reshape(rows.shape))
    else:
        np.copyto(out.reshape(rows.shape), rows)
    return out


def _two_pass_buffers(net: Network, width: int) -> tuple[ForwardTrace, ForwardTrace]:
    """In-place buffers for the clean pass and the modulated pass's hidden layers.

    The batch and the modulated first hidden activation are the first rows
    of one array.
    """
    hidden = [layer.out_dim for layer in net.layers[:-1]]
    shared = np.empty((max([net.in_dim, *hidden[:1]]), width))
    xs = tuple(np.empty((layer.out_dim, width)) for layer in net.layers)
    mxs = tuple(shared[:h] if l == 0 else np.empty((h, width)) for l, h in enumerate(hidden))
    return (
        ForwardTrace(x0=shared[: net.in_dim], zs=xs, xs=xs),
        ForwardTrace(x0=np.empty((net.in_dim, width)), zs=mxs, xs=mxs),
    )


def _two_pass(net, run, traces, gamma, proj, out):
    clean, modulated = traces
    # Second pass under the same frozen weights (no update is applied until
    # both passes are done), through the hidden layers only; its first
    # activation overwrites the batch.
    xm = modulate_input(clean.x0, proj, gamma, out=modulated.x0)
    if modulated.xs:
        modulated = forward(Network(run.layers[:-1]), xm, out=modulated)
    # The clean hidden activations are not read again: the differences go there.
    return two_pass_updates(net, clean, modulated, gamma, out=out, diff_out=clean.xs[:-1])


def _backprop(net, run, traces, gamma, proj, out):
    (clean,) = traces
    # Each pre-activation is read once, by its own layer's delta.
    return backprop_updates(net, clean, gamma, out=out, delta_out=clean.zs)


# Algorithm -> ((net, batch width) -> each pass's buffers, C-contiguous and
# that wide, clean pass first; the rest of the step, (net, run network,
# traces, gamma, F, update buffers) -> updates).  Backprop's backward step reads
# each z and x and writes the delta over z, so its one pass keeps z apart from x.
_RULES = {
    Algorithm.TWO_PASS: (_two_pass_buffers, _two_pass),
    Algorithm.BACKPROP: (
        lambda net, width: (_trace_buffers(net, np.empty((net.in_dim, width)), False),),
        _backprop,
    ),
}


def _validate_setup(net: Network, data: Dataset, proj: np.ndarray) -> None:
    if data.inputs.shape[0] == 0:
        raise ValueError("dataset is empty")
    d = math.prod(data.inputs.shape[1:])
    if d != net.in_dim:
        raise ValueError(f"data dim {d} != network in_dim {net.in_dim}")
    if data.targets.shape[1] != net.out_dim:
        raise ValueError(f"target dim {data.targets.shape[1]} != network out_dim {net.out_dim}")
    if proj.shape != (net.in_dim, net.out_dim):
        raise ValueError(
            f"projection shape {proj.shape} does not match network {net.in_dim}->{net.out_dim}"
        )
    if not np.isfinite(proj).all():
        raise ValueError("projection contains non-finite values")


def train(
    net: Network,
    data: Dataset,
    proj: np.ndarray,
    cfg: TrainConfig,
    realize=None,
) -> tuple[Network, tuple[MetricRecord, ...]]:
    """Train ``net`` on ``data``; returns the trained network and one record per step.

    Only ``cfg``'s :class:`TrainConfig` fields are read, so the experiment
    runner passes its ``ExperimentConfig`` with the shuffle seed as ``seed``.
    Deterministic for a fixed config: each epoch visits the samples in the
    order ``rng.permutation(n)``, ``rng`` seeded with cfg.seed, in batches
    taken (byte inputs scaled) by :func:`_batch`, and each update is applied
    only after both passes of its batch complete.  ``realize``, when given,
    is a ``Network -> Network`` function mapping the current weights to the
    network that actually runs (for instance
    :func:`~twopass.photonic.realize_network`); it is applied once per step,
    both passes run through its result, and the update is applied to ``net``.
    """
    _validate_setup(net, data, proj)

    classification = data.targets.shape[1] >= 2
    n = data.inputs.shape[0]
    rng = np.random.default_rng(cfg.seed)
    decay_epoch = max(1, int(np.floor(cfg.epochs * LR_DECAY_AT)))
    make_buffers, rule = _RULES[cfg.algorithm]
    width, traces = 0, None
    updates = tuple(np.empty(layer.blocks.shape) for layer in net.layers)

    records = []
    iteration = 0
    # Divergence shows up as non-finite values; those are detected and
    # reported, so the intermediate overflow warnings are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate * (LR_DECAY if epoch >= decay_epoch else 1.0)
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                iteration += 1
                if len(idx) != width:
                    # Release the old buffers first, so their memory can serve the new ones.
                    width, traces = len(idx), None
                    traces = make_buffers(net, width)
                try:
                    # The batch and the clean pass go into traces[0]; the
                    # rule runs the rest of the step in traces and updates.
                    xb = _batch(data.inputs, idx, out=traces[0].x0)
                    run = net if realize is None else realize(net)
                    output = forward(run, xb, out=traces[0]).output
                    gamma = output_error(output, data.targets.take(idx, axis=0).T)
                    sq = gamma * gamma
                    # sum/size is np.mean's own reduction, bit for bit.
                    mse = float(sq.sum() / sq.size)
                    if not math.isfinite(mse):
                        raise NonFiniteError("non-finite loss")
                    # Applying the update is validated here too: on the run's
                    # last batch there is no later forward pass to trip on an
                    # overflowed weight subtraction.
                    net = apply_updates(net, rule(net, run, traces, gamma, proj, updates), lr)
                    # Free what the step ran on now, as a return would, so
                    # that the next step's arrays can reuse its memory.
                    del run, gamma, sq
                except NonFiniteError as exc:
                    raise NonFiniteError(
                        f"training diverged (non-finite values) at iteration {iteration}"
                    ) from exc
                # count/len is the bool mean np.mean would give, bit for bit.
                accuracy = (
                    np.count_nonzero(np.argmax(output, axis=0) == data.labels[idx]) / len(idx)
                    if classification
                    else None
                )
                records.append(MetricRecord(iteration, mse, accuracy))
    return net, tuple(records)


def evaluate(net: Network, data: Dataset, realize=None) -> EvalResult:
    """Mean squared error, accuracy (classification only), and predictions.

    Samples are evaluated in dataset order, in chunks taken (byte inputs
    scaled) by :func:`_batch`, through ``realize(net)`` when ``realize`` is
    given.  Every chunk is ``min(EVAL_BATCH, n)`` samples wide: the last one
    ends at the last sample, so it overlaps the one before, whose shared
    samples it computes again in a pass of the same width.  BLAS can round
    a sample's column differently in a pass of another width, but every
    pass has one width, so a sample's outputs depend only on the network,
    the sample and ``EVAL_BATCH``, not on where the dataset ends.  The mse
    is summed in an order that does not depend on the chunk size: each
    sample's squared errors over the outputs in order, then those
    per-sample sums once over the dataset.  Weights that are finite but so
    large that a forward pass or the mse overflows raise
    :class:`~twopass.core.NonFiniteError`, as divergence does in training.
    """
    n = data.inputs.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    classification = data.targets.shape[1] >= 2
    sample_sq = np.empty(n)
    preds = np.empty(n, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        run = net if realize is None else realize(net)
        width = min(EVAL_BATCH, n)
        # One chunk's batch and activations, reused by every chunk.
        trace = _trace_buffers(run, np.empty((run.in_dim, width)), in_place=True)
        # The last chunk ends at the last sample, overlapping the one before.
        for start in (*range(0, n - width, width), n - width):
            rows = np.arange(start, start + width)
            output = forward(run, _batch(data.inputs, rows, out=trace.x0), out=trace).output
            gamma = output_error(output, data.targets[rows].T)
            sq = gamma * gamma
            # Row by row: np.sum(sq, axis=0) sums a 1-sample chunk pairwise.
            acc = sample_sq[start : start + width]
            acc[...] = sq[0]
            for row in sq[1:]:
                acc += row
            preds[rows] = np.argmax(output, axis=0)
        mse = float(np.sum(sample_sq)) / (n * data.targets.shape[1])
    # Finite outputs can still give squared errors, or a sum of them, that overflow.
    if not math.isfinite(mse):
        raise NonFiniteError("non-finite evaluation mse")
    accuracy = float(np.mean(preds == data.labels)) if classification else None
    return EvalResult(mse=mse, accuracy=accuracy, predictions=preds)
