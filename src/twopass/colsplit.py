"""Convolution-equivalent architecture: per-column networks plus an aggregator.

A 28x28 image is split into its 28 pixel columns.  Each column feeds its own
small dense network, the 28 outputs are concatenated and a final aggregator
layer maps them to the 10 class scores.  The model is stored only in its
composed form: an ordinary network whose first :class:`~twopass.core.Layer`
holds the 28 column weights as its ``(28, co, 28)`` block stack, so the
column nets are views of its blocks.  Both training algorithms apply
unchanged to it, and every product and update touches only the blocks, so
the off-block entries of the equivalent 784-wide matrix are exactly zero by
construction (they are never stored).

The split itself copies no pixel: the trainer reads each sample in
column-major order, so column-split training and evaluation read an
``(N, 28, 28)`` reshape of the dataset's row-major pixel bytes, in which
piece j is image column j.  :func:`columnize` is that same order as a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import Activation, Layer, LayerSpec, Network, _check_int, forward, init_weights
from .data import Dataset, _integer_labels
from .trainer import EvalResult, MetricRecord, TrainConfig, evaluate, train

__all__ = [
    "ColumnSplitNet",
    "build_colsplit_net",
    "split_columns",
    "columnize",
    "compose",
    "colsplit_train",
    "colsplit_evaluate",
    "confusion_matrix",
    "stagewise_forward",
]

SIDE = 28
NUM_CLASSES = 10


@dataclass(frozen=True)
class ColumnSplitNet:
    """The composed column-split network and the split that feeds it.

    ``network`` is an ordinary :class:`~twopass.core.Network`: a stage 1 whose
    ``(28, co, 28)`` block stack holds the 28 column networks, followed by
    the aggregator.  It takes the :func:`columnize`-d 784-vector.  The column
    nets and the aggregator are views derived from it, never stored twice.
    """

    network: Network
    # perfbench/workload.py reads this and passes it to columnize.
    mode: ClassVar[str] = "column"

    def __post_init__(self) -> None:
        k, _, i = self.network.layers[0].blocks.shape
        if (k, i) != (SIDE, SIDE):
            raise ValueError(
                f"stage 1 must be {SIDE} column blocks of {SIDE} inputs, "
                f"got block shape {self.network.layers[0].blocks.shape}"
            )
        if self.network.depth < 2:
            raise ValueError("a column-split network needs an aggregator after stage 1")

    @property
    def column_nets(self) -> tuple[Network, ...]:
        """One single-layer network per stage-1 block."""
        stage1 = self.network.layers[0]
        return tuple(Network((Layer(block, stage1.activation),)) for block in stage1.blocks)

    @property
    def aggregator(self) -> Network:
        return Network(self.network.layers[1:])

    @property
    def column_out(self) -> int:
        return self.network.layers[0].blocks.shape[1]


def build_colsplit_net(seed: int = 0, column_out: int = SIDE) -> ColumnSplitNet:
    """Freshly initialized column nets (28->column_out, ReLU) and 10-way softmax aggregator."""
    _check_int("column_out", column_out, 1)
    children = np.random.SeedSequence(seed).generate_state(SIDE + 1)
    col_spec = LayerSpec(SIDE, column_out, Activation.RELU)
    stage1 = Layer(
        np.stack([init_weights(col_spec, int(s)) for s in children[:SIDE]]), Activation.RELU
    )
    agg_spec = LayerSpec(SIDE * column_out, NUM_CLASSES, Activation.SOFTMAX)
    aggregator = Layer(init_weights(agg_spec, int(children[SIDE])), Activation.SOFTMAX)
    return ColumnSplitNet(Network((stage1, aggregator)))


def split_columns(image: np.ndarray) -> np.ndarray:
    """Split a 28x28 image into its 28 columns; row j of the result is column j top-to-bottom.

    This is :func:`columnize` of one image.
    """
    image = np.asarray(image)
    if image.shape != (SIDE, SIDE):
        raise ValueError(f"expected a {SIDE}x{SIDE} image, got shape {image.shape}")
    return columnize(image.reshape(1, SIDE * SIDE)).reshape(SIDE, SIDE)


def columnize(inputs: np.ndarray, mode: str = "column") -> np.ndarray:
    """Reorder a batch of row-major flattened images for the split networks.

    Flattened datasets store pixel (r, c) at index 28r + c.  The composed
    column-split network expects column j's entries contiguous, i.e. pixel
    (r, c) at index 28c + r.  The result is a new array of the input's
    dtype, so uint8 pixels stay bytes.  ``mode`` is
    :attr:`ColumnSplitNet.mode`; any other value raises ValueError.
    """
    if mode != ColumnSplitNet.mode:
        raise ValueError(f"mode must be {ColumnSplitNet.mode!r}, got {mode!r}")
    inputs = np.asarray(inputs)
    if inputs.ndim != 2 or inputs.shape[1] != SIDE * SIDE:
        raise ValueError(f"expected shape (N, {SIDE * SIDE}), got {inputs.shape}")
    n = inputs.shape[0]
    return inputs.reshape(n, SIDE, SIDE).transpose(0, 2, 1).reshape(n, SIDE * SIDE)


def compose(net: ColumnSplitNet) -> Network:
    """``net.network``: block-diagonal stage 1, then the aggregator.

    It takes the columnized 784-vector, and forward through it matches
    stage-wise evaluation (split, per-column nets, concatenate, aggregator).
    The name stays for the benchmark's checks and the stage-wise tests.
    """
    return net.network


def stagewise_forward(net: ColumnSplitNet, image: np.ndarray) -> np.ndarray:
    """Reference evaluation: split, run each column net, concatenate, aggregate."""
    pieces = split_columns(image)
    outs = [forward(colnet, pieces[j]).output for j, colnet in enumerate(net.column_nets)]
    return forward(net.aggregator, np.concatenate(outs)).output


def _columnized(data: Dataset) -> Dataset:
    """``data`` as the composed network reads it, without copying a pixel.

    The trainer reads each sample in column-major order (see Dataset), so
    the ``(N, 28, 28)`` view of the row-major rows is :func:`columnize`'s
    order.
    """
    if data.inputs.shape[1:] != (SIDE * SIDE,):
        raise ValueError(f"expected shape (N, {SIDE * SIDE}), got {data.inputs.shape}")
    return Dataset(
        inputs=data.inputs.reshape(len(data), SIDE, SIDE),
        targets=data.targets,
        labels=data.labels,
    )


def colsplit_train(
    net: ColumnSplitNet,
    data: Dataset,
    proj: np.ndarray,
    cfg: TrainConfig,
    realize=None,
) -> tuple[ColumnSplitNet, tuple[MetricRecord, ...]]:
    """Train the composed network; its block-diagonal stage 1 keeps the column split."""
    trained, history = train(net.network, _columnized(data), proj, cfg, realize=realize)
    return ColumnSplitNet(trained), history


def colsplit_evaluate(net: ColumnSplitNet, data: Dataset, realize=None) -> EvalResult:
    return evaluate(net.network, _columnized(data), realize=realize)


def confusion_matrix(predictions: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """10x10 count matrix; entry (i, j) counts true class i predicted as j."""
    p = _integer_labels(predictions)
    t = _integer_labels(truth)
    if p.shape != t.shape:
        raise ValueError(f"prediction/truth shapes differ: {p.shape} vs {t.shape}")
    for name, arr in (("predictions", p), ("truth", t)):
        if arr.size and (arr.min() < 0 or arr.max() >= NUM_CLASSES):
            raise ValueError(f"{name} contain labels outside 0..{NUM_CLASSES - 1}")
    m = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(m, (t, p), 1)
    return m
