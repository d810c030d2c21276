"""Convolution-equivalent architecture: per-column networks plus an aggregator.

A 28x28 image is split into its 28 pixel columns.  Each column feeds its own
small dense network, the 28 outputs are concatenated and a final aggregator
layer maps them to the 10 class scores.  The model is stored only in its
composed form: an ordinary network whose first :class:`~twopass.core.Layer`
holds the 28 column weights as its ``(28, co, 28)`` block stack, so the
column nets are views of its blocks.  Both training algorithms apply
unchanged to it, and every product and update touches only the blocks, so
the off-block entries of the equivalent 784-wide matrix are exactly zero by
construction (they are never stored).  Serialization keeps the blocks.

Row-wise splitting is available behind a switch (column-wise is the default
because it separates better in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Activation, Layer, LayerSpec, Network, forward, init_weights
from .data import Dataset
from .trainer import EvalResult, MetricsHistory, TrainConfig, evaluate, train

__all__ = [
    "SplitMode",
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


class SplitMode(str, Enum):
    COLUMN = "column"
    ROW = "row"


@dataclass(frozen=True)
class ColumnSplitNet:
    """The composed column-split network and the split that feeds it.

    ``network`` is an ordinary :class:`~twopass.core.Network`: a stage 1 whose
    ``(28, co, 28)`` block stack holds the 28 column networks, followed by
    the aggregator.  It takes the :func:`columnize`-d 784-vector.  The column
    nets and the aggregator are views derived from it, never stored twice.
    """

    network: Network
    mode: SplitMode = SplitMode.COLUMN

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", SplitMode(self.mode))
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

    @property
    def in_dim(self) -> int:
        return self.network.in_dim

    @property
    def out_dim(self) -> int:
        return self.network.out_dim

    def to_json(self) -> str:
        """Serialize the composed network (shapes, activations, block counts, blocks)."""
        return self.network.to_json()

    @classmethod
    def from_json(cls, text: str, mode: SplitMode = SplitMode.COLUMN) -> "ColumnSplitNet":
        """Rebuild from a composed-network document."""
        return cls(Network.from_json(text), mode)


def build_colsplit_net(
    seed: int = 0,
    column_out: int = SIDE,
    mode: SplitMode = SplitMode.COLUMN,
) -> ColumnSplitNet:
    """Freshly initialized column nets (28->column_out, ReLU) and 10-way softmax aggregator."""
    if column_out < 1:
        raise ValueError("column_out must be >= 1")
    children = np.random.SeedSequence(seed).generate_state(SIDE + 1)
    col_spec = LayerSpec(SIDE, column_out, Activation.RELU)
    stage1 = Layer(
        np.stack([init_weights(col_spec, int(s)) for s in children[:SIDE]]), Activation.RELU
    )
    agg_spec = LayerSpec(SIDE * column_out, NUM_CLASSES, Activation.SOFTMAX)
    aggregator = Layer(init_weights(agg_spec, int(children[SIDE])), Activation.SOFTMAX)
    return ColumnSplitNet(Network((stage1, aggregator)), mode)


def split_columns(image: np.ndarray, mode: SplitMode = SplitMode.COLUMN) -> np.ndarray:
    """Split a 28x28 image into 28 vectors; row j of the result is piece j.

    Column mode: piece j is image column j top-to-bottom.  Row mode: piece j
    is image row j left-to-right.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (SIDE, SIDE):
        raise ValueError(f"expected a {SIDE}x{SIDE} image, got shape {image.shape}")
    if SplitMode(mode) is SplitMode.COLUMN:
        return image.T.copy()
    return image.copy()


def columnize(inputs: np.ndarray, mode: SplitMode = SplitMode.COLUMN) -> np.ndarray:
    """Reorder a batch of row-major flattened images for the split networks.

    Flattened datasets store pixel (r, c) at index 28r + c.  The composed
    column-split network expects piece j's entries contiguous, i.e. pixel
    (r, c) at index 28c + r in column mode.  Row mode is the identity.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != SIDE * SIDE:
        raise ValueError(f"expected shape (N, {SIDE * SIDE}), got {inputs.shape}")
    if SplitMode(mode) is SplitMode.ROW:
        return inputs.copy()
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
    pieces = split_columns(image, net.mode)
    outs = [forward(colnet, pieces[j]).output for j, colnet in enumerate(net.column_nets)]
    return forward(net.aggregator, np.concatenate(outs)).output


def _columnized(data: Dataset, mode: SplitMode) -> Dataset:
    return Dataset(
        inputs=columnize(data.inputs, mode),
        targets=data.targets,
        labels=data.labels,
    )


def colsplit_train(
    net: ColumnSplitNet,
    data: Dataset,
    proj: np.ndarray,
    cfg: TrainConfig,
    realize=None,
) -> tuple[ColumnSplitNet, MetricsHistory]:
    """Train the composed network; its block-diagonal stage 1 keeps the column split."""
    trained, history = train(net.network, _columnized(data, net.mode), proj, cfg, realize=realize)
    return ColumnSplitNet(trained, net.mode), history


def colsplit_evaluate(net: ColumnSplitNet, data: Dataset, realize=None) -> EvalResult:
    return evaluate(net.network, _columnized(data, net.mode), realize=realize)


def confusion_matrix(predictions: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """10x10 count matrix; entry (i, j) counts true class i predicted as j."""
    p = np.asarray(predictions, dtype=int)
    t = np.asarray(truth, dtype=int)
    if p.ndim != 1 or p.shape != t.shape:
        raise ValueError(f"prediction/truth shapes differ: {p.shape} vs {t.shape}")
    for name, arr in (("predictions", p), ("truth", t)):
        if arr.size and (arr.min() < 0 or arr.max() >= NUM_CLASSES):
            raise ValueError(f"{name} contain labels outside 0..{NUM_CLASSES - 1}")
    m = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(m, (t, p), 1)
    return m
