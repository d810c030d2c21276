"""Convolution-equivalent architecture: per-column networks plus an aggregator.

A 28x28 image is split into its 28 pixel columns.  Each column feeds its own
small dense network, the 28 outputs are concatenated and a final aggregator
layer maps them to the 10 class scores.  The whole arrangement composes into
an ordinary 2-layer network whose first :class:`~twopass.core.Layer` holds
the 28 column weights as its ``(28, co, 28)`` block stack.  Both training
algorithms apply unchanged, and every product and update touches only the
blocks, so the off-block entries of the equivalent 784-wide matrix are
exactly zero by construction (they are never stored).

Row-wise splitting is available behind a switch (column-wise is the default
because it separates better in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Activation, Layer, LayerSpec, Network, forward, init_weights
from .data import Dataset
from .modulation import ProjectionMatrix
from .trainer import EvalResult, MetricsHistory, TrainConfig, evaluate, train

__all__ = [
    "SplitMode",
    "ColumnSplitNet",
    "build_colsplit_net",
    "split_columns",
    "reassemble",
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
    """28 single-layer column networks and the aggregator that fuses them."""

    column_nets: tuple[Network, ...]
    aggregator: Network
    mode: SplitMode = SplitMode.COLUMN

    def __post_init__(self) -> None:
        if len(self.column_nets) != SIDE:
            raise ValueError(f"expected {SIDE} column networks, got {len(self.column_nets)}")
        first = self.column_nets[0]
        for net in self.column_nets:
            if net.depth != 1:
                raise ValueError("column networks must be single-layer")
            if net.in_dim != SIDE:
                raise ValueError(f"column networks must take {SIDE} inputs")
            if net.out_dim != first.out_dim:
                raise ValueError("column networks must share one output size")
            if net.layers[0].activation is not first.layers[0].activation:
                raise ValueError("column networks must share one activation")
        expected = SIDE * first.out_dim
        if self.aggregator.in_dim != expected:
            raise ValueError(
                f"aggregator input size {self.aggregator.in_dim} != "
                f"concatenated column outputs {expected}"
            )

    @property
    def column_out(self) -> int:
        return self.column_nets[0].out_dim

    @property
    def in_dim(self) -> int:
        return SIDE * SIDE

    @property
    def out_dim(self) -> int:
        return self.aggregator.out_dim

    def to_json(self) -> str:
        """Serialize the composed model (layer shapes, activation names, weights)."""
        return compose(self).to_json()

    @classmethod
    def from_json(cls, text: str, mode: SplitMode = SplitMode.COLUMN) -> "ColumnSplitNet":
        """Rebuild from a composed-model document; off-block weights must be zero."""
        composed = Network.from_json(text)
        if composed.depth != 2 or composed.in_dim != SIDE * SIDE:
            raise ValueError("document does not describe a column-split model")
        if composed.layers[0].out_dim % SIDE:
            raise ValueError("stage-1 output size is not a multiple of 28")
        return cls(
            column_nets=_column_nets(Layer.from_dense(composed.layers[0], SIDE)),
            aggregator=Network(composed.layers[1:]),
            mode=mode,
        )


def build_colsplit_net(
    seed: int = 0,
    column_out: int = SIDE,
    mode: SplitMode = SplitMode.COLUMN,
) -> ColumnSplitNet:
    """Freshly initialized column nets (28->column_out, ReLU) and 10-way softmax aggregator."""
    if column_out < 1:
        raise ValueError("column_out must be >= 1")
    children = np.random.SeedSequence(seed).generate_state(SIDE + 1)
    column_nets = tuple(
        Network(
            (
                Layer(
                    init_weights(LayerSpec(SIDE, column_out, Activation.RELU), int(s)),
                    Activation.RELU,
                ),
            )
        )
        for s in children[:SIDE]
    )
    agg_spec = LayerSpec(SIDE * column_out, NUM_CLASSES, Activation.SOFTMAX)
    aggregator = Network(
        (Layer(init_weights(agg_spec, int(children[SIDE])), Activation.SOFTMAX),)
    )
    return ColumnSplitNet(column_nets=column_nets, aggregator=aggregator, mode=mode)


def split_columns(image: np.ndarray, mode: SplitMode = SplitMode.COLUMN) -> np.ndarray:
    """Split a 28x28 image into 28 vectors; row j of the result is piece j.

    Column mode: piece j is image column j top-to-bottom.  Row mode: piece j
    is image row j left-to-right.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (SIDE, SIDE):
        raise ValueError(f"expected a {SIDE}x{SIDE} image, got shape {image.shape}")
    if mode is SplitMode.COLUMN:
        return image.T.copy()
    return image.copy()


def reassemble(pieces: np.ndarray, mode: SplitMode = SplitMode.COLUMN) -> np.ndarray:
    """Inverse of split_columns."""
    pieces = np.asarray(pieces, dtype=float)
    if pieces.shape != (SIDE, SIDE):
        raise ValueError(f"expected {SIDE} pieces of length {SIDE}, got shape {pieces.shape}")
    if mode is SplitMode.COLUMN:
        return pieces.T.copy()
    return pieces.copy()


def columnize(inputs: np.ndarray, mode: SplitMode = SplitMode.COLUMN) -> np.ndarray:
    """Reorder a batch of row-major flattened images for the split networks.

    Flattened datasets store pixel (r, c) at index 28r + c.  The composed
    column-split network expects piece j's entries contiguous, i.e. pixel
    (r, c) at index 28c + r in column mode.  Row mode is the identity.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != SIDE * SIDE:
        raise ValueError(f"expected shape (N, {SIDE * SIDE}), got {inputs.shape}")
    if mode is SplitMode.ROW:
        return inputs.copy()
    n = inputs.shape[0]
    return inputs.reshape(n, SIDE, SIDE).transpose(0, 2, 1).reshape(n, SIDE * SIDE)


def compose(net: ColumnSplitNet) -> Network:
    """Stack the column nets into one block-diagonal layer, followed by the aggregator.

    The composed network takes the columnized 784-vector.  Forward through it
    matches stage-wise evaluation (split, per-column nets, concatenate,
    aggregator) exactly.
    """
    stage1 = Layer(
        np.stack([colnet.layers[0].weight for colnet in net.column_nets]),
        net.column_nets[0].layers[0].activation,
    )
    return Network((stage1,) + net.aggregator.layers)


def _column_nets(stage1: Layer) -> tuple[Network, ...]:
    """One single-layer column network per block of a composed stage 1."""
    return tuple(
        Network((Layer(block.copy(), stage1.activation),))
        for block in stage1.blocks
    )


def _extract(template: ColumnSplitNet, trained: Network) -> ColumnSplitNet:
    """Slice a trained composed network back into column nets + aggregator."""
    return ColumnSplitNet(
        column_nets=_column_nets(trained.layers[0]),
        aggregator=Network(trained.layers[1:]),
        mode=template.mode,
    )


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
    proj: ProjectionMatrix,
    cfg: TrainConfig,
    realize=None,
) -> tuple[ColumnSplitNet, MetricsHistory]:
    """Train the composed network; its block-diagonal stage 1 keeps the column split."""
    composed = compose(net)
    trained, history = train(composed, _columnized(data, net.mode), proj, cfg, realize=realize)
    return _extract(net, trained), history


def colsplit_evaluate(net: ColumnSplitNet, data: Dataset, realize=None) -> EvalResult:
    return evaluate(compose(net), _columnized(data, net.mode), realize=realize)


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
