"""The column-split architecture, without any training.

A convolution-free stand-in for a CNN: 28 small networks each read one image
column, and a shared aggregator mixes their outputs.  Composing the column
nets into one wide first stage gives a block-diagonal weight matrix, which is
what makes the scheme realizable as independent small photonic meshes instead
of one huge one.  This script builds the net, shows the sparsity structure,
and checks that the composed network and the per-column pipeline agree.
"""

import numpy as np

from twopass import (
    build_colsplit_net,
    columnize,
    compose,
    forward,
    reassemble,
    split_columns,
    stagewise_forward,
)


def main() -> None:
    rng = np.random.default_rng(0)
    image = rng.random((28, 28))

    pieces = split_columns(image)
    print(f"image 28x28 -> {len(pieces)} column vectors of length {len(pieces[0])}")
    print(f"reassemble inverts split: {np.array_equal(reassemble(pieces), image)}")

    colnet = build_colsplit_net(seed=1)
    net = compose(colnet)
    blocks = net.layers[0].blocks
    w1 = net.layers[0].weight  # dense view, built on read
    nonzero = np.count_nonzero(w1)
    print(f"\ncomposed stage 1: {w1.shape[0]}x{w1.shape[1]} weight, "
          f"{nonzero}/{w1.size} entries nonzero ({nonzero / w1.size:.1%})")
    print(f"stored as {blocks.shape[0]} blocks of {blocks.shape[1]}x{blocks.shape[2]} "
          f"({blocks.size} parameters)")
    print(f"aggregator: {net.layers[1].weight.shape[0]}x{net.layers[1].weight.shape[1]}")

    # The composed net wants inputs in column-major order; columnize performs
    # the reorder for a batch of flat row-major images.
    batch = rng.random((5, 784))
    composed_out = forward(net, columnize(batch).T).output
    stage_out = np.stack(
        [stagewise_forward(colnet, img.reshape(28, 28)) for img in batch]
    )
    print(f"\ncomposed vs per-column max diff: "
          f"{np.abs(composed_out.T - stage_out).max():.3e}")


if __name__ == "__main__":
    main()
