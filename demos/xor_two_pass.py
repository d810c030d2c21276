"""Train the XOR gate with the two-pass rule, step by step.

The network never sees a gradient: each batch runs a clean forward pass,
projects the output error back onto the input, runs a second forward pass on
the modulated input, and updates every layer from the difference between the
two passes.  This script wires those pieces up directly (the `twopass` CLI
wraps the same calls) and prints the loss trajectory plus the final truth
table.
"""

import numpy as np

from twopass import (
    Activation,
    LayerSpec,
    TrainConfig,
    build_network,
    evaluate,
    forward,
    sample_projection,
    train,
    xor_dataset,
)

HIDDEN = 16


def main() -> None:
    data = xor_dataset()
    net = build_network(
        (
            LayerSpec(2, HIDDEN, Activation.SQUARE),
            LayerSpec(HIDDEN, 1, Activation.SQUARE),
        ),
        seed=0,
    )
    # F maps the 1-dim output error back to the 2-dim input space and stays
    # fixed for the whole run.
    proj = sample_projection(2, 1, seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=240, batch_size=1, seed=2)

    print(f"architecture 2-{HIDDEN}-1, square activations, {cfg.epochs} epochs")
    trained, history = train(net, data, proj, cfg)

    for record in history[:: len(history) // 12]:
        print(f"  iteration {record.iteration:4d}  mse {record.mse:.6f}")
    last = history[-1]
    print(f"  iteration {last.iteration:4d}  mse {last.mse:.6f}")

    result = evaluate(trained, data)
    print(f"\nfinal mse over the four patterns: {result.mse:.6f}")
    print("input   target  output")
    outputs = forward(trained, data.inputs.T).output
    for x, t, y in zip(data.inputs, data.targets, outputs.T):
        print(f"{x[0]:.0f} {x[1]:.0f}     {t[0]:.0f}       {y[0]:.4f}")


if __name__ == "__main__":
    main()
