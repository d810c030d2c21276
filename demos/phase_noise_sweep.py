"""How much phase error can a realized network tolerate?

Every weight matrix lives on the chip as MZI phase settings, so fabrication
and thermal drift show up as Gaussian noise on each phase.  This script
trains the XOR network, realizes every layer as U Sigma V^H meshes, perturbs
all phases at increasing noise levels, and evaluates the network the
perturbed chip implements.  Phase noise keeps each mesh exactly unitary; only
the implemented matrix moves.  A layer's meshes hold only the MZIs that its
used modes need (29 + 1 for the 16x2 layer, 15 for the 1x16 one), so the
noise perturbs those and not the phases of two full 16-mode meshes.
"""

import numpy as np

from twopass import (
    Activation,
    Layer,
    LayerSpec,
    Network,
    TrainConfig,
    apply_phase_noise,
    build_network,
    evaluate,
    read_back,
    realize_weight,
    sample_projection,
    train,
    xor_dataset,
)

SIGMAS = (0.0, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3)
TRIALS = 20


def noisy_network(net: Network, sigma: float, seed: int) -> Network:
    """Realize each weight, jitter every phase, return the network the chip implements."""
    layers = []
    for i, layer in enumerate(net.layers):
        ideal = realize_weight(layer.weight)
        noisy = ideal._replace(
            mesh_v=apply_phase_noise(ideal.mesh_v, sigma, seed=seed * 1000 + 2 * i),
            mesh_u=apply_phase_noise(ideal.mesh_u, sigma, seed=seed * 1000 + 2 * i + 1),
        )
        layers.append(Layer(read_back(noisy).real, layer.activation))
    return Network(tuple(layers))


def main() -> None:
    data = xor_dataset()
    net = build_network(
        (LayerSpec(2, 16, Activation.SQUARE), LayerSpec(16, 1, Activation.SQUARE)),
        seed=0,
    )
    proj = sample_projection(2, 1, seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=240, batch_size=1, seed=2)
    net, _ = train(net, data, proj, cfg)
    clean_mse = evaluate(net, data).mse
    print(f"trained XOR, noise-free mse {clean_mse:.6f}")
    print(f"\n{'sigma_phase':>12}  {'mean mse':>10}  {'worst mse':>10}   ({TRIALS} draws)")

    for sigma in SIGMAS:
        mses = [evaluate(noisy_network(net, sigma, seed=t), data).mse for t in range(TRIALS)]
        print(f"{sigma:12.4f}  {np.mean(mses):10.6f}  {np.max(mses):10.6f}")


if __name__ == "__main__":
    main()
