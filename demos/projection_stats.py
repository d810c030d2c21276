"""Statistics of the fixed error-projection matrix F.

F is the only random object in the learning rule: a Gaussian matrix, drawn
once, that carries the output error back to the input layer.  Its entries are
drawn with standard deviation scale * sqrt(6 / input_dim), so the modulation
it adds stays small next to the input itself.  This script measures both
claims: the entry variance against its closed form, and the size of the
modulation term relative to a typical input.
"""

import numpy as np

from twopass import modulate_input, sample_projection

INPUT_DIM = 784
SCALE = 0.05


def main() -> None:
    proj = sample_projection(INPUT_DIM, 128, seed=0, scale=SCALE)
    sigma = SCALE * np.sqrt(6.0 / INPUT_DIM)
    expected_var = sigma**2
    measured_var = float(proj.var())
    print(f"entries sampled        {proj.size}")
    print(f"target std             {sigma:.9f}  (= {SCALE} * sqrt(6/{INPUT_DIM}))")
    print(f"expected entry var     {expected_var:.6e}")
    print(f"measured entry var     {measured_var:.6e}")
    print(f"relative error         {abs(measured_var - expected_var) / expected_var:.4%}")

    # How big is the modulation next to the input?  Take an MNIST-shaped
    # input with typical pixel statistics and a worst-case early-training
    # error (confident wrong one-hot prediction).
    proj10 = sample_projection(INPUT_DIM, 10, seed=0, scale=SCALE)
    rng = np.random.default_rng(7)
    x0 = rng.random(INPUT_DIM)
    gamma = np.zeros(10)
    gamma[3] = 1.0
    gamma[5] = -1.0
    x_err0 = modulate_input(x0, proj10, gamma)
    ratio = float(np.linalg.norm(x_err0 - x0) / np.linalg.norm(x0))
    print(f"\n|F gamma| / |x0|       {ratio:.4%}  (gamma a full one-hot miss)")
    print(f"max per-pixel shift    {float(np.abs(x_err0 - x0).max()):.6f}")


if __name__ == "__main__":
    main()
