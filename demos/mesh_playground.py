"""Program an MZI mesh by hand and check it does what the math says.

A rectangular mesh of 2x2 interferometers can realize any N x N unitary
(Clements layout), and two meshes around a diagonal attenuation row realize
any real matrix via its SVD; for a rectangular matrix those two meshes only
need to realize the modes the attenuation row connects.  This script
decomposes a random unitary, verifies the reconstruction, round-trips the
program through JSON, and then realizes a rectangular weight matrix and
compares the optical output against plain matrix multiplication.
"""

import numpy as np

from twopass import (
    clements_decompose,
    detect_intensity,
    mesh_forward,
    realize_weight,
    transfer_matrix,
    unitarity_residual,
)

N = 6


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def main() -> None:
    u = random_unitary(N, seed=42)
    prog = clements_decompose(u)
    print(f"target: random {N}x{N} unitary")
    print(f"mesh:   {len(prog.thetas)} MZIs (= N(N-1)/2), {N} output phase shifters")
    print(f"unitarity residual     {unitarity_residual(prog):.3e}")
    print(f"reconstruction error   {np.linalg.norm(transfer_matrix(prog) - u):.3e}  (Frobenius)")

    # The program is just phases; it survives serialization exactly.
    clone = type(prog).from_json(prog.to_json())
    print(f"json round trip exact  {np.array_equal(clone.thetas, prog.thetas)}")

    # Light a single input port and look at the detectors.
    field = np.zeros(N, dtype=complex)
    field[0] = 1.0
    out = mesh_forward(prog, field)
    intensities = detect_intensity(out)
    print(f"\nport 0 lit, detector intensities (sum {intensities.sum():.6f}):")
    print("  " + "  ".join(f"{p:.4f}" for p in intensities))

    # Now a real weight matrix: W = scale * U Sigma V^H, three mesh stages.
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, N))
    layer = realize_weight(w)
    print(f"\nrealizing a 4x{N} weight: gain {layer.scale:.4f}, "
          f"attenuations {np.round(layer.sigma, 4)}")
    m = w.shape[0]
    print(f"mzis:  {len(layer.mesh_v.thetas)} (V^H, {m} of {N} rows) + "
          f"{len(layer.mesh_u.thetas)} (U), against {N * (N - 1) // 2} + "
          f"{m * (m - 1) // 2} for full meshes")
    x = rng.normal(size=N)
    optical = layer.forward(x.astype(complex)).real
    print(f"|mesh(x) - W x|        {np.abs(optical - w @ x).max():.3e}  (max over ports)")


if __name__ == "__main__":
    main()
