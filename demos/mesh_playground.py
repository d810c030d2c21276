"""Program the MZI meshes of a weight matrix and check they do what the math says.

Two meshes around a diagonal attenuation row realize any real matrix via its
thin SVD, W = scale * U Sigma V^H.  Each mesh is programmed by triangular
nulling (Reck layout) and holds only the MZIs of the modes the attenuation
row connects.  This script realizes a rectangular weight, inspects both
meshes (MZI count, unitarity, JSON round trip), lights one input port and
reads the detectors, then compares the optical output against plain matrix
multiplication.
"""

import numpy as np

from twopass import (
    MeshProgram,
    mesh_forward,
    realize_weight,
    transfer_matrix,
    unitarity_residual,
)

M, N = 4, 6


def main() -> None:
    rng = np.random.default_rng(3)
    w = rng.normal(size=(M, N))
    layer = realize_weight(w)
    print(f"realizing a {M}x{N} weight: gain {layer.scale:.4f}, "
          f"attenuations {np.round(layer.sigma, 4)}")

    for name, prog in (("V^H", layer.mesh_v), ("U", layer.mesh_u)):
        n = prog.n
        # The program is just phases; it survives serialization.
        clone = MeshProgram.from_json(prog.to_json())
        drift = np.abs(transfer_matrix(clone) - transfer_matrix(prog)).max()
        print(f"\nmesh {name}: {n} modes, {len(prog.modes)} MZIs "
              f"(a full {n}x{n} mesh has {n * (n - 1) // 2})")
        print(f"  unitarity residual     {unitarity_residual(prog):.3e}")
        print(f"  json round trip        {drift:.3e}  (max change of the transfer)")

    # Light a single input port of the V^H mesh and read its detectors.  Its
    # first M outputs carry column 0 of V^H; the rest carry the completion.
    field = np.zeros(N, dtype=complex)
    field[0] = 1.0
    intensities = np.abs(mesh_forward(layer.mesh_v, field)) ** 2
    print(f"\nport 0 lit, V^H mesh detector intensities (sum {intensities.sum():.6f}):")
    print("  " + "  ".join(f"{p:.4f}" for p in intensities))

    x = rng.normal(size=N)
    optical = layer.forward(x.astype(complex)).real
    print(f"\n|mesh(x) - W x|         {np.abs(optical - w @ x).max():.3e}  (max over ports)")


if __name__ == "__main__":
    main()
