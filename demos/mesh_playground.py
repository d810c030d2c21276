"""Program the MZI meshes of a weight matrix and check they do what the math says.

Two meshes around a diagonal attenuation row realize any real matrix via its
thin SVD, W = scale * U Sigma V^H.  Each mesh is programmed by triangular
nulling (Reck layout) and holds only the MZIs of the modes the attenuation
row connects.  This script realizes a rectangular weight, prints its gain,
attenuations and the MZI count of both meshes, then compares the matrix the
meshes implement, applied to a field, against plain matrix multiplication.
"""

import numpy as np

from twopass import read_back, realize_weight

M, N = 4, 6


def main() -> None:
    rng = np.random.default_rng(3)
    w = rng.normal(size=(M, N))
    r = realize_weight(w)
    print(f"realizing a {M}x{N} weight: gain {r.scale:.4f}, "
          f"attenuations {np.round(r.sigma, 4)}")

    for name, mesh in (("V^H", r.mesh_v), ("U", r.mesh_u)):
        n = mesh.n
        print(f"mesh {name}: {n} modes, {len(mesh.modes)} MZIs "
              f"(a full {n}x{n} mesh has {n * (n - 1) // 2})")

    x = rng.normal(size=N)
    optical = (read_back(r) @ x).real
    print(f"|mesh(x) - W x|  {np.abs(optical - w @ x).max():.3e}  (max over ports)")


if __name__ == "__main__":
    main()
