"""MZI-mesh simulation: triangular mesh programming, SVD weight realization.

A single MZI couples adjacent modes (i, i+1) with the 2x2 transfer

    T(theta, phi) = i e^{i theta/2} [[e^{i phi} sin(theta/2), cos(theta/2)],
                                     [e^{i phi} cos(theta/2), -sin(theta/2)]]

so theta = pi is the bar state and theta = 0 full cross coupling.  Every mesh
is programmed by one kernel, triangular nulling (Reck et al., PRL 1994): a
k x n matrix with orthonormal rows takes sum_{r<k} (n-1-r) MZIs plus one
output phase per mode, so an N x N unitary takes a full mesh of N(N-1)/2.

An arbitrary real m x n weight matrix becomes two meshes around a diagonal
attenuation column via its thin SVD, with the largest singular value pulled
out as a scalar gain so the attenuations stay passive (in [0, 1]).  Only the
k = min(m, n) modes between the meshes carry signal, so each mesh realizes
just the isometry it is read through: sum_{r<k} (n-1-r) MZIs on the input
side and sum_{r<k} (m-1-r) on the output side, instead of two full meshes of
n(n-1)/2 and m(m-1)/2.

A mesh has one representation, :class:`Mesh`: the kernel's Python lists of
modes and phases, wrapped into [0, 2pi).  :func:`realize_weight` programs a
matrix's two meshes (a :class:`Realization`) and :func:`read_back` checks that
a realization is well formed and gives the matrix it implements.  The
photonic backend is :func:`realize_network`: it maps a network to the network
its meshes implement, each block of each layer replaced by the real part of
``read_back(realize_weight(block))`` (a dense layer is one block), so the
finite-weight check, the orthonormality residual and the gain check run on
every block.  The trainer realizes once per step and runs both passes
through the result with the ordinary forward pass.

Re-programming the meshes and reading them back is what a photonic step
costs, and at these sizes that is Python overhead per MZI, so both run on
Python complex scalars with no numpy call per MZI.  Nulling carries every
row as scalars; each MZI updates the row it nulls and the rows below it.
Read-back takes only the k modes between the meshes: the first k rows of
mesh(V^H), swept backwards through its MZIs, and the first k columns of
mesh(U), swept forwards.  Both loops compute each MZI's factors where they
apply them, in one pass per MZI: the read-back T's 2x2 entries, the nulling
T^H's conjugate factors in its own product order.  Every MZI evaluates one
complex exponential for theta/2 and reads sin and cos off it (``cmath.exp``
builds it from exactly those two values, so for theta >= +0.0 they equal
``math.sin`` and ``math.cos`` of ``0.5 * theta`` bit for bit).

Everything here works at transfer-matrix fidelity: phase settings stand in
for the physical permittivities, and nonlinearities between meshes are
applied as ideal real functions on the detected field.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import NamedTuple

import numpy as np

from .core import Layer, Network, _check_int, _require_finite

__all__ = [
    "Mesh",
    "Realization",
    "realize_weight",
    "read_back",
    "realize_network",
    "apply_phase_noise",
]

TWO_PI = 2.0 * np.pi


class Mesh(NamedTuple):
    """An n-mode mesh: MZI k couples modes (modes[k], modes[k] + 1) with thetas[k], phis[k].

    Python lists, in application order: the first MZI acts on the input
    field first, the output phase screen (one phase per mode) last.  Any
    number of MZIs is a mesh: the full mesh of an n x n unitary has
    n(n-1)/2, a realized isometry fewer.  Meshes built here have every phase
    wrapped into [0, 2pi).
    """

    n: int
    modes: list[int]
    thetas: list[float]
    phis: list[float]
    out_phases: list[float]


class Realization(NamedTuple):
    """A real matrix on chip: scale * mesh(U) . diag(sigma) . mesh(V^H).

    Only the first k = len(sigma) modes pass the attenuations, which lie in
    [0, 1]; ``scale`` is the electronic gain.
    """

    mesh_v: Mesh
    sigma: np.ndarray
    mesh_u: Mesh
    scale: float


def _leading(mesh: Mesh, k: int, rows: bool) -> np.ndarray:
    """The first k rows of a mesh's MZI product M, or its first k columns as rows (k x n each).

    M is the transfer matrix without the output phase screen, which the
    caller applies.  Unit vectors e_0 .. e_{k-1} are carried as Python complex
    scalars: a column forward through the MZIs (M e_j), a row backward through
    them (e_j^T M, the transpose of M^T e_j).  Vector j stays e_j until an MZI
    reaches mode j, so an MZI updates only the vectors started so far; in a
    nulled mesh that is about k/2 on average.
    """
    n, modes, thetas, phis, _ = mesh
    if rows:
        modes, thetas, phis = modes[::-1], thetas[::-1], phis[::-1]
    vecs = [[0j] * n for _ in range(k)]
    for j, v in enumerate(vecs):
        v[j] = 1 + 0j
    started = [False] * k
    live = []
    for m, theta, phi in zip(modes, thetas, phis):
        if m < k:
            for j in range(m, min(m + 2, k)):
                if not started[j]:
                    started[j] = True
                    live.append(vecs[j])
        # T(theta, phi) = pref [[e^{i phi} s, c], [e^{i phi} c, -s]], sin and
        # cos of theta/2 read off the exponential that builds pref.
        eh = cmath.exp(0.5j * theta)
        pref = 1j * eh
        pe = pref * cmath.exp(1j * phi)
        s, c = eh.imag, eh.real
        t00, t01, t10, t11 = pe * s, pref * c, pe * c, -pref * s
        if rows:
            t01, t10 = t10, t01
        for v in live:
            a, b = v[m], v[m + 1]
            v[m], v[m + 1] = t00 * a + t01 * b, t10 * a + t11 * b
    return np.array(vecs, dtype=complex).reshape(k, n)


def _null_rows(a: np.ndarray) -> tuple[list[int], list[float], list[float], list[complex]]:
    """Triangular nulling of a k x n matrix with orthonormal rows.

    Row by row, each entry right of the diagonal is nulled into its left
    neighbour by right-multiplying columns (m, m+1) with an inverse MZI,
    leaving a @ T_1^H ... T_L^H = [diag(d) 0], i.e. a = [diag(d) 0] T_L ... T_1.
    Returns the modes, thetas and phis of T_1 .. T_L and the unit-modulus d.
    Row r costs n-1-r MZIs.  Every row is carried as Python complex scalars,
    and each MZI updates the row being nulled and the rows below it: the rows
    above are already nulled, and their diagonal entries are left of every
    later MZI.
    """
    k, n = a.shape
    # ||A A^H - I||_F, the identity subtracted on the flattened diagonal.
    g = (a @ a.conj().T).ravel()
    g[:: k + 1] -= 1.0
    residual = math.sqrt(np.vdot(g, g).real)
    if residual > 1e-8:
        raise ValueError(f"rows are not orthonormal: ||A A^H - I||_F = {residual:.3e}")
    rows = a.astype(complex).tolist()
    modes, thetas, phis, d = [], [], [], []
    for r in range(k):
        row, below = rows[r], rows[r + 1 :]
        for m in range(n - 2, r - 1, -1):
            x, y = row[m], row[m + 1]
            theta = 2.0 * math.atan2(abs(x), abs(y))
            phi = cmath.phase(x * y.conjugate())
            # rows <- rows @ T^H on columns (m, m+1), nulling rows[r][m+1]
            # (left unwritten: no later MZI reads it).
            # The product order is fixed: exact zeros keep their signs, which
            # the nulling angles of later MZIs can depend on.  For the same
            # reason T^H's factors are computed directly, not as conjugates
            # of T's: the two differ in the sign of a zero real part at
            # theta = 0.
            eh = cmath.exp(-0.5j * theta)
            pref, ephi, s, c = -1j * eh, cmath.exp(-1j * phi), -eh.imag, eh.real
            es, ec = ephi * s, ephi * c
            row[m] = pref * (es * x + c * y)
            for b in below:
                p, q = b[m], b[m + 1]
                b[m], b[m + 1] = pref * (es * p + c * q), pref * (ec * p - s * q)
            modes.append(m)
            thetas.append(theta)
            phis.append(phi)
        d.append(row[r])
    return modes, thetas, phis, d


def _wrap(n: int, modes: list[int], thetas: list[float], phis: list[float], out_phases) -> Mesh:
    """The mesh with these MZIs and phases, every phase wrapped into [0, 2pi).

    ``x % TWO_PI % TWO_PI`` is a double np.mod bit for bit: the first can
    round a tiny negative phase up to exactly 2pi, the second maps that to 0
    and leaves the rest as is.
    """
    return Mesh(
        n,
        modes,
        [x % TWO_PI % TWO_PI for x in thetas],
        [x % TWO_PI % TWO_PI for x in phis],
        [x % TWO_PI % TWO_PI for x in out_phases],
    )


def _input_isometry(vh: np.ndarray) -> Mesh:
    """Mesh whose first k output rows equal the k x n orthonormal rows vh."""
    k, n = vh.shape
    modes, thetas, phis, d = _null_rows(vh)
    return _wrap(n, modes, thetas, phis, np.angle(d).tolist() + [0.0] * (n - k))


def _output_isometry(u: np.ndarray) -> Mesh:
    """Mesh whose first k input columns equal the m x k orthonormal columns u.

    Nulling u^T gives u = T_1^T ... T_L^T [diag(d); 0]: the phases d on the
    input, then the transposed MZIs in reverse order.  T(theta, phi)^T is
    T(theta, 0) followed by phase phi on its top output, and an input phase
    pair (a, b) passes through T(theta, 0) as T(theta, a - b) with the common
    phase b left on both outputs, so every phase is pushed to the output
    screen.  Inputs k..m-1 carry no signal and get phase 0.
    """
    m, k = u.shape
    modes, thetas, phis, d = _null_rows(u.T)
    modes, thetas = modes[::-1], thetas[::-1]
    phases = [cmath.phase(z) for z in d] + [0.0] * (m - k)
    pushed = []
    for mode, phi in zip(modes, phis[::-1]):
        b = phases[mode + 1]
        pushed.append(phases[mode] - b)
        phases[mode] = (phi + b) % TWO_PI
    return _wrap(m, modes, thetas, pushed, phases)


def _check_gain(sigma: np.ndarray, scale: float) -> None:
    """Raise ValueError unless every attenuation lies in [0, 1] and the gain is finite and > 0."""
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    if not all(0.0 <= a <= 1.0 + 1e-12 for a in sigma.tolist()):
        raise ValueError(f"attenuations must lie in [0, 1], got {sigma}")


def realize_weight(w: np.ndarray) -> Realization:
    """Realize a real matrix photonically via its thin SVD, W = scale * U Sigma V^H.

    ``scale`` is the largest singular value so the attenuation column stays
    in [0, 1] (for the all-zero matrix the scale is set to 1).  Only the
    k = min(m, n) modes between the meshes carry signal, so mesh_v is
    programmed so that its first k rows are V^H and mesh_u so that its first
    k columns are U; the other ports are left to whatever completion the
    nulling gives.  A non-finite weight or singular value raises
    :class:`~twopass.core.NonFiniteError`.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"weight must be 2-D, got shape {w.shape}")
    _require_finite("weight", w)
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    # A finite block can still overflow its largest singular value: a diverging run.
    _require_finite("singular values", s)
    scale = float(s[0]) if s.size and s[0] > 0.0 else 1.0
    sigma = s / scale
    _check_gain(sigma, scale)
    return Realization(_input_isometry(vh), sigma, _output_isometry(u), scale)


def _check_mesh(name: str, mesh: Mesh) -> None:
    """Raise ValueError naming the field of ``mesh`` that the read-back cannot read.

    A non-finite phase raises :class:`~twopass.core.NonFiniteError`.
    """
    n, modes, thetas, phis, out_phases = mesh
    _check_int(f"{name}.n", n, 1)
    if not len(modes) == len(thetas) == len(phis):
        raise ValueError(
            f"{name}.modes, .thetas and .phis must have equal lengths, "
            f"got {len(modes)}, {len(thetas)} and {len(phis)}"
        )
    if len(out_phases) != n:
        raise ValueError(f"{name}.out_phases must hold n = {n} phases, got {len(out_phases)}")
    for m in modes:
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or not 0 <= m <= n - 2:
            raise ValueError(f"{name}.modes must be integers in [0, {n - 2}], got {m!r}")
    for field, phases in (("thetas", thetas), ("phis", phis), ("out_phases", out_phases)):
        _require_finite(f"{name}.{field}", phases)


def read_back(r: Realization) -> np.ndarray:
    """Dense complex out_dim x in_dim matrix the meshes implement: scale (U_k sigma) V_k.

    Only the first k modes pass the attenuations, so the matrix is read back
    from k rows and k columns: V_k, the first k rows of mesh_v's transfer,
    and U_k, mesh_u's transfer on the first k unit columns.  Both come from
    the meshes' phases, for any mesh, so a noisy realization reads back what
    it holds.  Its action on a field is ``read_back(r) @ field``.  A
    realization whose meshes are malformed (an ``n`` that is not an integer
    >= 1, an MZI without both phases or with a mode outside [0, n - 2], an
    output screen not of n phases), whose sigma is wider than a mesh, or
    that breaks :class:`Realization`'s gain invariant (an attenuation outside
    [0, 1], a scale not finite and > 0) raises ValueError; a non-finite
    phase raises :class:`~twopass.core.NonFiniteError`, naming its field.
    """
    _check_mesh("mesh_v", r.mesh_v)
    _check_mesh("mesh_u", r.mesh_u)
    width = min(r.mesh_v.n, r.mesh_u.n)
    if len(r.sigma) > width:
        raise ValueError(
            f"sigma must hold at most min(mesh_v.n, mesh_u.n) = {width} values, "
            f"got {len(r.sigma)}"
        )
    _check_gain(r.sigma, r.scale)
    return _read_back(r)


def _read_back(r: Realization) -> np.ndarray:
    """:func:`read_back` without its checks, for the meshes :func:`realize_weight` builds."""
    mesh_v, sigma, mesh_u, scale = r
    k = sigma.shape[0]
    # Both phase screens in one call: mesh_u's m phases and the k of mesh_v's that V_k reads.
    screens = np.exp(1j * np.array(mesh_u.out_phases + mesh_v.out_phases[:k]))
    u_k = screens[: mesh_u.n, None] * _leading(mesh_u, k, rows=False).T
    v_k = screens[mesh_u.n :, None] * _leading(mesh_v, k, rows=True)
    return scale * (u_k * sigma) @ v_k


def realize_network(net: Network) -> Network:
    """The network the meshes implement: the photonic backend, handed to the trainer.

    Each block of each layer is programmed on its own mesh pair
    (:func:`realize_weight`) and replaced by the real part of the matrix read
    back from it (ideal detection); activations are unchanged.  A dense layer
    is one block, and the off-block entries of a block-diagonal layer stay
    exactly zero.  The meshes are the kernel's own, so they are read back
    without :func:`read_back`'s checks of a hand-built realization.
    """
    # .real of the complex block array is a strided view.  Taking .real per
    # block would make the weight contiguous, and the products would round
    # differently (contiguous weights go through BLAS).
    return Network(
        tuple(
            Layer(
                np.array([_read_back(realize_weight(b)) for b in layer.blocks]).real,
                layer.activation,
            )
            for layer in net.layers
        )
    )


def apply_phase_noise(mesh: Mesh, sigma_phase: float, seed: int) -> Mesh:
    """The mesh with i.i.d. Gaussian noise on every phase (thetas, phis, output screen).

    Phase-only perturbations, so the result is exactly unitary again.
    ``sigma_phase`` must be finite and >= 0; 0 returns the same phases.  A
    malformed mesh (as :func:`read_back` defines it) or a ``seed`` that is
    not an integer >= 0 raises ValueError.  A non-finite phase, in the mesh
    (checked before any draw) or after the noise (a sigma near the largest
    float can overflow a draw), raises :class:`~twopass.core.NonFiniteError`
    rather than wrapping to NaN.
    """
    if not 0.0 <= sigma_phase < math.inf:
        raise ValueError(f"sigma_phase must be finite and >= 0, got {sigma_phase!r}")
    _check_mesh("mesh", mesh)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    k = len(mesh.modes)
    noisy = [
        np.add(phases, rng.normal(0.0, sigma_phase, size))
        for phases, size in ((mesh.thetas, k), (mesh.phis, k), (mesh.out_phases, mesh.n))
    ]
    for name, phases in zip(("thetas", "phis", "out_phases"), noisy):
        _require_finite(f"noisy {name}", phases)
    return _wrap(mesh.n, mesh.modes, *(phases.tolist() for phases in noisy))
