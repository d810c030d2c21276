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

The photonic backend is :func:`realize_network`: it maps a network to the
network its meshes implement, each block of each layer realized on its own
meshes and replaced by the real part of its realized matrix (a dense layer
is one block).  The trainer realizes once per step and runs both passes
through the result with the ordinary forward pass.

Re-programming the meshes and reading them back is what a photonic step
costs, and at these sizes that is Python overhead per MZI, so both run on
Python complex scalars with no numpy call per MZI.  Each block goes from its
SVD to its read-back on Python lists (:func:`_programs`, :func:`_read_back`):
:func:`realize_network` builds no :class:`MeshProgram` and no
:class:`PhotonicLayer`, and :func:`realize_weight` hands the same lists to
the checked ``MeshProgram`` constructor.  Nulling carries every row as
scalars; each MZI updates the row it nulls and the rows below it.  The
kernel's phases are wrapped in Python (:func:`_wrap`), bit for bit as
``MeshProgram`` wraps them.  The finite-weight check, the orthonormality
residual and the gain check run on both entry points.
Read-back takes only the k modes between the meshes: the first k rows of
mesh(V^H), swept backwards through its MZIs, and the first k columns of
mesh(U), swept forwards.  :func:`mesh_forward` propagates a field through a
mesh with one 2x2 transfer per MZI.  Both take a program's 2x2 entries from
one helper call (:func:`_mzi_transfers`); only the nulling applies T^H, from
the conjugate factors in its own product order.  Every MZI evaluates one
complex exponential for theta/2 and reads sin and cos off it.

Everything here works at transfer-matrix fidelity: phase settings stand in
for the physical permittivities, and nonlinearities between meshes are
applied as ideal real functions on the detected field.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Layer,
    Network,
    _check_int,
    _json_fields,
    _json_list,
    _json_numbers,
    _require_finite,
)

__all__ = [
    "MeshProgram",
    "PhotonicLayer",
    "mesh_forward",
    "transfer_matrix",
    "unitarity_residual",
    "realize_weight",
    "realize_network",
    "apply_phase_noise",
]

TWO_PI = 2.0 * np.pi
_FIELDS = ("modes", "thetas", "phis", "out_phases")
# A program as the kernel builds and the read-back takes it: (n, modes, thetas, phis, out_phases).
_Program = tuple[int, list[int], list[float], list[float], list[float]]


def _mzi_factors(theta: float, phi: float, sign: int = 1) -> tuple[complex, complex, float, float]:
    """The four factors (i e^{i theta/2}, e^{i phi}, sin, cos) of one MZI's transfer.

    ``sign=1`` gives the factors of T(theta, phi); ``sign=-1`` conjugates
    each, which applied to a pair of columns is right-multiplication by T^H.
    The conjugate factors are computed directly rather than by conjugation:
    the two differ in the sign of a zero real part at theta = 0, and the
    nulling angles of later MZIs depend on it.  sin and cos of theta/2 are
    read off e^{i sign theta/2}, which ``cmath.exp`` builds from exactly those
    two values, so the trig is evaluated once; for theta >= +0.0 they equal
    ``math.sin`` and ``math.cos`` of ``0.5 * theta`` bit for bit.
    """
    eh = cmath.exp(sign * 0.5j * theta)
    return sign * 1j * eh, cmath.exp(sign * 1j * phi), sign * eh.imag, eh.real


def _mzi_transfers(
    thetas: list[float], phis: list[float]
) -> list[tuple[complex, complex, complex, complex]]:
    """The entries (t00, t01, t10, t11) of T(theta, phi) for each MZI: every propagation's MZIs."""
    transfers = []
    for theta, phi in zip(thetas, phis):
        pref, ephi, s, c = _mzi_factors(theta, phi)
        pe = pref * ephi
        transfers.append((pe * s, pref * c, pe * c, -pref * s))
    return transfers


@dataclass(frozen=True)
class MeshProgram:
    """Ordered MZI settings plus a final output phase screen.

    Stored as parallel arrays: MZI k couples modes (modes[k], modes[k] + 1)
    with phases thetas[k], phis[k].  Any number of MZIs is a valid mesh: the
    full mesh of an n x n unitary has n(n-1)/2, a realized isometry fewer.
    Phases are wrapped into [0, 2pi) at construction.  Application order is
    list order: the first setting acts on the input field first, the phase
    screen last.
    """

    n: int
    modes: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    out_phases: np.ndarray

    def __post_init__(self) -> None:
        modes = np.asarray(self.modes)
        if modes.dtype.kind not in "iu":
            with np.errstate(invalid="ignore"):
                int_modes = modes.astype(int)
            if not np.array_equal(int_modes, modes):
                raise ValueError("MZI mode indices must be integers")
            modes = int_modes
        thetas, phis, out = (
            np.asarray(a, dtype=float) for a in (self.thetas, self.phis, self.out_phases)
        )
        for name, arr in zip(_FIELDS, (modes, thetas, phis, out)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
        if not len(modes) == len(thetas) == len(phis):
            raise ValueError(
                f"modes, thetas and phis must have equal length, "
                f"got {len(modes)}, {len(thetas)}, {len(phis)}"
            )
        if out.shape != (self.n,):
            raise ValueError(f"output phase screen must have length {self.n}")
        phases = np.concatenate((thetas, phis, out), axis=None)
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        if modes.size and (modes.min() < 0 or modes.max() > self.n - 2):
            raise ValueError("MZI mode indices out of range")
        # np.mod rounds a tiny negative phase up to exactly 2pi; the second
        # mod maps that to 0 and leaves the rest as is.
        np.mod(np.mod(phases, TWO_PI, out=phases), TWO_PI, out=phases)
        t, p = thetas.size, phis.size
        fields = (modes, phases[:t], phases[t : t + p], phases[t + p :])
        for name, arr in zip(_FIELDS, fields):
            object.__setattr__(self, name, arr)

    def _lists(self) -> _Program:
        """The program as the Python lists the read-back takes."""
        return (self.n, *(getattr(self, name).tolist() for name in _FIELDS))

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "mzis": [
                {"i": int(m), "theta": float(t), "phi": float(p)}
                for m, t, p in zip(self.modes, self.thetas, self.phis)
            ],
            "out_phases": self.out_phases.tolist(),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "MeshProgram":
        doc = json.loads(text)
        n, mzis, out_phases = _json_fields("mesh program", doc, "n", "mzis", "out_phases")
        _check_int("n", n, 1)
        mzis = [_json_fields("MZI", m, "i", "theta", "phi") for m in _json_list("mzis", mzis)]
        modes, thetas, phis = (
            np.array(_json_numbers(key, [mzi[j] for mzi in mzis]))
            for j, key in enumerate(("i", "theta", "phi"))
        )
        return cls(n, modes, thetas, phis, np.array(_json_numbers("out_phases", out_phases)))


def mesh_forward(prog: MeshProgram, field: np.ndarray) -> np.ndarray:
    """Propagate a complex field (length n, or (n, B) batch) through the mesh."""
    field = np.asarray(field, dtype=complex)
    if field.ndim not in (1, 2):
        raise ValueError(f"field must be 1-D or 2-D, got shape {field.shape}")
    if field.shape[0] != prog.n:
        raise ValueError(f"field length {field.shape[0]} != mesh dimension {prog.n}")
    transfers = np.array(
        _mzi_transfers(prog.thetas.tolist(), prog.phis.tolist()), dtype=complex
    ).reshape(-1, 2, 2)
    v = field.copy()
    for m, t in zip(prog.modes.tolist(), transfers):
        v[m : m + 2] = np.dot(t, v[m : m + 2])
    shape = (prog.n,) + (1,) * (v.ndim - 1)
    return v * np.exp(1j * prog.out_phases).reshape(shape)


def transfer_matrix(prog: MeshProgram) -> np.ndarray:
    """Dense n x n matrix of the mesh's action (mesh applied to the identity)."""
    return mesh_forward(prog, np.eye(prog.n, dtype=complex))


def _leading(prog: _Program, k: int, rows: bool) -> np.ndarray:
    """The first k rows of a program's MZI product M, or its first k columns as rows (k x n each).

    M is the transfer matrix without the output phase screen, which the
    caller applies.  Unit vectors e_0 .. e_{k-1} are carried as Python complex
    scalars: a column forward through the MZIs (M e_j), a row backward through
    them (e_j^T M, the transpose of M^T e_j).  Vector j stays e_j until an MZI
    reaches mode j, so an MZI updates only the vectors started so far; in a
    nulled mesh that is about k/2 on average.
    """
    n, modes, thetas, phis, _ = prog
    if rows:
        modes, thetas, phis = modes[::-1], thetas[::-1], phis[::-1]
    vecs = [[0j] * n for _ in range(k)]
    for j, v in enumerate(vecs):
        v[j] = 1 + 0j
    started = [False] * k
    live = []
    for m, (t00, t01, t10, t11) in zip(modes, _mzi_transfers(thetas, phis)):
        if m < k:
            for j in range(m, min(m + 2, k)):
                if not started[j]:
                    started[j] = True
                    live.append(vecs[j])
        if rows:
            t01, t10 = t10, t01
        for v in live:
            a, b = v[m], v[m + 1]
            v[m], v[m + 1] = t00 * a + t01 * b, t10 * a + t11 * b
    return np.array(vecs, dtype=complex).reshape(k, n)


def unitarity_residual(prog: MeshProgram) -> float:
    """Frobenius norm of T^H T - I for the mesh's transfer matrix T."""
    t = transfer_matrix(prog)
    return float(np.linalg.norm(t.conj().T @ t - np.eye(prog.n)))


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
    residual = float(np.linalg.norm(a @ a.conj().T - np.eye(k)))
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
            # the nulling angles of later MZIs can depend on.
            pref, ephi, s, c = _mzi_factors(theta, phi, -1)
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


def _wrap(n: int, modes: list[int], thetas: list[float], phis: list[float], out_phases) -> _Program:
    """A program the kernel built, with its phases wrapped into [0, 2pi).

    ``x % TWO_PI % TWO_PI`` is ``MeshProgram``'s double np.mod bit for bit:
    the first can round a tiny negative phase up to exactly 2pi, the second
    maps that to 0 and leaves the rest as is.
    """
    return (n, modes, *([x % TWO_PI % TWO_PI for x in p] for p in (thetas, phis, out_phases)))


def _input_isometry(vh: np.ndarray) -> _Program:
    """Program whose first k output rows equal the k x n orthonormal rows vh."""
    k, n = vh.shape
    modes, thetas, phis, d = _null_rows(vh)
    return _wrap(n, modes, thetas, phis, np.angle(d).tolist() + [0.0] * (n - k))


def _output_isometry(u: np.ndarray) -> _Program:
    """Program whose first k input columns equal the m x k orthonormal columns u.

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


def _programs(w: np.ndarray) -> tuple[_Program, np.ndarray, _Program, float]:
    """A real matrix's thin-SVD realization: mesh_v's program, sigma, mesh_u's program, scale.

    W = scale * U Sigma V^H.  ``scale`` is the largest singular value so the
    attenuation column stays in [0, 1] (for the all-zero matrix the scale is
    set to 1).  Only the k = min(m, n) modes between the meshes carry signal,
    so mesh_v is programmed so that its first k rows are V^H and mesh_u so
    that its first k columns are U; the other ports are left to whatever
    completion the nulling gives.
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
    return _input_isometry(vh), sigma, _output_isometry(u), scale


def _read_back(prog_v: _Program, sigma: np.ndarray, prog_u: _Program, scale: float) -> np.ndarray:
    """Dense out_dim x in_dim matrix the meshes implement: scale (U_k sigma) V_k.

    Only the first k modes pass the attenuations, so the matrix is read back
    from k rows and k columns: V_k, the first k rows of mesh_v's transfer,
    and U_k, mesh_u's transfer on the first k unit columns.  Both come from
    the programmed phases, for any program.
    """
    k = sigma.shape[0]
    m = prog_u[0]
    # Both phase screens in one call: mesh_u's m phases and the k of mesh_v's that V_k reads.
    screens = np.exp(1j * np.array(prog_u[4] + prog_v[4][:k]))
    u_k = screens[:m, None] * _leading(prog_u, k, rows=False).T
    v_k = screens[m:, None] * _leading(prog_v, k, rows=True)
    return scale * (u_k * sigma) @ v_k


@dataclass(frozen=True)
class PhotonicLayer:
    """A real weight matrix realized as mesh(U) . attenuation . mesh(V^H), times a gain."""

    mesh_v: MeshProgram
    sigma: np.ndarray
    mesh_u: MeshProgram
    scale: float

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 1 or sigma.shape[0] != min(self.in_dim, self.out_dim):
            raise ValueError("sigma must have length min(out_dim, in_dim)")
        _check_gain(sigma, self.scale)
        object.__setattr__(self, "sigma", sigma)

    @property
    def in_dim(self) -> int:
        return self.mesh_v.n

    @property
    def out_dim(self) -> int:
        return self.mesh_u.n

    @cached_property
    def realized_matrix(self) -> np.ndarray:
        """The matrix this layer's own programs implement (:func:`_read_back`).

        A layer's output field is ``realized_matrix @ field``.
        """
        return _read_back(self.mesh_v._lists(), self.sigma, self.mesh_u._lists(), self.scale)


def realize_weight(w: np.ndarray) -> PhotonicLayer:
    """Realize a real matrix photonically via its thin SVD, W = scale * U Sigma V^H.

    The meshes hold only the k = min(m, n) modes that carry signal; see
    :func:`_programs` for how they are programmed and checked.
    """
    prog_v, sigma, prog_u, scale = _programs(w)
    return PhotonicLayer(
        mesh_v=MeshProgram(*prog_v),
        sigma=sigma,
        mesh_u=MeshProgram(*prog_u),
        scale=scale,
    )


def realize_network(net: Network) -> Network:
    """The network the meshes implement: the photonic backend, handed to the trainer.

    Each block of each layer is programmed on its own mesh pair, exactly as
    :func:`realize_weight` programs it, and replaced by the real part of the
    matrix read back from those programs (ideal detection); activations are
    unchanged.  A dense layer is one block, and the off-block entries of a
    block-diagonal layer stay exactly zero.
    """
    # .real of the complex block array is a strided view.  Taking .real per
    # block would make the weight contiguous, and the products would round
    # differently (contiguous weights go through BLAS).
    return Network(
        tuple(
            Layer(
                np.array([_read_back(*_programs(b)) for b in layer.blocks]).real,
                layer.activation,
            )
            for layer in net.layers
        )
    )


def apply_phase_noise(prog: MeshProgram, sigma_phase: float, seed: int) -> MeshProgram:
    """Perturb every phase (thetas, phis, output screen) with i.i.d. Gaussian noise.

    Phase-only perturbations, so the result is exactly unitary again.
    """
    if sigma_phase < 0.0:
        raise ValueError("sigma_phase must be >= 0")
    rng = np.random.default_rng(seed)
    k = prog.modes.shape[0]
    return MeshProgram(
        n=prog.n,
        modes=prog.modes,
        thetas=prog.thetas + rng.normal(0.0, sigma_phase, k),
        phis=prog.phis + rng.normal(0.0, sigma_phase, k),
        out_phases=prog.out_phases + rng.normal(0.0, sigma_phase, prog.n),
    )
