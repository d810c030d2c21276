import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twopass import (
    Activation,
    Layer,
    LayerSpec,
    Mesh,
    Network,
    NonFiniteError,
    Realization,
    TrainConfig,
    apply_phase_noise,
    apply_updates,
    build_network,
    forward,
    read_back,
    realize_network,
    realize_weight,
    sample_projection,
    train,
    two_pass_updates,
    xor_dataset,
)
import twopass.photonic
from twopass.data import Dataset
from twopass.modulation import modulate_input, output_error
from twopass.photonic import (
    _check_gain,
    _input_isometry,
    _null_rows,
    _wrap,
)


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return q


def random_mesh(n: int, seed: int) -> Mesh:
    """The full mesh the nulling kernel programs for a seeded n x n unitary."""
    return _input_isometry(random_unitary(n, seed))


def mzi_reference(theta: float, phi: float) -> np.ndarray:
    """The 2x2 MZI transfer written out from the photonic module's docstring."""
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    ephi = np.exp(1j * phi)
    return 1j * np.exp(0.5j * theta) * np.array([[ephi * s, c], [ephi * c, -s]])


def reference_transfer(mesh: Mesh) -> np.ndarray:
    """Dense transfer of a mesh built from ``mzi_reference``, independent of the module.

    Each 2x2 is embedded at its mode pair and left-multiplied in list order,
    phase screen last.
    """
    t = np.eye(mesh.n, dtype=complex)
    for m, theta, phi in zip(mesh.modes, mesh.thetas, mesh.phis):
        e = np.eye(mesh.n, dtype=complex)
        e[m : m + 2, m : m + 2] = mzi_reference(theta, phi)
        t = e @ t
    return np.diag(np.exp(1j * np.asarray(mesh.out_phases))) @ t


BARE_2 = Mesh(2, [], [], [], [0.0, 0.0])
BARE_3 = Mesh(3, [], [], [], [0.0] * 3)


def reference_mzi_factors(theta: float, phi: float, sign: int = 1):
    """The four factors (i e^{i theta/2}, e^{i phi}, sin, cos) of one MZI's transfer.

    ``sign=-1`` gives T^H's, each conjugated.  sin and cos of theta/2 are
    taken from ``math``, where the kernels read them off the exponential.
    """
    half = 0.5 * theta
    pref = sign * 1j * cmath.exp(sign * 0.5j * theta)
    return pref, cmath.exp(sign * 1j * phi), math.sin(half), math.cos(half)


def reference_transfers(thetas, phis) -> list[tuple[complex, complex, complex, complex]]:
    """The entries (t00, t01, t10, t11) of T(theta, phi) for each MZI."""
    transfers = []
    for theta, phi in zip(thetas, phis):
        pref, ephi, s, c = reference_mzi_factors(theta, phi)
        pe = pref * ephi
        transfers.append((pe * s, pref * c, pe * c, -pref * s))
    return transfers


def reference_leading(mesh: Mesh, k: int, rows: bool) -> np.ndarray:
    """The photonic module's ``_leading`` from one list of 2x2 entries per mesh."""
    n, modes, thetas, phis, _ = mesh
    if rows:
        modes, thetas, phis = modes[::-1], thetas[::-1], phis[::-1]
    vecs = [[0j] * n for _ in range(k)]
    for j, v in enumerate(vecs):
        v[j] = 1 + 0j
    started = [False] * k
    live = []
    for m, (t00, t01, t10, t11) in zip(modes, reference_transfers(thetas, phis)):
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


def reference_read_back(r: Realization) -> np.ndarray:
    """``read_back`` with its MZI entries from ``reference_transfers``."""
    mesh_v, sigma, mesh_u, scale = r
    k = sigma.shape[0]
    screens = np.exp(1j * np.array(mesh_u.out_phases + mesh_v.out_phases[:k]))
    u_k = screens[: mesh_u.n, None] * reference_leading(mesh_u, k, rows=False).T
    v_k = screens[mesh_u.n :, None] * reference_leading(mesh_v, k, rows=True)
    return scale * (u_k * sigma) @ v_k


def reference_scalar_null_rows(a: np.ndarray):
    """The photonic module's scalar ``_null_rows``, T^H's factors from ``reference_mzi_factors``."""
    k, n = a.shape
    rows = a.astype(complex).tolist()
    modes, thetas, phis, d = [], [], [], []
    for r in range(k):
        row, below = rows[r], rows[r + 1 :]
        for m in range(n - 2, r - 1, -1):
            x, y = row[m], row[m + 1]
            theta = 2.0 * math.atan2(abs(x), abs(y))
            phi = cmath.phase(x * y.conjugate())
            pref, ephi, s, c = reference_mzi_factors(theta, phi, -1)
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


def null_rows_bits(program) -> tuple:
    """A nulling's modes, and the IEEE bits of its thetas, phis and d (-0.0 differs from +0.0)."""
    modes, thetas, phis, d = program
    return modes, *(np.array(x).tobytes() for x in (thetas, phis, d))


def mesh_forward(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    """Propagate a complex field (length n, or (n, B) batch) through the mesh.

    One 2x2 product per MZI, its entries from ``reference_transfers``.
    """
    v = np.array(field, dtype=complex)
    transfers = np.array(reference_transfers(mesh.thetas, mesh.phis), dtype=complex).reshape(
        -1, 2, 2
    )
    for m, t in zip(mesh.modes, transfers):
        v[m : m + 2] = np.dot(t, v[m : m + 2])
    shape = (mesh.n,) + (1,) * (v.ndim - 1)
    return v * np.exp(1j * np.asarray(mesh.out_phases)).reshape(shape)


def transfer_matrix(mesh: Mesh) -> np.ndarray:
    """Dense n x n matrix of the mesh's action (mesh applied to the identity)."""
    return mesh_forward(mesh, np.eye(mesh.n, dtype=complex))


def unitarity_residual(mesh: Mesh) -> float:
    """Frobenius norm of T^H T - I for the mesh's transfer matrix T."""
    t = transfer_matrix(mesh)
    return float(np.linalg.norm(t.conj().T @ t - np.eye(mesh.n)))


def single_mzi(theta: float, phi: float) -> np.ndarray:
    """Transfer matrix of a 2-mode mesh holding one MZI and no output phase."""
    return transfer_matrix(Mesh(2, [0], [theta], [phi], [0.0, 0.0]))


class TestMZISetting:
    """One MZI setting, realized as the only element of a 2-mode mesh."""

    def test_transfer_is_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = single_mzi(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            np.testing.assert_allclose(t.conj().T @ t, np.eye(2), atol=1e-14)

    def test_theta_pi_is_bar_state(self):
        t = single_mzi(np.pi, 0.8)
        assert abs(t[0, 1]) < 1e-15 and abs(t[1, 0]) < 1e-15
        np.testing.assert_allclose(abs(t[0, 0]), 1.0, rtol=1e-14)
        np.testing.assert_allclose(abs(t[1, 1]), 1.0, rtol=1e-14)

    def test_theta_zero_is_full_cross(self):
        t = single_mzi(0.0, 0.8)
        assert t[0, 0] == 0.0 and t[1, 1] == 0.0
        np.testing.assert_allclose(abs(t[0, 1]), 1.0, rtol=1e-14)
        np.testing.assert_allclose(abs(t[1, 0]), 1.0, rtol=1e-14)

    def test_balanced_point_splits_power_equally(self):
        t = single_mzi(np.pi / 2.0, 0.0)
        out = t @ np.array([1.0, 0.0])
        np.testing.assert_allclose(np.abs(out) ** 2, [0.5, 0.5], rtol=1e-12)


class TestMZIFactors:
    """The kernels' one exponential per MZI gives what ``math``'s sin and cos give, bit for bit.

    Both kernels compute each MZI's factors inline; they are compared with
    the references above, which take sin and cos of theta/2 from ``math``.
    """

    def test_one_exponential_gives_the_math_module_factors_bit_for_bit(self):
        # One MZI per 2-mode mesh, read back as mesh_v (swept backwards) and
        # as mesh_u (forwards); then the nulling of its transfer's rows, whose
        # edge entries (exact zeros at theta = 0 and pi) reach T^H's factors.
        rng = np.random.default_rng(40)
        edge = [0.0, 5e-324, np.pi, np.nextafter(2 * np.pi, 0.0)]
        thetas = edge + rng.uniform(0.0, 2 * np.pi, 2000).tolist()
        phis = [0.0, -0.0, np.pi] + rng.uniform(-np.pi, 2 * np.pi, 50).tolist()
        for i, theta in enumerate(thetas):
            phi = phis[i % len(phis)]
            mzi = Mesh(2, [0], [theta], [phi], [0.0, 0.0])
            for sigma in (np.array([1.0]), np.array([1.0, 0.5])):
                for v, u in ((mzi, BARE_2), (BARE_2, mzi)):
                    r = Realization(v, sigma, u, 1.0)
                    assert read_back(r).tobytes() == reference_read_back(r).tobytes(), (theta, phi)
            t = read_back(Realization(mzi, np.ones(2), BARE_2, 1.0))
            for k in (1, 2):
                want = null_rows_bits(reference_scalar_null_rows(t[:k]))
                assert null_rows_bits(_null_rows(t[:k])) == want, (theta, phi, k)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 2), (2, 1), (2, 16), (16, 2), (5, 8), (8, 5), (10, 28)], ids=str
    )
    def test_seeded_realizations_read_back_bit_for_bit(self, shape):
        # The nulled meshes, and the same meshes under phase noise, whose
        # phases are no longer the nulling's.
        w = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=shape)
        r = realize_weight(w)
        noisy = r._replace(
            mesh_v=apply_phase_noise(r.mesh_v, 0.3, 1), mesh_u=apply_phase_noise(r.mesh_u, 0.3, 2)
        )
        for case in (r, noisy):
            assert read_back(case).tobytes() == reference_read_back(case).tobytes()


def phase_bits(mesh: Mesh) -> list[bytes]:
    """The IEEE bits of a mesh's three phase lists."""
    return [np.array(p, dtype=float).tobytes() for p in (mesh.thetas, mesh.phis, mesh.out_phases)]


class TestMesh:
    def test_empty_and_partial_meshes_are_valid(self):
        # A mesh need not hold all n(n-1)/2 MZIs of a full unitary mesh.
        empty = Mesh(3, [], [], [], [0.5, 0.0, 1.0])
        np.testing.assert_allclose(
            transfer_matrix(empty), np.diag(np.exp(1j * np.array([0.5, 0.0, 1.0]))), rtol=1e-15
        )
        partial = Mesh(4, [2, 0], [0.3, 1.1], [2.0, 0.4], [0.0] * 4)
        assert unitarity_residual(partial) < 1e-14
        np.testing.assert_allclose(
            transfer_matrix(partial), reference_transfer(partial), rtol=0, atol=1e-15
        )

    def test_phases_wrap_into_principal_range(self):
        mesh = _wrap(2, [0], [-np.pi / 2.0], [5.0 * np.pi], [2.0 * np.pi, -0.25])
        np.testing.assert_allclose(mesh.thetas, [1.5 * np.pi], rtol=1e-12)
        np.testing.assert_allclose(mesh.phis, [np.pi], rtol=1e-12)
        np.testing.assert_allclose(mesh.out_phases, [0.0, 2.0 * np.pi - 0.25], atol=1e-15)

    def test_tiny_negative_phases_wrap_to_zero(self):
        mesh = _wrap(
            2, [0, 0], [-1e-17, -5e-324], [-1e-300, 2.0 * np.pi], [-1e-17, -4.0 * np.pi - 1e-16]
        )
        for phases in (mesh.thetas, mesh.phis, mesh.out_phases):
            assert np.array(phases).tobytes() == np.zeros(len(phases)).tobytes()

    def test_realized_phases_lie_in_range(self):
        # This weight's output mesh has a phase that np.mod alone maps to 2pi.
        r = realize_weight(np.random.default_rng(3).normal(size=(4, 6)))
        for mesh in (r.mesh_v, r.mesh_u):
            for phases in (mesh.thetas, mesh.phis, mesh.out_phases):
                assert all(0.0 <= x < 2.0 * np.pi for x in phases)


class TestMeshForward:
    def test_matches_chained_embedded_transfers(self):
        mesh = random_mesh(4, seed=5)
        np.testing.assert_allclose(transfer_matrix(mesh), reference_transfer(mesh), atol=1e-13)

    def test_energy_is_conserved(self):
        rng = np.random.default_rng(6)
        mesh = random_mesh(6, seed=6)
        for _ in range(5):
            x = rng.normal(size=6) + 1j * rng.normal(size=6)
            out = mesh_forward(mesh, x)
            np.testing.assert_allclose(np.linalg.norm(out), np.linalg.norm(x), rtol=1e-12)

    def test_zero_field_stays_zero(self):
        mesh = random_mesh(3, seed=7)
        np.testing.assert_array_equal(mesh_forward(mesh, np.zeros(3)), np.zeros(3, dtype=complex))

    def test_batch_columns_match_single_fields(self):
        rng = np.random.default_rng(8)
        mesh = random_mesh(5, seed=8)
        batch = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        out = mesh_forward(mesh, batch)
        for j in range(4):
            np.testing.assert_allclose(out[:, j], mesh_forward(mesh, batch[:, j]), rtol=1e-14)

    def test_unitarity_residual_near_zero(self):
        assert unitarity_residual(random_mesh(7, seed=10)) < 1e-12


class TestInputIsometry:
    """Square unitaries programmed by triangular nulling: full meshes of n(n-1)/2 MZIs."""

    def test_identity_reconstructs(self):
        mesh = _input_isometry(np.eye(4))
        np.testing.assert_allclose(transfer_matrix(mesh), np.eye(4), atol=1e-12)

    def test_one_by_one_is_pure_phase(self):
        mesh = _input_isometry(np.array([[np.exp(0.7j)]]))
        assert len(mesh.modes) == 0
        np.testing.assert_allclose(mesh.out_phases, [0.7], rtol=1e-12)
        np.testing.assert_allclose(transfer_matrix(mesh), [[np.exp(0.7j)]], rtol=1e-12)

    def test_two_by_two_uses_single_mzi(self):
        u = random_unitary(2, seed=11)
        mesh = _input_isometry(u)
        assert len(mesh.modes) == 1
        np.testing.assert_allclose(transfer_matrix(mesh), u, atol=1e-13)

    def test_seeded_unitaries_round_trip(self):
        for n in range(1, 13):
            u = random_unitary(n, seed=100 + n)
            mesh = _input_isometry(u)
            assert len(mesh.modes) == n * (n - 1) // 2
            np.testing.assert_allclose(transfer_matrix(mesh), u, atol=1e-11)

    def test_permutation_matrix_round_trips(self):
        p = np.eye(5)[[3, 0, 4, 1, 2]]
        np.testing.assert_allclose(transfer_matrix(_input_isometry(p)), p, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="rows are not orthonormal"):
            _input_isometry(np.array([[1.0, 1.0], [0.0, 1.0]]))


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def low_rank_weights(draw) -> np.ndarray:
    """Seeded real m x n matrices of any rank 0..min(m, n), at scales 1e-3..1e3."""
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rank = draw(st.integers(0, min(m, n)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scale * (rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n)))


# Small integer entries give exact zeros, repeated singular values and
# signed permutations, where the nulling angles hit their edge cases.
integer_weights = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(-2, 2).map(float))
)


zero_weights = st.tuples(st.integers(1, 16), st.integers(1, 16)).map(np.zeros)


@st.composite
def signed_permutations(draw) -> np.ndarray:
    """The first rows of an n x n permutation matrix with random signs."""
    n = draw(st.integers(1, 16))
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return (np.eye(n)[order] * np.array(signs)[:, None])[: draw(st.integers(1, n))]


class TestKernelBuiltPrograms:
    @PROPERTY_SETTINGS
    @given(st.one_of(zero_weights, signed_permutations(), low_rank_weights()))
    def test_equal_the_wrapped_kernel_lists_bit_for_bit(self, w):
        # realize_weight's meshes are what _wrap made of the kernel's
        # unwrapped lists: integer modes as built, and every phase what a
        # double np.mod gives, in [0, 2pi), where wrapping again changes nothing.
        built = []
        real_wrap = twopass.photonic._wrap

        def record(*args):
            wrapped = real_wrap(*args)
            built.append((args, wrapped))
            return wrapped

        with mock.patch.object(twopass.photonic, "_wrap", record):
            r = realize_weight(w)
        assert len(built) == 2
        for (args, wrapped), mesh in zip(built, (r.mesh_v, r.mesh_u)):
            assert mesh is wrapped and type(mesh) is Mesh
            assert mesh.n == args[0] and mesh.modes == list(args[1])
            assert all(type(m) is int and 0 <= m <= mesh.n - 2 for m in mesh.modes)
            assert len(mesh.thetas) == len(mesh.phis) == len(mesh.modes)
            assert len(mesh.out_phases) == mesh.n
            for raw, phases in zip(args[2:], (mesh.thetas, mesh.phis, mesh.out_phases)):
                want = np.mod(np.mod(np.array(raw, dtype=float), 2 * np.pi), 2 * np.pi)
                assert np.array(phases, dtype=float).tobytes() == want.tobytes()
                assert all(0.0 <= x < 2 * np.pi for x in phases)
            assert phase_bits(_wrap(*mesh)) == phase_bits(mesh)

    @PROPERTY_SETTINGS
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e3, 1e3),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(
                    [-0.0, -5e-324, -1e-17, 2 * np.pi, np.nextafter(2 * np.pi, 0.0), -2 * np.pi]
                ),
            ),
            max_size=20,
        )
    )
    def test_python_wrap_is_the_double_np_mod_bit_for_bit(self, phases):
        _, _, thetas, phis, out = twopass.photonic._wrap(len(phases), [], phases, phases, phases)
        want = np.mod(np.mod(np.array(phases, dtype=float), 2 * np.pi), 2 * np.pi)
        for got in (thetas, phis, out):
            assert np.array(got, dtype=float).tobytes() == want.tobytes()


class TestRealizeEntryPoints:
    @PROPERTY_SETTINGS
    @given(
        st.one_of(
            zero_weights,
            signed_permutations(),
            low_rank_weights(),
            integer_weights,
            st.integers(1, 16).map(lambda n: np.arange(1.0, n + 1.0)[None, :]),
            st.integers(1, 16).map(lambda n: np.arange(-1.0, -n - 1.0, -1.0)[:, None]),
        )
    )
    def test_realize_network_blocks_equal_realize_weight_byte_for_byte(self, w):
        # The backend programs and reads back each block itself; it must give
        # what realize_weight's layer reads back, for blocks of either
        # orientation and for layers of one and of three blocks.
        dense = Network((Layer(w[None], Activation.IDENTITY),))
        blocks = Network(
            (
                Layer(np.stack([w, -w, 2.0 * w]), Activation.RELU),
                Layer(np.stack([w.T, w.T, 0.5 * w.T]), Activation.IDENTITY),
            )
        )
        for net in (dense, blocks):
            for layer, realized in zip(net.layers, realize_network(net).layers):
                assert realized.blocks.shape == layer.blocks.shape
                for got, block in zip(realized.blocks, layer.blocks):
                    want = read_back(realize_weight(block)).real
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()


class TestRealizationProperties:
    @PROPERTY_SETTINGS
    @given(st.one_of(low_rank_weights(), integer_weights))
    def test_realize_weight_reproduces_w_on_thin_meshes(self, w):
        m, n = w.shape
        k = min(m, n)
        r = realize_weight(w)
        tol = 1e-12 * max(1.0, r.scale)
        assert np.abs(read_back(r) - w).max() <= tol
        assert unitarity_residual(r.mesh_v) < 1e-10
        assert unitarity_residual(r.mesh_u) < 1e-10
        expected = sum(n - 1 - j for j in range(k)) + sum(m - 1 - j for j in range(k))
        assert len(r.mesh_v.modes) + len(r.mesh_u.modes) == expected

    @PROPERTY_SETTINGS
    @given(st.one_of(low_rank_weights(), integer_weights), st.integers(0, 2**32 - 1))
    def test_realized_matrix_is_the_forward_of_the_identity(self, w, seed):
        # The read-back takes k rows of mesh_v and k columns of mesh_u; the
        # reference pushes every mode through both meshes' dense transfers,
        # scale * T_u [diag(sigma) 0] T_v.  It must agree for any program:
        # the nulled meshes, the same meshes under phase noise, and MZIs in
        # random order, which start the read-back vectors in any order.
        r = realize_weight(w)
        k = r.sigma.shape[0]
        attenuation = np.zeros((r.mesh_u.n, r.mesh_v.n))
        attenuation[range(k), range(k)] = r.sigma
        rng = np.random.default_rng(seed)

        def scrambled(n):
            count = int(rng.integers(0, 3 * n)) if n > 1 else 0
            phases = rng.uniform(0.0, 2 * np.pi, size=2 * count + n).tolist()
            modes = rng.integers(0, max(n - 1, 1), size=count).tolist()
            return Mesh(n, modes, phases[:count], phases[count : 2 * count], phases[2 * count :])

        for mesh_v, mesh_u in (
            (r.mesh_v, r.mesh_u),
            (apply_phase_noise(r.mesh_v, 0.3, seed), apply_phase_noise(r.mesh_u, 0.3, seed + 1)),
            (scrambled(r.mesh_v.n), scrambled(r.mesh_u.n)),
        ):
            other = r._replace(mesh_v=mesh_v, mesh_u=mesh_u)
            t_u, t_v = reference_transfer(mesh_u), reference_transfer(mesh_v)
            expected = r.scale * t_u @ attenuation @ t_v
            assert np.abs(read_back(other) - expected).max() <= 1e-13 * max(1.0, r.scale)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_unitary_round_trip(self, n, seed):
        u = random_unitary(n, seed)
        mesh = _input_isometry(u)
        assert len(mesh.modes) == n * (n - 1) // 2
        np.testing.assert_allclose(transfer_matrix(mesh), u, rtol=0, atol=1e-12)


def reference_mzi(top, bot, theta: float, phi: float, sign: int = 1):
    """One MZI on the mode pair (top, bot), its factors computed with numpy."""
    half = 0.5 * theta
    s, c = np.sin(half), np.cos(half)
    pref = sign * 1j * np.exp(sign * 0.5j * theta)
    ephi = np.exp(sign * 1j * phi)
    return pref * (ephi * s * top + c * bot), pref * (ephi * c * top - s * bot)


def reference_null_rows(a: np.ndarray):
    """Sequential triangular nulling: every row is updated as an array at every MZI."""
    k, n = a.shape
    work = a.astype(complex)
    ops = []
    for r in range(k):
        for m in range(n - 2, r - 1, -1):
            x, y = complex(work[r, m]), complex(work[r, m + 1])
            theta = 2.0 * math.atan2(abs(x), abs(y))
            phi = cmath.phase(x * y.conjugate())
            work[:, m], work[:, m + 1] = reference_mzi(work[:, m], work[:, m + 1], theta, phi, -1)
            ops.append((m, theta, phi))
    return ops, np.diag(work[:, :k]).copy()


def assert_nulling_matches_reference(a: np.ndarray):
    # Bit for bit the scalar reference, and within 1e-12 the array one.
    program = _null_rows(a)
    assert null_rows_bits(program) == null_rows_bits(reference_scalar_null_rows(a))
    ops, d_ref = reference_null_rows(a)
    modes, thetas, phis, d = program
    np.testing.assert_array_equal(modes, [op[0] for op in ops])
    for got, want in ((thetas, [op[1] for op in ops]), (phis, [op[2] for op in ops])):
        wrapped = np.angle(np.exp(1j * (np.asarray(got) - np.asarray(want))))
        assert np.abs(wrapped).max(initial=0.0) <= 1e-12
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-12)


class TestNullingMatchesSequentialReference:
    """The scalar-row nulling kernel gives the same MZIs as the array-per-MZI reference.

    Compared where every nulling angle is set by the isometry: dense seeded
    isometries, and integer ones whose updates are exact.  Where an entry
    that is zero in exact arithmetic meets rounding residue, its phi is the
    phase of that residue, and numpy's array loops round complex products
    differently from Python scalars (fused multiply-add), so there the two
    kernels may pick different, equally valid, programs.
    """

    def test_seeded_random_isometries(self):
        rng = np.random.default_rng(30)
        for k, n in ((1, 1), (1, 2), (1, 16), (2, 16), (3, 7), (5, 5), (10, 28), (16, 20)):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert_nulling_matches_reference(np.linalg.qr(a)[0][:k])
            u = np.linalg.svd(rng.normal(size=(n, k)), full_matrices=False)[0]
            assert_nulling_matches_reference(u.T)
            vh = np.linalg.svd(rng.normal(size=(k, n)), full_matrices=False)[2]
            assert_nulling_matches_reference(vh)

    def test_signed_permutations(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 9, 16):
            for _ in range(4):
                p = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=(n, 1))
                for k in range(1, n + 1):
                    assert_nulling_matches_reference(p[:k])

    def test_integer_weight_isometries(self):
        # Zero matrices, signed permutations and a diagonal with zeros and
        # repeated values, through the SVD that realize_weight takes.
        rng = np.random.default_rng(32)
        weights = [np.zeros((3, 4)), np.zeros((16, 2)), np.diag([2.0, 0.0, -2.0, 1.0, 0.0])]
        for n in (2, 5, 16):
            p = np.eye(n)[rng.permutation(n)] * rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, 1))
            weights += [p, p[:1], p[:, :2]]
        for w in weights:
            u, _, vh = np.linalg.svd(w, full_matrices=False)
            assert_nulling_matches_reference(vh)
            assert_nulling_matches_reference(u.T)


class TestReadBack:
    @pytest.mark.parametrize(
        "r, match",
        [
            pytest.param(
                # Python's negative indexing would couple modes 2 and 0.
                Realization(
                    BARE_2, np.array([1.0, 0.5]), Mesh(3, [-1], [1.0], [0.5], [0.0] * 3), 1.0
                ),
                r"mesh_u\.modes must be integers in \[0, 1\], got -1",
                id="negative_mode",
            ),
            pytest.param(
                # zip would drop the MZI, as if it were absent.
                Realization(Mesh(2, [0], [1.0], [], [0.0, 0.0]), np.array([1.0]), BARE_2, 1.0),
                r"mesh_v\.modes, \.thetas and \.phis must have equal lengths, got 1, 1 and 0",
                id="theta_without_phi",
            ),
            pytest.param(
                Realization(BARE_2, np.array([1.0, 0.5, 0.25]), BARE_3, 1.0),
                r"sigma must hold at most min\(mesh_v\.n, mesh_u\.n\) = 2 values, got 3",
                id="sigma_wider_than_a_mesh",
            ),
            pytest.param(
                # An MZI on modes (2, 3) of a 3-mode mesh, beyond the k read rows.
                Realization(Mesh(3, [2], [1.0], [0.5], [0.0] * 3), np.array([1.0]), BARE_2, 1.0),
                r"mesh_v\.modes must be integers in \[0, 1\], got 2",
                id="mode_past_the_last_pair",
            ),
            pytest.param(
                Realization(BARE_2, np.array([1.0]), Mesh(2, [0.0], [1.0], [0.5], [0.0, 0.0]), 1.0),
                r"mesh_u\.modes must be integers in \[0, 0\], got 0\.0",
                id="float_mode",
            ),
            pytest.param(
                Realization(BARE_2, np.array([1.0]), Mesh(3, [], [], [], [0.0, 0.0]), 1.0),
                r"mesh_u\.out_phases must hold n = 3 phases, got 2",
                id="short_output_screen",
            ),
        ],
    )
    def test_malformed_realization_rejected(self, r, match):
        with pytest.raises(ValueError, match=match):
            read_back(r)

    @pytest.mark.parametrize(
        "sigma, scale, match",
        [
            pytest.param(2.0, 1.0, "attenuations must lie in", id="gain_above_one"),
            pytest.param(np.nan, 1.0, "attenuations must lie in", id="nan_attenuation"),
            pytest.param(1.0, np.inf, "scale must be finite and > 0, got inf", id="inf_scale"),
            pytest.param(1.0, -1.0, r"scale must be finite and > 0, got -1\.0", id="neg_scale"),
        ],
    )
    def test_realization_outside_the_gain_invariant_rejected(self, sigma, scale, match):
        # Each used to read back silently: a gain-2 matrix, an all-NaN matrix
        # or a negated one.
        r = realize_weight(np.random.default_rng(41).normal(size=(3, 2)))
        bad = r._replace(sigma=np.array([sigma, 0.5]), scale=scale)
        with pytest.raises(ValueError, match=match):
            read_back(bad)


class TestRealizeWeight:
    def test_identity_weight(self):
        r = realize_weight(np.eye(3))
        assert type(r) is Realization and r.scale == 1.0
        np.testing.assert_allclose(r.sigma, np.ones(3), rtol=1e-12)
        np.testing.assert_allclose(read_back(r).real, np.eye(3), atol=1e-12)
        assert np.abs(read_back(r).imag).max() < 1e-12

    def test_diagonal_gain_pulled_out(self):
        r = realize_weight(np.diag([2.0, 1.0]))
        assert r.scale == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(np.sort(r.sigma)[::-1], [1.0, 0.5], rtol=1e-12)

    def test_zero_matrix_realizes_with_unit_scale(self):
        r = realize_weight(np.zeros((2, 3)))
        assert r.scale == 1.0
        np.testing.assert_array_equal(r.sigma, np.zeros(2))
        np.testing.assert_allclose(read_back(r), np.zeros((2, 3)), atol=1e-15)

    def test_random_matrices_realize_accurately(self):
        rng = np.random.default_rng(12)
        for shape in ((8, 8), (3, 5), (5, 3), (1, 4)):
            w = rng.normal(size=shape)
            r = realize_weight(w)
            assert np.abs(read_back(r).real - w).max() < 1e-6
            assert np.abs(read_back(r).imag).max() < 1e-6
            assert float(r.sigma.max()) <= 1.0 + 1e-12
            assert unitarity_residual(r.mesh_u) < 1e-10
            assert unitarity_residual(r.mesh_v) < 1e-10

    def test_meshes_hold_only_the_used_modes(self):
        # 16x2 and 1x16 are the XOR layers: 29 + 1 and 0 + 15 MZIs, against
        # 120 + 1 and 0 + 120 for full meshes.
        rng = np.random.default_rng(24)
        for shape, (n_v, n_u) in (((16, 2), (1, 29)), ((1, 16), (15, 0)), ((3, 3), (3, 3))):
            w = rng.normal(size=shape)
            r = realize_weight(w)
            assert (len(r.mesh_v.modes), len(r.mesh_u.modes)) == (n_v, n_u)
            assert (r.mesh_v.n, r.mesh_u.n) == (shape[1], shape[0])
            np.testing.assert_allclose(read_back(r), w, rtol=0, atol=1e-13)

    def test_mnist_aggregator_shape(self):
        # The 10x784 output layer: 7,785 + 45 MZIs instead of two full
        # meshes of 306,936 + 45.
        w = np.random.default_rng(25).normal(scale=0.05, size=(10, 784))
        r = realize_weight(w)
        assert len(r.mesh_v.modes) + len(r.mesh_u.modes) == 7830
        assert np.abs(read_back(r) - w).max() < 1e-12 * max(1.0, r.scale)
        assert unitarity_residual(r.mesh_u) < 1e-10

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            realize_weight(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError, match="2-D"):
            realize_weight(np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    def test_each_non_finite_weight_rejected(self, value):
        w = np.ones((3, 2))
        w[2, 1] = value
        with pytest.raises(NonFiniteError, match="weight contains non-finite"):
            realize_weight(w)

    @pytest.mark.parametrize("shape", [(), (3,), (1, 2, 2)], ids=str)
    def test_weight_that_is_not_2d_rejected(self, shape):
        match = re.escape(f"weight must be 2-D, got shape {shape}")
        with pytest.raises(ValueError, match=match):
            realize_weight(np.ones(shape))

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 16), (16, 1), (16, 2), (2, 16), (3, 3), (5, 8), (8, 5)], ids=str
    )
    def test_realized_meshes_are_well_formed(self, shape):
        # What a mesh must hold for read_back to mean anything: modes in
        # range, one theta and phi per MZI, one output phase per mode, every
        # phase finite and wrapped, a unitary transfer and the MZI count of
        # the k used modes.
        m, n = shape
        k = min(m, n)
        w = np.random.default_rng(m * 100 + n).normal(size=shape)
        r = realize_weight(w)
        assert r.sigma.shape == (k,)
        for mesh, width in ((r.mesh_v, n), (r.mesh_u, m)):
            assert type(mesh) is Mesh and mesh.n == width
            assert len(mesh.modes) == sum(width - 1 - j for j in range(k))
            assert all(type(i) is int and 0 <= i <= width - 2 for i in mesh.modes)
            assert len(mesh.thetas) == len(mesh.phis) == len(mesh.modes)
            assert len(mesh.out_phases) == width
            for phases in (mesh.thetas, mesh.phis, mesh.out_phases):
                assert all(0.0 <= x < 2 * np.pi for x in phases)
            assert unitarity_residual(mesh) < 1e-10
        assert np.abs(read_back(r) - w).max() <= 1e-12 * max(1.0, r.scale)

    @pytest.mark.parametrize(
        "w",
        [
            np.zeros((1, 1)),
            -np.eye(4),
            2.0 * np.eye(3),
            np.outer([1.0, -2.0, 3.0], [0.5, 0.0, -1.0, 2.0]),
            np.eye(5)[[4, 2, 0, 3, 1]] * np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]]),
            np.diag([3.0, 0.0, -3.0, 1.0]),
            1e-300 * np.random.default_rng(27).normal(size=(3, 4)),
            1e300 * np.random.default_rng(28).normal(size=(4, 3)),
        ],
        ids=[
            "zero-1x1",
            "minus-identity",
            "repeated-gain",
            "rank-one",
            "signed-permutation",
            "zero-and-repeated-singular-values",
            "tiny",
            "huge",
        ],
    )
    def test_edge_weights_read_back(self, w):
        # Exact zeros, repeated and vanishing singular values and extreme
        # scales still read back to W, relative to the gain.
        r = realize_weight(w)
        assert 0.0 < r.scale < np.inf
        assert all(0.0 <= a <= 1.0 + 1e-12 for a in r.sigma)
        assert np.abs(read_back(r) - w).max() <= 1e-12 * r.scale
        assert unitarity_residual(r.mesh_v) < 1e-10
        assert unitarity_residual(r.mesh_u) < 1e-10

    def test_attenuations_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="attenuations"):
            _check_gain(np.array([1.2, 0.5]), 1.0)
        _check_gain(np.array([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("sigma", [[np.nan, 0.5], [0.5, -0.1]], ids=["nan", "negative"])
    def test_attenuations_that_are_nan_or_negative_rejected(self, sigma):
        with pytest.raises(ValueError, match="attenuations"):
            _check_gain(np.array(sigma), 1.0)

    def test_overflowing_gain_is_non_finite_on_both_entry_points(self):
        # The largest singular value of this finite block overflows to inf.
        w = np.full((2, 2), 1e308)
        net = Network((Layer(w[None], Activation.RELU),))
        for realize in (realize_weight, lambda _: realize_network(net)):
            with pytest.raises(NonFiniteError, match="singular values"):
                realize(w)

    def test_attenuation_check_runs_on_the_backend_path(self):
        # The SVD sorts its singular values, so only a faulty one can give an
        # attenuation above 1; realize_network must still refuse it.
        svd = np.linalg.svd

        def unsorted_svd(w, full_matrices):
            u, s, vh = svd(w, full_matrices=full_matrices)
            return u[:, ::-1], s[::-1], vh[::-1]

        net = Network((Layer(np.diag([2.0, 1.0])[None], Activation.IDENTITY),))
        with mock.patch.object(np.linalg, "svd", unsorted_svd):
            with pytest.raises(ValueError, match="attenuations must lie in"):
                realize_network(net)

    def test_overflowing_gain_in_training_is_divergence(self):
        # The trainer reports a non-finite realization as a diverged run,
        # which the command line turns into exit code 3.
        net = Network((Layer(np.full((1, 1, 2), 1.5e308), Activation.IDENTITY),))
        proj = sample_projection(2, 1, seed=3)
        with pytest.raises(NonFiniteError, match="diverged .* at iteration 1") as exc:
            train(net, xor_dataset(), proj, TrainConfig(), realize=realize_network)
        assert "singular values" in str(exc.value.__cause__)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -2.0, 0.0], ids=repr)
    def test_gain_that_is_not_finite_and_positive_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            _check_gain(np.ones(2), scale)


class TestApplyPhaseNoise:
    def test_zero_sigma_is_bit_identical(self):
        mesh = random_mesh(4, seed=14)
        noisy = apply_phase_noise(mesh, 0.0, seed=0)
        assert (noisy.n, noisy.modes) == (mesh.n, mesh.modes)
        assert phase_bits(noisy) == phase_bits(mesh)

    def test_noise_preserves_unitarity(self):
        mesh = random_mesh(5, seed=15)
        noisy = apply_phase_noise(mesh, 0.5, seed=1)
        assert type(noisy) is Mesh
        assert unitarity_residual(noisy) < 1e-12
        assert np.abs(np.subtract(noisy.thetas, mesh.thetas)).max() > 0.0
        for phases in (noisy.thetas, noisy.phis, noisy.out_phases):
            assert all(0.0 <= x < 2 * np.pi for x in phases)

    def test_seeded_determinism(self):
        mesh = random_mesh(3, seed=16)
        a = apply_phase_noise(mesh, 0.1, seed=7)
        b = apply_phase_noise(mesh, 0.1, seed=7)
        c = apply_phase_noise(mesh, 0.1, seed=8)
        assert phase_bits(a) == phase_bits(b)
        assert a.thetas != c.thetas

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_phase_noise(random_mesh(2, seed=17), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.inf, -np.inf, np.nan], ids=repr)
    def test_non_finite_sigma_rejected(self, sigma):
        # rng.normal(0, inf) draws inf, which wrapping would turn into NaN phases.
        with pytest.raises(ValueError, match="sigma_phase must be finite and >= 0"):
            apply_phase_noise(random_mesh(2, seed=17), sigma, seed=0)

    def test_overflowing_noise_rejected(self):
        # A finite sigma this large overflows some draws to +-inf; this seed
        # overflows an output phase, which would have wrapped to NaN.
        mesh = realize_weight(np.random.default_rng(1).normal(size=(4, 4))).mesh_v
        with pytest.raises(NonFiniteError, match="noisy out_phases contains non-finite"):
            apply_phase_noise(mesh, 1e308, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("field", ["thetas", "phis", "out_phases"])
    def test_non_finite_phases_rejected(self, field, value):
        # Even with no noise, a hand-built mesh's NaN or inf phase is refused,
        # not wrapped to NaN.
        mesh = random_mesh(3, seed=18)
        bad = mesh._replace(**{field: getattr(mesh, field)[:-1] + [value]})
        with pytest.raises(NonFiniteError, match=f"noisy {field} contains non-finite"):
            apply_phase_noise(bad, 0.0, seed=0)

    @pytest.mark.parametrize(
        "mesh, match",
        [
            pytest.param(
                Mesh(3, [-1], [1.0], [0.5], [0.0] * 3),
                r"mesh\.modes must be integers in \[0, 1\], got -1",
                id="negative_mode",
            ),
            pytest.param(
                Mesh(2, [0], [1.0], [], [0.0, 0.0]),
                r"mesh\.modes, \.thetas and \.phis must have equal lengths, got 1, 1 and 0",
                id="theta_without_phi",
            ),
            pytest.param(
                Mesh(2, [5], [1.0], [0.5], [0.0, 0.0]),
                r"mesh\.modes must be integers in \[0, 0\], got 5",
                id="mode_past_the_last_pair",
            ),
            pytest.param(
                Mesh(3, [], [], [], [0.0, 0.0]),
                r"mesh\.out_phases must hold n = 3 phases, got 2",
                id="short_output_screen",
            ),
        ],
    )
    def test_malformed_mesh_rejected(self, mesh, match):
        # Each of these used to come back as a mesh that read_back refuses.
        with pytest.raises(ValueError, match=match):
            apply_phase_noise(mesh, 0.1, seed=0)

    @pytest.mark.parametrize("seed", [None, 1.5, -1, True, "1"], ids=repr)
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        # None drew fresh noise on every call; 1.5 failed inside numpy.
        match = re.escape(f"seed must be an integer >= 0, got {seed!r}")
        with pytest.raises(ValueError, match=match):
            apply_phase_noise(random_mesh(2, seed=17), 0.1, seed=seed)

    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 3.0, 1e6], ids=repr)
    def test_noisy_realization_stays_unitary_and_in_range(self, sigma):
        # At any finite noise level the meshes keep their MZIs, stay unitary
        # and keep every phase in [0, 2pi).
        r = realize_weight(np.random.default_rng(19).normal(size=(5, 7)))
        for i, mesh in enumerate((r.mesh_v, r.mesh_u)):
            noisy = apply_phase_noise(mesh, sigma, seed=i)
            assert (noisy.n, noisy.modes) == (mesh.n, mesh.modes)
            assert unitarity_residual(noisy) < 1e-10
            for phases, clean in zip(
                (noisy.thetas, noisy.phis, noisy.out_phases),
                (mesh.thetas, mesh.phis, mesh.out_phases),
            ):
                assert len(phases) == len(clean)
                assert all(0.0 <= x < 2 * np.pi for x in phases)


class TestRealizeNetwork:
    """The photonic backend: forward passes through ``realize_network(net)``."""

    def make_net(self, seed=0):
        return build_network(
            (LayerSpec(3, 5, Activation.RELU), LayerSpec(5, 2, Activation.IDENTITY)),
            seed=seed,
        )

    def test_forward_matches_dense_network(self):
        net = self.make_net(seed=18)
        realized = realize_network(net)
        assert [l.activation for l in realized.layers] == [l.activation for l in net.layers]
        rng = np.random.default_rng(18)
        x = rng.random(3)
        dense = forward(net, x)
        mesh = forward(realized, x)
        for a, b in zip(dense.zs + dense.xs, mesh.zs + mesh.xs):
            np.testing.assert_allclose(b, a, atol=1e-10)

    def test_batched_forward_matches_dense(self):
        net = self.make_net(seed=19)
        xb = np.random.default_rng(19).random((3, 7))
        np.testing.assert_allclose(
            forward(realize_network(net), xb).output, forward(net, xb).output, atol=1e-10
        )

    def test_realization_tracks_weight_updates(self):
        net = self.make_net(seed=20)
        x = np.random.default_rng(20).random(3)
        rng = np.random.default_rng(21)
        updates = tuple(rng.normal(size=l.blocks.shape) for l in net.layers)
        new_net = apply_updates(net, updates, 0.1)
        np.testing.assert_allclose(
            forward(realize_network(new_net), x).output, forward(new_net, x).output, atol=1e-10
        )

    def test_block_layer_realizes_block_by_block(self):
        rng = np.random.default_rng(26)
        blocks = Layer(rng.normal(size=(3, 2, 4)), Activation.RELU)
        net = Network((blocks, Layer(rng.normal(size=(1, 6)), Activation.IDENTITY)))
        realized = realize_network(net)
        stage1 = realized.layers[0]
        assert stage1.blocks.shape == (3, 2, 4) and stage1.activation is Activation.RELU
        for got, block in zip(stage1.blocks, blocks.blocks):
            np.testing.assert_array_equal(got, read_back(realize_weight(block)).real)
        dense = read_back(realize_weight(blocks.weight)).real
        np.testing.assert_allclose(stage1.weight, dense, rtol=0, atol=1e-12)
        assert realized.layers[1].blocks.shape == (1, 1, 6)

    def test_wrong_input_length_rejected(self):
        realized = realize_network(self.make_net(seed=22))
        with pytest.raises(ValueError, match="input length"):
            forward(realized, np.zeros(4))

    def test_training_through_mesh_matches_dense_training(self):
        data = xor_dataset()
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=1, seed=3)
        proj = sample_projection(2, 1, seed=3)

        def fresh_net():
            return build_network(
                (LayerSpec(2, 4, Activation.SQUARE), LayerSpec(4, 1, Activation.SQUARE)),
                seed=9,
            )

        dense_net, dense_hist = train(fresh_net(), data, proj, cfg)
        mesh_net, mesh_hist = train(fresh_net(), data, proj, cfg, realize=realize_network)
        for a, b in zip(dense_net.layers, mesh_net.layers):
            np.testing.assert_allclose(b.weight, a.weight, atol=1e-8)
        for ra, rb in zip(dense_hist, mesh_hist):
            assert rb.mse == pytest.approx(ra.mse, abs=1e-8)

    def test_two_pass_update_through_mesh_matches_dense(self):
        net = self.make_net(seed=23)
        realized = realize_network(net)
        rng = np.random.default_rng(23)
        x0 = rng.random(3)
        target = rng.random(2)
        proj = sample_projection(3, 2, seed=23)

        clean_d = forward(net, x0)
        gamma_d = output_error(clean_d.output, target)
        mod_d = forward(net, modulate_input(x0, proj, gamma_d))
        dense_updates = two_pass_updates(net, clean_d, mod_d, gamma_d)

        clean_m = forward(realized, x0)
        gamma_m = output_error(clean_m.output, target)
        mod_m = forward(realized, modulate_input(x0, proj, gamma_m))
        mesh_updates = two_pass_updates(net, clean_m, mod_m, gamma_m)

        for a, b in zip(dense_updates, mesh_updates):
            np.testing.assert_allclose(b, a, atol=1e-9)
