import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twopass import (
    Activation,
    Layer,
    LayerSpec,
    MeshProgram,
    Network,
    PhotonicLayer,
    TrainConfig,
    apply_phase_noise,
    apply_updates,
    build_network,
    forward,
    mesh_forward,
    realize_network,
    realize_weight,
    sample_projection,
    train,
    transfer_matrix,
    two_pass_updates,
    unitarity_residual,
    xor_dataset,
)
from twopass.data import Dataset
from twopass.modulation import modulate_input, output_error
from twopass.photonic import _input_isometry, _null_rows


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return q


def random_program(n: int, seed: int) -> MeshProgram:
    return _input_isometry(random_unitary(n, seed))


def mzi_reference(theta: float, phi: float) -> np.ndarray:
    """The 2x2 MZI transfer written out from the photonic module's docstring."""
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    ephi = np.exp(1j * phi)
    return 1j * np.exp(0.5j * theta) * np.array([[ephi * s, c], [ephi * c, -s]])


def reference_transfer(prog: MeshProgram) -> np.ndarray:
    """Dense transfer of a mesh built from ``mzi_reference``, independent of the module.

    Each 2x2 is embedded at its mode pair and left-multiplied in list order,
    phase screen last.
    """
    t = np.eye(prog.n, dtype=complex)
    for m, theta, phi in zip(prog.modes, prog.thetas, prog.phis):
        e = np.eye(prog.n, dtype=complex)
        e[m : m + 2, m : m + 2] = mzi_reference(theta, phi)
        t = e @ t
    return np.diag(np.exp(1j * prog.out_phases)) @ t


def single_mzi(theta: float, phi: float) -> np.ndarray:
    """Transfer matrix of a 2-mode mesh holding one MZI and no output phase."""
    prog = MeshProgram(
        n=2,
        modes=np.array([0]),
        thetas=np.array([theta]),
        phis=np.array([phi]),
        out_phases=np.zeros(2),
    )
    return transfer_matrix(prog)


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


class TestMeshProgram:
    def test_mzi_array_lengths_must_match(self):
        for modes, thetas, phis in (
            ([0, 1], [0.0], [0.0, 0.0]),
            ([0], [0.0, 1.0], [0.0]),
            ([0, 1], [0.0, 1.0], [0.0]),
            ([], [0.0], []),
        ):
            with pytest.raises(ValueError, match="equal length"):
                MeshProgram(
                    n=3,
                    modes=np.array(modes, dtype=int),
                    thetas=np.array(thetas),
                    phis=np.array(phis),
                    out_phases=np.zeros(3),
                )

    def test_empty_and_partial_meshes_are_valid(self):
        # A mesh need not hold all n(n-1)/2 MZIs of a full unitary mesh.
        empty = MeshProgram(
            n=3, modes=np.array([], dtype=int), thetas=[], phis=[], out_phases=[0.5, 0.0, 1.0]
        )
        np.testing.assert_allclose(
            transfer_matrix(empty), np.diag(np.exp(1j * np.array([0.5, 0.0, 1.0]))), rtol=1e-15
        )
        partial = MeshProgram(
            n=4,
            modes=np.array([2, 0]),
            thetas=np.array([0.3, 1.1]),
            phis=np.array([2.0, 0.4]),
            out_phases=np.zeros(4),
        )
        assert len(partial.modes) == 2
        assert unitarity_residual(partial) < 1e-14
        back = MeshProgram.from_json(partial.to_json())
        np.testing.assert_array_equal(back.thetas, partial.thetas)

    def test_mode_range_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            MeshProgram(
                n=2,
                modes=np.array([1]),
                thetas=np.zeros(1),
                phis=np.zeros(1),
                out_phases=np.zeros(2),
            )

    def test_phase_screen_length_enforced(self):
        with pytest.raises(ValueError, match="phase screen"):
            MeshProgram(
                n=2,
                modes=np.array([0]),
                thetas=np.zeros(1),
                phis=np.zeros(1),
                out_phases=np.zeros(3),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["thetas", "phis", "out_phases"])
    def test_non_finite_phases_rejected(self, field, bad):
        args = dict(
            n=2, modes=np.array([0]), thetas=np.zeros(1), phis=np.zeros(1), out_phases=np.zeros(2)
        )
        args[field][0] = bad
        with pytest.raises(ValueError, match="finite"):
            MeshProgram(**args)

    def test_fractional_mode_index_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            MeshProgram(
                n=3,
                modes=np.array([0.0, 1.7]),
                thetas=np.zeros(2),
                phis=np.zeros(2),
                out_phases=np.zeros(3),
            )

    def test_from_json_rejects_fractional_mode_and_non_finite_phase(self):
        import json

        def doc(mzi):
            return json.dumps({"n": 3, "mzis": [mzi], "out_phases": [0.0, 0.0, 0.0]})

        with pytest.raises(ValueError, match="integers"):
            MeshProgram.from_json(doc({"i": 1.7, "theta": 0.0, "phi": 0.0}))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                MeshProgram.from_json(doc({"i": 1, "theta": bad, "phi": 0.0}))
        prog = MeshProgram.from_json(doc({"i": 1.0, "theta": 0.5, "phi": 0.0}))
        assert prog.modes.tolist() == [1]

    def test_phases_wrap_into_principal_range(self):
        prog = MeshProgram(
            n=2,
            modes=np.array([0]),
            thetas=np.array([-np.pi / 2.0]),
            phis=np.array([5.0 * np.pi]),
            out_phases=np.array([2.0 * np.pi, -0.25]),
        )
        np.testing.assert_allclose(prog.thetas, [1.5 * np.pi], rtol=1e-12)
        np.testing.assert_allclose(prog.phis, [np.pi], rtol=1e-12)
        np.testing.assert_allclose(prog.out_phases, [0.0, 2.0 * np.pi - 0.25], atol=1e-15)

    def test_tiny_negative_phases_wrap_to_zero(self):
        prog = MeshProgram(
            n=2,
            modes=np.array([0, 0]),
            thetas=np.array([-1e-17, -5e-324]),
            phis=np.array([-1e-300, 2.0 * np.pi]),
            out_phases=np.array([-1e-17, -4.0 * np.pi - 1e-16]),
        )
        for phases in (prog.thetas, prog.phis, prog.out_phases):
            np.testing.assert_array_equal(phases, np.zeros_like(phases))

    def test_realized_phases_lie_in_range_and_round_trip(self):
        # This weight's output mesh has a phase that np.mod alone maps to 2pi.
        layer = realize_weight(np.random.default_rng(3).normal(size=(4, 6)))
        for prog in (layer.mesh_v, layer.mesh_u):
            for phases in (prog.thetas, prog.phis, prog.out_phases):
                assert np.all((phases >= 0.0) & (phases < 2.0 * np.pi))
            back = MeshProgram.from_json(prog.to_json())
            for name in ("thetas", "phis", "out_phases"):
                assert getattr(back, name).tobytes() == getattr(prog, name).tobytes()
            np.testing.assert_array_equal(transfer_matrix(back), transfer_matrix(prog))

    def test_json_round_trip_is_exact(self):
        prog = random_program(5, seed=1)
        back = MeshProgram.from_json(prog.to_json())
        assert back.n == prog.n
        np.testing.assert_array_equal(back.modes, prog.modes)
        np.testing.assert_array_equal(back.thetas, prog.thetas)
        np.testing.assert_array_equal(back.phis, prog.phis)
        np.testing.assert_array_equal(back.out_phases, prog.out_phases)

    def test_json_schema_fields(self):
        import json

        doc = json.loads(random_program(3, seed=2).to_json())
        assert set(doc) == {"n", "mzis", "out_phases"}
        assert all(set(m) == {"i", "theta", "phi"} for m in doc["mzis"])


class TestMeshForward:
    def test_matches_chained_embedded_transfers(self):
        prog = random_program(4, seed=5)
        np.testing.assert_allclose(transfer_matrix(prog), reference_transfer(prog), atol=1e-13)

    def test_energy_is_conserved(self):
        rng = np.random.default_rng(6)
        prog = random_program(6, seed=6)
        for _ in range(5):
            x = rng.normal(size=6) + 1j * rng.normal(size=6)
            out = mesh_forward(prog, x)
            np.testing.assert_allclose(np.linalg.norm(out), np.linalg.norm(x), rtol=1e-12)

    def test_zero_field_stays_zero(self):
        prog = random_program(3, seed=7)
        np.testing.assert_array_equal(mesh_forward(prog, np.zeros(3)), np.zeros(3, dtype=complex))

    def test_batch_columns_match_single_fields(self):
        rng = np.random.default_rng(8)
        prog = random_program(5, seed=8)
        batch = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        out = mesh_forward(prog, batch)
        for j in range(4):
            np.testing.assert_allclose(out[:, j], mesh_forward(prog, batch[:, j]), rtol=1e-14)

    def test_wrong_field_length_rejected(self):
        prog = random_program(3, seed=9)
        with pytest.raises(ValueError, match="field length"):
            mesh_forward(prog, np.zeros(4))

    def test_field_must_be_1d_or_2d(self):
        prog = random_program(3, seed=9)
        for field in (np.array(1.0), np.zeros((3, 2, 2))):
            with pytest.raises(ValueError, match="1-D or 2-D"):
                mesh_forward(prog, field)

    def test_unitarity_residual_near_zero(self):
        assert unitarity_residual(random_program(7, seed=10)) < 1e-12


class TestInputIsometry:
    """Square unitaries programmed by triangular nulling: full meshes of n(n-1)/2 MZIs."""

    def test_identity_reconstructs(self):
        prog = _input_isometry(np.eye(4))
        np.testing.assert_allclose(transfer_matrix(prog), np.eye(4), atol=1e-12)

    def test_one_by_one_is_pure_phase(self):
        prog = _input_isometry(np.array([[np.exp(0.7j)]]))
        assert len(prog.modes) == 0
        np.testing.assert_allclose(prog.out_phases, [0.7], rtol=1e-12)
        np.testing.assert_allclose(transfer_matrix(prog), [[np.exp(0.7j)]], rtol=1e-12)

    def test_two_by_two_uses_single_mzi(self):
        u = random_unitary(2, seed=11)
        prog = _input_isometry(u)
        assert len(prog.modes) == 1
        np.testing.assert_allclose(transfer_matrix(prog), u, atol=1e-13)

    def test_seeded_unitaries_round_trip(self):
        for n in range(1, 13):
            u = random_unitary(n, seed=100 + n)
            prog = _input_isometry(u)
            assert len(prog.modes) == n * (n - 1) // 2
            np.testing.assert_allclose(transfer_matrix(prog), u, atol=1e-11)

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


class TestRealizationProperties:
    @PROPERTY_SETTINGS
    @given(st.one_of(low_rank_weights(), integer_weights))
    def test_realize_weight_reproduces_w_on_thin_meshes(self, w):
        m, n = w.shape
        k = min(m, n)
        layer = realize_weight(w)
        tol = 1e-12 * max(1.0, layer.scale)
        assert np.abs(layer.realized_matrix - w).max() <= tol
        assert unitarity_residual(layer.mesh_v) < 1e-10
        assert unitarity_residual(layer.mesh_u) < 1e-10
        expected = sum(n - 1 - r for r in range(k)) + sum(m - 1 - r for r in range(k))
        assert len(layer.mesh_v.modes) + len(layer.mesh_u.modes) == expected

    @PROPERTY_SETTINGS
    @given(st.one_of(low_rank_weights(), integer_weights), st.integers(0, 2**32 - 1))
    def test_realized_matrix_is_the_forward_of_the_identity(self, w, seed):
        # The read-back takes k rows of mesh_v and k columns of mesh_u; the
        # reference pushes every mode through both meshes' dense transfers,
        # scale * T_u [diag(sigma) 0] T_v.  It must agree for any program:
        # the nulled meshes, the same meshes under phase noise, and MZIs in
        # random order, which start the read-back vectors in any order.
        layer = realize_weight(w)
        k = layer.sigma.shape[0]
        attenuation = np.zeros((layer.out_dim, layer.in_dim))
        attenuation[range(k), range(k)] = layer.sigma
        rng = np.random.default_rng(seed)

        def scrambled(n):
            count = int(rng.integers(0, 3 * n)) if n > 1 else 0
            phases = rng.uniform(0.0, 2 * np.pi, size=2 * count + n)
            modes = rng.integers(0, max(n - 1, 1), size=count)
            return MeshProgram(n, modes, phases[:count], phases[count : 2 * count], phases[2 * count :])

        for mesh_v, mesh_u in (
            (layer.mesh_v, layer.mesh_u),
            (apply_phase_noise(layer.mesh_v, 0.3, seed), apply_phase_noise(layer.mesh_u, 0.3, seed + 1)),
            (scrambled(layer.in_dim), scrambled(layer.out_dim)),
        ):
            other = PhotonicLayer(mesh_v, layer.sigma, mesh_u, layer.scale)
            t_u, t_v = reference_transfer(mesh_u), reference_transfer(mesh_v)
            expected = other.scale * t_u @ attenuation @ t_v
            assert np.abs(other.realized_matrix - expected).max() <= 1e-13 * max(1.0, other.scale)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_unitary_round_trip(self, n, seed):
        u = random_unitary(n, seed)
        prog = _input_isometry(u)
        assert len(prog.modes) == n * (n - 1) // 2
        np.testing.assert_allclose(transfer_matrix(prog), u, rtol=0, atol=1e-12)


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
    ops, d_ref = reference_null_rows(a)
    modes, thetas, phis, d = _null_rows(a)
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


class TestRealizeWeight:
    def test_identity_weight(self):
        layer = realize_weight(np.eye(3))
        assert layer.scale == 1.0
        np.testing.assert_allclose(layer.sigma, np.ones(3), rtol=1e-12)
        np.testing.assert_allclose(layer.realized_matrix.real, np.eye(3), atol=1e-12)
        assert np.abs(layer.realized_matrix.imag).max() < 1e-12

    def test_diagonal_gain_pulled_out(self):
        layer = realize_weight(np.diag([2.0, 1.0]))
        assert layer.scale == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(np.sort(layer.sigma)[::-1], [1.0, 0.5], rtol=1e-12)

    def test_zero_matrix_realizes_with_unit_scale(self):
        layer = realize_weight(np.zeros((2, 3)))
        assert layer.scale == 1.0
        np.testing.assert_array_equal(layer.sigma, np.zeros(2))
        np.testing.assert_allclose(layer.realized_matrix, np.zeros((2, 3)), atol=1e-15)

    def test_random_matrices_realize_accurately(self):
        rng = np.random.default_rng(12)
        for shape in ((8, 8), (3, 5), (5, 3), (1, 4)):
            w = rng.normal(size=shape)
            layer = realize_weight(w)
            assert np.abs(layer.realized_matrix.real - w).max() < 1e-6
            assert np.abs(layer.realized_matrix.imag).max() < 1e-6
            assert float(layer.sigma.max()) <= 1.0 + 1e-12
            assert unitarity_residual(layer.mesh_u) < 1e-10
            assert unitarity_residual(layer.mesh_v) < 1e-10

    def test_meshes_hold_only_the_used_modes(self):
        # 16x2 and 1x16 are the XOR layers: 29 + 1 and 0 + 15 MZIs, against
        # 120 + 1 and 0 + 120 for full meshes.
        rng = np.random.default_rng(24)
        for shape, (n_v, n_u) in (((16, 2), (1, 29)), ((1, 16), (15, 0)), ((3, 3), (3, 3))):
            w = rng.normal(size=shape)
            layer = realize_weight(w)
            assert (len(layer.mesh_v.modes), len(layer.mesh_u.modes)) == (n_v, n_u)
            assert (layer.mesh_v.n, layer.mesh_u.n) == (shape[1], shape[0])
            np.testing.assert_allclose(layer.realized_matrix, w, rtol=0, atol=1e-13)

    def test_mnist_aggregator_shape(self):
        # The 10x784 output layer: 7,785 + 45 MZIs instead of two full
        # meshes of 306,936 + 45.
        w = np.random.default_rng(25).normal(scale=0.05, size=(10, 784))
        layer = realize_weight(w)
        assert len(layer.mesh_v.modes) + len(layer.mesh_u.modes) == 7830
        assert np.abs(layer.realized_matrix - w).max() < 1e-12 * max(1.0, layer.scale)
        assert unitarity_residual(layer.mesh_u) < 1e-10

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            realize_weight(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError, match="2-D"):
            realize_weight(np.zeros(3))

    def test_attenuations_outside_unit_interval_rejected(self):
        base = realize_weight(np.eye(2))
        with pytest.raises(ValueError, match="attenuations"):
            PhotonicLayer(
                mesh_v=base.mesh_v,
                sigma=np.array([1.2, 0.5]),
                mesh_u=base.mesh_u,
                scale=1.0,
            )
        with pytest.raises(ValueError, match="length"):
            PhotonicLayer(
                mesh_v=base.mesh_v,
                sigma=np.array([0.5]),
                mesh_u=base.mesh_u,
                scale=1.0,
            )


class TestApplyPhaseNoise:
    def test_zero_sigma_is_bit_identical(self):
        prog = random_program(4, seed=14)
        noisy = apply_phase_noise(prog, 0.0, seed=0)
        np.testing.assert_array_equal(noisy.thetas, prog.thetas)
        np.testing.assert_array_equal(noisy.phis, prog.phis)
        np.testing.assert_array_equal(noisy.out_phases, prog.out_phases)

    def test_noise_preserves_unitarity(self):
        prog = random_program(5, seed=15)
        noisy = apply_phase_noise(prog, 0.5, seed=1)
        assert unitarity_residual(noisy) < 1e-12
        assert np.abs(noisy.thetas - prog.thetas).max() > 0.0

    def test_seeded_determinism(self):
        prog = random_program(3, seed=16)
        a = apply_phase_noise(prog, 0.1, seed=7)
        b = apply_phase_noise(prog, 0.1, seed=7)
        c = apply_phase_noise(prog, 0.1, seed=8)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert np.any(a.thetas != c.thetas)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_phase_noise(random_program(2, seed=17), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            apply_phase_noise(random_program(2, seed=17), sigma, seed=0)


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
            np.testing.assert_array_equal(got, realize_weight(block).realized_matrix.real)
        dense = realize_weight(blocks.weight).realized_matrix.real
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
        for ra, rb in zip(dense_hist.records, mesh_hist.records):
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
