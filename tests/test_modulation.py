import numpy as np
import pytest

from twopass import modulate_input, output_error, sample_projection


def sigma(input_dim: int) -> float:
    """The design standard deviation of the projection entries, at the default scale."""
    return 0.05 * np.sqrt(6.0 / input_dim)


def unit_normals(seed: int, shape: tuple[int, int]) -> np.ndarray:
    """The standard normal draws the projection scales, for the same seed."""
    return np.random.default_rng(seed).standard_normal(shape)


class TestSampleProjection:
    def test_sigma_for_784_inputs(self):
        # 0.05*sqrt(6/784); squaring gives the 1.9132e-5 variance figure.
        assert sigma(784) == pytest.approx(0.004374088826398533, rel=1e-12)
        assert sigma(784) ** 2 == pytest.approx(1.9132e-5, rel=1e-3)
        proj = sample_projection(784, 10, seed=0)
        np.testing.assert_allclose(
            proj, 0.004374088826398533 * unit_normals(0, (784, 10)), rtol=1e-12
        )

    def test_sigma_is_exactly_scale_when_input_dim_is_six(self):
        proj = sample_projection(6, 2, seed=0)
        assert sigma(6) == 0.05
        np.testing.assert_array_equal(proj, 0.05 * unit_normals(0, (6, 2)))

    def test_shape_is_input_dim_by_output_dim(self):
        proj = sample_projection(784, 10, seed=1)
        assert proj.shape == (784, 10)

    def test_sample_std_within_two_percent_of_sigma(self):
        proj = sample_projection(784, 128, seed=123)  # 100352 entries
        entries = proj.ravel()
        assert entries.size >= 100_000
        assert abs(entries.std() / sigma(784) - 1.0) < 0.02

    def test_deterministic_per_seed(self):
        a = sample_projection(50, 5, seed=9)
        b = sample_projection(50, 5, seed=9)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample_projection(50, 5, seed=10))

    def test_scale_override_rescales_sigma(self):
        default = sample_projection(24, 3, seed=2)
        doubled = sample_projection(24, 3, seed=2, scale=0.1)
        np.testing.assert_allclose(doubled, 2.0 * default, rtol=1e-12)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            sample_projection(0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_projection(784, 0, seed=0)

    def test_projection_matrix_is_immutable(self):
        proj = sample_projection(4, 2, seed=0)
        with pytest.raises(ValueError):
            proj[0, 0] = 0.0


class TestOutputError:
    def test_perfect_output_gives_zero_vector(self):
        x = np.array([0.1, 0.9])
        np.testing.assert_array_equal(output_error(x, x.copy()), np.zeros(2))

    def test_arithmetic_example(self):
        gamma = output_error(np.array([0.2, 0.8]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(gamma, np.array([0.2, -0.2]), rtol=1e-15)

    def test_reported_mse_is_mean_of_squared_gamma(self):
        gamma = output_error(np.array([0.2, 0.8]), np.array([0.0, 1.0]))
        assert np.mean(gamma**2) == pytest.approx(0.04, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            output_error(np.array([1.0, 2.0]), np.array([1.0]))


class TestModulateInput:
    def test_zero_gamma_returns_input_unchanged(self):
        proj = sample_projection(8, 3, seed=0)
        x0 = np.random.default_rng(1).random(8)
        np.testing.assert_array_equal(modulate_input(x0, proj, np.zeros(3)), x0)

    def test_zero_projection_returns_input(self):
        proj = np.zeros((8, 3))
        x0 = np.random.default_rng(2).random(8)
        np.testing.assert_array_equal(modulate_input(x0, proj, np.ones(3)), x0)

    def test_unit_gamma_extracts_projection_column(self):
        # Frozen cross-check of the sampling recipe: first entries of column 3
        # for the seeded 784x10 projection.
        proj = sample_projection(784, 10, seed=7)
        np.testing.assert_allclose(
            proj[:3, 3],
            np.array([-0.00389552781078992, -0.00406994987767905, 0.00118653440092217]),
            rtol=1e-13,
        )
        x0 = np.random.default_rng(5).random(784)
        e3 = np.zeros(10)
        e3[3] = 1.0
        np.testing.assert_array_equal(modulate_input(x0, proj, e3), x0 + proj[:, 3])

    def test_affine_in_gamma(self):
        rng = np.random.default_rng(8)
        proj = sample_projection(12, 4, seed=3)
        for _ in range(10):
            x0 = rng.random(12)
            g1, g2 = rng.normal(size=4), rng.normal(size=4)
            a, b = rng.normal(), rng.normal()
            lhs = modulate_input(x0, proj, a * g1 + b * g2)
            rhs = x0 + a * (proj @ g1) + b * (proj @ g2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        proj = sample_projection(8, 3, seed=0)
        with pytest.raises(ValueError):
            modulate_input(np.zeros(7), proj, np.zeros(3))
        with pytest.raises(ValueError):
            modulate_input(np.zeros(8), proj, np.zeros(4))
        with pytest.raises(ValueError):
            modulate_input(np.zeros(8), proj.ravel(), np.zeros(3))

    def test_batched_modulation_matches_per_sample(self):
        proj = sample_projection(6, 2, seed=4)
        rng = np.random.default_rng(6)
        x0 = rng.random((6, 5))
        gamma = rng.normal(size=(2, 5))
        batch = modulate_input(x0, proj, gamma)
        for j in range(5):
            np.testing.assert_allclose(
                batch[:, j], modulate_input(x0[:, j], proj, gamma[:, j]), rtol=1e-12
            )

    def test_modulation_magnitude_is_small_for_unit_scale_inputs(self):
        # Report-style check: with 784-input statistics the perturbation is a
        # small fraction of a typical normalized image norm.
        proj = sample_projection(784, 10, seed=11)
        rng = np.random.default_rng(11)
        x0 = rng.random(784)
        gamma = rng.normal(0.0, 0.3, 10)
        ratio = np.linalg.norm(proj @ gamma) / np.linalg.norm(x0)
        assert ratio < 0.1
