import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopass import (
    Activation,
    Layer,
    LayerSpec,
    Network,
    activation_apply,
    activation_derivative,
    build_network,
    forward,
    init_weights,
    softmax_backward,
)

from conftest import block_diag, mean_outer


class TestActivationApply:
    def test_relu_definition(self):
        np.testing.assert_array_equal(
            activation_apply(Activation.RELU, np.array([-1.0, 0.0, 2.0])),
            np.array([0.0, 0.0, 2.0]),
        )

    def test_square_definition(self):
        np.testing.assert_array_equal(
            activation_apply(Activation.SQUARE, np.array([2.0, -3.0])),
            np.array([4.0, 9.0]),
        )

    def test_softmax_of_constant_vector_is_uniform(self):
        for c in (-5.0, 0.0, 3.2, 1e3):
            out = activation_apply(Activation.SOFTMAX, np.full(4, c))
            np.testing.assert_allclose(out, np.full(4, 0.25), rtol=1e-12)

    def test_identity_returns_input(self):
        z = np.array([1.5, -2.0, 0.0])
        np.testing.assert_array_equal(activation_apply(Activation.IDENTITY, z), z)

    def test_sigmoid_matches_closed_form(self):
        z = np.linspace(-8.0, 8.0, 33)
        np.testing.assert_allclose(
            activation_apply(Activation.SIGMOID, z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-12
        )

    def test_softmax_columns_sum_to_one_and_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(0.0, 50.0, (7, 5))
            out = activation_apply(Activation.SOFTMAX, z)
            np.testing.assert_allclose(out.sum(axis=0), np.ones(5), rtol=1e-12)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_output_shape_matches_input_shape(self):
        z = np.zeros((3, 4))
        for kind in Activation:
            assert activation_apply(kind, z).shape == (3, 4)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            activation_apply(Activation.RELU, np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            activation_apply(Activation.SQUARE, np.array([np.inf]))


class TestActivationDerivative:
    def test_elementwise_derivatives(self):
        z = np.array([-2.0, 0.0, 3.0])
        x_relu = activation_apply(Activation.RELU, z)
        np.testing.assert_array_equal(
            activation_derivative(Activation.RELU, z, x_relu), np.array([0.0, 0.0, 1.0])
        )
        x_sq = activation_apply(Activation.SQUARE, z)
        np.testing.assert_array_equal(
            activation_derivative(Activation.SQUARE, z, x_sq), 2.0 * z
        )
        x_sig = activation_apply(Activation.SIGMOID, z)
        np.testing.assert_allclose(
            activation_derivative(Activation.SIGMOID, z, x_sig),
            x_sig * (1.0 - x_sig),
            rtol=1e-12,
        )

    def test_softmax_has_no_elementwise_derivative(self):
        z = np.array([0.1, 0.2])
        x = activation_apply(Activation.SOFTMAX, z)
        with pytest.raises(ValueError):
            activation_derivative(Activation.SOFTMAX, z, x)

    def test_softmax_backward_is_jacobian_product(self):
        # J[i,j] = s_i (delta_ij - s_j); compare the vectorized form against it.
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = activation_apply(Activation.SOFTMAX, rng.normal(size=6))
            g = rng.normal(size=6)
            jac = np.diag(s) - np.outer(s, s)
            np.testing.assert_allclose(softmax_backward(s, g), jac @ g, rtol=1e-10, atol=1e-14)


class TestForward:
    def test_identity_network_returns_input(self):
        net = Network((Layer(np.eye(2), Activation.IDENTITY),))
        x0 = np.array([0.3, 0.7])
        np.testing.assert_array_equal(forward(net, x0).output, x0)

    def test_zero_weights_relu_gives_zero_vector(self):
        net = Network((Layer(np.zeros((3, 2)), Activation.RELU),))
        np.testing.assert_array_equal(forward(net, np.array([1.0, -1.0])).output, np.zeros(3))

    def test_seeded_2_2_2_trace_matches_straight_line_oracle(self):
        # Frozen from an independent straight-line computation: Glorot-uniform
        # weights from SeedSequence(42) children, relu then identity, x0=[1,0].
        net = build_network(
            (LayerSpec(2, 2, Activation.RELU), LayerSpec(2, 2, Activation.IDENTITY)), seed=42
        )
        trace = forward(net, np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            trace.zs[0],
            np.array([1.13568018917086277, -0.00779612306890898]),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            trace.xs[0], np.array([1.1356801891708628, 0.0]), rtol=1e-13
        )
        np.testing.assert_allclose(
            trace.zs[1],
            np.array([1.0401159684434902, -0.6733765750908115]),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            trace.xs[1],
            np.array([1.0401159684434902, -0.6733765750908115]),
            rtol=1e-13,
        )

    def test_dimension_mismatch_rejected(self):
        net = Network((Layer(np.eye(2), Activation.IDENTITY),))
        with pytest.raises(ValueError):
            forward(net, np.array([1.0, 2.0, 3.0]))

    def test_forward_is_pure_and_repeatable(self):
        net = build_network(
            (LayerSpec(3, 4, Activation.SIGMOID), LayerSpec(4, 2, Activation.IDENTITY)), seed=9
        )
        x0 = np.array([0.1, 0.5, 0.9])
        t1, t2 = forward(net, x0), forward(net, x0)
        for a, b in zip(t1.zs + t1.xs, t2.zs + t2.xs):
            np.testing.assert_array_equal(a, b)

    def test_identity_activations_equal_weight_matrix_product(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            dims = rng.integers(1, 7, size=4)
            specs = tuple(
                LayerSpec(int(dims[i]), int(dims[i + 1]), Activation.IDENTITY)
                for i in range(3)
            )
            net = build_network(specs, seed=seed)
            x0 = rng.normal(size=int(dims[0]))
            want = x0
            for layer in net.layers:
                want = layer.weight @ want
            np.testing.assert_allclose(forward(net, x0).output, want, rtol=1e-12, atol=1e-15)

    def test_batched_forward_matches_per_sample(self):
        net = build_network(
            (LayerSpec(3, 5, Activation.RELU), LayerSpec(5, 2, Activation.SOFTMAX)), seed=4
        )
        rng = np.random.default_rng(4)
        xb = rng.random((3, 6))
        batch = forward(net, xb)
        for j in range(6):
            single = forward(net, xb[:, j])
            np.testing.assert_allclose(batch.output[:, j], single.output, rtol=1e-12)

    def test_trace_exposes_input_as_activation_zero(self):
        net = Network((Layer(np.eye(2), Activation.IDENTITY),))
        x0 = np.array([0.2, 0.4])
        trace = forward(net, x0)
        np.testing.assert_array_equal(trace.activation(0), x0)
        np.testing.assert_array_equal(trace.activation(1), trace.xs[0])


class TestInitWeights:
    def test_same_spec_and_seed_bit_identical(self):
        spec = LayerSpec(5, 7, Activation.RELU)
        np.testing.assert_array_equal(init_weights(spec, 13), init_weights(spec, 13))

    def test_range_bound_28_by_28(self):
        w = init_weights(LayerSpec(28, 28, Activation.RELU), 3)
        bound = np.sqrt(6.0 / 56.0)
        assert w.shape == (28, 28)
        assert np.abs(w).max() <= bound

    def test_empirical_mean_within_three_standard_errors(self):
        w = init_weights(LayerSpec(100, 100, Activation.RELU), 17)
        entries = w.ravel()
        stderr = entries.std() / np.sqrt(entries.size)
        assert abs(entries.mean()) < 3.0 * stderr


class TestNetworkTypes:
    def test_layer_spec_requires_positive_dims(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 3, Activation.RELU)
        with pytest.raises(ValueError):
            LayerSpec(3, 0, Activation.RELU)

    def test_layer_requires_2d_finite_weight(self):
        with pytest.raises(ValueError):
            Layer(np.zeros(3), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Layer(np.array([[np.nan]]), Activation.IDENTITY)

    def test_block_layer_shape_and_zero_enforcement(self):
        with pytest.raises(ValueError, match="3-D"):
            Layer(np.ones((2, 1, 1, 1)), Activation.IDENTITY)
        with pytest.raises(ValueError, match="non-finite"):
            Layer(np.full((2, 1, 1), np.inf), Activation.IDENTITY)
        blocks = np.arange(1.0, 13.0).reshape(3, 2, 2)
        layer = Layer(blocks, Activation.RELU)
        assert (layer.in_dim, layer.out_dim) == (6, 6)
        dense = layer.weight
        assert dense.shape == (6, 6)
        for j in range(3):
            np.testing.assert_array_equal(dense[2 * j : 2 * j + 2, 2 * j : 2 * j + 2], blocks[j])
        # every entry off the blocks is zero: the dense view holds only the blocks
        assert np.count_nonzero(dense) == blocks.size

    def test_dense_weight_is_one_block(self):
        w = np.arange(6.0).reshape(2, 3)
        layer = Layer(w, Activation.RELU)
        assert layer.blocks.shape == (1, 2, 3)
        assert (layer.in_dim, layer.out_dim) == (3, 2)
        np.testing.assert_array_equal(layer.blocks[0], w)
        np.testing.assert_array_equal(layer.weight, w)

    def test_network_rejects_incompatible_chain(self):
        l1 = Layer(np.zeros((3, 2)), Activation.RELU)
        l2 = Layer(np.zeros((2, 4)), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Network((l1, l2))

    def test_network_dims_and_depth(self):
        net = build_network(
            (LayerSpec(4, 3, Activation.RELU), LayerSpec(3, 2, Activation.SOFTMAX)), seed=0
        )
        assert (net.in_dim, net.out_dim, net.depth) == (4, 2, 2)

    def test_json_round_trip_preserves_weights_exactly(self):
        net = build_network(
            (LayerSpec(3, 4, Activation.RELU), LayerSpec(4, 2, Activation.SOFTMAX)), seed=21
        )
        restored = Network.from_json(net.to_json())
        assert restored.depth == net.depth
        for a, b in zip(net.layers, restored.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            assert a.activation is b.activation

    def test_json_document_holds_shapes_activations_row_major_weights(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        net = Network((Layer(w, Activation.RELU),))
        doc = json.loads(net.to_json())
        (entry,) = doc["layers"]
        assert entry["in_dim"] == 2 and entry["out_dim"] == 3
        assert entry["activation"] == "relu"
        assert entry["blocks"] == 1
        assert entry["weights"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        # a block layer stores its block count and only its blocks, row-major
        blocks = np.arange(1.0, 13.0).reshape(3, 2, 2)
        (entry,) = json.loads(Network((Layer(blocks, Activation.RELU),)).to_json())["layers"]
        assert (entry["in_dim"], entry["out_dim"], entry["blocks"]) == (6, 6, 3)
        assert entry["weights"] == blocks.ravel().tolist()

    @pytest.mark.parametrize(
        "blocks, weights, match",
        [
            (0, 12, "integer >= 1 dividing 6x6, got 0"),
            (-1, 12, "got -1"),
            (2.5, 12, "got 2.5"),
            (3.0, 12, "got 3.0"),
            (True, 12, "got True"),
            (4, 12, "dividing 6x6, got 4"),
            (2, 12, "2 blocks of 3x3 need 18 weights, got 12"),
            (3, 11, "3 blocks of 2x2 need 12 weights, got 11"),
        ],
    )
    def test_json_rejects_bad_block_counts_and_weight_counts(self, blocks, weights, match):
        net = Network((Layer(np.ones((3, 2, 2)), Activation.RELU),))
        doc = json.loads(net.to_json())
        doc["layers"][0]["blocks"] = blocks
        doc["layers"][0]["weights"] = doc["layers"][0]["weights"][:weights]
        with pytest.raises(ValueError, match=match):
            Network.from_json(json.dumps(doc))


@st.composite
def blocks_and_inputs(draw):
    """A (k, o, i) block stack, an input and an output-side vector or batch."""
    k, o, i = (draw(st.integers(1, 5)) for _ in range(3))
    width = draw(st.one_of(st.none(), st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = () if width is None else (width,)
    return rng.normal(size=(k, o, i)), rng.normal(size=(k * i,) + batch), rng.normal(
        size=(k * o,) + batch
    )


class TestLayerProductProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(blocks_and_inputs())
    def test_products_equal_numpy_on_the_block_diagonal(self, case):
        # One block is a dense layer: its products must be numpy's, bit for bit.
        blocks, x, d = case
        layer = Layer(blocks, Activation.IDENTITY)
        w = block_diag(blocks)
        on_block = block_diag(np.ones_like(blocks)) == 1.0
        got = (layer.matvec(x), layer.rmatvec(d), block_diag(layer.avg_outer(d, x)))
        want = (w @ x, w.T @ d, np.where(on_block, mean_outer(d, x), 0.0))
        for g, ref in zip(got, want):
            assert g.shape == ref.shape
            if blocks.shape[0] == 1:
                assert g.tobytes() == ref.tobytes()
            else:
                np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)


@st.composite
def block_networks(draw):
    """A network of a random (k, o, i) block layer and a dense layer after it."""
    k, o, i, out = (draw(st.integers(1, 5)) for _ in range(4))
    acts = st.sampled_from(list(Activation))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Network(
        (
            Layer(rng.normal(size=(k, o, i)), draw(acts)),
            Layer(rng.normal(size=(out, k * o)), draw(acts)),
        )
    )


class TestJsonRoundTripProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(block_networks())
    def test_round_trip_keeps_block_shapes_bits_and_activations(self, net):
        back = Network.from_json(net.to_json())
        for a, b in zip(net.layers, back.layers, strict=True):
            assert a.blocks.shape == b.blocks.shape
            assert a.blocks.tobytes() == b.blocks.tobytes()
            assert a.activation is b.activation


class TestBuildNetwork:
    def test_deterministic_per_seed(self):
        specs = (LayerSpec(3, 4, Activation.RELU), LayerSpec(4, 2, Activation.IDENTITY))
        a, b = build_network(specs, seed=5), build_network(specs, seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_distinct_layers_get_distinct_weights(self):
        specs = (LayerSpec(4, 4, Activation.RELU), LayerSpec(4, 4, Activation.RELU))
        net = build_network(specs, seed=5)
        assert not np.array_equal(net.layers[0].weight, net.layers[1].weight)

    def test_rejects_incompatible_spec_chain(self):
        with pytest.raises(ValueError):
            build_network(
                (LayerSpec(3, 4, Activation.RELU), LayerSpec(5, 2, Activation.RELU)), seed=0
            )
