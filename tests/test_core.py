import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopass import (
    Activation,
    Layer,
    LayerSpec,
    Network,
    NonFiniteError,
    TrainConfig,
    activation_apply,
    activation_backward,
    build_network,
    forward,
    init_weights,
    sample_projection,
    train,
    xor_dataset,
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
        z = np.array([[1.5, -2.0], [0.0, -0.0]])
        kept = z.copy()
        got = activation_apply(Activation.IDENTITY, z)
        # The input's bits, -0.0 included, in a new array; z is not changed.
        assert not np.shares_memory(got, z)
        assert got.tobytes() == kept.tobytes() and z.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("with_out", [False, True])
    def test_sigmoid_is_the_piecewise_formula_bit_for_bit(self, with_out):
        # 1/(1+e) at z >= 0 (so at -0.0 too) and e/(1+e) below, e = exp(-|z|).
        # From z = 40 on the first rounds to 1.0; exp(-745.5) underflows to 0.
        z = np.array(
            [[0.0, -0.0, 1e-300, -1e-300], [0.3, -0.3, 7.5, -7.5], [40.5, -40.5, 745.5, -745.5]]
        )
        e = np.exp(-np.abs(z))
        want = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        out = np.empty_like(z) if with_out else None
        got = activation_apply(Activation.SIGMOID, z, out=out)
        assert got.tobytes() == want.tobytes()
        assert out is None or got is out

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
    """activation_backward: dL/dz of a layer from z, x = f(z) and grad = dL/dx."""

    def test_elementwise_derivatives(self):
        # f'(z) * grad in closed form; ReLU's subgradient at z = 0 is 0.
        z = np.array([[-2.0, 0.0, 3.0], [0.5, -0.0, -7.0]])
        grad = np.random.default_rng(4).normal(size=z.shape)
        derivatives = {
            Activation.IDENTITY: np.ones_like(z),
            Activation.RELU: np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            Activation.SQUARE: 2.0 * z,
            Activation.SIGMOID: np.exp(-z) / (1.0 + np.exp(-z)) ** 2,
        }
        for kind, deriv in derivatives.items():
            x = activation_apply(kind, z)
            for into in ("new", "buffer", "z"):
                zin = z.copy()
                out = {"new": None, "buffer": np.empty_like(z), "z": zin}[into]
                got = activation_backward(kind, zin, x, grad, out=out)
                if out is None:
                    assert zin.tobytes() == z.tobytes()
                else:
                    assert got is out
                if kind is Activation.SIGMOID:
                    np.testing.assert_allclose(got, deriv * grad, rtol=1e-12)
                else:
                    np.testing.assert_array_equal(got, deriv * grad)

    def test_softmax_backward_is_jacobian_product(self):
        # J[i,j] = s_i (delta_ij - s_j); compare the vectorized form against
        # it, sample by sample and for the batch, the batch written over z.
        rng = np.random.default_rng(3)
        z, g = rng.normal(size=(6, 10)), rng.normal(size=(6, 10))
        s = activation_apply(Activation.SOFTMAX, z)
        want = np.empty_like(z)
        for b in range(10):
            want[:, b] = (np.diag(s[:, b]) - np.outer(s[:, b], s[:, b])) @ g[:, b]
            got = activation_backward(Activation.SOFTMAX, z[:, b], s[:, b], g[:, b])
            np.testing.assert_allclose(got, want[:, b], rtol=1e-10, atol=1e-14)
        got = activation_backward(Activation.SOFTMAX, z, s, g, out=z)
        assert got is z
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("kind", list(Activation), ids=lambda kind: kind.value)
    def test_name_and_member_give_the_same_bytes(self, kind):
        # Layer, LayerSpec and Activation itself take a kind by name, and so
        # do the activation functions.
        rng = np.random.default_rng(9)
        z, grad = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        x = activation_apply(kind, z)
        assert activation_apply(kind.value, z).tobytes() == x.tobytes()
        want = activation_backward(kind, z, x, grad)
        assert activation_backward(kind.value, z, x, grad).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["tanh", None], ids=repr)
    def test_unknown_kind_rejected(self, kind):
        z = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="unknown activation kind"):
            activation_backward(kind, z, z, z)
        with pytest.raises(ValueError, match="unknown activation kind"):
            activation_apply(kind, z)


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

    def test_allocating_call_builds_only_the_layer_buffers(self):
        # The returned trace's x0 is the input itself, so a buffer of the
        # input's shape (1.6 MB for a 784x256 batch) would never be written.
        net = build_network(
            (LayerSpec(784, 24, Activation.RELU), LayerSpec(24, 10, Activation.SOFTMAX)), seed=3
        )
        xb = np.random.default_rng(3).random((784, 256))
        tracemalloc.start()
        try:
            trace = forward(net, xb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.x0 is xb
        layers = sum(a.nbytes for a in trace.zs + trace.xs)
        # Beyond the layer buffers, only small temporaries (finiteness masks).
        assert peak < layers + xb.nbytes / 8, (peak, layers)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("kind", list(Activation))
    @pytest.mark.parametrize("width", [None, 5], ids=["sample", "batch"])
    @pytest.mark.parametrize(
        "blocks",
        [np.zeros((1, 3, 4)), np.ones((1, 3, 4)), np.zeros((3, 2, 2)), np.ones((3, 2, 2))],
        ids=["zeros", "dense", "zeros_3_blocks", "3_blocks"],
    )
    def test_non_finite_input_rejected(self, blocks, width, kind, value):
        # Whichever entry holds it, the value meets at least one weight.
        first = Layer(blocks, kind)
        net = Network((first, Layer(np.ones((2, first.out_dim)), kind)))
        shape = (net.in_dim,) if width is None else (net.in_dim, width)
        for entry in range(math.prod(shape)):
            x0 = np.full(shape, 0.5)
            x0.flat[entry] = value
            with pytest.raises(NonFiniteError):
                forward(net, x0)


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

    @pytest.mark.parametrize("value", [2.5, True, 2.0, "2"], ids=repr)
    @pytest.mark.parametrize("field", ["in_dim", "out_dim"])
    def test_layer_spec_rejects_dims_that_are_not_integers(self, field, value):
        # Without the integer check, 2.5 and True were accepted silently.
        dims = {"in_dim": 2, "out_dim": 2, field: value}
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= 1, got {value!r}"):
            LayerSpec(activation=Activation.RELU, **dims)

    @pytest.mark.parametrize("value", [0, -1], ids=repr)
    @pytest.mark.parametrize("field", ["in_dim", "out_dim"])
    def test_layer_spec_error_names_the_non_positive_dim(self, field, value):
        dims = {"in_dim": 2, "out_dim": 2, field: value}
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= 1, got {value}"):
            LayerSpec(activation=Activation.RELU, **dims)

    @pytest.mark.parametrize("name", [kind.value for kind in Activation])
    @pytest.mark.parametrize(
        "make",
        [
            lambda act: Layer(np.full((1, 2), 0.5), act),
            lambda act: build_network([LayerSpec(2, 1, act)], seed=0).layers[0],
        ],
        ids=["Layer", "LayerSpec"],
    )
    def test_activation_given_by_name(self, make, name):
        # A name becomes its Activation at construction, so a valid one trains
        # and an invalid one is refused there, not by the first forward pass.
        layer = make(name)
        assert layer.activation is Activation(name)
        _, records = train(
            Network((layer,)), xor_dataset(), sample_projection(2, 1, 0), TrainConfig(epochs=2)
        )
        assert len(records) == 2 and all(np.isfinite(r.mse) for r in records)
        with pytest.raises(ValueError, match="'nope' is not a valid Activation"):
            make("nope")

    def test_layer_requires_2d_finite_weight(self):
        with pytest.raises(ValueError):
            Layer(np.zeros(3), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Layer(np.array([[np.nan]]), Activation.IDENTITY)

    @pytest.mark.parametrize("shape", [(), (3,), (1, 1, 2, 2)], ids=str)
    def test_layer_weight_of_other_rank_rejected(self, shape):
        with pytest.raises(ValueError, match=r"2-D or 3-D \(k, o, i\), got shape"):
            Layer(np.ones(shape), Activation.IDENTITY)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 2, 3), (2, 0, 3), (2, 2, 0)], ids=str)
    def test_zero_width_blocks_rejected(self, shape):
        # As LayerSpec refuses a width of 0, so does a layer given its blocks.
        stored = shape if len(shape) == 3 else (1, *shape)
        with pytest.raises(ValueError, match=re.escape(f"k, o, i >= 1, got shape {stored}")):
            Layer(np.zeros(shape), Activation.RELU)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3)], ids=str)
    def test_each_non_finite_block_entry_rejected(self, shape, value):
        blocks = np.ones(shape)
        blocks[(-1,) * len(shape)] = value
        with pytest.raises(NonFiniteError, match="layer weight contains non-finite"):
            Layer(blocks, Activation.IDENTITY)

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
