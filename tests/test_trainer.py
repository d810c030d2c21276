import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopass import (
    Activation,
    Algorithm,
    Dataset,
    ForwardTrace,
    Layer,
    LayerSpec,
    Network,
    NonFiniteError,
    TrainConfig,
    apply_updates,
    backprop_updates,
    build_colsplit_net,
    build_network,
    colsplit_evaluate,
    colsplit_train,
    evaluate,
    forward,
    load_mnist,
    modulate_input,
    one_hot,
    output_error,
    sample_projection,
    train,
    two_pass_updates,
    xor_dataset,
)
from twopass import trainer

from conftest import block_diag, mean_outer, reference_updates, spy_on


def block_net(seed):
    """5 -> 12 sigmoid, a 3-block 12 -> 6 ReLU layer, 6 -> 2 softmax."""
    rng = np.random.default_rng(seed)
    return Network(
        (
            Layer(rng.normal(size=(12, 5)), Activation.SIGMOID),
            Layer(rng.normal(size=(3, 2, 4)), Activation.RELU),
            Layer(rng.normal(size=(2, 6)), Activation.SOFTMAX),
        )
    )


# Where the 3-block 12 -> 6 layer's dense weight may be nonzero.
ON_BLOCK = block_diag(np.ones((3, 2, 4))) == 1.0


def hand_net():
    # Depth 2, identity activations, dyadic-rational entries so every
    # intermediate value is exact in binary floating point.
    w1 = np.array([[0.5, -0.25], [1.0, 0.75]])
    w2 = np.array([[-0.5, 0.25], [0.125, 1.0]])
    return Network(
        (Layer(w1, Activation.IDENTITY), Layer(w2, Activation.IDENTITY))
    )


class TestModulatedForward:
    """The second pass is ``forward`` on the modulated input, weights unchanged."""

    def test_unmodulated_input_reproduces_clean_trace(self):
        net = build_network(
            (LayerSpec(3, 4, Activation.SIGMOID), LayerSpec(4, 2, Activation.IDENTITY)), seed=2
        )
        x0 = np.array([0.2, 0.5, 0.8])
        clean = forward(net, x0)
        second = forward(net, x0)
        for a, b in zip(clean.xs + clean.zs, second.xs + second.zs):
            np.testing.assert_array_equal(a, b)

    def test_identity_layer_passes_modulated_input_through(self):
        net = Network((Layer(np.eye(3), Activation.IDENTITY),))
        x_err0 = np.array([0.4, -0.1, 2.0])
        np.testing.assert_array_equal(forward(net, x_err0).xs[0], x_err0)

    def test_seeded_2_2_2_perturbed_input_matches_oracle(self):
        # Frozen from the straight-line oracle: same net as the forward
        # oracle, input perturbed by [0.05, -0.02].
        net = build_network(
            (LayerSpec(2, 2, Activation.RELU), LayerSpec(2, 2, Activation.IDENTITY)), seed=42
        )
        trace = forward(net, np.array([1.05, -0.02]))
        np.testing.assert_allclose(
            trace.zs[0],
            np.array([1.18183937334594336, -0.02700382270748265]),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            trace.xs[0], np.array([1.1818393733459434, 0.0]), rtol=1e-13
        )
        np.testing.assert_allclose(
            trace.xs[1],
            np.array([1.0823909900636852, -0.7007456475155885]),
            rtol=1e-13,
        )

    def test_dimension_mismatch_rejected(self):
        net = hand_net()
        with pytest.raises(ValueError):
            forward(net, np.zeros(3))


class TestTwoPassUpdates:
    def test_zero_gamma_gives_all_zero_updates(self):
        net = build_network(
            (LayerSpec(3, 4, Activation.RELU), LayerSpec(4, 2, Activation.IDENTITY)), seed=6
        )
        x0 = np.array([0.3, 0.6, 0.9])
        clean = forward(net, x0)
        updates = two_pass_updates(net, clean, clean, np.zeros(2))
        for dw in updates:
            assert np.all(dw == 0.0)

    def test_hand_sized_example_matches_outer_product_oracle(self):
        # Frozen from explicit outer-product arithmetic on the dyadic net:
        # x0=[1,-2], T=[0.5,-1], F=[[0.25,-0.5],[0.125,0.0625]].
        net = hand_net()
        x0 = np.array([1.0, -2.0])
        target = np.array([0.5, -1.0])
        f = np.array([[0.25, -0.5], [0.125, 0.0625]])
        clean = forward(net, x0)
        gamma = output_error(clean.output, target)
        modulated = forward(net, x0 + f @ gamma)
        updates = two_pass_updates(net, clean, modulated, gamma)
        np.testing.assert_array_equal(gamma, np.array([-1.125, 0.625]))
        np.testing.assert_array_equal(
            updates[0],
            np.array([[[0.11029052734375, -0.5705413818359375],
                       [0.27215576171875, -1.4078826904296875]]]),
        )
        np.testing.assert_array_equal(
            updates[1],
            np.array([[[-0.819580078125, 1.316162109375],
                       [0.455322265625, -0.731201171875]]]),
        )

    def test_every_per_sample_update_has_rank_at_most_one(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            net = build_network(
                (
                    LayerSpec(5, 6, Activation.SIGMOID),
                    LayerSpec(6, 4, Activation.IDENTITY),
                    LayerSpec(4, 3, Activation.IDENTITY),
                ),
                seed=seed,
            )
            proj = sample_projection(5, 3, seed=seed)
            x0 = rng.random(5)
            clean = forward(net, x0)
            gamma = output_error(clean.output, rng.random(3))
            modulated = forward(net, modulate_input(x0, proj, gamma))
            for dw in two_pass_updates(net, clean, modulated, gamma):
                assert np.linalg.matrix_rank(dw, tol=1e-10) <= 1

    def test_batch_averaged_update_has_rank_at_most_batch_size(self):
        rng = np.random.default_rng(15)
        net = build_network(
            (LayerSpec(6, 8, Activation.SIGMOID), LayerSpec(8, 4, Activation.IDENTITY)), seed=0
        )
        proj = sample_projection(6, 4, seed=0)
        xb = rng.random((6, 2))
        clean = forward(net, xb)
        gamma = output_error(clean.output, rng.random((4, 2)))
        modulated = forward(net, modulate_input(xb, proj, gamma))
        for dw in two_pass_updates(net, clean, modulated, gamma):
            assert np.linalg.matrix_rank(dw, tol=1e-10) <= 2

    def test_batch_update_is_mean_of_per_sample_updates(self):
        rng = np.random.default_rng(16)
        net = build_network(
            (LayerSpec(4, 5, Activation.RELU), LayerSpec(5, 3, Activation.IDENTITY)), seed=1
        )
        proj = sample_projection(4, 3, seed=1)
        xb = rng.random((4, 3))
        tb = rng.random((3, 3))
        clean = forward(net, xb)
        gamma = output_error(clean.output, tb)
        modulated = forward(net, modulate_input(xb, proj, gamma))
        batch = two_pass_updates(net, clean, modulated, gamma)
        per_sample = []
        for j in range(3):
            c = forward(net, xb[:, j])
            g = output_error(c.output, tb[:, j])
            m = forward(net, modulate_input(xb[:, j], proj, g))
            per_sample.append(two_pass_updates(net, c, m, g))
        for l in range(net.depth):
            mean = sum(u[l] for u in per_sample) / 3.0
            np.testing.assert_allclose(batch[l], mean, rtol=1e-12, atol=1e-15)

    def test_first_layer_rule_is_general_rule_at_modulated_input(self):
        # Layer 1's presynaptic term is x_err,0 itself, i.e. the same pattern
        # as the middle layers evaluated one level down.
        rng = np.random.default_rng(17)
        net = build_network(
            (
                LayerSpec(4, 4, Activation.SIGMOID),
                LayerSpec(4, 4, Activation.SIGMOID),
                LayerSpec(4, 2, Activation.IDENTITY),
            ),
            seed=3,
        )
        proj = sample_projection(4, 2, seed=3)
        x0 = rng.random(4)
        clean = forward(net, x0)
        gamma = output_error(clean.output, rng.random(2))
        x_err0 = modulate_input(x0, proj, gamma)
        modulated = forward(net, x_err0)
        updates = two_pass_updates(net, clean, modulated, gamma)
        np.testing.assert_array_equal(
            updates[0], np.outer(clean.xs[0] - modulated.xs[0], x_err0)[None]
        )
        np.testing.assert_array_equal(
            updates[1], np.outer(clean.xs[1] - modulated.xs[1], modulated.xs[0])[None]
        )
        np.testing.assert_array_equal(updates[2], np.outer(gamma, modulated.xs[1])[None])

    def test_depth_mismatch_rejected(self):
        # The modulated trace may stop one layer short (see the next test),
        # but no shorter, and may not run deeper than the network.
        net1 = Network((Layer(np.eye(2), Activation.IDENTITY),))
        net2, net3 = hand_net(), Network(hand_net().layers + net1.layers)
        x0 = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="modulated trace depth 1"):
            two_pass_updates(net3, forward(net3, x0), forward(net1, x0), np.zeros(2))
        with pytest.raises(ValueError, match="modulated trace depth 3"):
            two_pass_updates(net2, forward(net2, x0), forward(net3, x0), np.zeros(2))
        with pytest.raises(ValueError, match="clean trace depth 1"):
            two_pass_updates(net2, forward(net1, x0), forward(net2, x0), np.zeros(2))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_hidden_only_trace_gives_the_full_trace_bits(self, depth):
        # The rule reads nothing of the modulated output layer, so a second
        # pass through the hidden layers only gives the same updates.
        net = Network(block_net(4).layers[-depth:])
        rng = np.random.default_rng(depth)
        proj, x0 = rng.normal(size=(net.in_dim, 2)), rng.random((net.in_dim, 5))
        clean = forward(net, x0)
        gamma = output_error(clean.output, rng.random((2, 5)))
        xm = modulate_input(x0, proj, gamma)
        full = two_pass_updates(net, clean, forward(net, xm), gamma)
        if depth == 1:
            hidden = ForwardTrace(x0=xm, zs=(), xs=())
        else:
            hidden = forward(Network(net.layers[:-1]), xm)
        got = two_pass_updates(net, clean, hidden, gamma)
        assert [u.tobytes() for u in got] == [u.tobytes() for u in full]

    def test_batch_width_mismatch_rejected(self):
        net = hand_net()
        clean = forward(net, np.random.default_rng(0).random((2, 3)))
        modulated = forward(net, np.random.default_rng(0).random((2, 4)))
        with pytest.raises(ValueError):
            two_pass_updates(net, clean, modulated, np.zeros((2, 3)))


class TestApplyUpdates:
    def test_zero_learning_rate_leaves_network_identical(self):
        net = hand_net()
        updates = (np.ones((1, 2, 2)), np.ones((1, 2, 2)))
        out = apply_updates(net, updates, 0.0)
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weight, b.weight)

    def test_zero_updates_leave_network_identical(self):
        net = hand_net()
        updates = (np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        out = apply_updates(net, updates, 0.5)
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weight, b.weight)

    def test_scalar_arithmetic_example(self):
        net = Network((Layer(np.array([[1.0]]), Activation.IDENTITY),))
        out = apply_updates(net, (np.array([[[2.0]]]),), 0.5)
        np.testing.assert_array_equal(out.layers[0].weight, np.array([[0.0]]))

    def test_shape_mismatch_rejected(self):
        net = hand_net()
        with pytest.raises(ValueError):
            apply_updates(net, (np.zeros((1, 3, 3)), np.zeros((1, 2, 2))), 0.1)
        with pytest.raises(ValueError):
            apply_updates(net, (np.zeros((1, 2, 2)),), 0.1)

    def test_non_finite_delta_rejected(self):
        net = Network((Layer(np.array([[1.0]]), Activation.IDENTITY),))
        with pytest.raises(NonFiniteError):
            apply_updates(net, (np.array([[[np.nan]]]),), 0.5)

    def test_block_layer_off_block_entries_never_move(self):
        net = Network((Layer(np.ones((2, 1, 1)), Activation.IDENTITY),))
        out = apply_updates(net, (np.full((2, 1, 1), 7.0),), 1.0)
        np.testing.assert_array_equal(
            out.layers[0].weight, np.array([[-6.0, 0.0], [0.0, -6.0]])
        )
        # an update shaped like the dense weight has no block form
        with pytest.raises(ValueError, match="block shape"):
            apply_updates(net, (np.full((2, 2), 7.0),), 1.0)


class TestBlockLayer:
    def test_products_match_the_dense_weight(self):
        rng = np.random.default_rng(30)
        layer = Layer(rng.normal(size=(3, 2, 4)), Activation.RELU)
        w = block_diag(layer.blocks)
        for x, d in ((rng.random(12), rng.random(6)), (rng.random((12, 5)), rng.random((6, 5)))):
            np.testing.assert_allclose(layer.matvec(x), w @ x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(layer.rmatvec(d), w.T @ d, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                block_diag(layer.avg_outer(d, x)),
                np.where(ON_BLOCK, mean_outer(d, x), 0.0),
                rtol=0,
                atol=1e-12,
            )

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_training_steps_match_dense_reference(self, algorithm):
        # Reference: the dense 2-D weights with plain numpy products and full
        # batch-mean outer products, with each update's off-block part dropped.
        blocked = block_net(31)
        weights = [block_diag(layer.blocks) for layer in blocked.layers]
        activations = [layer.activation for layer in blocked.layers]
        rng = np.random.default_rng(31)
        proj = sample_projection(5, 2, seed=31)
        for _ in range(3):
            xb = rng.random((5, 4))
            tb = np.eye(2)[:, rng.integers(0, 2, 4)]
            clean = forward(blocked, xb)
            gamma = output_error(clean.output, tb)
            if algorithm is Algorithm.TWO_PASS:
                modulated = forward(blocked, modulate_input(xb, proj, gamma))
                b0, b1, b2 = two_pass_updates(blocked, clean, modulated, gamma)
            else:
                b0, b1, b2 = backprop_updates(blocked, clean, gamma)
            d0, d1, d2 = reference_updates(
                weights, activations, xb, tb, proj, algorithm is Algorithm.TWO_PASS
            )
            d1 = np.where(ON_BLOCK, d1, 0.0)
            assert (b0.shape, b1.shape, b2.shape) == ((1, 12, 5), (3, 2, 4), (1, 2, 6))
            for got, want in zip((b0, b1, b2), (d0, d1, d2)):
                np.testing.assert_allclose(block_diag(got), want, rtol=0, atol=1e-12)
            blocked = apply_updates(blocked, (b0, b1, b2), 0.5)
            weights = [w - 0.5 * d for w, d in zip(weights, (d0, d1, d2))]
            for layer, w in zip(blocked.layers, weights):
                np.testing.assert_allclose(layer.weight, w, rtol=0, atol=1e-12)
        assert blocked.layers[1].blocks.shape == (3, 2, 4)
        assert np.all(blocked.layers[1].weight[~ON_BLOCK] == 0.0)


@st.composite
def blocked_nets(draw):
    """1-3 layers of random activations, each split into a random number of blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 8))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from([d for d in range(1, dim + 1) if dim % d == 0]))
        o = draw(st.integers(1, 4))
        act = draw(st.sampled_from(list(Activation)))
        layers.append(Layer(rng.normal(size=(k, o, dim // k)), act))
        dim = k * o
    return Network(tuple(layers))


class TestZeroErrorFixedPointProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(blocked_nets(), st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 2**31))
    def test_targets_equal_to_the_clean_output_change_nothing(self, net, width, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.random((net.in_dim,) if width is None else (net.in_dim, width))
        proj = sample_projection(net.in_dim, net.out_dim, seed=seed)
        clean = forward(net, x0)
        gamma = output_error(clean.output, clean.output.copy())
        modulated = forward(net, modulate_input(x0, proj, gamma))
        for a, b in zip(clean.zs + clean.xs, modulated.zs + modulated.xs):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for updates in (
            two_pass_updates(net, clean, modulated, gamma),
            backprop_updates(net, clean, gamma),
        ):
            for layer, dw in zip(net.layers, updates):
                assert dw.shape == layer.blocks.shape
                assert np.all(dw == 0.0)
            after = apply_updates(net, updates, 0.5)
            for before, now in zip(net.layers, after.layers):
                assert now.blocks.tobytes() == before.blocks.tobytes()


class TestBackpropUpdates:
    def test_zero_gamma_gives_zero_gradients(self):
        net = build_network(
            (LayerSpec(3, 4, Activation.SIGMOID), LayerSpec(4, 2, Activation.SOFTMAX)), seed=8
        )
        clean = forward(net, np.array([0.1, 0.2, 0.3]))
        for dw in backprop_updates(net, clean, np.zeros(2)):
            assert np.all(dw == 0.0)

    def test_single_linear_layer_closed_form(self):
        net = Network((Layer(np.array([[0.5, -1.0], [0.25, 2.0]]), Activation.IDENTITY),))
        x0 = np.array([0.3, -0.7])
        clean = forward(net, x0)
        gamma = output_error(clean.output, np.array([1.0, -1.0]))
        (dw,) = backprop_updates(net, clean, gamma)
        np.testing.assert_allclose(dw, np.outer(gamma, x0)[None], rtol=1e-14)

    def test_gradient_matches_central_finite_differences(self):
        # Smooth activations only; epsilon and the tolerance follow the usual
        # gradient-checking recipe.
        net = build_network(
            (LayerSpec(4, 3, Activation.SIGMOID), LayerSpec(3, 2, Activation.SOFTMAX)), seed=12
        )
        rng = np.random.default_rng(12)
        xb = rng.random((4, 5))
        tb = rng.random((2, 5))

        def loss(candidate):
            out = forward(candidate, xb).output
            return 0.5 * np.sum((out - tb) ** 2) / xb.shape[1]

        clean = forward(net, xb)
        gamma = output_error(clean.output, tb)
        analytic = backprop_updates(net, clean, gamma)
        eps = 1e-5
        worst = 0.0
        for l, layer in enumerate(net.layers):
            fd = np.zeros_like(layer.weight)
            for i in range(layer.weight.shape[0]):
                for j in range(layer.weight.shape[1]):
                    for sign in (+1.0, -1.0):
                        w = layer.weight.copy()
                        w[i, j] += sign * eps
                        layers = list(net.layers)
                        layers[l] = Layer(w, layer.activation)
                        fd[i, j] += sign * loss(Network(tuple(layers)))
                    fd[i, j] /= 2.0 * eps
            denom = np.maximum(np.abs(fd), np.abs(analytic[l]))
            denom[denom < 1e-12] = 1.0
            worst = max(worst, float((np.abs(fd - analytic[l]) / denom).max()))
        assert worst < 1e-4


class TestTrain:
    def make_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        inputs = rng.random((12, 3))
        targets = rng.random((12, 2))
        labels = rng.integers(0, 2, 12)
        data = Dataset(inputs=inputs, targets=targets, labels=labels)
        net = build_network(
            (LayerSpec(3, 5, Activation.SIGMOID), LayerSpec(5, 2, Activation.IDENTITY)),
            seed=seed,
        )
        proj = sample_projection(3, 2, seed=seed)
        return net, data, proj

    def test_same_seed_gives_identical_history_and_weights(self):
        results = []
        for _ in range(2):
            net, data, proj = self.make_problem(seed=5)
            cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=4, seed=11)
            results.append(train(net, data, proj, cfg))
        (net_a, hist_a), (net_b, hist_b) = results
        assert hist_a == hist_b
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    @pytest.mark.parametrize("epochs, drop_epoch", [(1, None), (2, 1), (3, 2), (30, 20)])
    def test_learning_rate_drops_tenfold_at_two_thirds(self, monkeypatch, epochs, drop_epoch):
        # The rate is 0.1 * lr from 0-based epoch max(1, floor(2 * epochs / 3)) on.
        calls = spy_on(monkeypatch, trainer, "apply_updates")
        net, data, proj = self.make_problem(seed=3)
        lr = 0.2
        train(net, data, proj, TrainConfig(learning_rate=lr, epochs=epochs, batch_size=6))
        steps_per_epoch = 2
        expected = [
            0.1 * lr if drop_epoch is not None and epoch >= drop_epoch else lr
            for epoch in range(epochs)
            for _ in range(steps_per_epoch)
        ]
        assert [call["learning_rate"] for call in calls] == expected

    def test_zero_error_dataset_is_a_fixed_point(self):
        net, data, proj = self.make_problem(seed=7)
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=3, seed=0)
        # Take the first epoch's batches as the trainer does, so the stored
        # targets match its forward pass bit for bit.
        order = np.random.default_rng(cfg.seed).permutation(12)
        outputs = np.empty_like(data.targets)
        for start in range(0, 12, 3):
            idx = order[start : start + 3]
            outputs[idx] = forward(net, trainer._batch(data.inputs, idx)).output.T
        perfect = Dataset(inputs=data.inputs, targets=outputs, labels=data.labels)
        trained, history = train(net, perfect, proj, cfg)
        for la, lb in zip(net.layers, trained.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
        assert all(r.mse == 0.0 for r in history)

    def test_training_loop_matches_explicit_snapshot_reference(self):
        # Frozen-weights contract: both passes of a batch see the same
        # pre-update weights, updates apply after the passes complete.
        net, data, proj = self.make_problem(seed=9)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4, seed=0)
        trained, _ = train(net, data, proj, cfg)

        ref = net
        t_all = data.targets.T
        order = np.random.default_rng(cfg.seed).permutation(12)
        for start in range(0, 12, 4):
            idx = order[start : start + 4]
            xb = trainer._batch(data.inputs, idx)
            tb = t_all[:, idx]
            clean = forward(ref, xb)
            gamma = output_error(clean.output, tb)
            modulated = forward(ref, modulate_input(xb, proj, gamma))
            ref = apply_updates(ref, two_pass_updates(ref, clean, modulated, gamma), 0.1)
        for la, lb in zip(trained.layers, ref.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_projection_matrix_unchanged_by_training(self):
        net, data, proj = self.make_problem(seed=3)
        before = proj.copy()
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=1)
        train(net, data, proj, cfg)
        np.testing.assert_array_equal(proj, before)

    def test_divergence_error_names_the_iteration(self):
        net = build_network(
            (LayerSpec(2, 16, Activation.SQUARE), LayerSpec(16, 1, Activation.SQUARE)),
            seed=0,
        )
        rng = np.random.default_rng(0)
        data = Dataset(
            inputs=rng.random((8, 2)),
            targets=rng.random((8, 1)),
            labels=np.zeros(8, dtype=int),
        )
        proj = sample_projection(2, 1, seed=0)
        cfg = TrainConfig(learning_rate=100.0, epochs=50, batch_size=4, seed=0)
        with pytest.raises(NonFiniteError, match=r"at iteration \d+"):
            train(net, data, proj, cfg)

    def test_divergence_on_final_update_is_reported(self):
        # Both passes and the computed update stay finite; only the weight
        # subtraction overflows, and it happens on the run's last batch, so
        # no later forward pass exists to trip on it.  It must still come
        # back as a divergence, not as a leaked constructor error.
        net = Network((Layer(np.array([[1e154]]), Activation.IDENTITY),))
        data = Dataset(
            inputs=np.array([[1.0]]),
            targets=np.array([[0.0]]),
            labels=np.zeros(1, dtype=int),
        )
        proj = sample_projection(1, 1, seed=0)
        cfg = TrainConfig(learning_rate=1e4, epochs=1, batch_size=1, seed=0)
        with pytest.raises(NonFiniteError, match="at iteration 1"):
            train(net, data, proj, cfg)

    def test_backend_value_error_is_not_divergence(self):
        # Only non-finite values mean divergence; a shape bug in a backend
        # must surface as itself, not as exit-code-3 "training diverged".
        net, data, proj = self.make_problem(seed=4)
        wrong_in_dim = build_network((LayerSpec(net.in_dim + 1, 2, Activation.IDENTITY),), seed=0)

        with pytest.raises(ValueError, match="input length"):
            train(net, data, proj, TrainConfig(), realize=lambda _net: wrong_in_dim)

    def test_non_finite_realization_is_divergence(self):
        # Realization runs inside the step, so a weight that realizes to
        # non-finite values is reported like every other non-finite stage.
        net, data, proj = self.make_problem(seed=5)

        def overflowing_realize(n):
            return Network(tuple(Layer(l.weight * np.inf, l.activation) for l in n.layers))

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="at iteration 1"):
            train(net, data, proj, TrainConfig(), realize=overflowing_realize)

    def test_backprop_algorithm_trains_too(self):
        net, data, proj = self.make_problem(seed=13)
        cfg = TrainConfig(
            learning_rate=0.1, epochs=20, batch_size=4, seed=2, algorithm=Algorithm.BACKPROP
        )
        before = evaluate(net, data).mse
        trained, _ = train(net, data, proj, cfg)
        assert evaluate(trained, data).mse < before

    def test_two_pass_reduces_loss_on_learnable_problem(self):
        rng = np.random.default_rng(20)
        w_true = rng.normal(size=(2, 3))
        inputs = rng.random((40, 3))
        targets = inputs @ w_true.T
        targets = (targets - targets.min()) / (targets.max() - targets.min())
        data = Dataset(inputs=inputs, targets=targets, labels=np.zeros(40, dtype=int))
        net = build_network(
            (LayerSpec(3, 6, Activation.SIGMOID), LayerSpec(6, 2, Activation.IDENTITY)),
            seed=1,
        )
        proj = sample_projection(3, 2, seed=1)
        cfg = TrainConfig(learning_rate=0.2, epochs=30, batch_size=8, seed=3)
        before = evaluate(net, data).mse
        trained, _ = train(net, data, proj, cfg)
        assert evaluate(trained, data).mse < 0.5 * before

    def test_setup_validation_errors(self):
        net, data, proj = self.make_problem(seed=1)
        bad_proj = sample_projection(3, 5, seed=1)
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            train(net, data, bad_proj, cfg)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), ...])
    def test_non_finite_projection_rejected_before_any_step(
        self, monkeypatch, algorithm, value, entry
    ):
        # Bad input, not divergence, so no step runs.  ... puts the value in
        # every entry.
        net = build_network(
            (LayerSpec(2, 16, Activation.SQUARE), LayerSpec(16, 1, Activation.SQUARE)), seed=0
        )
        proj = np.array(sample_projection(2, 1, seed=0))
        proj[entry] = value
        # Every step starts by taking its batch.
        steps = spy_on(monkeypatch, trainer, "_batch")
        cfg = TrainConfig(epochs=1, batch_size=1, algorithm=algorithm)
        with pytest.raises(ValueError, match="projection contains non-finite values"):
            train(net, xor_dataset(), proj, cfg)
        assert steps == []


class TestEvaluate:
    def test_mse_and_accuracy_on_known_predictions(self):
        net = Network((Layer(np.eye(2), Activation.IDENTITY),))
        inputs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1])
        data = Dataset(inputs=inputs, targets=targets, labels=labels)
        result = evaluate(net, data)
        # third sample contributes (1-0)^2 + (0-1)^2 over 6 output entries
        assert result.mse == pytest.approx(2.0 / 6.0, rel=1e-12)
        assert result.accuracy == pytest.approx(2.0 / 3.0, rel=1e-12)
        np.testing.assert_array_equal(result.predictions, np.array([0, 1, 0]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 97), chunk=st.integers(1, 8))
    def test_chunk_size_does_not_change_results(self, seed, n, chunk):
        # How OpenBLAS rounds a column depends on how many columns share the
        # call, so a forward pass over a narrow chunk may give other last bits
        # than the same samples inside one wide pass.  Predictions and
        # accuracy do not move, and the mse moves by a few ulp at most; its
        # summation order is pinned by the next test.
        rng = np.random.default_rng(seed)
        net = build_network(
            (LayerSpec(5, 8, Activation.RELU), LayerSpec(8, 10, Activation.SOFTMAX)), seed=seed
        )
        labels = rng.integers(0, 10, n)
        data = Dataset(inputs=rng.random((n, 5)), targets=one_hot(labels, 10), labels=labels)
        with mock.patch.object(trainer, "EVAL_BATCH", chunk):
            a = evaluate(net, data)
        with mock.patch.object(trainer, "EVAL_BATCH", 1000):
            b = evaluate(net, data)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        assert a.accuracy == b.accuracy
        assert abs(a.mse - b.mse) <= 4 * math.ulp(b.mse), (a.mse, b.mse)

    def test_mse_is_the_same_bits_for_every_chunk_size(self, monkeypatch):
        # An identity layer makes every output exact, so only the order of
        # the squared-error sums can move the mse.  At 10 outputs numpy sums a
        # contiguous run pairwise and a strided one in order, so a per-chunk
        # np.sum would change with the chunking.
        rng = np.random.default_rng(23)
        net = Network((Layer(np.eye(10), Activation.IDENTITY),))
        labels = rng.integers(0, 10, 97)
        data = Dataset(inputs=rng.random((97, 10)), targets=one_hot(labels, 10), labels=labels)
        mses = set()
        for chunk in (1, 2, 7, 256):
            monkeypatch.setattr(trainer, "EVAL_BATCH", chunk)
            mses.add(evaluate(net, data).mse)
        assert len(mses) == 1, sorted(mses)

    def test_predictions_do_not_move_with_the_chunk_width_at_mnist_shapes(
        self, monkeypatch, synthetic_mnist_dir
    ):
        # The MLP's 784-256-10 shape on the 10,000 MNIST-shaped test samples.
        # Chunks of 1 or 2 columns go through another BLAS kernel than wide
        # ones, so the outputs may differ in their last bits; the predictions
        # may not.
        _, test_data = load_mnist(synthetic_mnist_dir)
        net = build_network(
            (LayerSpec(784, 256, Activation.RELU), LayerSpec(256, 10, Activation.SOFTMAX)), seed=0
        )
        results = {}
        for chunk in (1, 2, 7, 256):
            monkeypatch.setattr(trainer, "EVAL_BATCH", chunk)
            results[chunk] = evaluate(net, test_data)
        for chunk in (1, 2, 7):
            assert results[chunk].predictions.tobytes() == results[256].predictions.tobytes()
            assert results[chunk].accuracy == results[256].accuracy

    @pytest.mark.parametrize(
        "net, data",
        [
            # Finite weights give a finite output, 1.6e161, whose square overflows.
            (
                Network((Layer(np.full((1, 2), 1e40), "square"), Layer([[1.0]], "square"))),
                xor_dataset(),
            ),
            # Each sample's squared error, 1.69e308, is finite; their sum is not.
            (
                Network((Layer([[1.3e154]], Activation.IDENTITY),)),
                Dataset(np.ones((2, 1)), np.zeros((2, 1)), np.zeros(2, dtype=int)),
            ),
        ],
        ids=["square", "sum"],
    )
    def test_overflowing_mse_is_divergence(self, net, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="mse"):
                evaluate(net, data)

    def test_empty_dataset_rejected(self):
        net = Network((Layer(np.eye(2), Activation.IDENTITY),))
        empty = Dataset(
            inputs=np.zeros((0, 2)), targets=np.zeros((0, 2)), labels=np.zeros(0, dtype=int)
        )
        with pytest.raises(ValueError, match="dataset is empty"):
            evaluate(net, empty)

    def test_regression_targets_give_no_accuracy(self):
        net = Network((Layer(np.eye(2)[:1], Activation.IDENTITY),))
        data = Dataset(
            inputs=np.array([[0.1, 0.2]]),
            targets=np.array([[0.3]]),
            labels=np.array([0]),
        )
        assert evaluate(net, data).accuracy is None


def byte_twins(seed: int, n: int = 200) -> tuple[Dataset, Dataset]:
    """A Dataset of uint8 pixels and targets, and its twin holding them as floats."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (n, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, n)
    targets = one_hot(labels, 10)
    return Dataset(pixels, targets, labels), Dataset(pixels / 255.0, targets.astype(float), labels)


class TestByteInputs:
    """uint8 inputs and targets train and evaluate to the same bits as their float twins."""

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("model", ["dense", "colsplit"])
    def test_bytes_and_floats_give_identical_bits(self, model, algorithm, monkeypatch):
        twins = byte_twins(seed=11)
        proj = sample_projection(784, 10, seed=12)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=2, batch_size=64, seed=13, algorithm=algorithm
        )
        if model == "dense":
            net = build_network(
                (LayerSpec(784, 16, Activation.RELU), LayerSpec(16, 10, Activation.SOFTMAX)),
                seed=14,
            )
            runs = [train(net, data, proj, cfg) for data in twins]
            monkeypatch.setattr(trainer, "EVAL_BATCH", 64)
            evals = [evaluate(runs[0][0], data) for data in twins]
            layers = [trained.layers for trained, _ in runs]
        else:
            net = build_colsplit_net(seed=14, column_out=2)
            runs = [colsplit_train(net, data, proj, cfg) for data in twins]
            evals = [colsplit_evaluate(runs[0][0], data) for data in twins]
            layers = [trained.network.layers for trained, _ in runs]
        assert runs[0][1] == runs[1][1]
        for from_bytes, from_floats in zip(*layers):
            assert from_bytes.blocks.tobytes() == from_floats.blocks.tobytes()
        assert evals[0].mse == evals[1].mse
        np.testing.assert_array_equal(evals[0].predictions, evals[1].predictions)


class TestBatch:
    """Training and evaluation take every batch one way: a new C-ordered float copy."""

    # "slice" is a contiguous run of rows, as evaluate takes its chunks.
    @pytest.mark.parametrize("idx", [np.array([4, 0, 3]), np.arange(1, 4)], ids=["index", "slice"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_batch_is_a_new_c_ordered_float_copy(self, dtype, idx):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, (6, 5), dtype=np.uint8)
        inputs = pixels if dtype == np.uint8 else pixels / 255.0
        expected = inputs[idx].T / 255.0 if dtype == np.uint8 else inputs[idx].T
        xb = trainer._batch(inputs, idx)
        assert xb.dtype == np.float64 and xb.shape == (5, 3)
        assert xb.flags.c_contiguous and xb.flags.owndata
        assert not np.shares_memory(xb, inputs)
        assert xb.tobytes() == expected.tobytes()
        # A zero error leaves the batch as it is, in the same layout, so
        # both passes of a zero-error step multiply identical operands.
        proj = sample_projection(5, 2, seed=6)
        modulated = modulate_input(xb, proj, np.zeros((2, 3)))
        assert modulated.flags.c_contiguous
        assert modulated.tobytes() == xb.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_nd_samples_are_read_in_column_major_order(self, dtype):
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, (6, 3, 4), dtype=np.uint8)
        inputs = pixels if dtype == np.uint8 else pixels / 255.0
        idx = np.array([5, 1, 2])
        # Sample b's entry (r, c) goes to row 3c + r of column b.
        flat = inputs[idx].transpose(0, 2, 1).reshape(3, 12).T
        expected = flat / 255.0 if dtype == np.uint8 else flat
        xb = trainer._batch(inputs, idx)
        assert xb.dtype == np.float64 and xb.shape == (12, 3)
        assert xb.flags.c_contiguous and xb.flags.owndata
        assert xb.tobytes() == expected.tobytes()
        assert xb[3 * 2 + 1, 0] == inputs[5, 1, 2] / (255.0 if dtype == np.uint8 else 1.0)

    @pytest.mark.parametrize("sample", [(784,), (28, 28)], ids=["flat", "image"])
    def test_float_batch_copies_only_its_rows(self, sample):
        # The set is 120 MiB of floats; a 64-sample batch and its gathered
        # rows are 0.8 MiB.  Transposing the set before gathering would copy
        # all of it.  tracemalloc counts numpy's allocations exactly.
        inputs = np.zeros((20000, *sample))
        idx = np.random.default_rng(8).choice(20000, 64, replace=False)
        inputs[idx] = np.random.default_rng(9).random((64, *sample))
        tracemalloc.start()
        try:
            xb = trainer._batch(inputs, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"
        expected = inputs[idx].reshape(64, -1, order="F").T
        assert xb.tobytes() == expected.tobytes()


class TestConfigAndRecords:
    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for bad in (
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(learning_rate=True),
            dict(epochs=1.5),
            dict(epochs=True),
            dict(batch_size=2.5),
            dict(seed=-1),
            dict(seed=1.5),
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)

    def test_algorithm_given_as_string_is_the_enum(self):
        assert TrainConfig(algorithm="two_pass").algorithm is Algorithm.TWO_PASS
        assert TrainConfig(algorithm="backprop").algorithm is Algorithm.BACKPROP
        with pytest.raises(ValueError, match="bogus"):
            TrainConfig(algorithm="bogus")
        # a string names the same rule as the enum: identical training, bit for bit
        problem = TestTrain().make_problem(seed=4)
        for algorithm in Algorithm:
            by_enum, _ = train(*problem, TrainConfig(learning_rate=0.1, algorithm=algorithm))
            by_name, _ = train(*problem, TrainConfig(learning_rate=0.1, algorithm=algorithm.value))
            for a, b in zip(by_enum.layers, by_name.layers):
                assert a.blocks.tobytes() == b.blocks.tobytes()
