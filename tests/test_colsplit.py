import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopass import (
    Activation,
    Algorithm,
    ColumnSplitNet,
    Dataset,
    Layer,
    LayerSpec,
    Network,
    SplitMode,
    TrainConfig,
    apply_updates,
    backprop_updates,
    build_colsplit_net,
    build_network,
    colsplit_evaluate,
    colsplit_train,
    columnize,
    compose,
    confusion_matrix,
    forward,
    modulate_input,
    one_hot,
    output_error,
    sample_projection,
    split_columns,
    stagewise_forward,
    two_pass_updates,
)

from conftest import block_diag, reference_forward, reference_updates


def block_mask(column_out: int) -> np.ndarray:
    mask = np.zeros((28 * column_out, 784), dtype=bool)
    for j in range(28):
        mask[j * column_out : (j + 1) * column_out, j * 28 : (j + 1) * 28] = True
    return mask


def random_image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((28, 28))


def dense_weights(composed: Network) -> list[np.ndarray]:
    """The 2-D weights of a composed net, built from its blocks with plain numpy."""
    return [block_diag(layer.blocks) for layer in composed.layers]


class TestSplitColumns:
    def test_column_mode_pieces_are_image_columns(self):
        img = random_image(0)
        pieces = split_columns(img, SplitMode.COLUMN)
        assert pieces.shape == (28, 28)
        for c in range(28):
            np.testing.assert_array_equal(pieces[c], img[:, c])
        # piece c, entry r is pixel (r, c)
        assert pieces[5][3] == img[3, 5]

    def test_row_mode_pieces_are_image_rows(self):
        img = random_image(1)
        pieces = split_columns(img, SplitMode.ROW)
        for r in range(28):
            np.testing.assert_array_equal(pieces[r], img[r])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="28x28"):
            split_columns(np.zeros((28, 27)))

    def test_mode_given_as_string_is_the_enum(self):
        img = random_image(2)
        for mode in SplitMode:
            np.testing.assert_array_equal(split_columns(img, mode.value), split_columns(img, mode))
        with pytest.raises(ValueError, match="diagonal"):
            split_columns(img, "diagonal")


class TestColumnize:
    def test_column_mode_reorders_row_major_pixels(self):
        img = random_image(3)
        flat = img.reshape(1, 784)
        out = columnize(flat, SplitMode.COLUMN)
        for r in range(28):
            for c in range(0, 28, 5):
                assert out[0, 28 * c + r] == img[r, c]

    def test_column_pieces_become_contiguous(self):
        img = random_image(4)
        out = columnize(img.reshape(1, 784), SplitMode.COLUMN)
        pieces = split_columns(img, SplitMode.COLUMN)
        for j in range(28):
            np.testing.assert_array_equal(out[0, j * 28 : (j + 1) * 28], pieces[j])

    def test_row_mode_is_identity_copy(self):
        flat = np.random.default_rng(5).random((3, 784))
        out = columnize(flat, SplitMode.ROW)
        np.testing.assert_array_equal(out, flat)
        out[0, 0] = -1.0
        assert flat[0, 0] != -1.0

    def test_column_mode_is_an_involution(self):
        flat = np.random.default_rng(6).random((2, 784))
        np.testing.assert_array_equal(
            columnize(columnize(flat, SplitMode.COLUMN), SplitMode.COLUMN), flat
        )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="784"):
            columnize(np.zeros((2, 28)))

    def test_mode_given_as_string_is_the_enum(self):
        flat = np.random.default_rng(6).random((2, 784))
        for mode in SplitMode:
            np.testing.assert_array_equal(columnize(flat, mode.value), columnize(flat, mode))
        with pytest.raises(ValueError, match="diagonal"):
            columnize(flat, "diagonal")


class TestCompose:
    def test_identity_columns_pass_pixels_through(self):
        base = build_colsplit_net(seed=0, column_out=28)
        identity = Layer(np.tile(np.eye(28), (28, 1, 1)), Activation.RELU)
        net = ColumnSplitNet(Network((identity,) + base.aggregator.layers))
        composed = compose(net)
        v = np.random.default_rng(7).random(784)
        trace = forward(composed, v)
        np.testing.assert_array_equal(trace.xs[0], v)

    def test_stage1_blocks_are_the_column_weights(self):
        net = build_colsplit_net(seed=1, column_out=3)
        stage1 = compose(net).layers[0]
        assert isinstance(stage1, Layer)
        assert stage1.blocks.shape == (28, 3, 28)
        w1 = stage1.weight
        assert w1.shape == (84, 784)
        assert np.all(w1[~block_mask(3)] == 0.0)
        for j, colnet in enumerate(net.column_nets):
            np.testing.assert_array_equal(stage1.blocks[j], colnet.layers[0].weight)
            np.testing.assert_array_equal(
                w1[3 * j : 3 * j + 3, 28 * j : 28 * j + 28], colnet.layers[0].weight
            )

    def test_blocked_forward_matches_dense_reference(self):
        composed = compose(build_colsplit_net(seed=15, column_out=4))
        weights = dense_weights(composed)
        activations = [layer.activation for layer in composed.layers]
        rng = np.random.default_rng(15)
        for x in (rng.random(784), rng.random((784, 7)), rng.random((7, 784)).T):
            got = forward(composed, x)
            zs, xs = reference_forward(weights, activations, x)
            for a, b in zip(got.zs + got.xs, tuple(zs) + tuple(xs[1:])):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_forward_matches_stagewise_reference(self):
        for mode in (SplitMode.COLUMN, SplitMode.ROW, "column", "row"):
            net = build_colsplit_net(seed=2, column_out=5, mode=mode)
            assert net.mode is SplitMode(mode)
            composed = compose(net)
            for seed in range(4):
                img = random_image(10 + seed)
                via_composed = forward(composed, columnize(img.reshape(1, 784), mode)[0]).output
                via_stages = stagewise_forward(net, img)
                np.testing.assert_allclose(via_composed, via_stages, rtol=1e-12)

    def test_zeroed_column_contributes_nothing(self):
        base = build_colsplit_net(seed=3, column_out=4)
        blocks = base.network.layers[0].blocks.copy()
        blocks[11] = 0.0
        net = ColumnSplitNet(Network((Layer(blocks, Activation.RELU),) + base.aggregator.layers))
        trace = forward(compose(net), np.random.default_rng(8).random(784))
        np.testing.assert_array_equal(trace.xs[0][44:48], np.zeros(4))


def with_stage1(blocks: np.ndarray) -> Network:
    """A network of ReLU ``blocks`` and a softmax aggregator that fits them."""
    stage1 = Layer(blocks, Activation.RELU)
    return Network((stage1, Layer(np.zeros((10, stage1.out_dim)), Activation.SOFTMAX)))


class TestColumnSplitNetValidation:
    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="28 column blocks"):
            ColumnSplitNet(with_stage1(np.zeros((27, 2, 28))))

    def test_wrong_column_input_size_rejected(self):
        with pytest.raises(ValueError, match="28 column blocks of 28 inputs"):
            ColumnSplitNet(with_stage1(np.zeros((28, 2, 14))))

    def test_aggregator_size_mismatch_rejected(self):
        stage1 = build_colsplit_net(seed=0, column_out=2).network.layers[0]
        bad_agg = Layer(np.zeros((10, 100)), Activation.SOFTMAX)
        with pytest.raises(ValueError, match="incompatible: 56 -> 100"):
            ColumnSplitNet(Network((stage1, bad_agg)))

    def test_mode_is_coerced_to_the_enum(self):
        network = build_colsplit_net(seed=0, column_out=2).network
        assert ColumnSplitNet(network, "row").mode is SplitMode.ROW
        with pytest.raises(ValueError, match="diagonal"):
            ColumnSplitNet(network, "diagonal")

    def test_views_are_read_from_the_network(self):
        net = build_colsplit_net(seed=0, column_out=3)
        stage1 = net.network.layers[0]
        assert len(net.column_nets) == 28
        for block, colnet in zip(stage1.blocks, net.column_nets):
            assert colnet.depth == 1 and colnet.layers[0].activation is Activation.RELU
            np.testing.assert_array_equal(colnet.layers[0].blocks, block[None])
        assert net.aggregator.layers == net.network.layers[1:]
        assert (net.column_out, net.in_dim, net.out_dim) == (3, 784, 10)


class TestBuildColsplitNet:
    def test_seeded_determinism(self):
        a = compose(build_colsplit_net(seed=4, column_out=2))
        b = compose(build_colsplit_net(seed=4, column_out=2))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_columns_get_distinct_weights(self):
        net = build_colsplit_net(seed=5, column_out=2)
        w0 = net.column_nets[0].layers[0].weight
        w1 = net.column_nets[1].layers[0].weight
        assert np.any(w0 != w1)

    def test_column_out_shapes(self):
        net = build_colsplit_net(seed=6, column_out=4)
        assert net.column_out == 4
        assert net.aggregator.in_dim == 112
        assert net.aggregator.out_dim == 10
        assert compose(net).layers[0].weight.shape == (112, 784)

    def test_invalid_column_out_rejected(self):
        with pytest.raises(ValueError, match="column_out"):
            build_colsplit_net(seed=0, column_out=0)


def small_dataset(seed: int, n: int = 10) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    return Dataset(
        inputs=rng.random((n, 784)),
        targets=one_hot(labels, 10),
        labels=labels,
    )


class TestColsplitTraining:
    def test_zero_error_dataset_is_a_fixed_point(self):
        net = build_colsplit_net(seed=7, column_out=2)
        data = small_dataset(7, n=6)
        composed = compose(net)
        # Mirror the trainer's exact batch construction (transpose, index,
        # layout) so the stored targets match its forward pass bit for bit.
        xb = np.ascontiguousarray(columnize(data.inputs).T[:, np.arange(6)])
        outputs = forward(composed, xb).output.T
        perfect = Dataset(inputs=data.inputs, targets=outputs, labels=data.labels)
        cfg = TrainConfig(
            learning_rate=0.5,
            epochs=2,
            batch_size=6,
            seed=0,
            shuffle=False,
        )
        proj = sample_projection(784, 10, seed=7)
        trained, history = colsplit_train(net, perfect, proj, cfg)
        for la, lb in zip(compose(net).layers, compose(trained).layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
        assert all(r.mse == 0.0 for r in history.records)

    def test_off_block_weights_stay_exactly_zero(self):
        net = build_colsplit_net(seed=8, column_out=2)
        data = small_dataset(8, n=12)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=1)
        proj = sample_projection(784, 10, seed=8)
        trained, _ = colsplit_train(net, data, proj, cfg)
        w1 = compose(trained).layers[0].weight
        assert np.all(w1[~block_mask(2)] == 0.0)
        assert np.any(w1 != compose(net).layers[0].weight)

    def test_backprop_variant_also_preserves_blocks(self):
        from twopass import Algorithm

        net = build_colsplit_net(seed=9, column_out=2)
        data = small_dataset(9, n=12)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=1, batch_size=4, seed=2, algorithm=Algorithm.BACKPROP
        )
        proj = sample_projection(784, 10, seed=9)
        trained, _ = colsplit_train(net, data, proj, cfg)
        assert np.all(compose(trained).layers[0].weight[~block_mask(2)] == 0.0)

    @pytest.mark.parametrize("mode", list(SplitMode))
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_blocked_updates_match_dense_reference(self, mode, algorithm):
        # Reference: the dense 2-D weights with plain numpy products and full
        # batch-mean outer products, whose off-block part is dropped.
        net = build_colsplit_net(seed=16, column_out=2, mode=mode)
        data = small_dataset(16, n=12)
        proj = sample_projection(784, 10, seed=16)
        blocked = compose(net)
        weights = dense_weights(blocked)
        activations = [layer.activation for layer in blocked.layers]
        on_block = block_mask(2)
        x_all, t_all = columnize(data.inputs, mode).T, data.targets.T
        for start in range(0, 12, 4):
            xb = np.ascontiguousarray(x_all[:, start : start + 4])
            tb = t_all[:, start : start + 4]
            clean = forward(blocked, xb)
            gamma = output_error(clean.output, tb)
            if algorithm is Algorithm.TWO_PASS:
                modulated = forward(blocked, modulate_input(xb, proj, gamma))
                b1, b2 = two_pass_updates(blocked, clean, modulated, gamma)
            else:
                b1, b2 = backprop_updates(blocked, clean, gamma)
            d1, d2 = reference_updates(
                weights, activations, xb, tb, proj, algorithm is Algorithm.TWO_PASS
            )
            d1 = np.where(on_block, d1, 0.0)
            assert b1.shape == (28, 2, 28) and b2.shape == (1, 10, 56)
            np.testing.assert_allclose(block_diag(b1), d1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b2[0], d2, rtol=0, atol=1e-12)
            blocked = apply_updates(blocked, (b1, b2), 0.5)
            weights = [w - 0.5 * d for w, d in zip(weights, (d1, d2))]
            for layer, w in zip(blocked.layers, weights):
                np.testing.assert_allclose(layer.weight, w, rtol=0, atol=1e-12)

    def test_trained_stagewise_matches_composed_forward(self):
        for mode in (SplitMode.COLUMN, SplitMode.ROW):
            net = build_colsplit_net(seed=17, column_out=3, mode=mode)
            data = small_dataset(17, n=12)
            cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=4, seed=3)
            trained, _ = colsplit_train(net, data, sample_projection(784, 10, seed=17), cfg)
            composed = compose(trained)
            assert np.any(composed.layers[0].weight != compose(net).layers[0].weight)
            for i in range(4):
                img = data.inputs[i].reshape(28, 28)
                got = forward(composed, columnize(data.inputs[i : i + 1], mode)[0]).output
                np.testing.assert_allclose(
                    got, stagewise_forward(trained, img), rtol=0, atol=1e-12
                )

    def test_empty_dataset_rejected(self):
        net = build_colsplit_net(seed=18, column_out=2)
        empty = Dataset(
            inputs=np.zeros((0, 784)), targets=np.zeros((0, 10)), labels=np.zeros(0, dtype=int)
        )
        with pytest.raises(ValueError, match="dataset is empty"):
            colsplit_evaluate(net, empty)

    def test_evaluate_matches_stagewise_predictions(self):
        net = build_colsplit_net(seed=10, column_out=3)
        data = small_dataset(10, n=5)
        result = colsplit_evaluate(net, data)
        assert result.predictions.shape == (5,)
        for i in range(5):
            img = data.inputs[i].reshape(28, 28)
            assert result.predictions[i] == int(np.argmax(stagewise_forward(net, img)))
        assert result.accuracy is not None and 0.0 <= result.accuracy <= 1.0


class TestBlockPreservationProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        co=st.integers(1, 4),
        mode=st.sampled_from(list(SplitMode)),
        algorithm=st.sampled_from(list(Algorithm)),
        seed=st.integers(0, 2**16),
    )
    def test_training_keeps_blocks_stagewise_forward_and_json(self, co, mode, algorithm, seed):
        net = build_colsplit_net(seed=seed, column_out=co, mode=mode)
        data = small_dataset(seed, n=8)
        cfg = TrainConfig(
            learning_rate=0.5, epochs=1, batch_size=4, seed=seed, algorithm=algorithm
        )
        trained, _ = colsplit_train(net, data, sample_projection(784, 10, seed=seed), cfg)
        assert trained.mode is mode
        w1 = trained.network.layers[0].weight
        assert w1.shape == (28 * co, 784)
        assert np.all(w1[~block_mask(co)] == 0.0)
        assert np.any(w1 != net.network.layers[0].weight)
        for i in range(2):
            got = forward(trained.network, columnize(data.inputs[i : i + 1], mode)[0]).output
            ref = stagewise_forward(trained, data.inputs[i].reshape(28, 28))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        back = ColumnSplitNet.from_json(trained.to_json(), mode)
        assert back.mode is mode
        for la, lb in zip(trained.network.layers, back.network.layers):
            assert la.blocks.shape == lb.blocks.shape
            np.testing.assert_array_equal(la.blocks, lb.blocks)
            assert la.activation is lb.activation


class TestSerialization:
    def test_round_trip_preserves_weights(self):
        net = build_colsplit_net(seed=11, column_out=2)
        back = ColumnSplitNet.from_json(net.to_json())
        assert back.network.layers[0].blocks.shape == (28, 2, 28)
        for la, lb in zip(compose(net).layers, compose(back).layers):
            assert la.blocks.shape == lb.blocks.shape
            np.testing.assert_array_equal(la.blocks, lb.blocks)
            assert la.activation is lb.activation
        assert back.mode is SplitMode.COLUMN

    def test_round_trip_mode_argument(self):
        net = build_colsplit_net(seed=12, column_out=2, mode=SplitMode.ROW)
        back = ColumnSplitNet.from_json(net.to_json(), mode=SplitMode.ROW)
        assert back.mode is SplitMode.ROW

    def test_dense_first_stage_rejected(self):
        dense = build_network(
            (LayerSpec(784, 56, Activation.RELU), LayerSpec(56, 10, Activation.SOFTMAX)),
            seed=0,
        )
        with pytest.raises(ValueError, match="28 column blocks"):
            ColumnSplitNet.from_json(dense.to_json())

    def test_wrong_depth_rejected(self):
        stage1 = build_colsplit_net(seed=0, column_out=2).network.layers[0]
        with pytest.raises(ValueError, match="needs an aggregator"):
            ColumnSplitNet.from_json(Network((stage1,)).to_json())

    def test_wrong_input_size_rejected(self):
        small = build_network(
            (LayerSpec(100, 56, Activation.RELU), LayerSpec(56, 10, Activation.SOFTMAX)),
            seed=0,
        )
        with pytest.raises(ValueError, match="28 column blocks"):
            ColumnSplitNet.from_json(small.to_json())

    def test_indivisible_stage_width_rejected(self):
        doc = json.loads(build_colsplit_net(seed=0, column_out=2).to_json())
        doc["layers"][0]["out_dim"] = 30
        with pytest.raises(ValueError, match="dividing 30x784"):
            ColumnSplitNet.from_json(json.dumps(doc))


class TestConfusionMatrix:
    def test_hand_example(self):
        m = confusion_matrix(np.array([0, 1, 1, 3]), np.array([0, 1, 2, 3]))
        assert m.shape == (10, 10)
        assert m[0, 0] == 1 and m[1, 1] == 1 and m[2, 1] == 1 and m[3, 3] == 1
        assert m.sum() == 4

    def test_rows_count_true_labels(self):
        rng = np.random.default_rng(13)
        truth = rng.integers(0, 10, 200)
        preds = rng.integers(0, 10, 200)
        m = confusion_matrix(preds, truth)
        for i in range(10):
            assert m[i].sum() == int(np.sum(truth == i))
        assert m.sum() == 200

    def test_perfect_predictions_are_diagonal(self):
        truth = np.repeat(np.arange(10), 3)
        m = confusion_matrix(truth, truth)
        np.testing.assert_array_equal(m, np.diag(np.full(10, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            confusion_matrix(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError, match="outside 0..9"):
            confusion_matrix(np.array([10]), np.array([0]))
        with pytest.raises(ValueError, match="outside 0..9"):
            confusion_matrix(np.array([0]), np.array([-1]))
