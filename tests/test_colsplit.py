import tracemalloc

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
    load_mnist,
    modulate_input,
    one_hot,
    output_error,
    sample_projection,
    split_columns,
    stagewise_forward,
    train,
    two_pass_updates,
)
from twopass import trainer
from twopass.colsplit import _columnized

from conftest import block_diag, reference_forward, reference_updates


def block_mask(column_out: int) -> np.ndarray:
    mask = np.zeros((28 * column_out, 784), dtype=bool)
    for j in range(28):
        mask[j * column_out : (j + 1) * column_out, j * 28 : (j + 1) * 28] = True
    return mask


# The split's one mode, as the benchmark reads it from the model and passes
# it to columnize.
MODES = [ColumnSplitNet.mode]


def random_image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((28, 28))


def dense_weights(composed: Network) -> list[np.ndarray]:
    """The 2-D weights of a composed net, built from its blocks with plain numpy."""
    return [block_diag(layer.blocks) for layer in composed.layers]


class TestSplitColumns:
    def test_column_mode_pieces_are_image_columns(self):
        img = random_image(0)
        pieces = split_columns(img)
        assert pieces.shape == (28, 28)
        for c in range(28):
            np.testing.assert_array_equal(pieces[c], img[:, c])
        # piece c, entry r is pixel (r, c)
        assert pieces[5][3] == img[3, 5]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="28x28"):
            split_columns(np.zeros((28, 27)))


class TestColumnize:
    def test_column_mode_reorders_row_major_pixels(self):
        img = random_image(3)
        flat = img.reshape(1, 784)
        out = columnize(flat)
        for r in range(28):
            for c in range(0, 28, 5):
                assert out[0, 28 * c + r] == img[r, c]

    def test_column_pieces_become_contiguous(self):
        img = random_image(4)
        out = columnize(img.reshape(1, 784))
        pieces = split_columns(img)
        for j in range(28):
            np.testing.assert_array_equal(out[0, j * 28 : (j + 1) * 28], pieces[j])

    @pytest.mark.parametrize("mode", MODES)
    def test_bytes_stay_bytes_and_match_the_float_result(self, mode):
        pixels = np.random.default_rng(7).integers(0, 256, (3, 784), dtype=np.uint8)
        out = columnize(pixels, mode)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, columnize(pixels / 255.0, mode) * 255.0)

    def test_column_mode_is_an_involution(self):
        flat = np.random.default_rng(6).random((2, 784))
        np.testing.assert_array_equal(columnize(columnize(flat)), flat)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="784"):
            columnize(np.zeros((2, 28)))

    @pytest.mark.parametrize("mode", ["row", "diagonal", "COLUMN", None])
    def test_modes_other_than_column_rejected(self, mode):
        flat = np.random.default_rng(6).random((2, 784))
        np.testing.assert_array_equal(columnize(flat, "column"), columnize(flat))
        with pytest.raises(ValueError, match=f"mode must be 'column', got {mode!r}"):
            columnize(flat, mode)


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
        net = build_colsplit_net(seed=2, column_out=5)
        composed = compose(net)
        for seed in range(4):
            img = random_image(10 + seed)
            via_composed = forward(composed, columnize(img.reshape(1, 784))[0]).output
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

    def test_views_are_read_from_the_network(self):
        net = build_colsplit_net(seed=0, column_out=3)
        stage1 = net.network.layers[0]
        assert len(net.column_nets) == 28
        for block, colnet in zip(stage1.blocks, net.column_nets):
            assert colnet.depth == 1 and colnet.layers[0].activation is Activation.RELU
            np.testing.assert_array_equal(colnet.layers[0].blocks, block[None])
        assert net.aggregator.layers == net.network.layers[1:]
        assert (net.column_out, net.network.in_dim, net.network.out_dim) == (3, 784, 10)


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

    @pytest.mark.parametrize("value", [2.5, True, 2.0, "2"], ids=repr)
    def test_column_out_that_is_not_an_integer_rejected(self, value):
        # 2.5 used to reach init_weights and fail there with a TypeError.
        with pytest.raises(ValueError, match=rf"column_out must be an integer >= 1, got {value!r}"):
            build_colsplit_net(seed=0, column_out=value)


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
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=6, seed=0)
        # Take the first epoch's batch as the trainer does, so the stored
        # targets match its forward pass bit for bit.
        order = np.random.default_rng(cfg.seed).permutation(6)
        outputs = np.empty(data.targets.shape)
        xb = trainer._batch(columnize(data.inputs), order)
        outputs[order] = forward(composed, xb).output.T
        perfect = Dataset(inputs=data.inputs, targets=outputs, labels=data.labels)
        proj = sample_projection(784, 10, seed=7)
        trained, history = colsplit_train(net, perfect, proj, cfg)
        for la, lb in zip(compose(net).layers, compose(trained).layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
        assert all(r.mse == 0.0 for r in history)

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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_blocked_updates_match_dense_reference(self, mode, algorithm):
        # Reference: the dense 2-D weights with plain numpy products and full
        # batch-mean outer products, whose off-block part is dropped.
        net = build_colsplit_net(seed=16, column_out=2)
        data = small_dataset(16, n=12)
        proj = sample_projection(784, 10, seed=16)
        blocked = compose(net)
        weights = dense_weights(blocked)
        activations = [layer.activation for layer in blocked.layers]
        on_block = block_mask(2)
        x_in, t_all = columnize(data.inputs, mode), data.targets.T
        for start in range(0, 12, 4):
            xb = trainer._batch(x_in, np.arange(start, start + 4))
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
        net = build_colsplit_net(seed=17, column_out=3)
        data = small_dataset(17, n=12)
        cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=4, seed=3)
        trained, _ = colsplit_train(net, data, sample_projection(784, 10, seed=17), cfg)
        composed = compose(trained)
        assert np.any(composed.layers[0].weight != compose(net).layers[0].weight)
        for i in range(4):
            img = data.inputs[i].reshape(28, 28)
            got = forward(composed, columnize(data.inputs[i : i + 1])[0]).output
            np.testing.assert_allclose(got, stagewise_forward(trained, img), rtol=0, atol=1e-12)

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


def byte_dataset(seed: int, n: int) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    pixels = rng.integers(0, 256, (n, 784), dtype=np.uint8)
    return Dataset(inputs=pixels, targets=one_hot(labels, 10), labels=labels)


class TestSplitIsAView:
    """The split is a reshape of the pixel bytes that reads as columnize's copy."""

    @pytest.mark.parametrize("mode", MODES)
    def test_columnized_data_shares_the_pixel_bytes(self, mode):
        for data in (byte_dataset(22, 6), small_dataset(22, 6)):
            split = _columnized(data)
            assert np.shares_memory(split.inputs, data.inputs)
            assert split.targets is data.targets and split.labels is data.labels
            read = split.inputs.transpose(0, 2, 1).reshape(len(data), 784)
            np.testing.assert_array_equal(read, columnize(data.inputs, mode))
        narrow = Dataset(np.zeros((2, 783)), np.zeros((2, 10)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="expected shape"):
            _columnized(narrow)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize(
        "idx", [np.array([7, 0, 3, 3, 11]), np.arange(2, 9)], ids=["index", "run"]
    )
    def test_batches_of_the_view_equal_batches_of_columnize(self, mode, dtype, idx):
        data = byte_dataset(23, 12)
        if dtype == np.float64:
            data = Dataset(data.inputs / 255.0, data.targets, data.labels)
        copied = columnize(data.inputs, mode)
        got = trainer._batch(_columnized(data).inputs, idx)
        assert got.tobytes() == trainer._batch(copied, idx).tobytes()
        reference = copied[idx].T / 255.0 if dtype == np.uint8 else copied[idx].T
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_training_on_the_view_equals_training_on_columnize(
        self, algorithm, synthetic_mnist_dir
    ):
        images, _ = load_mnist(synthetic_mnist_dir)
        data = Dataset(images.inputs[:256], images.targets[:256], images.labels[:256])
        net = build_colsplit_net(seed=24, column_out=3)
        proj = sample_projection(784, 10, seed=24)
        # 96 + 96 + 64 samples: three steps, the last one short.
        cfg = TrainConfig(learning_rate=0.05, batch_size=96, seed=24, algorithm=algorithm)
        trained, history = colsplit_train(net, data, proj, cfg)
        copied = Dataset(columnize(data.inputs), data.targets, data.labels)
        reference, reference_history = train(net.network, copied, proj, cfg)
        assert len(history) == 3
        assert [repr(r) for r in history] == [repr(r) for r in reference_history]
        for got, want in zip(trained.network.layers, reference.layers):
            assert got.blocks.tobytes() == want.blocks.tobytes()
        assert np.any(trained.network.layers[0].blocks != net.network.layers[0].blocks)

    def test_evaluate_holds_one_chunk_at_a_time(self):
        # At column_out 28 stage 1 is 784 wide, so a chunk's batch, z1 and x1
        # are 12 MiB apiece.  tracemalloc counts numpy's allocations exactly.
        net = build_colsplit_net(seed=25, column_out=28)
        data = byte_dataset(25, 3 * trainer.EVAL_BATCH)
        rows = np.arange(trainer.EVAL_BATCH)
        trace = forward(net.network, trainer._batch(_columnized(data).inputs, rows))
        chunk = trace.x0.nbytes + sum(a.nbytes for a in trace.zs + trace.xs)
        del trace
        tracemalloc.start()
        try:
            colsplit_evaluate(net, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * chunk, f"peak {peak / 2**20:.1f} MiB, chunk {chunk / 2**20:.1f} MiB"

    def test_train_holds_one_step_at_a_time(self):
        # A two-pass step on the 784-wide net builds seven full-width arrays:
        # the clean x0, z1 and x1, the modulated x0, z1 and x1, and the
        # layer-1 activation difference.  A step whose arrays outlive it
        # keeps up to six of them alive while the next step builds its own.
        net = build_colsplit_net(seed=26, column_out=28)
        data = byte_dataset(26, 4 * 64)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=64, seed=26)
        proj = sample_projection(784, 10, seed=26)
        step = 7 * 784 * 64 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            colsplit_train(net, data, proj, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * step, f"peak {peak / step:.2f}x one step's arrays"


class TestBlockPreservationProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        co=st.integers(1, 4),
        algorithm=st.sampled_from(list(Algorithm)),
        seed=st.integers(0, 2**16),
    )
    def test_training_keeps_blocks_and_stagewise_forward(self, co, algorithm, seed):
        net = build_colsplit_net(seed=seed, column_out=co)
        data = small_dataset(seed, n=8)
        cfg = TrainConfig(
            learning_rate=0.5, epochs=1, batch_size=4, seed=seed, algorithm=algorithm
        )
        trained, _ = colsplit_train(net, data, sample_projection(784, 10, seed=seed), cfg)
        w1 = trained.network.layers[0].weight
        assert w1.shape == (28 * co, 784)
        assert np.all(w1[~block_mask(co)] == 0.0)
        assert np.any(w1 != net.network.layers[0].weight)
        for i in range(2):
            got = forward(trained.network, columnize(data.inputs[i : i + 1])[0]).output
            ref = stagewise_forward(trained, data.inputs[i].reshape(28, 28))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        back = ColumnSplitNet(trained.network)
        for la, lb in zip(trained.network.layers, back.network.layers):
            assert la.blocks.shape == lb.blocks.shape
            np.testing.assert_array_equal(la.blocks, lb.blocks)
            assert la.activation is lb.activation


class TestFromNetwork:
    def test_network_keeps_weights(self):
        net = build_colsplit_net(seed=11, column_out=2)
        back = ColumnSplitNet(net.network)
        assert back.network.layers[0].blocks.shape == (28, 2, 28)
        for la, lb in zip(compose(net).layers, compose(back).layers):
            assert la.blocks.shape == lb.blocks.shape
            np.testing.assert_array_equal(la.blocks, lb.blocks)
            assert la.activation is lb.activation
        assert back.mode == "column"

    def test_mode_argument(self):
        # The split is always by column: the mode is a class constant, and
        # none of the constructors takes one.
        net = build_colsplit_net(seed=12, column_out=2)
        assert ColumnSplitNet.mode == net.mode == "column"
        with pytest.raises(TypeError):
            ColumnSplitNet(net.network, "column")
        with pytest.raises(TypeError):
            build_colsplit_net(seed=12, column_out=2, mode="column")
        with pytest.raises(TypeError):
            split_columns(random_image(12), "column")

    def test_dense_first_stage_rejected(self):
        dense = build_network(
            (LayerSpec(784, 56, Activation.RELU), LayerSpec(56, 10, Activation.SOFTMAX)),
            seed=0,
        )
        with pytest.raises(ValueError, match="28 column blocks"):
            ColumnSplitNet(dense)

    def test_wrong_depth_rejected(self):
        stage1 = build_colsplit_net(seed=0, column_out=2).network.layers[0]
        with pytest.raises(ValueError, match="needs an aggregator"):
            ColumnSplitNet(Network((stage1,)))

    def test_wrong_input_size_rejected(self):
        small = build_network(
            (LayerSpec(100, 56, Activation.RELU), LayerSpec(56, 10, Activation.SOFTMAX)),
            seed=0,
        )
        with pytest.raises(ValueError, match="28 column blocks"):
            ColumnSplitNet(small)

    def test_stage_of_other_blocks_rejected(self):
        # 784 inputs and 30 outputs, but as 2 blocks of 15x392.
        stage1 = Layer(np.ones((2, 15, 392)), Activation.RELU)
        aggregator = Layer(np.ones((10, 30)), Activation.SOFTMAX)
        with pytest.raises(ValueError, match=r"28 column blocks .* \(2, 15, 392\)"):
            ColumnSplitNet(Network((stage1, aggregator)))


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

    @pytest.mark.parametrize(
        "predictions, truth",
        [([1.7, 0.2], [1, 0]), ([1, 0], [1.0, 0.0]), ([np.nan], [0]), ([True], [1])],
        ids=["fraction", "float-truth", "nan", "bool"],
    )
    def test_non_integer_labels_rejected(self, predictions, truth):
        # Casting would count 1.7 as class 1 and turn NaN into a huge negative label.
        with pytest.raises(ValueError, match="labels must be integers"):
            confusion_matrix(predictions, truth)

