"""End-to-end behavior checks: convergence, accuracy targets, realization
fidelity, statistical properties, and artifact determinism.

The MNIST-scale checks need the four IDX files on disk (see conftest) and are
marked slow; everything else runs in seconds from a fresh checkout.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest

from twopass import (
    Activation,
    Algorithm,
    Dataset,
    ExperimentConfig,
    LayerSpec,
    NonFiniteError,
    TrainConfig,
    apply_updates,
    backprop_updates,
    build_colsplit_net,
    build_network,
    colsplit_train,
    columnize,
    compose,
    evaluate,
    forward,
    load_mnist,
    main,
    modulate_input,
    output_error,
    realize_network,
    realize_weight,
    run_experiment,
    sample_projection,
    train,
    two_pass_updates,
)
from twopass import harness
from twopass.photonic import _input_isometry

from conftest import REPO_ROOT, spy_on
from test_photonic import transfer_matrix, unitarity_residual

CONFIG_DIR = REPO_ROOT / "configs"


def load_config(name: str, **overrides) -> ExperimentConfig:
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestXorConvergence:
    def test_ten_seed_sweep_converges_fast(self):
        # 240 epochs x 4 one-sample batches = 960 update steps per seed.
        start = time.perf_counter()
        successes = 0
        for seed in range(10):
            cfg = load_config("xor_twopass.json", seed=seed)
            try:
                report = run_experiment(cfg)
            except NonFiniteError:
                continue
            assert len(report.history) == 960
            if report.final_mse < 0.05:
                successes += 1
        elapsed = time.perf_counter() - start
        assert successes >= 8, f"only {successes}/10 seeds reached MSE < 0.05"
        assert elapsed < 5.0, f"10-seed sweep took {elapsed:.2f}s"


def run_shipped_configs(names, evaluate_name: str, data_dir) -> dict:
    """Run each shipped config through ``run_experiment`` on ``data_dir``.

    Maps each algorithm to the trained model (as the harness hands it to its
    evaluation hook) and the run's report.
    """
    out = {}
    for name in names:
        cfg = load_config(name, data_dir=str(data_dir))
        with pytest.MonkeyPatch.context() as mp:
            evaluated = spy_on(mp, harness, evaluate_name)
            report = run_experiment(cfg)
        out[cfg.algorithm] = (evaluated[0]["net"], report)
    return out


@pytest.fixture(scope="module")
def mlp_results(mnist_dir):
    """Both MLP models trained by the shipped configs, with their reports."""
    names = ("mnist_mlp_twopass.json", "mnist_mlp_backprop.json")
    return run_shipped_configs(names, "evaluate", mnist_dir)


@pytest.fixture(scope="module")
def colsplit_results(mnist_dir):
    """Both column-split models trained by the shipped configs, with their reports."""
    names = ("mnist_colsplit_twopass.json", "mnist_colsplit_backprop.json")
    return run_shipped_configs(names, "colsplit_evaluate", mnist_dir)


@pytest.mark.slow
class TestMnistMlp:
    def test_two_pass_reaches_target_accuracy(self, mlp_results):
        _, report = mlp_results[Algorithm.TWO_PASS]
        assert report.final_accuracy >= 0.95, f"two-pass test accuracy {report.final_accuracy:.4f}"

    def test_backprop_reaches_target_accuracy(self, mlp_results):
        _, report = mlp_results[Algorithm.BACKPROP]
        assert report.final_accuracy >= 0.97, f"backprop test accuracy {report.final_accuracy:.4f}"

    def test_two_pass_tracks_backprop(self, mlp_results):
        two_pass = mlp_results[Algorithm.TWO_PASS][1].final_accuracy
        backprop = mlp_results[Algorithm.BACKPROP][1].final_accuracy
        gap = backprop - two_pass
        assert gap <= 0.035, f"accuracy gap {gap * 100:.2f} percentage points"


@pytest.mark.slow
class TestMnistColumnSplit:
    def test_two_pass_reaches_target_accuracy(self, colsplit_results):
        _, report = colsplit_results[Algorithm.TWO_PASS]
        assert report.final_accuracy >= 0.95, f"two-pass test accuracy {report.final_accuracy:.4f}"

    def test_backprop_reaches_target_accuracy(self, colsplit_results):
        _, report = colsplit_results[Algorithm.BACKPROP]
        assert report.final_accuracy >= 0.97, f"backprop test accuracy {report.final_accuracy:.4f}"

    def test_confusion_diagonal_dominates_every_class(self, colsplit_results):
        for _, report in colsplit_results.values():
            m = np.array(report.confusion)
            for i in range(10):
                off_diagonal = int(m[i].sum() - m[i, i])
                assert m[i, i] > off_diagonal, (
                    f"class {i}: {m[i, i]} correct vs {off_diagonal} confused"
                )


class TestZeroErrorFixedPoint:
    def test_hundred_random_nets_stay_put(self):
        rng = np.random.default_rng(2024)
        pool = (
            Activation.RELU,
            Activation.SIGMOID,
            Activation.IDENTITY,
            Activation.SQUARE,
            Activation.SOFTMAX,
        )
        for case in range(100):
            depth = int(rng.integers(1, 4))
            dims = [int(d) for d in rng.integers(1, 9, depth + 1)]
            specs = tuple(
                LayerSpec(dims[i], dims[i + 1], pool[int(rng.integers(0, len(pool)))])
                for i in range(depth)
            )
            net = build_network(specs, seed=case)
            width = int(rng.integers(1, 4))
            x0 = rng.random(dims[0]) if width == 1 else rng.random((dims[0], width))
            proj = sample_projection(dims[0], dims[-1], seed=case)

            clean = forward(net, x0)
            gamma = output_error(clean.output, clean.output)
            assert np.all(gamma == 0.0)
            modulated = forward(net, modulate_input(x0, proj, gamma))
            updates = two_pass_updates(net, clean, modulated, gamma)
            for dw in updates:
                assert np.all(dw == 0.0)
            after = apply_updates(net, updates, 0.5)
            for before_layer, after_layer in zip(net.layers, after.layers):
                np.testing.assert_array_equal(before_layer.weight, after_layer.weight)


class TestGradientOracle:
    def max_relative_error(self, specs, seed: int, width: int) -> float:
        from twopass import Layer, Network

        net = build_network(specs, seed=seed)
        rng = np.random.default_rng(seed)
        xb = rng.random((net.in_dim, width))
        tb = rng.random((net.out_dim, width))
        clean = forward(net, xb)
        gamma = output_error(clean.output, tb)
        analytic = backprop_updates(net, clean, gamma)

        def loss(candidate) -> float:
            out = forward(candidate, xb).output
            return float(0.5 * np.sum((out - tb) ** 2) / width)

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
        return worst

    def test_4_3_2_sigmoid_net(self):
        specs = (
            LayerSpec(4, 3, Activation.SIGMOID),
            LayerSpec(3, 2, Activation.SIGMOID),
        )
        assert self.max_relative_error(specs, seed=101, width=3) < 1e-4

    def test_10_8_3_softmax_net(self):
        specs = (
            LayerSpec(10, 8, Activation.SIGMOID),
            LayerSpec(8, 3, Activation.SOFTMAX),
        )
        assert self.max_relative_error(specs, seed=202, width=4) < 1e-4


class TestProjectionStatistics:
    def test_sample_variance_matches_design_value(self):
        proj = sample_projection(784, 128, seed=0)
        assert proj.size >= 100_000
        var = float(np.var(proj))
        assert abs(var - 1.9132e-5) / 1.9132e-5 < 0.05, f"sample variance {var:.4e}"


def realize_and_compare(trained, test_data):
    """Dense against realized evaluation of one trained MLP, plus per-layer mesh checks."""
    for layer in trained.layers:
        r = realize_weight(layer.weight)
        assert unitarity_residual(r.mesh_u) < 1e-10
        assert unitarity_residual(r.mesh_v) < 1e-10
    return evaluate(trained, test_data), evaluate(trained, test_data, realize=realize_network)


@pytest.mark.slow
class TestPhotonicEquivalence:
    def test_trained_model_realizes_on_meshes(self, mlp_results, mnist_data):
        _, test_data = mnist_data
        trained, dense_report = mlp_results[Algorithm.TWO_PASS]
        _, mesh_result = realize_and_compare(trained, test_data)

        realized = realize_network(trained)
        worst = 0.0
        for start in range(0, len(test_data), 2000):
            xb = (test_data.inputs[start : start + 2000] / 255.0).T
            dense_out = forward(trained, xb).output
            mesh_out = forward(realized, xb).output
            worst = max(worst, float(np.abs(dense_out - mesh_out).max()))
        assert worst < 1e-5, f"worst per-sample output difference {worst:.3e}"

        diff = abs(mesh_result.accuracy - dense_report.final_accuracy)
        assert diff <= 0.001, f"accuracy moved by {diff * 100:.3f} percentage points"


class TestPhotonicMnistShapeEquivalence:
    def test_trained_784_16_10_mlp_realizes_on_meshes(self, synthetic_mnist_dir):
        # Synthetic MNIST-shaped data (not MNIST): a dense-trained 784-16-10
        # MLP evaluated on all 10,000 test samples, dense and through its
        # realized meshes (12,408 + 120 MZIs on the first layer).
        train_data, test_data = load_mnist(synthetic_mnist_dir)
        net = build_network(
            (LayerSpec(784, 16, Activation.RELU), LayerSpec(16, 10, Activation.SOFTMAX)),
            seed=0,
        )
        proj = sample_projection(784, 10, seed=1)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=64, seed=2)
        trained, _ = train(net, train_data, proj, cfg)

        dense, mesh = realize_and_compare(trained, test_data)
        assert len(mesh.predictions) == 10000
        np.testing.assert_array_equal(mesh.predictions, dense.predictions)
        assert abs(mesh.mse - dense.mse) <= 1e-9

    def test_colsplit_training_through_meshes_matches_dense(self, synthetic_mnist_dir):
        # Synthetic MNIST-shaped data (not MNIST): four two-pass steps of the
        # column-split network, every forward pass through 28 realized 28x28
        # stage-1 meshes and the 10x784 aggregator, against dense training.
        train_data, _ = load_mnist(synthetic_mnist_dir)
        data = Dataset(train_data.inputs[:256], train_data.targets[:256], train_data.labels[:256])
        proj = sample_projection(784, 10, seed=4)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=64, seed=5)
        runs = {
            realize: colsplit_train(build_colsplit_net(seed=3), data, proj, cfg, realize=realize)
            for realize in (None, realize_network)
        }
        (dense_net, dense_hist), (mesh_net, mesh_hist) = runs[None], runs[realize_network]
        assert len(mesh_hist) == 4
        for a, b in zip(dense_hist, mesh_hist):
            assert abs(b.mse - a.mse) <= 1e-9
        composed = compose(mesh_net)
        np.testing.assert_allclose(
            composed.layers[0].blocks, compose(dense_net).layers[0].blocks, rtol=0, atol=1e-9
        )
        off_block = np.kron(np.eye(28), np.ones((28, 28))) == 0
        for stage1 in (composed.layers[0], realize_network(composed).layers[0]):
            assert stage1.blocks.shape == (28, 28, 28)
            assert np.all(stage1.weight[off_block] == 0.0)


class TestMnistShapeMemory:
    def test_loading_and_columnizing_stay_in_bytes(self, synthetic_mnist_dir):
        # The pixels stay uint8 (45 MiB for the train split) through loading
        # and the column reorder; float64 copies would take 359 MiB each.
        # tracemalloc counts numpy's allocations exactly, so the bound is not
        # noisy.
        tracemalloc.start()
        try:
            train_data, _ = load_mnist(synthetic_mnist_dir)
            columnize(train_data.inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestUnitaryRoundTrip:
    def test_hundred_random_unitaries_reconstruct(self):
        # Each unitary is programmed as a full triangular mesh by nulling.
        worst = 0.0
        for i in range(100):
            n = 2 + (i % 15)
            rng = np.random.default_rng(1000 + i)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(a)
            err = float(np.linalg.norm(transfer_matrix(_input_isometry(q)) - q))
            worst = max(worst, err)
        assert worst < 1e-8, f"worst reconstruction error {worst:.3e}"


class TestPhotonicXorEquivalence:
    def test_full_length_photonic_run_matches_dense(self, tmp_path):
        # All 240 epochs of the shipped config, every forward pass through
        # the realized meshes, against the same run on dense weights.
        config = str(CONFIG_DIR / "xor_twopass.json")
        reports = {}
        for backend in ("dense", "photonic"):
            out = tmp_path / backend
            assert main([config, "--backend", backend, "--out-dir", str(out)]) == 0
            reports[backend] = json.loads((out / "report.json").read_text())
        assert reports["photonic"]["config"]["backend"] == "photonic"
        assert len(reports["photonic"]["history"]) == 960
        assert reports["photonic"]["final_mse"] == pytest.approx(
            reports["dense"]["final_mse"], rel=1e-9, abs=0.0
        )


class TestDeterminism:
    def run_twice(self, config_path: str, tmp_path, extra=()):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([config_path, *extra, "--out-dir", str(out_a)]) == 0
        assert main([config_path, *extra, "--out-dir", str(out_b)]) == 0
        return out_a, out_b

    @pytest.mark.parametrize("backend", ["dense", "photonic"])
    def test_shipped_xor_config_is_byte_identical(self, tmp_path, backend):
        out_a, out_b = self.run_twice(
            str(CONFIG_DIR / "xor_twopass.json"), tmp_path, extra=("--backend", backend)
        )
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    @pytest.mark.slow
    def test_colsplit_config_at_mnist_shape_is_byte_identical(
        self, tmp_path, synthetic_mnist_dir, monkeypatch
    ):
        # Synthetic class-structured data, not MNIST: this runs the shipped
        # column-split CLI path at full MNIST shape and checks determinism,
        # the block structure of the trained stage 1 and the synthetic
        # confusion matrix, not MNIST accuracy.
        import twopass.colsplit

        stage1s = []
        real_train = twopass.colsplit.train

        def keep_stage1(*args, **kwargs):
            trained, history = real_train(*args, **kwargs)
            stage1s.append(trained.layers[0])
            return trained, history

        monkeypatch.setattr(twopass.colsplit, "train", keep_stage1)
        out_a, out_b = self.run_twice(
            str(CONFIG_DIR / "mnist_colsplit_twopass.json"),
            tmp_path,
            extra=("--epochs", "1", "--data-dir", str(synthetic_mnist_dir)),
        )
        for artifact in ("metrics.csv", "confusion.csv"):
            assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes()
        assert len((out_a / "metrics.csv").read_text().splitlines()) == 1 + 938
        confusion = np.loadtxt(out_a / "confusion.csv", delimiter=",", dtype=int)
        assert confusion.shape == (10, 10) and confusion.sum() == 10000
        for i, row in enumerate(confusion):
            off_diagonal = int(row.sum() - row[i])
            assert row[i] > off_diagonal, (
                f"synthetic class {i}: {row[i]} correct vs {off_diagonal} confused"
            )
        off_block = np.kron(np.eye(28), np.ones((28, 28))) == 0.0
        assert len(stage1s) == 2
        for stage1 in stage1s:
            w1 = stage1.weight
            assert w1.shape == (784, 784)
            assert np.count_nonzero(w1[off_block]) == 0
            assert np.count_nonzero(w1[~off_block]) > 0

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name",
        [
            "mnist_mlp_twopass.json",
            "mnist_mlp_backprop.json",
            "mnist_colsplit_twopass.json",
            "mnist_colsplit_backprop.json",
        ],
    )
    def test_shipped_mnist_configs_are_byte_identical(self, name, tmp_path, mnist_dir):
        # One epoch keeps the double run tractable; the artifact path and
        # seeding are identical to the full-length run.
        out_a, out_b = self.run_twice(
            str(CONFIG_DIR / name),
            tmp_path,
            extra=("--epochs", "1", "--data-dir", str(mnist_dir)),
        )
        for artifact in ("metrics.csv", "confusion.csv"):
            assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes()
