import json
import warnings
import weakref

import numpy as np
import pytest

from twopass import (
    Activation,
    Algorithm,
    Backend,
    Dataset,
    ExperimentConfig,
    Layer,
    MetricRecord,
    Network,
    NonFiniteError,
    RunReport,
    Task,
    emit_metrics,
    evaluate,
    forward,
    main,
    run_experiment,
)
from twopass import colsplit, harness, trainer
from twopass.harness import resolve_data_dir

from conftest import MNIST_FILES, REPO_ROOT, corrupt_gzip, spy_on


def xor_config(**overrides) -> ExperimentConfig:
    doc = {
        "task": "xor",
        "learning_rate": 0.1,
        "epochs": 2,
        "batch_size": 1,
        "seed": 0,
        "hidden": 16,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestExperimentConfig:
    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            task=Task.XOR,
            algorithm=Algorithm.BACKPROP,
            backend=Backend.PHOTONIC,
            learning_rate=0.3,
            epochs=7,
            hidden=9,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "path", sorted((REPO_ROOT / "configs").glob("*.json")), ids=lambda p: p.stem
    )
    def test_shipped_config_round_trips(self, path):
        doc = json.loads(path.read_text())
        cfg = ExperimentConfig.from_dict(doc)
        echoed = cfg.to_dict()
        assert ExperimentConfig.from_dict(echoed) == cfg
        assert {key: echoed[key] for key in doc} == doc

    def test_string_values_coerce_to_enums(self):
        cfg = ExperimentConfig.from_dict(
            {"task": "mnist_mlp", "algorithm": "backprop", "backend": "photonic"}
        )
        assert cfg.task is Task.MNIST_MLP
        assert cfg.algorithm is Algorithm.BACKPROP
        assert cfg.backend is Backend.PHOTONIC

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: momentum"):
            ExperimentConfig.from_dict({"task": "xor", "momentum": 0.9})

    def test_missing_task_rejected(self):
        with pytest.raises(ValueError, match="'task'"):
            ExperimentConfig.from_dict({"epochs": 3})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_dict([1, 2])

    def test_invalid_enum_value_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"task": "tic_tac_toe"})

    def test_field_validation(self):
        with pytest.raises(ValueError, match="projection_scale"):
            ExperimentConfig(task=Task.XOR, projection_scale=0.0)
        with pytest.raises(ValueError, match="hidden"):
            ExperimentConfig(task=Task.XOR, hidden=0)

    def test_train_config_mapping(self, monkeypatch):
        # train receives the run's training settings with the shuffle seed,
        # the third seed drawn from the run seed, in place of the run seed.
        calls = spy_on(monkeypatch, harness, "train")
        cfg = xor_config(learning_rate=0.25, epochs=9, batch_size=2, algorithm="backprop", seed=77)
        run_experiment(cfg)
        [args] = calls
        tc = args["cfg"]
        assert tc.learning_rate == 0.25
        assert tc.epochs == 9
        assert tc.batch_size == 2
        assert tc.seed == int(np.random.SeedSequence(77).generate_state(3)[2])
        assert tc.algorithm is Algorithm.BACKPROP


def make_report(with_confusion: bool) -> RunReport:
    history = (MetricRecord(1, 0.5, None), MetricRecord(2, 0.25, None))
    confusion = None
    if with_confusion:
        rows = np.diag(np.arange(10)).tolist()
        confusion = tuple(tuple(int(v) for v in row) for row in rows)
    return RunReport(
        config=xor_config(),
        final_mse=0.25,
        final_accuracy=0.75 if with_confusion else None,
        wall_time_s=1.5,
        history=history,
        confusion=confusion,
    )


def assert_report_document(doc: dict, report: RunReport) -> None:
    """The report.json fields hold exactly the report's values."""
    assert ExperimentConfig.from_dict(doc["config"]) == report.config
    assert doc["seed"] == report.config.seed
    assert doc["final_mse"] == report.final_mse
    assert doc["final_accuracy"] == report.final_accuracy
    assert doc["wall_time_s"] == report.wall_time_s
    assert doc["history"] == [
        {"iteration": r.iteration, "mse": r.mse, "accuracy": r.accuracy}
        for r in report.history
    ]
    expected = None if report.confusion is None else [list(row) for row in report.confusion]
    assert doc["confusion"] == expected


class TestRunReport:
    def test_json_round_trip_without_confusion(self):
        report = make_report(with_confusion=False)
        assert_report_document(json.loads(report.to_json()), report)

    def test_json_round_trip_with_confusion(self):
        report = make_report(with_confusion=True)
        doc = json.loads(report.to_json())
        assert_report_document(doc, report)
        assert doc["confusion"][3][3] == 3

    def test_json_document_shape(self):
        doc = json.loads(make_report(with_confusion=True).to_json())
        assert set(doc) == {
            "config",
            "seed",
            "final_mse",
            "final_accuracy",
            "wall_time_s",
            "history",
            "confusion",
        }
        assert doc["history"][0] == {"iteration": 1, "mse": 0.5, "accuracy": None}


class TestRunExperiment:
    def test_xor_run_is_deterministic(self):
        a = run_experiment(xor_config())
        b = run_experiment(xor_config())
        assert a.final_mse == b.final_mse
        assert a.history == b.history

    def test_xor_run_shape(self):
        report = run_experiment(xor_config())
        # 4 samples, batch 1, 2 epochs
        assert len(report.history) == 8
        assert [r.iteration for r in report.history] == list(range(1, 9))
        assert report.final_accuracy is None
        assert report.confusion is None
        assert report.wall_time_s > 0.0

    def test_seed_changes_trajectory(self):
        a = run_experiment(xor_config(seed=0))
        b = run_experiment(xor_config(seed=1))
        assert a.history[0].mse != b.history[0].mse

    def test_photonic_backend_matches_dense(self):
        dense = run_experiment(xor_config(epochs=1))
        photonic = run_experiment(xor_config(epochs=1, backend="photonic"))
        assert photonic.final_mse == pytest.approx(dense.final_mse, abs=1e-5)
        for rd, rp in zip(dense.history, photonic.history):
            assert rp.mse == pytest.approx(rd.mse, abs=1e-5)

    def test_evaluation_overflow_reports_divergence(self):
        # A run can end with weights that are still finite but overflow on
        # the held-out forward pass; evaluate must report that as divergence,
        # without leaking an overflow warning.
        net = Network(
            (
                Layer(np.array([[1e200]]), Activation.SQUARE),
                Layer(np.array([[1.0]]), Activation.IDENTITY),
            )
        )
        data = Dataset(
            inputs=np.array([[1.0]]),
            targets=np.array([[0.0]]),
            labels=np.zeros(1, dtype=int),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                evaluate(net, data)

    def test_evaluation_divergence_exits_with_code_three(self, tmp_path, monkeypatch, capsys):
        def diverging_evaluate(model, data, realize=None):
            raise NonFiniteError("output error contains non-finite values")

        monkeypatch.setattr(harness, "evaluate", diverging_evaluate)
        cfg = write_config(tmp_path, task="xor", epochs=1, batch_size=1)
        assert main([cfg, "--out-dir", str(tmp_path / "out")]) == 3
        assert "divergence: output error contains non-finite values" in capsys.readouterr().err

    def test_overflowing_evaluation_mse_exits_with_code_three(self, tmp_path, monkeypatch, capsys):
        # Training returns finite weights whose test mse overflows: the run
        # writes no "final_mse": Infinity, and leaves no output directory.
        net = Network((Layer(np.full((1, 2), 1e40), "square"), Layer([[1.0]], "square")))
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: (net, ()))
        out = tmp_path / "out"
        assert main(["--task", "xor", "--epochs", "1", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("divergence:")
        assert not out.exists()

    def test_evaluation_bug_is_not_reported_as_divergence(self, tmp_path, monkeypatch):
        def broken_evaluate(model, data, realize=None):
            raise ValueError("evaluation shape bug")

        monkeypatch.setattr(harness, "evaluate", broken_evaluate)
        cfg = write_config(tmp_path, task="xor", epochs=1, batch_size=1)
        with pytest.raises(ValueError, match="evaluation shape bug"):
            main([cfg, "--out-dir", str(tmp_path / "out")])


class TestBenchmarkHookPoints:
    """perfbench/workload.py and perfbench/spans.py replace these module
    attributes at run time and bind ``data`` and ``cfg`` by name, so
    run_experiment must look them up when it calls them and keep those names.
    """

    def test_run_experiment_calls_every_hook_point(self, monkeypatch, synthetic_mnist_dir):
        hooks = [
            (harness, "train"),
            (harness, "colsplit_train"),
            (harness, "evaluate"),
            (harness, "colsplit_evaluate"),
            (colsplit, "train"),
            (trainer, "output_error"),
        ]
        calls = {
            f"{m.__name__.rsplit('.', 1)[1]}.{name}": spy_on(monkeypatch, m, name)
            for m, name in hooks
        }
        colsplit_cfg = ExperimentConfig(
            task=Task.MNIST_COLSPLIT, hidden=2, seed=5, data_dir=str(synthetic_mnist_dir)
        )
        run_experiment(xor_config())
        run_experiment(colsplit_cfg)
        for name, seen in calls.items():
            assert seen, f"{name} was never called"
        for name in ("harness.train", "harness.colsplit_train", "colsplit.train"):
            for args in calls[name]:
                assert isinstance(args["data"], Dataset)

        # The column-split train gets the same training settings and shuffle
        # seed as train does in test_train_config_mapping.
        def settings(cfg, seed):
            return (cfg.learning_rate, cfg.epochs, cfg.batch_size, cfg.algorithm, seed)

        def expected(cfg):
            return settings(cfg, int(np.random.SeedSequence(cfg.seed).generate_state(3)[2]))

        def received(name):
            return [settings(args["cfg"], args["cfg"].seed) for args in calls[name]]

        for name in ("harness.colsplit_train", "colsplit.train"):
            assert received(name) == [expected(colsplit_cfg)]
        for name in ("harness.evaluate", "harness.colsplit_evaluate"):
            for args in calls[name]:
                assert isinstance(args["data"], Dataset)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_train_reaches_the_step_hooks_through_trainer(self, monkeypatch, algorithm):
        # perfbench/workload.py times one step per trainer.output_error call
        # made inside train; perfbench/spans.py splits a step into stages by
        # the trainer attributes it replaces, and reads cfg as train's 4th
        # positional argument; a forward pass right after modulate_input is
        # the modulated pass.  4 samples in batches of 3 give a short last batch.
        names = ("output_error", "modulate_input", "two_pass_updates", "backprop_updates")
        calls = {name: spy_on(monkeypatch, trainer, name) for name in (*names, "apply_updates")}
        # Per forward call: the modulate_input calls made so far, and its network's depth.
        passes = []
        forward = trainer.forward

        def recording_forward(net, *args, **kwargs):
            passes.append((len(calls["modulate_input"]), net.depth))
            return forward(net, *args, **kwargs)

        monkeypatch.setattr(trainer, "forward", recording_forward)
        seen = []
        fit = harness.train

        def recording_train(*args, **kwargs):
            before = len(calls["output_error"]), len(passes)
            result = fit(*args, **kwargs)
            errors = len(calls["output_error"]) - before[0]
            seen.append((args, kwargs, errors, len(result[1]), passes[before[1] :]))
            return result

        monkeypatch.setattr(harness, "train", recording_train)
        run_experiment(xor_config(algorithm=algorithm.value, batch_size=3))
        ((args, kwargs, errors, steps, step_passes),) = seen
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        assert (cfg.algorithm, cfg.batch_size) == (algorithm, 3)
        assert errors == steps == 4
        two_pass = algorithm is Algorithm.TWO_PASS
        expected = {
            "modulate_input": steps if two_pass else 0,
            "two_pass_updates": steps if two_pass else 0,
            "backprop_updates": 0 if two_pass else steps,
            "apply_updates": steps,
        }
        assert {name: len(calls[name]) for name in expected} == expected
        # XOR's network has two layers; the modulated pass runs the hidden one.
        if two_pass:
            assert step_passes == [p for i in range(steps) for p in ((i, 2), (i + 1, 1))]
        else:
            assert step_passes == [(0, 2)] * steps

    def test_post_run_reads_of_the_trained_colsplit_model(self, monkeypatch, synthetic_mnist_dir):
        # What the benchmark reads around a column-split run: the model
        # harness.colsplit_train receives and returns, the composed network
        # returned by colsplit.train (perfbench/workload.py), and every
        # layer's dense .weight of the network train receives (perfbench/spans.py).
        kept = {}

        def keep(module, name):
            fn = getattr(module, name)

            def kept_fn(*args, **kwargs):
                result = fn(*args, **kwargs)
                kept.setdefault(name, []).append((args, result[0]))
                return result

            monkeypatch.setattr(module, name, kept_fn)

        keep(harness, "colsplit_train")
        keep(colsplit, "train")
        evaluated = spy_on(monkeypatch, harness, "colsplit_evaluate")
        run_experiment(
            ExperimentConfig(task=Task.MNIST_COLSPLIT, hidden=2, data_dir=str(synthetic_mnist_dir))
        )
        ((colsplit_args, trained),) = kept["colsplit_train"]
        ((train_args, trained_composed),) = kept["train"]
        # perfbench/spans.py reads the model colsplit_train receives, and
        # perfbench/workload.py the one it returns.
        for model in (colsplit_args[0], trained):
            assert len(model.column_nets) == 28
            assert model.column_out == 2
        co = trained.column_out
        on_block = np.kron(np.eye(28), np.ones((co, 28))) == 1.0
        for composed in (colsplit.compose(trained), trained_composed):
            w1 = composed.layers[0].weight
            assert isinstance(w1, np.ndarray) and w1.shape == (28 * co, 784)
            assert np.all(w1[~on_block] == 0.0)
            assert np.any(w1[on_block] != 0.0)
        for net in (train_args[0], trained_composed):
            for layer in net.layers:
                assert layer.weight.shape == (layer.out_dim, layer.in_dim)
        composed = colsplit.compose(trained)
        images = evaluated[0]["data"].inputs
        for r in range(8):
            image = images[r].reshape(28, 28)
            ref = colsplit.stagewise_forward(trained, image)
            # perfbench/workload.py passes the trained model's mode back to columnize.
            x = colsplit.columnize(images[r : r + 1], trained.mode)[0]
            np.testing.assert_array_equal(x, colsplit.split_columns(image).ravel())
            np.testing.assert_allclose(forward(composed, x).output, ref, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="mode must be 'column', got 'row'"):
            colsplit.columnize(images[:1], "row")


class TestTrainingSetRelease:
    @pytest.mark.parametrize(
        "task, fit, score",
        [
            (Task.MNIST_COLSPLIT, "colsplit_train", "colsplit_evaluate"),
            (Task.MNIST_MLP, "train", "evaluate"),
        ],
    )
    def test_training_set_is_freed_before_evaluation(
        self, monkeypatch, synthetic_mnist_dir, task, fit, score
    ):
        # The spies hold the training set only weakly, so once training has
        # returned, run_experiment's own reference is the one left to drop.
        refs, alive = [], []
        real_fit, real_score = getattr(harness, fit), getattr(harness, score)

        def spy_fit(net, data, *args, **kwargs):
            refs.append(weakref.ref(data))
            return real_fit(net, data, *args, **kwargs)

        def spy_score(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return real_score(*args, **kwargs)

        monkeypatch.setattr(harness, fit, spy_fit)
        monkeypatch.setattr(harness, score, spy_score)
        run_experiment(ExperimentConfig(task=task, hidden=2, data_dir=str(synthetic_mnist_dir)))
        assert len(refs) == 1 and alive == [False]


class TestEmitMetrics:
    def test_metrics_csv_exact_content(self, tmp_path):
        report = make_report(with_confusion=False)
        written = emit_metrics(report, tmp_path)
        assert [p.name for p in written] == ["metrics.csv", "report.json"]
        content = (tmp_path / "metrics.csv").read_text()
        assert content == "iteration,mse,accuracy\n1,0.5,\n2,0.25,\n"

    def test_report_json_round_trips_from_disk(self, tmp_path):
        report = make_report(with_confusion=True)
        emit_metrics(report, tmp_path)
        text = (tmp_path / "report.json").read_text()
        assert text.endswith("\n")
        assert_report_document(json.loads(text), report)

    def test_confusion_csv_content(self, tmp_path):
        report = make_report(with_confusion=True)
        written = emit_metrics(report, tmp_path)
        assert written[-1].name == "confusion.csv"
        rows = (tmp_path / "confusion.csv").read_text().strip().split("\n")
        assert len(rows) == 10
        parsed = [[int(v) for v in row.split(",")] for row in rows]
        assert parsed[7][7] == 7
        assert sum(sum(r) for r in parsed) == sum(range(10))

    def test_accuracy_column_populated_for_classification(self, tmp_path):
        history = (MetricRecord(1, 0.5, 0.125),)
        report = RunReport(
            config=xor_config(),
            final_mse=0.5,
            final_accuracy=0.125,
            wall_time_s=0.1,
            history=history,
            confusion=None,
        )
        emit_metrics(report, tmp_path)
        assert (tmp_path / "metrics.csv").read_text() == "iteration,mse,accuracy\n1,0.5,0.125\n"

    def test_creates_nested_output_directory(self, tmp_path):
        report = make_report(with_confusion=False)
        out = tmp_path / "a" / "b"
        emit_metrics(report, out)
        assert (out / "metrics.csv").exists()


def write_config(tmp_path, **doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestMain:
    def test_successful_xor_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, task="xor", learning_rate=0.1, epochs=2, batch_size=1, hidden=16
        )
        out = tmp_path / "out"
        assert main([cfg, "--out-dir", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "task=xor" in stdout
        assert f"out={out}" in stdout

    def test_shipped_xor_config_runs(self, tmp_path):
        cfg = REPO_ROOT / "configs" / "xor_twopass.json"
        assert main([str(cfg), "--epochs", "2", "--out-dir", str(tmp_path / "o")]) == 0

    def test_metrics_are_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, task="xor", learning_rate=0.1, epochs=3, batch_size=1, hidden=16
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([cfg, "--out-dir", str(out_a)]) == 0
        assert main([cfg, "--out-dir", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg = write_config(
            tmp_path, task="xor", learning_rate=0.1, epochs=50, batch_size=1, hidden=16
        )
        out = tmp_path / "out"
        assert main([cfg, "--epochs", "1", "--seed", "5", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["epochs"] == 1
        assert doc["config"]["seed"] == 5
        assert len(doc["history"]) == 4

    def test_bad_flag_value_returns_config_error(self, capsys):
        assert main(["--task", "tic_tac_toe"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unparseable_flag_returns_config_error(self, capsys):
        assert main(["--epochs", "three"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_returns_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, task="xor", momentum=0.9)
        assert main([cfg]) == 1
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [
            {"lr_decay": 0.5},
            {"lr_decay_at": 0.5},
            {"split": "row"},
            {"task": "xor", "shuffle": True},
        ],
        ids=lambda entry: list(entry)[-1],
    )
    def test_removed_key_returns_config_error_before_data_loads(self, entry, tmp_path, capsys):
        # The schedule, the split and shuffling are fixed in code; an empty
        # data directory would give exit 2, and XOR exit 0, if the config passed.
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        doc = {"task": "mnist_mlp", "data_dir": str(empty), "out_dir": str(out), **entry}
        assert main([write_config(tmp_path, **doc)]) == 1
        assert f"config error: unknown config keys: {list(entry)[-1]}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_returns_config_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_non_object_config_file_returns_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main([str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--epochs", "0"),
            ("--lr", "-1"),
            ("--batch", "0"),
            ("--lr", "nan"),
            ("--lr", "inf"),
            ("--seed", "-1"),
        ],
    )
    @pytest.mark.parametrize("task", ["xor", "mnist_mlp"])
    def test_bad_training_value_returns_config_error(self, task, flags, tmp_path, capsys):
        # Rejected while the config is parsed, before any data is looked
        # for: the empty data directory would otherwise give exit 2, and a
        # non-finite rate on XOR exit 3.
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = ["--task", task, *flags, "--data-dir", str(empty), "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "entry",
        [
            {"projection_scale": float("inf")},
            pytest.param({"projection_scale": True}, id="projection_scale_true"),
            pytest.param({"learning_rate": True}, id="learning_rate_true"),
            {"epochs": 1.5},
            {"batch_size": 2.5},
            {"hidden": 2.5},
            {"seed": 1.5},
            {"data_dir": 5},
            {"out_dir": 5},
            {"shuffle": "no"},  # a removed key: refused whatever its value
        ],
        ids=lambda entry: next(iter(entry)),
    )
    @pytest.mark.parametrize("task", ["xor", "mnist_mlp"])
    def test_bad_config_file_value_returns_config_error(self, task, entry, tmp_path, capsys):
        # JSON admits Infinity, fractional counts and values of the wrong
        # type, which no flag can give.
        empty = tmp_path / "empty"
        empty.mkdir()
        doc = {"task": task, "data_dir": str(empty), "out_dir": str(tmp_path / "out"), **entry}
        assert main([write_config(tmp_path, **doc)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_mnist_returns_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default out dir is made under the working directory
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["--task", "mnist_mlp", "--data-dir", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert str(empty) in err

    def test_env_var_supplies_data_dir(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from_env"
        env_dir.mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TWOPASS_DATA_DIR", str(env_dir))
        assert main(["--task", "mnist_mlp"]) == 2
        assert str(env_dir) in capsys.readouterr().err

    def test_explicit_data_dir_beats_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TWOPASS_DATA_DIR", str(tmp_path / "from_env"))
        explicit = tmp_path / "explicit"
        explicit.mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["--task", "mnist_mlp", "--data-dir", str(explicit)]) == 2
        err = capsys.readouterr().err
        assert str(explicit) in err
        assert "from_env" not in err

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_corrupt_gzip_returns_data_error(self, damage, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        bad = data_dir / f"{MNIST_FILES[0]}.gz"
        bad.write_bytes(corrupt_gzip(damage))
        out = str(tmp_path / "out")
        assert main(["--task", "mnist_mlp", "--data-dir", str(data_dir), "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err

    def test_uncreatable_out_dir_is_a_config_error_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = spy_on(monkeypatch, harness, "run_experiment")
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["--task", "xor", "--epochs", "1", "--out-dir", str(blocker / "sub")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert calls == []

    def test_divergent_run_returns_exit_code_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, task="xor", learning_rate=1000.0, epochs=50, batch_size=1
        )
        assert main([cfg, "--out-dir", str(tmp_path / "out")]) == 3
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("code", [2, 3])
    def test_failed_run_removes_the_empty_directories_it_made(self, code, tmp_path, capsys):
        kept = tmp_path / "kept"
        (kept / "other").mkdir(parents=True)
        if code == 2:
            argv = ["--task", "mnist_mlp", "--data-dir", str(tmp_path / "nonexistent")]
        else:
            argv = [write_config(tmp_path, task="xor", learning_rate=1000.0, epochs=50)]
        assert main(argv + ["--out-dir", str(kept / "a" / "b" / "c")]) == code
        assert capsys.readouterr().err.startswith(("data error:", "divergence:"))
        # Made by the run: a, b and c.  There before it: kept and kept/other.
        assert sorted(p.name for p in kept.iterdir()) == ["other"]


class TestResolveDataDir:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("TWOPASS_DATA_DIR", "/env/dir")
        cfg = ExperimentConfig(task=Task.MNIST_MLP, data_dir="/explicit")
        assert resolve_data_dir(cfg) == "/explicit"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("TWOPASS_DATA_DIR", "/env/dir")
        cfg = ExperimentConfig(task=Task.MNIST_MLP)
        assert resolve_data_dir(cfg) == "/env/dir"

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("TWOPASS_DATA_DIR", raising=False)
        cfg = ExperimentConfig(task=Task.MNIST_MLP)
        assert resolve_data_dir(cfg) == "data"
