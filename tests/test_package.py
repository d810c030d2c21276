"""The package's public surface: the export list and the demos built on it."""

import importlib.util

import pytest

import twopass

from conftest import REPO_ROOT

# Every name the package exported before its re-export list was derived from
# the module lists, less the APIs deleted since (Loss, modulated_forward,
# MZISetting, mzi_transfer, MeshBackend, the Clements decomposition, the
# intensity detector, BlockLayer (now one Layer type), reassemble, the
# ProjectionMatrix and UpdateSet wrappers and DivergenceError, now plain
# arrays, tuples and NonFiniteError), plus realize_network.
PUBLIC_NAMES = {
    "Activation",
    "Algorithm",
    "Backend",
    "ColumnSplitNet",
    "DataError",
    "Dataset",
    "EvalResult",
    "ExperimentConfig",
    "ForwardTrace",
    "Layer",
    "LayerSpec",
    "MeshProgram",
    "MetricRecord",
    "MetricsHistory",
    "Network",
    "NonFiniteError",
    "PhotonicLayer",
    "RunReport",
    "SplitMode",
    "Task",
    "TrainConfig",
    "activation_apply",
    "activation_derivative",
    "apply_phase_noise",
    "apply_updates",
    "backprop_updates",
    "build_colsplit_net",
    "build_network",
    "colsplit_evaluate",
    "colsplit_train",
    "columnize",
    "compose",
    "confusion_matrix",
    "emit_metrics",
    "evaluate",
    "forward",
    "init_weights",
    "load_idx",
    "load_mnist",
    "main",
    "mesh_forward",
    "modulate_input",
    "normalize",
    "one_hot",
    "output_error",
    "realize_network",
    "realize_weight",
    "run_experiment",
    "sample_projection",
    "softmax_backward",
    "split_columns",
    "stagewise_forward",
    "train",
    "transfer_matrix",
    "two_pass_updates",
    "unitarity_residual",
    "write_idx",
    "xor_dataset",
}

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


class TestExports:
    def test_no_duplicates_and_every_name_resolves(self):
        names = twopass.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(twopass, name), name

    def test_covers_every_public_name(self):
        assert PUBLIC_NAMES <= set(twopass.__all__)


# Every demo but mnist_mlp, which needs the MNIST files, runs offline in
# under a second.
OFFLINE_DEMOS = [p for p in DEMOS if p.stem != "mnist_mlp"]


def load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    # Each demo's main() runs only under __main__, so importing runs nothing
    # but the demo's own imports from the package.
    assert callable(load_demo(path).main)


@pytest.mark.parametrize("path", OFFLINE_DEMOS, ids=[p.stem for p in OFFLINE_DEMOS])
def test_offline_demo_runs(path, capsys):
    # Running main() catches a demo that calls a deleted name at run time.
    load_demo(path).main()
    assert capsys.readouterr().out
