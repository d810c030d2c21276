"""The public surface: the export list, the demos built on it and `python -m twopass`."""

import hashlib
import importlib.util
import os
import subprocess
import sys

import pytest

import twopass

from conftest import REPO_ROOT

# Every name the package exported before its re-export list was derived from
# the module lists, less the APIs deleted since (Loss, modulated_forward,
# MZISetting, mzi_transfer, MeshBackend, the Clements decomposition, the
# intensity detector, BlockLayer (now one Layer type), reassemble, the
# ProjectionMatrix and UpdateSet wrappers and DivergenceError, now plain
# arrays, tuples and NonFiniteError, normalize, now done per batch by the
# trainer, MetricsHistory, now a plain tuple of MetricRecord, and the
# second mesh representation, MeshProgram, PhotonicLayer, mesh_forward,
# transfer_matrix and unitarity_residual, now one Mesh and the tests' own
# helpers, and the split-mode enum, now one column split), plus realize_network, Mesh,
# Realization and read_back.
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
    "Mesh",
    "MetricRecord",
    "Network",
    "NonFiniteError",
    "Realization",
    "RunReport",
    "Task",
    "TrainConfig",
    "activation_apply",
    "activation_backward",
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
    "modulate_input",
    "one_hot",
    "output_error",
    "read_back",
    "realize_network",
    "realize_weight",
    "run_experiment",
    "sample_projection",
    "split_columns",
    "stagewise_forward",
    "train",
    "two_pass_updates",
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


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_offline_demo_runs(path, capsys):
    # Running main() catches a demo that calls a deleted name at run time.
    load_demo(path).main()
    assert capsys.readouterr().out


def test_module_entry_runs_the_cli(tmp_path):
    # ``python -m twopass`` is the CLI: the shipped XOR run, silent on
    # stderr, with its known metrics.csv bytes.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    config = REPO_ROOT / "configs" / "xor_twopass.json"
    proc = subprocess.run(
        [sys.executable, "-m", "twopass", str(config), "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == "2a2200267872a5c254c27bff6df58cde8fa8558d6c7ef50a62964313928f6947"
