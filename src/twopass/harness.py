"""Experiment runner: JSON configs, CLI flags, CSV/JSON artifact emission.

One invocation runs one experiment: build the task's network and data, train
with the selected algorithm and backend, evaluate, and write metrics.csv,
report.json, and (for classification tasks) confusion.csv into the output
directory.  Identical config and seed give byte-identical metrics.csv at a
fixed BLAS thread count (the MNIST MLP's bits depend on it).

Exit codes: 0 success, 1 config error, 2 data error, 3 training divergence.
A run that exits 2 or 3 removes the output directories it made, if they are
still empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .colsplit import (
    SIDE,
    ColumnSplitNet,
    build_colsplit_net,
    colsplit_evaluate,
    colsplit_train,
    confusion_matrix,
)
from .core import (
    Activation,
    LayerSpec,
    Network,
    NonFiniteError,
    _check_int,
    _check_positive,
    build_network,
)
from .data import Dataset, load_mnist, xor_dataset
from .modulation import sample_projection
from .photonic import realize_network
from .trainer import MetricRecord, TrainConfig, evaluate, train

__all__ = [
    "Task",
    "Backend",
    "ExperimentConfig",
    "RunReport",
    "DataError",
    "run_experiment",
    "emit_metrics",
    "main",
]


class Task(str, Enum):
    XOR = "xor"
    MNIST_MLP = "mnist_mlp"
    MNIST_COLSPLIT = "mnist_colsplit"


class Backend(str, Enum):
    DENSE = "dense"
    PHOTONIC = "photonic"


class DataError(RuntimeError):
    """Raised when required input data is missing or malformed."""


_DEFAULT_DATA_DIR = "data"
_ENV_DATA_DIR = "TWOPASS_DATA_DIR"

# Each dense task's hidden and output activations and default hidden width.
# Its input and output widths are those of its data.
_DENSE_MODELS = {
    Task.XOR: (Activation.SQUARE, Activation.SQUARE, 16),
    Task.MNIST_MLP: (Activation.RELU, Activation.SOFTMAX, 256),
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(TrainConfig):
    """One run: the :class:`TrainConfig` fields plus the experiment's own.

    ``seed`` is the run seed.  The network, projection and shuffle seeds are
    drawn from it, and ``train`` receives this config with the shuffle seed
    as its ``seed``.
    """

    task: Task
    backend: Backend = Backend.DENSE
    projection_scale: float = 0.05
    hidden: int | None = None
    data_dir: str | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "task", Task(self.task))
        object.__setattr__(self, "backend", Backend(self.backend))
        _check_positive("projection_scale", self.projection_scale)
        if self.hidden is not None:
            _check_int("hidden", self.hidden, 1)
        for name in ("data_dir", "out_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null, got {value!r}")

    def to_dict(self) -> dict:
        return {
            key: value.value if isinstance(value, Enum) else value
            for key, value in dataclasses.asdict(self).items()
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "task" not in doc:
            raise ValueError("config must set 'task'")
        return cls(**doc)


@dataclass(frozen=True)
class RunReport:
    """Self-describing result of one experiment run."""

    config: ExperimentConfig
    final_mse: float
    final_accuracy: float | None
    wall_time_s: float
    history: tuple[MetricRecord, ...]
    confusion: tuple[tuple[int, ...], ...] | None

    def to_json(self) -> str:
        doc = {
            "config": self.config.to_dict(),
            "seed": self.config.seed,
            "final_mse": self.final_mse,
            "final_accuracy": self.final_accuracy,
            "wall_time_s": self.wall_time_s,
            "history": [
                {"iteration": r.iteration, "mse": r.mse, "accuracy": r.accuracy}
                for r in self.history
            ],
            "confusion": None if self.confusion is None else [list(row) for row in self.confusion],
        }
        return json.dumps(doc, indent=2)


def resolve_data_dir(cfg: ExperimentConfig) -> str:
    return cfg.data_dir or os.environ.get(_ENV_DATA_DIR) or _DEFAULT_DATA_DIR


def _load_task_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.task is Task.XOR:
        data = xor_dataset()
        return data, data
    data_dir = resolve_data_dir(cfg)
    try:
        return load_mnist(data_dir)
    except (FileNotFoundError, OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def _build_model(
    cfg: ExperimentConfig, seed: int, train_data: Dataset
) -> Network | ColumnSplitNet:
    """The task's freshly initialized model, sized from ``train_data``."""
    if cfg.task is Task.MNIST_COLSPLIT:
        return build_colsplit_net(seed=seed, column_out=cfg.hidden or SIDE)
    hidden_act, out_act, default_hidden = _DENSE_MODELS[cfg.task]
    hidden = cfg.hidden or default_hidden
    specs = (
        LayerSpec(train_data.inputs.shape[1], hidden, hidden_act),
        LayerSpec(hidden, train_data.targets.shape[1], out_act),
    )
    return build_network(specs, seed=seed)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Wire data, projection, trainer, and backend for one configured run.

    The run drops its training set as soon as training returns, so that
    evaluation holds only the test set (XOR uses one set for both).
    """
    start = time.perf_counter()
    train_data, test_data = _load_task_data(cfg)
    net_seed, proj_seed, shuffle_seed = (
        int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(3)
    )
    model = _build_model(cfg, net_seed, train_data)
    in_dim, out_dim = train_data.inputs.shape[1], train_data.targets.shape[1]
    proj = sample_projection(in_dim, out_dim, seed=proj_seed, scale=cfg.projection_scale)
    tc = dataclasses.replace(cfg, seed=shuffle_seed)

    realize = realize_network if cfg.backend is Backend.PHOTONIC else None
    # train/evaluate are looked up here, at call time, so that wrappers
    # installed on this module's attributes (profilers, tests) see the calls.
    if cfg.task is Task.MNIST_COLSPLIT:
        fit, score = colsplit_train, colsplit_evaluate
    else:
        fit, score = train, evaluate
    model, history = fit(model, train_data, proj, tc, realize=realize)
    # Nothing below reads the training set, so its pixels are freed before
    # evaluation allocates its batches.
    del train_data
    result = score(model, test_data, realize=realize)

    confusion = None
    if result.accuracy is not None:
        confusion = tuple(
            tuple(int(v) for v in row)
            for row in confusion_matrix(result.predictions, test_data.labels)
        )
    return RunReport(
        config=cfg,
        final_mse=float(result.mse),
        final_accuracy=None if result.accuracy is None else float(result.accuracy),
        wall_time_s=time.perf_counter() - start,
        history=history,
        confusion=confusion,
    )


def emit_metrics(report: RunReport, out_dir) -> list[Path]:
    """Write metrics.csv, report.json, and confusion.csv (classification only)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["iteration,mse,accuracy"]
    for r in report.history:
        acc = "" if r.accuracy is None else repr(float(r.accuracy))
        lines.append(f"{r.iteration},{float(r.mse)!r},{acc}")
    metrics_path = out / "metrics.csv"
    metrics_path.write_text("\n".join(lines) + "\n")
    report_path = out / "report.json"
    report_path.write_text(report.to_json() + "\n")
    written = [metrics_path, report_path]
    if report.confusion is not None:
        confusion_path = out / "confusion.csv"
        confusion_path.write_text(
            "\n".join(",".join(str(v) for v in row) for row in report.confusion) + "\n"
        )
        written.append(confusion_path)
    return written


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the config-error code.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="twopass", description="Run a two-pass / backprop training experiment.")
    p.add_argument("config", nargs="?", help="path to a JSON experiment config")
    p.add_argument("--task", help="xor | mnist_mlp | mnist_colsplit")
    p.add_argument("--algorithm", help="two_pass | backprop")
    p.add_argument("--backend", help="dense | photonic")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--seed", type=int)
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--out-dir", dest="out_dir")
    return p


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config is not None:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
    doc.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
    return ExperimentConfig.from_dict(doc)


def _make_dirs(path: Path) -> list[Path]:
    """Make ``path`` and its missing parents; return the ones made, deepest first."""
    missing = []
    for p in (path, *path.parents):
        if p.exists():
            break
        missing.append(p)
    path.mkdir(parents=True, exist_ok=True)
    return missing


def _fail(message: str, code: int, created: list[Path]) -> int:
    """Report a failed run and remove the directories it made that are still empty."""
    print(message, file=sys.stderr)
    for d in created:
        try:
            d.rmdir()
        except OSError:  # not empty, so neither are its parents
            break
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        out_dir = cfg.out_dir or str(Path("runs") / f"{cfg.task.value}_{cfg.algorithm.value}")
        # Made before any data is read, so an unusable path costs no run.
        created = _make_dirs(Path(out_dir))
    except (_UsageError, OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_experiment(cfg)
    except DataError as exc:
        return _fail(f"data error: {exc}", 2, created)
    except NonFiniteError as exc:
        return _fail(f"divergence: {exc}", 3, created)

    emit_metrics(report, out_dir)
    acc = "n/a" if report.final_accuracy is None else f"{report.final_accuracy:.4f}"
    print(
        f"task={cfg.task.value} algorithm={cfg.algorithm.value} backend={cfg.backend.value} "
        f"mse={report.final_mse:.6f} accuracy={acc} "
        f"wall={report.wall_time_s:.2f}s out={out_dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
