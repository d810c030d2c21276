"""Experiment runner: JSON configs, CLI flags, CSV/JSON artifact emission.

One invocation runs one experiment: build the task's network and data, train
with the selected algorithm and backend, evaluate, and write metrics.csv,
report.json, and (for classification tasks) confusion.csv into the output
directory.  Identical config and seed give byte-identical metrics.csv at a
fixed BLAS thread count (the MNIST MLP's bits depend on it).

Exit codes: 0 success, 1 config error, 2 data error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .colsplit import (
    ColumnSplitNet,
    SplitMode,
    build_colsplit_net,
    colsplit_evaluate,
    colsplit_train,
    confusion_matrix,
)
from .core import Activation, LayerSpec, Network, NonFiniteError, build_network
from .data import Dataset, load_mnist, xor_dataset
from .modulation import sample_projection
from .photonic import realize_network
from .trainer import (
    Algorithm,
    MetricsHistory,
    TrainConfig,
    _check_int,
    evaluate,
    train,
)

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

# Task-default widths: XOR hidden units, MLP hidden units, per-column outputs.
_XOR_HIDDEN = 16
_MLP_HIDDEN = 256
_COLUMN_OUT = 28


@dataclass(frozen=True)
class ExperimentConfig:
    task: Task
    algorithm: Algorithm = Algorithm.TWO_PASS
    backend: Backend = Backend.DENSE
    learning_rate: float = 0.01
    epochs: int = 1
    batch_size: int = 64
    seed: int = 0
    lr_decay: float = 0.1
    lr_decay_at: float = 2.0 / 3.0
    shuffle: bool = True
    projection_scale: float = 0.05
    hidden: int | None = None
    split: SplitMode = SplitMode.COLUMN
    data_dir: str | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "task", Task(self.task))
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        object.__setattr__(self, "backend", Backend(self.backend))
        object.__setattr__(self, "split", SplitMode(self.split))
        if not 0.0 < self.projection_scale < math.inf:
            raise ValueError(
                f"projection_scale must be positive and finite, got {self.projection_scale!r}"
            )
        if self.hidden is not None:
            _check_int("hidden", self.hidden, 1)
        # TrainConfig's own checks, so that a bad epoch count, rate, batch
        # size or seed is a config error before any data is loaded.  The run
        # seed stands in for the shuffle seed derived from it.
        self.train_config(shuffle_seed=self.seed)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for key in ("task", "algorithm", "backend", "split"):
            doc[key] = doc[key].value
        return doc

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

    def train_config(self, shuffle_seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=shuffle_seed,
            algorithm=self.algorithm,
            lr_decay=self.lr_decay,
            lr_decay_at=self.lr_decay_at,
            shuffle=self.shuffle,
        )


@dataclass(frozen=True)
class RunReport:
    """Self-describing result of one experiment run."""

    config: ExperimentConfig
    seed: int
    final_mse: float
    final_accuracy: float | None
    wall_time_s: float
    history: MetricsHistory
    confusion: tuple[tuple[int, ...], ...] | None

    def to_json(self) -> str:
        doc = {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "final_mse": self.final_mse,
            "final_accuracy": self.final_accuracy,
            "wall_time_s": self.wall_time_s,
            "history": [
                {"iteration": r.iteration, "mse": r.mse, "accuracy": r.accuracy}
                for r in self.history.records
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


def _xor_model(cfg: ExperimentConfig, seed: int) -> Network:
    hidden = cfg.hidden or _XOR_HIDDEN
    specs = (LayerSpec(2, hidden, Activation.SQUARE), LayerSpec(hidden, 1, Activation.SQUARE))
    return build_network(specs, seed=seed)


def _mlp_model(cfg: ExperimentConfig, seed: int) -> Network:
    hidden = cfg.hidden or _MLP_HIDDEN
    specs = (LayerSpec(784, hidden, Activation.RELU), LayerSpec(hidden, 10, Activation.SOFTMAX))
    return build_network(specs, seed=seed)


def _colsplit_model(cfg: ExperimentConfig, seed: int) -> ColumnSplitNet:
    return build_colsplit_net(seed=seed, column_out=cfg.hidden or _COLUMN_OUT, mode=cfg.split)


_MODEL_BUILDERS = {
    Task.XOR: _xor_model,
    Task.MNIST_MLP: _mlp_model,
    Task.MNIST_COLSPLIT: _colsplit_model,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Wire data, projection, trainer, and backend for one configured run."""
    start = time.perf_counter()
    train_data, test_data = _load_task_data(cfg)
    net_seed, proj_seed, shuffle_seed = (
        int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(3)
    )
    model = _MODEL_BUILDERS[cfg.task](cfg, net_seed)
    proj = sample_projection(model.in_dim, model.out_dim, seed=proj_seed, scale=cfg.projection_scale)
    tc = cfg.train_config(shuffle_seed)

    realize = realize_network if cfg.backend is Backend.PHOTONIC else None
    # train/evaluate are looked up here, at call time, so that wrappers
    # installed on this module's attributes (profilers, tests) see the calls.
    if cfg.task is Task.MNIST_COLSPLIT:
        model, history = colsplit_train(model, train_data, proj, tc, realize=realize)
        result = colsplit_evaluate(model, test_data, realize=realize)
    else:
        model, history = train(model, train_data, proj, tc, realize=realize)
        result = evaluate(model, test_data, realize=realize)

    confusion = None
    if result.accuracy is not None:
        confusion = tuple(
            tuple(int(v) for v in row)
            for row in confusion_matrix(result.predictions, test_data.labels)
        )
    return RunReport(
        config=cfg,
        seed=cfg.seed,
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
    for r in report.history.records:
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
    for key in (
        "task",
        "algorithm",
        "backend",
        "epochs",
        "learning_rate",
        "batch_size",
        "seed",
        "data_dir",
        "out_dir",
    ):
        value = getattr(args, key)
        if value is not None:
            doc[key] = value
    return ExperimentConfig.from_dict(doc)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
    except _UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_experiment(cfg)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3

    out_dir = cfg.out_dir or str(Path("runs") / f"{cfg.task.value}_{cfg.algorithm.value}")
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
