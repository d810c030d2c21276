"""One ``twopass`` CLI invocation, timed and checked from outside the package.

Run by ``perfbench/run.py`` as a fresh process per invocation:

    python3 perfbench/workload.py --result R.json [--spans S.json] [--check-seed N]
        [--setup-only] -- <CLI args>

``PERFBENCH_T0`` in the environment is the parent's ``time.monotonic()`` just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux, so
the two clocks agree).  BLAS threads are pinned to 1 before numpy loads.

The invocation is the shipped CLI path: ``twopass.harness.main(argv)``.  Thin
wrappers on the names ``run_experiment`` calls record when the first trainer
call starts (the end of set-up) and how long the trainer and evaluation calls
take.  With ``--spans`` the full tracer from ``spans.py`` is installed as well
and its spans are written once, after the CLI returns.

With ``--setup-only`` the invocation stops at the first trainer call, so a
run can time set-up several times without training each time.

Correctness checks that need the trained model run after the CLI returns;
their duration is reported as ``post_s`` so the parent can leave it out of
the invocation's wall time.
"""

from __future__ import annotations

import os

_T0 = float(os.environ["PERFBENCH_T0"])
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import twopass  # noqa: E402
from twopass import colsplit, core, data, harness, modulation, photonic, trainer  # noqa: E402

_IMPORT_S = time.monotonic() - _T0

import numpy as np  # noqa: E402  (already loaded by twopass)

from spans import Tracer  # noqa: E402

SIDE = 28
STAGEWISE_SAMPLES = 16
STAGEWISE_TOL = 1e-12


class SetupDone(BaseException):
    """Ends a ``--setup-only`` invocation at its first trainer call.

    A BaseException, so that none of the CLI's error handlers catch it.
    """


class Probe:
    """Times the outermost trainer and evaluation calls and keeps their results."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.train_calls: list[tuple[float, float, int]] = []  # start, end, samples
        self.eval_calls: list[tuple[float, float, int]] = []
        self.step_marks: list[float] = []  # one per trainer.output_error call
        self.eval_data = None
        self.trained = None  # what colsplit_train returned
        self.trained_composed = None  # what train returned inside colsplit_train

    def _timed(self, fn, calls, is_train):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            dataset = bound.arguments["data"]
            samples = len(dataset) * (bound.arguments["cfg"].epochs if is_train else 1)
            if not is_train:
                self.eval_data = dataset
            start = time.monotonic()
            if is_train and self.setup_only:
                calls.append((start, start, samples))
                raise SetupDone
            result = fn(*args, **kwargs)
            calls.append((start, time.monotonic(), samples))
            return result

        return timed

    def install(self) -> None:
        for name in ("train", "colsplit_train"):
            setattr(harness, name, self._timed(getattr(harness, name), self.train_calls, True))
        for name in ("evaluate", "colsplit_evaluate"):
            setattr(harness, name, self._timed(getattr(harness, name), self.eval_calls, False))

        def keep(fn, slot):
            @functools.wraps(fn)
            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                setattr(self, slot, result[0])
                return result

            return kept

        harness.colsplit_train = keep(harness.colsplit_train, "trained")
        colsplit.train = keep(colsplit.train, "trained_composed")

        # train calls output_error once per step, right after the clean pass,
        # so consecutive calls are exactly one step apart.
        marks, error = self.step_marks, trainer.output_error

        @functools.wraps(error)
        def marked(*args, **kwargs):
            marks.append(time.monotonic())
            return error(*args, **kwargs)

        trainer.output_error = marked

    def step_seconds(self) -> list[float]:
        """Wall time of each whole step inside the first trainer call."""
        if not self.train_calls:
            return []
        start, end, _ = self.train_calls[0]
        inside = [t for t in self.step_marks if start <= t <= end]
        return [b - a for a, b in zip(inside, inside[1:])]


def _colsplit_checks(probe: Probe, seed: int) -> list[dict]:
    """Block structure of the trained stage 1, and stagewise == composed forward."""
    checks = []
    if probe.trained_composed is None or probe.trained is None or probe.eval_data is None:
        return [{"name": "colsplit_model_seen", "ok": False, "detail": "no trained model"}]
    w1 = probe.trained_composed.layers[0].weight
    co = w1.shape[0] // SIDE
    block = np.zeros(w1.shape, dtype=bool)
    for j in range(SIDE):
        block[j * co : (j + 1) * co, j * SIDE : (j + 1) * SIDE] = True
    off = int(np.count_nonzero(w1[~block]))
    checks.append({"name": "stage1_off_block_zero", "ok": off == 0, "detail": f"{off} nonzero"})

    images = probe.eval_data.inputs
    rows = np.random.default_rng(seed).choice(images.shape[0], STAGEWISE_SAMPLES, replace=False)
    composed = colsplit.compose(probe.trained)
    worst = 0.0
    for r in rows:
        ref = colsplit.stagewise_forward(probe.trained, images[r].reshape(SIDE, SIDE))
        got = core.forward(composed, colsplit.columnize(images[r : r + 1], probe.trained.mode)[0])
        worst = max(worst, float(np.max(np.abs(ref - got.output))))
    checks.append(
        {
            "name": "stagewise_matches_composed",
            "ok": worst <= STAGEWISE_TOL,
            "detail": f"max |diff| {worst:.3e} over {STAGEWISE_SAMPLES} images",
        }
    )
    return checks


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--check-seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(
            {
                "core": core,
                "modulation": modulation,
                "trainer": trainer,
                "colsplit": colsplit,
                "photonic": photonic,
                "data": data,
                "harness": harness,
                "package": twopass,
            }
        )
    probe = Probe(args.setup_only)
    probe.install()

    try:
        rc = harness.main(cli)
    except SetupDone:
        rc = 0
    main_end = time.monotonic()
    span_count = len(tracer.spans) if tracer else 0

    checks = []
    if rc == 0 and args.check_seed is not None:
        checks = _colsplit_checks(probe, args.check_seed)
    train = probe.train_calls[0] if probe.train_calls else None
    evaluation = probe.eval_calls[0] if probe.eval_calls else None
    result = {
        "rc": rc,
        "import_s": _IMPORT_S,
        "setup_s": train[0] - _T0 if train else None,
        "train_s": train[1] - train[0] if train and not args.setup_only else None,
        "train_samples": train[2] if train else 0,
        "step_s": probe.step_seconds(),
        "eval_s": evaluation[1] - evaluation[0] if evaluation else None,
        "eval_samples": evaluation[2] if evaluation else 0,
        "checks": checks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(),
    }
    if tracer:
        Path(args.spans).write_text(json.dumps(tracer.spans[:span_count]))
    result["post_s"] = time.monotonic() - main_end
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
