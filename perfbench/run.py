"""The twopass benchmark: the shipped CLI on four workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json`` and
``perfbench/METRICS.md`` for why each exists):

    mnist_colsplit      configs/mnist_colsplit_twopass.json, synthetic MNIST-shaped data
    xor_photonic        configs/xor_twopass.json --backend photonic
    mnist_mlp           configs/mnist_mlp_twopass.json, same data as mnist_colsplit
    mnist_mlp_backprop  configs/mnist_mlp_backprop.json, same data as mnist_colsplit

The last two are run by hand; ``BENCHMARK.json`` lists the first two.

The MNIST-shaped data is synthetic (``perfbench/synth.py``), generated from
``--seed``; nothing here measures MNIST accuracy.  MNIST-shaped workloads run
one epoch.  The XOR workload runs the shipped config unchanged, including its
network seed, so ``--seed`` does not alter its inputs.

Each CLI invocation is a fresh process (``perfbench/workload.py``) with BLAS
pinned to one thread.  A run first times set-up alone a few times, then
repeats whole invocations while the next one is expected to end within
half an invocation of ``--seconds``.  Training steps are costed at the 0.1th percentile of all the
run's step times and the rest of an invocation at its fastest; set-up and
memory are medians over invocations (see ``perfbench/METRICS.md``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced invocations alternate and it carries the
per-layer metrics from the traced ones.  Every invocation's outputs are
checked; the exit code is 1 when any check fails, and 2, with no result
line, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, STAGES, layer_metrics, median_metrics, percentile  # noqa: E402

WORK_DIR = ".perfbench_work"
DEADLINE_S = 170.0  # every run ends well inside the 180 s limit
EVAL_CHUNK = 2000  # rows per batch in trainer.evaluate
XOR_MSE_RTOL = 1e-9
SETUP_ONLY_RUNS = 4  # set-up-only invocations per run, besides the whole ones
# This shared host runs the same code 1.0x-1.7x as slow in phases that last
# from milliseconds to minutes.  A low percentile of thousands of step times
# tracks the code's own cost; a mean or median tracks the phases.
STEP_PERCENTILE = 0.1


@dataclass(frozen=True)
class Workload:
    config: str
    cli_args: tuple[str, ...]
    train_samples: int
    eval_samples: int
    synthetic: bool
    prefault_mib: int = 0
    colsplit: bool = False
    photonic: bool = False


# Peak RSS of the MNIST-shaped runs is 0.5-0.9 GiB; see Runner.prefault.
_MNIST_SHAPED = dict(train_samples=60000, eval_samples=10000, synthetic=True, prefault_mib=1024)
WORKLOADS = {
    "mnist_mlp": Workload("configs/mnist_mlp_twopass.json", ("--epochs", "1"), **_MNIST_SHAPED),
    "mnist_mlp_backprop": Workload(
        "configs/mnist_mlp_backprop.json", ("--epochs", "1"), **_MNIST_SHAPED
    ),
    "mnist_colsplit": Workload(
        "configs/mnist_colsplit_twopass.json", ("--epochs", "1"), colsplit=True, **_MNIST_SHAPED
    ),
    "xor_photonic": Workload(
        "configs/xor_twopass.json",
        ("--backend", "photonic"),
        train_samples=4,
        eval_samples=4,
        synthetic=False,
        photonic=True,
    ),
}
XOR_DENSE = Workload("configs/xor_twopass.json", (), 4, 4, synthetic=False)

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
}
# The end-to-end metrics of the result line.  eval_samples_per_s is printed
# but not bounded: on xor_photonic it times one 4-sample evaluate call, whose
# run-to-run spread (IQR 0.26-0.35 of the median over ten runs) exceeds any
# usable bound.  Traced runs report it as trainer.eval_samples_per_s.
BOUNDED = ("run_s", "setup_s", "train_samples_per_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run here (no package source, data generation failed)."""


@dataclass
class Invocation:
    traced: bool
    setup_only: bool
    rc: int
    run_s: float
    result: dict | None
    metrics_csv: bytes | None
    report: dict | None
    stderr_tail: str
    layers: dict | None


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.update(
            {
                "PYTHONPATH": os.pathsep.join([str(root / "src"), str(HERE)]),
                "PYTHONDONTWRITEBYTECODE": "1",
                "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1",
            }
        )

    def _spawn(self, argv: list[str], out: Path) -> tuple[int, float]:
        """Run argv to completion, killing it at the deadline; returns (rc, wall s)."""
        t0 = time.monotonic()
        env = dict(self.env, PERFBENCH_T0=repr(t0))
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=so, stderr=se)
            watchdog = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
        return rc, time.monotonic() - t0

    def synthesize(self, seed: int) -> Path:
        out = self.work / "data"
        argv = [sys.executable, str(HERE / "synth.py"), "--seed", str(seed), "--out", str(out)]
        rc, _ = self._spawn(argv, self.work)
        if rc != 0:
            raise BenchError(f"synthetic data generation failed: {_tail(self.work / 'stderr.txt')}")
        return out

    def prefault(self, mib: int) -> None:
        """Touch ``mib`` MiB in a throwaway process just before the first invocation.

        On this kind of virtual machine memory that no process used for a few
        seconds is slow to fault in again, so without this the first
        invocation of a run pays 0.2-0.5 s more set-up than the ones that
        follow it back to back.
        """
        out = self.work / "prefault"
        out.mkdir()
        code = "import sys; b = b'1' * (int(sys.argv[1]) << 20)"
        self._spawn([sys.executable, "-c", code, str(mib)], out)

    def invoke(
        self,
        wl: Workload,
        data_dir: Path | None,
        traced: bool = False,
        check_seed: int | None = None,
        setup_only: bool = False,
    ):
        self.count += 1
        out = self.work / f"inv{self.count}"
        out.mkdir()
        argv = [sys.executable, str(HERE / "workload.py"), "--result", str(out / "result.json")]
        if traced:
            argv += ["--spans", str(out / "spans.json")]
        if setup_only:
            argv += ["--setup-only"]
        if check_seed is not None:
            argv += ["--check-seed", str(check_seed)]
        argv += ["--", str(self.root / wl.config), *wl.cli_args, "--out-dir", str(out / "cli")]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        rc, wall = self._spawn(argv, out)
        result = _read_json(out / "result.json")
        spans = _read_json(out / "spans.json") if traced else None
        inv = Invocation(
            traced=traced,
            setup_only=setup_only,
            rc=rc,
            run_s=wall - (result["post_s"] if result else 0.0),
            result=result,
            metrics_csv=_read_bytes(out / "cli" / "metrics.csv"),
            report=_read_json(out / "cli" / "report.json"),
            stderr_tail=_tail(out / "stderr.txt"),
            layers=layer_metrics(spans) if spans else None,
        )
        shutil.rmtree(out)
        return inv


def _read_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


def _tail(path: Path, lines: int = 5) -> str:
    if not path.exists():
        return ""
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


class Checks:
    """Counts operations (training steps, eval batches, checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(why)

    def check(self, ok: bool, what: str) -> bool:
        self.ops(1, 0 if ok else 1, what)
        return ok


def _mse_column(metrics_csv: bytes) -> list[float]:
    rows = metrics_csv.decode().strip().splitlines()[1:]
    return [float(row.split(",")[1]) for row in rows]


def check_invocation(inv: Invocation, wl: Workload, steps: int, checks: Checks, label: str):
    """Account one invocation's operations and run the checks on its outputs."""
    if inv.setup_only:
        ok = inv.rc == 0 and inv.result is not None and inv.result["setup_s"] is not None
        checks.check(ok, f"{label}: exit {inv.rc}, no trainer call: {inv.stderr_tail}")
        return
    eval_batches = math.ceil(wl.eval_samples / EVAL_CHUNK)
    if inv.rc != 0 or inv.result is None or inv.metrics_csv is None:
        failed = steps + eval_batches
        checks.ops(failed, failed, f"{label}: exit {inv.rc}: {inv.stderr_tail}")
        return
    checks.ops(steps + eval_batches, 0)
    mse = _mse_column(inv.metrics_csv)
    rows_ok = len(mse) == steps
    if not checks.check(rows_ok, f"{label}: metrics.csv has {len(mse)} rows, not {steps}"):
        return
    finite = all(math.isfinite(v) for v in mse)
    checks.check(finite, f"{label}: non-finite loss in metrics.csv")
    tenth = max(1, len(mse) // 10)
    first, last = statistics.fmean(mse[:tenth]), statistics.fmean(mse[-tenth:])
    checks.check(
        finite and last < first,
        f"{label}: mean MSE of last tenth {last} not below first tenth {first}",
    )
    for c in inv.result["checks"]:
        checks.check(c["ok"], f"{label}: {c['name']}: {c['detail']}")
    if wl.colsplit:
        checks.check(len(inv.result["checks"]) == 2, f"{label}: colsplit model checks did not run")


def expected_steps(root: Path, wl: Workload) -> int:
    config = json.loads((root / wl.config).read_text())
    epochs = config["epochs"]
    if "--epochs" in wl.cli_args:
        epochs = int(wl.cli_args[wl.cli_args.index("--epochs") + 1])
    return math.ceil(wl.train_samples / config["batch_size"]) * epochs


def _whole(invs: list[Invocation]) -> list[Invocation]:
    """The invocations that trained and evaluated."""
    return [
        i
        for i in invs
        if not i.setup_only and i.result and i.result["train_s"] and i.result["eval_s"]
    ]


def end_to_end(invs: list[Invocation], steps: int) -> dict:
    """Each end-to-end metric over the given untraced invocations.

    The training loop is costed at ``step_s``, the STEP_PERCENTILE-th
    percentile of every step time of the run: ``train_samples_per_s`` is
    samples per step over ``step_s``.  ``run_s`` is the shortest wall time
    outside the timed steps of any invocation, plus the step count times
    ``step_s``.  Set-up and memory are medians over the invocations.
    """
    ok = [i for i in _whole(invs) if i.result["step_s"]]
    setups = [i.result["setup_s"] for i in invs if i.result and i.result["setup_s"] is not None]
    if not ok:
        return {}
    step_s = percentile([s for i in ok for s in i.result["step_s"]], STEP_PERCENTILE)
    outside_steps = min(i.run_s - sum(i.result["step_s"]) for i in ok)
    values = {
        "run_s": [outside_steps + len(ok[0].result["step_s"]) * step_s],
        "setup_s": setups,
        "train_samples_per_s": [ok[0].result["train_samples"] / steps / step_s],
        "eval_samples_per_s": [i.result["eval_samples"] / i.result["eval_s"] for i in ok],
        "peak_rss_mb": [i.result["maxrss_kb"] / 1024.0 for i in ok],
    }
    return {k: (statistics.median(v), END_TO_END_UNITS[k]) for k, v in values.items()}


def as_measured(invs: list[Invocation]) -> dict:
    """Median wall time and trainer-call throughput, with nothing re-costed."""
    ok = _whole(invs)
    if not ok:
        return {}
    steps = [s for i in ok for s in i.result["step_s"]]
    return {
        **{f"step_ms.p{q:g}": (1e3 * percentile(steps, q), "ms") for q in (0, 1, 50, 99)},
        "wall_s": (statistics.median(i.run_s for i in ok), "s"),
        "trainer_call_samples_per_s": (
            statistics.median(i.result["train_samples"] / i.result["train_s"] for i in ok),
            "samples/s",
        ),
    }


def run(args) -> int:
    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    for needed in (root / "src" / "twopass" / "harness.py", root / wl.config):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(root)} not found; run from the repository root")
    start = time.monotonic()
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, start + DEADLINE_S)
        seed = args.seed % 2**32
        data_dir = runner.synthesize(seed) if wl.synthetic else None
        steps = expected_steps(root, wl)
        checks = Checks()

        # Untimed warm-up: the dense XOR run loads the interpreter, numpy and
        # the package into the page cache, and is the reference that the
        # photonic XOR run must reproduce.
        reference = runner.invoke(XOR_DENSE, None)
        xor_steps = expected_steps(root, XOR_DENSE)
        check_invocation(reference, XOR_DENSE, xor_steps, checks, "xor_dense_reference")

        if wl.prefault_mib:
            runner.prefault(wl.prefault_mib)
        setups: list[Invocation] = []
        for n in range(SETUP_ONLY_RUNS):
            inv = runner.invoke(wl, data_dir, setup_only=True)
            setups.append(inv)
            check_invocation(inv, wl, steps, checks, f"{args.workload} set-up #{n + 1}")
        invs: list[Invocation] = []
        measure_start = time.monotonic()
        while True:
            traced = args.trace == 1 and len(invs) % 2 == 1
            label = f"{args.workload}#{len(invs) + 1}{' traced' if traced else ''}"
            started = time.monotonic()
            inv = runner.invoke(wl, data_dir, traced, seed if wl.colsplit else None)
            invs.append(inv)
            check_invocation(inv, wl, steps, checks, label)
            _print_invocation(label, inv)
            if inv.rc != 0 or inv.result is None:
                break
            # Start another invocation only if it is expected to end less than
            # half an invocation past --seconds.  Stopping as soon as the next
            # one would overrun leaves up to one invocation of the window
            # unused, which on mnist_colsplit (12-18 s each) is half of it.
            now = time.monotonic()
            fits = now + (now - started) / 2 - measure_start <= args.seconds
            if not fits and (args.trace == 0 or len(invs) >= 2):
                break

        shas = {hashlib.sha256(i.metrics_csv).hexdigest() for i in invs if i.metrics_csv}
        checks.check(len(shas) == 1, f"metrics.csv differs between invocations: {sorted(shas)}")
        if wl.photonic and reference.report and invs[0].report:
            dense, phot = reference.report["final_mse"], invs[0].report["final_mse"]
            checks.check(
                abs(phot - dense) <= XOR_MSE_RTOL * abs(dense),
                f"photonic final MSE {phot!r} vs dense {dense!r} beyond {XOR_MSE_RTOL} relative",
            )
        plain = [i for i in invs if not i.traced]
        traced = [i for i in invs if i.traced and i.layers]
        if args.trace:
            checks.check(bool(traced), "no traced invocation produced spans")
            for name in EXACT_COUNTS:
                values = {i.layers[name][0] for i in traced}
                checks.check(len(values) <= 1, f"computed count {name} varies: {sorted(values)}")
        e2e = end_to_end(plain + setups, steps)
        measured = as_measured(plain)
        env = invs[0].result["env"] if invs[0].result else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    print(f"[perfbench] environment: {json.dumps(env, sort_keys=True)}")
    print(f"[perfbench] metrics.csv sha256: {' '.join(sorted(shas)) or 'none'}")
    ratio = checks.failed / checks.attempted
    for name, (value, unit) in e2e.items():
        print(f"[perfbench] {args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in measured.items():
        print(f"[perfbench] {args.workload} {name} (as measured) = {value:.6g} {unit}")
    print(
        f"[perfbench] {args.workload} failed_op_ratio = {ratio:.6g} ratio "
        f"({checks.failed}/{checks.attempted})"
    )
    for why in checks.failures:
        print(f"[perfbench] CHECK FAILED: {why}")

    if args.trace:
        layers = median_metrics([i.layers for i in traced]) if traced else {}
        if traced and plain:
            overhead = statistics.median(i.run_s for i in traced) / statistics.median(
                i.run_s for i in plain
            )
            layers["trace.overhead_ratio"] = (overhead, "ratio")
        if "eval_samples_per_s" in e2e:
            layers["trainer.eval_samples_per_s"] = e2e["eval_samples_per_s"]
        if plain and plain[0].result:
            layers["process.import_s"] = (
                statistics.median(i.result["import_s"] for i in plain if i.result),
                "s",
            )
        _print_layers(layers)
        metrics = layers
    else:
        metrics = {name: e2e[name] for name in BOUNDED if name in e2e}
    correct = checks.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _print_invocation(label: str, inv: Invocation) -> None:
    r = inv.result or {}
    sha = hashlib.sha256(inv.metrics_csv).hexdigest()[:16] if inv.metrics_csv else "-"
    setup = r.get("setup_s")
    print(
        f"[perfbench] {label}: exit={inv.rc} run_s={inv.run_s:.3f} "
        f"setup_s={setup if setup is None else round(setup, 3)} metrics.csv={sha}",
        flush=True,
    )


def _print_layers(layers: dict) -> None:
    stage_total = sum(layers.get(f"trainer.stage.{s}_ms", (0.0,))[0] for s in STAGES)
    for s in STAGES:
        ms = layers.get(f"trainer.stage.{s}_ms", (0.0,))[0]
        share = ms / stage_total if stage_total else 0.0
        print(f"[perfbench] stage {s:<15} {ms:12.1f} ms {share:7.1%}")
    for name, (value, unit) in sorted(layers.items()):
        print(f"[perfbench] {name} = {value:.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description="twopass benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
