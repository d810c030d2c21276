"""``train`` and ``evaluate`` run in reused buffers and give the allocating path's bits.

The reference loops below call only the public functions without ``out``,
in the order ``train`` and ``evaluate`` call them, so every record, trained
weight and evaluation result must match them byte for byte.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from twopass import (
    Activation,
    Algorithm,
    Dataset,
    ForwardTrace,
    Layer,
    MetricRecord,
    Network,
    TrainConfig,
    activation_apply,
    activation_derivative,
    apply_updates,
    backprop_updates,
    build_colsplit_net,
    evaluate,
    forward,
    modulate_input,
    output_error,
    realize_network,
    sample_projection,
    train,
    two_pass_updates,
    xor_dataset,
)
from twopass import trainer

from conftest import REPO_ROOT, spy_on


def reference_train(net, data, proj, cfg, realize=None):
    rng = np.random.default_rng(cfg.seed)
    decay_epoch = max(1, int(np.floor(cfg.epochs * trainer.LR_DECAY_AT)))
    n = data.inputs.shape[0]
    classification = data.targets.shape[1] >= 2
    records = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (trainer.LR_DECAY if epoch >= decay_epoch else 1.0)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = trainer._batch(data.inputs, idx)
            run = net if realize is None else realize(net)
            clean = forward(run, xb)
            gamma = output_error(clean.output, data.targets.T[:, idx])
            mse = float(np.mean(gamma * gamma))
            if cfg.algorithm is Algorithm.TWO_PASS:
                modulated = forward(run, modulate_input(xb, proj, gamma))
                updates = two_pass_updates(net, clean, modulated, gamma)
            else:
                updates = backprop_updates(net, clean, gamma)
            net = apply_updates(net, updates, lr)
            accuracy = (
                float(np.mean(np.argmax(clean.output, axis=0) == data.labels[idx]))
                if classification
                else None
            )
            records.append(MetricRecord(len(records) + 1, mse, accuracy))
    return net, tuple(records)


def reference_evaluate(net, data, realize=None):
    n = data.inputs.shape[0]
    run = net if realize is None else realize(net)
    sample_sq = np.empty(n)
    preds = np.empty(n, dtype=int)
    for start in range(0, n, trainer.EVAL_BATCH):
        rows = np.arange(start, min(start + trainer.EVAL_BATCH, n))
        output = forward(run, trainer._batch(data.inputs, rows)).output
        sq = output_error(output, data.targets[rows].T) ** 2
        acc = sample_sq[start : start + len(rows)]
        acc[...] = sq[0]
        for row in sq[1:]:
            acc += row
        preds[rows] = np.argmax(output, axis=0)
    mse = float(np.sum(sample_sq)) / (n * data.targets.shape[1])
    accuracy = float(np.mean(preds == data.labels)) if data.targets.shape[1] >= 2 else None
    return mse, accuracy, preds


def record_bits(records):
    return [
        (r.iteration, r.mse.hex(), None if r.accuracy is None else r.accuracy.hex())
        for r in records
    ]


def byte_images(n, shape, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    pixels = rng.integers(0, 256, (n, *shape), dtype=np.uint8)
    return Dataset(pixels, np.eye(10, dtype=np.uint8)[labels], labels)


def dense_784(seed):
    rng = np.random.default_rng(seed)
    return Network(
        (
            Layer(rng.uniform(-0.08, 0.08, (24, 784)), Activation.RELU),
            Layer(rng.uniform(-0.4, 0.4, (10, 24)), Activation.SOFTMAX),
        )
    )


def xor_net(seed):
    rng = np.random.default_rng(seed)
    return Network(
        (
            Layer(rng.uniform(-0.5, 0.5, (16, 2)), Activation.SQUARE),
            Layer(rng.uniform(-0.5, 0.5, (1, 16)), Activation.SQUARE),
        )
    )


def wide_hidden(seed):
    rng = np.random.default_rng(seed)
    return Network(
        (
            Layer(rng.uniform(-0.3, 0.3, (40, 12)), Activation.RELU),
            Layer(rng.uniform(-0.3, 0.3, (10, 40)), Activation.SOFTMAX),
        )
    )


# (network, data, batch size, epochs, realize).  300 samples leave a last
# training batch of 44 (and of 12 at batch 32) and a last evaluation chunk of
# 44, which run through buffers built for their width.  A two-pass step keeps
# its batch and its modulated first hidden activation in one array: the
# inputs are wider than that activation in dense_784 and blocks_28, as wide
# in colsplit_784 (the column-split shape) and narrower in wide_hidden.
CASES = {
    "dense_784": lambda: (dense_784(1), byte_images(300, (784,), 2), 64, 2, None),
    "colsplit_784": lambda: (
        build_colsplit_net(seed=8).network,
        byte_images(300, (28, 28), 9),
        64,
        1,
        None,
    ),
    "wide_hidden": lambda: (wide_hidden(10), byte_images(300, (12,), 11), 64, 2, None),
    "blocks_28": lambda: (
        build_colsplit_net(seed=3, column_out=4).network,
        byte_images(300, (28, 28), 4),
        32,
        1,
        None,
    ),
    "batch_width_1": lambda: (dense_784(5), byte_images(40, (784,), 6), 1, 1, None),
    "xor_photonic": lambda: (xor_net(7), xor_dataset(), 1, 6, realize_network),
}


@pytest.mark.parametrize("algorithm", list(Algorithm))
@pytest.mark.parametrize("case", sorted(CASES))
def test_train_and_evaluate_match_allocating_reference(monkeypatch, case, algorithm):
    net, data, batch_size, epochs, realize = CASES[case]()
    proj = sample_projection(net.in_dim, net.out_dim, 11, scale=0.5)
    cfg = TrainConfig(
        learning_rate=0.05, epochs=epochs, batch_size=batch_size, seed=13, algorithm=algorithm
    )
    batches = spy_on(monkeypatch, trainer, "_batch")
    rule_calls = spy_on_rule(monkeypatch, algorithm)
    trained, records = train(net, data, proj, cfg, realize=realize)
    # One batch and one rule call per step; reference_train below takes its
    # batches through the same spy, so the step list is fixed here.
    assert len(batches) == len(rule_calls) == len(records)
    steps = [dict(call, idx=batch["idx"]) for batch, call in zip(batches, rule_calls)]
    ref_net, ref_records = reference_train(net, data, proj, cfg, realize=realize)
    assert record_bits(records) == record_bits(ref_records)
    # The modulated first hidden activation overwrites the spent batch; no
    # other step buffers share memory.
    aliased = {("0.x0", "1.x1")} if algorithm is Algorithm.TWO_PASS else set()
    # Full batches, and a short last one wherever the batch size leaves one.
    n = len(data.inputs)
    assert {len(step["idx"]) for step in steps} == {batch_size, n % batch_size or batch_size}
    for step in steps:
        # Every step's buffers, the short batch's too, are C-contiguous
        # arrays exactly as wide as its batch.
        for trace in step["traces"]:
            for a in (trace.x0, *trace.zs, *trace.xs):
                assert a.shape[1] == len(step["idx"]) and a.flags.c_contiguous
        assert aliased_buffers(step["traces"], step["updates"]) == aliased
    # Training moved the weights, so the comparison covers real updates.
    assert trained.layers[0].blocks.tobytes() != net.layers[0].blocks.tobytes()
    for got, want in zip(trained.layers, ref_net.layers):
        assert got.blocks.tobytes() == want.blocks.tobytes()

    result = evaluate(trained, data, realize=realize)
    mse, accuracy, preds = reference_evaluate(trained, data, realize=realize)
    assert result.mse.hex() == mse.hex()
    assert (result.accuracy is None) == (accuracy is None)
    if accuracy is not None:
        assert result.accuracy.hex() == accuracy.hex()
    assert result.predictions.tobytes() == preds.tobytes()


def spy_on_rule(monkeypatch, algorithm):
    """Wrap ``algorithm``'s rule in ``trainer._RULES``; returns each call's traces and updates."""
    make_buffers, rule = trainer._RULES[algorithm]
    calls = []

    def spy(net, run, traces, gamma, proj, out):
        calls.append({"traces": traces, "updates": out})
        return rule(net, run, traces, gamma, proj, out)

    monkeypatch.setitem(trainer._RULES, algorithm, (make_buffers, spy))
    return calls


def aliased_buffers(traces, updates):
    """Name pairs of a step's distinct buffers that share memory.

    ``"k.x0"`` is trace k's input, ``"k.zl"`` and ``"k.xl"`` layer l's (1-based)
    pre-activation and activation, ``"dwl"`` layer l's update buffer; a z that
    is its layer's x is named once, as the x.
    """
    named = {}
    for k, trace in enumerate(traces):
        named[f"{k}.x0"] = trace.x0
        for l, (z, x) in enumerate(zip(trace.zs, trace.xs), 1):
            named[f"{k}.x{l}"] = x
            if z is not x:
                named[f"{k}.z{l}"] = z
    named.update((f"dw{l}", dw) for l, dw in enumerate(updates, 1))
    items = list(named.items())
    return {
        (a, b)
        for i, (a, x) in enumerate(items)
        for b, y in items[i + 1 :]
        if np.shares_memory(x, y)
    }


def trace_bits(trace):
    return [a.tobytes() for a in (trace.x0, *trace.zs, *trace.xs)]


def buffers_like(trace, in_place):
    xs = tuple(np.empty_like(x) for x in trace.xs)
    zs = xs if in_place else tuple(np.empty_like(z) for z in trace.zs)
    return ForwardTrace(x0=np.empty(0), zs=zs, xs=xs)


def block_net(seed):
    rng = np.random.default_rng(seed)
    return Network(
        (
            Layer(rng.normal(size=(12, 6)), Activation.SIGMOID),
            Layer(rng.normal(size=(3, 2, 4)), Activation.RELU),
            Layer(rng.normal(size=(6, 6)), Activation.IDENTITY),
            Layer(rng.normal(size=(4, 6)), Activation.SOFTMAX),
        )
    )


class TestOutArguments:
    """With ``out`` each function fills the given arrays with the allocating result's bits."""

    @pytest.mark.parametrize("kind", list(Activation))
    @pytest.mark.parametrize("in_place", [False, True])
    def test_activation_apply(self, kind, in_place):
        z = np.random.default_rng(1).normal(size=(5, 3))
        want = activation_apply(kind, z.copy())
        zin = z.copy()
        out = zin if in_place else np.empty_like(z)
        got = activation_apply(kind, zin, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
        if not in_place:
            assert zin.tobytes() == z.tobytes()
        with pytest.raises(ValueError):
            activation_apply(kind, z, out=np.empty((2, 5, 3)))

    @pytest.mark.parametrize("kind", [k for k in Activation if k is not Activation.SOFTMAX])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_activation_derivative(self, kind, in_place):
        z = np.random.default_rng(2).normal(size=(5, 3))
        z[0, 0] = 0.0
        x = activation_apply(kind, z.copy())
        want = activation_derivative(kind, z, x)
        zin = z.copy()
        out = zin if in_place else np.empty_like(z)
        got = activation_derivative(kind, zin, x, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            activation_derivative(kind, z, x, out=np.empty((2, 5, 3)))

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("width", [None, 1, 7])
    def test_forward(self, in_place, width):
        net = block_net(2)
        shape = (6,) if width is None else (6, width)
        x0 = np.random.default_rng(3).random(shape)
        want = forward(net, x0)
        out = buffers_like(want, in_place)
        got = forward(net, x0, out=out)
        assert all(g is o for g, o in zip(got.xs, out.xs)) and got.x0 is x0
        if in_place:
            assert [z.tobytes() for z in got.zs] == [x.tobytes() for x in want.xs]
        else:
            assert trace_bits(got) == trace_bits(want)
        assert [x.tobytes() for x in got.xs] == [x.tobytes() for x in want.xs]
        with pytest.raises(ValueError, match="depth"):
            forward(net, x0, out=ForwardTrace(out.x0, out.zs[:2], out.xs[:2]))

    def test_layer_products(self):
        rng = np.random.default_rng(4)
        layer = Layer(rng.normal(size=(3, 2, 4)), Activation.RELU)
        x, d = rng.normal(size=(12, 5)), rng.normal(size=(6, 5))
        out = np.empty((6, 5))
        assert layer.matvec(x, out=out) is out
        assert out.tobytes() == layer.matvec(x).tobytes()
        dw = np.empty((3, 2, 4))
        assert layer.avg_outer(d, x, out=dw) is dw
        assert dw.tobytes() == layer.avg_outer(d, x).tobytes()
        with pytest.raises(ValueError, match="C-contiguous"):
            layer.matvec(x, out=np.empty((5, 6)).T)
        with pytest.raises(ValueError, match="shape"):
            layer.matvec(x, out=np.empty((5, 6)))

    def test_step_leaves_the_update_alone(self):
        rng = np.random.default_rng(5)
        layer = Layer(rng.normal(size=(3, 2, 4)), Activation.RELU)
        dw = rng.normal(size=(3, 2, 4))
        kept, blocks = dw.copy(), layer.blocks.copy()
        got = layer.step(dw, 0.3)
        assert got.blocks.tobytes() == (blocks - 0.3 * kept).tobytes()
        assert dw.tobytes() == kept.tobytes() and layer.blocks.tobytes() == blocks.tobytes()
        assert not np.shares_memory(got.blocks, dw)

    def test_modulate_input(self):
        rng = np.random.default_rng(6)
        x0, proj, gamma = rng.random((8, 3)), rng.normal(size=(8, 2)), rng.normal(size=(2, 3))
        out = np.empty((8, 3))
        assert modulate_input(x0, proj, gamma, out=out) is out
        assert out.tobytes() == modulate_input(x0, proj, gamma).tobytes()
        with pytest.raises(ValueError, match="separate"):
            modulate_input(x0, proj, gamma, out=x0)
        with pytest.raises(ValueError, match="separate"):
            modulate_input(x0, proj, gamma, out=np.empty((8, 4)))

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_updates(self, algorithm):
        net = block_net(7)
        rng = np.random.default_rng(8)
        proj, x0 = rng.normal(size=(6, 4)), rng.random((6, 5))
        clean = forward(net, x0)
        gamma = output_error(clean.output, rng.random((4, 5)))
        modulated = forward(net, modulate_input(x0, proj, gamma))
        if algorithm is Algorithm.TWO_PASS:
            updates = lambda **out: two_pass_updates(net, clean, modulated, gamma, **out)
        else:
            updates = lambda **out: backprop_updates(net, clean, gamma, **out)
        want = updates()
        bits = trace_bits(clean) + trace_bits(modulated)
        out = tuple(np.empty_like(layer.blocks) for layer in net.layers)
        got = updates(out=out)
        assert all(g is o for g, o in zip(got, out))
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        # Update buffers alone leave both traces as they were.
        assert trace_bits(clean) + trace_bits(modulated) == bits
        with pytest.raises(ValueError, match="update buffers"):
            updates(out=out[:2])

    def test_two_pass_differences_into_buffers(self):
        net = block_net(7)
        rng = np.random.default_rng(8)
        proj, x0 = rng.normal(size=(6, 4)), rng.random((6, 5))
        clean = forward(net, x0)
        gamma = output_error(clean.output, rng.random((4, 5)))
        modulated = forward(net, modulate_input(x0, proj, gamma))
        want = two_pass_updates(net, clean, modulated, gamma)
        diffs = [(c - m).tobytes() for c, m in zip(clean.xs[:-1], modulated.xs[:-1])]
        scratch = tuple(np.empty_like(x) for x in clean.xs[:-1])
        got = two_pass_updates(net, clean, modulated, gamma, diff_out=scratch)
        assert [d.tobytes() for d in scratch] == diffs
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        # The clean trace's own activations may take the differences.
        got = two_pass_updates(net, clean, modulated, gamma, diff_out=clean.xs[:-1])
        assert [x.tobytes() for x in clean.xs[:-1]] == diffs
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        with pytest.raises(ValueError, match="difference buffers"):
            two_pass_updates(net, clean, modulated, gamma, diff_out=scratch[:1])

    def test_backprop_deltas_into_buffers(self):
        net = block_net(7)
        rng = np.random.default_rng(8)
        clean = forward(net, rng.random((6, 5)))
        gamma = output_error(clean.output, rng.random((4, 5)))
        want = backprop_updates(net, clean, gamma)
        softmax = [layer.activation is Activation.SOFTMAX for layer in net.layers]
        zs = [z.tobytes() for z in clean.zs]
        scratch = tuple(np.empty_like(z) for z in clean.zs)
        got = backprop_updates(net, clean, gamma, delta_out=scratch)
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        assert [z.tobytes() for z in clean.zs] == zs
        # The clean trace's own pre-activations may take the deltas; a
        # softmax layer's delta goes elsewhere and leaves its z alone.
        got = backprop_updates(net, clean, gamma, delta_out=clean.zs)
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        for z, d, kept, is_softmax in zip(clean.zs, scratch, zs, softmax):
            assert z.tobytes() == (kept if is_softmax else d.tobytes())
        with pytest.raises(ValueError, match="delta buffers"):
            backprop_updates(net, clean, gamma, delta_out=scratch[:1])

    def test_batch_into_buffer(self):
        inputs = np.random.default_rng(9).integers(0, 256, (20, 4, 3), dtype=np.uint8)
        idx = np.array([3, 17, 0])
        out = np.empty((12, 3))
        assert trainer._batch(inputs, idx, out=out) is out
        assert out.tobytes() == trainer._batch(inputs, idx).tobytes()
        with pytest.raises(ValueError, match="C-contiguous"):
            trainer._batch(inputs, idx, out=np.empty((3, 12)).T)


class TestAllocatingCallsLeaveArgumentsAlone:
    """Without ``out`` the results are new arrays and no argument changes."""

    def test_step_functions(self):
        net = block_net(11)
        rng = np.random.default_rng(12)
        proj, x0, target = rng.normal(size=(6, 4)), rng.random((6, 5)), rng.random((4, 5))
        blocks = [layer.blocks.copy() for layer in net.layers]
        inputs = (x0.copy(), proj.copy(), target.copy())

        clean = forward(net, x0)
        clean_bits = trace_bits(clean)
        gamma = output_error(clean.output, target)
        gamma_bits = gamma.tobytes()
        xm = modulate_input(x0, proj, gamma)
        modulated = forward(net, xm)
        mod_bits = trace_bits(modulated)
        results = [xm, *clean.zs, *clean.xs, *modulated.zs, *modulated.xs]
        for updates in (
            two_pass_updates(net, clean, modulated, gamma),
            backprop_updates(net, clean, gamma),
        ):
            apply_updates(net, updates, 0.1)
            results += list(updates)
        assert trace_bits(clean) == clean_bits and trace_bits(modulated) == mod_bits
        assert gamma.tobytes() == gamma_bits
        for arg, kept in zip((x0, proj, target), inputs):
            assert arg.tobytes() == kept.tobytes()
        assert all(layer.blocks.tobytes() == b.tobytes() for layer, b in zip(net.layers, blocks))
        for result in results:
            for arg in (x0, proj, target, gamma, *blocks):
                assert not np.shares_memory(result, arg)


# Minor page faults per training step and per evaluation chunk, at the
# column-split shape (784 wide), in a process that never calls harness.main
# and so keeps the C library's default heap settings.  output_error is called
# once per step and once per chunk, so its calls mark them.  argv[1] is the
# training rule, argv[2] the number of samples and argv[3] the epochs.
_LIBRARY_FAULTS = """
import resource, sys
import numpy as np
from twopass import Dataset, TrainConfig, build_colsplit_net, sample_projection, trainer
rng = np.random.default_rng(0)
n = int(sys.argv[2])
labels = rng.integers(0, 10, n).astype(np.uint8)
data = Dataset(
    rng.integers(0, 256, (n, 28, 28), dtype=np.uint8), np.eye(10, dtype=np.uint8)[labels], labels
)
marks = []
error = trainer.output_error
def marked(*args, **kwargs):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return error(*args, **kwargs)
trainer.output_error = marked
def per_mark(skip):
    faults = (marks[-1] - marks[skip]) / (len(marks) - skip - 1)
    marks.clear()
    return faults
net = build_colsplit_net(seed=1).network
cfg = TrainConfig(epochs=int(sys.argv[3]), batch_size=64, algorithm=sys.argv[1])
net, _ = trainer.train(net, data, sample_projection(784, 10, 1), cfg)
per_step = per_mark(8)
trainer.evaluate(net, data)
print(per_step, per_mark(2))
"""


# 64·48 samples fill every batch and every evaluation chunk.  32 more leave
# a short last batch in each of 3 epochs and a short last chunk, whose
# buffers are built for their width when it changes, not on every step.
@pytest.mark.parametrize(
    ("algorithm", "n", "epochs"),
    [
        pytest.param(algorithm, n, epochs, id=algorithm.value + suffix)
        for n, epochs, suffix in [(64 * 48, 1, ""), (64 * 48 + 32, 3, "-short_last")]
        for algorithm in Algorithm
    ],
)
def test_library_train_and_evaluate_do_not_fault_per_step(algorithm, n, epochs):
    pytest.importorskip("resource")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_FAULTS, algorithm.value, str(n), str(epochs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    per_step, per_chunk = map(float, proc.stdout.split())
    # Arrays allocated afresh for every step and chunk took 29-74 (two-pass)
    # and 158-225 (backprop) faults per step, and 750-1,190 per chunk, under
    # glibc's default thresholds; reused buffers take about 0, and rebuilding
    # them at each change of width about 4 per step in the 3-epoch case.
    assert per_step < 8, per_step
    assert per_chunk < 40, per_chunk
