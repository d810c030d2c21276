import gzip
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


# Plain-numpy references for the layer products and one training step: 2-D
# weights, ``W @ x``, ``W.T @ d`` and full batch-mean outer products.  Tests
# compare the block-stored ``Layer`` against these, never against itself.


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """The dense (k*o, k*i) matrix with the (k, o, i) blocks on its diagonal."""
    k, o, i = blocks.shape
    dense = np.zeros((k * o, k * i))
    for j in range(k):
        dense[j * o : (j + 1) * o, j * i : (j + 1) * i] = blocks[j]
    return dense


def mean_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch mean of the per-sample outer products a_n b_n^T (1-D: one sample)."""
    return np.outer(a, b) if a.ndim == 1 else a @ b.T / a.shape[1]


def reference_forward(weights, activations, x0):
    """Pre-activations and activations of a pass; ``xs[0]`` is the input."""
    from twopass import activation_apply

    zs, xs = [], [x0]
    for w, act in zip(weights, activations):
        zs.append(w @ xs[-1])
        xs.append(activation_apply(act, zs[-1]))
    return zs, xs


def reference_updates(weights, activations, x0, target, proj, two_pass: bool):
    """Dense per-layer updates of one step: two-pass, or the backprop gradient."""
    from twopass import activation_backward, modulate_input

    zs, xs = reference_forward(weights, activations, x0)
    gamma = xs[-1] - target
    if two_pass:
        _, mod = reference_forward(weights, activations, modulate_input(x0, proj, gamma))
        errors = [x - m for x, m in zip(xs[1:-1], mod[1:-1])] + [gamma]
        return [mean_outer(e, a) for e, a in zip(errors, mod[:-1])]
    deltas, grad = [], gamma
    for l in reversed(range(len(weights))):
        delta = activation_backward(activations[l], zs[l], xs[l + 1], grad)
        deltas.insert(0, mean_outer(delta, xs[l]))
        grad = weights[l].T @ delta
    return deltas


def spy_on(monkeypatch, module, name: str) -> list[dict]:
    """Replace ``module.name`` with a pass-through; returns its bound arguments per call."""
    fn = getattr(module, name)
    signature = inspect.signature(fn)
    calls = []

    def spy(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def corrupt_gzip(damage: str) -> bytes:
    """A gzipped 200-label IDX file cut in half ("truncated") or with its
    first compressed byte inverted ("flipped")."""
    blob = gzip.compress(b"\x00\x00\x08\x01" + (200).to_bytes(4, "big") + bytes(200), mtime=0)
    if damage == "truncated":
        return blob[: len(blob) // 2]
    # Without a stored file name the gzip header is 10 bytes long.
    return blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:]


MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def mnist_data_dir() -> Path:
    env = os.environ.get("TWOPASS_DATA_DIR")
    return Path(env) if env else REPO_ROOT / "data"


def mnist_available() -> bool:
    d = mnist_data_dir()
    return all((d / n).exists() or (d / f"{n}.gz").exists() for n in MNIST_FILES)


@pytest.fixture(scope="session")
def mnist_dir() -> Path:
    """Directory with the four MNIST IDX files; skips when absent."""
    d = mnist_data_dir()
    if not mnist_available():
        pytest.skip(
            f"MNIST IDX files not found under {d}. Download "
            "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (optionally .gz) "
            "into that directory, or point TWOPASS_DATA_DIR at them."
        )
    return d


@pytest.fixture(scope="session")
def mnist_data(mnist_dir):
    from twopass import load_mnist

    return load_mnist(mnist_dir)


@pytest.fixture(scope="session")
def synthetic_mnist_dir(tmp_path_factory) -> Path:
    """Seeded, class-structured 28x28 IDX files at MNIST's names and split sizes.

    This is NOT MNIST.  Each of the 10 classes has a fixed random prototype
    image, and a sample is its class prototype plus uniform pixel noise.  It
    exists so the MNIST-shaped code paths (60000/10000 samples of 784 pixels)
    run offline; results on it say nothing about MNIST accuracy.
    """
    from twopass import write_idx

    out = tmp_path_factory.mktemp("synthetic_mnist")
    rng = np.random.default_rng(2408)
    prototypes = rng.random((10, 28, 28), dtype=np.float32)
    for prefix, n in (("train", 60000), ("t10k", 10000)):
        labels = rng.integers(0, 10, n).astype(np.uint8)
        images = np.empty((n, 28, 28), dtype=np.uint8)
        for start in range(0, n, 10000):
            lab = labels[start : start + 10000]
            noise = rng.random((lab.size, 28, 28), dtype=np.float32)
            images[start : start + 10000] = 255.0 * (0.6 * prototypes[lab] + 0.4 * noise)
        write_idx(out / f"{prefix}-images-idx3-ubyte", images)
        write_idx(out / f"{prefix}-labels-idx1-ubyte", labels)
    return out
