"""Seeded synthetic MNIST-shaped data: 60000/10000 class-structured 28x28 images.

This is NOT MNIST.  It exists because the benchmark must run offline and
``load_mnist`` insists on MNIST's file names and split sizes.  Each of the 10
classes gets a random prototype (a few smooth blobs); a sample is its class
prototype at a random brightness plus pixel noise.  The classes are far apart,
so a single epoch of either training rule visibly lowers the loss, which is
what the benchmark's learning check needs.  Accuracy on this data says nothing
about accuracy on MNIST.

Run as ``python3 perfbench/synth.py --seed N --out DIR`` with ``src`` on
``PYTHONPATH``; the same seed always writes the same bytes.  The files are
written with the package's own public ``twopass.data.write_idx``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from twopass.data import write_idx

SIDE = 28
CLASSES = 10
TRAIN_N = 60000
TEST_N = 10000
_CHUNK = 10000
_BLOBS_PER_CLASS = 4
_NOISE = 0.15


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """One (28, 28) float pattern in [0, 1] per class."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(float)
    protos = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        centers = rng.uniform(5.0, SIDE - 5.0, size=(_BLOBS_PER_CLASS, 2))
        widths = rng.uniform(1.5, 3.5, size=_BLOBS_PER_CLASS)
        for (cy, cx), w in zip(centers, widths):
            protos[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * w * w))
        protos[c] /= protos[c].max()
    return protos


def _split(rng: np.random.Generator, protos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, CLASSES, size=n).astype(np.uint8)
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        lab = labels[start : start + _CHUNK]
        bright = rng.uniform(0.6, 1.0, size=(lab.size, 1, 1)).astype(np.float32)
        noise = rng.standard_normal(size=(lab.size, SIDE, SIDE), dtype=np.float32)
        pix = protos[lab].astype(np.float32) * bright + _NOISE * noise
        images[start : start + _CHUNK] = np.rint(np.clip(pix, 0.0, 1.0) * 255.0)
    return images, labels


def write_synthetic_mnist(out_dir, seed: int) -> None:
    """Write the four MNIST-named IDX files of the seed's synthetic corpus."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    protos = _prototypes(rng)
    for (images_name, labels_name), n in (
        (("train-images-idx3-ubyte", "train-labels-idx1-ubyte"), TRAIN_N),
        (("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"), TEST_N),
    ):
        images, labels = _split(rng, protos, n)
        write_idx(out / images_name, images)
        write_idx(out / labels_name, labels)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_synthetic_mnist(args.out, args.seed)
