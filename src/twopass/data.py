"""Dataset container, IDX binary ingestion, and the XOR task.

IDX layout (big-endian): a 4-byte magic number, one 4-byte unsigned count per
dimension, then the raw unsigned payload bytes.  Magic 0x00000803 marks a
3-dimensional image file and 0x00000801 a 1-dimensional label file.  Files
ending in ``.gz`` are decompressed transparently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "load_idx",
    "write_idx",
    "normalize",
    "one_hot",
    "xor_dataset",
    "load_mnist",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Row-per-sample inputs in [0, 1], finite targets, and integer labels."""

    inputs: np.ndarray
    targets: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        n = inputs.shape[0]
        if targets.shape[0] != n or labels.shape[0] != n:
            raise ValueError(
                f"inconsistent sample counts: {n} inputs, "
                f"{targets.shape[0]} targets, {labels.shape[0]} labels"
            )
        # Written so that NaN fails it: NaN propagates through min and max.
        if inputs.size and not (inputs.min() >= 0.0 and inputs.max() <= 1.0):
            raise ValueError("inputs must lie in [0, 1]")
        if not np.isfinite(targets).all():
            raise ValueError("targets must be finite")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(path) -> np.ndarray:
    """Parse one IDX file into a uint8 array of its declared dimensions."""
    path = Path(path)
    with _open_maybe_gzip(path) as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ValueError(f"unrecognized IDX magic in {path}: file too short")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise ValueError(f"unrecognized IDX magic 0x{magic:08x} in {path}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise ValueError(f"size mismatch in {path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = int(np.prod(dims))
    actual = len(raw) - header_len
    if actual != expected:
        raise ValueError(
            f"size mismatch in {path}: expected {expected} payload bytes, got {actual}"
        )
    return np.frombuffer(raw[header_len:], dtype=np.uint8).reshape(dims)


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as an IDX file (gzipped when path ends in .gz).

    3-D arrays get the image magic, 1-D arrays the label magic.
    """
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim == 3:
        magic = IDX_IMAGES_MAGIC
    elif array.ndim == 1:
        magic = IDX_LABELS_MAGIC
    else:
        raise ValueError(f"IDX writer supports 1-D or 3-D arrays, got {array.ndim}-D")
    path = Path(path)
    blob = struct.pack(">I", magic)
    blob += struct.pack(f">{array.ndim}I", *array.shape)
    blob += array.tobytes()
    if path.suffix == ".gz":
        with gzip.open(path, "wb") as fh:
            fh.write(blob)
    else:
        path.write_bytes(blob)


def normalize(raw: np.ndarray) -> np.ndarray:
    """Scale byte images to [0, 1] and flatten row-major: (r, c) -> 28*r + c."""
    raw = np.asarray(raw)
    if raw.min() < 0 or raw.max() > 255:
        raise ValueError("raw pixel values must be in 0..255")
    flat = raw.reshape(raw.shape[0], -1) if raw.ndim > 1 else raw
    return flat.astype(float) / 255.0


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """One row per label, a single 1 at the label's index."""
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels must lie in 0..{classes - 1}")
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def xor_dataset() -> Dataset:
    """The 4-sample XOR task: two binary inputs, one output."""
    inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    targets = labels.astype(float).reshape(-1, 1)
    return Dataset(inputs=inputs, targets=targets, labels=labels)


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _resolve(data_dir: Path, name: str) -> Path:
    for candidate in (data_dir / name, data_dir / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"missing MNIST file: tried {data_dir / name} and {data_dir / name}.gz"
    )


def _load_split(data_dir: Path, split: str) -> Dataset:
    image_name, label_name = _MNIST_FILES[split]
    images = load_idx(_resolve(data_dir, image_name))
    labels = load_idx(_resolve(data_dir, label_name))
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{split}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    if images.shape[1:] != (28, 28):
        raise ValueError(f"{split}: expected 28x28 images, got {images.shape[1:]}")
    if labels.size and labels.max() > 9:
        raise ValueError(f"{split}: labels outside 0..9")
    labels = labels.astype(int)
    return Dataset(
        inputs=normalize(images), targets=one_hot(labels, 10), labels=labels
    )


def load_mnist(data_dir, strict_counts: bool = True) -> tuple[Dataset, Dataset]:
    """Load the train/test splits from IDX files under ``data_dir``.

    With ``strict_counts`` the standard 60000/10000 split sizes are enforced.
    """
    data_dir = Path(data_dir)
    train = _load_split(data_dir, "train")
    test = _load_split(data_dir, "test")
    if strict_counts and (len(train) != 60000 or len(test) != 10000):
        raise ValueError(
            f"expected 60000 train / 10000 test samples, got {len(train)}/{len(test)}"
        )
    return train, test
