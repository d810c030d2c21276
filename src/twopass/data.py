"""Dataset container, IDX binary ingestion, and the XOR task.

IDX layout (big-endian): a 4-byte magic number, one 4-byte unsigned count per
dimension, then the raw unsigned payload bytes.  Magic 0x00000803 marks a
3-dimensional image file and 0x00000801 a 1-dimensional label file.  Files
ending in ``.gz`` are decompressed transparently.

Each payload is held once.  A raw file is mapped read-only, so its pixels
are read from disk only when first touched, and the returned array is a view
of the mapping: the file must not be truncated or rewritten in place while
the array lives (``write_idx`` replaces a file by renaming a new one over
it, which is safe).  A ``.gz`` payload is decompressed in bounded chunks
straight into the returned array.
"""

from __future__ import annotations

import gzip
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "load_idx",
    "write_idx",
    "one_hot",
    "xor_dataset",
    "load_mnist",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Per-sample inputs, finite targets, and integer labels.

    ``inputs`` has shape ``(N, *sample)``: one row per sample, or one N-D
    array per sample, which enters a network as its entries in column-major
    order (a 1-D sample as it is).  So the ``(N, 28, 28)`` view of row-major
    28x28 rows gives pixel (r, c) the index 28c + r, the column split's order,
    without a copy.  Entries are either uint8 bytes, each meaning
    ``byte / 255``, or floats in [0, 1].  Bytes are kept as they are (8x
    smaller than floats) and need no range check; any other dtype is
    converted to float and checked.  The scaling by 1/255 and the reading
    order are applied only in ``trainer._batch``, where ``train`` and
    ``evaluate`` take a batch: ``columnize``, ``split_columns`` and
    ``forward`` use the values as given.

    ``targets`` has shape ``(N, outputs)``.  uint8 targets (MNIST's one-hot
    bytes) are kept as given, and become exact floats where the output
    error is taken; any other dtype is converted to float and must be
    finite.  ``labels`` has shape ``(N,)`` and an integer dtype, which is
    kept.
    """

    inputs: np.ndarray
    targets: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs)
        if inputs.dtype != np.uint8:
            inputs = inputs.astype(float, copy=False)
            # Written so that NaN fails it: NaN propagates through min and max.
            if inputs.size and not (inputs.min() >= 0.0 and inputs.max() <= 1.0):
                raise ValueError("inputs must lie in [0, 1]")
        targets = np.asarray(self.targets)
        if targets.dtype != np.uint8:
            targets = targets.astype(float, copy=False)
            if not np.isfinite(targets).all():
                raise ValueError("targets must be finite")
        if targets.ndim != 2:
            raise ValueError(f"targets must be 2-D (samples, outputs), got shape {targets.shape}")
        labels = _integer_labels(self.labels)
        n = inputs.shape[0]
        if targets.shape[0] != n or labels.shape[0] != n:
            raise ValueError(
                f"inconsistent sample counts: {n} inputs, "
                f"{targets.shape[0]} targets, {labels.shape[0]} labels"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


# Bytes decompressed per read of a .gz payload.  Each read holds about three
# chunk-sized temporaries (the decompressor's output buffers and the copy
# that GzipFile returns) besides the array it fills.
_GZIP_CHUNK = 1 << 18


def _read_header(path: Path, fh) -> tuple[int, ...]:
    """Read the magic and dimension header from ``fh``; returns the dimensions."""
    head = fh.read(4)
    if len(head) < 4:
        raise ValueError(f"unrecognized IDX magic in {path}: file too short")
    (magic,) = struct.unpack(">I", head)
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise ValueError(f"unrecognized IDX magic 0x{magic:08x} in {path}")
    head = fh.read(4 * ndim)
    if len(head) < 4 * ndim:
        raise ValueError(f"size mismatch in {path}: truncated dimension header")
    return struct.unpack(f">{ndim}I", head)


def _size_mismatch(path: Path, expected: int, actual: int) -> ValueError:
    return ValueError(
        f"size mismatch in {path}: expected {expected} payload bytes, got {actual}"
    )


def _load_mapped(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        dims = _read_header(path, fh)
        header_len = fh.tell()
        # The header is at least 8 bytes, so the file is not empty, which
        # mmap refuses.  The mapping outlives the file descriptor.
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    expected = math.prod(dims)
    if len(mapped) - header_len != expected:
        raise _size_mismatch(path, expected, len(mapped) - header_len)
    return np.frombuffer(mapped, dtype=np.uint8, offset=header_len).reshape(dims)


def _load_gzip(path: Path) -> np.ndarray:
    try:
        with gzip.open(path, "rb") as fh:
            dims = _read_header(path, fh)
            expected = math.prod(dims)
            try:
                out = np.empty(expected, dtype=np.uint8)
            except (MemoryError, ValueError) as exc:
                raise ValueError(
                    f"size mismatch in {path}: cannot allocate the declared "
                    f"{expected} payload bytes"
                ) from exc
            # An unbounded read would build the whole payload as bytes first.
            view = memoryview(out)
            filled = 0
            while filled < expected:
                got = fh.readinto(view[filled : filled + _GZIP_CHUNK])
                if not got:
                    raise _size_mismatch(path, expected, filled)
                filled += got
            trailing = 0
            while chunk := fh.read(_GZIP_CHUNK):
                trailing += len(chunk)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        # A truncated or damaged .gz file is bad data, like a bad header.
        raise ValueError(f"corrupt gzip file {path}: {exc}") from exc
    if trailing:
        raise _size_mismatch(path, expected, expected + trailing)
    return out.reshape(dims)


def load_idx(path) -> np.ndarray:
    """Parse one IDX file into a uint8 array of its declared dimensions.

    A raw file is mapped, not read: the result is a read-only view of the
    file's pages, which are read in as they are first touched.  A ``.gz``
    file is decompressed once, chunk by chunk, into the returned array.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return _load_gzip(path)
    return _load_mapped(path)


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as an IDX file (gzipped when path ends in .gz).

    3-D arrays get the image magic, 1-D arrays the label magic.  The file is
    written beside ``path`` under a temporary name and then renamed over it,
    so an earlier version that a run has mapped keeps its contents.
    """
    array = np.asarray(array, dtype=np.uint8)
    if array.ndim == 3:
        magic = IDX_IMAGES_MAGIC
    elif array.ndim == 1:
        magic = IDX_LABELS_MAGIC
    else:
        raise ValueError(f"IDX writer supports 1-D or 3-D arrays, got {array.ndim}-D")
    path = Path(path)
    header = struct.pack(f">I{array.ndim}I", magic, *array.shape)
    payload = np.ascontiguousarray(array).data
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as raw:
            if path.suffix == ".gz":
                # Named after the target, which the gzip header records.
                with gzip.GzipFile(filename=path.name, mode="wb", fileobj=raw) as fh:
                    fh.write(header)
                    fh.write(payload)
            else:
                raw.write(header)
                raw.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as a 1-D integer array, in its own dtype; ValueError otherwise."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    # Converting floats would truncate 1.9 to 1 and turn NaN into -2**63.
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    return labels


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """One uint8 row per label, a single 1 at the label's index.

    Bytes, as ``Dataset`` keeps them: 10 classes take 10 bytes a sample, not
    80 as floats, and each batch's targets become exact floats where the
    output error is taken.
    """
    labels = _integer_labels(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels must lie in 0..{classes - 1}")
    out = np.zeros((labels.shape[0], classes), dtype=np.uint8)
    out[np.arange(labels.shape[0]), labels] = 1
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
    # Raw bytes (see Dataset), flattened row-major: pixel (r, c) -> 28r + c.
    # Targets and labels are bytes too.
    inputs = images.reshape(images.shape[0], -1)
    return Dataset(inputs=inputs, targets=one_hot(labels, 10), labels=labels)


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load the train/test splits from IDX files under ``data_dir``.

    Inputs are the files' uint8 pixel bytes, one flattened ``(N, 784)`` row
    per image; the trainer scales them to [0, 1] batch by batch.  Labels are
    the label file's bytes and targets their uint8 one-hot rows.  The
    standard 60000/10000 split sizes are enforced.
    """
    data_dir = Path(data_dir)
    train = _load_split(data_dir, "train")
    test = _load_split(data_dir, "test")
    if len(train) != 60000 or len(test) != 10000:
        raise ValueError(
            f"expected 60000 train / 10000 test samples, got {len(train)}/{len(test)}"
        )
    return train, test
