import gzip
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from twopass import (
    Activation,
    Dataset,
    LayerSpec,
    NonFiniteError,
    build_network,
    evaluate,
    load_idx,
    load_mnist,
    one_hot,
    write_idx,
    xor_dataset,
)
from twopass import trainer
from twopass.data import _load_split

from conftest import MNIST_FILES, corrupt_gzip, spy_on


def seen_by_trainer(monkeypatch, data: Dataset) -> np.ndarray:
    """The inputs ``evaluate`` feeds to its forward passes, one row per sample."""
    calls = spy_on(monkeypatch, trainer, "forward")
    net = build_network([LayerSpec(784, 10, Activation.SOFTMAX)], seed=0)
    evaluate(net, data)
    return np.concatenate([call["x0"].T for call in calls])


def load_splits(data_dir) -> tuple[Dataset, Dataset]:
    """Both splits as ``load_mnist`` reads them, at any split sizes."""
    return _load_split(data_dir, "train"), _load_split(data_dir, "test")


def idx_bytes(magic: int, dims: tuple[int, ...], payload: bytes) -> bytes:
    blob = struct.pack(">I", magic)
    blob += struct.pack(f">{len(dims)}I", *dims)
    return blob + payload


class TestLoadIdx:
    def test_label_file_round_trips_payload(self, tmp_path):
        path = tmp_path / "labels-idx1-ubyte"
        path.write_bytes(idx_bytes(0x00000801, (2,), bytes([7, 3])))
        arr = load_idx(path)
        assert arr.dtype == np.uint8
        np.testing.assert_array_equal(arr, np.array([7, 3], dtype=np.uint8))

    def test_image_file_shape_and_values(self, tmp_path):
        path = tmp_path / "images-idx3-ubyte"
        path.write_bytes(idx_bytes(0x00000803, (1, 2, 2), bytes([0, 255, 128, 64])))
        arr = load_idx(path)
        assert arr.shape == (1, 2, 2)
        np.testing.assert_array_equal(
            arr, np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        )

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(idx_bytes(0x00000802, (2,), bytes([1, 2])))
        with pytest.raises(ValueError, match="unrecognized IDX magic"):
            load_idx(path)

    # mmap refuses an empty file with its own error; the loader must not.
    @pytest.mark.parametrize("content", [b"\x00\x00", b""], ids=["two-bytes", "empty"])
    def test_file_shorter_than_magic_rejected(self, tmp_path, content):
        path = tmp_path / "tiny"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="unrecognized IDX magic.*file too short"):
            load_idx(path)

    def test_truncated_dimension_header_rejected(self, tmp_path):
        path = tmp_path / "truncated-header"
        path.write_bytes(struct.pack(">I", 0x00000803) + struct.pack(">I", 5))
        with pytest.raises(ValueError, match="size mismatch"):
            load_idx(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "truncated-payload"
        path.write_bytes(idx_bytes(0x00000803, (1, 2, 2), bytes([0, 255, 128])))
        with pytest.raises(ValueError, match="size mismatch"):
            load_idx(path)

    def test_oversized_payload_rejected(self, tmp_path):
        path = tmp_path / "oversized"
        path.write_bytes(idx_bytes(0x00000801, (2,), bytes([1, 2, 3])))
        with pytest.raises(ValueError, match="size mismatch"):
            load_idx(path)

    def test_raw_payload_is_mapped_not_copied(self, tmp_path):
        path = tmp_path / "images-idx3-ubyte"
        images = np.arange(512 * 64 * 64).astype(np.uint8).reshape(512, 64, 64)
        write_idx(path, images)
        tracemalloc.start()
        try:
            arr = load_idx(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak} bytes for a {images.nbytes}-byte payload"
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, images)

    @pytest.mark.parametrize(
        "payload, got",
        [(bytes([0, 255, 128]), 3), (bytes([0, 255, 128, 64, 7, 7]), 6)],
        ids=["short", "trailing"],
    )
    def test_gzipped_payload_of_wrong_size_rejected(self, tmp_path, payload, got):
        path = tmp_path / "images-idx3-ubyte.gz"
        path.write_bytes(gzip.compress(idx_bytes(0x00000803, (1, 2, 2), payload)))
        with pytest.raises(ValueError, match=f"size mismatch.*expected 4 payload bytes, got {got}"):
            load_idx(path)

    def test_gzipped_payload_is_decompressed_once(self, tmp_path):
        # Reading the stream whole and then copying it would hold it twice.
        path = tmp_path / "images-idx3-ubyte.gz"
        images = np.arange(1024 * 64 * 64).astype(np.uint8).reshape(1024, 64, 64)
        write_idx(path, images)
        tracemalloc.start()
        try:
            arr = load_idx(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB for 4 MiB"
        np.testing.assert_array_equal(arr, images)

    # The first header declares more bytes than an array can hold, the
    # second more than memory, yet each file is a few dozen bytes long.
    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 3, (2**16,) * 3], ids=["intp", "256TiB"])
    def test_gzipped_absurd_declared_size_rejected(self, tmp_path, dims):
        path = tmp_path / "images-idx3-ubyte.gz"
        path.write_bytes(gzip.compress(idx_bytes(0x00000803, dims, bytes(16))))
        with pytest.raises(ValueError, match="size mismatch"):
            load_idx(path)

    def test_gzipped_file_is_transparent(self, tmp_path):
        path = tmp_path / "labels-idx1-ubyte.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(idx_bytes(0x00000801, (3,), bytes([9, 0, 4])))
        np.testing.assert_array_equal(load_idx(path), np.array([9, 0, 4], dtype=np.uint8))

    @pytest.mark.parametrize(
        "damage, cause",
        [("truncated", EOFError), ("flipped", zlib.error)],
        ids=["truncated", "flipped"],
    )
    def test_corrupt_gzip_is_a_value_error_naming_the_file(self, tmp_path, damage, cause):
        path = tmp_path / "labels-idx1-ubyte.gz"
        path.write_bytes(corrupt_gzip(damage))
        with pytest.raises(ValueError, match="corrupt gzip file") as info:
            load_idx(path)
        assert str(path) in str(info.value)
        assert isinstance(info.value.__cause__, cause)


class TestWriteIdx:
    def test_plain_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, 5, dtype=np.uint8)
        write_idx(tmp_path / "imgs", images)
        write_idx(tmp_path / "labs", labels)
        np.testing.assert_array_equal(load_idx(tmp_path / "imgs"), images)
        np.testing.assert_array_equal(load_idx(tmp_path / "labs"), labels)

    def test_gzip_round_trip(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        write_idx(tmp_path / "imgs.gz", images)
        np.testing.assert_array_equal(load_idx(tmp_path / "imgs.gz"), images)

    @pytest.mark.parametrize("name", ["imgs", "imgs.gz"])
    def test_rewrite_leaves_a_loaded_array_intact(self, tmp_path, name):
        # A mapped file rewritten in place would change under the array, or
        # fault when shortened; the writer renames a new file over it instead.
        path = tmp_path / name
        old = np.arange(2 * 64 * 64).astype(np.uint8).reshape(2, 64, 64)
        write_idx(path, old)
        loaded = load_idx(path)
        write_idx(path, np.full((1, 3, 3), 9, dtype=np.uint8))
        np.testing.assert_array_equal(loaded, old)
        np.testing.assert_array_equal(load_idx(path), np.full((1, 3, 3), 9, dtype=np.uint8))
        assert os.listdir(tmp_path) == [name]

    def test_failed_write_leaves_target_and_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "labs"
        write_idx(path, np.array([1, 2], dtype=np.uint8))

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_idx(path, np.array([3], dtype=np.uint8))
        assert os.listdir(tmp_path) == ["labs"]
        np.testing.assert_array_equal(load_idx(path), np.array([1, 2], dtype=np.uint8))

    def test_two_dimensional_arrays_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1-D or 3-D"):
            write_idx(tmp_path / "bad", np.zeros((2, 2), dtype=np.uint8))


class TestOneHot:
    def test_basic_encoding(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(
            out, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 10, 50)
        out = one_hot(labels, 10)
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(50))
        np.testing.assert_array_equal(out.argmax(axis=1), labels)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)


class TestXorDataset:
    def test_contents(self):
        data = xor_dataset()
        assert len(data) == 4
        np.testing.assert_array_equal(
            data.inputs, np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        )
        np.testing.assert_array_equal(data.labels, np.array([0, 1, 1, 0]))
        assert data.targets.shape == (4, 1)
        np.testing.assert_array_equal(data.targets[:, 0], data.labels.astype(float))


class TestDataset:
    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError, match="inconsistent sample counts"):
            Dataset(
                inputs=np.zeros((3, 2)),
                targets=np.zeros((2, 1)),
                labels=np.zeros(3, dtype=int),
            )

    def test_inputs_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(
                inputs=np.array([[1.5]]),
                targets=np.array([[0.0]]),
                labels=np.array([0]),
            )

    def test_nan_input_rejected_as_data_not_divergence(self):
        # NaN fails neither `< 0` nor `> 1`; it must still be bad data, not a
        # NonFiniteError that would be reported as training divergence.
        with pytest.raises(ValueError, match=r"\[0, 1\]") as exc:
            Dataset(
                inputs=np.array([[np.nan, 0.5]]),
                targets=np.array([[0.0]]),
                labels=np.array([0]),
            )
        assert not isinstance(exc.value, NonFiniteError)

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int64])
    def test_integer_inputs_other_than_bytes_are_range_checked(self, dtype):
        # Only uint8 means pixel / 255; wider integers are taken at face value.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(
                inputs=np.array([[0, 255]], dtype=dtype),
                targets=np.array([[0.0]]),
                labels=np.array([0]),
            )

    def test_byte_inputs_are_kept_as_given_without_a_range_check(self):
        # 255 would fail the [0, 1] check; uint8 is taken as pixel / 255.
        pixels = np.array([[0, 255]], dtype=np.uint8)
        data = Dataset(inputs=pixels, targets=np.array([[0.0]]), labels=np.array([0]))
        assert data.inputs is pixels

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected_as_data_not_divergence(self, bad, dtype):
        with pytest.raises(ValueError, match="targets must be finite") as exc:
            Dataset(
                inputs=np.array([[0.0, 0.5]]),
                targets=np.array([[bad]], dtype=dtype),
                labels=np.array([0]),
            )
        assert not isinstance(exc.value, NonFiniteError)

    def test_byte_targets_are_kept_as_given(self):
        targets = np.array([[0, 1]], dtype=np.uint8)
        data = Dataset(inputs=np.array([[0.0]]), targets=targets, labels=np.array([1]))
        assert data.targets is targets

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint16])
    def test_other_targets_become_floats(self, dtype):
        data = Dataset(
            inputs=np.array([[0.0]]), targets=np.array([[1]], dtype=dtype), labels=np.array([0])
        )
        assert data.targets.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_integer_labels_keep_their_dtype(self, dtype):
        labels = np.array([0, 1], dtype=dtype)
        data = Dataset(inputs=np.zeros((2, 1)), targets=np.zeros((2, 1)), labels=labels)
        assert data.labels is labels

    def test_fractional_labels_rejected_not_truncated(self):
        # Converting to int would read 0.7 and 1.9 as the classes 0 and 1.
        with pytest.raises(ValueError, match="labels must be integers"):
            Dataset(inputs=np.zeros((2, 1)), targets=np.zeros((2, 1)), labels=[0.7, 1.9])

    def test_nan_label_rejected(self):
        # Converting to int would read NaN as -2**63, with only a warning.
        with pytest.raises(ValueError, match="labels must be integers"):
            Dataset(inputs=np.zeros((2, 1)), targets=np.zeros((2, 1)), labels=[0, np.nan])

    def test_one_dimensional_targets_rejected(self):
        # train and evaluate read targets.shape[1], an IndexError on 1-D targets.
        with pytest.raises(ValueError, match="targets must be 2-D"):
            Dataset(inputs=np.zeros((2, 1)), targets=np.zeros(2), labels=[0, 1])


class TestLoadMnist:
    def write_split(self, data_dir, n_train=60000, n_test=10000, gz=False):
        data_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(4)
        suffix = ".gz" if gz else ""
        for name_images, name_labels, n in (
            (MNIST_FILES[0], MNIST_FILES[1], n_train),
            (MNIST_FILES[2], MNIST_FILES[3], n_test),
        ):
            write_idx(
                data_dir / (name_images + suffix),
                rng.integers(0, 256, (n, 28, 28), dtype=np.uint8),
            )
            write_idx(
                data_dir / (name_labels + suffix),
                rng.integers(0, 10, n, dtype=np.uint8),
            )

    def test_small_synthetic_corpus_loads(self, tmp_path, monkeypatch):
        self.write_split(tmp_path, n_train=7, n_test=3)
        train, test = load_splits(tmp_path)
        assert len(train) == 7 and len(test) == 3
        assert train.inputs.dtype == np.uint8
        assert train.inputs.shape == (7, 784)
        assert train.targets.shape == (7, 10)
        raw = load_idx(tmp_path / MNIST_FILES[0]).reshape(7, 784)
        np.testing.assert_array_equal(train.inputs, raw)
        np.testing.assert_array_equal(seen_by_trainer(monkeypatch, train), raw / 255.0)
        np.testing.assert_array_equal(train.targets.argmax(axis=1), train.labels)

    def test_targets_and_labels_are_bytes(self, tmp_path):
        self.write_split(tmp_path, n_train=30, n_test=5)
        for split, labels_name in zip(load_splits(tmp_path), MNIST_FILES[1::2]):
            raw = load_idx(tmp_path / labels_name)
            assert split.labels.dtype == np.uint8 and split.targets.dtype == np.uint8
            np.testing.assert_array_equal(split.labels, raw)
            assert split.targets.astype(float).tobytes() == np.eye(10)[raw].tobytes()

    def test_row_major_flattening(self, tmp_path, monkeypatch):
        # pixel (r, c) of a 28x28 image lands at flat index 28*r + c
        self.write_split(tmp_path, n_train=1, n_test=1)
        raw = np.zeros((1, 28, 28), dtype=np.uint8)
        raw[0, 3, 5] = 255
        write_idx(tmp_path / MNIST_FILES[0], raw)
        train, _ = load_splits(tmp_path)
        assert train.inputs.dtype == np.uint8
        assert train.inputs.shape == (1, 784)
        assert train.inputs[0, 28 * 3 + 5] == 255
        assert train.inputs.sum() == 255
        seen = seen_by_trainer(monkeypatch, train)
        assert seen[0, 28 * 3 + 5] == 1.0
        assert seen.sum() == 1.0

    def test_gzipped_corpus_loads(self, tmp_path):
        self.write_split(tmp_path, n_train=2, n_test=1, gz=True)
        train, test = load_splits(tmp_path)
        assert len(train) == 2 and len(test) == 1

    def test_strict_counts_enforced(self, tmp_path):
        self.write_split(tmp_path, n_train=5, n_test=2)
        with pytest.raises(ValueError, match="60000 train / 10000 test"):
            load_mnist(tmp_path)

    def test_missing_file_message_names_both_candidates(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"missing MNIST file.*\.gz"):
            load_mnist(tmp_path)

    def test_image_label_count_mismatch_rejected(self, tmp_path):
        self.write_split(tmp_path, n_train=4, n_test=2)
        write_idx(tmp_path / MNIST_FILES[1], np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="4 images but 3 labels"):
            load_mnist(tmp_path)

    def test_wrong_image_geometry_rejected(self, tmp_path):
        self.write_split(tmp_path, n_train=2, n_test=1)
        write_idx(
            tmp_path / MNIST_FILES[0],
            np.zeros((2, 14, 14), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="28x28"):
            load_mnist(tmp_path)

    def test_labels_above_nine_rejected(self, tmp_path):
        self.write_split(tmp_path, n_train=2, n_test=1)
        write_idx(tmp_path / MNIST_FILES[1], np.array([4, 12], dtype=np.uint8))
        with pytest.raises(ValueError, match="0..9"):
            load_mnist(tmp_path)


class TestRealMnist:
    def test_standard_split_properties(self, mnist_data, monkeypatch):
        train, test = mnist_data
        assert len(train) == 60000
        assert len(test) == 10000
        assert train.inputs.dtype == np.uint8
        assert train.inputs.shape == (60000, 784)
        np.testing.assert_array_equal(seen_by_trainer(monkeypatch, test), test.inputs / 255.0)
        np.testing.assert_array_equal(
            np.unique(test.labels), np.arange(10)
        )
        np.testing.assert_array_equal(test.targets.sum(axis=1), np.ones(10000))
