import gzip
import struct

import numpy as np
import pytest

from twopass import (
    Dataset,
    NonFiniteError,
    load_idx,
    load_mnist,
    normalize,
    one_hot,
    write_idx,
    xor_dataset,
)

from conftest import MNIST_FILES


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

    def test_file_shorter_than_magic_rejected(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(ValueError, match="unrecognized IDX magic"):
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

    def test_gzipped_file_is_transparent(self, tmp_path):
        path = tmp_path / "labels-idx1-ubyte.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(idx_bytes(0x00000801, (3,), bytes([9, 0, 4])))
        np.testing.assert_array_equal(load_idx(path), np.array([9, 0, 4], dtype=np.uint8))


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

    def test_two_dimensional_arrays_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1-D or 3-D"):
            write_idx(tmp_path / "bad", np.zeros((2, 2), dtype=np.uint8))


class TestNormalize:
    def test_extreme_and_midrange_values(self):
        out = normalize(np.array([[[0, 255], [128, 64]]], dtype=np.uint8))
        np.testing.assert_allclose(
            out, np.array([[0.0, 1.0, 128.0 / 255.0, 64.0 / 255.0]]), rtol=1e-15
        )

    def test_row_major_flattening(self):
        # pixel (r, c) of a 28x28 image lands at flat index 28*r + c
        raw = np.zeros((1, 28, 28), dtype=np.uint8)
        raw[0, 3, 5] = 255
        out = normalize(raw)
        assert out.shape == (1, 784)
        assert out[0, 28 * 3 + 5] == 1.0
        assert out.sum() == 1.0

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="0..255"):
            normalize(np.array([[300]]))
        with pytest.raises(ValueError, match="0..255"):
            normalize(np.array([[-1]]))


class TestOneHot:
    def test_basic_encoding(self):
        out = one_hot(np.array([0, 2, 1]), 3)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected_as_data_not_divergence(self, bad):
        with pytest.raises(ValueError, match="targets must be finite") as exc:
            Dataset(
                inputs=np.array([[0.0, 0.5]]),
                targets=np.array([[bad]]),
                labels=np.array([0]),
            )
        assert not isinstance(exc.value, NonFiniteError)


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

    def test_small_synthetic_corpus_loads(self, tmp_path):
        self.write_split(tmp_path, n_train=7, n_test=3)
        train, test = load_mnist(tmp_path, strict_counts=False)
        assert len(train) == 7 and len(test) == 3
        assert train.inputs.shape == (7, 784)
        assert train.targets.shape == (7, 10)
        assert float(train.inputs.min()) >= 0.0
        assert float(train.inputs.max()) <= 1.0
        np.testing.assert_array_equal(train.targets.argmax(axis=1), train.labels)

    def test_gzipped_corpus_loads(self, tmp_path):
        self.write_split(tmp_path, n_train=2, n_test=1, gz=True)
        train, test = load_mnist(tmp_path, strict_counts=False)
        assert len(train) == 2 and len(test) == 1

    def test_strict_counts_enforced(self, tmp_path):
        self.write_split(tmp_path, n_train=5, n_test=2)
        with pytest.raises(ValueError, match="60000 train / 10000 test"):
            load_mnist(tmp_path)

    def test_missing_file_message_names_both_candidates(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"missing MNIST file.*\.gz"):
            load_mnist(tmp_path, strict_counts=False)

    def test_image_label_count_mismatch_rejected(self, tmp_path):
        self.write_split(tmp_path, n_train=4, n_test=2)
        write_idx(tmp_path / MNIST_FILES[1], np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="4 images but 3 labels"):
            load_mnist(tmp_path, strict_counts=False)

    def test_wrong_image_geometry_rejected(self, tmp_path):
        self.write_split(tmp_path, n_train=2, n_test=1)
        write_idx(
            tmp_path / MNIST_FILES[0],
            np.zeros((2, 14, 14), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="28x28"):
            load_mnist(tmp_path, strict_counts=False)

    def test_labels_above_nine_rejected(self, tmp_path):
        self.write_split(tmp_path, n_train=2, n_test=1)
        write_idx(tmp_path / MNIST_FILES[1], np.array([4, 12], dtype=np.uint8))
        with pytest.raises(ValueError, match="0..9"):
            load_mnist(tmp_path, strict_counts=False)


class TestRealMnist:
    def test_standard_split_properties(self, mnist_data):
        train, test = mnist_data
        assert len(train) == 60000
        assert len(test) == 10000
        assert train.inputs.shape == (60000, 784)
        assert float(train.inputs.min()) >= 0.0
        assert float(train.inputs.max()) <= 1.0
        np.testing.assert_array_equal(
            np.unique(test.labels), np.arange(10)
        )
        np.testing.assert_array_equal(test.targets.sum(axis=1), np.ones(10000))
