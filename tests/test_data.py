import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_idx_pair
from rsgdlab.core import RngStream
from rsgdlab.network import sigmoid
from rsgdlab.data import (BatchPlan, IdxCountMismatchError, IdxMagicError,
                          IdxTruncatedError, LabeledDataset,
                          generate_teacher_dataset, load_dataset,
                          load_mnist_idx, one_hot, save_dataset, subsample)


class TestTeacherDataset:
    def test_split_and_ranges(self):
        train, test = generate_teacher_dataset(5, 3, 200, RngStream(1, "data-gen"))
        assert len(train) == 100 and len(test) == 100
        for ds in (train, test):
            assert np.all((ds.targets > 0.0) & (ds.targets < 1.0))

    def test_zero_input_maps_to_half(self):
        # probability-zero event forced analytically: sigmoid(W_g @ 0) = 0.5
        train, _ = generate_teacher_dataset(4, 2, 2, RngStream(2, "data-gen"))
        from rsgdlab.network import sigmoid
        assert np.all(sigmoid(np.zeros(2)) == 0.5)

    def test_regeneration_is_bit_identical(self):
        a_train, a_test = generate_teacher_dataset(6, 4, 50, RngStream(7, "data-gen"))
        b_train, b_test = generate_teacher_dataset(6, 4, 50, RngStream(7, "data-gen"))
        assert a_train.inputs.tobytes() == b_train.inputs.tobytes()
        assert a_test.targets.tobytes() == b_test.targets.tobytes()

    def test_preactivation_variance_scales_with_input_dim(self):
        n_in = 100
        # Re-draw with the same stream/order the generator uses so the
        # preactivations can be checked without inverting the (saturating)
        # sigmoid on the stored targets.
        rng = RngStream(3, "data-gen")
        w = rng.normal(1, n_in)
        v = rng.normal(10_000, n_in)
        preact = v @ w.T
        train, test = generate_teacher_dataset(n_in, 1, 10_000, RngStream(3, "data-gen"))
        expected = sigmoid(preact)
        assert np.array_equal(np.concatenate([train.targets, test.targets]), expected)
        # Conditional on the teacher row w, the preactivation variance is |w|^2,
        # which concentrates around n_in for standard-normal entries.
        assert abs(preact.var() / np.sum(w ** 2) - 1.0) < 0.05
        assert abs(np.sum(w ** 2) / n_in - 1.0) < 0.5

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            generate_teacher_dataset(3, 2, 11, RngStream(1, "data-gen"))


class TestIdxLoader:
    def test_fixture_parses_to_exact_vectors(self, tmp_path):
        pixels = np.array([[[0, 255], [128, 1]],
                           [[7, 0], [255, 64]]], dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [3, 9])
        ds = load_mnist_idx(images, labels)
        assert ds.kind == "classification"
        assert np.array_equal(ds.inputs[0], np.array([0, 255, 128, 1]) / 255.0)
        assert np.array_equal(ds.inputs[1], np.array([7, 0, 255, 64]) / 255.0)
        assert ds.inputs[0][1] == 1.0 and ds.inputs[0][0] == 0.0
        assert np.array_equal(ds.targets[0], one_hot(np.array([3]))[0])
        assert np.array_equal(ds.targets[0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
        assert list(ds.raw_labels) == [3, 9]

    def test_wrong_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        data = bytearray(images.read_bytes())
        data[3] = 0x99
        images.write_bytes(bytes(data))
        with pytest.raises(IdxMagicError):
            load_mnist_idx(images, labels)

    def test_label_magic_checked_separately(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        data = bytearray(labels.read_bytes())
        data[3] = 0x42
        labels.write_bytes(bytes(data))
        with pytest.raises(IdxMagicError):
            load_mnist_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        images.write_bytes(images.read_bytes()[:-3])
        with pytest.raises(IdxTruncatedError):
            load_mnist_idx(images, labels)

    @pytest.mark.parametrize("dims", [(60000, 28, 28), (0xFFFFFFFF, 0xFFFF, 0xFFFF)])
    def test_header_larger_than_file(self, tmp_path, dims):
        _, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        images = tmp_path / "header-only"
        images.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
        tracemalloc.start()
        try:
            with pytest.raises(IdxTruncatedError):
                load_mnist_idx(images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_trailing_bytes_rejected(self, tmp_path, which):
        images, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        path = images if which == "images" else labels
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match="4 unexpected bytes after the payload"):
            load_mnist_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        other = tmp_path / "other"
        other.mkdir()
        _, labels3 = write_idx_pair(other, np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
        with pytest.raises(IdxCountMismatchError):
            load_mnist_idx(images, labels3)


class TestSubsample:
    def _pool(self, n=600):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, n)
        return LabeledDataset(inputs=rng.random((n, 4)),
                              targets=one_hot(labels), kind="classification",
                              raw_labels=labels)

    def test_deterministic_per_seed(self):
        pool = self._pool()
        a = subsample(pool, 100, 20, RngStream(5, "data-gen"))
        b = subsample(pool, 100, 20, RngStream(5, "data-gen"))
        assert a[0].inputs.tobytes() == b[0].inputs.tobytes()
        assert a[1].inputs.tobytes() == b[1].inputs.tobytes()

    def test_sizes_and_disjointness(self):
        pool = self._pool()
        rng = RngStream(9, "data-gen")
        picked = rng.choice(len(pool), size=120, replace=False)
        train_idx, test_idx = set(picked[:100]), set(picked[100:])
        assert not train_idx & test_idx
        train, test = subsample(pool, 100, 20, RngStream(9, "data-gen"))
        assert len(train) == 100 and len(test) == 20

    def test_insufficient_pool(self):
        with pytest.raises(ValueError):
            subsample(self._pool(50), 100, 20, RngStream(1, "data-gen"))


class TestBatchPlan:
    def test_single_batch_covers_everything(self):
        plan = BatchPlan(20, 20, RngStream(1, "shuffle"))
        batches = list(plan.epoch_batches())
        assert len(batches) == 1
        assert sorted(batches[0]) == list(range(20))

    def test_epoch_coverage_is_exact(self):
        plan = BatchPlan(1000, 100, RngStream(2, "shuffle"))
        batches = list(plan.epoch_batches())
        assert len(batches) == 10
        assert sorted(np.concatenate(batches)) == list(range(1000))

    def test_reshuffles_between_epochs(self):
        plan = BatchPlan(100, 10, RngStream(3, "shuffle"))
        first = np.concatenate(list(plan.epoch_batches()))
        second = np.concatenate(list(plan.epoch_batches()))
        assert not np.array_equal(first, second)

    def test_ragged_batches_rejected(self):
        with pytest.raises(ValueError):
            BatchPlan(103, 10, RngStream(1, "shuffle"))


class TestDatasetContainer:
    def test_round_trip(self, tmp_path):
        train, _ = generate_teacher_dataset(6, 3, 40, RngStream(4, "data-gen"))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        loaded = load_dataset(path)
        assert loaded.inputs.tobytes() == train.inputs.tobytes()
        assert loaded.targets.tobytes() == train.targets.tobytes()

    def test_regenerated_file_bytes_identical(self, tmp_path):
        for name in ("a.bin", "b.bin"):
            train, _ = generate_teacher_dataset(5, 2, 30, RngStream(8, "data-gen"))
            save_dataset(tmp_path / name, train)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADATA" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path)

    def test_every_truncation_raises_value_error(self, tmp_path):
        train, _ = generate_teacher_dataset(3, 2, 8, RngStream(4, "data-gen"))
        full = tmp_path / "full.bin"
        save_dataset(full, train)
        data = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load_dataset(cut)

    def _saved(self, tmp_path):
        train, _ = generate_teacher_dataset(3, 2, 8, RngStream(4, "data-gen"))
        path = tmp_path / "full.bin"
        save_dataset(path, train)
        return path.read_bytes()

    def test_every_header_byte_flipped_raises_value_error(self, tmp_path):
        # 7-byte magic, then n_in, n_out and count
        data = self._saved(tmp_path)
        path = tmp_path / "bad.bin"
        for offset in range(7 + 12):
            bad = bytearray(data)
            bad[offset] ^= 0xFF
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError):
                load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(self._saved(tmp_path) + b"\x00" * 3)
        with pytest.raises(ValueError, match="3 unexpected bytes after the payload"):
            load_dataset(path)

    def test_header_larger_than_file(self, tmp_path):
        path = tmp_path / "header-only.bin"
        path.write_bytes(b"RSGD-DS" + struct.pack("<III", 3, 2, 0xFFFFFFFF) + b"\x00" * 8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated file"):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_save_makes_no_copy_and_load_holds_the_payload_once(self, tmp_path):
        # 2048 x 1024 inputs and 2048 x 8 targets: a 16.8 MB payload
        rng = np.random.default_rng(0)
        dataset = LabeledDataset(inputs=rng.random((2048, 1024)), targets=rng.random((2048, 8)))
        path = tmp_path / "big.bin"
        tracemalloc.start()
        try:
            save_dataset(path, dataset)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_dataset(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = dataset.inputs.nbytes + dataset.targets.nbytes
        assert payload >= 16 << 20
        assert save_peak < 1 << 20
        assert load_peak <= payload + (1 << 20)
        assert loaded.inputs.tobytes() == dataset.inputs.tobytes()
        assert loaded.targets.tobytes() == dataset.targets.tobytes()

    @pytest.mark.parametrize("layout", ["fortran_f8", "f4"])
    def test_other_layouts_round_trip_as_c_contiguous_f8(self, tmp_path, layout):
        rng = np.random.default_rng(1)
        inputs, targets = rng.random((6, 3)), rng.random((6, 2))
        if layout == "fortran_f8":
            inputs, targets = np.asfortranarray(inputs), np.asfortranarray(targets)
        else:
            inputs, targets = inputs.astype(np.float32), targets.astype(np.float32)
        path = tmp_path / "layout.bin"
        save_dataset(path, LabeledDataset(inputs=inputs, targets=targets))
        loaded = load_dataset(path)
        for got, want in ((loaded.inputs, inputs), (loaded.targets, targets)):
            assert got.dtype == np.dtype("<f8") and got.flags.c_contiguous
            assert np.array_equal(got, want.astype(np.float64))
