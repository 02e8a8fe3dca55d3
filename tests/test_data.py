import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_idx_pair
from rsgdlab import network as net
from rsgdlab.core import RngStream
from rsgdlab.network import sigmoid
from rsgdlab.data import (BatchPlan, IdxError, IdxMagicError,
                          IdxTruncatedError, LabeledDataset,
                          generate_teacher_dataset, load_dataset,
                          load_mnist_idx, one_hot, save_dataset)
from rsgdlab.experiment import TrainConfig, build_datasets


class TestTeacherDataset:
    def test_split_and_ranges(self):
        ds = generate_teacher_dataset(5, 3, 200, RngStream(1, "data-gen"))
        assert len(ds) == 200
        assert np.all((ds.targets > 0.0) & (ds.targets < 1.0))
        # a shorter draw is a prefix, so a train set's rows do not depend on the test count
        prefix = generate_teacher_dataset(5, 3, 120, RngStream(1, "data-gen"))
        assert prefix.inputs.tobytes() == ds.inputs[:120].tobytes()
        assert prefix.targets.tobytes() == ds.targets[:120].tobytes()

    def test_regeneration_is_bit_identical(self):
        a = generate_teacher_dataset(6, 4, 50, RngStream(7, "data-gen"))
        b = generate_teacher_dataset(6, 4, 50, RngStream(7, "data-gen"))
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_preactivation_variance_scales_with_input_dim(self):
        n_in = 100
        # Re-draw with the same stream/order the generator uses so the
        # preactivations can be checked without inverting the (saturating)
        # sigmoid on the stored targets.
        rng = RngStream(3, "data-gen")
        w = rng.gen.standard_normal((1, n_in))
        v = rng.gen.standard_normal((10_000, n_in))
        preact = v @ w.T
        ds = generate_teacher_dataset(n_in, 1, 10_000, RngStream(3, "data-gen"))
        assert np.array_equal(ds.targets, sigmoid(preact))
        # Conditional on the teacher row w, the preactivation variance is |w|^2,
        # which concentrates around n_in for standard-normal entries.
        assert abs(preact.var() / np.sum(w ** 2) - 1.0) < 0.05
        assert abs(np.sum(w ** 2) / n_in - 1.0) < 0.5

    @pytest.mark.parametrize("n_in, n_out, count, message", [
        (0, 2, 10, "dimensions must be >= 1"), (3, 0, 10, "dimensions must be >= 1")])
    def test_bad_sizes_rejected(self, n_in, n_out, count, message):
        with pytest.raises(ValueError, match=message):
            generate_teacher_dataset(n_in, n_out, count, RngStream(1, "data-gen"))

    def test_inputs_and_targets_of_different_counts_rejected(self):
        with pytest.raises(ValueError, match="the same example count"):
            LabeledDataset(np.zeros((3, 2)), np.zeros((4, 1)))


class TestIdxLoader:
    def test_fixture_parses_to_exact_vectors(self, tmp_path):
        pixels = np.array([[[0, 255], [128, 1]],
                           [[7, 0], [255, 64]]], dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [3, 9])
        ds = load_mnist_idx(images, labels)
        assert np.array_equal(ds.inputs[0], np.array([0, 255, 128, 1]) / 255.0)
        assert np.array_equal(ds.inputs[1], np.array([7, 0, 255, 64]) / 255.0)
        assert ds.inputs[0][1] == 1.0 and ds.inputs[0][0] == 0.0
        assert np.array_equal(ds.targets[0], one_hot(np.array([3]))[0])
        assert np.array_equal(ds.targets[0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])

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
        with pytest.raises(IdxError, match="has 2 images but .* has 3 labels"):
            load_mnist_idx(images, labels3)


def mnist_config(images, labels, seed):
    """A 100 + 20 example run on an IDX pair of 2 x 2 images."""
    return TrainConfig(net.Architecture([4, 10]), batch_size=10, epochs=1, train_count=100,
                       test_count=20, seed=seed, dataset_source=("mnist", images, labels))


class TestMnistDatasets:
    """build_datasets draws the train and test rows of an IDX pair and converts only those."""

    @staticmethod
    def _pair(tmp_path, n=600):
        """Image i's first two pixels spell i in base 256, so a row tells which image it is."""
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (n, 2, 2), dtype=np.uint8)
        pixels[:, 0, 0], pixels[:, 0, 1] = np.arange(n) % 256, np.arange(n) // 256
        labels = rng.integers(0, 10, n, dtype=np.uint8)
        return pixels, labels, write_idx_pair(tmp_path, pixels, labels)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_picked_rows_of_the_whole_file(self, tmp_path, seed):
        pixels, labels, paths = self._pair(tmp_path)
        inputs = pixels.reshape(len(pixels), -1).astype(np.float64) / 255.0
        targets = np.eye(10)[labels]
        picked = RngStream(seed, "data-gen").gen.choice(len(pixels), 120, replace=False)
        sets = build_datasets(mnist_config(*paths, seed))
        for ds, rows in zip(sets, (picked[:100], picked[100:])):
            assert ds.inputs.tobytes() == inputs[rows].tobytes()
            assert ds.targets.tobytes() == targets[rows].tobytes()

    def test_reads_only_the_picked_rows(self, tmp_path):
        rng = np.random.default_rng(1)  # a 3 MB payload of 4000 images, 40 of them picked
        paths = write_idx_pair(tmp_path, rng.integers(0, 256, (4000, 28, 28)),
                               rng.integers(0, 10, 4000))
        cfg = TrainConfig(net.Architecture([784, 10]), batch_size=10, epochs=1, train_count=20,
                          test_count=20, seed=0, dataset_source=("mnist", *paths))
        tracemalloc.start()
        try:
            sets = build_datasets(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(ds.inputs.nbytes + ds.targets.nbytes for ds in sets)
        # besides the datasets: the picked uint8 rows, every label, numpy's 64 KiB buffer
        # for casting them to float and the two files' read buffers
        assert peak < kept + 40 * 28 * 28 + 4000 + (128 << 10)

    def test_deterministic_per_seed(self, tmp_path):
        _, _, paths = self._pair(tmp_path)
        a, b, c = (build_datasets(mnist_config(*paths, seed)) for seed in (5, 5, 6))
        for i in (0, 1):
            assert a[i].inputs.tobytes() == b[i].inputs.tobytes()
            assert a[i].inputs.tobytes() != c[i].inputs.tobytes()

    def test_sizes_and_disjointness(self, tmp_path):
        _, _, paths = self._pair(tmp_path)
        train, test = build_datasets(mnist_config(*paths, 9))
        assert len(train) == 100 and len(test) == 20
        ids = [set(np.rint(ds.inputs[:, 0] * 255 + ds.inputs[:, 1] * 255 * 256).astype(int))
               for ds in (train, test)]
        assert len(ids[0]) == 100 and len(ids[1]) == 20
        assert not ids[0] & ids[1]

    def test_too_few_examples(self, tmp_path):
        _, _, paths = self._pair(tmp_path, n=50)
        with pytest.raises(ValueError,
                           match=r"^need 120 examples \(100 train \+ 20 test\), dataset has 50$"):
            build_datasets(mnist_config(*paths, 1))

    def test_memory_is_bounded_by_the_subsample(self, tmp_path):
        # 6000 28 x 28 images: 4.7 MB of uint8 pixels, 37.6 MB as float64
        pixels = np.random.default_rng(1).integers(0, 256, (6000, 28, 28), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, np.arange(6000) % 10)
        config = TrainConfig(net.Architecture([784, 10]), batch_size=100, epochs=1,
                             train_count=300, test_count=300, dataset_source=("mnist", *paths))
        tracemalloc.start()
        try:
            sets = build_datasets(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(ds) for ds in sets) == 600
        # the file's bytes once, and the subsample's float64 inputs at most twice
        assert peak < pixels.nbytes + 2 * 600 * 784 * 8 < pixels.size * 8 / 3


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
        train = generate_teacher_dataset(6, 3, 40, RngStream(4, "data-gen"))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        loaded = load_dataset(path)
        assert loaded.inputs.tobytes() == train.inputs.tobytes()
        assert loaded.targets.tobytes() == train.targets.tobytes()

    def test_regenerated_file_bytes_identical(self, tmp_path):
        for name in ("a.bin", "b.bin"):
            train = generate_teacher_dataset(5, 2, 30, RngStream(8, "data-gen"))
            save_dataset(tmp_path / name, train)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADATA" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path)

    def test_every_truncation_raises_value_error(self, tmp_path):
        train = generate_teacher_dataset(3, 2, 8, RngStream(4, "data-gen"))
        full = tmp_path / "full.bin"
        save_dataset(full, train)
        data = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load_dataset(cut)

    def _saved(self, tmp_path):
        train = generate_teacher_dataset(3, 2, 8, RngStream(4, "data-gen"))
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
