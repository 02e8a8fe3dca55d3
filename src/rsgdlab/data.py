"""Datasets: synthetic teacher-network regression, MNIST IDX files, batching.

Inputs and targets are stored row-per-example ((N, n_in) / (N, n_out) float64
arrays); the network consumes transposed slices (examples as columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, check_end, check_left, read_array
from .network import sigmoid

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base for malformed IDX input files."""


class IdxMagicError(IdxError):
    """File does not start with the expected IDX magic number."""


class IdxTruncatedError(IdxError):
    """File ends before the declared payload is complete."""


@dataclass
class LabeledDataset:
    inputs: np.ndarray            # (N, n_in)
    targets: np.ndarray           # (N, n_out)
    # rsgdlab neither sets nor reads these two; they stay because bench/run.py passes them
    kind: str = "regression"
    raw_labels: np.ndarray | None = None

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have the same example count")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_out(self) -> int:
        return self.targets.shape[1]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.inputs[indices], self.targets[indices])


def generate_teacher_dataset(n_in: int, n_out: int, count: int,
                             rng: RngStream) -> tuple[LabeledDataset, LabeledDataset]:
    """Random teacher map y = sigmoid(W_g v); first half train, second half test.

    The teacher matrix is drawn once, then all inputs; both i.i.d. standard
    normal.  The teacher has no bias term.
    """
    if count % 2 != 0:
        raise ValueError(f"count must be even (train/test split in half), got {count}")
    if n_in < 1 or n_out < 1:
        raise ValueError("dimensions must be >= 1")
    w_gen = rng.gen.standard_normal((n_out, n_in))
    inputs = rng.gen.standard_normal((count, n_in))
    targets = sigmoid(inputs @ w_gen.T)
    half = count // 2
    train = LabeledDataset(inputs=inputs[:half], targets=targets[:half])
    test = LabeledDataset(inputs=inputs[half:], targets=targets[half:])
    return train, test


def one_hot(labels: np.ndarray, n_classes: int = 10) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _idx_dims(f, path, magic: int, n_dims: int) -> list[int]:
    """The dimension sizes in the header of IDX file ``f``, which its payload must fill.

    The payload of unsigned bytes they declare is checked against the file
    size, so a corrupt header raises IdxTruncatedError without allocating
    what it claims, and trailing bytes raise ValueError.
    """
    (found,) = read_array(f, (1,), ">u4", path, IdxTruncatedError).tolist()
    if found != magic:
        raise IdxMagicError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    # Python ints, so the payload size of a corrupt header cannot wrap in uint32
    dims = read_array(f, (n_dims,), ">u4", path, IdxTruncatedError).tolist()
    size = math.prod(dims)
    check_left(f, size, path, IdxTruncatedError)
    check_end(f, path, size)
    return dims


def read_mnist_idx(images_path, labels_path, pick=None) -> tuple[np.ndarray, np.ndarray]:
    """The big-endian IDX pair's pixels, one row per image, and labels 0-9, both uint8.

    ``pick(count)``, if given, returns which of the pair's ``count`` images to
    keep, in the order wanted.  Both headers and every label are checked
    first; then only the picked rows are read, in file order, so memory is
    bounded by the picked rows and the labels, not by the image payload.
    """
    with open(images_path, "rb") as f:
        count, rows, cols = _idx_dims(f, images_path, IDX_IMAGES_MAGIC, 3)
        if not count:
            raise IdxError(f"{images_path}: holds no images")
        with open(labels_path, "rb") as g:
            dims = _idx_dims(g, labels_path, IDX_LABELS_MAGIC, 1)
            labels = read_array(g, dims, np.uint8, labels_path, IdxTruncatedError)
        if len(labels) != count:
            raise IdxError(
                f"{images_path} has {count} images but {labels_path} has {len(labels)} labels")
        if labels.max() > 9:
            i = int(np.argmax(labels > 9))
            raise IdxError(f"{labels_path}: label {labels[i]} at index {i} is not a digit 0-9")
        size = rows * cols
        if pick is None:
            return read_array(f, (count, size), np.uint8, images_path, IdxTruncatedError), labels
        picked = pick(count)
        pixels = np.empty((len(picked), size), np.uint8)
        start = f.tell()
        for i in np.argsort(picked):
            f.seek(start + int(picked[i]) * size)
            if f.readinto(pixels[i]) != size:
                raise IdxTruncatedError(f"{images_path}: truncated file, image {picked[i]} "
                                        f"is cut short")
        return pixels, labels[picked]


def mnist_dataset(pixels: np.ndarray, labels: np.ndarray) -> LabeledDataset:
    """uint8 ``pixels`` scaled to [0,1] and ``labels`` one-hot."""
    return LabeledDataset(inputs=pixels / 255.0, targets=one_hot(labels))


def load_mnist_idx(images_path, labels_path) -> LabeledDataset:
    """Every example of the IDX pair, as :func:`mnist_dataset`."""
    return mnist_dataset(*read_mnist_idx(images_path, labels_path))


class BatchPlan:
    """Deterministic mini-batch iteration with per-epoch reshuffling."""

    def __init__(self, n_examples: int, batch_size: int, rng: RngStream):
        if batch_size < 1 or n_examples % batch_size != 0:
            raise ValueError(
                f"batch size {batch_size} must divide example count {n_examples}")
        self.n_examples = n_examples
        self.batch_size = batch_size
        self.rng = rng

    def epoch_batches(self):
        """Yield index arrays for one epoch; reshuffles from the stream."""
        order = self.rng.gen.permutation(self.n_examples)
        for start in range(0, self.n_examples, self.batch_size):
            yield order[start:start + self.batch_size]


# --- flat binary dataset container ---------------------------------------

_DS_MAGIC = b"RSGD-DS"


def save_dataset(path, dataset: LabeledDataset) -> None:
    with open(path, "wb") as f:
        f.write(_DS_MAGIC)
        f.write(np.array([dataset.n_in, dataset.n_out, len(dataset)], "<u4"))
        f.write(np.ascontiguousarray(dataset.inputs, dtype="<f8"))
        f.write(np.ascontiguousarray(dataset.targets, dtype="<f8"))


def load_dataset(path) -> LabeledDataset:
    """The dataset in a file written by :func:`save_dataset`.

    The header's sizes are checked against the file before anything is
    allocated, and the inputs and targets are read straight into their final
    C-contiguous ``<f8`` arrays, so an N-byte file needs about N bytes of
    memory.  ``ValueError`` on a bad magic, no examples, a short file or
    trailing bytes.
    """
    with open(path, "rb") as f:
        if f.read(len(_DS_MAGIC)) != _DS_MAGIC:
            raise ValueError(f"{path}: not a dataset file (bad magic)")
        n_in, n_out, count = read_array(f, (3,), "<u4", path).tolist()
        if not count:
            raise ValueError(f"{path}: holds no examples")
        inputs = read_array(f, (count, n_in), "<f8", path)
        targets = read_array(f, (count, n_out), "<f8", path)
        check_end(f, path)
        return LabeledDataset(inputs=inputs, targets=targets)
