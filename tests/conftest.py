import os
import struct

import rsgdlab  # noqa: F401  (first: it gives BLAS one thread only if numpy is not yet loaded)
import numpy as np
import pytest

MNIST_DIR = os.environ.get("RSGD_MNIST_DIR", "")
MNIST_IMAGES = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
MNIST_LABELS = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")

HAVE_MNIST = os.path.isfile(MNIST_IMAGES) and os.path.isfile(MNIST_LABELS)

needs_mnist = pytest.mark.skipif(
    not HAVE_MNIST,
    reason="real MNIST IDX files required; point RSGD_MNIST_DIR at a directory "
           "containing train-images-idx3-ubyte and train-labels-idx1-ubyte")


def write_idx_pair(tmp_path, pixels, labels):
    """Author a tiny IDX image/label file pair; pixels is (n, rows, cols) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.tobytes())
    return images_path, labels_path
