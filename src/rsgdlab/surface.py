"""Error surface over the bilinear span of four weight configurations.

The constructed parameters are
    W(alpha, beta) = beta * (alpha*W1 + (1-alpha)*W2)
                   + (1-beta) * (alpha*W3 + (1-alpha)*W4),
applied matrix-wise, so the corners of the (alpha, beta) unit square map to
(1,1)->W1, (0,1)->W2, (1,0)->W3, (0,0)->W4.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import network as net
from .core import ShapeError, threads_for
from .data import LabeledDataset
from .experiment import _open_csv, evaluate


@dataclass
class InterpolationGrid:
    alphas: np.ndarray
    betas: np.ndarray
    values: np.ndarray                # values[i, j] = error at (alphas[i], betas[j])

    @property
    def has_failures(self) -> bool:
        return bool(np.isnan(self.values).any())


def _check_corners(corners) -> None:
    if len(corners) != 4:
        raise ValueError(f"need exactly 4 corner configurations, got {len(corners)}")
    shapes = [[w.shape for w in c] for c in corners]
    if any(s != shapes[0] for s in shapes[1:]):
        raise ShapeError(f"corner shape sets differ: {shapes}")


def bilinear_interpolate(corners, alpha: float, beta: float) -> list[np.ndarray]:
    _check_corners(corners)
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"alpha and beta must lie in [0, 1], got ({alpha}, {beta})")
    w1, w2, w3, w4 = corners
    return [
        beta * (alpha * a + (1.0 - alpha) * b) + (1.0 - beta) * (alpha * c + (1.0 - alpha) * d)
        for a, b, c, d in zip(w1, w2, w3, w4)
    ]


LAYER1_BLOCK = 16  # hidden units per step of a point's layer-1 interpolation


def scan_surface(corners, resolution: int, arch: net.Architecture,
                 dataset: LabeledDataset, metric: str = "mse") -> InterpolationGrid:
    """Evaluate the error at every point of a uniform lattice over [0,1]^2.

    The first layer's pre-activation is bilinear in (alpha, beta) too, so it
    is computed once per corner and interpolated like the weights, by the
    same expression, with each row's alpha part taken once; only the deeper
    layers' weights are interpolated.

    A row's points are scored on ``core.threads_for(evaluate, resolution)``
    threads; with one, on the calling thread.  Each point is computed the same
    way on any thread, so the grid is the same to the last bit, and holds one
    buffer per layer while it is scored (see ``network.forward``).

    A non-finite corner makes the errors it reaches NaN; the caller can check
    ``has_failures``.
    """
    _check_corners(corners)
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    net.check_params(arch, corners[0])
    if dataset.n_in != arch.n_in:
        raise ShapeError(f"dataset has {dataset.n_in} inputs, architecture expects {arch.n_in}")
    x = dataset.inputs.T
    h1, h2, h3, h4 = (net.preactivation(c[0], x) for c in corners)
    tails = [c[1:] for c in corners]
    alphas = np.linspace(0.0, 1.0, resolution)
    betas = np.linspace(0.0, 1.0, resolution)
    values = np.empty((resolution, resolution))
    errors = np.geterr()  # numpy's error state is per thread: the caller's holds on every one

    def score(alpha, top, bottom, beta):
        with np.errstate(**errors):
            # forward skips params[0] when layer1 is given, so layer 0 is not interpolated
            params = [corners[0][0], *bilinear_interpolate(tails, alpha, beta)]
            # beta * top + (1 - beta) * bottom, with one buffer of its size alive
            layer1 = np.multiply(top, beta)
            for r in range(0, len(layer1), LAYER1_BLOCK):
                layer1[r:r + LAYER1_BLOCK] += (1.0 - beta) * bottom[r:r + LAYER1_BLOCK]
            return evaluate(params, arch, dataset, metric, layer1=layer1)

    workers = threads_for(evaluate, resolution)
    with ThreadPoolExecutor(workers) as pool:
        score_all = pool.map if workers > 1 else map  # a pool starts no thread until used
        for i, alpha in enumerate(alphas):
            # bilinear_interpolate's expression, its alpha part taken once per row
            top = alpha * h1 + (1.0 - alpha) * h2
            bottom = alpha * h3 + (1.0 - alpha) * h4
            values[i] = list(score_all(partial(score, alpha, top, bottom), betas))
    return InterpolationGrid(alphas=alphas, betas=betas, values=values)


def write_surface_csv(dest, grid: InterpolationGrid) -> None:
    with _open_csv(dest) as f:
        writer = csv.writer(f)
        writer.writerow(["alpha", "beta", "error"])
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                writer.writerow([repr(float(alpha)), repr(float(beta)),
                                 repr(float(grid.values[i, j]))])
