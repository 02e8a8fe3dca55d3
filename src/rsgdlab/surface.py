"""Error surface over the bilinear span of four weight configurations.

The constructed parameters are
    W(alpha, beta) = beta * (alpha*W1 + (1-alpha)*W2)
                   + (1-beta) * (alpha*W3 + (1-alpha)*W4),
applied matrix-wise, so the corners of the (alpha, beta) unit square map to
(1,1)->W1, (0,1)->W2, (1,0)->W3, (0,0)->W4.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import network as net
from .core import ShapeError
from .data import LabeledDataset
from .experiment import evaluate


@dataclass
class InterpolationGrid:
    corners: list[list[np.ndarray]]   # W1..W4
    alphas: np.ndarray
    betas: np.ndarray
    values: np.ndarray                # values[i, j] = error at (alphas[i], betas[j])

    @property
    def resolution(self) -> int:
        return len(self.alphas)

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


def scan_surface(corners, resolution: int, arch: net.Architecture,
                 dataset: LabeledDataset, metric: str = "mse") -> InterpolationGrid:
    """Evaluate the error at every point of a uniform lattice over [0,1]^2.

    The first layer's pre-activation is bilinear in (alpha, beta) too, so it
    is computed once per corner and interpolated per point like the weights;
    only the deeper layers are evaluated from the interpolated weights.

    A failing evaluation marks its grid point NaN instead of aborting; the
    caller can check ``has_failures``.
    """
    _check_corners(corners)
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    net.check_params(arch, corners[0])
    if dataset.n_in != arch.n_in:
        raise ShapeError(f"dataset has {dataset.n_in} inputs, architecture expects {arch.n_in}")
    x = dataset.inputs.T
    # Each corner carries its layer-1 pre-activation as a last entry.
    extended = [list(c) + [net.preactivation(c[0], x, arch.use_bias)] for c in corners]
    alphas = np.linspace(0.0, 1.0, resolution)
    betas = np.linspace(0.0, 1.0, resolution)
    values = np.empty((resolution, resolution))
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            *params, layer1 = bilinear_interpolate(extended, alpha, beta)
            try:
                values[i, j] = evaluate(params, arch, dataset, metric, layer1=layer1)
            except (FloatingPointError, ValueError):
                values[i, j] = np.nan
    return InterpolationGrid(corners=list(corners), alphas=alphas, betas=betas,
                             values=values)


def write_surface_csv(dest, grid: InterpolationGrid) -> None:
    f = dest if hasattr(dest, "write") else open(dest, "w", newline="")
    try:
        writer = csv.writer(f)
        writer.writerow(["alpha", "beta", "error"])
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                writer.writerow([repr(float(alpha)), repr(float(beta)),
                                 repr(float(grid.values[i, j]))])
    finally:
        if f is not dest:
            f.close()
