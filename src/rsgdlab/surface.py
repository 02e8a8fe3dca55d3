"""Error surface over the bilinear span of four weight configurations.

The constructed parameters are
    W(alpha, beta) = beta * (alpha*W1 + (1-alpha)*W2)
                   + (1-beta) * (alpha*W3 + (1-alpha)*W4),
applied matrix-wise, so the corners of the (alpha, beta) unit square map to
(1,1)->W1, (0,1)->W2, (1,0)->W3, (0,0)->W4.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import network as net
from .core import ShapeError, submitter, threads_for
from .data import LabeledDataset
from .experiment import check_widths, evaluate, write_csv


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


LAYER1_BLOCK = 16  # rows per step of a layer-1 blend, so no temporary of its size is alive


def blend(out, w: float, a, b):
    """``out = w * a + (1 - w) * b``, ``LAYER1_BLOCK`` rows at a time.

    This is :func:`bilinear_interpolate`'s expression, so it gives the same
    bits, and it needs no buffer besides ``out``.
    """
    for r in range(0, len(out), LAYER1_BLOCK):
        rows = slice(r, r + LAYER1_BLOCK)
        np.multiply(a[rows], w, out=out[rows])
        out[rows] += (1.0 - w) * b[rows]
    return out


def scan_surface(corners, resolution: int, arch: net.Architecture,
                 dataset: LabeledDataset, metric: str = "mse") -> InterpolationGrid:
    """Evaluate the error at every point of a uniform lattice over [0,1]^2.

    The first layer's pre-activation is bilinear in (alpha, beta) too, so it
    is computed once per corner and interpolated like the weights, by the
    same expression (:func:`blend`), with each row's alpha part taken once;
    each point activates its blend in place and scores it with the layers
    above as a net of their own, whose weights alone are interpolated.

    The corner products and the points are computed on
    ``core.threads_for(evaluate, resolution)`` threads; with one, on the
    calling thread.  One top/bottom pair holds the current row's alpha part.
    Row i + 1's part is written into it as soon as every point of row i has
    built its layer 1 from it, and row i + 1's points queue behind row i's, so
    rows overlap and no thread waits at a row's end.  At most two rows of
    points are pending at once.  Each point is computed the same way on any
    thread, so the grid is the same to the last bit, and holds one buffer per
    layer while it is scored (see ``network.forward``).

    A non-finite corner makes the errors it reaches NaN; the caller can check
    ``has_failures``.
    """
    _check_corners(corners)
    if not corners[0]:
        raise ValueError("corners have no weights to interpolate")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    net.check_params(arch, corners[0])
    check_widths(arch, dataset)
    x = dataset.inputs.T
    tails = [c[1:] for c in corners]
    above = net.Architecture(arch.widths[1:], arch.hidden_activation, loss=arch.loss)
    first = arch.hidden_activation if tails[0] else arch.output_activation
    alphas = np.linspace(0.0, 1.0, resolution)
    betas = np.linspace(0.0, 1.0, resolution)
    values = np.empty((resolution, resolution))
    blended = threading.Semaphore(0)  # one release per point that is done with top and bottom

    def score(alpha, beta):
        try:
            # the weights come first, so their temporaries are freed before states exists
            params = bilinear_interpolate(tails, alpha, beta)
            states = blend(np.empty_like(top), beta, top, bottom)
        finally:
            blended.release()
        net.activation(states, first, out=states)
        return evaluate(params, above, LabeledDataset(states.T, dataset.targets), metric)

    with submitter(threads_for(evaluate, resolution)) as submit:
        h1, h2, h3, h4 = [f.result() for f in [submit(net.preactivation, c[0], x) for c in corners]]
        top, bottom = np.empty_like(h1), np.empty_like(h1)
        pending = []
        for i, alpha in enumerate(alphas):
            for _ in pending:  # every point of row i - 1 has read top and bottom
                blended.acquire()
            blend(top, alpha, h1, h2)
            blend(bottom, alpha, h3, h4)
            row = list(map(partial(submit, score, alpha), betas))
            if pending:
                values[i - 1] = [f.result() for f in pending]
            pending = row
        values[-1] = [f.result() for f in pending]
    return InterpolationGrid(alphas=alphas, betas=betas, values=values)


def write_surface_csv(dest, grid: InterpolationGrid) -> None:
    write_csv(dest, ["alpha", "beta", "error"],
              ([repr(float(alpha)), repr(float(beta)), repr(float(grid.values[i, j]))]
               for i, alpha in enumerate(grid.alphas) for j, beta in enumerate(grid.betas)))
