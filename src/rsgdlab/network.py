"""Fully-connected feedforward network: forward pass, losses, backprop.

Weights for layer k have shape (n_k, n_{k-1} + 1): the last column is the
bias, added to the product of the other columns with the previous layer's
state.  Inputs may be a single vector (n1,) or a batch (n1, B) with examples
as columns; in the batched case backward() returns the mini-batch average
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matrix, RngStream, ShapeError, check_end, read_array

HIDDEN_ACTIVATIONS = ("sigmoid", "relu")
OUTPUT_OF_LOSS = {"quadratic": "sigmoid", "cross_entropy": "softmax"}
LOSSES = tuple(OUTPUT_OF_LOSS)

CROSS_ENTROPY_FLOOR = 1e-12  # probability clamp before ln


def sigmoid(x, out=None):
    # 0.5 * (1 + tanh(x/2)) cannot overflow for any |x|; computed in one buffer.
    out = np.multiply(x, 0.5, out=np.empty_like(x, dtype=np.float64) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def softmax(x, out=None):
    """Column-wise softmax (vector or matrix of column vectors)."""
    shifted = np.subtract(x, np.max(x, axis=0, keepdims=True), out=out)
    e = np.exp(shifted, out=out)
    return np.divide(e, np.sum(e, axis=0, keepdims=True), out=out)


def activation(x, kind: str, out=None):
    """The activation of x, written into ``out`` (which may be x itself) if given."""
    if kind == "sigmoid":
        return sigmoid(x, out)
    if kind == "relu":
        return relu(x, out)
    if kind == "softmax":
        return softmax(x, out)
    raise ValueError(f"unknown activation {kind!r}")


def _hidden_derivative(s, kind: str):
    """Activation derivative expressed through the activation's output s."""
    if kind == "sigmoid":
        return s * (1.0 - s)
    # relu(h) > 0 exactly where h > 0; the subgradient at exactly 0 is taken as 0
    return (s > 0).astype(np.float64)


@dataclass
class Architecture:
    """Layer widths plus activation/loss choices; every layer has a bias column."""

    widths: list[int]
    hidden_activation: str = "sigmoid"
    output_activation: str | None = None  # OUTPUT_OF_LOSS[loss]; None is filled in
    loss: str = "quadratic"

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError(f"need at least 2 layers with positive widths, got {self.widths}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {HIDDEN_ACTIVATIONS}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if self.output_activation not in (None, OUTPUT_OF_LOSS[self.loss]):
            raise ValueError(f"{self.loss} loss requires {OUTPUT_OF_LOSS[self.loss]} output")
        self.output_activation = OUTPUT_OF_LOSS[self.loss]

    @property
    def n_in(self) -> int:
        return self.widths[0]

    @property
    def n_out(self) -> int:
        return self.widths[-1]

    def weight_shapes(self) -> list[tuple[int, int]]:
        return [(n, n_prev + 1) for n_prev, n in zip(self.widths, self.widths[1:])]


@dataclass
class ForwardTrace:
    """Per-layer states from one forward pass."""

    states: list[Matrix]     # s^1 .. s^L (s^1 = input)

    @property
    def output(self) -> Matrix:
        return self.states[-1]


def init_params(arch: Architecture, rng: RngStream) -> list[Matrix]:
    """Weights i.i.d. normal, mean 0, std 1/sqrt(fan-in)."""
    return [
        rng.normal(rows, cols, mean=0.0, std=1.0 / np.sqrt(cols))
        for rows, cols in arch.weight_shapes()
    ]


def check_params(arch: Architecture, params: list[Matrix]) -> None:
    shapes = [tuple(w.shape) for w in params]
    if shapes != arch.weight_shapes():
        raise ShapeError(f"weight shapes {shapes} do not match architecture {arch.weight_shapes()}")


def preactivation(w: Matrix, s: Matrix) -> Matrix:
    """w[:, :-1] @ s plus the bias column w[:, -1]."""
    h = w[:, :-1] @ s
    h += w[:, -1] if s.ndim == 1 else w[:, -1:]
    return h


def forward(params: list[Matrix], arch: Architecture, x: Matrix,
            layer1: Matrix | None = None) -> ForwardTrace:
    """States of every layer for input x.

    ``layer1``, when given, is the first layer's pre-activation for x,
    already computed by the caller; params[0] is then not applied.  Each
    activation overwrites its pre-activation, layer1 included, so that the
    pass holds one buffer per layer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != arch.n_in:
        raise ShapeError(f"input has {x.shape[0]} rows, architecture expects {arch.n_in}")
    check_params(arch, params)
    if layer1 is not None and layer1.shape != (arch.widths[1],) + x.shape[1:]:
        raise ShapeError(f"layer-1 pre-activation shape {layer1.shape} does not match "
                         f"input shape {x.shape}")
    states = [x]
    last = len(params) - 1
    for k, w in enumerate(params):
        if k == 0 and layer1 is not None:
            h = layer1
        else:
            h = preactivation(w, states[-1])
        kind = arch.output_activation if k == last else arch.hidden_activation
        states.append(activation(h, kind, out=h))
    return ForwardTrace(states=states)


def loss(output: Matrix, target: Matrix, kind: str) -> float:
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ShapeError(f"output shape {output.shape} vs target shape {target.shape}")
    if kind == "quadratic":
        eps = target - output
        return 0.5 * float(np.sum(eps * eps))
    if kind == "cross_entropy":
        p = np.clip(output, CROSS_ENTROPY_FLOOR, None)
        return -float(np.sum(target * np.log(p)))
    raise ValueError(f"unknown loss {kind!r}")


def backward(params: list[Matrix], arch: Architecture, trace: ForwardTrace,
             target: Matrix) -> list[Matrix]:
    """Gradients of the loss w.r.t. each weight matrix (no learning rate).

    For batched traces (columns = examples) the result is the mean gradient
    over the batch.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != trace.output.shape:
        raise ShapeError(f"target shape {target.shape} vs output shape {trace.output.shape}")
    # A single example is a batch of one column: outer products become
    # matrix products with one term each, which round identically.
    columns = [s.reshape(s.shape[0], -1) for s in trace.states]
    y = columns[-1]
    batch = y.shape[1]

    kappa = y - target.reshape(y.shape)  # dE/dh at the output: softmax + cross-entropy
    if arch.loss == "quadratic":
        kappa *= y * (1.0 - y)  # quadratic loss through the sigmoid
    grads: list[Matrix] = [None] * len(params)
    for k in range(len(params) - 1, -1, -1):
        s_prev = columns[k]
        g = np.empty_like(params[k])
        n = arch.widths[k]
        np.matmul(kappa, s_prev.T, out=g[:, :n])
        g[:, n] = kappa.sum(axis=1)
        g /= batch
        grads[k] = g
        if k > 0:
            kappa = params[k][:, :n].T @ kappa  # bias column does not backpropagate
            kappa *= _hidden_derivative(s_prev, arch.hidden_activation)
    return grads


# --- checkpoint container ------------------------------------------------

_MAGIC = b"RSGD"
_VERSION = 1
_ACT_CODES = {"sigmoid": 0, "relu": 1, "softmax": 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_LOSS_CODES = {"quadratic": 0, "cross_entropy": 1}
_LOSS_NAMES = {v: k for k, v in _LOSS_CODES.items()}


def save_checkpoint(path, arch: Architecture, params: list[Matrix]) -> None:
    check_params(arch, params)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(np.array([_VERSION, len(arch.widths), *arch.widths], "<u4"))
        f.write(np.array([_ACT_CODES[arch.hidden_activation],
                          _ACT_CODES[arch.output_activation],
                          _LOSS_CODES[arch.loss], 1], "u1"))  # 1: the bias flag
        for w in params:
            f.write(np.ascontiguousarray(w, dtype="<f8"))


def load_checkpoint(path) -> tuple[Architecture, list[Matrix]]:
    """The architecture and parameters in a file written by :func:`save_checkpoint`.

    Each layer's size is checked against the file before its matrix is
    allocated, and the file is read straight into the final C-contiguous
    ``<f8`` matrices.  ``ValueError`` on a bad magic, version or code, an
    output code that does not match the loss, a bias flag other than 1, a
    short file or trailing bytes.
    """
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        version, n_layers = read_array(f, (2,), "<u4", path).tolist()
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        widths = read_array(f, (n_layers,), "<u4", path).tolist()
        h_act, o_act, loss_code, bias_flag = read_array(f, (4,), "u1", path).tolist()
        try:
            names = _ACT_NAMES[h_act], _ACT_NAMES[o_act], _LOSS_NAMES[loss_code]
        except KeyError as exc:
            raise ValueError(f"{path}: unknown activation or loss code {exc.args[0]}") from None
        if bias_flag != 1:
            raise ValueError(f"{path}: bias flag must be 1, got {bias_flag}")
        try:
            arch = Architecture(widths, *names)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        params = [read_array(f, shape, "<f8", path) for shape in arch.weight_shapes()]
        check_end(f, path)
        return arch, params
