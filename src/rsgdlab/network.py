"""Fully-connected feedforward network: forward pass, losses, backprop.

Weights for layer k have shape (n_k, n_{k-1} + 1) when a bias column is used;
the last column is the bias, added to the product of the other columns with
the previous layer's state.  Inputs may be a single vector (n1,) or a batch
(n1, B) with examples as columns; in the batched case backward() returns the
mini-batch average gradient.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import Matrix, RngStream, ShapeError, check_end, read_array, read_exact

HIDDEN_ACTIVATIONS = ("sigmoid", "relu")
OUTPUT_ACTIVATIONS = ("sigmoid", "softmax")
LOSSES = ("quadratic", "cross_entropy")

CROSS_ENTROPY_FLOOR = 1e-12  # probability clamp before ln


def sigmoid(x):
    # 0.5 * (1 + tanh(x/2)) cannot overflow for any |x|; computed in one buffer.
    out = np.multiply(x, 0.5, out=np.empty_like(x, dtype=np.float64))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def relu(x):
    return np.maximum(x, 0.0)


def relu_derivative(x):
    # Subgradient at exactly 0 is taken as 0.
    return (x > 0).astype(np.float64)


def softmax(x):
    """Column-wise softmax (vector or matrix of column vectors)."""
    shifted = x - np.max(x, axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=0, keepdims=True)


def activation(x, kind: str):
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "relu":
        return relu(x)
    if kind == "softmax":
        return softmax(x)
    raise ValueError(f"unknown activation {kind!r}")


def _hidden_derivative(s, kind: str):
    """Activation derivative expressed through the activation's output s."""
    if kind == "sigmoid":
        return s * (1.0 - s)
    return relu_derivative(s)  # relu(h) > 0 exactly where h > 0


@dataclass
class Architecture:
    """Layer widths plus activation/loss choices."""

    widths: list[int]
    hidden_activation: str = "sigmoid"
    output_activation: str = "sigmoid"
    loss: str = "quadratic"
    use_bias: bool = True

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError(f"need at least 2 layers with positive widths, got {self.widths}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {HIDDEN_ACTIVATIONS}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"output_activation must be one of {OUTPUT_ACTIVATIONS}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if self.loss == "cross_entropy" and self.output_activation != "softmax":
            raise ValueError("cross_entropy loss requires softmax output")

    @property
    def n_layers(self) -> int:
        return len(self.widths)

    @property
    def n_in(self) -> int:
        return self.widths[0]

    @property
    def n_out(self) -> int:
        return self.widths[-1]

    def weight_shapes(self) -> list[tuple[int, int]]:
        extra = 1 if self.use_bias else 0
        return [
            (self.widths[k], self.widths[k - 1] + extra)
            for k in range(1, len(self.widths))
        ]


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


def preactivation(w: Matrix, s: Matrix, use_bias: bool) -> Matrix:
    """w @ s, plus the bias column w[:, -1] when the layer has one."""
    if not use_bias:
        return w @ s
    h = w[:, :-1] @ s
    h += w[:, -1] if s.ndim == 1 else w[:, -1:]
    return h


def forward(params: list[Matrix], arch: Architecture, x: Matrix,
            layer1: Matrix | None = None) -> ForwardTrace:
    """States of every layer for input x.

    ``layer1``, when given, is the first layer's pre-activation for x,
    already computed by the caller; params[0] is then not applied.
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
            h = preactivation(w, states[-1], arch.use_bias)
        kind = arch.output_activation if k == last else arch.hidden_activation
        states.append(activation(h, kind))
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


def _output_error_signal(arch: Architecture, y: Matrix, target: Matrix) -> Matrix:
    """dE/dh at the output layer."""
    if arch.loss == "cross_entropy":
        # softmax + cross-entropy simplification
        return y - target
    neg_eps = y - target  # -(y* - y)
    if arch.output_activation == "sigmoid":
        return neg_eps * (y * (1.0 - y))
    # quadratic loss through softmax: apply the softmax Jacobian
    a = neg_eps * y
    return a - y * np.sum(a, axis=0, keepdims=True)


def backward(params: list[Matrix], arch: Architecture, trace: ForwardTrace,
             target: Matrix) -> list[Matrix]:
    """Gradients of the loss w.r.t. each weight matrix (no learning rate).

    For batched traces (columns = examples) the result is the mean gradient
    over the batch.
    """
    target = np.asarray(target, dtype=np.float64)
    y = trace.output
    if target.shape != y.shape:
        raise ShapeError(f"target shape {target.shape} vs output shape {y.shape}")
    # A single example is a batch of one column: outer products become
    # matrix products with one term each, which round identically.
    columns = [s.reshape(s.shape[0], -1) for s in trace.states]
    batch = columns[-1].shape[1]

    kappa = _output_error_signal(arch, columns[-1], target.reshape(columns[-1].shape))
    grads: list[Matrix] = [None] * len(params)
    for k in range(len(params) - 1, -1, -1):
        s_prev = columns[k]
        g = np.empty_like(params[k])
        n = arch.widths[k]
        np.matmul(kappa, s_prev.T, out=g[:, :n])
        if arch.use_bias:
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
        f.write(struct.pack("<II", _VERSION, arch.n_layers))
        f.write(struct.pack(f"<{arch.n_layers}I", *arch.widths))
        f.write(struct.pack("<BBBB",
                            _ACT_CODES[arch.hidden_activation],
                            _ACT_CODES[arch.output_activation],
                            _LOSS_CODES[arch.loss],
                            int(arch.use_bias)))
        for w in params:
            f.write(np.ascontiguousarray(w, dtype="<f8"))


def load_checkpoint(path) -> tuple[Architecture, list[Matrix]]:
    """The architecture and parameters in a file written by :func:`save_checkpoint`.

    Each layer's size is checked against the file before its matrix is
    allocated, and the file is read straight into the final C-contiguous
    ``<f8`` matrices.  ``ValueError`` on a bad magic, version, code or bias
    flag, a short file or trailing bytes.
    """
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        version, n_layers = struct.unpack("<II", read_exact(f, 8, path))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        widths = list(struct.unpack(f"<{n_layers}I", read_exact(f, 4 * n_layers, path)))
        h_act, o_act, loss_code, bias_flag = struct.unpack("<BBBB", read_exact(f, 4, path))
        try:
            names = _ACT_NAMES[h_act], _ACT_NAMES[o_act], _LOSS_NAMES[loss_code]
        except KeyError as exc:
            raise ValueError(f"{path}: unknown activation or loss code {exc.args[0]}") from None
        if bias_flag not in (0, 1):
            raise ValueError(f"{path}: bias flag must be 0 or 1, got {bias_flag}")
        arch = Architecture(widths=widths, hidden_activation=names[0],
                            output_activation=names[1], loss=names[2],
                            use_bias=bool(bias_flag))
        params = [read_array(f, shape, "<f8", path) for shape in arch.weight_shapes()]
        check_end(f, path)
        return arch, params
