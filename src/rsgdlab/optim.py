"""Optimizers and reinforcement schedules.

Five update rules share one protocol: ``lookahead(params, t_ep)`` is the
point where this step's gradient is taken (``params`` itself for all but
Nesterov momentum), and ``step(grads, eta, t_ep)`` consumes the mini-batch
gradient there (averaged over the batch) and returns the parameter delta to
ADD to the weights.  The step counter ``t`` counts mini-batch updates since
the start of training, never resetting at epoch boundaries; ``t_ep`` counts
completed epochs and only matters for the exponential-gamma schedule.

Plain SGD, momentum and the reinforced rule are one recursion on a per-weight
accumulator, a <- rho * a + g and delta = -eta * a (:class:`Sgdm`), differing
only in rho: 0, a fixed or scheduled momentum, or a per-component coin that
keeps the history with probability gamma(t) and otherwise resets it to the
current gradient.  Coins come from a dedicated stream so that switching
optimizers never perturbs initialization or data order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import Matrix, RngStream, ShapeError, usable_cpus


# --- reinforcement probability schedules ---------------------------------

@dataclass(frozen=True)
class ExpGammaSchedule:
    """gamma(t) = 1 - (gamma0 * e^(-lam * t_ep))^t; gamma0=1, lam=0 gives 0 forever."""

    gamma0: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.gamma0 <= 1.0:
            raise ValueError(f"gamma0 must lie in (0, 1], got {self.gamma0}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam (lambda) must be finite and >= 0, got {self.lam}")

    def gamma(self, t: int, t_ep: int = 0) -> float:
        base = self.gamma0 * np.exp(-self.lam * t_ep)
        return float(min(max(1.0 - base ** t, 0.0), 1.0))


@dataclass(frozen=True)
class PowerLawSchedule:
    """gamma(t) = 1 - a0 / (t + 1)^b0, clamped to [0, 1]."""

    a0: float
    b0: float

    def __post_init__(self):
        for name, value in (("a0", self.a0), ("b0", self.b0)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    def gamma(self, t: int, t_ep: int = 0) -> float:
        return float(min(max(1.0 - self.a0 / (t + 1.0) ** self.b0, 0.0), 1.0))


Schedule = ExpGammaSchedule | PowerLawSchedule


# --- optimizers ----------------------------------------------------------

def _zeros_like(template: list[Matrix]) -> list[Matrix]:
    return [np.zeros_like(w) for w in template]


def _check_congruent(buffers: list[Matrix], grads: list[Matrix]) -> None:
    if len(buffers) != len(grads) or any(b.shape != g.shape for b, g in zip(buffers, grads)):
        raise ShapeError("gradient shapes do not match optimizer buffers")


class Sgdm:
    """Accumulate and step: a <- rho * a + g, delta = -eta * a.

    rho is a fixed momentum or, with ``"adaptive"``, gamma(t) of ``schedule``.
    Plain SGD (:class:`VanillaSgd`) is rho = 0 and R-SGD (:class:`Rsgd`)
    replaces rho by a per-component Bernoulli(gamma(t)) coin.
    """

    def __init__(self, shapes_template: list[Matrix], rho: float | str,
                 schedule: Schedule | None = None):
        if rho == "adaptive" and schedule is None:
            raise ValueError("adaptive momentum needs a schedule")
        self.accumulated = _zeros_like(shapes_template)
        self.rho = rho
        self.schedule = schedule
        self.t = 0

    def _rho_at(self, t_ep: int) -> float:
        if self.rho == "adaptive":
            return self.schedule.gamma(self.t, t_ep)
        return float(self.rho)

    def _factor(self, rho: float, shape) -> float | Matrix:
        """What multiplies one layer's accumulated gradient this step."""
        return rho

    def lookahead(self, params: list[Matrix], t_ep: int = 0) -> list[Matrix]:
        """Where this step's gradient is taken: ``params`` itself, not a copy."""
        return params

    def step(self, grads: list[Matrix], eta: float, t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.accumulated, grads)
        rho = self._rho_at(t_ep)
        self.accumulated = [self._factor(rho, g.shape) * a + g
                            for a, g in zip(self.accumulated, grads)]
        self.t += 1
        return [-eta * a for a in self.accumulated]


class VanillaSgd(Sgdm):
    """Plain mini-batch gradient descent: rho = 0, so delta = -eta * g."""

    def __init__(self, shapes_template: list[Matrix]):
        super().__init__(shapes_template, 0.0)

    step = Sgdm.step  # in vars(VanillaSgd) too, so bench/spans.py times it apart from Sgdm's


class Rsgd(Sgdm):
    """Reinforced SGD: rho is a Bernoulli(gamma(t)) coin per component, from ``rng``."""

    def __init__(self, shapes_template: list[Matrix], schedule: Schedule, rng: RngStream):
        super().__init__(shapes_template, "adaptive", schedule)
        self.rng = rng

    def _factor(self, rho: float, shape) -> Matrix:
        return self.rng.bernoulli_matrix(rho, shape)

    step = Sgdm.step  # in vars(Rsgd) too, so bench/spans.py times it apart from Sgdm's


class Nag(Sgdm):
    """Nesterov momentum: the gradient is taken at the look-ahead point w + rho * v."""

    def lookahead(self, params: list[Matrix], t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.accumulated, params)
        rho = self._rho_at(t_ep)
        return [w + rho * v for w, v in zip(params, self.accumulated)]

    def step(self, grads: list[Matrix], eta: float, t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.accumulated, grads)
        rho = self._rho_at(t_ep)  # lookahead's rho: t has not moved since
        self.accumulated = [rho * v - eta * g for v, g in zip(self.accumulated, grads)]
        self.t += 1
        return list(self.accumulated)


class Adam:
    """Adam with bias-corrected first and second raw moments."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes_template: list[Matrix]):
        self.m = _zeros_like(shapes_template)
        self.v = _zeros_like(shapes_template)
        self.t = 0

    lookahead = Sgdm.lookahead

    def step(self, grads: list[Matrix], eta: float, t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.m, grads)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.m = [b1 * m + (1 - b1) * g for m, g in zip(self.m, grads)]
        self.v = [b2 * v + (1 - b2) * g * g for v, g in zip(self.v, grads)]
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        return [
            -eta * (m / c1) / (np.sqrt(v / c2) + self.eps)
            for m, v in zip(self.m, self.v)
        ]


# --- analytic diagnostics ------------------------------------------------

def memory_length_pmf(schedule: Schedule, t: int) -> np.ndarray:
    """Distribution of the accumulator's memory length at step t.

    Entry L is the probability that the current accumulated gradient is a sum
    over the last L+1 steps (reset at step t-L, accumulation at every step
    since).  gamma at step 0 is forced to 0, which makes the distribution sum
    to one exactly.  Gamma is taken within the first epoch (t_ep = 0), so an
    exp-gamma schedule's lam has no effect.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    back = np.array([schedule.gamma(l) for l in range(t, 0, -1)] + [0.0])  # gamma at step t-L
    return (1.0 - back) * np.concatenate(([1.0], np.cumprod(back)[:-1]))


def expected_tv(pmf: np.ndarray, n: int) -> float:
    """Expected total-variation distance of an n-sample histogram from ``pmf``.

    Sampling noise alone gives each entry a normal error of sd
    sqrt(p(1-p)/n), whose mean absolute value is sqrt(2/pi) sd; half their sum
    is sum sqrt(p(1-p) / (2 pi n)).
    """
    p = np.asarray(pmf, dtype=np.float64)
    return float(np.sqrt(p * (1.0 - p) / (2.0 * np.pi * n)).sum())


SIM_BLOCK = 2 ** 17  # coins in flight across all parts of simulate_memory_length


def _trailing_run_counts(gen: np.random.Generator, probs: np.ndarray, runs: int,
                         rows: int) -> np.ndarray:
    """int64 histogram of the trailing accumulation run of ``runs`` runs, ``rows`` at a time."""
    t = len(probs)
    counts = np.zeros(t + 1, dtype=np.int64)
    for start in range(0, runs, rows):
        # coins[:, l-1] = reinforce at step l
        coins = gen.random((min(rows, runs - start), t)) < probs
        rev = ~coins[:, ::-1]
        has_reset = rev.any(axis=1)
        lengths = np.where(has_reset, np.argmax(rev, axis=1), t)
        counts += np.bincount(lengths, minlength=t + 1)
    return counts


def simulate_memory_length(schedule: Schedule, t: int, n_runs: int,
                           rng: RngStream) -> np.ndarray:
    """Empirical memory-length distribution from simulating the coin process.

    Each run draws the per-step reinforcement coin for steps 1..t and reports
    the length of the trailing run of accumulations at step t.  Returns the
    normalized histogram over lengths 0..t.  Gamma is taken within the first
    epoch (t_ep = 0), as in :func:`memory_length_pmf`.

    The runs are cut at block boundaries into one contiguous part per usable
    CPU (at most one per block, and at most ``SIM_BLOCK // t``), and the parts
    are histogrammed on threads.  Each part draws from its own stretch of
    ``rng`` (:meth:`RngStream.split`) row by row, so the coins, the histogram
    and ``rng``'s state afterwards equal those of one ``(n_runs, t)`` draw,
    whatever the number of CPUs.  Blocks hold about ``SIM_BLOCK`` coins across
    all parts together, so memory is O(SIM_BLOCK + t) whatever ``n_runs`` is.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if t == 0:
        return np.ones(1)  # no coins: every run has length 0
    probs = np.array([schedule.gamma(l) for l in range(1, t + 1)])
    # no more parts than runs of t coins fit in SIM_BLOCK, so memory stays O(SIM_BLOCK + t)
    cpus = min(usable_cpus(), max(1, SIM_BLOCK // t))
    rows = max(1, SIM_BLOCK // (cpus * t))
    blocks = -(-n_runs // rows)
    n_parts = min(cpus, blocks)
    edges = [min(n_runs, rows * (j * blocks // n_parts)) for j in range(n_parts + 1)]
    runs = [b - a for a, b in zip(edges, edges[1:])]
    gens = rng.split([r * t for r in runs])
    with ThreadPoolExecutor(n_parts) as pool:
        counts = sum(pool.map(_trailing_run_counts, gens, repeat(probs), runs, repeat(rows)))
    return counts / n_runs


def sgdm_unfold(rho_sequence, gradient_sequence, eta_sequence) -> Matrix:
    """Closed-form momentum step at the final time: test oracle for Sgdm.

    Sequences are indexed by step 1..T.  The delta equals
    -eta_T * sum_l (prod_{l'=l+1..T} rho_{l'}) g_l, the weight on the final
    gradient being exactly 1.
    """
    T = len(rho_sequence)
    if len(gradient_sequence) != T or len(eta_sequence) != T:
        raise ValueError("rho, gradient, and eta sequences must have equal length")
    if T == 0:
        raise ValueError("need at least one step")
    total = np.zeros_like(np.asarray(gradient_sequence[0], dtype=np.float64))
    weight = 1.0
    for l in range(T - 1, -1, -1):
        total = total + weight * np.asarray(gradient_sequence[l], dtype=np.float64)
        weight *= rho_sequence[l]  # rho at step l multiplies all earlier gradients
    return -eta_sequence[-1] * total
