"""Optimizers and reinforcement schedules.

Five update rules share one convention: ``step`` consumes the current
mini-batch gradient (averaged over the batch) and returns the parameter
delta to ADD to the weights.  The step counter ``t`` counts mini-batch
updates since the start of training, never resetting at epoch boundaries;
``t_ep`` counts completed epochs and only matters for the exponential-gamma
schedule.

The reinforced rule keeps one accumulator per weight component.  At every
step each component independently keeps accumulating history with
probability gamma(t), otherwise the accumulator resets to the instantaneous
gradient.  Coins come from a dedicated stream so that switching optimizers
never perturbs initialization or data order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import Matrix, RngStream, ShapeError


# --- reinforcement probability schedules ---------------------------------

@dataclass(frozen=True)
class ExpGammaSchedule:
    """gamma(t) = 1 - (gamma0 * e^(-lam * t_ep))^t; gamma0=1, lam=0 gives 0 forever."""

    gamma0: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.gamma0 <= 1.0:
            raise ValueError(f"gamma0 must lie in (0, 1], got {self.gamma0}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")

    def gamma(self, t: int, t_ep: int = 0) -> float:
        base = self.gamma0 * np.exp(-self.lam * t_ep)
        return float(min(max(1.0 - base ** t, 0.0), 1.0))


@dataclass(frozen=True)
class PowerLawSchedule:
    """gamma(t) = 1 - a0 / (t + 1)^b0, clamped to [0, 1]."""

    a0: float
    b0: float

    def __post_init__(self):
        if self.a0 <= 0.0 or self.b0 <= 0.0:
            raise ValueError(f"a0 and b0 must be > 0, got a0={self.a0}, b0={self.b0}")

    def gamma(self, t: int, t_ep: int = 0) -> float:
        return float(min(max(1.0 - self.a0 / (t + 1.0) ** self.b0, 0.0), 1.0))


Schedule = ExpGammaSchedule | PowerLawSchedule


# --- optimizers ----------------------------------------------------------

def _zeros_like(template: list[Matrix]) -> list[Matrix]:
    return [np.zeros_like(w) for w in template]


def _check_congruent(buffers: list[Matrix], grads: list[Matrix]) -> None:
    if len(buffers) != len(grads) or any(b.shape != g.shape for b, g in zip(buffers, grads)):
        raise ShapeError("gradient shapes do not match optimizer buffers")


class VanillaSgd:
    """Plain mini-batch gradient descent: delta = -eta * g."""

    def __init__(self, shapes_template: list[Matrix]):
        self._shapes = [w.shape for w in shapes_template]
        self.t = 0

    def step(self, grads: list[Matrix], eta: float, t_ep: int = 0) -> list[Matrix]:
        if [g.shape for g in grads] != self._shapes:
            raise ShapeError("gradient shapes do not match optimizer buffers")
        self.t += 1
        return [-eta * g for g in grads]


class Rsgd:
    """Reinforced SGD: stochastic per-component accumulation of gradients."""

    def __init__(self, shapes_template: list[Matrix], schedule: Schedule, rng: RngStream):
        self.accumulated = _zeros_like(shapes_template)
        self.schedule = schedule
        self.rng = rng
        self.t = 0

    def step(self, grads: list[Matrix], eta: float, t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.accumulated, grads)
        p = self.schedule.gamma(self.t, t_ep)
        new = []
        for g, prev in zip(grads, self.accumulated):
            keep = self.rng.bernoulli_matrix(p, g.shape)
            new.append(g + keep * prev)
        self.accumulated = new
        self.t += 1
        return [-eta * g for g in new]


class Sgdm:
    """Momentum SGD; rho either fixed or adaptive (rho_t = gamma(t))."""

    def __init__(self, shapes_template: list[Matrix], rho: float | str,
                 schedule: Schedule | None = None):
        if rho == "adaptive" and schedule is None:
            raise ValueError("adaptive momentum needs a schedule")
        self.velocity = _zeros_like(shapes_template)
        self.rho = rho
        self.schedule = schedule
        self.t = 0

    def _rho_at(self, t_ep: int) -> float:
        if self.rho == "adaptive":
            return self.schedule.gamma(self.t, t_ep)
        return float(self.rho)

    def step(self, grads: list[Matrix], eta: float, t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.velocity, grads)
        rho = self._rho_at(t_ep)
        self.velocity = [rho * v + g for v, g in zip(self.velocity, grads)]
        self.t += 1
        return [-eta * v for v in self.velocity]


class Nag(Sgdm):
    """Nesterov momentum: gradient evaluated after a partial look-ahead update.

    ``gradient_oracle`` maps a parameter list to the current mini-batch
    gradient at those parameters; it is called exactly once per step and the
    call count is exposed for cost accounting.
    """

    oracle_calls = 0

    def step(self, params: list[Matrix], eta: float, gradient_oracle,
             t_ep: int = 0) -> list[Matrix]:
        _check_congruent(self.velocity, params)
        rho = self._rho_at(t_ep)
        lookahead = [w + rho * v for w, v in zip(params, self.velocity)]
        grads = gradient_oracle(lookahead)
        self.oracle_calls += 1
        _check_congruent(self.velocity, grads)
        self.velocity = [rho * v - eta * g for v, g in zip(self.velocity, grads)]
        self.t += 1
        return list(self.velocity)


class Adam:
    """Adam with bias-corrected first and second raw moments."""

    def __init__(self, shapes_template: list[Matrix], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.m = _zeros_like(shapes_template)
        self.v = _zeros_like(shapes_template)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

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
    g = np.array([schedule.gamma(l) for l in range(t + 1)])
    g[0] = 0.0
    pmf = np.empty(t + 1)
    suffix = 1.0  # product of gamma over steps t-L+1 .. t
    for length in range(t + 1):
        pmf[length] = (1.0 - g[t - length]) * suffix
        suffix *= g[t - length]
    return pmf


def expected_tv(pmf: np.ndarray, n: int) -> float:
    """Expected total-variation distance of an n-sample histogram from ``pmf``.

    Sampling noise alone gives each entry a normal error of sd
    sqrt(p(1-p)/n), whose mean absolute value is sqrt(2/pi) sd; half their sum
    is sum sqrt(p(1-p) / (2 pi n)).
    """
    p = np.asarray(pmf, dtype=np.float64)
    return float(np.sqrt(p * (1.0 - p) / (2.0 * np.pi * n)).sum())


SIM_BLOCK = 2 ** 17  # coins in flight across all parts of simulate_memory_length


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
    cpus = min(_usable_cpus(), max(1, SIM_BLOCK // t))
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
