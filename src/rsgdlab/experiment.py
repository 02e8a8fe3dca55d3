"""Training runs: the epoch loop, metric evaluation, and multi-seed suites.

One run is fully described by a TrainConfig.  All randomness derives from the
config seed through purpose-labeled streams, so two configs differing only in
the optimizer consume identical initial weights, data, and shuffle order (the
reinforcement coins live on their own stream).
"""

from __future__ import annotations

import contextlib
import csv
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import network as net
from .core import RngStream, ShapeError, threads_for
from .optim import Adam, Nag, Rsgd, Schedule, Sgdm, VanillaSgd

OPTIMIZERS = ("backprop", "rsgd", "sgdm", "nag", "adam")
METRICS = ("mse", "classification_error")
EVAL_CHUNK = 2000  # examples per forward pass in evaluate

METRICS_CSV_HEADER = ["epoch", "train_error", "test_error", "eta", "gamma", "wall_time_s"]
AGGREGATE_CSV_HEADER = ["config_id", "metric_mean", "metric_std", "n_runs", "n_diverged"]


class DivergenceError(RuntimeError):
    """Training produced non-finite loss or weights."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass
class TrainConfig:
    architecture: net.Architecture
    optimizer: str = "backprop"
    schedule: Schedule | None = None          # rsgd, or adaptive sgdm/nag
    rho: float | str | None = None            # sgdm/nag: momentum value or "adaptive"
    eta0: float | None = None                 # unset: 0.01 for adam, else 0.8
    beta: float = 0.999
    eta_floor: float | None = None            # unset: 0.001 for adam, else 0.02
    batch_size: int = 100
    epochs: int = 100
    train_count: int | None = None            # unset: the files' counts, else 1000
    test_count: int | None = None
    seed: int = 0
    dataset_source: tuple = ("teacher",)      # ("teacher",) | ("mnist", imgs, lbls) | ("files", train, test)
    checkpoint_epochs: tuple = ()
    metric: str = "mse"

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.dataset_source[0] not in ("teacher", "mnist", "files"):
            raise ValueError(f"unknown dataset source {self.dataset_source[0]!r}")
        paper = (0.01, 0.001) if self.optimizer == "adam" else (0.8, 0.02)
        self.eta0 = paper[0] if self.eta0 is None else self.eta0
        self.eta_floor = paper[1] if self.eta_floor is None else self.eta_floor
        if self.dataset_source[0] != "files":
            self.train_count = 1000 if self.train_count is None else self.train_count
            self.test_count = 1000 if self.test_count is None else self.test_count
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if not (self.eta0 > 0 and self.eta_floor > 0):
            raise ValueError("eta0 and eta_floor must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if any(not 0 <= e <= self.epochs for e in self.checkpoint_epochs):
            raise ValueError(f"checkpoint epochs must lie in 0..{self.epochs}")
        if self.train_count is not None and self.train_count % self.batch_size != 0:
            raise ValueError(
                f"batch size {self.batch_size} must divide train count {self.train_count}")
        if self.optimizer == "rsgd" and self.schedule is None:
            raise ValueError("rsgd needs a reinforcement schedule")
        if self.optimizer in ("sgdm", "nag"):
            if self.rho is None:
                raise ValueError(f"{self.optimizer} needs rho (a value or 'adaptive')")
            if self.rho == "adaptive" and self.schedule is None:
                raise ValueError("adaptive momentum needs a schedule")
        if self.rho not in (None, "adaptive") and not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be 'adaptive' or lie in [0, 1], got {self.rho}")
        if self.dataset_source[0] == "teacher" and self.train_count != self.test_count:
            raise ValueError("teacher datasets are split in half: train_count must equal test_count")


@dataclass
class MetricsRecord:
    epoch: int
    train_error: float
    test_error: float
    eta: float
    gamma: float
    wall_time_s: float


@dataclass
class TrainResult:
    config: TrainConfig
    history: list[MetricsRecord]
    params: list[np.ndarray]
    checkpoints: dict[int, list[np.ndarray]] = field(default_factory=dict)
    oracle_calls: int = 0                     # nag: look-ahead gradients, one per step

    @property
    def final_test_error(self) -> float:
        return self.history[-1].test_error


def check_widths(arch: net.Architecture, dataset: data_mod.LabeledDataset) -> None:
    """``ShapeError`` unless ``dataset``'s inputs and targets are as wide as ``arch``'s ends."""
    if dataset.n_in != arch.n_in:
        raise ShapeError(f"dataset has {dataset.n_in} inputs, architecture expects {arch.n_in}")
    if dataset.n_out != arch.n_out:
        raise ShapeError(f"dataset has {dataset.n_out} target columns, "
                         f"architecture has {arch.n_out} outputs")


def evaluate(params, arch: net.Architecture, dataset: data_mod.LabeledDataset,
             metric: str, layer1=None) -> float:
    """Mean error over a dataset; forward passes chunked to bound memory.

    ``layer1``, when given, is the first layer's pre-activation for the whole
    dataset (examples as columns); each chunk's forward pass uses its slice,
    and overwrites it with the first layer's state (see ``network.forward``).
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    check_widths(arch, dataset)
    n = len(dataset)
    total = 0.0
    for start in range(0, n, EVAL_CHUNK):
        x = dataset.inputs[start:start + EVAL_CHUNK].T
        y_true = dataset.targets[start:start + EVAL_CHUNK].T
        h1 = None if layer1 is None else layer1[:, start:start + EVAL_CHUNK]
        y = net.forward(params, arch, x, h1).output
        if metric == "mse":
            eps = y_true - y
            total += 0.5 * float(np.sum(eps * eps))
        else:
            total += float(np.count_nonzero(np.argmax(y, axis=0) != np.argmax(y_true, axis=0)))
    return total / n


def build_datasets(config: TrainConfig) -> tuple[data_mod.LabeledDataset, data_mod.LabeledDataset]:
    source = config.dataset_source
    if source[0] == "teacher":
        rng = RngStream(config.seed, "data-gen")
        return data_mod.generate_teacher_dataset(
            config.architecture.n_in, config.architecture.n_out,
            2 * config.train_count, rng)
    if source[0] == "mnist":
        pool = data_mod.load_mnist_idx(source[1], source[2])
        rng = RngStream(config.seed, "data-gen")
        return data_mod.subsample(pool, config.train_count, config.test_count, rng)
    sets = data_mod.load_dataset(source[1]), data_mod.load_dataset(source[2])
    for path, count, dataset in zip(source[1:], (config.train_count, config.test_count), sets):
        if count is not None and count != len(dataset):
            raise ValueError(f"{path} holds {len(dataset)} examples, but its count is {count}")
    return sets


def _make_optimizer(config: TrainConfig, params):
    if config.optimizer == "backprop":
        return VanillaSgd(params)
    if config.optimizer == "rsgd":
        rng = RngStream(config.seed, "reinforcement")
        return Rsgd(params, config.schedule, rng)
    if config.optimizer == "sgdm":
        return Sgdm(params, config.rho, config.schedule)
    if config.optimizer == "nag":
        return Nag(params, config.rho, config.schedule)
    return Adam(params)


def _now(fn, *args) -> Future:
    """``fn(*args)``, called on the calling thread, as a finished Future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def train(config: TrainConfig,
          datasets: tuple[data_mod.LabeledDataset, data_mod.LabeledDataset] | None = None,
          ) -> TrainResult:
    """Run the full epoch loop; raises DivergenceError on non-finite state."""
    arch = config.architecture
    if datasets is None:
        datasets = build_datasets(config)
    train_set, test_set = datasets
    for dataset in datasets:
        check_widths(arch, dataset)

    params = net.init_params(arch, RngStream(config.seed, "weight-init"))
    optimizer = _make_optimizer(config, params)
    plan = data_mod.BatchPlan(len(train_set), config.batch_size,
                              RngStream(config.seed, "shuffle"))
    eta = max(config.eta0, config.eta_floor)

    def gamma_now(t, t_ep):
        return config.schedule.gamma(t, t_ep) if config.schedule is not None else 0.0

    checkpoints: dict[int, list[np.ndarray]] = {}
    if 0 in config.checkpoint_epochs:
        checkpoints[0] = [w.copy() for w in params]
    history: list[MetricsRecord] = []

    def score(params):
        """Train and test error of ``params``, and the seconds they took."""
        started = time.perf_counter()
        with np.errstate(**errors):  # numpy's error state is per thread
            return (evaluate(params, arch, train_set, config.metric),
                    evaluate(params, arch, test_set, config.metric),
                    time.perf_counter() - started)

    def log(epoch, eta, gamma, train_s, scored, diverged=False):
        """Append the epoch's record once its score is in; DivergenceError if it diverged."""
        train_error, test_error, score_s = scored.result()
        history.append(MetricsRecord(epoch=epoch, train_error=train_error,
                                     test_error=test_error, eta=eta, gamma=gamma,
                                     wall_time_s=train_s + score_s))
        if epoch and (diverged or not (np.isfinite(train_error) and np.isfinite(test_error))):
            raise DivergenceError(f"non-finite loss or weights at epoch {epoch}", history)

    # a non-finite loss or weight raises DivergenceError, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            ThreadPoolExecutor(1) as pool:
        errors = np.geterr()
        # Epoch e is scored on the pool's thread while epoch e + 1 trains on this
        # one.  Each step binds params to new arrays, so the ones being scored
        # are never written.
        submit = pool.submit if threads_for(evaluate, 2) > 1 else _now
        pending = (0, eta, gamma_now(0, 0), 0.0, submit(score, params))
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            t_ep = epoch - 1  # completed epochs while this one runs
            for idx in plan.epoch_batches():
                x, y_true = train_set.inputs[idx].T, train_set.targets[idx].T
                at = optimizer.lookahead(params, t_ep)
                # the trace and the deltas stay unnamed, so neither outlives its statement
                grads = net.backward(at, arch, net.forward(at, arch, x), y_true)
                params = [w + d for w, d in zip(params, optimizer.step(grads, eta, t_ep=t_ep))]
            train_s = time.perf_counter() - started

            gamma_logged = gamma_now(optimizer.t, t_ep)
            # epoch-boundary refresh: eta compounds by beta^epoch, floored
            eta = max(eta * config.beta ** epoch, config.eta_floor)

            log(*pending)  # the previous epoch's record comes first, as does its divergence
            trained = (epoch, eta, gamma_logged, train_s)
            if not all(np.isfinite(w).all() for w in params):
                log(*trained, _now(score, params), diverged=True)
            if epoch in config.checkpoint_epochs:
                checkpoints[epoch] = [w.copy() for w in params]
            pending = (*trained, submit(score, params))
        log(*pending)

    return TrainResult(config=config, history=history, params=params,
                       checkpoints=checkpoints,
                       oracle_calls=optimizer.t if isinstance(optimizer, Nag) else 0)


@dataclass
class SuiteRow:
    config_id: str
    metric_mean: float
    metric_std: float
    n_runs: int
    n_diverged: int


def run_suite(configs: dict[str, TrainConfig], n_runs: int,
              jobs: int = 1) -> list[SuiteRow]:
    """Run each config n_runs times with seeds base+0..base+n-1, paired across configs."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    tasks = [(cid, replace(cfg, seed=cfg.seed + i))
             for cid, cfg in configs.items() for i in range(n_runs)]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # capped at the task count: under fork every worker starts at once
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_suite_task, tasks))
    else:
        outcomes = list(map(_suite_task, tasks))

    rows = []
    for cid in configs:
        values = [v for c, v in outcomes if c == cid and v is not None]
        diverged = sum(1 for c, v in outcomes if c == cid and v is None)
        if values:
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        else:
            mean, std = float("nan"), float("nan")
        rows.append(SuiteRow(config_id=cid, metric_mean=mean, metric_std=std,
                             n_runs=len(values), n_diverged=diverged))
    return rows


def _suite_task(task):
    cid, cfg = task
    try:
        return cid, train(cfg).final_test_error
    except DivergenceError:
        return cid, None


@contextlib.contextmanager
def _open_csv(dest):
    """Yield ``dest`` if it is an open file, else a new file at that path, closed after."""
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", newline="") as f:
            yield f


def write_metrics_csv(dest, history: list[MetricsRecord]) -> None:
    with _open_csv(dest) as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_CSV_HEADER)
        for r in history:
            writer.writerow([r.epoch, repr(r.train_error), repr(r.test_error),
                             repr(r.eta), repr(r.gamma), f"{r.wall_time_s:.6f}"])


def write_aggregate_csv(dest, rows: list[SuiteRow]) -> None:
    with _open_csv(dest) as f:
        writer = csv.writer(f)
        writer.writerow(AGGREGATE_CSV_HEADER)
        for r in rows:
            writer.writerow([r.config_id, repr(r.metric_mean), repr(r.metric_std),
                             r.n_runs, r.n_diverged])
