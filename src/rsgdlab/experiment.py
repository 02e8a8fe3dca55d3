"""Training runs: the epoch loop, metric evaluation, and multi-seed suites.

One run is fully described by a TrainConfig.  All randomness derives from the
config seed through purpose-labeled streams, so two configs differing only in
the optimizer consume identical initial weights, data, and shuffle order (the
reinforcement coins live on their own stream).
"""

from __future__ import annotations

import csv
import time
from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from . import network as net
from .core import RngStream, ShapeError, submitter, threads_for
from .optim import Adam, Nag, Rsgd, Schedule, Sgdm, VanillaSgd

OPTIMIZERS = ("backprop", "rsgd", "sgdm", "nag", "adam")
METRICS = ("mse", "classification_error")
EVAL_CHUNK = 2000  # examples per forward pass in evaluate
TARGET_SUM_TOL = 1e-6  # how far from 1 a cross-entropy target row may sum

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
    schedule: Schedule | None = None          # read only where the optimizer draws on it
    rho: float | str | None = None            # sgdm/nag momentum; see optim.Sgdm
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
        if len(self.architecture.widths) < 2:
            raise ValueError(f"need at least 2 layers to train, got {self.architecture.widths}")
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
        for key in ("epochs", "batch_size", "train_count", "test_count"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        if any(not 0 <= e <= self.epochs for e in self.checkpoint_epochs):
            raise ValueError(f"checkpoint epochs must lie in 0..{self.epochs}")
        if self.train_count is not None and self.train_count % self.batch_size != 0:
            raise ValueError(
                f"batch size {self.batch_size} must divide train count {self.train_count}")
        _make_optimizer(self, [])  # the optimizer refuses a missing rho or schedule
        if self.rho not in (None, "adaptive") and not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be 'adaptive' or lie in [0, 1], got {self.rho}")


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
    history: list[MetricsRecord]
    params: list[np.ndarray]
    checkpoints: dict[int, list[np.ndarray]]

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


def check_targets(arch: net.Architecture, dataset: data_mod.LabeledDataset, where) -> None:
    """``ValueError`` naming ``where`` if ``arch``'s loss is cross-entropy and a target row
    has a negative entry or does not sum to 1: training on such targets diverges."""
    if arch.loss != "cross_entropy":
        return
    t = dataset.targets
    bad = (t < 0).any(axis=1) | ~(np.abs(t.sum(axis=1) - 1.0) <= TARGET_SUM_TOL)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{where}: loss cross_entropy needs targets that are distributions "
                         f"(entries >= 0, summing to 1 within {TARGET_SUM_TOL}), but row {row} "
                         f"has minimum {float(t[row].min())!r} and sum {float(t[row].sum())!r}")


def evaluate(params, arch: net.Architecture, dataset: data_mod.LabeledDataset,
             metric: str) -> float:
    """Mean error over a dataset; forward passes chunked to bound memory."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    check_widths(arch, dataset)
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on a dataset with no examples")
    total = 0.0
    for start in range(0, n, EVAL_CHUNK):
        x = dataset.inputs[start:start + EVAL_CHUNK].T
        y_true = dataset.targets[start:start + EVAL_CHUNK].T
        y = net.forward(params, arch, x).output
        if metric == "mse":
            total += net.loss(y, y_true, "quadratic")
        else:  # argmax would take a NaN output for the predicted class, so such a chunk is NaN
            wrong = np.count_nonzero(np.argmax(y, axis=0) != np.argmax(y_true, axis=0))
            total += float(wrong) if np.isfinite(y).all() else np.nan
    return total / n


def build_datasets(config: TrainConfig) -> tuple[data_mod.LabeledDataset, data_mod.LabeledDataset]:
    """The two files, else the first ``train_count`` and the rest of one draw of both counts."""
    source, n_train, n_test = config.dataset_source, config.train_count, config.test_count
    if source[0] == "files":
        sets = data_mod.load_dataset(source[1]), data_mod.load_dataset(source[2])
        for path, count, dataset in zip(source[1:], (n_train, n_test), sets):
            if count is not None and count != len(dataset):
                raise ValueError(f"{path} holds {len(dataset)} examples, but its count is {count}")
        return sets
    rng = RngStream(config.seed, "data-gen")
    if source[0] == "teacher":
        full = data_mod.generate_teacher_dataset(
            config.architecture.n_in, config.architecture.n_out, n_train + n_test, rng)
    else:  # disjoint uniform train and test rows; only those are read
        def pick(count):
            if n_train + n_test > count:
                raise ValueError(f"need {n_train + n_test} examples ({n_train} train + {n_test} "
                                 f"test), dataset has {count}")
            return rng.gen.choice(count, n_train + n_test, replace=False)

        full = data_mod.load_mnist_idx(source[1], source[2], pick)
    return full.take(slice(n_train)), full.take(slice(n_train, None))


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


def train(config: TrainConfig,
          datasets: tuple[data_mod.LabeledDataset, data_mod.LabeledDataset] | None = None,
          ) -> TrainResult:
    """Run the full epoch loop; raises DivergenceError on non-finite state."""
    arch = config.architecture
    where = "the train set given to train()"
    if datasets is None:
        datasets = build_datasets(config)
        source = config.dataset_source
        where = source[1] if source[0] == "files" else f"{source[0]} data"
    train_set, test_set = datasets
    for dataset in datasets:
        check_widths(arch, dataset)
    check_targets(arch, train_set, where)

    params = net.init_params(arch, RngStream(config.seed, "weight-init"))
    optimizer = _make_optimizer(config, params)
    plan = data_mod.BatchPlan(len(train_set), config.batch_size,
                              RngStream(config.seed, "shuffle"))
    eta = max(config.eta0, config.eta_floor)

    checkpoints: dict[int, list[np.ndarray]] = {}
    history: list[MetricsRecord] = []

    def record(epoch, eta, gamma, train_s, params):
        """The epoch's MetricsRecord: ``params``' train and test error, and the seconds spent."""
        started = time.perf_counter()
        errors = [evaluate(params, arch, dataset, config.metric) for dataset in datasets]
        return MetricsRecord(epoch, *errors, eta, gamma, train_s + (time.perf_counter() - started))

    def log(future, diverged=False):
        """Append the epoch's record once it is in; DivergenceError if it diverged."""
        r = future.result()
        history.append(r)
        if r.epoch and (diverged or not (np.isfinite(r.train_error) and np.isfinite(r.test_error))):
            raise DivergenceError(f"non-finite loss or weights at epoch {r.epoch}", history)

    # a non-finite loss or weight raises DivergenceError, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            submitter(threads_for(evaluate, 2)) as submit:
        # With two threads, epoch e is scored on a worker while epoch e + 1 trains
        # on this one.  Each step adds into params, so the score gets a copy.
        def score(epoch, eta, gamma, train_s):
            snapshot = [w.copy() for w in params]
            if epoch in config.checkpoint_epochs:
                checkpoints[epoch] = snapshot
            return submit(record, epoch, eta, gamma, train_s, snapshot)

        pending = score(0, eta, optimizer.gamma(0), 0.0)
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            t_ep = epoch - 1  # completed epochs while this one runs
            for idx in plan.epoch_batches():
                x, y_true = train_set.inputs[idx].T, train_set.targets[idx].T
                at = optimizer.lookahead(params, t_ep)
                # the trace stays unnamed, so it does not outlive its statement
                grads = net.backward(at, arch, net.forward(at, arch, x), y_true)
                for w, d in zip(params, optimizer.step(grads, eta, t_ep=t_ep)):
                    w += d
            train_s = time.perf_counter() - started

            # epoch-boundary refresh: eta compounds by beta^epoch, floored
            eta = max(eta * config.beta ** epoch, config.eta_floor)

            log(pending)  # the previous epoch's record comes first, as does its divergence
            pending = score(epoch, eta, optimizer.gamma(epoch), train_s)
            if not all(np.isfinite(w).all() for w in params):
                log(pending, diverged=True)
        log(pending)

    return TrainResult(history=history, params=params, checkpoints=checkpoints)


@dataclass
class SuiteRow:
    config_id: str
    metric_mean: float
    metric_std: float
    n_runs: int
    n_diverged: int


def run_suite(configs: dict[str, TrainConfig], n_runs: int) -> list[SuiteRow]:
    """Run each config n_runs times with seeds base+0..base+n-1, paired across configs."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    tasks = [(cid, replace(cfg, seed=cfg.seed + i))
             for cid, cfg in configs.items() for i in range(n_runs)]
    # processes: BLAS calls made side by side in one process may split differently;
    # concurrent.futures imports multiprocessing only once ProcessPoolExecutor is read
    with submitter(threads_for(_suite_task, len(tasks)), futures.ProcessPoolExecutor) as submit:
        outcomes = [f.result() for f in [submit(_suite_task, task) for task in tasks]]

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


def write_csv(dest, header, rows) -> None:
    """``header`` and ``rows`` as CSV with LF line ends, to ``dest``: an open file or a path."""
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as f:
            return write_csv(f, header, rows)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_metrics_csv(dest, history: list[MetricsRecord]) -> None:
    write_csv(dest, METRICS_CSV_HEADER,
              ([r.epoch, repr(r.train_error), repr(r.test_error),
                repr(r.eta), repr(r.gamma), f"{r.wall_time_s:.6f}"] for r in history))


def write_aggregate_csv(dest, rows: list[SuiteRow]) -> None:
    write_csv(dest, AGGREGATE_CSV_HEADER,
              ([r.config_id, repr(r.metric_mean), repr(r.metric_std), r.n_runs, r.n_diverged]
               for r in rows))
