"""rsgd-lab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload mnist-shaped-train --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload analysis --seed 1 --seconds 50 --trace 1 --out r.json

The inputs are generated from ``--seed``.  After set-up (repeated
``SETUP_REPEATS`` times; ``setup_s`` is the median), the workload repeats
rounds of operations until ``--seconds`` have passed.  Each round trains
every optimizer, scans an error surface between four checkpoints and checks
the memory-length law, on the workload's own configuration; the workloads
differ in configuration and in how their time divides (see README.md).
Every operation's output is checked; ``attempted``/``failed`` count
operations and checks.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (see spans.py) plus the tracing overhead.  The last line of standard
output is the JSON result; ``--out`` also writes a result file with the
environment, sample counts and quartiles, and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

# One BLAS thread: with two threads on a two-CPU shared machine each GEMM
# waits for the slower CPU, and per-run medians spread about twice as wide.
# The setting is recorded in every result file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread setting)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 5
# test_error.rsgd is the median over the R-SGD runs of the first rounds, so every run
# makes at least this many rounds and the metric depends on the seed alone.
MIN_ROUNDS = 3
OPTIMIZERS = ("backprop", "rsgd", "sgdm", "nag", "adam")
STEP_SPANS = tuple(f"optim.{c}.step" for c in ("VanillaSgd", "Rsgd", "Sgdm", "Nag", "Adam"))
MEMORY_T = 300                     # criterion 4: power law a0=1, b0=0.5 at t=300
MEMORY_RUNS = 100_000              # criterion 4's simulation size
# Back-to-back simulations alternate between two speeds (the second reuses
# freed pages), so one sample times MEMORY_REPEATS analyses together.
MEMORY_REPEATS = 2
# Criterion 4 bounds TV by 0.01 at 1e5 runs, which is the sampling level
# itself (median TV over 30 seeds 0.0098, 10 of 30 above 0.01).  The check
# allows 1.5 times that bound; a one-step shift of the length law gives TV
# 0.059.
TV_LIMIT = 0.015


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import rsgdlab
    except ImportError as exc:
        raise BenchError(f"cannot import rsgdlab from {ROOT}/src: {exc}") from exc
    if not os.path.abspath(rsgdlab.__file__).startswith(os.path.join(ROOT, "src")):
        raise BenchError(f"rsgdlab imported from {rsgdlab.__file__}, not from this checkout")
    import spans
    return spans.load_modules(), spans


# --- bookkeeping ---------------------------------------------------------

class Tally:
    """Operations and checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.recorder = None

    @contextlib.contextmanager
    def op(self, name):
        """One operation: an exception counts it as failed instead of ending the run."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = name
        try:
            yield
        except Exception as exc:  # an operation's failure is a benchmark result
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


def _quiet():
    """Capture the CLI's stderr (its resolved-configuration echo) in a StringIO."""
    return contextlib.redirect_stderr(io.StringIO())


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_memory_law(tally, pmf, tv, where):
    total = math.fsum(pmf)
    tally.check(abs(total - 1.0) <= 1e-12, f"{where}: memory-length pmf sums to {total!r}")
    tally.check(tv < TV_LIMIT, f"{where}: TV {tv:.5f} >= {TV_LIMIT} at {MEMORY_RUNS} runs")


def _time_memory_analyses(analyse, state, k, tally, samples):
    """One memory_analysis_s sample: the mean time of MEMORY_REPEATS analyses."""
    started = time.perf_counter()
    for j in range(MEMORY_REPEATS):
        analyse(state, k, j, tally)
    samples["memory_analysis_s"].append((time.perf_counter() - started) / MEMORY_REPEATS)


def _check_corners(tally, values, reference, where):
    """values maps (alpha, beta) corners to scanned errors; reference is W1..W4."""
    order = [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]
    worst = max(abs(values[ab] - ref) for ab, ref in zip(order, reference))
    tally.check(worst <= 1e-12, f"{where}: scan corner differs from evaluate by {worst:.3e}")


# --- workloads -----------------------------------------------------------

class MnistShapedTrain:
    """784-100-200-10 with ReLU hidden layers and softmax + cross-entropy.

    Python-API workload: train() per optimizer, scan_surface, memory law.
    Pixels are uniform on [0, 1] with 80 % of them zeroed, about as sparse as
    MNIST digits; labels are the argmax of a random linear teacher, which a
    network can learn (dense uniform pixels stay at chance for many epochs).
    """

    metric = "classification_error"
    batch, train_count, test_count = 250, 10_000, 2_000
    # At eta0 = 0.8, the paper's MNIST step, R-SGD and NAG runs on these
    # pixels ended at chance level (error >= 0.9) a few times in a hundred.
    eta0 = 0.2
    epochs = 4
    scan_resolution = 5
    params_per_step = 100_710
    expected = ("network.forward", "network.backward", "network.relu",
                "network.softmax", "core.RngStream.bernoulli_matrix",
                "experiment.train", "experiment.evaluate",
                "data.BatchPlan.epoch_batches", "surface.scan_surface",
                "surface.bilinear_interpolate", "surface.write_surface_csv",
                "optim.memory_length_pmf", "optim.simulate_memory_length") + STEP_SPANS

    def __init__(self, modules):
        self.m = modules
        self.arch = modules["network"].Architecture(
            [784, 100, 200, 10], hidden_activation="relu",
            output_activation="softmax", loss="cross_entropy")

    def datasets(self, seed, workdir):
        data = self.m["data"]
        rng = np.random.default_rng((seed, 784))
        n = self.train_count + self.test_count
        pixels = rng.random((n, 784)) * (rng.random((n, 784)) < 0.2)
        teacher = rng.standard_normal((10, 784))
        labels = np.argmax((pixels - 0.1) @ teacher.T, axis=1)
        full = data.LabeledDataset(inputs=pixels, targets=data.one_hot(labels),
                                   kind="classification", raw_labels=labels)
        paths = [os.path.join(workdir, f) for f in ("train.bin", "test.bin")]
        data.save_dataset(paths[0], full.take(np.arange(self.train_count)))
        data.save_dataset(paths[1], full.take(np.arange(self.train_count, n)))
        self.source = ("files", *paths)
        return data.load_dataset(paths[0]), data.load_dataset(paths[1])

    def config(self, optimizer, seed, epochs, checkpoint_epochs=()):
        optim = self.m["optim"]
        extra = dict(eta0=self.eta0)
        if optimizer == "rsgd":
            extra["schedule"] = optim.PowerLawSchedule(1.0, 0.5)
        elif optimizer in ("sgdm", "nag"):
            # adaptive rho = Gamma(t) of the paper's exp-gamma schedule; the
            # power law's faster Gamma sent the momentum runs to chance level
            extra.update(rho="adaptive", schedule=optim.ExpGammaSchedule(0.9995, 0.0001))
        elif optimizer == "adam":
            extra = dict(eta0=0.01, eta_floor=0.001)
        return self.m["experiment"].TrainConfig(
            architecture=self.arch, optimizer=optimizer, batch_size=self.batch,
            epochs=epochs, train_count=self.train_count, test_count=self.test_count,
            seed=seed, metric=self.metric, checkpoint_epochs=checkpoint_epochs,
            dataset_source=self.source, **extra)

    def check_train(self, tally, result, where):
        history = result.history
        tally.check(_finite([h.test_error for h in history] + [h.train_error for h in history])
                    and all(bool(np.isfinite(w).all()) for w in result.params),
                    f"{where}: train() ended non-finite")
        last = history[-1].test_error
        tally.check(last < 0.9, f"{where}: classification error {last} not below 0.9")

    def setup(self, seed, workdir):
        ex = self.m["experiment"]
        train_set, test_set = self.datasets(seed, workdir)
        # warm-up call that also produces the four scan corners
        warm = ex.train(self.config("rsgd", seed, 3, checkpoint_epochs=(0, 1, 2, 3)),
                        (train_set, test_set))
        corners = [warm.checkpoints[e] for e in (0, 1, 2, 3)]
        reference = [ex.evaluate(c, self.arch, test_set, self.metric) for c in corners]
        return dict(seed=seed, workdir=workdir, data=(train_set, test_set),
                    corners=corners, reference=reference)

    def run_round(self, state, k, tally, samples):
        ex, surface = self.m["experiment"], self.m["surface"]
        seed = state["seed"] + k
        for name in OPTIMIZERS:
            with tally.op(f"round{k}/train:{name}"):
                started = time.perf_counter()
                result = ex.train(self.config(name, seed, self.epochs), state["data"])
                samples[f"epoch_s.{name}"].append((time.perf_counter() - started) / self.epochs)
                self.check_train(tally, result, f"round{k}/train:{name}")
                if name == "rsgd" and k < MIN_ROUNDS:
                    samples["test_error.rsgd"].append(result.final_test_error)
        with tally.op(f"round{k}/scan"):
            path = os.path.join(state["workdir"], "surface.csv")
            started = time.perf_counter()
            grid = surface.scan_surface(state["corners"], self.scan_resolution, self.arch,
                                        state["data"][1], self.metric)
            surface.write_surface_csv(path, grid)
            samples["scan_points_per_s"].append(
                self.scan_resolution ** 2 / (time.perf_counter() - started))
            tally.check(not grid.has_failures, f"round{k}/scan: NaN in surface")
            values = {(float(a), float(b)): float(grid.values[i, j])
                      for i, a in enumerate(grid.alphas) for j, b in enumerate(grid.betas)}
            _check_corners(tally, values, state["reference"], f"round{k}/scan")
        _time_memory_analyses(self.memory_analysis, state, k, tally, samples)

    def memory_analysis(self, state, k, j, tally):
        """Criterion 4 through the API: the PMF and a simulation of the coins."""
        optim = self.m["optim"]
        where = f"round{k}/memory{j}"
        with tally.op(where):
            sched = optim.PowerLawSchedule(1.0, 0.5)
            rng = self.m["core"].RngStream((state["seed"] + k) * MEMORY_REPEATS + j,
                                           "reinforcement")
            pmf = optim.memory_length_pmf(sched, MEMORY_T)
            empirical = optim.simulate_memory_length(sched, MEMORY_T, MEMORY_RUNS, rng)
            _check_memory_law(tally, [float(p) for p in pmf],
                              0.5 * float(abs(empirical - pmf).sum()), where)


class Analysis:
    """The README pipeline through cli.main: train, scan-surface, analyze-memory.

    The paper's synthetic config: 100-400-200-10, sigmoid/sigmoid/quadratic,
    1000/1000 teacher examples, batch 100.
    """

    epochs = 3
    scan_resolution = 11
    params_per_step = 122_610
    expected = ("cli.main", "cli.train", "network.load_checkpoint", "data.load_dataset",
                "network.forward", "network.backward", "network.sigmoid",
                "core.RngStream.bernoulli_matrix", "experiment.evaluate",
                "data.BatchPlan.epoch_batches", "surface.evaluate", "surface.scan_surface",
                "surface.bilinear_interpolate", "surface.write_surface_csv",
                "optim.memory_length_pmf", "optim.simulate_memory_length") + STEP_SPANS

    def __init__(self, modules):
        self.m = modules

    def cli(self, *argv):
        with _quiet() as err:
            code = self.m["cli"].main([str(a) for a in argv])
        if code != 0:
            raise BenchError(f"rsgd-lab {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return err.getvalue()

    def train_args(self, state, optimizer, seed, epochs, out):
        args = ["train", "--data-train", state["train"], "--data-test", state["test"],
                "--arch", "100-400-200-10", "--optimizer", optimizer,
                "--epochs", epochs, "--seed", seed, "--out", out]
        if optimizer in ("sgdm", "nag"):
            args += ["--rho", "adaptive"]
        return args

    def setup(self, seed, workdir):
        data_dir = os.path.join(workdir, "teacher")
        self.cli("gen-data", "--n-in", 100, "--n-out", 10, "--count", 2000,
                 "--seed", seed, "--out", data_dir)
        state = dict(seed=seed, workdir=workdir,
                     train=os.path.join(data_dir, "train.bin"),
                     test=os.path.join(data_dir, "test.bin"))
        ckpt_dir = os.path.join(workdir, "corners")
        self.cli(*self.train_args(state, "rsgd", seed, 3, ckpt_dir),
                 "--checkpoint-epochs", "0,1,2,3")
        state["corners"] = [os.path.join(ckpt_dir, f"epoch_{e:04d}.ckpt") for e in range(4)]
        net, ex = self.m["network"], self.m["experiment"]
        test_set = self.m["data"].load_dataset(state["test"])
        state["reference"] = []
        for path in state["corners"]:
            arch, params = net.load_checkpoint(path)
            state["reference"].append(ex.evaluate(params, arch, test_set, "mse"))
        return state

    def run_round(self, state, k, tally, samples):
        seed = state["seed"] + k
        work = state["workdir"]
        for name in OPTIMIZERS:
            where = f"round{k}/train:{name}"
            with tally.op(where):
                out = os.path.join(work, f"run_{name}")
                started = time.perf_counter()
                self.cli(*self.train_args(state, name, seed, self.epochs, out))
                samples[f"epoch_s.{name}"].append((time.perf_counter() - started) / self.epochs)
                with open(os.path.join(out, "metrics.csv")) as f:
                    rows = list(csv.DictReader(f))
                test = [float(r["test_error"]) for r in rows]
                tally.check(_finite(test + [float(r["train_error"]) for r in rows]),
                            f"{where}: metrics.csv has non-finite errors")
                if name == "rsgd" and k < MIN_ROUNDS:
                    samples["test_error.rsgd"].append(test[-1])
        with tally.op(f"round{k}/scan-surface"):
            out = os.path.join(work, "surface.csv")
            started = time.perf_counter()
            self.cli("scan-surface", "--checkpoints", ",".join(state["corners"]),
                     "--data-train", state["train"], "--data-test", state["test"],
                     "--resolution", self.scan_resolution, "--out", out)
            samples["scan_points_per_s"].append(
                self.scan_resolution ** 2 / (time.perf_counter() - started))
            with open(out) as f:
                rows = list(csv.DictReader(f))
            errors = [float(r["error"]) for r in rows]
            tally.check(len(rows) == self.scan_resolution ** 2 and _finite(errors),
                        f"round{k}/scan-surface: {len(rows)} rows or NaN in surface")
            values = {(float(r["alpha"]), float(r["beta"])): e for r, e in zip(rows, errors)}
            _check_corners(tally, values, state["reference"], f"round{k}/scan-surface")
        _time_memory_analyses(self.analyze_memory, state, k, tally, samples)

    def analyze_memory(self, state, k, j, tally):
        where = f"round{k}/analyze-memory{j}"
        with tally.op(where):
            out = os.path.join(state["workdir"], "pmf.csv")
            log = self.cli("analyze-memory", "--schedule", "power_law", "--a0", 1.0,
                           "--b0", 0.5, "--t", MEMORY_T, "--simulate", MEMORY_RUNS,
                           "--seed", (state["seed"] + k) * MEMORY_REPEATS + j, "--out", out)
            with open(out) as f:
                pmf = [float(r["probability"]) for r in csv.DictReader(f)]
            tv = float(log.rsplit("total-variation distance", 1)[1].split()[0])
            _check_memory_law(tally, pmf, tv, where)


WORKLOADS = {
    "mnist-shaped-train": MnistShapedTrain,
    "analysis": Analysis,
}

END_TO_END_UNITS = {
    "setup_s": "s", **{f"epoch_s.{o}": "s" for o in OPTIMIZERS},
    "test_error.rsgd": "error", "scan_points_per_s": "1/s", "memory_analysis_s": "s",
    "peak_rss_mb": "MB", "success_frac": "frac",
}

PER_LAYER_UNITS = {
    "network.sigmoid.s": "s", "network.relu.s": "s", "network.softmax.s": "s",
    "network.forward.self_s": "s", "network.backward.self_s": "s",
    "network.gemm.gflop": "GFLOP", "network.gemm.gbyte": "GB",
    "network.gemm.gflop_per_s": "GFLOP/s", "network.activation.melem": "Melem",
    **{f"optim.step.self_s.{o}": "s" for o in OPTIMIZERS},
    "optim.step.melem": "Melem", "core.bernoulli_matrix.s": "s", "core.coins.m": "Mcoin",
    "experiment.evaluate.self_s": "s", "experiment.evaluate.examples": "count",
    "experiment.train.self_s": "s",
    "surface.bilinear_interpolate.s": "s", "surface.scan_surface.self_s": "s",
    "surface.scan_surface.points": "count", "surface.write_surface_csv.s": "s",
    "network.load_checkpoint.s": "s", "cli.main.self_s": "s",
    "optim.memory_length_pmf.s": "s", "optim.simulate_memory_length.s": "s",
    "optim.simulate_memory_length.peak_alloc_mb": "MB",
    "data.generate_teacher_dataset.s": "s", "data.load_dataset.s": "s",
    "data.epoch_batches.s": "s", "trace_overhead_frac": "frac",
}

# Per-layer metrics that are computed work counts; they must repeat exactly.
COUNT_METRICS = ("network.gemm.gflop", "network.gemm.gbyte", "network.activation.melem",
                 "optim.step.melem", "core.coins.m", "experiment.evaluate.examples",
                 "surface.scan_surface.points")


def layer_metrics(r):
    """Per-layer metrics of one traced round from Recorder.since()."""
    total, self_s, counts = r["total_s"], r["self_s"], r["counts"]
    gemm_s = self_s.get("network.forward", 0.0) + self_s.get("network.backward", 0.0)
    gflop = counts.get("gemm.flop", 0) / 1e9
    out = {
        "network.sigmoid.s": total.get("network.sigmoid", 0.0),
        "network.relu.s": total.get("network.relu", 0.0),
        "network.softmax.s": total.get("network.softmax", 0.0),
        "network.forward.self_s": self_s.get("network.forward", 0.0),
        "network.backward.self_s": self_s.get("network.backward", 0.0),
        "network.gemm.gflop": gflop,
        "network.gemm.gbyte": counts.get("gemm.byte", 0) / 1e9,
        "network.gemm.gflop_per_s": gflop / gemm_s if gemm_s > 0 else 0.0,
        "network.activation.melem": counts.get("activation.elem", 0) / 1e6,
        "optim.step.melem": counts.get("step.elem", 0) / 1e6,
        "core.bernoulli_matrix.s": total.get("core.RngStream.bernoulli_matrix", 0.0),
        "core.coins.m": counts.get("coins", 0) / 1e6,
        "experiment.evaluate.self_s": self_s.get("experiment.evaluate", 0.0),
        "experiment.evaluate.examples": counts.get("evaluate.examples", 0),
        "experiment.train.self_s": self_s.get("experiment.train", 0.0),
        "surface.bilinear_interpolate.s": total.get("surface.bilinear_interpolate", 0.0),
        "surface.scan_surface.self_s": self_s.get("surface.scan_surface", 0.0),
        "surface.scan_surface.points": counts.get("scan.points", 0),
        "surface.write_surface_csv.s": total.get("surface.write_surface_csv", 0.0),
        "network.load_checkpoint.s": total.get("network.load_checkpoint", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "optim.memory_length_pmf.s": total.get("optim.memory_length_pmf", 0.0),
        "optim.simulate_memory_length.s": total.get("optim.simulate_memory_length", 0.0),
        "optim.simulate_memory_length.peak_alloc_mb": r["alloc_peak_bytes"] / 2 ** 20,
        "data.epoch_batches.s": total.get("data.BatchPlan.epoch_batches", 0.0),
    }
    for o in OPTIMIZERS:
        out[f"optim.step.self_s.{o}"] = r["step_self_s"].get(o, 0.0)
    return out


def summarize(values):
    """Median with its sample count and quartiles."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model, "platform": platform.platform(),
    }


# --- the run -------------------------------------------------------------

def run(args):
    modules, spans = _import_program()
    workload = WORKLOADS[args.workload](modules)
    tally = Tally()
    recorder = spans.Recorder(modules) if args.trace else None
    tally.recorder = recorder
    work_root = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    samples = defaultdict(list)
    layer_rounds, setup_layers, round_wall = [], [], {True: [], False: []}
    try:
        state = None
        for i in range(SETUP_REPEATS):
            workdir = os.path.join(work_root, f"setup{i}")
            os.makedirs(workdir)
            if recorder is None:
                started = time.perf_counter()
                state = workload.setup(args.seed, workdir)
                samples["setup_s"].append(time.perf_counter() - started)
            else:
                recorder.op = f"setup{i}"
                with recorder.installed():
                    mark = recorder.mark()
                    state = workload.setup(args.seed, workdir)
                    setup_layers.append(recorder.since(mark)["total_s"])

        started = time.perf_counter()
        k = 0
        while k < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
            traced = recorder is not None and k % 2 == 1
            round_started = time.perf_counter()
            if traced:
                with recorder.installed():
                    mark = recorder.mark()
                    workload.run_round(state, k, tally, samples)
                    layer_rounds.append(recorder.since(mark))
            else:
                workload.run_round(state, k, tally, samples)
            round_wall[traced].append(time.perf_counter() - round_started)
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None and args.out:
            recorder.dump(os.path.splitext(args.out)[0] + ".spans.jsonl")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_root))

    if recorder is None:
        metrics = {}
        for name in END_TO_END_UNITS:
            if name in ("peak_rss_mb", "success_frac"):
                continue
            if not samples[name]:
                raise BenchError(f"no successful sample for {name}: {tally.failures[:5]}")
            metrics[name] = summarize(samples[name])
        metrics["peak_rss_mb"] = summarize([peak_rss_mb])
        metrics["success_frac"] = summarize([(tally.attempted - tally.failed) / tally.attempted])
        units = END_TO_END_UNITS
    else:
        metrics = traced_metrics(workload, layer_rounds, setup_layers, round_wall, tally)
        units = PER_LAYER_UNITS
    return {name: {**metrics[name], "unit": unit} for name, unit in units.items()}, tally


def traced_metrics(workload, layer_rounds, setup_layers, round_wall, tally):
    per_round = []
    for r in layer_rounds:
        missed = [name for name in workload.expected if name not in r["names"]]
        if missed:
            raise BenchError(f"traced round never entered {missed}: a layer would read 0")
        counts = r["counts"]
        steps = counts.get("step.calls.rsgd", 0)
        tally.check(steps > 0 and counts.get("coins", 0) == counts.get("rsgd.param_steps", -1)
                    == workload.params_per_step * steps,
                    f"R-SGD drew {counts.get('coins', 0)} coins in {steps} steps, "
                    f"expected {workload.params_per_step} per step")
        per_round.append(layer_metrics(r))
    for r in per_round[1:]:
        tally.check(all(r[c] == per_round[0][c] for c in COUNT_METRICS),
                    "computed counts differ between traced rounds")
    metrics = {name: summarize([r[name] for r in per_round]) for name in per_round[0]}
    for name, fn in (("data.generate_teacher_dataset.s", "data.generate_teacher_dataset"),
                     ("data.load_dataset.s", "data.load_dataset")):
        metrics[name] = summarize([s.get(fn, 0.0) for s in setup_layers])
    untraced = round_wall[False][1:] or round_wall[False]   # round 0 also warms up
    overhead = statistics.median(round_wall[True]) / statistics.median(untraced) - 1
    metrics["trace_overhead_frac"] = summarize([overhead])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result (and spans) here")
    args = parser.parse_args(argv)
    try:
        metrics, tally = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.failures,
              "environment": environment(args), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}  "
              f"(median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    for failure in tally.failures:
        print(f"failed: {failure}")
    print(json.dumps({"correct": record["correct"], "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                                  for n, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
