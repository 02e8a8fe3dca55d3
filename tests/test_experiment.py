import concurrent.futures
import ctypes
import functools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import rsgdlab
from conftest import write_idx_pair
from rsgdlab import cli, core, experiment, optim
from rsgdlab import network as net
from rsgdlab.core import RngStream, ShapeError
from rsgdlab.data import LabeledDataset, generate_teacher_dataset, one_hot, save_dataset
from rsgdlab.experiment import (DivergenceError, MetricsRecord, SuiteRow,
                                TrainConfig, build_datasets, evaluate,
                                run_suite, train, write_aggregate_csv,
                                write_metrics_csv)
from rsgdlab.optim import ExpGammaSchedule, PowerLawSchedule, memory_length_pmf


def histories_identical(a, b):
    """Bitwise equality of the deterministic metric fields (wall time varies); NaN equals NaN."""
    return len(a) == len(b) and all(
        repr((r.epoch, r.train_error, r.test_error, r.eta, r.gamma))
        == repr((s.epoch, s.train_error, s.test_error, s.eta, s.gamma))
        for r, s in zip(a, b))


def train_counting_lookaheads(config):
    """``train(config)``, and how many times it called ``Nag.lookahead``.

    ``Nag.lookahead`` and ``network.backward`` are wrapped for the run and
    restored after it.  Each backward pass must get the very list its step's
    look-ahead returned, so a ``train`` that takes NAG's gradient at any other
    point fails the assertion here.
    """
    lookahead, backward = optim.Nag.lookahead, net.backward
    point = [None]  # the last look-ahead, until a backward pass takes it
    counts = {"lookahead": 0, "backward": 0, "backward at the lookahead": 0}

    def counted_lookahead(self, *args):
        point[0] = lookahead(self, *args)
        counts["lookahead"] += 1
        return point[0]

    def checked_backward(params, *args):
        counts["backward"] += 1
        counts["backward at the lookahead"] += params is point[0]
        point[0] = None
        return backward(params, *args)

    optim.Nag.lookahead, net.backward = counted_lookahead, checked_backward
    try:
        result = train(config)
    finally:
        optim.Nag.lookahead, net.backward = lookahead, backward
    assert len(set(counts.values())) == 1, counts
    return result, counts["lookahead"]


def train_recording_memory(config):
    """``train(config)`` for R-SGD, each step's Γ, its coins' keep count, and each weight's
    memory length at the end.

    ``Rsgd._factor`` is wrapped for the run and restored after it.  It is called
    once per layer and step with the step's Γ (one ``schedule.gamma`` call) and
    returns that layer's coins.  A weight's memory length L counts the steps
    its accumulator has kept since its last reset: L = (L + 1) * keep, and step
    0, whose accumulator is still zero, is a reset whatever its coin.
    """
    factor = optim.Rsgd._factor
    gammas, lengths, state = [], [], {"layer": 0, "kept": 0}

    def recording_factor(self, rho, shape):
        keep = factor(self, rho, shape)
        if self.t == len(gammas):  # the step's first layer
            gammas.append(rho)
            state["layer"] = 0
        else:
            state["layer"] += 1
        state["kept"] += int(np.count_nonzero(keep))
        if self.t == 0:
            lengths.append(np.zeros(shape, dtype=np.int64))
        else:
            lengths[state["layer"]] = (lengths[state["layer"]] + 1) * keep
        return keep

    optim.Rsgd._factor = recording_factor
    try:
        result = train(config)
    finally:
        optim.Rsgd._factor = factor
    return result, gammas, state["kept"], np.concatenate([L.ravel() for L in lengths])


def memory_pmf(gammas):
    """PMF of the memory length after steps that drew on ``gammas``, one Γ per step.

    Step 0 is forced to a reset; this is ``optim.memory_length_pmf``'s expression.
    """
    back = np.array([*gammas[:0:-1], 0.0])  # gamma at step t-L
    return (1.0 - back) * np.concatenate(([1.0], np.cumprod(back)[:-1]))


MEMORY_CALIBRATION_SEEDS = 30
MEMORY_TV_SDS = 5  # k in TV <= E[TV] + k sd


@functools.lru_cache
def memory_tv_bound(gammas: tuple, n):
    """E[TV] + k sd of the bare coin simulation's TV from ``memory_pmf(gammas)`` at n runs.

    Each seed simulates n runs of the coins of steps 1.. (step 0 is a reset),
    drawn with the same Γs, and histograms their trailing runs.
    """
    pmf, probs = memory_pmf(gammas), np.array(gammas[1:])
    rows = max(1, optim.SIM_BLOCK // max(1, len(probs)))
    tvs = [0.5 * np.abs(optim._trailing_run_counts(np.random.default_rng(seed), probs, n, rows)
                        / n - pmf).sum() for seed in range(MEMORY_CALIBRATION_SEEDS)]
    return float(np.mean(tvs) + MEMORY_TV_SDS * np.std(tvs))


def memory_law_holds(lengths, gammas, kept):
    """Whether ``lengths``' histogram passes the TV gate against ``memory_pmf(gammas)``, and
    ``kept`` kept coins have binomial |z| < 5 at Γs ``gammas`` and ``len(lengths)`` weights."""
    n, p = len(lengths), np.array(gammas)
    pmf = memory_pmf(gammas)
    tv = 0.5 * np.abs(np.bincount(lengths, minlength=len(pmf)) / n - pmf).sum()
    z = (kept - n * p.sum()) / np.sqrt(n * (p * (1.0 - p)).sum())
    return tv <= memory_tv_bound(tuple(gammas), n) and abs(z) < 5


MEMORY_SCHEDULES = [PowerLawSchedule(1.0, 0.5), ExpGammaSchedule(0.9995, 1e-4),
                    ExpGammaSchedule(0.99, 1e-2)]
MEMORY_SCHEDULE_IDS = ["power-law-1-0.5", "exp-gamma-0.9995-1e-4", "exp-gamma-0.99-1e-2"]


def check_memory_law_in_training(config):
    """R-SGD's memory lengths in ``train(config)`` follow the PMF of the Γs its steps drew on,
    and, for an exp-gamma schedule, not the ``t_ep = 0`` PMF of ``optim.memory_length_pmf``."""
    _, gammas, kept, lengths = train_recording_memory(config)
    per_epoch = config.train_count // config.batch_size
    steps = config.epochs * per_epoch
    assert gammas == [config.schedule.gamma(t, t // per_epoch) for t in range(steps)]
    assert len(lengths) == sum(r * c for r, c in config.architecture.weight_shapes())
    assert memory_law_holds(lengths, gammas, kept)
    first_epoch = [config.schedule.gamma(t) for t in range(steps)]
    assert np.array_equal(memory_pmf(first_epoch), memory_length_pmf(config.schedule, steps - 1))
    holds_at_first_epoch = memory_law_holds(lengths, first_epoch, kept)
    assert holds_at_first_epoch == isinstance(config.schedule, PowerLawSchedule)


def toy_config(**overrides):
    base = dict(
        architecture=net.Architecture([4, 6, 3]),
        optimizer="backprop", eta0=0.5, beta=0.999, eta_floor=0.02,
        batch_size=10, epochs=5, train_count=50, test_count=50, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


class TestEvaluate:
    def test_perfect_predictions(self):
        arch = net.Architecture([2, 2])
        params = [np.zeros((2, 3))]
        targets = np.full((5, 2), 0.5)  # sigmoid(0) everywhere
        ds = LabeledDataset(inputs=np.random.default_rng(0).random((5, 2)),
                            targets=targets)
        assert evaluate(params, arch, ds, "mse") == 0.0

    def test_constant_classifier_on_balanced_data(self):
        arch = net.Architecture([3, 10])
        params = [np.zeros((10, 4))]
        params[0][4, 3] = 5.0  # bias pushes class 4 always
        labels = np.repeat(np.arange(10), 10)
        ds = LabeledDataset(inputs=np.random.default_rng(1).random((100, 3)),
                            targets=one_hot(labels), kind="classification",
                            raw_labels=labels)
        assert evaluate(params, arch, ds, "classification_error") == pytest.approx(0.9)

    def test_hand_counted_misclassifications(self):
        arch = net.Architecture([2, 3])
        params = [np.column_stack([np.eye(3, 2), np.zeros(3)])]  # zero bias column
        inputs = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 2, 0])  # predictions: 0, 1, 0, 1 -> 2 wrong
        ds = LabeledDataset(inputs=inputs, targets=one_hot(labels, 3),
                            kind="classification", raw_labels=labels)
        assert evaluate(params, arch, ds, "classification_error") == pytest.approx(0.5)

    def test_classification_error_of_non_finite_outputs_is_nan(self):
        # inf - inf in output 0's pre-activation: a NaN output, which argmax would predict
        arch = net.Architecture([4, 6, 3])
        params = net.init_params(arch, RngStream(3, "weight-init"))
        params[-1][0, :2] = np.inf, -np.inf
        labels = np.arange(10) % 3
        ds = LabeledDataset(inputs=np.random.default_rng(2).random((10, 4)),
                            targets=one_hot(labels, 3), kind="classification",
                            raw_labels=labels)
        with np.errstate(invalid="ignore"):
            assert np.isnan(evaluate(params, arch, ds, "mse"))
            assert np.isnan(evaluate(params, arch, ds, "classification_error"))

    @pytest.mark.parametrize("metric", ["mse", "classification_error"])
    def test_dataset_with_no_examples_rejected(self, metric):
        arch = net.Architecture([2, 3])
        ds = LabeledDataset(inputs=np.zeros((0, 2)), targets=np.zeros((0, 3)))
        with pytest.raises(ValueError, match="cannot evaluate on a dataset with no examples"):
            evaluate([np.zeros((3, 3))], arch, ds, metric)

    def test_argmax_ties_break_low(self):
        assert np.argmax(np.array([0.5, 0.5])) == 0

    @pytest.mark.parametrize("n_out", [1, 5])
    @pytest.mark.parametrize("metric", ["mse", "classification_error"])
    def test_targets_unlike_the_outputs_rejected(self, n_out, metric):
        # numpy broadcasts 1-wide targets against 3 outputs, and argmax takes any width
        arch = net.Architecture([2, 3])
        ds = LabeledDataset(inputs=np.zeros((4, 2)), targets=np.zeros((4, n_out)))
        with pytest.raises(ShapeError,
                           match=f"dataset has {n_out} target columns, architecture has 3 outputs"):
            evaluate([np.zeros((3, 3))], arch, ds, metric)


SECOND_EVALUATE_FAULTS = """
import resource
import numpy as np
from rsgdlab import network as net
from rsgdlab.core import RngStream
from rsgdlab.data import LabeledDataset
from rsgdlab.experiment import evaluate
arch = net.Architecture([100, 400, 200, 10])
params = net.init_params(arch, RngStream(0, "weight-init"))
rng = np.random.default_rng(0)
ds = LabeledDataset(inputs=rng.standard_normal((1000, 100)), targets=rng.random((1000, 10)))
evaluate(params, arch, ds, "mse")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate(params, arch, ds, "mse")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


class TestHeapPolicy:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap policy")
    def test_repeated_evaluate_reuses_heap_pages(self):
        # A fresh process, so no earlier test has raised glibc's mmap threshold.
        # Without the policy the second call faults in its temporaries again
        # (about 2000 minor faults).
        src = os.path.dirname(os.path.dirname(rsgdlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", SECOND_EVALUATE_FAULTS], env=env,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert int(out) < 100

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["no-libc", "no-mallopt"])
    def test_missing_libc_or_mallopt_is_ignored(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        rsgdlab._set_heap_policy()

    def test_one_malloc_arena(self, monkeypatch):
        calls = []

        class FakeLibc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        rsgdlab._set_heap_policy()
        assert (-8, 1) in calls  # M_ARENA_MAX


# train the paper's net for 3 epochs into directory argv[2], then scan its checkpoints' surface
PAPER_RUN = """
import sys
from rsgdlab.cli import main
data, out = sys.argv[1:]
ckpts = ",".join(f"{out}/epoch_{e:04d}.ckpt" for e in range(4))
sys.exit(main(["train", "--data-train", f"{data}/train.bin", "--data-test", f"{data}/test.bin",
               "--arch", "100-400-200-10", "--epochs", "3", "--seed", "1",
               "--checkpoint-epochs", "0,1,2,3", "--out", out])
         or main(["scan-surface", "--data-test", f"{data}/test.bin", "--resolution", "5",
                  "--checkpoints", ckpts, "--out", f"{out}/surface.csv"]))
"""


class TestBlasDefault:
    """A fresh ``import rsgdlab`` gives BLAS one thread, unless the user or numpy came first."""

    @staticmethod
    def child_env(**variables):
        """This process's environment less every BLAS variable (importing rsgdlab sets one),
        with ``rsgdlab`` importable and ``variables`` set."""
        src = os.path.dirname(os.path.dirname(rsgdlab.__file__))
        env = {k: v for k, v in os.environ.items() if k not in rsgdlab.BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return {**env, **variables}

    @pytest.mark.parametrize("code, env, expected", [
        ("import rsgdlab", {}, "1 None"),
        ("import rsgdlab", {"OMP_NUM_THREADS": "3"}, "None 3"),
        ("import numpy, rsgdlab", {}, "None None"),
    ], ids=["fresh", "user-variable", "numpy-first"])
    def test_variable_after_import(self, code, env, expected):
        show = "import os; print(*map(os.environ.get, ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')))"
        out = subprocess.run([sys.executable, "-c", f"{code}; {show}"], env=self.child_env(**env),
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out.strip() == expected

    @pytest.mark.skipif(core.usable_cpus() < 2, reason="on one CPU BLAS runs one thread anyway")
    def test_run_without_a_variable_is_the_one_thread_run(self, tmp_path):
        # two BLAS threads move the last bits of the paper's net; a child pinned to one CPU
        # scores each epoch and scans the surface on its calling thread, the others on workers
        full = generate_teacher_dataset(100, 10, 2000, RngStream(1, "data-gen"))
        for part, rows in (("train", slice(1000)), ("test", slice(1000, None))):
            save_dataset(tmp_path / f"{part}.bin", full.take(rows))
        cpu, one_thread = min(os.sched_getaffinity(0)), self.child_env(OPENBLAS_NUM_THREADS="1")
        runs = {"default": (self.child_env(), None), "one-thread": (one_thread, None),
                "one-cpu": (one_thread, lambda: os.sched_setaffinity(0, {cpu}))}
        children = {name: subprocess.Popen([sys.executable, "-c", PAPER_RUN, str(tmp_path),
                                            str(tmp_path / name)], env=env, preexec_fn=pin,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                    for name, (env, pin) in runs.items()}
        try:
            for child in children.values():
                _, err = child.communicate(timeout=120)
                assert child.returncode == 0, err.decode()
        finally:
            for child in children.values():
                child.kill()

        def contents(name, f):
            data = (tmp_path / name / f).read_bytes()
            if f == "metrics.csv":  # less its wall_time_s column
                data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
            return data

        for f in ("final.ckpt", *(f"epoch_{e:04d}.ckpt" for e in range(4)), "surface.csv",
                  "metrics.csv"):
            assert contents("default", f) == contents("one-thread", f) == contents("one-cpu", f), f


class TestTrainLoop:
    def test_eta_clamped_to_floor(self):
        result = train(toy_config(eta0=0.5, eta_floor=0.4, epochs=3))
        assert all(r.eta >= 0.4 for r in result.history)
        result = train(toy_config(eta0=0.05, eta_floor=0.4, epochs=2))
        assert all(r.eta == 0.4 for r in result.history)

    def test_single_update_run(self):
        cfg = toy_config(epochs=1, batch_size=50)
        result = train(cfg)
        assert len(result.history) == 2  # epoch 0 and epoch 1
        # one update: final params = init - eta * gradient of the single batch
        train_set, _ = build_datasets(cfg)
        params = net.init_params(cfg.architecture, RngStream(cfg.seed, "weight-init"))
        order = RngStream(cfg.seed, "shuffle").gen.permutation(50)
        x = train_set.inputs[order].T
        y = train_set.targets[order].T
        grads = net.backward(params, cfg.architecture,
                             net.forward(params, cfg.architecture, x), y)
        for w, g, final in zip(params, grads, result.params):
            assert np.allclose(w - cfg.eta0 * g, final, atol=1e-15)

    def test_full_run_determinism(self):
        cfg = toy_config(optimizer="rsgd", schedule=PowerLawSchedule(1.0, 0.5))
        a, b = train(cfg), train(cfg)
        assert histories_identical(a.history, b.history)
        for w1, w2 in zip(a.params, b.params):
            assert w1.tobytes() == w2.tobytes()

    def test_optimizers_share_init_and_data_streams(self):
        configs = [toy_config(optimizer="backprop"),
                   toy_config(optimizer="rsgd", schedule=PowerLawSchedule(1.0, 0.5)),
                   toy_config(optimizer="adam", eta0=0.01, eta_floor=0.001)]
        inits = [net.init_params(c.architecture, RngStream(c.seed, "weight-init"))
                 for c in configs]
        datasets = [build_datasets(c) for c in configs]
        orders = [RngStream(c.seed, "shuffle").gen.permutation(50) for c in configs]
        for other_init, other_data, other_order in zip(inits[1:], datasets[1:], orders[1:]):
            for a, b in zip(inits[0], other_init):
                assert a.tobytes() == b.tobytes()
            assert datasets[0][0].inputs.tobytes() == other_data[0].inputs.tobytes()
            assert np.array_equal(orders[0], other_order)

    def test_vanilla_recovery_bit_identical(self):
        shared = dict(epochs=20)
        plain = train(toy_config(optimizer="backprop", **shared))
        degenerate = train(toy_config(optimizer="rsgd",
                                      schedule=ExpGammaSchedule(1.0, 0.0), **shared))
        assert histories_identical(plain.history, degenerate.history)
        for a, b in zip(plain.params, degenerate.params):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sched", [PowerLawSchedule(1.0, 0.5), ExpGammaSchedule(0.9995, 1e-4)])
    def test_logged_schedules_match_closed_form(self, sched):
        cfg = toy_config(optimizer="rsgd", schedule=sched, epochs=4)
        result = train(cfg)
        updates_per_epoch = cfg.train_count // cfg.batch_size
        eta = max(cfg.eta0, cfg.eta_floor)
        for record in result.history:
            if record.epoch > 0:
                eta = max(eta * cfg.beta ** record.epoch, cfg.eta_floor)
            assert record.eta == eta
            # after e epochs, the gamma the next step draws on: lambda applies to e epochs
            assert record.gamma == sched.gamma(record.epoch * updates_per_epoch, record.epoch)

    @pytest.mark.parametrize("optimizer, rho, calls_per_step", [
        ("rsgd", None, 1), ("sgdm", "adaptive", 1), ("nag", "adaptive", 2)])
    def test_logged_gamma_is_the_next_steps(self, optimizer, rho, calls_per_step):
        sched = ExpGammaSchedule(0.9995, 1e-4)
        calls = []  # (t, t_ep, gamma) of every schedule call, in order

        class Recording:
            def gamma(self, t, t_ep=0):
                calls.append((t, t_ep, sched.gamma(t, t_ep)))
                return calls[-1][2]

        cfg = toy_config(optimizer=optimizer, rho=rho, schedule=Recording(), epochs=3)
        history = train(cfg).history
        steps = cfg.train_count // cfg.batch_size
        # one call to log each epoch, then calls_per_step for each of the next epoch's steps
        stride = 1 + calls_per_step * steps
        assert len(calls) == stride * cfg.epochs + 1
        assert all(type(t) is int and type(t_ep) is int for t, t_ep, _ in calls)
        for record in history[:-1]:
            logged, first_step = calls[record.epoch * stride:record.epoch * stride + 2]
            assert logged == first_step == (record.epoch * steps, record.epoch, record.gamma)
        assert calls[-1] == (cfg.epochs * steps, cfg.epochs, history[-1].gamma)

    def test_checkpoints_saved_at_requested_epochs(self):
        cfg = toy_config(checkpoint_epochs=(0, 2, 4))
        result = train(cfg)
        assert sorted(result.checkpoints) == [0, 2, 4]
        init = net.init_params(cfg.architecture, RngStream(cfg.seed, "weight-init"))
        for a, b in zip(result.checkpoints[0], init):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("epochs", [(5,), (-1,), (0, 4, 6)])
    def test_checkpoint_epoch_outside_run_rejected(self, epochs):
        with pytest.raises(ValueError, match="checkpoint epochs"):
            toy_config(epochs=4, checkpoint_epochs=epochs)

    def test_sgdm_without_momentum_is_backprop_bit_for_bit(self):
        plain = train(toy_config(optimizer="backprop"))
        still = train(toy_config(optimizer="sgdm", rho=0.0))
        assert histories_identical(plain.history, still.history)
        for a, b in zip(plain.params, still.params):
            assert a.tobytes() == b.tobytes()

    def test_adaptive_sgdm_repeats_exactly(self):
        cfg = toy_config(optimizer="sgdm", rho="adaptive", schedule=ExpGammaSchedule(0.9, 0.0))
        a, b = train(cfg), train(cfg)
        assert histories_identical(a.history, b.history)
        assert a.history[-1].gamma > 0.0
        for w1, w2 in zip(a.params, b.params):
            assert w1.tobytes() == w2.tobytes()

    @pytest.mark.parametrize("optimizer, rho", [("backprop", None), ("adam", None),
                                                ("sgdm", 0.5), ("nag", 0.5)])
    def test_gamma_logged_as_zero_where_the_run_does_not_draw_on_it(self, optimizer, rho):
        cfg = toy_config(optimizer=optimizer, rho=rho, schedule=PowerLawSchedule(1.0, 0.5),
                         seed=1, epochs=2)
        assert [r.gamma for r in train(cfg).history] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("optimizer, rho, draws", [
        ("rsgd", None, True), ("rsgd", 0.5, True), ("sgdm", "adaptive", True),
        ("nag", "adaptive", True), ("sgdm", 0.5, False), ("nag", 0.0, False),
        ("backprop", "adaptive", False), ("adam", "adaptive", False), ("backprop", None, False)])
    def test_optimizer_gamma_where_the_run_draws_on_it(self, optimizer, rho, draws):
        sched = ExpGammaSchedule(0.9995, 1e-4)
        cfg = toy_config(optimizer=optimizer, rho=rho, schedule=sched)
        opt = experiment._make_optimizer(cfg, [np.zeros((2, 3))])
        for _ in range(7):
            opt.step([np.ones((2, 3))], 0.1)
        expected = [sched.gamma(7, t_ep) if draws else 0.0 for t_ep in (0, 3)]
        assert [opt.gamma(t_ep) for t_ep in (0, 3)] == expected
        if draws:  # the optimizer refuses such a run without a schedule
            with pytest.raises(ValueError, match="need a reinforcement schedule"):
                toy_config(optimizer=optimizer, rho=rho)

    def test_trains_on_an_idx_pair(self, tmp_path):
        rng = np.random.default_rng(6)
        images, labels = write_idx_pair(tmp_path, rng.integers(0, 256, (20, 2, 3)),
                                        np.arange(20) % 10)
        cfg = TrainConfig(net.Architecture([6, 5, 10]), batch_size=5, epochs=2,
                          train_count=10, test_count=6, seed=1, metric="classification_error",
                          dataset_source=("mnist", images, labels))
        train_set, test_set = build_datasets(cfg)
        assert (len(train_set), len(test_set)) == (10, 6)
        result = train(cfg, datasets=(train_set, test_set))
        assert len(result.history) == 3
        assert all(0.0 <= r.test_error <= 1.0 for r in result.history)

    def test_nag_takes_each_gradient_at_its_steps_lookahead(self):
        cfg = toy_config(optimizer="nag", rho=0.5, epochs=3)
        result, lookaheads = train_counting_lookaheads(cfg)
        assert lookaheads == 3 * (cfg.train_count // cfg.batch_size)
        assert histories_identical(result.history, train(cfg).history)

    def test_divergence_raises_with_history(self):
        cfg = toy_config(epochs=3)
        train_set, test_set = build_datasets(cfg)
        train_set.targets[0, 0] = np.nan
        with pytest.raises(DivergenceError) as excinfo:
            train(cfg, datasets=(train_set, test_set))
        assert isinstance(excinfo.value.history, list)

    @pytest.mark.parametrize("overrides, message", [
        ({"batch_size": 7}, "batch size 7 must divide train count 50"),
        ({"optimizer": "rsgd"}, "need a reinforcement schedule"),
        ({"optimizer": "sgdm"}, "sgdm needs rho"),
        ({"optimizer": "nonsense"}, "optimizer must be one of"),
        ({"dataset_source": ("web",)}, "unknown dataset source 'web'"),
        ({"metric": "accuracy"}, "metric must be one of"),
        ({"architecture": net.Architecture([4])}, "need at least 2 layers to train"),
    ])
    def test_config_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            toy_config(**overrides)

    def test_teacher_counts_may_differ(self):
        # one draw of 50 + 30 examples: the first 50 train, as the first 50 of 50 + 50 do
        cfg = toy_config(test_count=30)
        train_set, test_set = build_datasets(cfg)
        assert (len(train_set), len(test_set)) == (50, 30)
        equal_train, _ = build_datasets(toy_config())
        assert train_set.inputs.tobytes() == equal_train.inputs.tobytes()
        assert train_set.targets.tobytes() == equal_train.targets.tobytes()
        result = train(cfg)
        assert result.final_test_error == evaluate(result.params, cfg.architecture, test_set, "mse")

    @pytest.mark.parametrize("optimizer", ["sgdm", "nag"])
    @pytest.mark.parametrize("rho", [5.0, -3.0, -0.1, 1.0001, np.nan, np.inf, -np.inf])
    def test_rho_outside_unit_interval_rejected(self, optimizer, rho):
        with pytest.raises(ValueError, match="rho"):
            toy_config(optimizer=optimizer, rho=rho)

    @pytest.mark.parametrize("key, value", [("batch_size", 0), ("batch_size", -10),
                                            ("train_count", 0), ("train_count", -50),
                                            ("test_count", 0), ("test_count", -50)])
    def test_empty_sizes_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got {value}$"):
            toy_config(**{key: value})

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 1.0, "adaptive"])
    def test_rho_in_unit_interval_or_adaptive_accepted(self, rho):
        cfg = toy_config(optimizer="sgdm", rho=rho, schedule=PowerLawSchedule(1.0, 0.5))
        assert cfg.rho == rho

    def test_infinite_step_size_raises_divergence_not_a_warning(self):
        # numpy's overflow and invalid warnings are errors under this suite's filterwarnings
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(toy_config(eta0=np.inf, epochs=2))

    @pytest.mark.parametrize("optimizer, given, eta0, eta_floor", [
        ("adam", {}, 0.01, 0.001),
        ("adam", {"eta0": 0.8}, 0.8, 0.001),
        ("backprop", {}, 0.8, 0.02),
        ("backprop", {"eta_floor": 0.5}, 0.8, 0.5),
    ])
    def test_unset_step_sizes_take_the_optimizers_defaults(self, optimizer, given, eta0,
                                                           eta_floor):
        cfg = TrainConfig(net.Architecture([4, 6, 3]), optimizer=optimizer, **given)
        assert (cfg.eta0, cfg.eta_floor) == (eta0, eta_floor)


EVERY_OPTIMIZER = {
    "backprop": {},
    "rsgd": {"schedule": PowerLawSchedule(1.0, 0.5)},
    "sgdm": {"rho": 0.5},
    "nag": {"rho": "adaptive", "schedule": ExpGammaSchedule(0.9, 0.0)},
    "adam": {"eta0": 0.01, "eta_floor": 0.001},
}


def overflowing_test_set(cfg):
    """cfg's datasets with a test target whose squared error overflows to inf."""
    train_set, test_set = build_datasets(cfg)
    test_set.targets[0, 0] = 1e300
    return train_set, test_set


class TestMemoryLengthInTraining:
    """The memory-length law inside real R-SGD training, for exp-gamma's λ too."""

    @pytest.mark.parametrize("schedule", MEMORY_SCHEDULES, ids=MEMORY_SCHEDULE_IDS)
    def test_small_net(self, schedule):
        check_memory_law_in_training(TrainConfig(
            net.Architecture([20, 30, 10]), optimizer="rsgd", schedule=schedule,
            batch_size=20, epochs=30, train_count=200, test_count=200, seed=2))

    @pytest.mark.slow
    @pytest.mark.parametrize("schedule", MEMORY_SCHEDULES, ids=MEMORY_SCHEDULE_IDS)
    def test_paper_net(self, schedule):
        check_memory_law_in_training(TrainConfig(
            net.Architecture([100, 400, 200, 10]), optimizer="rsgd", schedule=schedule,
            epochs=30, seed=2))


class TestPipelinedScoring:
    """With two threads free, epoch e is scored on a worker thread while epoch e + 1 trains."""

    @pytest.mark.parametrize("optimizer", list(EVERY_OPTIMIZER))
    def test_same_bits_as_scoring_inline(self, monkeypatch, optimizer):
        cfg = toy_config(optimizer=optimizer, checkpoint_epochs=(0, 2, 5),
                         **EVERY_OPTIMIZER[optimizer])
        threads = set()

        def recording_evaluate(*args):
            threads.add(threading.get_ident())
            return evaluate(*args)

        monkeypatch.setattr(experiment, "evaluate", recording_evaluate)
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(core, "blas_free_threads", lambda: workers)
            threads.clear()
            results[workers] = train(cfg)
            # one worker scores on the calling thread, two on the pool's thread alone
            assert (threading.get_ident() in threads) == (workers == 1) and len(threads) == 1
        inline, pipelined = results[1], results[2]
        assert histories_identical(inline.history, pipelined.history)
        assert len(pipelined.history) == cfg.epochs + 1
        for a, b in zip(inline.params, pipelined.params):
            assert a.tobytes() == b.tobytes()
        assert sorted(pipelined.checkpoints) == [0, 2, 5]
        for epoch, params in inline.checkpoints.items():
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(params, pipelined.checkpoints[epoch]))

    # eta0=inf: the weights diverge, and the epoch is scored where every epoch is;
    # a test target of 1e300: the test error overflows on the worker thread, and
    # numpy's overflow warning is an error under this suite's filterwarnings
    @pytest.mark.parametrize("overrides, datasets", [
        ({"eta0": np.inf}, None),
        ({}, overflowing_test_set),
    ], ids=["infinite-step-size", "overflowing-test-error"])
    def test_divergence_at_the_same_epoch_with_the_same_history(self, monkeypatch,
                                                                  overrides, datasets):
        cfg = toy_config(epochs=3, **overrides)
        raised = {}
        for workers in (1, 2):
            monkeypatch.setattr(core, "blas_free_threads", lambda: workers)
            with pytest.raises(DivergenceError, match="at epoch 1$") as excinfo:
                train(cfg, datasets and datasets(cfg))
            raised[workers] = excinfo.value
        assert str(raised[1]) == str(raised[2])
        assert histories_identical(raised[1].history, raised[2].history)
        assert [r.epoch for r in raised[2].history] == [0, 1]
        assert not np.isfinite(raised[2].history[-1].test_error)

    def test_cli_train_scores_off_the_calling_thread(self, monkeypatch, capsys):
        # the benchmark's environment: one BLAS thread, so a second CPU is free to score on
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        threads = set()

        def recording_evaluate(*args):
            threads.add(threading.get_ident())
            return evaluate(*args)

        monkeypatch.setattr(experiment, "evaluate", recording_evaluate)
        assert cli.main(["train", "--arch", "4-6-3", "--batch", "10", "--train-count", "50",
                         "--test-count", "50", "--epochs", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3
        assert threads and threading.get_ident() not in threads

    def test_no_thread_outlives_train(self, monkeypatch):
        monkeypatch.setattr(core, "blas_free_threads", lambda: 2)
        before = threading.active_count()
        train(toy_config())
        assert threading.active_count() == before
        with pytest.raises(DivergenceError):
            train(toy_config(epochs=3), overflowing_test_set(toy_config(epochs=3)))
        assert threading.active_count() == before

    def test_wrapped_evaluate_runs_on_the_calling_thread(self, monkeypatch):
        # a tracer's wrapper, such as the benchmark's span recorder, need not be thread-safe
        threads = []

        @functools.wraps(evaluate)
        def traced(*args, **kwargs):
            threads.append(threading.get_ident())
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(core, "blas_free_threads", lambda: 2)
        monkeypatch.setattr(experiment, "evaluate", traced)
        cfg = toy_config()
        result = train(cfg)
        assert threads == [threading.get_ident()] * 2 * (cfg.epochs + 1)
        monkeypatch.undo()
        assert histories_identical(result.history, train(cfg).history)


class TestSuite:
    def test_single_run_aggregate(self):
        rows = run_suite({"plain": toy_config(epochs=2)}, n_runs=1)
        assert len(rows) == 1
        assert rows[0].metric_std == 0.0 and rows[0].n_runs == 1
        assert rows[0].n_diverged == 0

    def test_identical_configs_identical_aggregates(self):
        configs = {"a": toy_config(epochs=2), "b": toy_config(epochs=2)}
        rows = {r.config_id: r for r in run_suite(configs, n_runs=2)}
        assert rows["a"].metric_mean == rows["b"].metric_mean
        assert rows["a"].metric_std == rows["b"].metric_std

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_no_runs_rejected(self, n_runs):
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            run_suite({"plain": toy_config(epochs=1)}, n_runs=n_runs)

    def test_seeds_are_offset_per_run(self):
        rows = run_suite({"plain": toy_config(epochs=2)}, n_runs=3)
        singles = [train(toy_config(epochs=2, seed=11 + i)).final_test_error
                   for i in range(3)]
        assert rows[0].metric_mean == pytest.approx(np.mean(singles), abs=1e-15)

    def test_diverging_runs_are_counted(self, tmp_path):
        train_set, test_set = build_datasets(toy_config())
        train_set.targets[0, 0] = np.nan
        paths = tmp_path / "train.bin", tmp_path / "test.bin"
        for path, dataset in zip(paths, (train_set, test_set)):
            save_dataset(path, dataset)
        cfg = toy_config(epochs=2, dataset_source=("files", *paths))
        row, = run_suite({"bad": cfg}, n_runs=2)
        assert (row.n_runs, row.n_diverged) == (0, 2)
        assert np.isnan(row.metric_mean) and np.isnan(row.metric_std)
        write_aggregate_csv(tmp_path / "agg.csv", [row])
        assert (tmp_path / "agg.csv").read_text().splitlines()[1] == "bad,nan,nan,0,2"

    def test_parallel_matches_serial_bit_for_bit(self, monkeypatch):
        configs = {"plain": toy_config(epochs=2),
                   "rsgd": toy_config(epochs=2, optimizer="rsgd",
                                      schedule=PowerLawSchedule(1.0, 0.5))}
        rows = {}
        for workers in (1, 2):
            monkeypatch.setattr(core, "blas_free_threads", lambda: workers)
            rows[workers] = run_suite(configs, n_runs=2)
        assert rows[2] == rows[1]


class TestCsvWriters:
    def test_metrics_csv_format(self, tmp_path):
        history = [MetricsRecord(0, 0.5, 0.6, 0.8, 0.0, 0.01),
                   MetricsRecord(1, 0.4, 0.55, 0.7992, 0.1, 1.25)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_error,test_error,eta,gamma,wall_time_s"
        assert len(lines) == 3
        assert "," in lines[1] and "." in lines[1]

    def test_aggregate_csv_format(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, [SuiteRow("rsgd", 0.05, 0.002, 5, 0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "config_id,metric_mean,metric_std,n_runs,n_diverged"
        assert lines[1].startswith("rsgd,0.05,")


def test_suite_pool_capped_at_task_count(monkeypatch):
    """Many free CPUs ask the pool for one worker per task, no more."""
    requested = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            requested.append(max_workers)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(core, "blas_free_threads", lambda: 1000)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    configs = {"a": toy_config(epochs=1), "b": toy_config(epochs=1, eta0=0.3)}
    rows = run_suite(configs, n_runs=2)
    assert requested == [4]
    assert [r.n_runs for r in rows] == [2, 2]
