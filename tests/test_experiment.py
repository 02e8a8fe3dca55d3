import concurrent.futures
import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest

import rsgdlab
from rsgdlab import network as net
from rsgdlab.core import RngStream
from rsgdlab.data import LabeledDataset, one_hot
from rsgdlab.experiment import (DivergenceError, MetricsRecord, SuiteRow,
                                TrainConfig, build_datasets, evaluate,
                                run_suite, train, write_aggregate_csv,
                                write_metrics_csv)
from rsgdlab.optim import ExpGammaSchedule, PowerLawSchedule


def histories_identical(a, b):
    """Bitwise equality of the deterministic metric fields (wall time varies)."""
    return len(a) == len(b) and all(
        (r.epoch, r.train_error, r.test_error, r.eta, r.gamma)
        == (s.epoch, s.train_error, s.test_error, s.eta, s.gamma)
        for r, s in zip(a, b))


def toy_config(**overrides):
    base = dict(
        architecture=net.Architecture([4, 6, 3]),
        optimizer="backprop", eta0=0.5, beta=0.999, eta_floor=0.02,
        batch_size=10, epochs=5, train_count=50, test_count=50, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


class TestEvaluate:
    def test_perfect_predictions(self):
        arch = net.Architecture([2, 2], use_bias=False)
        params = [np.zeros((2, 2))]
        targets = np.full((5, 2), 0.5)  # sigmoid(0) everywhere
        ds = LabeledDataset(inputs=np.random.default_rng(0).random((5, 2)),
                            targets=targets)
        assert evaluate(params, arch, ds, "mse") == 0.0

    def test_constant_classifier_on_balanced_data(self):
        arch = net.Architecture([3, 10], use_bias=True)
        params = [np.zeros((10, 4))]
        params[0][4, 3] = 5.0  # bias pushes class 4 always
        labels = np.repeat(np.arange(10), 10)
        ds = LabeledDataset(inputs=np.random.default_rng(1).random((100, 3)),
                            targets=one_hot(labels), kind="classification",
                            raw_labels=labels)
        assert evaluate(params, arch, ds, "classification_error") == pytest.approx(0.9)

    def test_hand_counted_misclassifications(self):
        arch = net.Architecture([2, 3], use_bias=False)
        params = [np.eye(3, 2)]
        inputs = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 2, 0])  # predictions: 0, 1, 0, 1 -> 2 wrong
        ds = LabeledDataset(inputs=inputs, targets=one_hot(labels, 3),
                            kind="classification", raw_labels=labels)
        assert evaluate(params, arch, ds, "classification_error") == pytest.approx(0.5)

    def test_argmax_ties_break_low(self):
        assert np.argmax(np.array([0.5, 0.5])) == 0


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
        order = RngStream(cfg.seed, "shuffle").permutation(50)
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
        orders = [RngStream(c.seed, "shuffle").permutation(50) for c in configs]
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

    def test_logged_schedules_match_closed_form(self):
        sched = PowerLawSchedule(1.0, 0.5)
        cfg = toy_config(optimizer="rsgd", schedule=sched, epochs=4)
        result = train(cfg)
        updates_per_epoch = cfg.train_count // cfg.batch_size
        eta = max(cfg.eta0, cfg.eta_floor)
        for record in result.history:
            if record.epoch > 0:
                eta = max(eta * cfg.beta ** record.epoch, cfg.eta_floor)
            assert record.eta == eta
            assert record.gamma == sched.gamma(record.epoch * updates_per_epoch,
                                               max(record.epoch - 1, 0))

    def test_checkpoints_saved_at_requested_epochs(self):
        result = train(toy_config(checkpoint_epochs=(0, 2, 4)))
        assert sorted(result.checkpoints) == [0, 2, 4]
        init = net.init_params(result.config.architecture,
                               RngStream(result.config.seed, "weight-init"))
        for a, b in zip(result.checkpoints[0], init):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("epochs", [(5,), (-1,), (0, 4, 6)])
    def test_checkpoint_epoch_outside_run_rejected(self, epochs):
        with pytest.raises(ValueError, match="checkpoint epochs"):
            toy_config(epochs=4, checkpoint_epochs=epochs)

    def test_nag_oracle_calls_counted(self):
        cfg = toy_config(optimizer="nag", rho=0.5, epochs=3)
        result = train(cfg)
        assert result.oracle_calls == 3 * (cfg.train_count // cfg.batch_size)

    def test_divergence_raises_with_history(self):
        cfg = toy_config(epochs=3)
        train_set, test_set = build_datasets(cfg)
        train_set.targets[0, 0] = np.nan
        with pytest.raises(DivergenceError) as excinfo:
            train(cfg, datasets=(train_set, test_set))
        assert isinstance(excinfo.value.history, list)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            toy_config(batch_size=7)  # does not divide 50
        with pytest.raises(ValueError):
            toy_config(optimizer="rsgd")  # missing schedule
        with pytest.raises(ValueError):
            toy_config(optimizer="sgdm")  # missing rho
        with pytest.raises(ValueError):
            toy_config(optimizer="nonsense")


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

    def test_seeds_are_offset_per_run(self):
        rows = run_suite({"plain": toy_config(epochs=2)}, n_runs=3)
        singles = [train(toy_config(epochs=2, seed=11 + i)).final_test_error
                   for i in range(3)]
        assert rows[0].metric_mean == pytest.approx(np.mean(singles), abs=1e-15)

    def test_parallel_matches_serial_bit_for_bit(self):
        configs = {"plain": toy_config(epochs=2),
                   "rsgd": toy_config(epochs=2, optimizer="rsgd",
                                      schedule=PowerLawSchedule(1.0, 0.5))}
        assert run_suite(configs, n_runs=2, jobs=2) == run_suite(configs, n_runs=2, jobs=1)


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
    """A large jobs value asks the pool for one worker per task, no more."""
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    configs = {"a": toy_config(epochs=1), "b": toy_config(epochs=1, eta0=0.3)}
    rows = run_suite(configs, n_runs=2, jobs=1000)
    assert requested == [4]
    assert [r.n_runs for r in rows] == [2, 2]
