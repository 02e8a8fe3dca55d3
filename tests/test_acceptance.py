"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two MNIST criteria
need the real IDX files (see RSGD_MNIST_DIR in conftest); everything else is
self-contained.  The synthetic-experiment criterion trains 15 networks and
takes several minutes.
"""

import time

import numpy as np
import pytest

from conftest import MNIST_IMAGES, MNIST_LABELS, needs_mnist, write_idx_pair
from rsgdlab import network as net
from rsgdlab.core import RngStream
from rsgdlab.data import (IdxMagicError, IdxTruncatedError, load_mnist_idx,
                          one_hot)
from rsgdlab.experiment import TrainConfig, evaluate, train
from rsgdlab.optim import (ExpGammaSchedule, PowerLawSchedule, Rsgd,
                           Sgdm, memory_length_pmf, sgdm_unfold,
                           simulate_memory_length)
from rsgdlab.surface import scan_surface, write_surface_csv
from test_network import finite_difference_grads, gradient_mismatch, random_case


def report(number, description, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    combos = [("sigmoid", "sigmoid", "quadratic"), ("relu", "sigmoid", "quadratic"),
              ("sigmoid", "softmax", "cross_entropy"), ("relu", "softmax", "cross_entropy")]
    worst = 0.0
    for hidden, out, loss_kind in combos:
        arch = net.Architecture([3, 5, 4, 2], hidden_activation=hidden,
                                output_activation=out, loss=loss_kind)
        for seed in range(20):
            params, x, target = random_case(arch, 1000 + seed)
            grads = net.backward(params, arch, net.forward(params, arch, x), target)
            fd = finite_difference_grads(params, arch, x, target)
            worst = max(worst, gradient_mismatch(grads, fd))
    elapsed = time.perf_counter() - start
    report(1, f"backprop vs finite differences, 20 nets x 4 combos "
              f"(worst rel err {worst:.2e}, {elapsed:.1f}s)",
           worst < 1e-5 and elapsed < 10.0)


def test_criterion_02_vanilla_recovery():
    base = dict(architecture=net.Architecture([4, 6, 3]), eta0=0.5,
                batch_size=10, epochs=20, train_count=50, test_count=50, seed=21)
    plain = train(TrainConfig(optimizer="backprop", **base))
    degenerate = train(TrainConfig(optimizer="rsgd",
                                   schedule=ExpGammaSchedule(1.0, 0.0), **base))
    from test_experiment import histories_identical
    identical = histories_identical(plain.history, degenerate.history) and all(
        a.tobytes() == b.tobytes() for a, b in zip(plain.params, degenerate.params))
    report(2, "reinforced rule with gamma vanishing reproduces plain SGD bit-for-bit",
           identical)


def test_criterion_03_smooth_average_identity():
    g = np.array([[0.5, -1.0], [2.0, 0.1]])
    prev = np.array([[1.0, 3.0], [-2.0, 0.7]])
    sched = PowerLawSchedule(1.0, 0.5)
    t = 5
    p = sched.gamma(t)
    n = 100_000
    rng = RngStream(31, "reinforcement")
    opt = Rsgd([np.zeros((2, 2))], sched, rng)
    total = np.zeros_like(g)
    for _ in range(n):
        opt.accumulated = [prev.copy()]
        opt.t = t
        total += -opt.step([g], 1.0)[0]
    mean = total / n
    expected = g + p * prev
    se = np.abs(prev) * np.sqrt(p * (1 - p) / n)
    max_dev = float(np.max(np.abs(mean - expected) / np.maximum(se, 1e-300)))
    report(3, f"Monte-Carlo mean of 1e5 reinforced steps equals g + gamma*prev "
              f"({max_dev:.2f} binomial SE)", bool(np.all(np.abs(mean - expected) <= 3 * se)))


def test_criterion_04_memory_length_law(tmp_path):
    sched = PowerLawSchedule(1.0, 0.5)
    worst_sum_err = 0.0
    with open(tmp_path / "memory_length_pmf.csv", "w") as f:
        f.write("t,length,probability\n")
        for t in (300, 500, 700):
            pmf = memory_length_pmf(sched, t)
            worst_sum_err = max(worst_sum_err, abs(float(pmf.sum()) - 1.0))
            for length, prob in enumerate(pmf):
                f.write(f"{t},{length},{float(prob)!r}\n")
    pmf300 = memory_length_pmf(sched, 300)
    emp = simulate_memory_length(sched, 300, 100_000, RngStream(4, "reinforcement"))
    tv = 0.5 * float(np.abs(emp - pmf300).sum())
    report(4, f"analytic memory-length pmf normalized (err {worst_sum_err:.1e}) and "
              f"matches 1e5-run simulation (TV {tv:.4f})",
           worst_sum_err <= 1e-12 and tv < 0.01)


def test_criterion_05_unfolding_oracle():
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(100):
        steps = int(rng.integers(1, 51))
        rhos = rng.uniform(0, 1, steps)
        etas = rng.uniform(0.01, 1, steps)
        grads = [rng.standard_normal((2, 3)) for _ in range(steps)]
        opt = Sgdm([np.zeros((2, 3))], rho=0.0)
        for k in range(steps):
            opt.rho = rhos[k]
            delta = opt.step([grads[k]], etas[k])[0]
        oracle = sgdm_unfold(rhos, grads, etas)
        worst = max(worst, float(np.max(np.abs(delta - oracle))))
    report(5, f"iterated momentum equals closed-form unfolding "
              f"(worst abs diff {worst:.1e} over 100 sequences)", worst <= 1e-10)


@pytest.mark.slow
def test_criterion_06_synthetic_experiment():
    arch = net.Architecture([100, 400, 200, 10])
    base = dict(architecture=arch, batch_size=100, epochs=100,
                train_count=1000, test_count=1000)
    finals = {"backprop": [], "rsgd": [], "adam": []}
    for seed in range(5):
        for name in finals:
            if name == "rsgd":
                extra = dict(optimizer="rsgd",
                             schedule=ExpGammaSchedule(0.9995, 0.0001),
                             eta0=0.8, beta=0.999, eta_floor=0.02)
            elif name == "backprop":
                extra = dict(optimizer="backprop", eta0=0.8, beta=0.999, eta_floor=0.02)
            else:
                extra = dict(optimizer="adam", eta0=0.01, eta_floor=0.001)
            finals[name].append(train(TrainConfig(seed=seed, **base, **extra))
                                .final_test_error)
    means = {k: float(np.mean(v)) for k, v in finals.items()}
    improvement = 1.0 - means["rsgd"] / means["backprop"]
    ok = improvement >= 0.40 and means["rsgd"] <= means["adam"]
    report(6, f"synthetic task over 5 paired seeds: reinforced {means['rsgd']:.4f} "
              f"<= adam {means['adam']:.4f} < plain {means['backprop']:.4f} "
              f"({improvement:.1%} improvement)", ok)


TABLE_TARGETS = {
    10_000: {"backprop": 0.1047, "rsgd": 0.0535, "adam": 0.0535},
    15_000: {"backprop": 0.0948, "rsgd": 0.0465, "adam": 0.0471},
}


def _mnist_config(optimizer, train_count, seed, **overrides):
    base = dict(
        architecture=net.Architecture([784, 100, 200, 10]),
        optimizer=optimizer, batch_size=250, epochs=150,
        train_count=train_count, test_count=2000, seed=seed,
        dataset_source=("mnist", MNIST_IMAGES, MNIST_LABELS),
        metric="classification_error",
        eta0=0.8, beta=0.999, eta_floor=0.02)
    if optimizer == "rsgd":
        base["schedule"] = PowerLawSchedule(1.0, 0.5)
    if optimizer == "adam":
        base.update(eta0=0.01, eta_floor=0.001)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.slow
@pytest.mark.mnist
@needs_mnist
def test_criterion_07_mnist_table_reproduction():
    results = {}
    for train_count, targets in TABLE_TARGETS.items():
        for name in targets:
            errors = [train(_mnist_config(name, train_count, seed)).final_test_error
                      for seed in range(5)]
            results[(train_count, name)] = float(np.mean(errors))
    ok = all(abs(results[(m, n)] - target) <= 0.015
             for m, targets in TABLE_TARGETS.items() for n, target in targets.items())
    ok = ok and results[(15_000, "rsgd")] <= results[(15_000, "adam")]
    detail = "; ".join(f"{m // 1000}K {n}={v:.4f}" for (m, n), v in results.items())
    report(7, f"MNIST five-run means within 0.015 of reference ({detail})", ok)


@pytest.mark.slow
@pytest.mark.mnist
@needs_mnist
def test_criterion_08_momentum_comparisons():
    sched = PowerLawSchedule(1.0, 0.5)
    rsgd_errs, sgdm_errs = [], []
    for seed in range(5):
        rsgd_errs.append(train(_mnist_config(
            "rsgd", 1000, seed, batch_size=100, epochs=100,
            test_count=1000)).final_test_error)
        sgdm_errs.append(train(_mnist_config(
            "sgdm", 1000, seed, batch_size=100, epochs=100, test_count=1000,
            rho="adaptive", schedule=sched)).final_test_error)
    from test_experiment import train_counting_lookaheads
    _, lookaheads = train_counting_lookaheads(_mnist_config(
        "nag", 1000, 0, batch_size=100, epochs=100, test_count=1000,
        rho="adaptive", schedule=sched))
    expected_calls = 100 * (1000 // 100)
    ok_order = float(np.mean(sgdm_errs)) >= float(np.mean(rsgd_errs))
    ok_calls = lookaheads == expected_calls
    report(8, f"adaptive-momentum SGD mean {np.mean(sgdm_errs):.4f} >= reinforced "
              f"{np.mean(rsgd_errs):.4f}; look-ahead gradient evaluations "
              f"{lookaheads} == {expected_calls}", ok_order and ok_calls)


def test_criterion_09_surface_scan(tmp_path):
    arch = net.Architecture([10, 16, 8, 4])
    cfg = TrainConfig(architecture=arch, optimizer="rsgd",
                      schedule=PowerLawSchedule(1.0, 0.5), eta0=0.5,
                      batch_size=20, epochs=80, train_count=100, test_count=100,
                      seed=91, checkpoint_epochs=(0, 30, 60, 80))
    result = train(cfg)
    corners = [result.checkpoints[e] for e in (0, 30, 60, 80)]
    from rsgdlab.experiment import build_datasets
    _, test_set = build_datasets(cfg)

    grid2 = scan_surface(corners, 2, arch, test_set, "mse")
    corner_map = {(1, 1): 0, (0, 1): 1, (1, 0): 2, (0, 0): 3}
    corner_err = max(abs(grid2.values[ij] - evaluate(corners[idx], arch, test_set, "mse"))
                     for ij, idx in corner_map.items())

    grid41 = scan_surface(corners, 41, arch, test_set, "mse")
    path = tmp_path / "surface.csv"
    write_surface_csv(path, grid41)
    lines = path.read_text().strip().splitlines()
    well_formed = (lines[0] == "alpha,beta,error" and len(lines) == 1 + 41 * 41
                   and not grid41.has_failures)
    report(9, f"surface scan: corner consistency {corner_err:.1e}, 41x41 CSV "
              f"({len(lines) - 1} rows)", corner_err <= 1e-12 and well_formed)


def test_criterion_10_idx_loader(tmp_path):
    pixels = np.array([[[0, 255], [128, 1]],
                       [[7, 0], [255, 64]]], dtype=np.uint8)
    images, labels = write_idx_pair(tmp_path, pixels, [3, 9])
    ds = load_mnist_idx(images, labels)
    exact = (np.array_equal(ds.inputs[0], np.array([0, 255, 128, 1]) / 255.0)
             and np.array_equal(ds.inputs[1], np.array([7, 0, 255, 64]) / 255.0)
             and np.array_equal(ds.targets, one_hot(np.array([3, 9]))))

    bad_magic_dir = tmp_path / "magic"
    bad_magic_dir.mkdir()
    bi, bl = write_idx_pair(bad_magic_dir, pixels, [3, 9])
    raw = bytearray(bi.read_bytes())
    raw[3] = 0x77
    bi.write_bytes(bytes(raw))
    try:
        load_mnist_idx(bi, bl)
        magic_ok = False
    except IdxMagicError:
        magic_ok = True

    trunc_dir = tmp_path / "trunc"
    trunc_dir.mkdir()
    ti, tl = write_idx_pair(trunc_dir, pixels, [3, 9])
    ti.write_bytes(ti.read_bytes()[:-2])
    try:
        load_mnist_idx(ti, tl)
        trunc_ok = False
    except IdxTruncatedError:
        trunc_ok = True

    report(10, "hand-authored IDX fixture parses exactly; bad magic and truncation "
               "raise distinct errors", exact and magic_ok and trunc_ok)
