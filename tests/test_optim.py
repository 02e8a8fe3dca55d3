import importlib
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from rsgdlab import network as net
from rsgdlab import optim
from rsgdlab.core import RngStream, ShapeError
from rsgdlab.optim import (Adam, ExpGammaSchedule, Nag, PowerLawSchedule,
                           Rsgd, Sgdm, VanillaSgd, expected_tv, memory_length_pmf,
                           sgdm_unfold, simulate_memory_length)


def template(*shapes):
    return [np.zeros(s) for s in shapes]


class TestSchedules:
    def test_exp_gamma_starts_at_zero(self):
        assert ExpGammaSchedule(0.99, 0.0).gamma(0) == 0.0

    def test_degenerate_exp_gamma_always_zero(self):
        sched = ExpGammaSchedule(1.0, 0.0)
        assert all(sched.gamma(t) == 0.0 for t in (0, 1, 10, 10_000))

    def test_power_law_hand_value(self):
        assert PowerLawSchedule(1.0, 0.5).gamma(3) == pytest.approx(0.5)

    def test_power_law_clamped_for_large_a0(self):
        assert PowerLawSchedule(100.0, 0.5).gamma(0) == 0.0

    @pytest.mark.parametrize("sched", [
        ExpGammaSchedule(0.9995, 0.0001),
        ExpGammaSchedule(0.5, 0.0),
        PowerLawSchedule(1.0, 0.5),
        PowerLawSchedule(2.0, 0.3),
    ])
    def test_monotone_and_bounded(self, sched):
        values = [sched.gamma(t, 0) for t in range(0, 2000, 7)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("sched", [
        ExpGammaSchedule(0.9995, 0.0001),
        ExpGammaSchedule(0.5, 0.0),
        PowerLawSchedule(1.0, 0.5),
        PowerLawSchedule(2.0, 1.0),  # clamped to 0 at t = 0
    ])
    @pytest.mark.parametrize("t_ep", [0, 3])
    def test_clamp_equals_np_clip_reference(self, sched, t_ep):
        if isinstance(sched, ExpGammaSchedule):
            base = sched.gamma0 * np.exp(-sched.lam * t_ep)
            reference = lambda t: float(np.clip(1.0 - base ** t, 0.0, 1.0))
        else:
            reference = lambda t: float(np.clip(1.0 - sched.a0 / (t + 1.0) ** sched.b0, 0.0, 1.0))
        for t in [*range(0, 200), *range(200, 70_001, 997), 70_000]:
            value = sched.gamma(t, t_ep)
            assert type(value) is float
            assert value == reference(t)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            ExpGammaSchedule(0.0, 0.0)
        with pytest.raises(ValueError):
            ExpGammaSchedule(0.9, -1.0)
        with pytest.raises(ValueError):
            PowerLawSchedule(0.0, 0.5)

    @pytest.mark.parametrize("make, name", [
        (lambda v: ExpGammaSchedule(v, 0.0), "gamma0"),
        (lambda v: ExpGammaSchedule(0.9995, v), "lam"),
        (lambda v: PowerLawSchedule(v, 0.5), "a0"),
        (lambda v: PowerLawSchedule(1.0, v), "b0"),
    ], ids=["gamma0", "lam", "a0", "b0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_hyperparameter_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=name):
            make(value)


class TestRsgd:
    def test_zero_probability_is_vanilla(self):
        opt = Rsgd(template((2, 3)), ExpGammaSchedule(1.0, 0.0), RngStream(0, "reinforcement"))
        ref = VanillaSgd(template((2, 3)))
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = [rng.standard_normal((2, 3))]
            assert np.array_equal(opt.step(g, 0.1)[0], ref.step(g, 0.1)[0])

    def test_certain_reinforcement_accumulates_everything(self):
        # gamma(t) = 1 for every t >= 1; the t=0 step has an empty accumulator anyway
        opt = Rsgd(template((2, 2)), PowerLawSchedule(1e-12, 1.0), RngStream(0, "reinforcement"))
        rng = np.random.default_rng(2)
        grads = [rng.standard_normal((2, 2)) for _ in range(6)]
        for g in grads:
            delta = opt.step([g], 1.0)[0]
        assert np.allclose(-delta, np.sum(grads, axis=0), atol=1e-12)

    def test_certain_reinforcement_is_unit_momentum(self):
        # 1 - 1e-300 / (t + 1) rounds to 1.0 at every t, so every coin keeps
        opt = Rsgd(template((2, 3), (4, 1)), PowerLawSchedule(1e-300, 1.0),
                   RngStream(0, "reinforcement"))
        ref = Sgdm(template((2, 3), (4, 1)), rho=1.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = [rng.standard_normal((2, 3)), rng.standard_normal((4, 1))]
            for a, b in zip(opt.step(g, 0.1), ref.step(g, 0.1)):
                assert np.array_equal(a, b)

    def test_conditional_expectation_monte_carlo(self):
        g = np.array([[0.5, -1.0], [2.0, 0.1]])
        prev = np.array([[1.0, 3.0], [-2.0, 0.7]])
        sched = PowerLawSchedule(1.0, 0.5)
        t = 5
        p = sched.gamma(t)
        n = 20_000
        rng = RngStream(8, "reinforcement")
        total = np.zeros_like(g)
        for _ in range(n):
            opt = Rsgd(template((2, 2)), sched, rng)
            opt.accumulated = [prev.copy()]
            opt.t = t
            total += -opt.step([g], 1.0)[0]
        mean = total / n
        expected = g + p * prev
        se = np.abs(prev) * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(mean - expected) <= 3 * se + 1e-12)

    def test_shape_mismatch_rejected(self):
        opt = Rsgd(template((2, 2)), PowerLawSchedule(1.0, 0.5), RngStream(0, "reinforcement"))
        with pytest.raises(ShapeError):
            opt.step([np.zeros((3, 3))], 0.1)


class TestSgdm:
    def test_zero_momentum_is_vanilla(self):
        opt = Sgdm(template((2, 2)), rho=0.0)
        g = np.ones((2, 2))
        assert np.array_equal(opt.step([g], 0.5)[0], -0.5 * g)

    def test_vanilla_is_zero_momentum(self):
        opt = VanillaSgd(template((2, 3), (4, 1)))
        ref = Sgdm(template((2, 3), (4, 1)), rho=0.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = [rng.standard_normal((2, 3)), rng.standard_normal((4, 1))]
            for a, b in zip(opt.step(g, 0.3), ref.step(g, 0.3)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("cls", [VanillaSgd, Rsgd, Sgdm, Nag, Adam])
    def test_each_class_owns_its_step(self, cls):
        # bench/spans.py wraps "<Class>.step" through vars(cls), one span per class
        assert callable(vars(cls).get("step"))

    def test_benchmark_recorder_finds_every_entry_point(self, monkeypatch):
        # bench/spans.py wraps each "<Class>.step" through vars(cls), one span per class,
        # and raises TraceError on entering if an entry point it wraps is missing
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
        spans = importlib.import_module("spans")
        with spans.Recorder(spans.load_modules()).installed():
            assert hasattr(vars(VanillaSgd)["step"], "__wrapped__")
        assert not any(hasattr(vars(cls)["step"], "__wrapped__")
                       for cls in (VanillaSgd, Rsgd, Sgdm, Nag, Adam))

    @pytest.mark.parametrize("make, message", [
        (lambda p: Sgdm(p, None), "sgdm needs rho \\(a value or 'adaptive'\\)"),
        (lambda p: Nag(p, None), "nag needs rho \\(a value or 'adaptive'\\)"),
        (lambda p: Sgdm(p, "adaptive"), "rsgd and adaptive momentum need a reinforcement schedule"),
        (lambda p: Nag(p, "adaptive"), "rsgd and adaptive momentum need a reinforcement schedule"),
        (lambda p: Rsgd(p, None, RngStream(0, "reinforcement")),
         "rsgd and adaptive momentum need a reinforcement schedule"),
    ])
    def test_refuses_a_missing_rho_or_schedule(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(template((2, 3)))

    def test_unit_momentum_telescopes(self):
        opt = Sgdm(template((1, 1)), rho=1.0)
        g = np.array([[1.0]])
        for k in range(1, 6):
            delta = opt.step([g], 1.0)[0]
            assert delta[0, 0] == pytest.approx(-k)

    def test_matches_unfold_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            steps = 10
            rhos = rng.uniform(0, 1, steps)
            etas = rng.uniform(0.01, 1, steps)
            grads = [rng.standard_normal((2, 3)) for _ in range(steps)]
            opt = Sgdm(template((2, 3)), rho=0.0)
            for k in range(steps):
                opt.rho = rhos[k]
                delta = opt.step([grads[k]], etas[k])[0]
            oracle = sgdm_unfold(rhos, grads, etas)
            assert np.max(np.abs(delta - oracle)) < 1e-10


CHANGING_ETAS = (0.3, 0.05, 0.7)  # eta over steps 0-3, 4-7 and 8-11


OPTIMIZER_MAKERS = {
    "backprop": VanillaSgd,
    "rsgd": lambda p: Rsgd(p, PowerLawSchedule(1.0, 0.5), RngStream(0, "reinforcement")),
    "sgdm": lambda p: Sgdm(p, 0.9),
    "nag": lambda p: Nag(p, 0.9),
    "adam": Adam,
}


class TestStepState:
    """What a step holds, on the paper's 100-400-200-10 shapes."""

    @staticmethod
    def setup_step(name):
        params = net.init_params(net.Architecture([100, 400, 200, 10]), RngStream(0, "weight-init"))
        rng = np.random.default_rng(0)
        return params, OPTIMIZER_MAKERS[name](params), lambda: [
            rng.standard_normal(w.shape) for w in params]

    @pytest.mark.parametrize("name", list(OPTIMIZER_MAKERS))
    def test_one_step_and_update_hold_one_accumulator(self, name):
        params, opt, draw = self.setup_step(name)
        opt.step(draw(), 0.1)
        grads = draw()
        tracemalloc.start()
        try:
            for w, d in zip(params, opt.step(grads, 0.1)):
                w += d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the deltas, and R-SGD's coins (a byte per weight): no second accumulator;
        # Adam adds one layer's scratch for sqrt(v / c2) + eps
        assert peak <= (2.5 if name == "adam" else 1.5) * sum(w.nbytes for w in params)

    @pytest.mark.parametrize("name", list(OPTIMIZER_MAKERS))
    def test_later_steps_leave_returned_deltas_alone(self, name):
        _, opt, draw = self.setup_step(name)
        deltas = opt.step(draw(), 0.1)
        kept = [d.copy() for d in deltas]
        for _ in range(3):
            opt.step(draw(), 0.1)
        assert all(np.array_equal(d, k) for d, k in zip(deltas, kept))


class TestSgdmUnfold:
    def test_single_step(self):
        g = np.array([[2.0]])
        assert sgdm_unfold([0.7], [g], [0.1])[0, 0] == pytest.approx(-0.2)

    def test_constant_sequences_hand_expansion(self):
        rho, g, eta = 0.5, np.array([[1.0]]), 0.3
        delta = sgdm_unfold([rho] * 3, [g] * 3, [eta] * 3)
        assert delta[0, 0] == pytest.approx(-eta * (rho ** 2 + rho + 1))

    @pytest.mark.parametrize("rhos, grads, etas, message", [
        ([0.5], [np.zeros((1, 1))], [0.1, 0.2], "must have equal length"),
        ([], [], [], "need at least one step")])
    def test_bad_sequences_rejected(self, rhos, grads, etas, message):
        with pytest.raises(ValueError, match=message):
            sgdm_unfold(rhos, grads, etas)


class TestNag:
    def test_zero_momentum_reduces_to_vanilla(self):
        opt = Nag(template((1, 1)), rho=0.0)
        w = [np.array([[2.0]])]
        at = opt.lookahead(w)
        delta = opt.step([at[0].copy()], 0.1)  # E(w) = w^2/2, g = w
        assert delta[0][0, 0] == pytest.approx(-0.2)

    def test_scalar_quadratic_two_step_recursion(self):
        # E(w) = w^2 / 2 so the gradient is the look-ahead point itself
        rho, eta, w0 = 0.4, 0.2, 1.5
        opt = Nag(template((1, 1)), rho=rho)
        w = [np.array([[w0]])]
        v = 0.0
        for _ in range(2):
            at = opt.lookahead(w)
            delta = opt.step([at[0].copy()], eta)
            v = rho * v - eta * (w[0][0, 0] + rho * v)
            w = [w[0] + delta[0]]
            assert delta[0][0, 0] == pytest.approx(v, rel=1e-12)

    def test_adaptive_step_uses_the_lookaheads_rho(self):
        sched = PowerLawSchedule(1.0, 0.5)
        eta = 0.2
        opt = Nag(template((1, 1)), rho="adaptive", schedule=sched)
        w = [np.array([[1.5]])]
        v = 0.0
        for t in range(5):
            rho = sched.gamma(t)
            at = opt.lookahead(w)
            delta = opt.step([at[0].copy()], eta)
            v = rho * v - eta * (w[0][0, 0] + rho * v)
            w = [w[0] + delta[0]]
            assert delta[0][0, 0] == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.9, "adaptive"])
    def test_changing_eta_is_the_hand_recursion_bit_for_bit(self, rho):
        # v <- rho * v - eta * g and delta = v, where Sgdm steps by -eta * a instead:
        # the two agree while eta is constant and part once it changes
        sched = PowerLawSchedule(1.0, 0.5)
        shapes = ((2, 3), (4, 1))
        opt = Nag(template(*shapes), rho=rho, schedule=sched)
        sgdm = Sgdm(template(*shapes), rho=rho, schedule=sched)
        rng = np.random.default_rng(12)
        vs = [np.zeros(s) for s in shapes]
        for k in range(12):
            eta = CHANGING_ETAS[k // 4]
            r = sched.gamma(k) if rho == "adaptive" else rho
            grads = [rng.standard_normal(s) for s in shapes]
            vs = [r * v - eta * g for v, g in zip(vs, grads)]
            deltas, sgdm_deltas = opt.step(grads, eta), sgdm.step(grads, eta)
            assert [d.tobytes() for d in deltas] == [v.tobytes() for v in vs]
            assert [a.tobytes() for a in opt.accumulated] == [v.tobytes() for v in vs]
            agree = [np.allclose(d, s, rtol=1e-12, atol=0.0) for d, s in zip(deltas, sgdm_deltas)]
            assert agree == [k < 4] * len(shapes)


class TestLookahead:
    @pytest.mark.parametrize("make", [
        VanillaSgd,
        lambda t: Rsgd(t, PowerLawSchedule(1.0, 0.5), RngStream(0, "reinforcement")),
        lambda t: Sgdm(t, rho=0.9),
        Adam,
    ])
    def test_is_the_parameters_themselves(self, make):
        params = [np.ones((2, 3)), np.ones((4, 1))]
        opt = make(template((2, 3), (4, 1)))
        opt.step([np.ones((2, 3)), np.ones((4, 1))], 0.1)
        assert opt.lookahead(params, 3) is params

    def test_nag_looks_ahead_by_rho_times_velocity(self):
        opt = Nag(template((2, 3), (4, 1)), rho="adaptive", schedule=PowerLawSchedule(1.0, 0.5))
        rng = np.random.default_rng(8)
        for _ in range(3):
            opt.step([rng.standard_normal((2, 3)), rng.standard_normal((4, 1))], 0.1)
        params = [rng.standard_normal((2, 3)), rng.standard_normal((4, 1))]
        rho = PowerLawSchedule(1.0, 0.5).gamma(3)
        at = opt.lookahead(params)
        for a, w, v in zip(at, params, opt.accumulated):
            assert a.tobytes() == (w + rho * v).tobytes()
        assert opt.t == 3  # looking ahead is not a step

    def test_nag_lookahead_checks_shapes(self):
        with pytest.raises(ShapeError):
            Nag(template((2, 3)), rho=0.5).lookahead([np.zeros((3, 2))])


class TestAdam:
    def test_first_step_is_signed(self):
        opt = Adam(template((1, 2)))
        g = np.array([[0.3, -4.0]])
        delta = opt.step([g], 0.01)[0]
        assert np.allclose(delta, -0.01 * np.sign(g), rtol=1e-4)

    def test_zero_gradients_never_move(self):
        opt = Adam(template((2, 2)))
        for _ in range(5):
            delta = opt.step([np.zeros((2, 2))], 0.01)[0]
            assert np.all(delta == 0.0)

    def test_scalar_trajectory_matches_hand_recursion(self):
        b1, b2, eps, eta = 0.9, 0.999, 1e-8, 0.01
        opt = Adam(template((1, 1)))
        rng = np.random.default_rng(4)
        m = v = 0.0
        for k in range(1, 6):
            g = float(rng.standard_normal())
            delta = opt.step([np.array([[g]])], eta)[0][0, 0]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            expected = -eta * (m / (1 - b1 ** k)) / (np.sqrt(v / (1 - b2 ** k)) + eps)
            assert delta == pytest.approx(expected, abs=1e-12)

    def test_changing_eta_is_the_hand_recursion_bit_for_bit(self):
        b1, b2, eps = 0.9, 0.999, 1e-8
        shapes = ((2, 3), (4, 1))
        opt = Adam(template(*shapes))
        rng = np.random.default_rng(13)
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        for k in range(1, 13):
            eta = CHANGING_ETAS[(k - 1) // 4]
            grads = [rng.standard_normal(s) for s in shapes]
            ms = [b1 * m + (1 - b1) * g for m, g in zip(ms, grads)]
            vs = [b2 * v + (1 - b2) * g * g for v, g in zip(vs, grads)]
            c1, c2 = 1.0 - b1 ** k, 1.0 - b2 ** k
            expected = [m / c1 * -eta / (np.sqrt(v / c2) + eps) for m, v in zip(ms, vs)]
            deltas = opt.step(grads, eta)
            assert [d.tobytes() for d in deltas] == [e.tobytes() for e in expected]
            assert [m.tobytes() for m in opt.accumulated] == [m.tobytes() for m in ms]
            assert [v.tobytes() for v in opt.v] == [v.tobytes() for v in vs]


class TestMemoryLengthPmf:
    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            memory_length_pmf(PowerLawSchedule(1.0, 0.5), -1)

    def test_zero_length_probability(self):
        sched = PowerLawSchedule(1.0, 0.5)
        for t in (1, 10, 50):
            pmf = memory_length_pmf(sched, t)
            assert pmf[0] == pytest.approx(1.0 - sched.gamma(t), abs=1e-15)

    @pytest.mark.parametrize("sched", [PowerLawSchedule(1.0, 0.5),
                                       ExpGammaSchedule(0.9995, 0.0001)])
    @pytest.mark.parametrize("t", [0, 1, 7, 100, 1000, 10_000])
    def test_normalization_and_nonnegativity(self, sched, t):
        pmf = memory_length_pmf(sched, t)
        assert pmf.shape == (t + 1,)
        assert np.all(pmf >= 0.0)
        assert abs(pmf.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("sched", [
        ExpGammaSchedule(0.9995, 0.0001),
        ExpGammaSchedule(0.5, 0.0),
        PowerLawSchedule(1.0, 0.5),
        PowerLawSchedule(2.0, 1.0),
    ])
    @pytest.mark.parametrize("t", [0, 1, 7, 300, 5000, 70_000])
    def test_equals_loop_reference(self, sched, t):
        g = [0.0] + [sched.gamma(l) for l in range(1, t + 1)]
        expected = np.empty(t + 1)
        suffix = 1.0  # product of gamma over steps t-L+1 .. t
        for length in range(t + 1):
            expected[length] = (1.0 - g[t - length]) * suffix
            suffix *= g[t - length]
        assert memory_length_pmf(sched, t).tobytes() == expected.tobytes()

    def test_simulation_agrees_with_analytic(self):
        sched = PowerLawSchedule(1.0, 0.5)
        t = 60
        pmf = memory_length_pmf(sched, t)
        emp = simulate_memory_length(sched, t, 100_000, RngStream(4, "reinforcement"))
        assert 0.5 * np.abs(emp - pmf).sum() < 0.01

    def test_expected_tv_hand_value(self):
        # 2 * sqrt(0.25 / (2 pi 50)) = 1 / (10 sqrt(pi))
        assert expected_tv(np.array([0.5, 0.5]), 50) == pytest.approx(
            0.05641895835477563, rel=1e-15)
        assert expected_tv(np.array([1.0, 0.0]), 50) == 0.0

    def test_simulation_within_sampling_noise_for_every_seed(self):
        # Criterion 4's size: pure multinomial noise gives E[TV] = 0.0099 and
        # sd = 0.0009, so a fixed 0.01 bound fails for about a third of seeds.
        # Each |p_hat - p| is half-normal with variance (1 - 2/pi) p(1-p)/n;
        # 6 sd above the mean keeps a chance failure far below 1e-6 per seed.
        sched, t, n = PowerLawSchedule(1.0, 0.5), 300, 100_000
        pmf = memory_length_pmf(sched, t)
        wrong = memory_length_pmf(PowerLawSchedule(1.0, 0.55), t)  # b0 off by 10%
        sd = 0.5 * np.sqrt((1.0 - 2.0 / np.pi) * float((pmf * (1.0 - pmf)).sum()) / n)
        bound = expected_tv(pmf, n) + 6.0 * sd
        for seed in range(20):
            emp = simulate_memory_length(sched, t, n, RngStream(seed, "reinforcement"))
            assert 0.5 * np.abs(emp - pmf).sum() <= bound, seed
            assert 0.5 * np.abs(emp - wrong).sum() > bound, seed


def trailing_run_histogram(coins):
    """Reference: lengths of each row's trailing run of True, as a normalized histogram."""
    n_runs, t = coins.shape
    lengths = []
    for row in coins:
        length = 0
        while length < t and row[t - 1 - length]:
            length += 1
        lengths.append(length)
    return np.bincount(lengths, minlength=t + 1) / n_runs


class TestSimulateMemoryLength:
    @pytest.mark.parametrize("t", [0, 1, 7, 40])
    @pytest.mark.parametrize("runs_per_block", [1, 2, 3])
    def test_blocks_equal_one_draw(self, monkeypatch, t, runs_per_block):
        # 11 runs: the last block is partial for 2 and 3 runs per block
        monkeypatch.setattr(optim, "SIM_BLOCK",
                            runs_per_block * max(t, 1) * optim.usable_cpus())
        sched = PowerLawSchedule(1.0, 0.5)
        probs = np.array([sched.gamma(l) for l in range(1, t + 1)])
        expected = trailing_run_histogram(RngStream(8, "reinforcement").gen.random((11, t)) < probs)
        got = simulate_memory_length(sched, t, 11, RngStream(8, "reinforcement"))
        assert got.shape == (t + 1,)
        assert np.array_equal(got, expected)

    def test_zero_steps_matches_pmf(self):
        sched = ExpGammaSchedule(0.9995, 0.0001)
        got = simulate_memory_length(sched, 0, 5, RngStream(0, "reinforcement"))
        assert np.array_equal(got, memory_length_pmf(sched, 0))

    def test_memory_does_not_grow_with_runs(self):
        # one (1e5, 300) draw would take 240 MB
        tracemalloc.start()
        try:
            simulate_memory_length(PowerLawSchedule(1.0, 0.5), 300, 100_000,
                                   RngStream(4, "reinforcement"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("t", [0, 5])
    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_no_runs_rejected(self, t, n_runs):
        with pytest.raises(ValueError, match="n_runs"):
            simulate_memory_length(PowerLawSchedule(1.0, 0.5), t, n_runs,
                                   RngStream(0, "reinforcement"))


def sequential_histogram(sched, t, n_runs, rng, chunk=2000):
    """Reference: runs drawn one after another from ``rng``, lengths by cumprod."""
    probs = np.array([sched.gamma(l) for l in range(1, t + 1)])
    counts = np.zeros(t + 1, dtype=np.int64)
    for start in range(0, n_runs, chunk):
        coins = rng.gen.random((min(chunk, n_runs - start), t)) < probs
        lengths = np.cumprod(coins[:, ::-1], axis=1).sum(axis=1)
        counts += np.bincount(lengths, minlength=t + 1)
    return counts / n_runs


class TestSimulationParts:
    """One part per usable CPU gives the same coins, histogram and stream state."""

    @pytest.mark.parametrize("sched", [PowerLawSchedule(1.0, 0.5),
                                       ExpGammaSchedule(0.9995, 0.0001)],
                             ids=["power_law", "exp_gamma"])
    @pytest.mark.parametrize("t, n_runs", [(300, 100_000), (60, 100_000), (1, 7),
                                           (40, 12345), (5000, 300), (70000, 3)])
    def test_parts_equal_one_sequential_draw(self, monkeypatch, sched, t, n_runs):
        ref = RngStream(4, "reinforcement")
        expected = sequential_histogram(sched, t, n_runs, ref)
        for parts in (1, 2, 3, 7):
            monkeypatch.setattr(optim, "usable_cpus", lambda: parts)
            rng = RngStream(4, "reinforcement")
            got = simulate_memory_length(sched, t, n_runs, rng)
            assert got.tobytes() == expected.tobytes(), parts
            assert rng.gen.bit_generator.state == ref.gen.bit_generator.state, parts

    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_buffered_32_bit_half_survives(self, monkeypatch, parts):
        monkeypatch.setattr(optim, "usable_cpus", lambda: parts)
        rng, ref = RngStream(9, "reinforcement"), RngStream(9, "reinforcement")
        for stream in (rng, ref):
            stream.gen.integers(0, 1000, size=1, dtype=np.uint32)
        sched = PowerLawSchedule(1.0, 0.5)
        got = simulate_memory_length(sched, 40, 12345, rng)
        assert got.tobytes() == sequential_histogram(sched, 40, 12345, ref).tobytes()
        assert rng.gen.bit_generator.state == ref.gen.bit_generator.state
        assert np.array_equal(rng.gen.integers(0, 1000, size=4, dtype=np.uint32),
                              ref.gen.integers(0, 1000, size=4, dtype=np.uint32))

    @pytest.mark.parametrize("cpus, n_runs, runs, rows", [
        (3, 11, [3, 4, 4], 2), (3, 2, [1, 1], 3), (7, 13, [2, 2, 2, 2, 2, 3], 1),
        (1, 11, [11], 6)])
    def test_runs_are_split_evenly(self, monkeypatch, cpus, n_runs, runs, rows):
        # t = 5 and SIM_BLOCK 30: at most 6 parts, each drawn 30 // (parts * 5) runs at a time
        monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(optim, "SIM_BLOCK", 30)
        seen, blocks = [], set()
        split, count = RngStream.split, optim._trailing_run_counts
        monkeypatch.setattr(RngStream, "split",
                            lambda self, counts: seen.append(list(counts)) or split(self, counts))
        monkeypatch.setattr(optim, "_trailing_run_counts",
                            lambda *args: blocks.add(args[-1]) or count(*args))
        simulate_memory_length(PowerLawSchedule(1.0, 0.5), 5, n_runs, RngStream(0, "reinforcement"))
        assert seen == [[r * 5 for r in runs]]
        assert blocks == {rows}
