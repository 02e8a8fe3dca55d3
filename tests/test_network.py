import re
import struct
import tracemalloc

import numpy as np
import pytest

from rsgdlab import network as net
from rsgdlab.core import RngStream, ShapeError
from rsgdlab.data import LabeledDataset, save_dataset
from rsgdlab.experiment import evaluate


def gradient_mismatch(analytic, numeric, abs_floor=1e-9):
    """Worst relative disagreement, ignoring differences below the central-
    difference noise floor (~1e-11 absolute for O(1) losses)."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), abs_floor / 1e-5)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return worst


def finite_difference_grads(params, arch, x, target, h=1e-5):
    grads = []
    for w in params:
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                w[i, j] += h
                up = net.loss(net.forward(params, arch, x).output, target, arch.loss)
                w[i, j] -= 2 * h
                down = net.loss(net.forward(params, arch, x).output, target, arch.loss)
                w[i, j] += h
                g[i, j] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def random_case(arch, seed):
    """Random weights, and one example as a column batch: x (n_in, 1), target (n_out, 1)."""
    rng = np.random.default_rng(seed)
    params = [rng.standard_normal(s) for s in arch.weight_shapes()]
    x = rng.standard_normal((arch.n_in, 1))
    if arch.loss == "cross_entropy":
        target = np.zeros((arch.n_out, 1))
        target[rng.integers(arch.n_out)] = 1.0
    else:
        target = rng.standard_normal((arch.n_out, 1))
    return params, x, target


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert net.sigmoid(np.zeros(1))[0] == 0.5

    def test_sigmoid_extremes_stay_finite(self):
        out = net.sigmoid(np.array([-1e4, -1000.0, 1000.0, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[:2] == pytest.approx(0.0) and out[2:] == pytest.approx(1.0)

    def test_sigmoid_matches_logistic_formula(self):
        x = np.linspace(-40.0, 40.0, 80_001)
        assert np.max(np.abs(net.sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) <= 4e-16

    def test_sigmoid_point_symmetry(self):
        x = np.linspace(-40.0, 40.0, 80_001)
        assert np.max(np.abs(net.sigmoid(-x) - (1.0 - net.sigmoid(x)))) <= 4e-16

    def test_relu_values_and_derivative(self):
        assert net.relu(np.array([-2.0]))[0] == 0.0
        # subgradient convention at exactly zero
        assert net._hidden_derivative(np.array([-2.0, 0.0, 3.0]), "relu").tolist() == [0, 0, 1]

    def test_softmax_symmetry(self):
        assert np.allclose(net.softmax(np.zeros(2)), [0.5, 0.5])

    def test_softmax_normalized_and_positive(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 20)) * 30
        y = net.softmax(x)
        assert np.all(y > 0)
        assert np.max(np.abs(y.sum(axis=0) - 1.0)) < 1e-12

    @pytest.mark.parametrize("kind", ["sigmoid", "relu", "softmax"])
    def test_in_place_equals_a_new_buffer(self, kind):
        x = np.random.default_rng(1).standard_normal((30, 50)) * 20
        expected = net.activation(x, kind)
        assert expected is not x
        got = net.activation(x, kind, out=x)
        assert got is x and np.array_equal(x, expected)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            net.activation(np.zeros((2, 1)), "tanh")


class TestArchitecture:
    @pytest.mark.parametrize("widths, kwargs, message", [
        ([], {}, "need at least 1 layer"), ([5, 0, 2], {}, "need at least 1 layer"),
        ([5, 2], {"hidden_activation": "tanh"}, "hidden_activation must be one of"),
        ([5, 2], {"loss": "hinge"}, "loss must be one of"),
    ])
    def test_rejects_bad_layers_activation_or_loss(self, widths, kwargs, message):
        with pytest.raises(ValueError, match=message):
            net.Architecture(widths, **kwargs)

    @pytest.mark.parametrize("loss", net.LOSSES)
    def test_one_width_is_the_identity_net(self, loss):
        arch = net.Architecture([5], loss=loss)
        assert arch.weight_shapes() == []
        rng = np.random.default_rng(4)
        x, target = rng.random((5, 7)), rng.random((5, 7))
        trace = net.forward([], arch, x)
        assert len(trace.states) == 1 and trace.output is x
        assert net.backward([], arch, trace, target) == []
        ds = LabeledDataset(inputs=x.T, targets=target.T)
        assert evaluate([], arch, ds, "mse") == net.loss(x, target, "quadratic") / 7
        with pytest.raises(ShapeError):
            net.forward([], arch, x[:4])

    def test_cross_entropy_requires_softmax(self):
        with pytest.raises(ValueError):
            net.Architecture([2, 2], output_activation="sigmoid", loss="cross_entropy")

    def test_quadratic_requires_sigmoid(self):
        with pytest.raises(ValueError, match="quadratic loss requires sigmoid output"):
            net.Architecture([2, 2], output_activation="softmax", loss="quadratic")

    @pytest.mark.parametrize("loss_kind, out", [("quadratic", "sigmoid"),
                                                ("cross_entropy", "softmax")])
    def test_output_activation_follows_the_loss(self, loss_kind, out):
        assert net.Architecture([2, 2], loss=loss_kind).output_activation == out
        assert net.Architecture([2, 2], output_activation=out, loss=loss_kind) \
            == net.Architecture([2, 2], loss=loss_kind)

    def test_weight_shapes_with_bias(self):
        arch = net.Architecture([3, 5, 2])
        assert arch.weight_shapes() == [(5, 4), (2, 6)]


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        arch = net.Architecture([4, 3, 2])
        params = [np.zeros(s) for s in arch.weight_shapes()]
        trace = net.forward(params, arch, np.ones((4, 1)))
        for s in trace.states[1:]:
            assert np.all(s == 0.5)

    def test_zero_weights_relu_hidden_gives_zero(self):
        arch = net.Architecture([4, 3, 2], hidden_activation="relu")
        params = [np.zeros(s) for s in arch.weight_shapes()]
        trace = net.forward(params, arch, np.ones((4, 1)))
        assert np.all(trace.states[1] == 0.0)

    def test_scalar_chain_hand_computed(self):
        arch = net.Architecture([1, 1, 1])
        params = [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])]  # zero bias columns
        y = net.forward(params, arch, np.zeros((1, 1))).output[0, 0]
        assert y == pytest.approx(0.6224593312018546, abs=1e-12)

    def test_purity(self):
        arch = net.Architecture([3, 4, 2])
        params, x, _ = random_case(arch, 1)
        a = net.forward(params, arch, x)
        b = net.forward(params, arch, x)
        assert all(np.array_equal(p, q) for p, q in zip(a.states, b.states))

    def test_input_mismatch(self):
        arch = net.Architecture([3, 4, 2])
        params, _, _ = random_case(arch, 1)
        with pytest.raises(ShapeError):
            net.forward(params, arch, np.zeros((5, 1)))

    def test_params_unlike_the_architecture_rejected(self):
        arch = net.Architecture([3, 4, 2])
        params, x, _ = random_case(arch, 1)
        with pytest.raises(ShapeError, match=r"weight shapes \[\(4, 4\), \(5, 2\)\] do not match"):
            net.forward([params[0], params[1].T], arch, x)

    @pytest.mark.parametrize("shape", [(3,), (3, 1, 1)])
    def test_input_that_is_not_a_column_batch(self, shape):
        # a vector would otherwise broadcast each bias column into a matrix
        arch = net.Architecture([3, 4, 2])
        params, _, _ = random_case(arch, 1)
        with pytest.raises(ShapeError, match=rf"input shape {re.escape(str(shape))} is not "
                                             r"a column batch of 3 rows"):
            net.forward(params, arch, np.zeros(shape))

    def test_batched_matches_per_example(self):
        arch = net.Architecture([3, 4, 2])
        params, _, _ = random_case(arch, 2)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((3, 7))
        batched = net.forward(params, arch, xs).output
        for c in range(7):
            single = net.forward(params, arch, xs[:, c:c + 1]).output
            assert np.allclose(batched[:, c:c + 1], single, atol=1e-14)

    def test_layers_above_layer1_are_a_net_of_their_own(self):
        arch = net.Architecture([3, 4, 2])
        params, _, _ = random_case(arch, 7)
        xs = np.random.default_rng(8).standard_normal((3, 6))
        above = net.Architecture(arch.widths[1:], arch.hidden_activation, loss=arch.loss)
        s1 = net.activation(net.preactivation(params[0], xs), arch.hidden_activation)
        split = net.forward(params[1:], above, s1)
        plain = net.forward(params, arch, xs)
        assert all(np.array_equal(p, q) for p, q in zip(split.states, plain.states[1:]))
        with pytest.raises(ShapeError):
            net.forward(params[1:], above, s1[:3])

    @pytest.mark.parametrize("widths, activation, loss", [
        ([3, 4, 2], "sigmoid", "quadratic"),
        ([3, 4, 2], "relu", "cross_entropy"),
        ([3, 2], "sigmoid", "quadratic"),
        ([3, 2], "relu", "cross_entropy"),  # layer 1 is the softmax output
    ])
    def test_layer1_state_is_the_first_state_of_the_net_above(self, widths, activation, loss):
        # the net above takes layer 1's state, activated in place over its
        # pre-activation, without a copy; a two-width net leaves it a net of one width
        arch = net.Architecture(widths, activation, loss=loss)
        params, _, _ = random_case(arch, 7)
        xs = np.random.default_rng(8).standard_normal((3, 6))
        s1 = net.preactivation(params[0], xs)
        kind = arch.hidden_activation if len(widths) > 2 else arch.output_activation
        assert net.activation(s1, kind, out=s1) is s1
        above = net.Architecture(widths[1:], activation, loss=loss)
        split = net.forward(params[1:], above, s1)
        assert split.states[0] is s1
        plain = net.forward(params, arch, xs)
        assert len(split.states) == len(plain.states) - 1
        assert all(np.array_equal(p, q) for p, q in zip(split.states, plain.states[1:]))


class TestLoss:
    def test_perfect_fit(self):
        v = np.array([0.3, 0.7])
        assert net.loss(v, v, "quadratic") == 0.0

    def test_cross_entropy_hand_value(self):
        assert net.loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                        "cross_entropy") == pytest.approx(np.log(2), abs=1e-12)

    def test_quadratic_hand_value(self):
        assert net.loss(np.zeros(2), np.ones(2), "quadratic") == 1.0

    @pytest.mark.parametrize("target, kind, error, message", [
        (np.zeros(3), "quadratic", ShapeError, r"output shape \(2,\) vs target shape \(3,\)"),
        (np.zeros(2), "hinge", ValueError, "unknown loss 'hinge'"),
    ])
    def test_bad_target_or_kind_rejected(self, target, kind, error, message):
        with pytest.raises(error, match=message):
            net.loss(np.zeros(2), target, kind)

    def test_cross_entropy_floor_guards_log_zero(self):
        value = net.loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]), "cross_entropy")
        assert np.isfinite(value)


ALL_COMBOS = [
    ("sigmoid", "sigmoid", "quadratic"),
    ("relu", "sigmoid", "quadratic"),
    ("sigmoid", "softmax", "cross_entropy"),
    ("relu", "softmax", "cross_entropy"),
]


class TestBackward:
    def test_target_unlike_the_output_rejected(self):
        arch = net.Architecture([3, 4, 2])
        params, x, _ = random_case(arch, 4)
        trace = net.forward(params, arch, x)
        with pytest.raises(ShapeError, match=r"target shape \(2, 3\) vs output shape \(2, 1\)"):
            net.backward(params, arch, trace, np.zeros((2, 3)))

    def test_zero_error_gives_zero_gradients(self):
        arch = net.Architecture([3, 4, 2])
        params, x, _ = random_case(arch, 4)
        trace = net.forward(params, arch, x)
        grads = net.backward(params, arch, trace, trace.output.copy())
        for g in grads:
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("hidden,out,loss_kind", ALL_COMBOS)
    def test_gradient_matches_finite_differences(self, hidden, out, loss_kind):
        arch = net.Architecture([3, 5, 4, 2], hidden_activation=hidden,
                                output_activation=out, loss=loss_kind)
        for seed in range(3):
            params, x, target = random_case(arch, seed)
            trace = net.forward(params, arch, x)
            grads = net.backward(params, arch, trace, target)
            fd = finite_difference_grads(params, arch, x, target)
            assert gradient_mismatch(grads, fd) < 1e-5

    def test_scalar_net_symbolic_gradient(self):
        # 1-1-1 sigmoid net, zero bias: closed-form chain rule
        arch = net.Architecture([1, 1, 1])
        w1, w2, v, t = 0.7, -1.3, 0.4, 0.9
        params = [np.array([[w1, 0.0]]), np.array([[w2, 0.0]])]
        trace = net.forward(params, arch, np.array([[v]]))
        s1 = 1 / (1 + np.exp(-w1 * v))
        y = 1 / (1 + np.exp(-w2 * s1))
        common = -(t - y) * y * (1 - y)
        expected_g2 = common * s1
        expected_g1 = common * w2 * s1 * (1 - s1) * v
        grads = net.backward(params, arch, trace, np.array([[t]]))
        assert grads[1][0, 0] == pytest.approx(expected_g2, rel=1e-12)
        assert grads[0][0, 0] == pytest.approx(expected_g1, rel=1e-12)

    def test_batched_gradient_is_mean_of_per_example(self):
        arch = net.Architecture([3, 4, 2])
        params, _, _ = random_case(arch, 5)
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((3, 5))
        ts = rng.standard_normal((2, 5))
        batch = net.backward(params, arch, net.forward(params, arch, xs), ts)
        accum = [np.zeros_like(w) for w in params]
        for c in range(5):
            per = net.backward(params, arch, net.forward(params, arch, xs[:, c:c + 1]),
                               ts[:, c:c + 1])
            accum = [a + p / 5 for a, p in zip(accum, per)]
        for b, a in zip(batch, accum):
            assert np.allclose(b, a, atol=1e-14)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        arch = net.Architecture([3, 5, 2], hidden_activation="relu",
                                output_activation="softmax", loss="cross_entropy")
        params = net.init_params(arch, RngStream(12, "weight-init"))
        path = tmp_path / "net.ckpt"
        net.save_checkpoint(path, arch, params)
        arch2, params2 = net.load_checkpoint(path)
        assert arch2 == arch
        for a, b in zip(params, params2):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("head", [b"NOPE", b"RSGD\x02\x00\x00\x00", b"RSGD\x00\x00\x00\x01"],
                             ids=["magic", "version-2", "big-endian-version"])
    def test_bad_magic_rejected(self, tmp_path, head):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(head + b"\x00" * 64)
        with pytest.raises(ValueError, match=r"bogus.ckpt: not a checkpoint file \(bad magic\)"):
            net.load_checkpoint(path)

    def test_dataset_file_rejected(self, tmp_path):
        path = tmp_path / "train.bin"
        save_dataset(path, LabeledDataset(np.zeros((3, 2)), np.zeros((3, 1))))
        with pytest.raises(ValueError, match=r"train.bin: not a checkpoint file \(bad magic\)"):
            net.load_checkpoint(path)

    def _saved(self, tmp_path):
        arch = net.Architecture([3, 5, 2])
        path = tmp_path / "net.ckpt"
        net.save_checkpoint(path, arch, net.init_params(arch, RngStream(12, "weight-init")))
        return path.read_bytes()

    def test_every_truncation_raises_value_error(self, tmp_path):
        data = self._saved(tmp_path)
        cut = tmp_path / "cut.ckpt"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError):
                net.load_checkpoint(cut)

    @pytest.mark.parametrize("offset", [24, 25, 26])  # hidden, output, loss code of 3 layers
    def test_unknown_code_rejected(self, tmp_path, offset):
        data = bytearray(self._saved(tmp_path))
        data[offset] = 9
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unknown activation or loss code 9"):
            net.load_checkpoint(path)

    def test_every_header_byte_flipped_raises_value_error(self, tmp_path):
        # magic, version, layer count, 3 widths, 2 activation codes, loss code, bias flag
        data = self._saved(tmp_path)
        path = tmp_path / "bad.ckpt"
        for offset in range(4 + 8 + 4 * 3 + 4):
            bad = bytearray(data)
            bad[offset] ^= 0xFF
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError):
                net.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ckpt"
        path.write_bytes(self._saved(tmp_path) + b"\x00")
        with pytest.raises(ValueError, match="1 unexpected bytes after the payload"):
            net.load_checkpoint(path)

    def test_bias_flag_other_than_0_or_1_rejected(self, tmp_path):
        data = bytearray(self._saved(tmp_path))
        data[27] = 2  # bias flag of a 3-layer checkpoint
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bias flag must be 1, got 2"):
            net.load_checkpoint(path)

    def test_bias_flag_0_rejected(self, tmp_path):
        data = bytearray(self._saved(tmp_path))
        data[27] = 0  # a checkpoint of a net without biases
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bias flag must be 1, got 0"):
            net.load_checkpoint(path)

    def test_quadratic_loss_with_softmax_output_rejected(self, tmp_path):
        data = bytearray(self._saved(tmp_path))
        data[25] = 2  # softmax output code; the loss code stays quadratic
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bad.ckpt: quadratic loss requires sigmoid output"):
            net.load_checkpoint(path)

    def test_header_larger_than_file(self, tmp_path):
        # widths 3, 2^32 - 1, 2; codes sigmoid, sigmoid, quadratic; bias on
        path = tmp_path / "header-only.ckpt"
        path.write_bytes(b"RSGD" + struct.pack("<II3I4B", 1, 3, 3, 0xFFFFFFFF, 2, 0, 0, 0, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated file"):
                net.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_holds_the_payload_once(self, tmp_path):
        arch = net.Architecture([1024, 2048, 2])  # 2.1M parameters: a 16.8 MB payload
        params = net.init_params(arch, RngStream(12, "weight-init"))
        path = tmp_path / "big.ckpt"
        net.save_checkpoint(path, arch, params)
        tracemalloc.start()
        try:
            _, loaded = net.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = sum(w.nbytes for w in params)
        assert peak <= payload + (1 << 20)
        for a, b in zip(params, loaded):
            assert b.dtype == np.dtype("<f8") and b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
