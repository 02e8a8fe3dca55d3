import functools
import threading

import numpy as np
import pytest

from rsgdlab import core
from rsgdlab import network as net
from rsgdlab import surface
from rsgdlab.core import RngStream, ShapeError
from rsgdlab.data import LabeledDataset
from rsgdlab.experiment import evaluate
from rsgdlab.surface import (bilinear_interpolate,
                             scan_surface, write_surface_csv)


def random_corners(arch, seed=0):
    return [net.init_params(arch, RngStream(seed + i, "weight-init")) for i in range(4)]


@pytest.fixture
def small_setup():
    arch = net.Architecture([3, 4, 2])
    corners = random_corners(arch)
    rng = np.random.default_rng(5)
    ds = LabeledDataset(inputs=rng.standard_normal((20, 3)),
                        targets=rng.random((20, 2)))
    return arch, corners, ds


class TestBilinearInterpolate:
    def test_corner_identities(self, small_setup):
        _, corners, _ = small_setup
        cases = [((1.0, 1.0), 0), ((0.0, 1.0), 1), ((1.0, 0.0), 2), ((0.0, 0.0), 3)]
        for (alpha, beta), idx in cases:
            built = bilinear_interpolate(corners, alpha, beta)
            for a, b in zip(built, corners[idx]):
                assert np.array_equal(a, b)

    def test_center_is_mean_of_corners(self, small_setup):
        _, corners, _ = small_setup
        built = bilinear_interpolate(corners, 0.5, 0.5)
        for k, w in enumerate(built):
            mean = sum(c[k] for c in corners) / 4.0
            assert np.allclose(w, mean, atol=1e-15)

    def test_affine_in_alpha_for_fixed_beta(self, small_setup):
        _, corners, _ = small_setup
        beta = 0.3
        p0 = bilinear_interpolate(corners, 0.0, beta)
        p1 = bilinear_interpolate(corners, 0.5, beta)
        p2 = bilinear_interpolate(corners, 1.0, beta)
        for a, b, c in zip(p0, p1, p2):
            assert np.allclose(b, 0.5 * (a + c), atol=1e-12)  # midpoint collinearity

    def test_shape_mismatch_rejected(self, small_setup):
        _, corners, _ = small_setup
        bad = [w.T.copy() for w in corners[3]]
        with pytest.raises(ShapeError):
            bilinear_interpolate(corners[:3] + [bad], 0.5, 0.5)

    def test_coefficients_out_of_range(self, small_setup):
        _, corners, _ = small_setup
        with pytest.raises(ValueError):
            bilinear_interpolate(corners, 1.5, 0.5)


class TestScanSurface:
    def test_resolution_two_reproduces_corner_evaluations(self, small_setup):
        arch, corners, ds = small_setup
        grid = scan_surface(corners, 2, arch, ds, "mse")
        # (alpha, beta) corner map: (1,1)->W1, (0,1)->W2, (1,0)->W3, (0,0)->W4
        expect = {
            (1, 1): corners[0], (0, 1): corners[1],
            (1, 0): corners[2], (0, 0): corners[3],
        }
        for (i, j), params in expect.items():
            direct = evaluate(params, arch, ds, "mse")
            assert abs(grid.values[i, j] - direct) <= 1e-12

    def test_equal_corners_give_constant_grid(self, small_setup):
        arch, corners, ds = small_setup
        same = [corners[0]] * 4
        grid = scan_surface(same, 5, arch, ds, "mse")
        assert np.allclose(grid.values, grid.values[0, 0], atol=1e-12)

    def test_single_parameter_net_matches_scalar_closed_form(self):
        # 1-1 sigmoid net with a zero bias: error has a hand-computable scalar form
        arch = net.Architecture([1, 1])
        corners = [[np.array([[w, 0.0]])] for w in (2.0, -1.0, 0.5, 3.0)]
        v, target = 0.8, 0.3
        ds = LabeledDataset(inputs=np.array([[v]]), targets=np.array([[target]]))
        grid = scan_surface(corners, 5, arch, ds, "mse")
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                w = beta * (alpha * 2.0 + (1 - alpha) * -1.0) \
                    + (1 - beta) * (alpha * 0.5 + (1 - alpha) * 3.0)
                y = 1.0 / (1.0 + np.exp(-w * v))
                assert grid.values[i, j] == pytest.approx(0.5 * (target - y) ** 2, rel=1e-12)

    def test_points_match_evaluate_of_interpolated_weights(self):
        # 2500 examples: evaluate's forward passes run in two chunks
        arch = net.Architecture([3, 4, 2])
        corners = random_corners(arch, seed=3)
        rng = np.random.default_rng(9)
        ds = LabeledDataset(inputs=rng.standard_normal((2500, 3)),
                            targets=rng.random((2500, 2)))
        grid = scan_surface(corners, 4, arch, ds, "mse")
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                params = bilinear_interpolate(corners, alpha, beta)
                direct = evaluate(params, arch, ds, "mse")
                assert grid.values[i, j] == pytest.approx(direct, rel=1e-12, abs=0)

    def test_points_equal_evaluate_of_interpolated_layer1(self):
        arch = net.Architecture([5, 6, 4, 3])
        corners = random_corners(arch, seed=7)
        rng = np.random.default_rng(2)
        ds = LabeledDataset(inputs=rng.standard_normal((2500, 5)),
                            targets=rng.random((2500, 3)))
        products = [[net.preactivation(c[0], ds.inputs.T)] for c in corners]
        grid = scan_surface(corners, 7, arch, ds, "mse")
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                params = bilinear_interpolate(corners, alpha, beta)
                layer1, = bilinear_interpolate(products, alpha, beta)
                assert grid.values[i, j] == evaluate(params, arch, ds, "mse", layer1=layer1)

    def test_dataset_width_mismatch_rejected(self, small_setup):
        arch, corners, _ = small_setup
        ds = LabeledDataset(inputs=np.zeros((5, 4)), targets=np.zeros((5, 2)))
        with pytest.raises(ShapeError):
            scan_surface(corners, 2, arch, ds)

    def test_resolution_below_two_rejected(self, small_setup):
        arch, corners, ds = small_setup
        with pytest.raises(ValueError):
            scan_surface(corners, 1, arch, ds)

    def test_bad_metric_raises(self, small_setup):
        arch, corners, ds = small_setup
        with pytest.raises(ValueError, match="metric"):
            scan_surface(corners, 2, arch, ds, "accuracy")

    def test_non_finite_corner_sets_has_failures(self, small_setup):
        arch, corners, ds = small_setup
        assert not scan_surface(corners, 3, arch, ds, "mse").has_failures
        broken = [[w.copy() for w in c] for c in corners]
        broken[2][1][0, 0] = np.nan
        assert scan_surface(broken, 3, arch, ds, "mse").has_failures

    def test_lattice_includes_endpoints(self, small_setup):
        arch, corners, ds = small_setup
        grid = scan_surface(corners, 5, arch, ds)
        assert grid.alphas[0] == 0.0 and grid.alphas[-1] == 1.0
        assert grid.betas[0] == 0.0 and grid.betas[-1] == 1.0


class TestScanWorkers:
    """A row's points are scored on as many threads as BLAS's own threads leave CPUs free."""

    @pytest.mark.parametrize("env, cpus, workers", [
        ("OPENBLAS_NUM_THREADS=1", 2, 2),
        ("OPENBLAS_NUM_THREADS=2", 2, 1),
        ("OPENBLAS_NUM_THREADS=2", 4, 2),
        ("OPENBLAS_NUM_THREADS=4", 2, 1),
        ("", 2, 1),
        ("OPENBLAS_NUM_THREADS=0", 2, 1),
        ("OPENBLAS_NUM_THREADS=abc", 2, 1),
        ("OPENBLAS_NUM_THREADS=", 2, 1),
        ("OPENBLAS_NUM_THREADS=-1", 2, 1),
        ("OMP_NUM_THREADS=1", 3, 3),
        ("GOTO_NUM_THREADS=1", 2, 2),
        ("OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=1", 2, 1),
        ("OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=2", 2, 2),
        ("GOTO_NUM_THREADS=2 OMP_NUM_THREADS=1", 2, 1),
        # OpenBLAS reads a value that is not a positive count as unset
        ("OPENBLAS_NUM_THREADS=abc OMP_NUM_THREADS=1", 2, 2),
        ("OPENBLAS_NUM_THREADS=0 OMP_NUM_THREADS=1", 2, 2),
        # MKL's variable does not reach OpenBLAS
        ("MKL_NUM_THREADS=1", 2, 1),
        ("MKL_NUM_THREADS=2 OMP_NUM_THREADS=1", 2, 2),
    ])
    def test_worker_count(self, monkeypatch, env, cpus, workers):
        for var in (*core.BLAS_THREAD_VARS, "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for setting in env.split():
            monkeypatch.setenv(*setting.split("="))
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        assert core.blas_free_threads() == workers


class TestParallelScan:
    @pytest.mark.parametrize("widths, activation, loss, metric", [
        ([5, 20, 4, 3], "sigmoid", "quadratic", "mse"),
        ([5, 40, 7, 3], "relu", "cross_entropy", "classification_error"),
        ([6, 3], "sigmoid", "quadratic", "mse"),
        ([6, 3], "relu", "cross_entropy", "mse"),
    ], ids=["4-layer-quadratic", "4-layer-cross-entropy", "2-layer-quadratic",
            "2-layer-cross-entropy"])
    @pytest.mark.parametrize("resolution", [2, 5, 7])  # 7: alphas that are not dyadic
    def test_grid_identical_for_every_worker_count(self, monkeypatch, widths, activation,
                                                   loss, metric, resolution):
        arch = net.Architecture(widths, activation, loss=loss)
        corners = random_corners(arch, seed=4)
        rng = np.random.default_rng(6)
        labels = rng.integers(0, widths[-1], 2500)  # 2500: evaluate runs two chunks
        ds = LabeledDataset(inputs=rng.standard_normal((2500, widths[0])),
                            targets=np.eye(widths[-1])[labels])
        # each point's layer-1 pre-activation and weights, bytewise: a one-ulp
        # difference there need not reach the error a point reports
        inputs, threads = [], set()

        def recording_evaluate(params, arch, dataset, metric, layer1):
            inputs.append(b"".join(a.tobytes() for a in (layer1, *params)))
            threads.add(threading.get_ident())
            return evaluate(params, arch, dataset, metric, layer1=layer1)

        monkeypatch.setattr(surface, "evaluate", recording_evaluate)
        grids, seen = {}, {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(core, "blas_free_threads", lambda: workers)
            inputs.clear()
            threads.clear()
            grids[workers] = scan_surface(corners, resolution, arch, ds, metric).values
            seen[workers] = inputs[:]
            if workers == 1:
                assert threads == {threading.get_ident()}  # one worker is the calling thread
            else:
                assert threading.get_ident() not in threads
                assert len(threads) <= min(workers, resolution)
        assert np.array_equal(grids[2], grids[1]) and np.array_equal(grids[3], grids[1])
        # a row's points finish in any order on threads, and rows in order
        for workers in (2, 3):
            for i in range(resolution):
                row = slice(i * resolution, (i + 1) * resolution)
                assert sorted(seen[workers][row]) == sorted(seen[1][row])
        assert len(seen[1]) == resolution ** 2 and np.isfinite(grids[1]).all()

    def test_wrapped_evaluate_runs_on_the_calling_thread(self, monkeypatch, small_setup):
        # a tracer's wrapper, such as the benchmark's span recorder, need not be thread-safe
        arch, corners, ds = small_setup
        threads = []

        @functools.wraps(evaluate)
        def traced(*args, **kwargs):
            threads.append(threading.get_ident())
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(core, "blas_free_threads", lambda: 2)
        monkeypatch.setattr(surface, "evaluate", traced)
        grid = scan_surface(corners, 3, arch, ds, "mse")
        assert threads == [threading.get_ident()] * 9
        monkeypatch.undo()
        assert np.array_equal(grid.values, scan_surface(corners, 3, arch, ds, "mse").values)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("layer", [0, 1])  # the layer-1 pre-activation, the weights
    def test_callers_numpy_error_handling_holds_on_every_thread(self, monkeypatch,
                                                                small_setup, workers, layer):
        # inf and -inf in two corners' weights: inf - inf and 0 * inf in the interpolation
        arch, corners, ds = small_setup
        broken = [[w.copy() for w in c] for c in corners]
        broken[0][layer][0, 0] = np.inf
        broken[1][layer][0, 0] = -np.inf
        monkeypatch.setattr(core, "blas_free_threads", lambda: workers)
        with np.errstate(invalid="ignore", over="ignore"):
            grid = scan_surface(broken, 3, arch, ds, "mse")
        assert grid.has_failures
        with pytest.raises(FloatingPointError):
            with np.errstate(invalid="raise"):
                scan_surface(broken, 3, arch, ds, "mse")

    def test_error_in_a_row_is_raised(self, monkeypatch, small_setup):
        arch, corners, ds = small_setup
        monkeypatch.setattr(core, "blas_free_threads", lambda: 2)
        with pytest.raises(ValueError, match="metric"):
            scan_surface(corners, 3, arch, ds, "accuracy")


class TestSurfaceCsv:
    def test_long_format_output(self, tmp_path, small_setup):
        arch, corners, ds = small_setup
        grid = scan_surface(corners, 3, arch, ds)
        path = tmp_path / "surface.csv"
        write_surface_csv(path, grid)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,error"
        assert len(lines) == 1 + 9
        alpha, beta, error = lines[1].split(",")
        assert float(alpha) == 0.0 and float(beta) == 0.0
        assert np.isfinite(float(error))
