import numpy as np
import pytest

from rsgdlab import network as net
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
        # 1-1 sigmoid net without bias: error has a hand-computable scalar form
        arch = net.Architecture([1, 1], use_bias=False)
        corners = [[np.array([[w]])] for w in (2.0, -1.0, 0.5, 3.0)]
        v, target = 0.8, 0.3
        ds = LabeledDataset(inputs=np.array([[v]]), targets=np.array([[target]]))
        grid = scan_surface(corners, 5, arch, ds, "mse")
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                w = beta * (alpha * 2.0 + (1 - alpha) * -1.0) \
                    + (1 - beta) * (alpha * 0.5 + (1 - alpha) * 3.0)
                y = 1.0 / (1.0 + np.exp(-w * v))
                assert grid.values[i, j] == pytest.approx(0.5 * (target - y) ** 2, rel=1e-12)

    @pytest.mark.parametrize("use_bias", [True, False])
    def test_points_match_evaluate_of_interpolated_weights(self, use_bias):
        # 2500 examples: evaluate's forward passes run in two chunks
        arch = net.Architecture([3, 4, 2], use_bias=use_bias)
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

    @pytest.mark.parametrize("use_bias", [True, False])
    def test_points_equal_evaluate_of_interpolated_layer1(self, use_bias):
        arch = net.Architecture([5, 6, 4, 3], use_bias=use_bias)
        corners = random_corners(arch, seed=7)
        rng = np.random.default_rng(2)
        ds = LabeledDataset(inputs=rng.standard_normal((2500, 5)),
                            targets=rng.random((2500, 3)))
        products = [[net.preactivation(c[0], ds.inputs.T, use_bias)] for c in corners]
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

    def test_lattice_includes_endpoints(self, small_setup):
        arch, corners, ds = small_setup
        grid = scan_surface(corners, 5, arch, ds)
        assert grid.alphas[0] == 0.0 and grid.alphas[-1] == 1.0
        assert grid.betas[0] == 0.0 and grid.betas[-1] == 1.0


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
