import pathlib
import re
import struct
import warnings

import numpy as np
import pytest

from conftest import write_idx_pair
from rsgdlab import cli, core, optim
from rsgdlab import network as net
from rsgdlab.cli import build_parser, main
from rsgdlab.core import RngStream
from rsgdlab.data import LabeledDataset, one_hot, save_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_files(tmp_path, targets, n_in=4):
    """--data-train and --data-test flags for two files that share ``targets``."""
    rng = np.random.default_rng(0)
    paths = [tmp_path / "train.bin", tmp_path / "test.bin"]
    for path in paths:
        save_dataset(path, LabeledDataset(rng.standard_normal((len(targets), n_in)), targets))
    return ["--data-train", str(paths[0]), "--data-test", str(paths[1])]


def one_hot_files(tmp_path):
    """data_files for TOY with one-hot targets: a distribution per row, as cross-entropy needs."""
    return data_files(tmp_path, one_hot(np.arange(50) % 3, 3))


class TestGenData:
    def test_deterministic_files(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run_cli(capsys, "gen-data", "--n-in", "10", "--n-out", "3",
                                 "--count", "40", "--seed", "7",
                                 "--out", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "a/train.bin").read_bytes() == (tmp_path / "b/train.bin").read_bytes()
        assert (tmp_path / "a/test.bin").read_bytes() == (tmp_path / "b/test.bin").read_bytes()

    def test_odd_count_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen-data", "--n-in", "2", "--n-out", "1",
                               "--count", "3", "--out", str(tmp_path / "d"))
        assert code == 1
        assert err.strip().splitlines()[-1] == "error: argument --count: must be even, got 3"
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_batch_must_divide_train_count(self, capsys):
        code, _, err = run_cli(capsys, "train", "--arch", "4-3-2", "--batch", "7",
                               "--train-count", "50", "--test-count", "50",
                               "--epochs", "1")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "train", "--no-such-flag", "1")
        assert code == 1

    def test_toy_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "train", "--arch", "4-6-3",
                               "--optimizer", "rsgd", "--schedule", "power_law",
                               "--eta0", "0.5", "--batch", "10",
                               "--train-count", "50", "--test-count", "50",
                               "--epochs", "3", "--seed", "5",
                               "--checkpoint-epochs", "0,2",
                               "--out", str(out))
        assert code == 0
        assert "# resolved configuration (train)" in err
        assert (out / "metrics.csv").exists()
        assert (out / "final.ckpt").exists()
        assert (out / "epoch_0000.ckpt").exists()
        assert (out / "epoch_0002.ckpt").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_error,test_error,eta,gamma,wall_time_s"
        assert len(lines) == 1 + 4  # epoch 0 plus 3 epochs

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_checkpoint_epochs_without_out_is_a_usage_error(self, tmp_path, capsys, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("checkpoint-epochs = 0,1\n")
        argv = ["--checkpoint-epochs", "0,1"] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "train", *TOY, *argv)
        assert code == 1
        assert err.strip().splitlines() == ["error: --checkpoint-epochs needs --out, "
                                            "the directory the checkpoints go to"]
        assert out == ""

    @pytest.mark.parametrize("optimizer", ["backprop", "adam"])
    def test_adaptive_rho_logs_no_gamma_where_the_optimizer_has_no_momentum(self, capsys,
                                                                             optimizer):
        code, out, _ = run_cli(capsys, "train", *TOY, "--optimizer", optimizer, "--rho", "adaptive")
        assert code == 0
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["0.0", "0.0"]

    def test_metrics_to_stdout_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "train", "--arch", "4-6-3",
                               "--optimizer", "backprop", "--eta0", "0.5",
                               "--batch", "25", "--train-count", "50",
                               "--test-count", "50", "--epochs", "1")
        assert code == 0
        assert out.startswith("epoch,train_error")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "arch = 4-6-3\n"
            "optimizer = backprop\n"
            "eta0 = 0.5\n"
            "batch = 25\n"
            "train-count = 50\n"
            "test-count = 50\n"
            "epochs = 2   # short run\n")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg),
                               "--epochs", "1", "--out", str(tmp_path / "o"))
        assert code == 0
        assert "# epochs = 1" in err  # flag overrides the file value

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = yes\n")
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1


class TestSuite:
    def test_aggregate_csv_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--arch", "4-6-3",
                               "--optimizers", "backprop,rsgd",
                               "--schedule", "power_law", "--eta0", "0.5",
                               "--batch", "25", "--train-count", "50",
                               "--test-count", "50", "--epochs", "1",
                               "--runs", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "config_id,metric_mean,metric_std,n_runs,n_diverged"
        assert len(lines) == 3

    def test_checkpoint_epochs_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "suite", *TOY, "--runs", "1", "--checkpoint-epochs", "0")
        assert code == 1
        assert err.strip().splitlines()[-1].startswith("error: unrecognized arguments")

    @pytest.mark.parametrize("argv, config", [
        (["--optimizer", "adam", "--optimizers", "rsgd"], ""),
        (["--optimizer", "adam"], "optimizers = rsgd,nag"),
        (["--optimizers", "rsgd"], "optimizer = adam"),
        ([], "optimizer = adam\noptimizers = rsgd"),
    ], ids=["flags", "optimizers-in-config", "optimizer-in-config", "config"])
    def test_optimizer_and_optimizers_exit_1(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config + "\n")
        code, out, err = run_cli(capsys, "suite", *TOY, "--runs", "1", *argv, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [
            "error: two optimizer choices: give --optimizer or --optimizers, not both"]

    @pytest.mark.parametrize("argv, ran", [
        ([], ["rsgd"]), (["--optimizer", "adam"], ["adam"]), (["--config", "{cfg}"], ["adam"]),
        (["--optimizers", "nag,adam", "--rho", "0.5"], ["nag", "adam"]),
    ])
    def test_runs_the_optimizers_it_echoes(self, tmp_path, capsys, monkeypatch, argv, ran):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("optimizer = adam\n")
        built = {}
        monkeypatch.setattr(cli, "run_suite", lambda configs, **_: built.update(configs) or [])
        code, _, err = run_cli(capsys, "suite", *TOY, *(a.format(cfg=cfg) for a in argv))
        assert code == 0
        assert [(name, config.optimizer) for name, config in built.items()] == list(zip(ran, ran))
        echoed = [line for line in err.splitlines() if line.startswith("# optimizer")]
        assert echoed == ([f"# optimizers = {','.join(ran)}"] if len(ran) > 1
                          else [f"# optimizer = {ran[0]}"])

    def test_checkpoint_epochs_config_key_dropped(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("checkpoint_epochs = 0,1\n")
        code, out, err = run_cli(capsys, "suite", *TOY, "--runs", "1", "--config", str(cfg))
        assert code == 0
        assert "checkpoint_epochs" not in err
        assert len(out.strip().splitlines()) == 2


class TestFileCounts:
    """With --data-train/--data-test the files set the counts; a count given must match."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        code, _, _ = run_cli(capsys, "gen-data", "--n-in", "4", "--n-out", "3",
                             "--count", "180", "--out", str(data_dir))  # 90 and 90
        assert code == 0
        return ["--arch", "4-6-3", "--epochs", "1",
                "--data-train", str(data_dir / "train.bin"),
                "--data-test", str(data_dir / "test.bin")]

    @pytest.mark.parametrize("command", [["train"], ["suite", "--runs", "1"]])
    @pytest.mark.parametrize("count, which", [(["--train-count", "50"], "train"),
                                              (["--test-count", "30"], "test")])
    def test_count_unlike_the_file_is_an_error(self, capsys, files, command, count, which):
        path = files[files.index(f"--data-{which}") + 1]
        code, out, err = run_cli(capsys, *command, *files, "--batch", "10", *count)
        assert code == 2
        assert [l for l in err.splitlines() if not l.startswith("#")] == [
            f"error: {path} holds 90 examples, but its count is {count[1]}"]
        assert out == ""

    def test_batch_is_checked_against_the_files(self, capsys, files):
        code, out, _ = run_cli(capsys, "train", *files, "--batch", "30")
        assert code == 0 and len(out.splitlines()) == 3  # header, epochs 0 and 1
        code, _, err = run_cli(capsys, "train", *files, "--batch", "40")
        assert code == 2
        assert err.splitlines()[-1] == "error: batch size 40 must divide example count 90"

    def test_matching_counts_train_as_unset_ones(self, capsys, files):
        runs = []
        for counts in ([], ["--train-count", "90", "--test-count", "90"]):
            code, out, err = run_cli(capsys, "train", *files, "--batch", "30", *counts)
            assert code == 0
            runs.append([line.rsplit(",", 1)[0] for line in out.splitlines()])  # drop wall time
        assert runs[0] == runs[1]
        assert "# train_count = 90" in err.splitlines()


class TestEvalAndSurface:
    @pytest.fixture
    def trained(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run_cli(capsys, "gen-data", "--n-in", "4", "--n-out", "3",
                "--count", "100", "--seed", "3", "--out", str(data_dir))
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--arch", "4-6-3",
                             "--optimizer", "backprop", "--eta0", "0.5",
                             "--batch", "10", "--train-count", "50",
                             "--test-count", "50", "--epochs", "4", "--seed", "3",
                             "--data-train", str(data_dir / "train.bin"),
                             "--data-test", str(data_dir / "test.bin"),
                             "--checkpoint-epochs", "0,1,2,3",
                             "--out", str(out))
        assert code == 0
        return tmp_path, data_dir, out

    def test_eval_checkpoint(self, trained, capsys):
        tmp_path, data_dir, out = trained
        code, stdout, _ = run_cli(capsys, "eval",
                                  "--checkpoint", str(out / "final.ckpt"),
                                  "--data-train", str(data_dir / "train.bin"),
                                  "--data-test", str(data_dir / "test.bin"))
        assert code == 0
        assert np.isfinite(float(stdout.strip()))

    def test_eval_reads_only_the_test_set(self, trained, capsys):
        tmp_path, data_dir, out = trained
        code, stdout, _ = run_cli(capsys, "eval",
                                  "--checkpoint", str(out / "final.ckpt"),
                                  "--data-test", str(data_dir / "test.bin"))
        assert code == 0
        assert np.isfinite(float(stdout.strip()))

    def test_eval_on_idx_header_larger_than_file_exits_2(self, trained, tmp_path, capsys):
        _, _, out = trained
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0xFFFFFFFF, 0xFFFF, 0xFFFF))
        labels.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(out / "final.ckpt"),
                               "--mnist-images", str(images), "--mnist-labels", str(labels))
        assert code == 2
        assert err.strip().splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_eval_on_idx_trailing_bytes_exits_2(self, trained, tmp_path, capsys, which):
        _, _, out = trained
        images, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        path = images if which == "images" else labels
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(out / "final.ckpt"),
                               "--mnist-images", str(images), "--mnist-labels", str(labels))
        assert code == 2
        lines = err.strip().splitlines()
        assert lines[-1].startswith("error:") and "4 unexpected bytes" in lines[-1]
        assert sum(line.startswith("error:") for line in lines) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("corrupt", ["short_checkpoint", "short_dataset", "activation_code"])
    def test_corrupt_input_file_exits_2(self, trained, capsys, corrupt):
        tmp_path, data_dir, out = trained
        ckpt, test_set = out / "final.ckpt", data_dir / "test.bin"
        bad = tmp_path / "bad"
        if corrupt == "short_checkpoint":
            bad.write_bytes(ckpt.read_bytes()[:10])
            ckpt = bad
        elif corrupt == "short_dataset":
            bad.write_bytes(test_set.read_bytes()[:14])
            test_set = bad
        else:
            data = bytearray(ckpt.read_bytes())
            data[24] = 9  # hidden activation code of a 3-layer checkpoint
            bad.write_bytes(bytes(data))
            ckpt = bad
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                               "--data-test", str(test_set))
        assert code == 2
        assert err.strip().splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize("corrupt", ["checkpoint_tail", "dataset_tail", "bias_flag"])
    def test_trailing_bytes_or_bad_bias_flag_exits_2(self, trained, capsys, corrupt):
        tmp_path, data_dir, out = trained
        ckpt, test_set = out / "final.ckpt", data_dir / "test.bin"
        bad = tmp_path / "bad"
        if corrupt == "checkpoint_tail":
            bad.write_bytes(ckpt.read_bytes() + b"\x00")
            ckpt = bad
        elif corrupt == "dataset_tail":
            bad.write_bytes(test_set.read_bytes() + b"\x00")
            test_set = bad
        else:
            data = bytearray(ckpt.read_bytes())
            data[27] ^= 0xFF  # bias flag of a 3-layer checkpoint
            bad.write_bytes(bytes(data))
            ckpt = bad
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                               "--data-test", str(test_set))
        assert code == 2
        lines = err.strip().splitlines()
        assert lines[-1].startswith("error:")
        assert sum(line.startswith("error:") for line in lines) == 1
        assert "Traceback" not in err

    def test_scan_surface_csv(self, trained, capsys):
        tmp_path, data_dir, out = trained
        ckpts = ",".join(str(out / f"epoch_{e:04d}.ckpt") for e in (0, 1, 2, 3))
        code, stdout, _ = run_cli(capsys, "scan-surface",
                                  "--checkpoints", ckpts, "--resolution", "3",
                                  "--data-train", str(data_dir / "train.bin"),
                                  "--data-test", str(data_dir / "test.bin"))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "alpha,beta,error"
        assert len(lines) == 1 + 9

    def test_scan_surface_strips_checkpoint_entries(self, trained, capsys):
        _, data_dir, out = trained
        ckpts = [str(out / f"epoch_{e:04d}.ckpt") for e in (0, 1, 2, 3)]
        outputs = [run_cli(capsys, "scan-surface", "--checkpoints", value, "--resolution", "3",
                           "--data-test", str(data_dir / "test.bin"))[:2]
                   for value in (",".join(ckpts), " " + ", ".join(ckpts) + " ")]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    @pytest.mark.parametrize("command", ["eval", "scan-surface"])
    def test_dataset_file_as_checkpoint_exits_2(self, trained, capsys, command):
        _, data_dir, out = trained
        test_set = data_dir / "test.bin"  # its magic RSGD-DS starts with a checkpoint's RSGD
        argv = (["--checkpoint", str(test_set)] if command == "eval" else
                ["--checkpoints", ",".join([str(out / "final.ckpt")] * 3 + [str(test_set)]),
                 "--resolution", "2"])
        code, stdout, err = run_cli(capsys, command, *argv, "--data-test", str(test_set))
        assert (code, stdout) == (2, "")
        TestExitCodes.assert_one_error(err)
        assert err.strip().splitlines()[-1] == (
            f"error: {test_set}: not a checkpoint file (bad magic)")

    def test_scan_surface_on_a_non_finite_corner_exits_2(self, trained, capsys):
        tmp_path, data_dir, out = trained
        arch, params = net.load_checkpoint(out / "epoch_0001.ckpt")
        params[1][0, 0] = np.nan
        net.save_checkpoint(tmp_path / "nan.ckpt", arch, params)
        ckpts = [str(out / f"epoch_{e:04d}.ckpt") for e in (0, 2, 3)] + [str(tmp_path / "nan.ckpt")]
        code, stdout, err = run_cli(capsys, "scan-surface",
                                    "--checkpoints", ",".join(ckpts), "--resolution", "3",
                                    "--data-test", str(data_dir / "test.bin"))
        assert code == 2
        assert len(stdout.strip().splitlines()) == 1 + 9
        assert err.strip().splitlines()[-1] == (
            "# warning: some grid points failed to evaluate (NaN markers)")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("layer", [0, 1])  # the layer-1 pre-activation, the weights
    def test_scan_surface_on_infinite_corners_exits_2_without_a_warning(
            self, trained, capsys, monkeypatch, layer, workers):
        # inf and -inf in two corners' weights: inf - inf and 0 * inf in the blend, on
        # the pool's threads too; a numpy warning is an error under this suite's filterwarnings
        tmp_path, data_dir, out = trained
        monkeypatch.setattr(core, "blas_free_threads", lambda: workers)
        ckpts = [out / f"epoch_{e:04d}.ckpt" for e in range(4)]
        for i, value in enumerate([np.inf, -np.inf]):
            arch, params = net.load_checkpoint(ckpts[i])
            params[layer][0, 0] = value
            ckpts[i] = tmp_path / f"{value}.ckpt"
            net.save_checkpoint(ckpts[i], arch, params)
        code, stdout, err = run_cli(capsys, "scan-surface",
                                    "--checkpoints", ",".join(map(str, ckpts)),
                                    "--resolution", "3", "--data-test", str(data_dir / "test.bin"))
        assert code == 2
        assert len(stdout.strip().splitlines()) == 1 + 9
        assert "Warning" not in err
        lines = err.strip().splitlines()
        assert lines[-1] == "# warning: some grid points failed to evaluate (NaN markers)"
        assert sum(line.startswith("# warning:") for line in lines) == 1

    def test_eval_of_infinite_weights_exits_2_without_a_warning(self, trained, capsys):
        # inf - inf in every output's pre-activation, whose inputs are sigmoid states
        tmp_path, data_dir, out = trained
        arch, params = net.load_checkpoint(out / "final.ckpt")
        params[-1][0, :2] = np.inf, -np.inf
        net.save_checkpoint(tmp_path / "inf.ckpt", arch, params)
        code, stdout, err = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "inf.ckpt"),
                                    "--data-test", str(data_dir / "test.bin"))
        assert code == 2
        assert np.isnan(float(stdout))
        assert "Warning" not in err
        lines = err.strip().splitlines()
        assert lines[-1] == "# warning: the error is not finite"
        assert sum(line.startswith("# warning:") for line in lines) == 1

    def test_eval_classification_of_infinite_weights_exits_2(self, trained, capsys):
        # inf - inf in output 0's pre-activation: a NaN output, which argmax would predict
        tmp_path, data_dir, out = trained
        arch, params = net.load_checkpoint(out / "final.ckpt")
        params[-1][0, :2] = np.inf, -np.inf
        net.save_checkpoint(tmp_path / "inf.ckpt", arch, params)
        code, stdout, err = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "inf.ckpt"),
                                    "--data-test", str(data_dir / "test.bin"),
                                    "--metric", "classification")
        assert code == 2
        assert np.isnan(float(stdout))
        assert "Warning" not in err
        assert err.strip().splitlines()[-1] == "# warning: the error is not finite"

    def test_scan_surface_classification_on_an_infinite_corner_exits_2(self, trained, capsys):
        tmp_path, data_dir, out = trained
        arch, params = net.load_checkpoint(out / "epoch_0003.ckpt")
        params[-1][0, :2] = np.inf, -np.inf
        net.save_checkpoint(tmp_path / "inf.ckpt", arch, params)
        ckpts = [str(out / f"epoch_{e:04d}.ckpt") for e in (0, 1, 2)] + [str(tmp_path / "inf.ckpt")]
        code, stdout, err = run_cli(capsys, "scan-surface",
                                    "--checkpoints", ",".join(ckpts), "--resolution", "3",
                                    "--metric", "classification",
                                    "--data-test", str(data_dir / "test.bin"))
        assert code == 2
        errors = [float(line.split(",")[2]) for line in stdout.strip().splitlines()[1:]]
        assert len(errors) == 9 and np.isnan(errors).any()
        assert "Warning" not in err
        assert err.strip().splitlines()[-1] == (
            "# warning: some grid points failed to evaluate (NaN markers)")

    @pytest.mark.parametrize("field, value", [("hidden_activation", "relu"),
                                              ("loss", "cross_entropy")])
    def test_scan_surface_rejects_a_different_architecture(self, trained, capsys, field, value):
        tmp_path, data_dir, out = trained
        arch, params = net.load_checkpoint(out / "epoch_0003.ckpt")
        kept = {"hidden_activation": arch.hidden_activation, "loss": arch.loss}
        other = net.Architecture(arch.widths, **{**kept, field: value})
        other_path = tmp_path / "other.ckpt"
        net.save_checkpoint(other_path, other, params)
        ckpts = [str(out / f"epoch_{e:04d}.ckpt") for e in (0, 1, 2)] + [str(other_path)]
        code, stdout, err = run_cli(capsys, "scan-surface",
                                    "--checkpoints", ",".join(ckpts), "--resolution", "3",
                                    "--data-test", str(data_dir / "test.bin"))
        assert code == 2
        assert stdout == ""
        TestExitCodes.assert_one_error(err)
        assert err.strip().splitlines()[-1].startswith(
            f"error: {other_path}: {other} differs from ")

    @pytest.mark.parametrize("n_out", [1, 5])
    @pytest.mark.parametrize("command", ["eval", "scan-surface"])
    def test_targets_unlike_the_outputs_exit_2(self, trained, capsys, command, n_out):
        tmp_path, _, out = trained
        data_dir = tmp_path / f"data-{n_out}"
        run_cli(capsys, "gen-data", "--n-in", "4", "--n-out", str(n_out),
                "--count", "20", "--out", str(data_dir))
        if command == "eval":
            argv = ["--checkpoint", str(out / "final.ckpt")]
        else:
            argv = ["--checkpoints", ",".join(str(out / f"epoch_{e:04d}.ckpt") for e in range(4)),
                    "--resolution", "3"]
        code, stdout, err = run_cli(capsys, command, *argv,
                                    "--data-test", str(data_dir / "test.bin"))
        assert code == 2
        assert stdout == ""
        TestExitCodes.assert_one_error(err)
        assert err.strip().splitlines()[-1] == (
            f"error: dataset has {n_out} target columns, architecture has 3 outputs")


class TestAnalyzeMemory:
    def test_pmf_csv_sums_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-memory", "--schedule", "power_law",
                               "--a0", "1", "--b0", "0.5", "--t", "300")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "length,probability"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert abs(total - 1.0) <= 1e-12
        assert len(lines) == 1 + 301

    def test_simulation_summary_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, "analyze-memory", "--schedule", "power_law",
                               "--a0", "1", "--b0", "0.5", "--t", "50",
                               "--simulate", "2000", "--seed", "1")
        assert code == 0
        assert "total-variation" in err

    def test_simulation_summary_gives_expected_tv_and_ratio(self, capsys):
        code, _, err = run_cli(capsys, "analyze-memory", "--schedule", "power_law",
                               "--a0", "1", "--b0", "0.5", "--t", "50",
                               "--simulate", "2000", "--seed", "1")
        assert code == 0
        line = err.strip().splitlines()[-1]
        # the TV is the first token after the label, where the benchmark reads it
        tv = float(line.rsplit("total-variation distance", 1)[1].split()[0])
        expected = optim.expected_tv(
            optim.memory_length_pmf(optim.PowerLawSchedule(1.0, 0.5), 50), 2000)
        assert line.endswith(f"{tv:.5f} (expected {expected:.5f} from sampling noise, "
                             f"ratio {tv / expected:.2f})")

    def test_zero_steps_with_simulation(self, capsys):
        code, out, err = run_cli(capsys, "analyze-memory", "--t", "0", "--simulate", "5")
        assert code == 0
        assert out == "length,probability\n0,1.0\n"
        assert "total-variation distance 0.00000" in err


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["train", "--optimizer", "sgdm", "--rho", "abc"],
        ["train", "--arch", "4-0-3"],
        ["train", "--schedule", "power_law", "--a0", "-1"],
        ["train", "--gamma0", "0"],
        ["analyze-memory", "--gamma0", "0", "--t", "5"],
        ["train", "--config", "{cfg}"],
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = abc\n")
        code, _, err = run_cli(capsys, *(a.format(cfg=cfg) for a in argv))
        assert code == 1
        assert err.strip().splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "c.ckpt", "--epochs", "3"],
        ["scan-surface", "--checkpoints", "a,b,c,d", "--optimizer", "nag"],
        ["analyze-memory", "--t", "5", "--arch", "foo"],
    ])
    def test_flag_of_another_subcommand_rejected(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 1

    def test_config_keys_of_other_subcommands_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("arch = 4-6-3\nepochs = 2\nschedule = power_law\n")
        code, _, err = run_cli(capsys, "analyze-memory", "--config", str(cfg), "--t", "5")
        assert code == 0
        keys = [line.split(" = ")[0][2:] for line in err.splitlines() if " = " in line]
        assert keys == ["a0", "b0", "gamma0", "schedule", "seed", "simulate", "t"]
        assert "# schedule = power_law" in err


def save_initial_checkpoint(path, *widths):
    """A checkpoint of the net ``widths`` at its seed-0 initial weights."""
    arch = net.Architecture(list(widths))
    net.save_checkpoint(path, arch, net.init_params(arch, RngStream(0, "weight-init")))


TOY = ["--arch", "4-6-3", "--batch", "10", "--train-count", "50", "--test-count", "50",
       "--epochs", "1"]


class TestExitCodes:
    """Each failure exits 1 (usage) or 2 (runtime) with exactly one error line."""

    @staticmethod
    def assert_one_error(err):
        lines = err.strip().splitlines()
        assert lines[-1].startswith("error:")
        assert sum(line.startswith("error:") for line in lines) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{cfg}"],
        ["train", "--mnist-images", "images"],
        ["train", "--data-train", "train.bin"],
        ["train", "--optimizer", "sgdm"],
        ["train", "--arch", "10"],  # a net of one width has no weights to train
        ["suite", "--optimizers", "rsgd,nag"],
        ["eval", "--checkpoint", "{ckpt}"],
        ["scan-surface", "--checkpoints", "a,b,c", "--data-test", "test.bin"],
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        cfg, ckpt = tmp_path / "c.cfg", tmp_path / "c.ckpt"
        cfg.write_text("epochs 3\n")
        save_initial_checkpoint(ckpt, 4, 3)
        code, _, err = run_cli(capsys, *(a.format(cfg=cfg, ckpt=ckpt) for a in argv))
        assert code == 1
        self.assert_one_error(err)

    @pytest.mark.parametrize("command, argv, work", [
        ("gen-data", ["--n-in", "2", "--n-out", "1", "--count", "4"],
         (cli.data_mod, "generate_teacher_dataset")),
        ("train", TOY, (cli, "train")),
        ("suite", [*TOY, "--runs", "1"], (cli, "run_suite")),
        # its --out is a file: opened before any checkpoint is loaded, so no point is scored
        ("scan-surface", ["--checkpoints", "a,b,c,d", "--data-test", "test.bin"],
         (cli.net, "load_checkpoint")),
    ])
    def test_out_under_a_file_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                      command, argv, work):
        def refuse(*_):
            raise AssertionError(f"{command} worked before making its --out directory")

        monkeypatch.setattr(*work, refuse)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "run"
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 2
        self.assert_one_error(err)
        assert str(out) in err.strip().splitlines()[-1]

    def test_diverging_train_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        targets = rng.random((50, 3))
        targets[0, 0] = np.nan
        paths = tmp_path / "train.bin", tmp_path / "test.bin"
        for path in paths:
            save_dataset(path, LabeledDataset(rng.random((50, 4)), targets))
        code, _, err = run_cli(capsys, "train", *TOY, "--data-train", str(paths[0]),
                               "--data-test", str(paths[1]))
        assert code == 2
        self.assert_one_error(err)
        assert "training diverged" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("case", ["teacher", "gen-data", "negative-entry"])
    def test_cross_entropy_refuses_targets_that_are_not_distributions(self, tmp_path, capsys,
                                                                       case):
        where, argv, row = "teacher data", [], 0
        if case == "gen-data":  # sigmoid targets
            run_cli(capsys, "gen-data", "--n-in", "4", "--n-out", "3", "--count", "100",
                    "--out", str(tmp_path))
            where = tmp_path / "train.bin"
            argv = ["--data-train", str(where), "--data-test", str(tmp_path / "test.bin")]
        elif case == "negative-entry":  # sums to 1, but is no distribution
            targets = one_hot(np.arange(50) % 3, 3)
            targets[7] = [1.5, -0.5, 0.0]
            argv = data_files(tmp_path, targets)
            where, row = tmp_path / "train.bin", 7
        code, out, err = run_cli(capsys, "train", *TOY, *argv, "--loss", "cross-entropy")
        assert (code, out) == (2, "")  # refused before the first step, so no metrics
        self.assert_one_error(err)
        line = err.strip().splitlines()[-1]
        assert line.startswith(f"error: {where}: loss cross_entropy needs targets that are "
                               f"distributions (entries >= 0, summing to 1 within 1e-06), "
                               f"but row {row} has minimum ")

    @pytest.mark.parametrize("targets", ["one-hot", "softmax"])
    def test_cross_entropy_trains_on_distributions(self, tmp_path, capsys, targets):
        if targets == "one-hot":
            argv = one_hot_files(tmp_path)
        else:
            argv = data_files(tmp_path, net.softmax(np.random.default_rng(1).standard_normal(
                (3, 50))).T.copy())
        code, _, err = run_cli(capsys, "train", *TOY, *argv, "--loss", "cross-entropy")
        assert code == 0, err

    @pytest.mark.parametrize("argv, name", [
        (["analyze-memory", "--schedule", "power_law", "--b0", "nan", "--t", "5"], "b0"),
        (["analyze-memory", "--schedule", "power_law", "--a0", "nan", "--t", "5"], "a0"),
        (["analyze-memory", "--schedule", "power_law", "--b0", "inf", "--t", "5"], "b0"),
        (["analyze-memory", "--gamma0", "nan", "--t", "5"], "gamma0"),
        (["train", *TOY, "--optimizer", "rsgd", "--lambda", "nan"], "lambda"),
        (["train", *TOY, "--optimizer", "rsgd", "--lambda", "inf"], "lambda"),
        (["train", *TOY, "--optimizer", "rsgd", "--schedule", "power_law", "--a0", "inf"],
         "a0"),
        (["train", *TOY, "--optimizer", "sgdm", "--rho", "5"], "rho"),
        (["train", *TOY, "--optimizer", "sgdm", "--rho", "-3"], "rho"),
        (["train", *TOY, "--optimizer", "nag", "--rho", "nan"], "rho"),
        # checked whichever optimizer runs, including one that ignores the value
        (["train", *TOY, "--optimizer", "adam", "--gamma0", "5"], "gamma0"),
        (["train", *TOY, "--optimizer", "backprop", "--rho", "7"], "rho"),
        (["train", *TOY, "--optimizer", "sgdm", "--rho", "0.5", "--schedule", "power_law",
          "--a0", "-1"], "a0"),
        (["suite", *TOY, "--optimizers", "backprop,adam", "--lambda", "-1"], "lambda"),
    ])
    def test_out_of_range_float_exits_1_naming_it(self, capsys, argv, name):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        self.assert_one_error(err)
        assert name in err.strip().splitlines()[-1]

    def test_infinite_step_size_prints_only_its_error(self, capsys):
        code, _, err = run_cli(capsys, "train", *TOY, "--eta0", "inf")
        assert code == 2
        self.assert_one_error(err)
        assert "training diverged" in err.strip().splitlines()[-1]
        assert "Warning" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "{ckpt}", "--data-test", "{empty}"],
        ["scan-surface", "--checkpoints", "{ckpt},{ckpt},{ckpt},{ckpt}", "--resolution", "2",
         "--data-test", "{empty}"],
        ["train", "--arch", "4-3", "--batch", "10", "--epochs", "1",
         "--data-train", "{empty}", "--data-test", "{full}"],
        ["train", "--arch", "4-3", "--batch", "10", "--epochs", "1",
         "--data-train", "{full}", "--data-test", "{empty}"],
    ], ids=["eval", "scan-surface", "train-set", "test-set"])
    def test_dataset_file_without_examples_exits_2(self, tmp_path, capsys, argv):
        ckpt, empty, full = tmp_path / "c.ckpt", tmp_path / "empty.bin", tmp_path / "full.bin"
        save_initial_checkpoint(ckpt, 4, 3)
        save_dataset(empty, LabeledDataset(np.zeros((0, 4)), np.zeros((0, 3))))
        save_dataset(full, LabeledDataset(np.zeros((50, 4)), np.zeros((50, 3))))
        code, _, err = run_cli(capsys, *(a.format(ckpt=ckpt, empty=empty, full=full)
                                         for a in argv))
        assert code == 2
        self.assert_one_error(err)
        assert err.strip().splitlines()[-1] == f"error: {empty}: holds no examples"

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("bad", [True, False], ids=["label-above-9", "no-images"])
    def test_idx_pair_without_images_or_with_a_label_above_9_exits_2(
            self, tmp_path, capsys, command, bad):
        digits = np.arange(20) % 10
        digits[3], digits[7] = 12, 15
        images, labels = write_idx_pair(tmp_path, np.zeros((len(digits) if bad else 0, 2, 2)),
                                        digits if bad else [])
        argv = ["--mnist-images", str(images), "--mnist-labels", str(labels)]
        if command == "train":
            argv += ["--arch", "4-10", "--batch", "5", "--train-count", "10",
                     "--test-count", "10", "--epochs", "1"]
        else:
            save_initial_checkpoint(tmp_path / "c.ckpt", 4, 10)
            argv += ["--checkpoint", str(tmp_path / "c.ckpt")]
        code, _, err = run_cli(capsys, command, *argv)
        assert code == 2
        self.assert_one_error(err)
        assert err.strip().splitlines()[-1] == (
            f"error: {labels}: label 12 at index 3 is not a digit 0-9" if bad
            else f"error: {images}: holds no images")

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def allocate(*_):
            raise MemoryError("Unable to allocate 6.71 TiB for an array")
        monkeypatch.setattr(cli, "train", allocate)
        code, _, err = run_cli(capsys, "train", *TOY)
        assert code == 2
        self.assert_one_error(err)
        assert "out of memory" in err.strip().splitlines()[-1]


class TestDataSources:
    """--mnist-images/--mnist-labels with any --data-* flag is two sources: exit 1 naming both."""

    RUN = ["--arch", "4-10", "--batch", "5", "--train-count", "10", "--test-count", "10",
           "--epochs", "1"]
    ARGV = {
        "train": RUN,
        "suite": [*RUN, "--runs", "1"],
        "eval": ["--checkpoint", "{ckpt}"],
        "scan-surface": ["--checkpoints", "{ckpt},{ckpt},{ckpt},{ckpt}", "--resolution", "2"],
    }

    @pytest.mark.parametrize("data", [["--data-train"], ["--data-test"],
                                      ["--data-train", "--data-test"]],
                             ids=["train-file", "test-file", "both-files"])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_mnist_with_a_data_file_exits_1(self, tmp_path, capsys, command, data):
        images, labels = write_idx_pair(tmp_path, np.zeros((20, 2, 2)), np.arange(20) % 10)
        flags = data_files(tmp_path, one_hot(np.arange(20) % 10, 10))
        files = dict(zip(flags[::2], flags[1::2]))
        save_initial_checkpoint(tmp_path / "c.ckpt", 4, 10)
        argv = [command, *(a.format(ckpt=tmp_path / "c.ckpt") for a in self.ARGV[command]),
                "--mnist-images", str(images), "--mnist-labels", str(labels)]
        assert run_cli(capsys, *argv)[0] == 0  # the MNIST pair alone is a working source
        code, out, err = run_cli(capsys, *argv, *(a for flag in data for a in (flag, files[flag])))
        assert (code, out) == (1, "")
        TestExitCodes.assert_one_error(err)
        assert err.strip().splitlines()[-1] == (
            "error: two data sources: give --mnist-images/--mnist-labels "
            "or --data-train/--data-test, not both")


def numeric_keys() -> dict[str, list[str]]:
    """Each subcommand's keys whose values are numbers or lists of numbers."""
    numeric = {"int", "float", "count", "even_count", "momentum", "widths", "epoch_list"}
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    return {command: [a.dest for a in sub._actions
                      if getattr(a.type, "__name__", None) in numeric]
            for command, sub in commands.choices.items()}


TINY = ["--arch", "3-4-2", "--batch", "5", "--train-count", "10", "--test-count", "10",
        "--epochs", "2"]
# a run of each subcommand on tiny data; {tmp} is the test's directory, {run} a
# directory with a tiny run's checkpoints and data
CONTRACT_RUNS = {
    "gen-data": ["--n-in", "3", "--n-out", "2", "--count", "8", "--out", "{tmp}/data"],
    "train": [*TINY, "--out", "{tmp}/run"],
    "suite": [*TINY, "--runs", "2"],
    "eval": ["--data-test", "{run}/test.bin", "--checkpoint", "{run}/final.ckpt"],
    "scan-surface": ["--data-test", "{run}/test.bin", "--resolution", "3", "--checkpoints",
                     ",".join(f"{{run}}/epoch_000{e}.ckpt" for e in range(4))],
    "analyze-memory": ["--t", "5", "--simulate", "100"],
}
TRAIN_KEYS = ["seed", "gamma0", "lambda", "a0", "b0", "rho", "eta0", "beta", "eta_floor",
              "batch", "epochs", "train_count", "test_count", "arch"]
NUMERIC_KEYS = {
    "gen-data": ["n_in", "n_out", "count", "seed"],
    "train": [*TRAIN_KEYS, "checkpoint_epochs"],
    "suite": [*TRAIN_KEYS, "runs"],
    "scan-surface": ["resolution"],
    "analyze-memory": ["seed", "gamma0", "a0", "b0", "t", "simulate"],
}
# the flags without which a command does not read the key
READ_WITH = {"a0": ["--schedule", "power_law"], "b0": ["--schedule", "power_law"],
             "rho": ["--optimizer", "sgdm"]}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A directory with a tiny run's data, checkpoints 0-3 and final.ckpt."""
    run = tmp_path_factory.mktemp("run")
    assert main(["gen-data", "--n-in", "3", "--n-out", "2", "--count", "20",
                 "--out", str(run)]) == 0
    assert main(["train", *TINY, "--epochs", "3", "--checkpoint-epochs", "0,1,2,3",
                 "--data-train", str(run / "train.bin"),
                 "--data-test", str(run / "test.bin"), "--out", str(run)]) == 0
    return run


class TestNumericContract:
    """No number a user types makes a subcommand print a traceback or a warning."""

    def test_every_numeric_key_is_in_the_table(self):
        assert numeric_keys() == {**NUMERIC_KEYS, "eval": []}  # eval reads no number

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in NUMERIC_KEYS.items() for key in keys])
    def test_exits_0_1_or_2_with_at_most_one_error_line(self, tmp_path, run, capsys,
                                                        command, key, value):
        given = f"3-{value}-2" if key == "arch" else value
        argv = [command, *(a.format(tmp=tmp_path, run=run) for a in CONTRACT_RUNS[command]),
                *READ_WITH.get(key, []), f"--{key.replace('_', '-')}={given}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning of any kind fails the case
            code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2)
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
        assert "Traceback" not in err and "Warning" not in err


# each table a subcommand writes: its run on tiny data, and its file under --out
# ("" where --out names the file itself)
TABLE_RUNS = {
    "train": (TINY, "metrics.csv"),
    "suite": ([*TINY, "--runs", "2"], "aggregate.csv"),
    "scan-surface": (CONTRACT_RUNS["scan-surface"], ""),
    "analyze-memory": (["--t", "5"], ""),
}


class TestCsvLineEnds:
    """Every table ends each of its lines in LF alone, in its file and on stdout."""

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("command", list(TABLE_RUNS))
    def test_every_line_ends_in_lf(self, tmp_path, run, capsys, command, to_file):
        argv, table = TABLE_RUNS[command]
        argv = [a.format(run=run) for a in argv]
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, command, *argv, *(["--out", str(out)] * to_file))
        assert code == 0
        text = (out / table).read_bytes().decode() if to_file else stdout
        assert len(text.splitlines()) >= 2
        assert text.endswith("\n") and "\r" not in text


class TestConfigParsing:
    """A --config value passes the same checks as the flag of the same name."""

    @pytest.mark.parametrize("argv", [
        ["--config", "{cfg}"],
        ["--schedule", "power-law"],
    ])
    def test_choice_spellings_agree(self, tmp_path, capsys, argv):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schedule = power-law\n")
        expected = run_cli(capsys, "analyze-memory", "--schedule", "power_law", "--t", "30")[1]
        code, out, err = run_cli(capsys, "analyze-memory", "--t", "30",
                                 *(a.format(cfg=cfg) for a in argv))
        assert code == 0
        assert "# schedule = power_law" in err
        assert out == expected

    @pytest.mark.parametrize("argv", [
        ["train", *TOY],
        ["suite", *TOY, "--runs", "1"],
        ["eval", "--checkpoint", "missing.ckpt", "--data-test", "missing.bin"],
    ])
    def test_misspelt_choice_in_file_is_a_usage_error(self, tmp_path, capsys, argv):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("metric = classificaton\n")
        code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert "--metric" in err.strip().splitlines()[-1]
        assert "resolved configuration" not in err

    @pytest.mark.parametrize("spelling", ["cross_entropy", "cross-entropy"])
    def test_loss_spellings_in_file(self, tmp_path, capsys, spelling):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"loss = {spelling}\nmetric = classification\n")
        code, _, err = run_cli(capsys, "train", *TOY, *one_hot_files(tmp_path),
                               "--config", str(cfg))
        assert code == 0
        assert "# loss = cross_entropy" in err

    @pytest.mark.parametrize("flag, value", [("--checkpoint-epochs", "1,x"), ("--arch", "4-x-3")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_list_value_error_names_the_flag(self, tmp_path, capsys, flag, value, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        argv = [flag, value] if source == "flag" else ["--config", str(cfg)]
        code, _, err = run_cli(capsys, "train", *argv)
        assert code == 1
        assert err.strip().splitlines()[-1].startswith(f"error: argument {flag}:")

    @pytest.mark.parametrize("value, message", [
        ("rsgd,sgd", "entry 2 of 'rsgd,sgd' is 'sgd', not one of backprop, rsgd, sgdm, nag, adam"),
        ("rsgd,rsgd,adam", "'rsgd' is listed twice in 'rsgd,rsgd,adam'"),
        ("", "entry 1 of '' is '', not one of backprop, rsgd, sgdm, nag, adam"),
        ("rsgd,", "entry 2 of 'rsgd,' is '', not one of backprop, rsgd, sgdm, nag, adam"),
    ], ids=["unknown", "repeat", "empty-list", "empty-entry"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_optimizer_list_names_the_entry(self, tmp_path, capsys, value, message, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"optimizers = {value}\n")
        argv = ["--optimizers", value] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "suite", *TOY, "--runs", "1", *argv)
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [f"error: argument --optimizers: {message}"]

    @pytest.mark.parametrize("value, message", [
        (",", "entry 1 of ',' is empty"), ("1,,1", "entry 2 of '1,,1' is empty"),
        ("0,", "entry 2 of '0,' is empty"), ("0, ,1", "entry 2 of '0, ,1' is empty"),
        ("1,1", "'1' is listed twice in '1,1'"), ("0, 2,1 ,2", "'2' is listed twice in '0, 2,1 ,2'"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_checkpoint_epoch_names_the_entry(self, tmp_path, capsys, value, message, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"checkpoint_epochs = {value}\n")
        argv = ["--checkpoint-epochs", value] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "train", *TOY, "--out", str(tmp_path / "o"), *argv)
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [f"error: argument --checkpoint-epochs: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value, message", [
        ("a,,c,d", "entry 2 of 'a,,c,d' is empty"), ("a, ,c,d", "entry 2 of 'a, ,c,d' is empty"),
        (",b,c,d", "entry 1 of ',b,c,d' is empty"), ("a,b,c,", "entry 4 of 'a,b,c,' is empty"),
        ("a,b,c", "needs exactly 4 paths, got 3"), ("a,b,c,d,e", "needs exactly 4 paths, got 5"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_checkpoints_entry_exits_1(self, tmp_path, capsys, value, message, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"checkpoints = {value}\n")
        argv = ["--checkpoints", value] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "scan-surface", "--data-test", "test.bin", *argv)
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [f"error: argument --checkpoints: {message}"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_checkpoint_epochs_value_lists_none(self, tmp_path, capsys, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("checkpoint_epochs =\n")
        argv = ["--checkpoint-epochs", ""] if source == "flag" else ["--config", str(cfg)]
        code, _, err = run_cli(capsys, "train", *TOY, "--out", str(tmp_path / "o"), *argv)
        assert code == 0
        assert "# checkpoint_epochs = " in err.splitlines()
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["final.ckpt", "metrics.csv"]

    @pytest.mark.parametrize("command, argv", [
        ("train", [*TOY, "--checkpoint-epochs", "0,1", "--optimizer", "nag", "--rho", "adaptive",
                   "--out", "{tmp}/o"]),
        ("suite", [*TOY, "--runs", "1", "--optimizers", "backprop,adam"]),
        ("analyze-memory", ["--t", "5", "--simulate", "100"]),
        ("gen-data", ["--n-in", "2", "--n-out", "1", "--count", "4", "--out", "{tmp}/run#1"]),
    ])
    def test_whole_echo_reads_back_through_config(self, tmp_path, capsys, command, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run_cli(capsys, command, *argv)
        assert code == 0
        echo = [line for line in err.splitlines() if " = " in line]
        # a value, lists included, shows as its flag took it, and an unset key not at all
        given = {f"# {flag[2:].replace('-', '_')} = {value}"
                 for flag, value in zip(argv[::2], argv[1::2])}
        assert given <= set(echo)
        assert not any(line.endswith(" = None") for line in echo)
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(line.removeprefix("# ") + "\n" for line in echo))
        code, _, again = run_cli(capsys, command, "--config", str(cfg))
        assert code == 0
        assert [line for line in again.splitlines() if " = " in line] == echo

    @pytest.mark.parametrize("line", ["out = run#1", "out = run#1  # a run with # in its name"])
    def test_hash_inside_a_value_is_kept(self, tmp_path, capsys, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(line + "\n")
        code, _, err = run_cli(capsys, "gen-data", "--n-in", "2", "--n-out", "1", "--count", "4",
                               "--config", "c.cfg")
        assert code == 0
        assert "# out = run#1" in err.splitlines()
        assert sorted(p.name for p in (tmp_path / "run#1").iterdir()) == ["test.bin", "train.bin"]

    @pytest.mark.parametrize("lines, key", [
        (["seed = 1", "epochs = 1", "seed = 2"], "seed"),
        (["eta-floor = 0.1", "# the same key", "eta_floor = 0.2"], "eta_floor"),
    ])
    def test_key_set_twice_exits_1(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "train", *TOY, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [
            f"error: {cfg}:3: config key {key!r} set again (first set on line 1)"]

    @pytest.mark.parametrize("flag, argv", [
        ("--runs", ["suite", "--runs", "0"]),
        ("--resolution", ["scan-surface", "--checkpoints", "a,b,c,d", "--resolution", "1"]),
        ("--t", ["analyze-memory", "--t", "-1"]),
        ("--simulate", ["analyze-memory", "--t", "5", "--simulate", "-5"]),
        ("--n-in", ["gen-data", "--n-in", "0", "--n-out", "1", "--count", "4", "--out", "x"]),
        ("--n-out", ["gen-data", "--n-in", "1", "--n-out", "0", "--count", "4", "--out", "x"]),
        ("--count", ["gen-data", "--n-in", "1", "--n-out", "1", "--count", "-2", "--out", "x"]),
        ("--batch", ["train", "--batch", "0"]),
        ("--train-count", ["suite", "--train-count", "0"]),
        ("--test-count", ["train", "--test-count", "0"]),
        ("--seed", ["train", "--seed", "-1"]),
        ("--seed", ["gen-data", "--n-in", "1", "--n-out", "1", "--count", "4", "--seed", "-1",
                    "--out", "x"]),
        ("--seed", ["analyze-memory", "--t", "5", "--simulate", "10", "--seed", "-1"]),
    ])
    def test_count_out_of_range_is_a_usage_error(self, capsys, flag, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.strip().splitlines()[-1].startswith(f"error: argument {flag}: must be >=")

    @pytest.mark.parametrize("command", [["train"], ["suite", "--runs", "1"]])
    @pytest.mark.parametrize("source", [["--beta", "-1"], ["--beta", "1.5"], ["--config", "{cfg}"]])
    def test_beta_out_of_range_is_a_usage_error(self, tmp_path, capsys, command, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("beta = 2\n")
        code, _, err = run_cli(capsys, *command, *TOY, *(a.format(cfg=cfg) for a in source))
        assert code == 1
        assert err.strip().splitlines()[-1].startswith("error: beta must lie in (0, 1]")
        assert "resolved configuration" not in err


class TestStepSizes:
    """An unset eta0/eta_floor takes the optimizer's default; a given one always wins."""

    @pytest.mark.parametrize("extra, eta0, eta_floor, first_eta", [
        ([], 0.01, 0.001, 0.01),
        (["--eta0", "0.8"], 0.8, 0.001, 0.8),
        (["--eta-floor", "0.5"], 0.01, 0.5, 0.5),
    ])
    def test_train_adam(self, capsys, extra, eta0, eta_floor, first_eta):
        code, out, err = run_cli(capsys, "train", "--optimizer", "adam", *TOY, *extra)
        assert code == 0
        assert f"# eta0 = {eta0}" in err.splitlines()
        assert f"# eta_floor = {eta_floor}" in err.splitlines()
        epoch0 = out.splitlines()[1].split(",")
        assert epoch0[0] == "0" and float(epoch0[3]) == first_eta

    def test_suite_adam_keeps_given_eta0(self, capsys, monkeypatch):
        built = {}
        monkeypatch.setattr(cli, "run_suite", lambda configs, **_: built.update(configs) or [])
        code, _, _ = run_cli(capsys, "suite", "--optimizers", "adam,backprop", *TOY,
                             "--eta0", "0.05")
        assert code == 0
        assert built["adam"].eta0 == 0.05 and built["backprop"].eta0 == 0.05
        assert built["adam"].eta_floor == 0.001 and built["backprop"].eta_floor == 0.02


SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices


@pytest.mark.parametrize("command, n_flags", [
    ("gen-data", 6), ("train", 26), ("suite", 27), ("eval", 7), ("scan-surface", 9),
    ("analyze-memory", 9),
])
def test_flag_count(command, n_flags):
    flags = [a for a in SUBPARSERS[command]._actions if a.dest != "help"]
    assert len(flags) == n_flags


@pytest.mark.parametrize("command", SUBPARSERS)
def test_readme_flag_table_matches_the_parser(command):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| `(--[^`]*)` \|$", readme, re.M))
    assert sorted(rows) == sorted(SUBPARSERS)  # no row for a subcommand the parser lacks
    flags = [s for a in SUBPARSERS[command]._actions if a.dest != "help" for s in a.option_strings]
    assert rows[command].split() == flags


# a value for each key a subcommand reads that its CONTRACT_RUNS entry does not pass
CONFIG_VALUES = {
    "seed": "1", "optimizer": "adam", "schedule": "power-law", "gamma0": "0.999",
    "lambda": "0.001", "a0": "2", "b0": "0.5", "rho": "0.5", "eta0": "0.5", "beta": "0.9",
    "eta_floor": "0.01", "activation": "relu", "loss": "cross-entropy",
    "metric": "classification", "checkpoint_epochs": "0,1", "optimizers": "rsgd,adam",
    "mnist_images": "{run}/images", "mnist_labels": "{run}/labels",
    "data_train": "{run}/train.bin", "data_test": "{run}/test.bin", "out": "{tmp}/out",
}
# the other half of a pair of keys, passed as a flag beside the one under test
PARTNER = {"mnist_images": "mnist_labels", "mnist_labels": "mnist_images",
           "data_train": "data_test", "data_test": "data_train"}
NEEDED = {"gen-data": ["n_in", "n_out", "count", "out"], "eval": ["checkpoint"],
          "scan-surface": ["checkpoints"], "analyze-memory": ["t"]}


def flag_of(key):
    return "--" + key.replace("_", "-")


class TestConfigCoverage:
    """A --config file may hold every key its subcommand reads, needed ones included, and
    each run echoes every key it reads."""

    @staticmethod
    def contract_run(command, tmp_path, run):
        """CONTRACT_RUNS[command] as a {flag: value} dict."""
        argv = [a.format(tmp=tmp_path, run=run) for a in CONTRACT_RUNS[command]]
        return dict(zip(argv[::2], argv[1::2]))

    @pytest.mark.parametrize("command, key", [
        (command, action.dest) for command, sub in SUBPARSERS.items() for action in sub._actions
        if action.dest not in ("help", "config")])
    def test_file_value_acts_as_the_flag(self, tmp_path, run, capsys, command, key):
        given = self.contract_run(command, tmp_path, run)
        values = {k: v.format(tmp=tmp_path, run=run) for k, v in CONFIG_VALUES.items()}
        value = given.pop(flag_of(key), None) or values[key]
        if key in PARTNER:
            given.setdefault(flag_of(PARTNER[key]), values[PARTNER[key]])
        base = [a for pair in given.items() for a in pair]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        results = []
        for source in ([f"{flag_of(key)}={value}"], ["--config", str(cfg)]):
            code, _, err = run_cli(capsys, command, *base, *source)
            results.append((code, [line for line in err.splitlines() if " = " in line]))
        assert results[0] == results[1]
        assert any(line.startswith(f"# {key} = ") for line in results[1][1])
        if key in NEEDED.get(command, []):
            assert results[1][0] == 0

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in NEEDED.items() for key in keys])
    def test_needed_key_given_nowhere_exits_1(self, tmp_path, run, capsys, command, key):
        given = self.contract_run(command, tmp_path, run)
        del given[flag_of(key)]
        code, out, err = run_cli(capsys, command, *(a for pair in given.items() for a in pair))
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [
            f"error: the following arguments are required: {flag_of(key)}"]
