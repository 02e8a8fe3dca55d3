import numpy as np
import pytest

from rsgdlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenData:
    def test_deterministic_files(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run_cli(capsys, "gen-data", "--n-in", "10", "--n-out", "3",
                                 "--count", "40", "--seed", "7",
                                 "--out", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "a/train.bin").read_bytes() == (tmp_path / "b/train.bin").read_bytes()
        assert (tmp_path / "a/test.bin").read_bytes() == (tmp_path / "b/test.bin").read_bytes()


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
        assert keys == ["a0", "b0", "gamma0", "lambda", "out", "schedule", "seed"]
        assert "# schedule = power_law" in err
