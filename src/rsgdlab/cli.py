"""Command-line interface.

Subcommands: gen-data, train, suite, eval, scan-surface, analyze-memory, each
with only the options it reads.  Each option is declared once, in OPTIONS, and
COMMANDS names the ones each subcommand reads and needs.  A key=value config
file (--config) becomes flags ahead of the command line's own, so its values
pass the same checks and explicit flags override them.  Resolved options go to
stderr; stdout carries only data (CSV or a single number).

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext

import numpy as np

from . import data as data_mod
from . import network as net
from . import optim
from . import surface as surface_mod
from .core import RngStream
from .experiment import (OPTIMIZERS, DivergenceError, TrainConfig, evaluate, run_suite, train,
                         write_aggregate_csv, write_csv, write_metrics_csv)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def momentum(value: str) -> float | str:
    """A --rho value: a number, or 'adaptive' for rho_t = gamma(t)."""
    return value if value == "adaptive" else float(value)


def name(value: str) -> str:
    """A choice value; '-' and '_' are interchangeable."""
    return value.replace("-", "_")


def widths(value: str) -> tuple[int, ...]:
    """An --arch value: layer widths joined by '-'."""
    return tuple(int(w) for w in value.split("-"))


def _entries(value: str) -> tuple[str, ...]:
    """The comma-separated entries of ``value``, stripped; an empty one is refused."""
    entries = tuple(e.strip() for e in value.split(","))
    if "" in entries:
        raise argparse.ArgumentTypeError(f"entry {entries.index('') + 1} of {value!r} is empty")
    return entries


def epoch_list(value: str) -> tuple[int, ...]:
    """A --checkpoint-epochs value: distinct comma-separated epochs; an empty value lists none."""
    return _distinct(tuple(map(int, _entries(value))), value) if value.strip() else ()


def checkpoint_paths(value: str) -> tuple[str, ...]:
    """A scan-surface --checkpoints value: 4 comma-separated checkpoint paths."""
    paths = _entries(value)
    if len(paths) != 4:
        raise argparse.ArgumentTypeError(f"needs exactly 4 paths, got {len(paths)}")
    return paths


def optimizer_list(value: str) -> tuple[str, ...]:
    """A suite --optimizers value: distinct optimizer names joined by ','."""
    names = tuple(name(entry.strip()) for entry in value.split(","))
    for i, entry in enumerate(names):
        if entry not in OPTIMIZERS:
            raise argparse.ArgumentTypeError(
                f"entry {i + 1} of {value!r} is {entry!r}, not one of {', '.join(OPTIMIZERS)}")
    return _distinct(names, value)


def _distinct(entries: tuple, value: str) -> tuple:
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise argparse.ArgumentTypeError(f"'{entry}' is listed twice in {value!r}")
    return entries


def at_least(low: int):
    """The argparse type of an integer count that must be >= ``low``."""
    def count(value: str) -> int:
        if int(value) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return int(value)
    return count


def even_count(value: str) -> int:
    """A gen-data --count: an even number >= 2, split in half into train and test."""
    count = at_least(2)(value)
    if count % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {value}")
    return count


# key -> (default, argparse keywords); the flag is the key with '-' for '_'.
OPTIONS = {
    "seed": (0, {"type": at_least(0)}),
    "optimizer": (None, {"type": name, "choices": OPTIMIZERS, "help": "default rsgd"}),
    "schedule": ("exp_gamma", {"type": name, "choices": ["exp_gamma", "power_law"]}),
    "gamma0": (0.9995, {"type": float}),
    "lambda": (0.0001, {"type": float}),
    "a0": (1.0, {"type": float}),
    "b0": (0.5, {"type": float}),
    "rho": (None, {"type": momentum, "help": "momentum parameter (a number, or 'adaptive')"}),
    "eta0": (None, {"type": float, "help": "default 0.01 for adam, else 0.8"}),
    "beta": (0.999, {"type": float}),
    "eta_floor": (None, {"type": float, "help": "default 0.001 for adam, else 0.02"}),
    "batch": (100, {"type": at_least(1)}),
    "epochs": (100, {"type": int}),
    "train_count": (None, {"type": at_least(1), "help": "default: the file's count, else 1000"}),
    "test_count": (None, {"type": at_least(1), "help": "default: the file's count, else 1000"}),
    "arch": ((100, 400, 200, 10), {"type": widths, "help": "layer widths, e.g. 100-400-200-10"}),
    "activation": ("sigmoid", {"type": name, "choices": net.HIDDEN_ACTIVATIONS}),
    "loss": ("quadratic", {"type": name, "choices": net.LOSSES}),
    "metric": ("mse", {"type": name, "choices": ["mse", "classification"]}),
    "checkpoint_epochs": ((), {"type": epoch_list, "help": "comma-separated epoch list"}),
    "mnist_images": (None, {}),
    "mnist_labels": (None, {}),
    "data_train": (None, {}),
    "data_test": (None, {}),
    "out": (None, {}),
    "n_in": (None, {"type": at_least(1)}),
    "n_out": (None, {"type": at_least(1)}),
    "count": (None, {"type": even_count, "help": "total examples (half train, half test)"}),
    "optimizers": (None, {"type": optimizer_list, "help": "comma-separated optimizer list"}),
    "runs": (5, {"type": at_least(1)}),
    "checkpoint": (None, {}),
    "checkpoints": (None, {"type": checkpoint_paths, "help": "4 comma-separated checkpoint paths"}),
    "resolution": (41, {"type": at_least(2)}),
    "t": (None, {"type": at_least(0), "help": "step at which to evaluate the distribution"}),
    "simulate": (0, {"type": at_least(0),
                     "help": "also simulate this many coin-process runs and report TV distance"}),
}


def _config_flags(path, keys) -> list[str]:
    """The --config file as flags; keys that only other subcommands read are dropped.

    ``#`` starts a comment at a line's start or after whitespace: ``out = run#1`` keeps it.
    """
    values = {}  # key -> (line number, value)
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key = value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in OPTIONS:
                raise UsageError(f"unknown config key {key!r}")
            if key in values:
                raise UsageError(f"{path}:{line_no}: config key {key!r} set again "
                                 f"(first set on line {values[key][0]})")
            values[key] = line_no, value
    return [f"--{key.replace('_', '-')}={value}" for key, (_, value) in values.items()
            if key in keys]


def _prepare(command, opts, build):
    """Build what ``command`` runs (a ValueError is a usage error), then print its options."""
    try:
        built = build(opts) if build else None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # unset keys are left out and lists show as their flags take them: each line reads back
    shown = {key: ("-" if key == "arch" else ",").join(map(str, v)) if isinstance(v, tuple) else v
             for key, v in opts.items() if v is not None}
    print(f"# resolved configuration ({command})",
          *(f"# {key} = {shown[key]}" for key in sorted(shown)), sep="\n", file=sys.stderr)
    return built


def _metric(opts) -> str:
    return "classification_error" if opts["metric"] == "classification" else opts["metric"]


def _build_schedule(opts) -> optim.Schedule:
    if opts["schedule"] == "power_law":
        return optim.PowerLawSchedule(a0=opts["a0"], b0=opts["b0"])
    # analyze-memory does not read lambda: it works within epoch 0, where lambda has no effect
    return optim.ExpGammaSchedule(gamma0=opts["gamma0"], lam=opts.get("lambda", 0.0))


def _dataset_source(opts) -> tuple:
    if opts["mnist_images"] or opts["mnist_labels"]:
        if opts["data_train"] or opts["data_test"]:
            raise UsageError("two data sources: give --mnist-images/--mnist-labels "
                             "or --data-train/--data-test, not both")
        if not (opts["mnist_images"] and opts["mnist_labels"]):
            raise UsageError("--mnist-images and --mnist-labels go together")
        return ("mnist", opts["mnist_images"], opts["mnist_labels"])
    if opts["data_train"] or opts["data_test"]:
        if not (opts["data_train"] and opts["data_test"]):
            raise UsageError("--data-train and --data-test go together")
        return ("files", opts["data_train"], opts["data_test"])
    return ("teacher",)


def _build_train_config(opts) -> TrainConfig:
    """The run ``opts`` describe; the step sizes and counts it resolves go back into ``opts``."""
    if opts.get("checkpoint_epochs") and not opts["out"]:
        raise UsageError("--checkpoint-epochs needs --out, the directory the checkpoints go to")
    config = TrainConfig(
        architecture=net.Architecture(list(opts["arch"]), opts["activation"], loss=opts["loss"]),
        optimizer=opts["optimizer"] or "rsgd", schedule=_build_schedule(opts), rho=opts["rho"],
        eta0=opts["eta0"], beta=opts["beta"], eta_floor=opts["eta_floor"],
        batch_size=opts["batch"], epochs=opts["epochs"],
        train_count=opts["train_count"], test_count=opts["test_count"],
        seed=opts["seed"], dataset_source=_dataset_source(opts),
        checkpoint_epochs=opts.get("checkpoint_epochs", ()), metric=_metric(opts))
    opts.update((key, getattr(config, key))
                for key in ("optimizer", "eta0", "eta_floor", "train_count", "test_count"))
    return config


def _build_suite_configs(opts) -> dict[str, TrainConfig]:
    if opts["optimizers"] and opts["optimizer"]:
        raise UsageError("two optimizer choices: give --optimizer or --optimizers, not both")
    if opts["optimizers"]:
        return {name: _build_train_config(dict(opts, optimizer=name))
                for name in opts["optimizers"]}
    config = _build_train_config(opts)  # one optimizer: resolved and echoed as train's are
    return {config.optimizer: config}


# gen-data, train and suite make their --out directory before they work, so a bad path
# costs no run; a run that then fails leaves it empty
def _cmd_gen_data(opts, _) -> int:
    os.makedirs(opts["out"], exist_ok=True)
    full = data_mod.generate_teacher_dataset(
        opts["n_in"], opts["n_out"], opts["count"], RngStream(opts["seed"], "data-gen"))
    half = opts["count"] // 2
    train_set, test_set = full.take(slice(half)), full.take(slice(half, None))
    data_mod.save_dataset(os.path.join(opts["out"], "train.bin"), train_set)
    data_mod.save_dataset(os.path.join(opts["out"], "test.bin"), test_set)
    print(f"# wrote {opts['out']}/train.bin ({len(train_set)} examples) and "
          f"{opts['out']}/test.bin ({len(test_set)} examples)", file=sys.stderr)
    return 0


def _cmd_train(opts, config) -> int:
    if opts["out"]:
        os.makedirs(opts["out"], exist_ok=True)
    result = train(config)
    if opts["out"]:
        write_metrics_csv(os.path.join(opts["out"], "metrics.csv"), result.history)
        net.save_checkpoint(os.path.join(opts["out"], "final.ckpt"),
                            config.architecture, result.params)
        for epoch, params in result.checkpoints.items():
            net.save_checkpoint(os.path.join(opts["out"], f"epoch_{epoch:04d}.ckpt"),
                                config.architecture, params)
    else:
        write_metrics_csv(sys.stdout, result.history)
    print(f"# final test error: {result.final_test_error}", file=sys.stderr)
    return 0


def _cmd_suite(opts, configs) -> int:
    if opts["out"]:
        os.makedirs(opts["out"], exist_ok=True)
    rows = run_suite(configs, n_runs=opts["runs"])
    write_aggregate_csv(os.path.join(opts["out"], "aggregate.csv") if opts["out"] else sys.stdout,
                        rows)
    return 0


def _load_eval_dataset(opts):
    """The set eval and scan-surface score on; --data-train is accepted but unread."""
    if opts["mnist_images"] or opts["mnist_labels"]:
        return data_mod.load_mnist_idx(*_dataset_source(opts)[1:])
    if opts["data_test"]:
        return data_mod.load_dataset(opts["data_test"])
    raise UsageError("eval and scan-surface need --data-test or --mnist-images/--mnist-labels")


def _cmd_eval(opts, _) -> int:
    arch, params = net.load_checkpoint(opts["checkpoint"])
    error = evaluate(params, arch, _load_eval_dataset(opts), _metric(opts))
    print(error)
    if not np.isfinite(error):
        print("# warning: the error is not finite", file=sys.stderr)
        return 2
    return 0


def _cmd_scan_surface(opts, _) -> int:
    # --out is opened before anything is loaded, so a bad path costs no scan
    with open(opts["out"], "w", newline="") if opts["out"] else nullcontext(sys.stdout) as out:
        paths = opts["checkpoints"]
        loaded = [net.load_checkpoint(p) for p in paths]
        arch = loaded[0][0]
        for path, (other, _) in zip(paths, loaded):
            if other != arch:
                raise ValueError(f"{path}: {other} differs from {paths[0]}'s {arch}")
        grid = surface_mod.scan_surface([params for _, params in loaded], opts["resolution"],
                                        arch, _load_eval_dataset(opts), _metric(opts))
        surface_mod.write_surface_csv(out, grid)
    if grid.has_failures:
        print("# warning: some grid points failed to evaluate (NaN markers)", file=sys.stderr)
        return 2
    return 0


def _cmd_analyze_memory(opts, schedule) -> int:
    pmf = optim.memory_length_pmf(schedule, opts["t"])
    write_csv(opts["out"] or sys.stdout, ["length", "probability"],
              ([length, repr(float(prob))] for length, prob in enumerate(pmf)))
    if opts["simulate"]:
        empirical = optim.simulate_memory_length(schedule, opts["t"], opts["simulate"],
                                                 RngStream(opts["seed"], "reinforcement"))
        tv = 0.5 * float(np.abs(empirical - pmf).sum())
        expected = optim.expected_tv(pmf, opts["simulate"])
        ratio = tv / expected if expected else float("nan")
        print(f"# simulated {opts['simulate']} runs: total-variation distance {tv:.5f} "
              f"(expected {expected:.5f} from sampling noise, ratio {ratio:.2f})",
              file=sys.stderr)
    return 0


DATA_KEYS = ["metric", "mnist_images", "mnist_labels", "data_train", "data_test"]
TRAIN_KEYS = ("seed optimizer schedule gamma0 lambda a0 b0 rho eta0 beta eta_floor batch epochs "
              "train_count test_count arch activation loss metric checkpoint_epochs "
              "mnist_images mnist_labels data_train data_test out").split()

# subcommand -> (help, handler, builder of what it runs, the keys it reads in flag order,
# the keys it needs); a needed key may come from --config, so argparse does not check it
COMMANDS = {
    "gen-data": ("generate a teacher-network dataset", _cmd_gen_data, None,
                 ["n_in", "n_out", "count", "seed", "out"], ["n_in", "n_out", "count", "out"]),
    "train": ("run one training experiment", _cmd_train, _build_train_config, TRAIN_KEYS, []),
    # a suite writes no checkpoints
    "suite": ("multi-seed aggregation across optimizers", _cmd_suite, _build_suite_configs,
              [k for k in TRAIN_KEYS if k != "checkpoint_epochs"] + ["optimizers", "runs"], []),
    "eval": ("evaluate a checkpoint on a dataset", _cmd_eval, None,
             DATA_KEYS + ["checkpoint"], ["checkpoint"]),
    "scan-surface": ("bilinear-interpolation error surface scan", _cmd_scan_surface, None,
                     DATA_KEYS + ["out", "checkpoints", "resolution"], ["checkpoints"]),
    "analyze-memory": ("memory-length distribution of the reinforced rule", _cmd_analyze_memory,
                       _build_schedule, ["seed", "schedule", "gamma0", "a0", "b0", "out", "t",
                                         "simulate"], ["t"]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rsgd-lab",
                     description="Train feedforward networks with reinforced SGD and baselines")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _, keys, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for key in keys:
            default, kwargs = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=default, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _, run, build, keys, needed = COMMANDS[args.command]
        if args.config:
            # argv[0] is the subcommand; its own flags come last and so win
            args = parser.parse_args(argv[:1] + _config_flags(args.config, keys) + argv[1:])
        opts = {key: getattr(args, key) for key in keys}
        missing = ["--" + key.replace("_", "-") for key in needed if opts[key] is None]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        # a non-finite result is reported by the subcommand itself, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(opts, _prepare(args.command, opts, build))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
