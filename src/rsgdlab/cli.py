"""Command-line interface.

Subcommands: gen-data, train, suite, eval, scan-surface, analyze-memory, each
with only the options it reads.  A key=value config file (--config) becomes
flags ahead of the command line's own, so its values pass the same checks and
explicit flags override them.  Resolved options go to stderr; stdout carries
only data (CSV or a single number).

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def epoch_list(value: str) -> tuple[int, ...]:
    """A --checkpoint-epochs value: comma-separated epochs."""
    return tuple(int(e) for e in value.split(",") if e != "")


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
    "optimizer": ("rsgd", {"type": name, "choices": OPTIMIZERS}),
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
}

# The options each subcommand reads (train reads them all; suite writes no checkpoints).
SUITE_KEYS = tuple(key for key in OPTIONS if key != "checkpoint_epochs")
EVAL_KEYS = ("metric", "mnist_images", "mnist_labels", "data_train", "data_test")
SCAN_KEYS = EVAL_KEYS + ("out",)
MEMORY_KEYS = ("seed", "schedule", "gamma0", "a0", "b0", "out")


def _add_options(p: _Parser, keys):
    p.add_argument("--config", help="key=value config file")
    for key in keys:
        default, kwargs = OPTIONS[key]
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=default, **kwargs)
    p.set_defaults(keys=tuple(keys))


def _config_flags(path, keys) -> list[str]:
    """The --config file as flags; keys that only other subcommands read are dropped."""
    flags = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key = value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in OPTIONS:
                raise UsageError(f"unknown config key {key!r}")
            if key in keys:
                flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _prepare(args, build=None):
    """Build what a subcommand runs (a ValueError is a usage error), then print its options."""
    opts = {key: getattr(args, key) for key in args.keys}
    try:
        built = build(opts) if build else None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"# resolved configuration ({args.command})",
          *(f"# {key} = {opts[key]}" for key in sorted(opts)), sep="\n", file=sys.stderr)
    return opts, built


def _metric(opts) -> str:
    return "classification_error" if opts["metric"] == "classification" else opts["metric"]


def _build_schedule(opts) -> optim.Schedule:
    if opts["schedule"] == "power_law":
        return optim.PowerLawSchedule(a0=opts["a0"], b0=opts["b0"])
    # analyze-memory does not read lambda: it works within epoch 0, where lambda has no effect
    return optim.ExpGammaSchedule(gamma0=opts["gamma0"], lam=opts.get("lambda", 0.0))


def _dataset_source(opts) -> tuple:
    if opts["mnist_images"] or opts["mnist_labels"]:
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
    optimizer = opts["optimizer"]
    uses_schedule = optimizer == "rsgd" or opts["rho"] == "adaptive"
    config = TrainConfig(
        architecture=net.Architecture(list(opts["arch"]), opts["activation"], loss=opts["loss"]),
        optimizer=optimizer,
        schedule=_build_schedule(opts) if uses_schedule else None,
        rho=opts["rho"] if optimizer in ("sgdm", "nag") else None,
        eta0=opts["eta0"], beta=opts["beta"], eta_floor=opts["eta_floor"],
        batch_size=opts["batch"], epochs=opts["epochs"],
        train_count=opts["train_count"], test_count=opts["test_count"],
        seed=opts["seed"], dataset_source=_dataset_source(opts),
        checkpoint_epochs=opts.get("checkpoint_epochs", ()), metric=_metric(opts))
    opts.update((key, getattr(config, key))
                for key in ("eta0", "eta_floor", "train_count", "test_count"))
    return config


def _cmd_gen_data(args) -> int:
    train_set, test_set = data_mod.generate_teacher_dataset(
        args.n_in, args.n_out, args.count, RngStream(args.seed, "data-gen"))
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_dataset(os.path.join(args.out, "train.bin"), train_set)
    data_mod.save_dataset(os.path.join(args.out, "test.bin"), test_set)
    print(f"# wrote {args.out}/train.bin ({len(train_set)} examples) and "
          f"{args.out}/test.bin ({len(test_set)} examples)", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    if args.checkpoint_epochs and not args.out:
        raise UsageError("--checkpoint-epochs needs --out, the directory the checkpoints go to")
    opts, config = _prepare(args, _build_train_config)
    result = train(config)
    if opts["out"]:
        os.makedirs(opts["out"], exist_ok=True)
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


def _cmd_suite(args) -> int:
    optimizers = [o.strip() for o in args.optimizers.split(",")] if args.optimizers else None
    opts, configs = _prepare(args, lambda o: {name: _build_train_config(dict(o, optimizer=name))
                                              for name in optimizers or [o["optimizer"]]})
    rows = run_suite(configs, n_runs=args.runs, jobs=args.jobs)
    if opts["out"]:
        os.makedirs(opts["out"], exist_ok=True)
        write_aggregate_csv(os.path.join(opts["out"], "aggregate.csv"), rows)
    else:
        write_aggregate_csv(sys.stdout, rows)
    return 0


def _load_eval_dataset(opts):
    """The set eval and scan-surface score on; --data-train is accepted but unread."""
    if opts["mnist_images"] or opts["mnist_labels"]:
        return data_mod.load_mnist_idx(*_dataset_source(opts)[1:])
    if opts["data_test"]:
        return data_mod.load_dataset(opts["data_test"])
    raise UsageError("eval and scan-surface need --data-test or --mnist-images/--mnist-labels")


def _cmd_eval(args) -> int:
    opts, _ = _prepare(args)
    arch, params = net.load_checkpoint(args.checkpoint)
    error = evaluate(params, arch, _load_eval_dataset(opts), _metric(opts))
    print(error)
    if not np.isfinite(error):
        print("# warning: the error is not finite", file=sys.stderr)
        return 2
    return 0


def _cmd_scan_surface(args) -> int:
    opts, _ = _prepare(args)
    paths = args.checkpoints.split(",")
    if len(paths) != 4:
        raise UsageError(f"--checkpoints needs exactly 4 paths, got {len(paths)}")
    loaded = [net.load_checkpoint(p) for p in paths]
    arch = loaded[0][0]
    for path, (other, _) in zip(paths, loaded):
        if other != arch:
            raise ValueError(f"{path}: {other} differs from {paths[0]}'s {arch}")
    grid = surface_mod.scan_surface([params for _, params in loaded], args.resolution,
                                    arch, _load_eval_dataset(opts), _metric(opts))
    surface_mod.write_surface_csv(opts["out"] or sys.stdout, grid)
    if grid.has_failures:
        print("# warning: some grid points failed to evaluate (NaN markers)", file=sys.stderr)
        return 2
    return 0


def _cmd_analyze_memory(args) -> int:
    opts, schedule = _prepare(args, _build_schedule)
    pmf = optim.memory_length_pmf(schedule, args.t)
    write_csv(opts["out"] or sys.stdout, ["length", "probability"],
              ([length, repr(float(prob))] for length, prob in enumerate(pmf)))
    if args.simulate:
        empirical = optim.simulate_memory_length(schedule, args.t, args.simulate,
                                                 RngStream(opts["seed"], "reinforcement"))
        tv = 0.5 * float(np.abs(empirical - pmf).sum())
        expected = optim.expected_tv(pmf, args.simulate)
        ratio = tv / expected if expected else float("nan")
        print(f"# simulated {args.simulate} runs: total-variation distance {tv:.5f} "
              f"(expected {expected:.5f} from sampling noise, ratio {ratio:.2f})",
              file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rsgd-lab",
                     description="Train feedforward networks with reinforced SGD and baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a teacher-network dataset")
    p.add_argument("--n-in", type=at_least(1), required=True)
    p.add_argument("--n-out", type=at_least(1), required=True)
    p.add_argument("--count", type=even_count, required=True,
                   help="total examples (half train, half test)")
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run one training experiment")
    _add_options(p, OPTIONS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("suite", help="multi-seed aggregation across optimizers")
    _add_options(p, SUITE_KEYS)
    p.add_argument("--optimizers", help="comma-separated optimizer list")
    p.add_argument("--runs", type=at_least(1), default=5)
    p.add_argument("--jobs", type=at_least(1), default=1)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_options(p, EVAL_KEYS)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scan-surface", help="bilinear-interpolation error surface scan")
    _add_options(p, SCAN_KEYS)
    p.add_argument("--checkpoints", required=True, help="4 comma-separated checkpoint paths")
    p.add_argument("--resolution", type=at_least(2), default=41)
    p.set_defaults(func=_cmd_scan_surface)

    p = sub.add_parser("analyze-memory", help="memory-length distribution of the reinforced rule")
    _add_options(p, MEMORY_KEYS)
    p.add_argument("--t", type=at_least(0), required=True,
                   help="step at which to evaluate the distribution")
    p.add_argument("--simulate", type=at_least(0), default=0,
                   help="also simulate this many coin-process runs and report TV distance")
    p.set_defaults(func=_cmd_analyze_memory)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # argv[0] is the subcommand; its own flags come last and so win
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args.keys) + argv[1:])
        # a non-finite result is reported by the subcommand itself, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
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
