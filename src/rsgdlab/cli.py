"""Command-line interface.

Subcommands: gen-data, train, suite, eval, scan-surface, analyze-memory.
Each takes only the options it reads.  Options can come from a key=value
config file (--config) and are overridden by explicit flags.  Every run
prints its resolved options to stderr before executing; stdout carries only
data (CSV or a single number).

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
from .experiment import (DivergenceError, TrainConfig, _open_csv, evaluate, run_suite,
                         train, write_aggregate_csv, write_metrics_csv)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def momentum(value: str) -> float | str:
    """A --rho value: a number, or 'adaptive' for rho_t = gamma(t)."""
    return value if value == "adaptive" else float(value)


# key -> (default, argparse keywords); the flag is the key with '-' for '_'.
OPTIONS = {
    "seed": (0, {"type": int}),
    "optimizer": ("rsgd", {"choices": ["backprop", "rsgd", "sgdm", "nag", "adam"]}),
    "schedule": ("exp_gamma", {"choices": ["exp_gamma", "power_law"]}),
    "gamma0": (0.9995, {"type": float}),
    "lambda": (0.0001, {"type": float}),
    "a0": (1.0, {"type": float}),
    "b0": (0.5, {"type": float}),
    "rho": (None, {"type": momentum, "help": "momentum parameter (a number, or 'adaptive')"}),
    "eta0": (0.8, {"type": float}),
    "beta": (0.999, {"type": float}),
    "eta_floor": (0.02, {"type": float}),
    "batch": (100, {"type": int}),
    "epochs": (100, {"type": int}),
    "train_count": (1000, {"type": int}),
    "test_count": (1000, {"type": int}),
    "arch": ("100-400-200-10", {"help": "layer widths, e.g. 100-400-200-10"}),
    "activation": ("sigmoid", {"choices": ["sigmoid", "relu"]}),
    "loss": ("quadratic", {"choices": ["quadratic", "cross-entropy"]}),
    "metric": ("mse", {"choices": ["mse", "classification"]}),
    "checkpoint_epochs": ("", {"help": "comma-separated epoch list"}),
    "mnist_images": (None, {}),
    "mnist_labels": (None, {}),
    "data_train": (None, {}),
    "data_test": (None, {}),
    "out": (None, {}),
}

# The options each subcommand reads (train and suite read them all).
EVAL_KEYS = ("metric", "mnist_images", "mnist_labels", "data_train", "data_test")
SCAN_KEYS = EVAL_KEYS + ("out",)
MEMORY_KEYS = ("seed", "schedule", "gamma0", "lambda", "a0", "b0", "out")

ADAM_ETA0 = 0.01
ADAM_FLOOR = 0.001


def _add_options(p: _Parser, keys):
    p.add_argument("--config", help="key=value config file")
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, **OPTIONS[key][1])


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key = value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _coerce(key, value: str):
    try:
        return OPTIONS[key][1].get("type", str)(value)
    except ValueError:
        raise ValueError(f"bad {key} value {value!r}") from None


def _prepare(args, keys, build=None):
    """Resolve a subcommand's options and build what it runs from them.

    Flags override the --config file, which overrides the defaults; the file
    may carry keys that other subcommands read.  This is the one place where
    a bad option value, a ValueError from a conversion or a constructor,
    becomes a usage error.
    """
    try:
        opts = {key: OPTIONS[key][0] for key in keys}
        if args.config:
            for key, value in _read_config_file(args.config).items():
                if key not in OPTIONS:
                    raise UsageError(f"unknown config key {key!r}")
                if key in opts:
                    opts[key] = _coerce(key, value)
        for key in keys:
            if getattr(args, key) is not None:
                opts[key] = getattr(args, key)
        print(f"# resolved configuration ({args.command})", file=sys.stderr)
        for key in sorted(opts):
            print(f"# {key} = {opts[key]}", file=sys.stderr)
        return opts, build(opts) if build else None
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _metric(opts) -> str:
    return "classification_error" if opts["metric"] == "classification" else opts["metric"]


def _build_schedule(opts) -> optim.Schedule:
    if opts["schedule"] == "power_law":
        return optim.PowerLawSchedule(a0=opts["a0"], b0=opts["b0"])
    return optim.ExpGammaSchedule(gamma0=opts["gamma0"], lam=opts["lambda"])


def _parse_arch_opts(opts) -> net.Architecture:
    try:
        widths = [int(w) for w in str(opts["arch"]).split("-")]
    except ValueError:
        raise UsageError(f"bad --arch value {opts['arch']!r}")
    loss = str(opts["loss"]).replace("-", "_")
    output_activation = "softmax" if loss == "cross_entropy" else "sigmoid"
    return net.Architecture(widths=widths, hidden_activation=opts["activation"],
                            output_activation=output_activation, loss=loss)


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
    optimizer = opts["optimizer"]
    uses_schedule = optimizer == "rsgd" or opts["rho"] == "adaptive"
    eta0, floor = opts["eta0"], opts["eta_floor"]
    if optimizer == "adam" and eta0 == OPTIONS["eta0"][0]:
        eta0, floor = ADAM_ETA0, ADAM_FLOOR  # paper's Adam step sizes unless overridden
    ckpt = tuple(int(e) for e in opts["checkpoint_epochs"].split(",") if e != "")
    return TrainConfig(
        architecture=_parse_arch_opts(opts), optimizer=optimizer,
        schedule=_build_schedule(opts) if uses_schedule else None,
        rho=opts["rho"] if optimizer in ("sgdm", "nag") else None,
        eta0=eta0, beta=opts["beta"], eta_floor=floor,
        batch_size=opts["batch"], epochs=opts["epochs"],
        train_count=opts["train_count"], test_count=opts["test_count"],
        seed=opts["seed"], dataset_source=_dataset_source(opts),
        checkpoint_epochs=ckpt, metric=_metric(opts))


def _cmd_gen_data(args) -> int:
    rng = RngStream(args.seed, "data-gen")
    train_set, test_set = data_mod.generate_teacher_dataset(
        args.n_in, args.n_out, args.count, rng)
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_dataset(os.path.join(args.out, "train.bin"), train_set)
    data_mod.save_dataset(os.path.join(args.out, "test.bin"), test_set)
    print(f"# wrote {args.out}/train.bin ({len(train_set)} examples) and "
          f"{args.out}/test.bin ({len(test_set)} examples)", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    opts, config = _prepare(args, OPTIONS, _build_train_config)
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


def _suite_configs(opts, optimizers) -> dict[str, TrainConfig]:
    configs = {}
    for name in optimizers or [opts["optimizer"]]:
        per = dict(opts, optimizer=name)
        if name == "adam":
            per["eta0"] = OPTIONS["eta0"][0]  # let the Adam default kick in
        configs[name] = _build_train_config(per)
    return configs


def _cmd_suite(args) -> int:
    optimizers = [o.strip() for o in args.optimizers.split(",")] if args.optimizers else None
    opts, configs = _prepare(args, OPTIONS, lambda o: _suite_configs(o, optimizers))
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
    opts, _ = _prepare(args, EVAL_KEYS)
    arch, params = net.load_checkpoint(args.checkpoint)
    print(evaluate(params, arch, _load_eval_dataset(opts), _metric(opts)))
    return 0


def _cmd_scan_surface(args) -> int:
    opts, _ = _prepare(args, SCAN_KEYS)
    paths = args.checkpoints.split(",")
    if len(paths) != 4:
        raise UsageError(f"--checkpoints needs exactly 4 paths, got {len(paths)}")
    loaded = [net.load_checkpoint(p) for p in paths]
    arch = loaded[0][0]
    corners = [params for _, params in loaded]
    dataset = _load_eval_dataset(opts)
    grid = surface_mod.scan_surface(corners, args.resolution, arch, dataset, _metric(opts))
    surface_mod.write_surface_csv(opts["out"] or sys.stdout, grid)
    if grid.has_failures:
        print("# warning: some grid points failed to evaluate (NaN markers)", file=sys.stderr)
        return 2
    return 0


def _cmd_analyze_memory(args) -> int:
    opts, schedule = _prepare(args, MEMORY_KEYS, _build_schedule)
    pmf = optim.memory_length_pmf(schedule, args.t)
    with _open_csv(opts["out"] or sys.stdout) as out:
        out.write("length,probability\n")
        for length, prob in enumerate(pmf):
            out.write(f"{length},{float(prob)!r}\n")
    if args.simulate:
        rng = RngStream(opts["seed"], "reinforcement")
        empirical = optim.simulate_memory_length(schedule, args.t, args.simulate, rng)
        tv = 0.5 * float(np.abs(empirical - pmf).sum())
        print(f"# simulated {args.simulate} runs: total-variation distance {tv:.5f}",
              file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rsgd-lab",
                     description="Train feedforward networks with reinforced SGD and baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a teacher-network dataset")
    p.add_argument("--n-in", type=int, required=True)
    p.add_argument("--n-out", type=int, required=True)
    p.add_argument("--count", type=int, required=True, help="total examples (half train, half test)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run one training experiment")
    _add_options(p, OPTIONS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("suite", help="multi-seed aggregation across optimizers")
    _add_options(p, OPTIONS)
    p.add_argument("--optimizers", help="comma-separated optimizer list")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_options(p, EVAL_KEYS)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scan-surface", help="bilinear-interpolation error surface scan")
    _add_options(p, SCAN_KEYS)
    p.add_argument("--checkpoints", required=True, help="4 comma-separated checkpoint paths")
    p.add_argument("--resolution", type=int, default=41)
    p.set_defaults(func=_cmd_scan_surface)

    p = sub.add_parser("analyze-memory", help="memory-length distribution of the reinforced rule")
    _add_options(p, MEMORY_KEYS)
    p.add_argument("--t", type=int, required=True, help="step at which to evaluate the distribution")
    p.add_argument("--simulate", type=int, default=0,
                   help="also simulate this many coin-process runs and report TV distance")
    p.set_defaults(func=_cmd_analyze_memory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
