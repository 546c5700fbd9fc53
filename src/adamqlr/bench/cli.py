"""Command-line entry points for training, benchmarks, tuning and stats.

Exit codes: 0 success, 1 run divergence (any ArithmeticError) or a failed
check, 2 config or shape error (any ValueError, or a MemoryError: an array
the config sizes that cannot be allocated), 3 I/O error, 130 interrupted
(Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob as globlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .. import autodiff, models
from ..autodiff import LossKind
from ..data import Batch, check_bounds
from ..params import ParamVector
from . import config as config_mod
from .config import ConfigError
from .diagnostics import fisher_alignment
from .records import FIELDS, emit, read_records
from .rosenbrock import PRESET_NAMES, preset_optimizer, trajectory
from .search import SearchObjective, search_space_for, search_trials
from .stats import align_time_series, bootstrap_trend
from .sweeps import SWEEP_GRIDS, sweep_configs
from .training import RunStatus, run_training, start_training

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT

# mallopt(3) parameters, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def configure_malloc() -> None:
    """Keep freed array memory in this process for the next step to reuse.

    Each step's tape is freed as soon as the step ends. With glibc's
    defaults its larger arrays are mmapped and unmapped one by one, and the
    top of the heap is trimmed back to the OS, so the next step page-faults
    fresh memory again. Serving blocks up to 32 MiB from the heap and
    trimming only past 256 MiB of free space keeps that memory for reuse.
    This touches only the calling process; it is a no-op where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adamqlr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training job from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rosenbrock", help="optimize the banana-valley benchmark")
    p.add_argument("--optimizer", choices=PRESET_NAMES, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--start", default="%r,%r" % models.ROSENBROCK_START, help="comma-separated x,y")
    p.add_argument("--out", default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)

    p = sub.add_parser("tune", help="random-search hyperparameters around a config")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--objective", choices=["val", "train"], default="val")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--halving", action="store_true", help="successive-halving rungs")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="final losses over one sensitivity grid around a config")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", choices=sorted(SWEEP_GRIDS), required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bootstrap", help="bootstrapped median trend over run files")
    p.add_argument("--inputs", required=True, help="glob of metric record files")
    p.add_argument("--n-boot", type=int, default=50)
    p.add_argument("--align", choices=["step", "time"], default="step")
    p.add_argument(
        "--metric", choices=[k for k in FIELDS if k != "guard_event"], default="train_loss"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference gradient/curvature check")
    p.add_argument(
        "--model",
        choices=["mlp-regression", "mlp-classification", "rosenbrock"],
        default="mlp-regression",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("diag-fisher", help="Adam second-moment vs empirical Fisher diagonal")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default=None)

    return parser


def _cmd_train(args) -> int:
    cfg = config_mod.from_json(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_path = args.out or cfg.output_path
    if out_path is None:
        result = run_training(cfg)
    else:
        result, records = start_training(cfg)
        if result.standardize_stats is not None:
            with open(str(out_path) + ".norm.json", "w") as fh:
                json.dump(result.standardize_stats.to_dict(), fh)
        emit(records, out_path, "csv" if str(out_path).endswith(".csv") else "jsonl")
    last = result.last
    print(
        f"status={result.status.value} steps={last.step if last else 0} "
        f"final_train_loss={last.train_loss if last else 'n/a'}"
    )
    return EXIT_DIVERGED if result.status is RunStatus.DIVERGED else EXIT_OK


def _cmd_rosenbrock(args) -> int:
    try:
        x, y = (float(s) for s in args.start.split(","))
    except ValueError:
        raise ConfigError(f"--start expects 'x,y', got {args.start!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"--start must be finite, got {args.start!r}")
    opt = preset_optimizer(args.optimizer, args.lr, args.momentum, args.weight_decay)
    points = trajectory(opt, args.steps, (x, y))
    # Each point reaches the file as it is drawn, with the step leaving it
    # taken, so a run that stops early leaves the header and every point a
    # finished step reached. Only the latest is kept, for the status line.
    with open(args.out or os.devnull, "w", newline="", buffering=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(("step", "x", "y", "f"))
        for point in points:
            writer.writerow((point[0], *map(repr, point[1:])))
    step, x, y, f = point
    # A trajectory ends early only by diverging.
    status = RunStatus.COMPLETED if step == args.steps else RunStatus.DIVERGED
    print(f"status={status.value} steps={step} final_f={f!r} final_xy=({x!r},{y!r})")
    return EXIT_DIVERGED if status is RunStatus.DIVERGED else EXIT_OK


def _cmd_tune(args) -> int:
    cfg = config_mod.from_json(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    space = search_space_for(cfg)
    results = search_trials(
        space, args.budget, SearchObjective(args.objective), cfg, seed, args.halving
    )
    # Every trial is kept only for the --out file.
    best, trials = None, []
    try:
        for trial, best in results:
            if args.out:
                trials.append(trial)
    finally:
        # A search that stops early, interrupted or on an error, still leaves
        # every finished trial and the best of them.
        if args.out:
            payload = {
                "best": None if best is None else {
                    "config": best.config, "score": best.score, "status": best.status.value
                },
                "trials": [{**asdict(t), "status": t.status.value} for t in trials],
            }
            Path(args.out).write_text(json.dumps(payload, indent=2))
    print(f"best score={best.score!r} optimizer={best.config['optimizer']}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfgs = sweep_configs(config_mod.from_json(args.config), args.sweep)
    # Each line reaches the file as its run finishes, so a sweep that stops
    # early leaves the header and every finished run's line.
    with open(args.out or os.devnull, "w", buffering=1) as fh:
        fh.write(f"{args.sweep},status,final_train_loss,final_val_loss\n")
        for value, cfg in zip(SWEEP_GRIDS[args.sweep], cfgs):
            result = run_training(cfg)
            final, val = result.last, result.val_loss
            line = (
                f"{float(value)!r},{result.status.value},"
                f"{final.train_loss if final else ''},{'' if val is None else val}"
            )
            print(line)
            fh.write(line + "\n")
    return EXIT_OK


def _metric_series(records, metric: str):
    pairs = [
        (rec.wall_time_s, getattr(rec, "lam" if metric == "lambda" else metric))
        for rec in records
    ]
    pairs = [(t, v) for t, v in pairs if v is not None]
    if not pairs:
        raise ConfigError(f"no values for metric {metric!r} in input records")
    return np.array([t for t, _ in pairs]), np.array([v for _, v in pairs])


def _cmd_bootstrap(args) -> int:
    paths = sorted(globlib.glob(args.inputs))
    if not paths:
        raise ConfigError(f"no files match {args.inputs!r}")
    runs = [read_records(p) for p in paths]
    series = [_metric_series(r, args.metric) for r in runs]
    if args.align == "time":
        grid, aligned = align_time_series(series, args.n_points)
        index_name, index = "time_s", grid.tolist()
    else:
        index_name, index, aligned = "index", itertools.count(), [v for _, v in series]
    mean, std = bootstrap_trend(aligned, args.n_boot, args.seed)
    lines = [f"{index_name},mean,std"]
    lines += [f"{i!r},{float(m)!r},{float(s)!r}" for i, m, s in zip(index, mean, std)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _gradcheck_model(name: str, seed: int):
    rng = np.random.default_rng(seed)
    if name == "rosenbrock":
        obj = models.rosenbrock_objective()
        params = ParamVector(rng.normal(size=2))
        return obj, params, None
    if name == "mlp-regression":
        spec = models.MlpSpec((8, 50, 1), LossKind.MSE)
        batch = Batch(rng.normal(size=(4, 8)), rng.normal(size=(4, 1)))
    else:
        spec = models.MlpSpec((16, 50, 10), LossKind.SOFTMAX_CROSS_ENTROPY)
        batch = Batch(rng.normal(size=(4, 16)), rng.integers(0, 10, size=4))
    obj = models.mlp_objective(spec)
    return obj, models.mlp_init(spec, seed), batch


def _cmd_gradcheck(args) -> int:
    obj, params, batch = _gradcheck_model(args.model, args.seed)
    rng = np.random.default_rng(args.seed + 1)

    _, grad = autodiff.eval_grad(obj, params, batch)
    fd = autodiff.fd_grad(obj, params, batch, 1e-5)
    scale = max(float(np.max(np.abs(fd.values))), 1e-12)
    grad_err = float(np.max(np.abs(grad.values - fd.values))) / scale

    v = ParamVector(rng.normal(size=len(params)))
    h = 1e-5
    _, gp = autodiff.eval_grad(obj, ParamVector(params.values + h * v.values), batch)
    _, gm = autodiff.eval_grad(obj, ParamVector(params.values - h * v.values), batch)
    fd_hv = (gp.values - gm.values) / (2 * h)
    hv = autodiff.curvature_vp(obj, params, batch, v, autodiff.CurvatureKind.HESSIAN).values
    hvp_err = float(np.max(np.abs(hv - fd_hv))) / max(float(np.max(np.abs(fd_hv))), 1e-12)

    ok = grad_err <= 1e-5 and hvp_err <= 1e-4
    print(f"model={args.model} grad_rel_err={grad_err:.3e} hvp_rel_err={hvp_err:.3e} "
          f"{'OK' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_DIVERGED


def _cmd_diag_fisher(args) -> int:
    cfg = config_mod.from_json(args.config)
    report = fisher_alignment(cfg, steps=args.steps)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def check_flags(args, bounds: dict[str, str]) -> None:
    """Refuse each flag in `bounds` that is set outside its bound, naming it as typed."""
    flags = SimpleNamespace(**{"--" + k.replace("_", "-"): v for k, v in vars(args).items()})
    for flag, bound in bounds.items():
        if getattr(flags, flag) is not None:
            check_bounds(flags, bound, flag)


# Each command's numeric flags and their bounds, checked before it runs. An
# unset `tune --seed` takes the config's seed, which the config checks.
_FLAG_BOUNDS = {
    "train": {"--seed": "in [0, 2**32)"},
    "rosenbrock": {"--steps": "positive"},
    "tune": {"--budget": "positive", "--seed": "in [0, 2**32)"},
    "bootstrap": {"--n-boot": "positive", "--seed": "in [0, 2**32)", "--n-points": "positive"},
    "gradcheck": {"--seed": "in [0, 2**32)"},
    "diag-fisher": {"--steps": "positive"},
}


_COMMANDS = {
    "train": _cmd_train,
    "rosenbrock": _cmd_rosenbrock,
    "tune": _cmd_tune,
    "sweep": _cmd_sweep,
    "bootstrap": _cmd_bootstrap,
    "gradcheck": _cmd_gradcheck,
    "diag-fisher": _cmd_diag_fisher,
}


def main(argv=None) -> int:
    configure_malloc()
    args = _build_parser().parse_args(argv)
    try:
        check_flags(args, _FLAG_BOUNDS.get(args.command, {}))
        # Overflow is reported once, as a divergence, not as numpy warnings on the way there.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except ValueError as e:  # ConfigError and DataFormatError among them
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        print(f"config error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
