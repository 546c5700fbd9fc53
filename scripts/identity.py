"""Check that this tree gives the same outputs as another one, byte for byte.

Usage: python scripts/identity.py PARENT [--only NAME[,NAME...]]

PARENT is a git revision of this repository, extracted with
`git archive REV | tar -x` into a temporary directory (the repository is
only read), or the directory of another checkout. The script writes one
fixed set of configs and data files, runs one fixed list of `adamqlr`
commands on them from PARENT's `src/` and then from this tree's, each in
a fresh subprocess with BLAS pinned to one thread, and compares every
output file, stdout, stderr and exit code. Record files
are compared without their `wall_time_s` field, the one number that
(config, seed) does not fix. Both sides run on this host, so they share
one OpenBLAS kernel. It prints each output that differs and exits 1 if
any does, else 0; a PARENT it cannot read exits 2. `--only` runs the named
commands alone.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
PRESETS = ("gd", "gd-full", "adam", "adamqlr-tuned", "adamqlr-untuned")


def _energy(epochs: int, **extra) -> dict:
    """Energy entry 0 of the benchmark: an 8-50-1 MSE net on 692 synthetic rows."""
    return {
        "model": {"kind": "mlp", "layer_widths": [8, 50, 1], "loss": "mse"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "regression", "n": 692, "d": 8,
                       "seed": 42, "noise": 0.1},
            "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1,
                      "seed": 0},
            "batch": {"batch_size": 3200, "shuffle_seed": 0},
            "standardize": True,
        },
        "optimizer": {"kind": "qlr"},
        "epochs": epochs,
        "seed": 0,
        **extra,
    }


def _csv_input() -> bytes:
    """60 rows of 3 inputs and 1 target under a header row, in short exact decimals."""
    rows = ["a,b,c,y"]
    for i in range(60):
        x = [((i * 7 + j * 13) % 17 - 8) / 4 for j in range(3)]
        rows.append(",".join(map(repr, [*x, 0.5 * x[0] - x[1] + 0.25 * x[2] + (i % 5 - 2) / 8])))
    return ("\n".join(rows) + "\n").encode()


def _idx_inputs() -> tuple[bytes, bytes]:
    """An IDX pair of 40 2x2 images in 3 classes, the class shifting each image's pixels."""
    labels = [i % 3 for i in range(40)]
    pixels = bytes((i * 31 + k * 57 + labels[i] * 80) % 256 for i in range(40) for k in range(4))
    images = (0x803).to_bytes(4, "big") + b"".join(v.to_bytes(4, "big") for v in (40, 2, 2))
    head = (0x801).to_bytes(4, "big") + (40).to_bytes(4, "big")
    return images + pixels, head + bytes(labels)


# The data files that the loader configs below read, written beside them;
# gzip at mtime 0 keeps the compressed bytes fixed.
IMAGES, LABELS = _idx_inputs()
INPUTS = {
    "table.csv": _csv_input(),
    "images.idx": IMAGES,
    "labels.idx": LABELS,
    "images.idx.gz": gzip.compress(IMAGES, mtime=0),
    "labels.idx.gz": gzip.compress(LABELS, mtime=0),
}


def _idx(suffix: str) -> dict:
    """A 4-6-3 classifier on the IDX pair, read from its `suffix` files."""
    return {
        "model": {"kind": "mlp", "layer_widths": [4, 6, 3], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "idx", "images_path": f"images{suffix}",
                       "labels_path": f"labels{suffix}"},
            "batch": {"batch_size": 8},
        },
        "optimizer": {"kind": "qlr"},
        "epochs": 5,
    }


CONFIGS = {
    "fmnist.json": {  # fmnist entry 0 of the benchmark: 784-50-10 on 6000 synthetic rows
        "model": {"kind": "mlp", "layer_widths": [784, 50, 10], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "classification", "n": 6000, "d": 784,
                       "seed": 10, "n_classes": 10},
            "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1,
                      "seed": 0},
            "batch": {"batch_size": 3200, "shuffle_seed": 0},
        },
        "optimizer": {"kind": "qlr"},
        "epochs": 10,
        "seed": 0,
    },
    "energy.json": _energy(400),
    "energy40.json": _energy(40, eval_every_epochs=5),
    "adam.json": {**_energy(40), "optimizer": {"kind": "adam", "lr": 0.01}},
    # Rosenbrock trained from (1, -1), one step per epoch, with the knobs
    # of the `rosenbrock` command's two quadratic-model presets.
    "rosenbrock-untuned.json": {
        "model": {"kind": "rosenbrock"},
        "optimizer": {"kind": "qlr", "curvature": "hessian"},
        "epochs": 500,
    },
    "rosenbrock-tuned.json": {
        "model": {"kind": "rosenbrock"},
        "optimizer": {"kind": "qlr", "curvature": "hessian", "lambda0": 3.0270e-6,
                      "omega_dec": 0.9, "omega_inc": 2.1, "alpha_max": 6.098},
        "epochs": 500,
    },
    # Guard paths the runs above do not take. Energy with Hessian curvature
    # and an outsized step meets non-descent and non-convex steps and
    # drives lambda to its ceiling; Rosenbrock with a 1e150 rescale
    # overflows every trial, so every step is rejected.
    "energy-guards.json": {**_energy(40), "optimizer": {
        "kind": "qlr", "curvature": "hessian", "alpha_max": 10, "rescale_k": 1000,
        "omega_inc": 8}},
    "rosenbrock-rejected.json": {
        "model": {"kind": "rosenbrock"},
        "optimizer": {"kind": "qlr", "curvature": "hessian", "rescale_k": 1e150},
        "epochs": 500,
    },
    # Paths the runs above do not take: SGD directions in the quadratic
    # model, an activation set by name, and a step size that diverges at step 20.
    "energy-qlr-sgd.json": {**_energy(40), "optimizer": {"kind": "qlr", "direction": "sgd"}},
    "energy-relu.json": {**_energy(40), "model": {
        "kind": "mlp", "layer_widths": [8, 50, 1], "loss": "mse", "activation": "relu"}},
    "energy-diverged.json": {**_energy(40), "optimizer": {"kind": "sgd_full", "lr": 1e6}},
    # The file loaders, on the inputs above.
    "csv.json": {
        "model": {"kind": "mlp", "layer_widths": [3, 5, 1], "loss": "mse"},
        "dataset": {"loader": {"kind": "csv", "path": "table.csv", "n_features": 3},
                    "batch": {"batch_size": 16}},
        "optimizer": {"kind": "qlr"},
        "epochs": 5,
    },
    "idx.json": _idx(".idx"),
    "idx-gz.json": _idx(".idx.gz"),
}

# (name, arguments to `adamqlr`); each runs in the side's output directory, in order.
COMMANDS = [
    ("train-fmnist", ["train", "--config", "fmnist.json", "--out", "records-fmnist.jsonl"]),
    ("train-energy", ["train", "--config", "energy.json", "--out", "records-energy.jsonl"]),
    ("train-energy40-csv", ["train", "--config", "energy40.json", "--out", "energy40.csv"]),
    ("train-no-out", ["train", "--config", "energy40.json"]),
    *(
        (f"train-rosenbrock-{k}", ["train", "--config", f"rosenbrock-{k}.json",
                                   "--out", f"train-rosenbrock-{k}.jsonl"])
        for k in ("untuned", "tuned")
    ),
    # Named outside the `records-*.jsonl` glob that `bootstrap` reads.
    ("train-energy-guards", ["train", "--config", "energy-guards.json",
                             "--out", "guards-energy.jsonl"]),
    ("train-rosenbrock-rejected", ["train", "--config", "rosenbrock-rejected.json",
                                   "--out", "train-rosenbrock-rejected.jsonl"]),
    ("train-energy-qlr-sgd", ["train", "--config", "energy-qlr-sgd.json",
                              "--out", "qlr-sgd-energy.jsonl"]),
    ("train-energy-relu", ["train", "--config", "energy-relu.json", "--out", "relu-energy.jsonl"]),
    ("train-energy-diverged", ["train", "--config", "energy-diverged.json",
                               "--out", "diverged-energy.jsonl"]),
    ("train-energy-seed", ["train", "--config", "energy40.json", "--seed", "7",
                           "--out", "seed7-energy.jsonl"]),
    ("train-csv", ["train", "--config", "csv.json", "--out", "train-csv.jsonl"]),
    ("train-idx", ["train", "--config", "idx.json", "--out", "train-idx.jsonl"]),
    ("train-idx-gz", ["train", "--config", "idx-gz.json", "--out", "train-idx-gz.jsonl"]),
    *(
        (f"rosenbrock-{p}", ["rosenbrock", "--optimizer", p, "--out", f"rosenbrock-{p}.csv"])
        for p in PRESETS
    ),
    ("rosenbrock-gd-lr10", ["rosenbrock", "--optimizer", "gd", "--lr", "10",
                            "--out", "rosenbrock-gd-lr10.csv"]),
    ("rosenbrock-start", ["rosenbrock", "--optimizer", "adamqlr-untuned", "--start", "0.5,0.5"]),
    # f overflows at the start: the run diverges with the start as its one point.
    ("rosenbrock-overflow", ["rosenbrock", "--optimizer", "gd", "--start", "1e200,1e200",
                             "--out", "rosenbrock-overflow.csv"]),
    # From (0, 0) the first step meets exact zeros: y - x² and the y part
    # of the gradient.
    *(
        (f"rosenbrock-zero-{p}", ["rosenbrock", "--optimizer", p, "--start", "0,0",
                                  "--out", f"rosenbrock-zero-{p}.csv"])
        for p in ("adamqlr-untuned", "gd")
    ),
    ("sweep-lambda0", ["sweep", "--config", "energy40.json", "--sweep", "lambda0",
                       "--out", "sweep-lambda0.csv"]),
    ("tune", ["tune", "--config", "energy40.json", "--budget", "4", "--out", "tune.json"]),
    ("tune-halving", ["tune", "--config", "energy40.json", "--budget", "6", "--halving",
                      "--objective", "train", "--out", "tune-halving.json"]),
    # Its inputs are the two `records-` files alone, whatever other
    # commands this list gains.
    ("bootstrap", ["bootstrap", "--inputs", "records-*.jsonl", "--n-boot", "20",
                   "--out", "bootstrap.csv"]),
    ("diag-fisher", ["diag-fisher", "--config", "adam.json", "--steps", "30",
                     "--out", "diag-fisher.json"]),
    ("gradcheck", ["gradcheck", "--model", "mlp-classification"]),
    ("gradcheck-rosenbrock", ["gradcheck", "--model", "rosenbrock"]),
    ("gradcheck-mlp-regression", ["gradcheck", "--model", "mlp-regression"]),
]


def checkout(parent: str, into: Path) -> Path:
    """PARENT's tree: a directory as it is, or a git revision extracted into `into`."""
    if Path(parent).is_dir():
        return Path(parent).resolve()
    archive = subprocess.run(["git", "-C", str(TREE), "archive", parent], capture_output=True)
    if archive.returncode:
        print(f"identity: {parent!r} is neither a directory nor a git revision: "
              f"{archive.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def run_side(tree: Path, out: Path, commands) -> None:
    """Run `commands` from `tree`'s `src/` in `out`, keeping each one's streams and exit code."""
    out.mkdir()
    for name, cfg in CONFIGS.items():
        (out / name).write_text(json.dumps(cfg))
    for name, content in INPUTS.items():
        (out / name).write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    here = str(tree).encode()  # a traceback names its tree; the comparison should not
    for name, args in commands:
        proc = subprocess.run([sys.executable, "-m", "adamqlr.bench.cli", *args],
                              cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(proc.stdout.replace(here, b"<tree>"))
        (out / f"{name}.stderr").write_bytes(proc.stderr.replace(here, b"<tree>"))
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")


def normalized(path: Path):
    """The file's content, without `wall_time_s` in JSONL and CSV records."""
    data = path.read_bytes()
    if path.suffix == ".jsonl":
        rows = [json.loads(line) for line in data.splitlines() if line.strip()]
        return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and "wall_time_s" in rows[0]:
            drop = rows[0].index("wall_time_s")
            return [row[:drop] + row[drop + 1:] for row in rows]
    return data


def outputs(side: Path) -> set[str]:
    return {p.name for p in side.iterdir()} - set(CONFIGS) - set(INPUTS)


def differing(a: Path, b: Path) -> list[str]:
    """Names of the outputs that differ between sides `a` and `b`, or that
    only one of them has."""
    return [n for n in sorted(outputs(a) | outputs(b))
            if not ((a / n).exists() and (b / n).exists()
                    and normalized(a / n) == normalized(b / n))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or checkout directory to compare against")
    parser.add_argument("--only", default=None, help="comma-separated command names")
    args = parser.parse_args(argv)
    commands = COMMANDS
    if args.only:
        names = args.only.split(",")
        unknown = sorted(set(names) - {n for n, _ in COMMANDS})
        if unknown:
            parser.error(f"unknown commands {', '.join(unknown)}")
        commands = [c for c in COMMANDS if c[0] in names]
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        parent = checkout(args.parent, tmp / "parent-tree")
        run_side(parent, tmp / "parent", commands)
        run_side(TREE, tmp / "child", commands)
        n_files = len(outputs(tmp / "parent") | outputs(tmp / "child"))
        diffs = differing(tmp / "parent", tmp / "child")
    for name in diffs:
        print(f"differs: {name}")
    print(f"{len(commands)} commands, {n_files} files compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
