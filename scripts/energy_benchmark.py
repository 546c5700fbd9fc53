"""Small-regression benchmark: SGD / Adam / untuned quadratic-model runs
repeated over seeds, aggregated into bootstrapped median trends.

Uses a synthetic dataset shaped like the 692x8 single-target energy data
unless --csv points at a real file.

Usage: python scripts/energy_benchmark.py [--seeds 5] [--epochs 400] [--out-dir runs/energy]
"""

import argparse
from pathlib import Path

import numpy as np

from adamqlr.bench import config as config_mod
from adamqlr.bench.cli import configure_malloc
from adamqlr.bench.records import emit
from adamqlr.bench.stats import bootstrap_trend
from adamqlr.bench.training import start_training

OPTIMIZERS = {
    "sgd": {"kind": "sgd_minimal", "lr": 0.0988},
    "adam": {"kind": "adam", "lr": 0.0299},
    "adamqlr-untuned": {"kind": "qlr"},
}


def base_config(optimizer: dict, seed: int, epochs: int, csv_path: str | None) -> dict:
    if csv_path:
        loader = {"kind": "csv", "path": csv_path, "n_features": 8, "target_columns": 1}
    else:
        loader = {"kind": "synthetic", "task": "regression", "n": 692, "d": 8,
                  "seed": 42, "noise": 0.1}
    return {
        "model": {"kind": "mlp", "layer_widths": [8, 50, 1], "loss": "mse"},
        "dataset": {
            "loader": loader,
            "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1,
                      "seed": seed},
            "batch": {"batch_size": 3200, "shuffle_seed": seed},
            "standardize": True,
        },
        "optimizer": optimizer,
        "epochs": epochs,
        "seed": seed,
    }


def main():
    configure_malloc()
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=400)
    parser.add_argument("--n-boot", type=int, default=50)
    parser.add_argument("--csv", default=None, help="optional real CSV dataset")
    parser.add_argument("--out-dir", default="runs/energy")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, optimizer in OPTIMIZERS.items():
        series = []
        for seed in range(args.seeds):
            cfg = config_mod.from_dict(base_config(optimizer, seed, args.epochs, args.csv))
            records = list(start_training(cfg)[1])
            emit(records, out_dir / f"{name}_seed{seed}.jsonl")
            series.append(np.array([r.train_loss for r in records]))
        mean, std = bootstrap_trend(series, n_boot=args.n_boot, seed=0)
        trend_path = out_dir / f"{name}_trend.csv"
        with open(trend_path, "w") as fh:
            fh.write("step,mean,std\n")
            for i, (m, s) in enumerate(zip(mean, std)):
                fh.write(f"{i},{float(m)!r},{float(s)!r}\n")
        print(f"{name:16s} final median train loss {mean[-1]:.6g} -> {trend_path}")


if __name__ == "__main__":
    main()
