"""The three workloads: their job inputs, one job each, and its output checks.

Every job goes through a public entry point: training jobs call
`adamqlr train` in-process through `adamqlr.bench.cli.main`, Rosenbrock
jobs call `run_rosenbrock` once per preset.

Each workload has a fixed pool of job inputs. Time to target and final
loss depend on the data, split, shuffle and init seeds, so a run visits
every pool entry equally often and the benchmark's --seed chooses the
order of the visits (and, on Rosenbrock, the order of the presets). That
keeps those metrics comparable between runs with different seeds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from adamqlr import autodiff
from adamqlr.bench import cli
from adamqlr.bench.records import read_records
from adamqlr.bench.rosenbrock import PRESET_NAMES, preset_optimizer, run_rosenbrock

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ROSENBROCK_START = (1.0, -1.0)
ROSENBROCK_STEPS = 200
CALLS = ("eval_grad", "curvature_vp", "eval_loss")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    pool: int  # job inputs in the pool
    steps: int  # optimizer steps of one job (Rosenbrock adds the cut run)
    target: float  # train loss (f on Rosenbrock) that time_to_target_s waits for


# Why each workload is here: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fmnist784-ggn",
            "MLP 784-50-10 softmax cross-entropy, 6000 synthetic 10-class blobs, "
            "batches of 3200 and 1600 rows, untuned qlr with GGN/Fisher curvature",
            pool=3,
            steps=20,  # 10 epochs x 2 batches of the 4800-row train split
            target=0.01,
        ),
        Workload(
            "energy-ggn",
            "MLP 8-50-1 MSE, 692x8 synthetic standardized regression, "
            "full 554-row batch, untuned qlr with GGN curvature",
            pool=4,
            steps=400,  # 400 epochs x 1 batch (3200 is clamped to the train split)
            target=0.03,
        ),
        Workload(
            "rosenbrock-presets",
            "all five presets, 200 steps from (1,-1); qlr presets use exact Hessian "
            "curvature; plus the untuned run cut at the target",
            pool=1,
            steps=len(PRESET_NAMES) * ROSENBROCK_STEPS,
            target=0.6,
        ),
    )
}


@functools.cache
def reference() -> dict:
    """Reference outputs, as record_reference.py wrote them."""
    return json.loads(REFERENCE_PATH.read_text())


def train_config(workload: str, entry: int) -> dict:
    """Run config of pool entry `entry`; entry 0 is the acceptance-test shape."""
    if workload == "fmnist784-ggn":
        model = {"kind": "mlp", "layer_widths": [784, 50, 10], "loss": "softmax_cross_entropy"}
        loader = {"kind": "synthetic", "task": "classification", "n": 6000, "d": 784,
                  "seed": 10 + entry, "n_classes": 10}
        extra, epochs = {}, 10
    elif workload == "energy-ggn":
        model = {"kind": "mlp", "layer_widths": [8, 50, 1], "loss": "mse"}
        loader = {"kind": "synthetic", "task": "regression", "n": 692, "d": 8,
                  "seed": 42 + entry, "noise": 0.1}
        extra, epochs = {"standardize": True}, 400
    else:
        raise ValueError(f"{workload} is not a training workload")
    dataset = {
        "loader": loader,
        "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1,
                  "seed": entry},
        "batch": {"batch_size": 3200, "shuffle_seed": entry},
        **extra,
    }
    return {"model": model, "dataset": dataset, "optimizer": {"kind": "qlr"},
            "epochs": epochs, "seed": entry}


@dataclass
class JobResult:
    entry: int
    seconds: float
    steps: int
    time_to_target_s: Optional[float]
    final_loss: float
    calls: dict[str, int]  # autodiff.counters increments during the job
    problems: list[str] = field(default_factory=list)
    finals: dict[str, float] = field(default_factory=dict)  # Rosenbrock: final f per preset
    host_s: float = float("nan")  # reference kernel time around the job (hostspeed.py)


def _counters() -> dict[str, int]:
    return {k: getattr(autodiff.counters, k) for k in CALLS}


def _close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def run_train_job(w: Workload, entry: int, cfg_path: Path, out_path: Path) -> JobResult:
    """One `adamqlr train --config cfg --out out` call, then its output checks."""
    before = _counters()
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(out_path)])
    seconds = time.perf_counter() - t0
    calls = {k: v - before[k] for k, v in _counters().items()}

    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not printed.getvalue().startswith("status=completed "):
        problems.append(f"status line {printed.getvalue().strip()!r}")
    records = read_records(out_path)
    if [r.step for r in records] != list(range(1, w.steps + 1)):
        problems.append(f"{len(records)} records, expected one per step for {w.steps} steps")
    final = records[-1].train_loss if records else float("nan")
    by_step = {r.step: r.train_loss for r in records}
    for check in reference()[w.name]["checks"]:
        got, ref = by_step.get(check["step"]), check["train_loss"][entry]
        if got is None or not _close(got, ref, check["rtol"]):
            problems.append(
                f"entry {entry} step {check['step']} train loss {got!r}, "
                f"reference {ref!r} (rtol {check['rtol']})"
            )
    hit = next((r for r in records if r.train_loss <= w.target), None)
    if hit is None:
        problems.append(f"entry {entry} never reached train loss {w.target}")
    return JobResult(entry, seconds, len(records), hit and hit.wall_time_s, final, calls,
                     problems)


def run_rosenbrock_job(
    w: Workload, order: list[str], span: Callable[[str], contextlib.AbstractContextManager]
) -> JobResult:
    """Every preset for 200 steps from (1,-1), then the untuned run cut at the target.

    The cut run times how long the untuned preset takes to first reach f <=
    target; it repeats the first steps of the full untuned run exactly.
    """
    ref = reference()[w.name]
    before = _counters()
    problems, finals = [], {}
    t0 = time.perf_counter()
    for name in order:
        with span(f"bench.rosenbrock.run.{name}"):
            res = run_rosenbrock(preset_optimizer(name), steps=ROSENBROCK_STEPS,
                                 start=ROSENBROCK_START)
        finals[name] = res.final_f
        if res.status.value != "completed" or len(res.points) != ROSENBROCK_STEPS + 1:
            problems.append(f"{name}: status {res.status.value}, {len(res.points) - 1} steps")
        if not _close(res.final_f, ref["final_f"][name], ref["rtol"], ref["atol"]):
            problems.append(f"{name}: final f {res.final_f!r}, reference {ref['final_f'][name]!r}")
    cut_steps = ref["steps_to_target"]
    t1 = time.perf_counter()
    with span("bench.rosenbrock.run.to-target"):
        cut = run_rosenbrock(preset_optimizer("adamqlr-untuned"), steps=cut_steps,
                             start=ROSENBROCK_START)
    t2 = time.perf_counter()
    fs = [p[3] for p in cut.points]
    if not (fs[-1] <= w.target < min(fs[:-1])):
        problems.append(f"untuned run does not first reach f <= {w.target} at step {cut_steps}")
    calls = {k: v - before[k] for k, v in _counters().items()}
    return JobResult(0, t2 - t0, w.steps + cut_steps, t2 - t1,
                     finals.get("adamqlr-untuned", float("nan")), calls, problems, finals)
