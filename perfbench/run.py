"""Benchmark of adamqlr training jobs, end to end or traced layer by layer.

    python3 perfbench/run.py --workload fmnist784-ggn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It sets up the workload several times in
fresh processes, runs jobs one at a time for --seconds seconds, checks every
job's output, prints a table and, as the last line, one JSON object with
the metrics of BENCHMARK.json (end-to-end with --trace 0, per-layer with
--trace 1). Exit code 0 when every check passed, 1 when one failed, 2 when
the checkout has no adamqlr sources. See perfbench/README.md.
"""

import argparse
import gzip
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11
# Unpinned, small matmuls run up to 5x slower on a 2-core box.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_package() -> None:
    """Pin BLAS threads, then import adamqlr from this checkout's src/.

    Exits 2 if the checkout has no adamqlr sources. The pins only take
    effect if nothing has imported numpy yet, which is checked.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pins were set")
    os.environ.update(PINS)  # inherited by the set-up probes too
    if not (SRC / "adamqlr" / "__init__.py").is_file():
        print(f"perfbench: no adamqlr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import adamqlr

    if Path(adamqlr.__file__).resolve().parent != SRC / "adamqlr":
        print(f"perfbench: adamqlr imported from {adamqlr.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_record() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pins": PINS,
    }


def probe(argv: list[str], expect: str) -> tuple[float, dict, str]:
    """Run `adamqlr <argv>` in a fresh process.

    Returns the seconds from spawn to the command's return, the probe's
    report, and a problem description (empty when the command exited 0 and
    its status line starts with `expect`).
    """
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *argv],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    try:
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return math.nan, {}, f"probe {argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}"
    if reply["code"] != 0 or not reply["printed"].startswith(expect):
        return math.nan, reply, f"probe {argv} printed {reply['printed']!r}"
    return reply["t_end"] - t0, reply, ""


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set-up and memory probes, then jobs until `seconds` have gone.

    The first pass over the pool always completes, so every entry runs.
    """
    import workloads
    from adamqlr.bench.records import read_records
    from hostspeed import reference_s
    from spantrace import Tracer, check_unpatched

    w = workloads.WORKLOADS[workload]
    rng = random.Random(seed)
    training = workload != "rosenbrock-presets"
    out = workdir / "out.jsonl"
    cfgs = {}
    if training:
        for entry in range(w.pool):
            cfg = workloads.train_config(workload, entry)
            cfgs[entry] = workdir / f"job-{entry}.json"
            cfgs[entry].write_text(json.dumps(cfg))
            (workdir / f"step-{entry}.json").write_text(json.dumps({**cfg, "max_runtime_s": 0}))

    # Set-up time: spawn to the return of a run cut after its first step
    # (max_runtime_s 0), less that step as the run's own record times it.
    # The host-speed kernel runs between probes; each probe gets the mean
    # of the kernel times on either side of it.
    probe_problems, setups, setup_hosts = [], [], []
    host = reference_s()
    for _ in range(SETUP_PROBES):
        entry = rng.randrange(w.pool)
        if training:
            argv = ["train", "--config", str(workdir / f"step-{entry}.json"), "--out", str(out)]
            took, _, problem = probe(argv, "status=timed_out steps=1 ")
            if not problem:
                took -= read_records(out)[0].wall_time_s
        else:
            argv = ["rosenbrock", "--optimizer", "adamqlr-untuned", "--steps", "1"]
            took, _, problem = probe(argv, "status=completed steps=1 ")
        setups.append(took)
        after = reference_s()
        setup_hosts.append(0.5 * (host + after))
        host = after
        probe_problems += [problem] if problem else []

    # Peak memory: one whole job alone in a fresh process, as a user runs it.
    if training:
        argv = ["train", "--config", str(cfgs[rng.randrange(w.pool)]), "--out", str(out)]
        expect = f"status=completed steps={w.steps} "
    else:
        argv = ["rosenbrock", "--optimizer", "adamqlr-untuned", "--steps", "200"]
        expect = "status=completed steps=200 "
    _, reply, problem = probe(argv, expect)
    probe_problems += [problem] if problem else []

    tracer = Tracer() if trace else None
    host = reference_s()

    def job(entry: int, order: list[str], traced: bool):
        nonlocal host
        if not traced:
            check_unpatched()
        span = tracer.span if traced else (lambda name: nullcontext())
        with tracer.installed() if traced else nullcontext(), \
                tracer.job_span(len(traced_jobs)) if traced else nullcontext():
            if training:
                result = workloads.run_train_job(w, entry, cfgs[entry], out)
            else:
                result = workloads.run_rosenbrock_job(w, order, span)
        after = reference_s()
        result.host_s = 0.5 * (host + after)
        host = after
        return result

    def schedule():
        while True:
            yield from rng.sample(range(w.pool), w.pool)

    # Closed loop, one job at a time. A traced run follows each untraced
    # job with a traced one on the same input, pairing them for the overhead.
    jobs, traced_jobs, pairs = [], [], []
    t_start = time.perf_counter()
    for i, entry in enumerate(schedule()):
        if i >= w.pool and time.perf_counter() - t_start >= seconds:
            break
        order = rng.sample(workloads.PRESET_NAMES, len(workloads.PRESET_NAMES))
        plain = job(entry, order, False)
        jobs.append(plain)
        if trace:
            traced = job(entry, order, True)
            jobs.append(traced)
            traced_jobs.append(traced)
            pairs.append((plain, traced))
    check_unpatched()
    return {"workload": w, "setups": setups, "setup_hosts": setup_hosts, "jobs": jobs,
            "traced_jobs": traced_jobs, "pairs": pairs, "tracer": tracer, "probes": SETUP_PROBES + 1,
            "probes_failed": len(probe_problems),
            "problems": probe_problems + [p for j in jobs for p in j.problems],
            "peak_rss_mb": reply.get("maxrss_mb", math.nan)}


def end_to_end(res: dict) -> tuple[dict, dict]:
    """BENCHMARK.json end-to-end metrics, and the samples behind the timings.

    Timings are at the host speed where the reference kernel takes
    hostspeed.NOMINAL_S; the samples named raw.* are as measured.
    final_loss is the geometric mean over the pool of each entry's final
    train loss (Rosenbrock: the untuned preset's final f).
    """
    from hostspeed import at_nominal
    from spantrace import summary

    jobs = res["jobs"]
    by_entry = defaultdict(list)
    for job in jobs:
        by_entry[job.entry].append(job)
    setups = [(s, h) for s, h in zip(res["setups"], res["setup_hosts"]) if math.isfinite(s)]
    reached = [j for j in jobs if j.time_to_target_s is not None]
    samples = {
        "setup_s": [at_nominal(s, h) for s, h in setups],
        "steps_per_s": [j.steps / at_nominal(j.seconds, j.host_s) for j in jobs],
        "time_to_target_s": [at_nominal(j.time_to_target_s, j.host_s) for j in reached],
        "raw.setup_s": [s for s, _ in setups],
        "raw.steps_per_s": [j.steps / j.seconds for j in jobs],
        "raw.time_to_target_s": [j.time_to_target_s for j in reached],
        "host.reference_ms": [1000 * j.host_s for j in jobs],
    }
    # Pool entries reach the target after different step counts and later
    # passes may cover only some entries, so each entry weighs the same.
    to_target = [summary([at_nominal(j.time_to_target_s, j.host_s)
                          for j in js if j.time_to_target_s is not None])[0]
                 for js in by_entry.values()]
    log_finals = [math.log(js[0].final_loss) for js in by_entry.values()]
    failed = sum(1 for j in jobs if j.problems)
    metrics = {
        "setup_s": (summary(samples["setup_s"])[0], "s"),
        "steps_per_s": (summary(samples["steps_per_s"])[0], "1/s"),
        "time_to_target_s": (sum(to_target) / len(to_target), "s"),
        "final_loss": (math.exp(sum(log_finals) / len(log_finals)), "loss"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "completed_fraction": ((len(jobs) - failed) / len(jobs), "fraction"),
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    from spantrace import summary

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    machine = machine_record()
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, samples = layers.layer_metrics(res)
    else:
        metrics, samples = end_to_end(res)
    w = res["workload"]
    print(f"workload {w.name}: {w.shape}")
    print(f"seed {args.seed}, {len(res['jobs'])} jobs in {args.seconds:g} s, "
          f"{len(res['traced_jobs'])} traced; machine {json.dumps(machine)}")
    if w.name == "rosenbrock-presets":
        f = res["jobs"][0].finals
        print(f"known-red pair after 200 steps from (1,-1): adamqlr-untuned f={f['adamqlr-untuned']:.4f}, "
              f"gd f={f['gd']:.4f} (acceptance 06 asserts gd >= untuned; not asserted here)")
    for name, xs in samples.items():
        med, tail, n, pct = summary(xs)
        print(f"  {name:44s} median {med:.6g}  p{pct:.4g} {tail:.6g}  n={n}")
    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:.6g} {unit}")
    for problem in res["problems"][:20]:
        print(f"CHECK FAILED: {problem}")

    correct = not res["problems"]
    result = {
        "correct": correct,
        "attempted": len(res["jobs"]) + res["probes"],
        "failed": sum(1 for j in res["jobs"] if j.problems) + res["probes_failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    details = {"machine": machine, "seed": args.seed, "seconds": args.seconds,
               "problems": res["problems"], **result,
               "samples": {k: dict(zip(("median", "tail", "n", "tail_pct"), summary(v)))
                           for k, v in samples.items()}}
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(details, indent=1))
    if res["tracer"] is not None:  # one file per workload, the latest traced run's
        with gzip.open(OUT_DIR / f"{w.name}.spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for s in res["tracer"].spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
