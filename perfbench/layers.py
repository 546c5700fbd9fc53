"""Per-layer metrics of BENCHMARK.json, computed from a traced run's spans."""

from __future__ import annotations

from collections import Counter, defaultdict

from adamqlr.bench.rosenbrock import PRESET_NAMES
from spantrace import END, EPOCH, JOB, NAME, PARENT, START, covered, self_times, summary

# metric name -> (span name, unit, self time?)
TIMINGS = {
    "tape.backward_ms": ("tape.backward", "ms", False),
    "models.trace_ms": ("models.trace", "ms", False),
    "models.value_ms": ("models.value", "ms", False),
    "models.predict_ms": ("models.predict", "ms", False),
    "autodiff.eval_grad_ms": ("autodiff.eval_grad", "ms", False),
    "autodiff.eval_grad_self_ms": ("autodiff.eval_grad", "ms", True),
    "autodiff.curvature_vp_ms": ("autodiff.curvature_vp", "ms", False),
    "autodiff.curvature_vp_self_ms": ("autodiff.curvature_vp", "ms", True),
    "autodiff.eval_loss_ms": ("autodiff.eval_loss", "ms", False),
    "optim.qlr_step_ms": ("optim.qlr_step", "ms", False),
    "optim.qlr_step_self_ms": ("optim.qlr_step", "ms", True),
    "optim.adam_direction_ms": ("optim.adam_direction", "ms", False),
    "optim.sgd_step_ms": ("optim.sgd_step", "ms", False),
    "data.synthesize_s": ("data.synthesize", "s", False),
    "data.split_s": ("data.split_dataset", "s", False),
    "data.standardize_s": ("data.standardize_splits", "s", False),
    "data.batch_ms": ("data.batch", "ms", False),
    "bench.config.parse_ms": ("bench.config.from_json", "ms", False),
    "bench.records.emit_ms": ("bench.records.emit", "ms", False),
    **{f"bench.rosenbrock.run_ms.{p}": (f"bench.rosenbrock.run.{p}", "ms", False)
       for p in PRESET_NAMES},
}
EVAL_SPANS = ("autodiff.eval_loss", "models.predict")
GUARDS = ("non_descent", "non_convex", "degenerate_model", "step_rejected", "lambda_ceiling")


def layer_metrics(res: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the timing samples behind them.

    Timings are reported as median, tail (the highest percentile with ten
    samples above it) and sample count, over every traced job. Counts come
    from the first traced pass, one job per pool entry, as exact ratios of
    integers, so they repeat run to run whatever the seed and however many
    jobs fit in the run. A layer the workload never calls reads 0.
    """
    tracer, spans = res["tracer"], res["tracer"].spans
    first = res["traced_jobs"][: res["workload"].pool]
    counts = sum((tracer.counts[job] for job in range(len(first))), Counter())
    first_spans = Counter(s[NAME] for s in spans if s[JOB] < len(first))
    selfs = self_times(spans)
    steps = sum(j.steps for j in first)
    n_jobs = len(first)

    durations: dict[str, list[float]] = defaultdict(list)
    self_durations: dict[str, list[float]] = defaultdict(list)
    eval_per_epoch: dict[tuple[int, int], float] = defaultdict(float)
    top_level: dict[int, list[tuple[float, float]]] = defaultdict(list)
    roots: dict[int, list] = {}
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        durations[s[NAME]].append(d)
        self_durations[s[NAME]].append(selfs[i])
        if s[PARENT] < 0:
            roots[s[JOB]] = s
        elif spans[s[PARENT]][PARENT] < 0:
            top_level[s[JOB]].append((s[START], s[END]))
            if s[NAME] in EVAL_SPANS:
                eval_per_epoch[(s[JOB], s[EPOCH])] += d

    samples = {}
    for metric, (span_name, unit, own) in TIMINGS.items():
        source = self_durations if own else durations
        scale = 1e3 if unit == "ms" else 1.0
        samples[metric] = [scale * d for d in source.get(span_name, [])]
    samples["bench.training.eval_ms_per_epoch"] = [1e3 * d for d in eval_per_epoch.values()]
    samples["trace.top_level_share"] = [
        covered(top_level[job], r[START], r[END]) / (r[END] - r[START]) for job, r in roots.items()
    ]
    samples["trace.overhead_ms"] = [1e3 * (t.seconds - u.seconds) for u, t in res["pairs"]]
    samples["trace.overhead_share"] = [(t.seconds - u.seconds) / u.seconds for u, t in res["pairs"]]

    metrics = {}
    units = {m: u for m, (_, u, _) in TIMINGS.items()}
    units.update({"bench.training.eval_ms_per_epoch": "ms", "trace.overhead_ms": "ms"})
    for metric, unit in units.items():
        med, tail, n, _ = summary(samples[metric])
        metrics[metric] = (med, unit)
        metrics[f"{metric}.tail"] = (tail, unit)
        metrics[f"{metric}.samples"] = (n, "count")
    metrics["trace.overhead_share"] = (summary(samples["trace.overhead_share"])[0], "fraction")
    metrics["trace.top_level_share"] = (summary(samples["trace.top_level_share"])[0], "fraction")

    def per_step(total):
        return (total / steps if steps else 0.0), "count"

    calls = {k: sum(j.calls[k] for j in first) for k in ("eval_grad", "curvature_vp", "eval_loss")}
    metrics["tape.matmul_madds_per_step"] = per_step(counts["tape.matmul_madds"])
    metrics["tape.backward_calls_per_step"] = per_step(first_spans["tape.backward"])
    for k, v in calls.items():
        metrics[f"autodiff.{k}_per_step"] = per_step(v)
    for g in GUARDS:
        metrics[f"optim.guard.{g}"] = (counts[f"optim.guard.{g}"] / n_jobs, "count")
    qlr_steps = counts["optim.qlr_steps"]
    metrics["optim.accepted_step_ratio"] = (
        (qlr_steps - counts["optim.guard.step_rejected"]) / qlr_steps if qlr_steps else 0.0,
        "fraction",
    )
    metrics["params.vectors_per_step"] = per_step(counts["params.vectors"])
    metrics["data.batch_bytes_per_step"] = (per_step(counts["data.batch_bytes"])[0], "B")
    metrics["bench.records.bytes"] = (counts["bench.records.bytes"] / n_jobs, "B")
    metrics["trace.spans_per_job"] = (sum(first_spans.values()) / n_jobs, "count")
    return metrics, samples
