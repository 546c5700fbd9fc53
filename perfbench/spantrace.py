"""Spans and counts recorded from outside the program, by wrapping the
public functions of each adamqlr module at the name its caller looks up.

Nothing here edits the package: `Tracer.installed()` swaps module and
class attributes for wrappers and puts every original back on exit.
Spans stay in memory as plain lists until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

from adamqlr import autodiff, data, models, optim, params, tape
from adamqlr.bench import cli
from adamqlr.bench import config as config_mod
from adamqlr.bench import rosenbrock

# (owner, attribute, span name): wrapped in a plain span.
SPAN_POINTS = (
    (autodiff, "eval_grad", "autodiff.eval_grad"),
    (autodiff, "eval_loss", "autodiff.eval_loss"),
    (autodiff, "curvature_vp", "autodiff.curvature_vp"),
    (optim, "adam_direction", "optim.adam_direction"),
    (optim, "sgd_step", "optim.sgd_step"),
    (tape.Tape, "backward", "tape.backward"),
    (data, "synthesize", "data.synthesize"),
    (data, "split_dataset", "data.split_dataset"),
    (data, "standardize_splits", "data.standardize_splits"),
    (config_mod, "from_json", "bench.config.from_json"),
)
# (owner, attribute, name of the Tracer method that builds the wrapper).
SPECIAL_POINTS = (
    (optim, "qlr_step", "_qlr_step"),
    (tape, "p_matmul", "_p_matmul"),
    (models, "mlp_objective", "_objective_factory"),
    (rosenbrock, "rosenbrock_objective", "_objective_factory"),
    (data, "batch_iter", "_batch_iter"),
    (params.ParamVector, "__post_init__", "_post_init"),
    (cli, "emit", "_emit"),
)
PATCH_POINTS = tuple((o, a) for o, a, _ in SPAN_POINTS + SPECIAL_POINTS)


def _label(owner, attr: str) -> str:
    name = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
    return f"{name}.{attr}"


def snapshot() -> dict[str, object]:
    """The object currently bound at every patch point, keyed by its name."""
    return {_label(o, a): o.__dict__[a] for o, a in PATCH_POINTS}


PRISTINE = snapshot()


def check_unpatched() -> None:
    """Raise unless every patch point holds the package's own function."""
    changed = [k for k, v in snapshot().items() if v is not PRISTINE[k]]
    if changed:
        raise RuntimeError(f"wrappers still installed at {changed}")


def matmul_madds(a, b) -> int:
    """Multiply-adds of one `p_matmul`, its tangent products included."""
    av, bv = a[0], b[0]
    base = math.prod(av.shape) * (bv.shape[-1] if bv.ndim > 1 else 1)
    return base * (1 + (a[1] is not None) + (b[1] is not None))


# A span is [name, parent index or -1, start, end, job, epoch].
NAME, PARENT, START, END, JOB, EPOCH = range(6)


class Tracer:
    """Collects spans and counts; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)  # per job
        self._stack: list[int] = []
        self.job = -1
        self.epoch = 0

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, self.job, self.epoch])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def job_span(self, job: int):
        """Root span of one job; every span it encloses carries `job`."""
        self.job, self.epoch = job, 0
        with self.span("job"):
            yield

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- purpose-built wrappers -----------------------------------------

    def _p_matmul(self, fn):
        def counted(a, b):
            self.counts[self.job]["tape.matmul_madds"] += matmul_madds(a, b)
            return fn(a, b)

        return counted

    def _objective_factory(self, fn):
        """The returned Objective has traced `trace`/`value`/`predict`."""

        def factory(*args, **kwargs):
            obj = fn(*args, **kwargs)
            changes = {
                "trace": self.wrap(obj.trace, "models.trace"),
                "value": self.wrap(obj.value, "models.value"),
            }
            if obj.predict is not None:
                changes["predict"] = self.wrap(obj.predict, "models.predict")
            return dataclasses.replace(obj, **changes)

        return factory

    def _batch_iter(self, fn):
        def batches(*args, **kwargs) -> Iterator:
            self.epoch += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self._open("data.batch")
                try:
                    batch = next(it, None)
                finally:
                    self._close(idx)
                if batch is None:
                    self.spans.pop()  # timed the end of the epoch, not a batch
                    return
                self.counts[self.job]["data.batch_bytes"] += (
                    batch.inputs.nbytes + batch.targets.nbytes
                )
                yield batch

        return batches

    def _post_init(self, fn):
        def counted(vec):
            self.counts[self.job]["params.vectors"] += 1
            return fn(vec)

        return counted

    def _emit(self, fn):
        def traced(records, path, format="jsonl"):
            idx = self._open("bench.records.emit")
            try:
                return fn(records, path, format)
            finally:
                self._close(idx)
                self.counts[self.job]["bench.records.bytes"] += os.path.getsize(path)

        return traced

    def _qlr_step(self, fn):
        """Span plus guard-event deltas read from the returned state."""
        traced = self.wrap(fn, "optim.qlr_step")

        def step(obj, params_, batch, state, cfg, *rest, **kwargs):
            out = traced(obj, params_, batch, state, cfg, *rest, **kwargs)
            self.counts[self.job]["optim.qlr_steps"] += 1
            for event, n in out[1].events.items():
                delta = n - state.events.get(event, 0)
                if delta:
                    self.counts[self.job][f"optim.guard.{event.value}"] += delta
            return out

        return step

    # -- install / remove -----------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        originals = [(o, a, o.__dict__[a]) for o, a in PATCH_POINTS]
        try:
            for owner, attr, name in SPAN_POINTS:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], name))
            for owner, attr, make in SPECIAL_POINTS:
                setattr(owner, attr, getattr(self, make)(owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


# -- analysis -------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [
        s[END] - s[START] - covered(children.get(i, []), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def summary(samples: list[float]) -> tuple[float, float, int, float]:
    """(median, tail, n, tail percentile) of a list of samples.

    The tail is the highest percentile with at least ten samples above
    it; with ten samples or fewer it is the maximum.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0, 0.0
    xs = sorted(samples)
    mid = n // 2
    median = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    if n <= 10:
        return median, xs[-1], n, 100.0
    return median, xs[n - 11], n, 100.0 * (n - 10) / n
