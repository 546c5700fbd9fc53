"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402
from spantrace import PATCH_POINTS, PRISTINE, Tracer, check_unpatched, snapshot  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_of_hand_built_span_tree():
    # [name, parent, start, end, job, epoch]
    spans = [
        ["root", -1, 0.0, 10.0, 0, 0],
        ["a", 0, 1.0, 4.0, 0, 0],
        ["a.child", 1, 2.0, 3.0, 0, 0],
        ["b", 0, 3.5, 6.0, 0, 0],  # overlaps a: covered once, not twice
        ["c", 0, 8.0, 12.0, 0, 0],  # runs past its parent: clipped to it
    ]
    assert spantrace.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0])


def test_summary_tail_has_ten_samples_above_it():
    med, tail, n, pct = spantrace.summary([float(x) for x in range(25)])
    assert (med, tail, n) == (12.0, 14.0, 25)
    assert sum(1 for x in range(25) if x > tail) == 10
    assert pct == pytest.approx(60.0)
    assert spantrace.summary([3.0, 1.0, 2.0])[:3] == (2.0, 3.0, 3)
    assert spantrace.summary([]) == (0.0, 0.0, 0, 0.0)


def test_matmul_madds_count_tangent_products():
    import numpy as np

    a, b = np.zeros((4, 3)), np.zeros((3, 5))
    assert spantrace.matmul_madds((a, None), (b, None)) == 60
    assert spantrace.matmul_madds((a, a), (b, b)) == 180
    assert spantrace.matmul_madds((a, None), (np.zeros(3), None)) == 12


def test_wrappers_are_installed_at_every_patch_point_and_removed_after():
    check_unpatched()
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            current = snapshot()
            assert all(current[k] is not PRISTINE[k] for k in PRISTINE)
            with pytest.raises(RuntimeError):
                check_unpatched()
            raise KeyError("a failing traced job")
    assert all(v is PRISTINE[k] for k, v in snapshot().items())
    assert len(PRISTINE) == len(PATCH_POINTS)


def test_untraced_run_sees_the_original_functions(tmp_path, monkeypatch):
    seen = []
    real_job = workloads.run_rosenbrock_job

    def job(*args):
        seen.append(all(v is PRISTINE[k] for k, v in snapshot().items()))
        return real_job(*args)

    monkeypatch.setattr(workloads, "run_rosenbrock_job", job)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    res = run.run("rosenbrock-presets", seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert seen == [True, False]  # one untraced job, then its traced twin
    assert not res["problems"]
    check_unpatched()
    assert layers.layer_metrics(res)[0]["trace.top_level_share"][0] > 0.95


@pytest.mark.parametrize("name", ["fmnist784-ggn", "energy-ggn"])
def test_calls_per_step_match_the_qlr_cost_contract(tmp_path, name):
    """1 gradient, 1 curvature product, 1 loss per step, plus train/val/test
    evaluation after every epoch."""
    w = workloads.WORKLOADS[name]
    cfg = workloads.train_config(name, 0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = Tracer()
    with tracer.installed(), tracer.job_span(0):
        job = workloads.run_train_job(w, 0, cfg_path, tmp_path / "out.jsonl")
    assert not job.problems
    res = {"workload": w, "tracer": tracer, "traced_jobs": [job], "pairs": []}
    metrics, _ = layers.layer_metrics(res)
    epochs = cfg["epochs"]
    assert metrics["autodiff.eval_grad_per_step"][0] == 1.0
    assert metrics["autodiff.curvature_vp_per_step"][0] == 1.0
    assert metrics["autodiff.eval_loss_per_step"][0] == 1.0 + 3 * epochs / w.steps
    assert metrics["tape.backward_calls_per_step"][0] == 2.0
    assert metrics["optim.accepted_step_ratio"][0] == 1.0
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert list(workloads.WORKLOADS) == [x["name"] for x in BENCHMARK["workloads"]]

    job.host_s = 2 * hostspeed.NOMINAL_S  # a host at half speed
    e2e = run.end_to_end({**res, "jobs": [job], "setups": [0.5], "setup_hosts": [job.host_s],
                          "peak_rss_mb": 1.0})[0]
    assert sorted(e2e) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert e2e["setup_s"][0] == pytest.approx(0.25)
    assert e2e["steps_per_s"][0] == pytest.approx(2 * job.steps / job.seconds)


def test_benchmark_exits_2_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "energy-ggn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
