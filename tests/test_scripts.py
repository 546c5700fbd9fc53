"""The experiment scripts run end to end on small inputs."""

import runpy
import sys
from pathlib import Path

from adamqlr.bench.records import read_records

SCRIPTS = Path(__file__).parents[1] / "scripts"


def test_energy_benchmark_writes_runs_and_trends(tmp_path, monkeypatch, capsys):
    argv = ["energy_benchmark.py", "--seeds", "2", "--epochs", "3", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "energy_benchmark.py"), run_name="__main__")
    names = ("sgd", "adam", "adamqlr-untuned")
    runs = sorted(tmp_path.glob("*.jsonl"))
    assert [p.name for p in runs] == sorted(f"{n}_seed{s}.jsonl" for n in names for s in (0, 1))
    assert [len(read_records(p)) for p in runs] == [3] * 6  # one full-batch step per epoch
    for name in names:
        header, *rows = (tmp_path / f"{name}_trend.csv").read_text().splitlines()
        assert header == "step,mean,std"
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
    assert len(capsys.readouterr().out.splitlines()) == 3
