"""The experiment scripts run end to end on small inputs."""

import fnmatch
import math
import runpy
import shutil
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


def _identity_main():
    return runpy.run_path(str(SCRIPTS / "identity.py"))["main"]


# Two quick commands of the identity check's fixed list, one per kind of output.
IDENTITY_SUBSET = "rosenbrock-adam,gradcheck"


def test_identity_check_passes_a_tree_against_itself(capsys):
    assert _identity_main()([str(SCRIPTS.parent), "--only", IDENTITY_SUBSET]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 commands, 7 files compared, 0 differ"]


def test_identity_check_catches_a_one_ulp_constant_change(tmp_path, capsys):
    shutil.copytree(SCRIPTS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    models = tmp_path / "src" / "adamqlr" / "models.py"
    text = models.read_text()
    assert text.count("b: float = 100.0\n") == 1
    one_ulp_up = f"b: float = {math.nextafter(100.0, 101.0)!r}\n"
    models.write_text(text.replace("b: float = 100.0\n", one_ulp_up))
    assert _identity_main()([str(tmp_path), "--only", IDENTITY_SUBSET]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: rosenbrock-adam.csv",
        "differs: rosenbrock-adam.stdout",
        "2 commands, 7 files compared, 2 differ",
    ]


def test_identity_bootstrap_reads_only_its_named_record_files():
    script = runpy.run_path(str(SCRIPTS / "identity.py"))
    commands = dict(script["COMMANDS"])
    args = commands["bootstrap"]
    pattern = args[args.index("--inputs") + 1]
    # Every file a side's directory holds: configs, inputs, outputs and streams.
    names = set(script["CONFIGS"]) | set(script["INPUTS"]) | {
        f"{name}.{kind}" for name in commands for kind in ("stdout", "stderr", "exit")
    } | {a[a.index("--out") + 1] for a in commands.values() if "--out" in a}
    assert sorted(fnmatch.filter(names, pattern)) == [
        "records-energy.jsonl", "records-fmnist.jsonl"
    ]
