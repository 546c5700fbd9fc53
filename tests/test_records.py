"""Metric record serialization round-trips."""

import math
import re

import pytest

from adamqlr.bench.records import FIELDS, MetricRecord, emit, read_records
from adamqlr.data import DataFormatError
from adamqlr.optim import GuardEvent


def sample_records():
    return [
        MetricRecord(
            step=1, epoch=0, wall_time_s=0.25, train_loss=1.2345678912345678e-3,
            alpha=0.1, lam=1e-8, rho=1.0000000013,
        ),
        MetricRecord(
            step=2, epoch=0, wall_time_s=0.5, train_loss=0.9,
            val_loss=1.1, test_loss=1.3, train_acc=0.5, val_acc=0.4, test_acc=0.3,
            alpha=0.0, lam=2e-3, rho=float("nan"),
            guard_event=GuardEvent.NON_DESCENT,
        ),
    ]


def records_equal(a, b):
    for fa, fb in zip(a.to_dict().values(), b.to_dict().values()):
        if isinstance(fa, float) and isinstance(fb, float) and math.isnan(fa):
            assert math.isnan(fb)
        else:
            assert fa == fb


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip(tmp_path, fmt):
    path = tmp_path / f"out.{fmt}"
    records = sample_records()
    emit(records, path, fmt)
    back = read_records(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        records_equal(a, b)


def test_float_round_trip_is_exact(tmp_path):
    value = 0.1 + 0.2  # not representable as a short decimal
    rec = MetricRecord(step=1, epoch=0, wall_time_s=value, train_loss=value)
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"x.{fmt}"
        emit([rec], path, fmt)
        assert read_records(path)[0].train_loss == value


def test_empty_jsonl_is_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit([], path, "jsonl")
    assert path.read_text() == ""
    assert read_records(path) == []


def test_empty_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], path, "csv")
    assert path.read_text().strip() == ",".join(FIELDS)
    assert read_records(path) == []


def test_guard_event_serialized_as_name(tmp_path):
    path = tmp_path / "g.jsonl"
    emit(sample_records(), path, "jsonl")
    text = path.read_text()
    assert '"guard_event": "NON_DESCENT"' in text


def test_csv_missing_optionals_empty(tmp_path):
    path = tmp_path / "m.csv"
    emit([MetricRecord(step=1, epoch=0, wall_time_s=0.0, train_loss=1.0)], path, "csv")
    row = path.read_text().splitlines()[1]
    assert row.endswith(",,,,")  # alpha, lambda, rho, guard_event all empty


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit([], tmp_path / "x.bin", "parquet")



GOOD = {"step": "1", "epoch": "0", "wall_time_s": "0.5", "train_loss": "2.0"}


def jsonl_line(**values) -> str:
    """One JSONL record line: GOOD's JSON texts, with `values` put in."""
    return "{" + ", ".join(f'"{k}": {v}' for k, v in {**GOOD, **values}.items()) + "}\n"


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("step", "1.5", "1.5"),
        ("step", "true", "True"),
        ("step", '"7"', "'7'"),
        ("epoch", "false", "False"),
        ("train_loss", "true", "True"),
        ("train_loss", '"1.0"', "'1.0'"),
        ("wall_time_s", '"inf"', "'inf'"),
        ("alpha", "[0.1]", "[0.1]"),
        ("train_loss", "1" + "0" * 400, "1" + "0" * 400),
    ],
    ids=["float-step", "bool-step", "string-step", "bool-epoch", "bool-loss", "string-loss",
         "string-time", "list-alpha", "overflowing-loss"],
)
def test_jsonl_values_are_not_coerced(tmp_path, key, value, shown):
    # step and epoch take JSON integers, the float fields JSON numbers;
    # neither takes a boolean or a string.
    path = tmp_path / "bad.jsonl"
    path.write_text(jsonl_line() + jsonl_line(**{key: value}))
    with pytest.raises(DataFormatError) as exc:
        read_records(path)
    assert str(exc.value) == f"{path}:2: bad {key!r} value {shown}"


def test_jsonl_float_fields_take_json_integers(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text(jsonl_line(train_loss="2", wall_time_s="0"))
    rec = read_records(path)[0]
    assert (rec.train_loss, rec.wall_time_s) == (2.0, 0.0)
    assert type(rec.train_loss) is float


@pytest.mark.parametrize(
    "row, problem",
    [("1.5,0,0.5,2.0", "bad 'step' value '1.5'"), ("1,0,0.5,x", "bad 'train_loss' value 'x'")],
)
def test_csv_cells_that_do_not_parse_name_the_line(tmp_path, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text("step,epoch,wall_time_s,train_loss\n1,0,0.5,2.0\n" + row + "\n")
    with pytest.raises(DataFormatError) as exc:
        read_records(path)
    assert str(exc.value) == f"{path}:3: {problem}"


@pytest.mark.parametrize("text", [b"\xa3step\n", b"step,epoch\n\xa3\n", b'{"step": 1}\n\xa3\n'])
def test_undecodable_bytes_name_the_file(tmp_path, text):
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(text)
    with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}: ")):
        read_records(path)
