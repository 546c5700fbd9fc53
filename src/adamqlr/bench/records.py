"""Per-step metric records and their JSONL/CSV round-trip serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Optional

from ..data import DataFormatError
from ..optim import GuardEvent

_INT_FIELDS = {"step", "epoch"}


@dataclass
class MetricRecord:
    step: int
    epoch: int
    wall_time_s: float
    train_loss: float
    val_loss: Optional[float] = None
    test_loss: Optional[float] = None
    train_acc: Optional[float] = None
    val_acc: Optional[float] = None
    test_acc: Optional[float] = None
    alpha: Optional[float] = None
    lam: Optional[float] = None
    rho: Optional[float] = None
    guard_event: Optional[GuardEvent] = None

    def to_dict(self) -> dict:
        return {key: _encode(f.name, getattr(self, f.name)) for f, key in _KEYED_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricRecord":
        """Fields without a default are required; absent or null optionals are None.
        A missing required field or a value that does not decode raises ValueError."""
        values = {}
        for f, key in _KEYED_FIELDS:
            if d.get(key) is not None:
                values[f.name] = _decode(key, d[key])
            elif f.default is MISSING:
                raise ValueError(f"no {key!r} value")
        return cls(**values)


# Serialized key order is field order; `lambda` is a keyword, so the attribute is `lam`.
_KEYED_FIELDS = tuple((f, "lambda" if f.name == "lam" else f.name) for f in fields(MetricRecord))
FIELDS = tuple(key for _, key in _KEYED_FIELDS)


def _encode(name: str, value):
    # float() also turns numpy scalars into plain floats, whose repr is a bare number
    if value is None:
        return None
    if name == "guard_event":
        return value.name
    return int(value) if name in _INT_FIELDS else float(value)


def _decode(key: str, value):
    """A JSON value as its field's type; a bool is no number and nothing is coerced."""
    try:
        if key == "guard_event":
            return GuardEvent[value]
        number = int if key in _INT_FIELDS else (int, float)
        if isinstance(value, number) and not isinstance(value, bool):
            return value if key in _INT_FIELDS else float(value)
    except (KeyError, TypeError, OverflowError):
        pass
    raise ValueError(f"bad {key!r} value {value!r}")


def emit(records: Iterable[MetricRecord], path, format: str = "jsonl") -> None:
    """Write records as JSONL (one object per line) or CSV (header + rows).

    Each line reaches the file as it is written, so a run whose records
    are drawn here leaves every record it yielded even if it stops early.
    Floats serialize via their shortest round-trip decimal form, so
    `read_records` recovers them exactly.
    """
    if format == "jsonl":
        with open(path, "w", buffering=1) as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_dict()) + "\n")
        return
    if format == "csv":
        with open(path, "w", newline="", buffering=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELDS)
            for rec in records:
                d = rec.to_dict()
                writer.writerow(["" if d[k] is None else _cell(d[k]) for k in FIELDS])
        return
    raise ValueError(f"unknown format {format!r}; expected 'jsonl' or 'csv'")


def _cell(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def read_records(path) -> list[MetricRecord]:
    """Read back a file produced by `emit`, inferring format from content.

    A line that holds no record raises DataFormatError naming `path:line`
    and the missing field or the bad value; undecodable bytes raise it
    naming `path`.
    """
    try:
        with open(path) as fh:
            first = fh.readline()
            fh.seek(0)
            if first.startswith("{") or not first.strip():
                rows = ((n, line) for n, line in enumerate(fh, 1) if line.strip())
                decode = json.loads
            else:
                reader = csv.DictReader(fh)
                rows = ((reader.line_num, row) for row in reader)
                decode = _csv_row
            out = []
            for n, row in rows:
                try:
                    d = decode(row)
                    if not isinstance(d, dict):
                        raise ValueError(f"expected a record object, got {d!r}")
                    out.append(MetricRecord.from_dict(d))
                except ValueError as e:
                    raise DataFormatError(f"{path}:{n}: {e}") from None
            return out
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: {e}") from None


def _csv_row(row: dict) -> dict:
    """A CSV row's non-empty cells of known fields, as the values JSON would hold."""
    return {k: _parse_cell(k, v) for k, v in row.items() if k in FIELDS and v not in ("", None)}


def _parse_cell(key: str, cell: str):
    parse = int if key in _INT_FIELDS else str if key == "guard_event" else float
    try:
        return parse(cell)
    except ValueError:
        raise ValueError(f"bad {key!r} value {cell!r}") from None
