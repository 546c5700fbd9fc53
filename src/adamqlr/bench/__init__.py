"""Reproduction harness: run configs, training loops, tuning, statistics."""

from .config import ConfigError, RunConfig
from .records import MetricRecord, emit, read_records
from .rosenbrock import run_rosenbrock
from .search import SearchObjective, TrialResult
from .stats import bootstrap_trend
from .training import RunResult, RunStatus, run_training
