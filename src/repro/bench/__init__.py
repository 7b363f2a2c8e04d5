"""Benchmark harness utilities."""

from .harness import (
    RENDERED_REPORTS,
    REPORTS,
    ExperimentReport,
    geometric_sweep,
    paired_times,
    quartiles,
    speedup,
    timed,
    write_reports,
)

__all__ = [
    "ExperimentReport",
    "RENDERED_REPORTS",
    "REPORTS",
    "geometric_sweep",
    "paired_times",
    "quartiles",
    "speedup",
    "timed",
    "write_reports",
]
