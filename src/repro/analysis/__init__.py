"""Reporting and comparison helpers for the benchmark harness."""

from .report import (
    dagcheck_gate_summary,
    format_table,
    lint_gate_summary,
    shape_check,
)

__all__ = [
    "dagcheck_gate_summary",
    "format_table",
    "lint_gate_summary",
    "shape_check",
]
