"""Shared benchmark plumbing.

Every experiment registers the rows of its would-be figure/table through the
``experiment`` fixture; ``pytest_terminal_summary`` prints them all at the
end of the run, so ``pytest benchmarks/ --benchmark-only`` emits the series
the paper-shape claims are judged on (EXPERIMENTS.md is written from these).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

import pytest

from repro.bench import dump_experiment_json, format_table

_TABLES: "OrderedDict[str, dict]" = OrderedDict()


class ExperimentRecorder:
    """Accumulates rows for one experiment id across parametrized tests."""

    def __init__(self, exp_id: str, title: str, headers: list[str]) -> None:
        table = _TABLES.setdefault(
            exp_id, {"title": title, "headers": headers, "rows": []}
        )
        self._rows = table["rows"]

    def row(self, *values) -> None:
        """Append one row (values align with the headers)."""
        self._rows.append(list(values))


@pytest.fixture(scope="module")
def experiment():
    """Factory fixture: ``experiment("F1", "title", [headers...])``."""
    return ExperimentRecorder


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="DIR",
        help="write each experiment table to DIR/BENCH_<id>.json "
        "(the recorded perf trajectory)",
    )
    parser.addoption(
        "--bench-before",
        default=None,
        metavar="DIR",
        help="read DIR/BENCH_<id>.json written by the same benchmark on an "
        "earlier commit (same host); experiments that support it add a "
        "'before' column from it",
    )


@pytest.fixture(scope="module")
def before_rows(request):
    """``before_rows("F20")``: the rows recorded under ``--bench-before``."""
    json_dir = request.config.getoption("--bench-before")

    def rows(exp_id: str) -> list:
        path = os.path.join(json_dir, f"BENCH_{exp_id}.json") if json_dir else None
        if not path or not os.path.exists(path):
            return []
        with open(path) as f:
            return json.load(f)["rows"]

    return rows


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    out = terminalreporter
    out.write_sep("=", "experiment series (paper-shape reproduction)")
    json_dir = config.getoption("--bench-json")
    for exp_id, table in _TABLES.items():
        out.write_line("")
        out.write_line(f"[{exp_id}] {table['title']}")
        out.write_line(format_table(table["headers"], table["rows"]))
        if json_dir:
            path = dump_experiment_json(
                json_dir, exp_id, table["title"], table["headers"], table["rows"]
            )
            out.write_line(f"(written to {path})")
