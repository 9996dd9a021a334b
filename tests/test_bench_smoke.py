"""The benchmark's quick scripts, run in-process with every correctness check and no timing.

Imports perfbench/ read-only (its inputs go to tmp_path), so a change in
scalefit that would fail a benchmark check fails here first.
"""

import importlib
from pathlib import Path

import pytest

from scalefit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["cli-small", "sweep", "bulk-log"])
def test_quick_workload_passes_every_benchmark_check(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(harness, "WORK", tmp_path)
    wl = workloads.WORKLOADS[name](0, True)
    work, _ = harness.prepare(wl, name)
    checker = harness.Checker(work, wl.commands)
    misses = []
    for cmd in wl.commands:
        run = harness.CommandRun(0, cmd.key, 0.0, main(harness.fill(cmd, work, 0)))
        checker.check(cmd, run)
        misses += run.outcome.misses
    assert misses == []
