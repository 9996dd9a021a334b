"""The benchmark's quick scripts, run in-process with every correctness check and no timing.

Imports perfbench/ read-only (its inputs go to tmp_path), so a change in
scalefit that would fail a benchmark check fails here first. The traced case
runs the script under perfbench's tracer, whose counters read the results of
the functions it wraps, as the benchmark's traced run does.
"""

import importlib
from pathlib import Path

import pytest

import scalefit.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


NAMES = ("cli-small", "sweep", "bulk-log")


@pytest.mark.parametrize("name, traced", [pytest.param(name, False, id=name) for name in NAMES]
                         + [pytest.param(name, True, id=f"{name}-traced") for name in NAMES])
def test_quick_workload_passes_every_benchmark_check(tmp_path, monkeypatch, name, traced):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    monkeypatch.setattr(harness, "WORK", tmp_path)
    wl = workloads.WORKLOADS[name](0, True)
    work, _ = harness.prepare(wl, name)
    checker = harness.Checker(work, wl.commands)
    misses = []
    if traced:
        for module_name, *_ in tracing.LAYERS:  # the tracer patches the modules loaded when it is installed
            importlib.import_module(module_name)
        tracer.install()
    try:
        for cmd in wl.commands:
            run = harness.CommandRun(0, cmd.key, 0.0, cli.main(harness.fill(cmd, work, 0)))
            checker.check(cmd, run)
            misses += run.outcome.misses
    finally:
        tracer.uninstall()
    assert misses == []
    if traced:
        synthetic = [harness.out_dir(work, 0, cmd.key) / "synthetic.csv" for cmd in wl.commands if cmd.key == "synth"]
        rows = sum(len(path.read_text(encoding="utf-8").splitlines()) - 1 for path in synthetic)
        assert tracer.counts.get("synth.generate.rows", 0) == rows
        assert tracer.counts.get("records.ingest.rows", 0) == sum(cmd.rows for cmd in wl.commands)
