"""Tests of the benchmark itself, so the harness cannot rot.

Run from the root of the repository: python -m pytest perfbench
Each workload runs once in quick mode (small inputs, one repetition, every
check on), untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=175)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric_and_no_miss(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_matches_the_code():
    import run
    import tracing

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    def digests(seed: int) -> dict:
        out = {}
        for file, content in workloads.WORKLOADS[name](seed, True).inputs.items():
            if file.endswith(".csv"):
                path = tmp_path / f"{seed}-{file}"
                gen.write_csv(path, content)
                out[file] = gen.sha256(path)
        return out

    assert digests(3) == digests(3)
    assert digests(3) != digests(4)


def test_checks_catch_a_wrong_are(tmp_path):
    from scalefit import cli

    wl = workloads.cli_small(0, True)
    gen.write_csv(tmp_path / "small.csv", wl.inputs["small.csv"])
    fit = next(c for c in wl.commands if c.key == "fit-clean")
    argv = [a.replace("{in}", str(tmp_path)).replace("{out}", str(tmp_path / "out")) for a in fit.argv]
    assert cli.main(argv) == 0
    clean = workloads.Outcome()
    fit.check(tmp_path / "out", clean, {})
    assert clean.misses == [] and clean.fits == 1

    report = tmp_path / "out" / "eval_report.json"
    payload = json.loads(report.read_text())
    payload["are"] *= 1.5
    payload["are"] += 1e-3
    report.write_text(json.dumps(payload))
    tampered = workloads.Outcome()
    fit.check(tmp_path / "out", tampered, {})
    assert any("ARE" in miss for miss in tampered.misses)
