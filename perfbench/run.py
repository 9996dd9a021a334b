"""Benchmark the scalefit CLI end to end, or layer by layer with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --quick

--trace 0 runs the workload's command script as `python -m scalefit`
subprocesses, one after another (a closed loop with one client), and reports
the end-to-end metrics. --trace 1 runs the same script in-process through
scalefit.cli.main with every layer's public functions wrapped, and reports
the per-layer metrics. --quick shrinks the inputs and runs one repetition,
for the benchmark's own tests. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full record
(environment, input sha256, every command) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; commands still running at this point are killed.
HARD_LIMIT_S = 165.0
SETUP_SAMPLES = 3

# Timings are CPU seconds (user + system, every thread) of the scalefit process.
# On a 2-vCPU virtual machine sharing its host, wall time of identical commands
# drifts by up to 30% within minutes as other tenants come and go; CPU time
# drifts about half as much. Wall-time twins are recorded beside them.
END_TO_END = {
    "setup_s": "s",
    "cmd_cpu_s_p50": "s",
    "cmd_cpu_s_tail": "s",
    "script_cpu_s": "s",
    "rows_per_cpu_s": "1/s",
    "objective_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def run_subprocess(argv: list[str], cwd: Path, deadline: float) -> tuple[float, float, int, int, str]:
    """Run one command to completion; returns (wall s, CPU s, exit code, max RSS KiB, stderr tail)."""
    with open(cwd / "cmd.stdout", "wb") as out, open(cwd / "cmd.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=harness.cli_env())
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (cwd / "cmd.stderr").read_text(errors="replace").strip().splitlines()
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss, stderr[-1] if stderr else ""


def measure_setup(work: Path, samples: int, deadline: float) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of a fresh `python -m scalefit --help`, after one untimed warm-up."""
    argv = [sys.executable, "-m", "scalefit", "--help"]
    times = []
    for i in range(samples + 1):
        wall, cpu, code, _, err = run_subprocess(argv, work, deadline)
        if code != 0:
            raise SystemExit(f"scalefit --help failed with exit code {code}: {err}")
        if i:
            times.append((wall, cpu))
    return times


def run_untraced(wl, seed: int, seconds: float, quick: bool, started: float) -> dict:
    tag = f"{wl.name}-seed{seed}-trace0"
    work, inputs = harness.prepare(wl, tag)
    deadline = started + HARD_LIMIT_S
    setup = measure_setup(work, 1 if quick else SETUP_SAMPLES, deadline)
    checker = harness.Checker(work, wl.commands)
    runs: list[harness.CommandRun] = []
    begin = time.monotonic()
    rep, complete = 0, True
    while complete:
        for cmd in wl.commands:
            if time.monotonic() > deadline:
                complete = False
                break
            wall, cpu, code, rss, err = run_subprocess(
                [sys.executable, "-m", "scalefit", *harness.fill(cmd, work, rep)], work, deadline)
            run = harness.CommandRun(rep, cmd.key, wall, code, rss, cpu)
            checker.check(cmd, run, err)
            runs.append(run)
        rep += 1
        # Whole repetitions only, so every run measures the same mix of commands.
        if quick or time.monotonic() + (time.monotonic() - begin) / rep > begin + seconds:
            break
    return summarize(wl, seed, seconds, quick, setup, runs, inputs, tag, rep, complete)


def summarize(wl, seed, seconds, quick, setup, runs, inputs, tag, reps, complete) -> dict:
    by_key = {c.key: c for c in wl.commands}
    tail_pct = harness.tail([r.wall_s for r in runs])[1]
    failed = sum(1 for r in runs if r.outcome.misses)

    def rate(select, amount, clock: str) -> float:
        chosen = [r for r in runs if select(by_key[r.key])]
        spent = sum(getattr(r, clock) for r in chosen)
        return sum(amount(r) for r in chosen) / spent if spent else 0.0

    def per_clock(clock: str) -> dict:
        times = [getattr(r, clock) for r in runs]
        return {
            "p50": statistics.median(times),
            "tail": harness.tail(times)[0],
            "script": statistics.median(sum(getattr(r, clock) for r in runs if r.rep == i) for i in range(reps)),
            "rows": rate(lambda c: c.rows > 0, lambda r: by_key[r.key].rows, clock),
        }

    ratios = [x for r in runs for x in r.outcome.objective_ratios]
    ares = [x for r in runs for x in r.outcome.ares]
    cpu, wall = per_clock("cpu_s"), per_clock("wall_s")
    values = {
        "setup_s": statistics.median(c for _, c in setup),
        "cmd_cpu_s_p50": cpu["p50"],
        "cmd_cpu_s_tail": cpu["tail"],
        "script_cpu_s": cpu["script"],
        "rows_per_cpu_s": cpu["rows"],
        "objective_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "peak_rss_mb": max((r.maxrss_kb for r in runs), default=0) / 1024.0,
        "fail_share": failed / len(runs) if runs else 1.0,
        "setup_wall_s": statistics.median(w for w, _ in setup),
        "cmd_s_p50": wall["p50"],
        "cmd_s_tail": wall["tail"],
        "script_s": wall["script"],
        "rows_per_s": wall["rows"],
        "square_fits_per_s": rate(lambda c: c.loss == "square", lambda r: r.outcome.fits, "wall_s"),
        "huber_fits_per_s": rate(lambda c: c.loss == "huber", lambda r: r.outcome.fits, "wall_s"),
        "fits_per_s": rate(lambda c: c.loss is not None, lambda r: r.outcome.fits, "wall_s"),
        "are_mean": sum(ares) / len(ares) if ares else 0.0,
        "objective_sum": sum(x for r in runs for x in r.outcome.objectives),
    }
    extra = {k: v for k, v in values.items() if k not in END_TO_END}
    extra.update({
        "tail_percentile": tail_pct,
        "commands": len(runs),
        "repetitions": reps,
        "complete": complete,
        "setup_samples_s": setup,
    })
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": 0, "quick": quick,
        "environment": harness.environment(), "inputs": inputs, "metrics": metrics, "extra": extra,
        "runs": [r.to_dict() for r in runs],
    }
    path = harness.write_result(tag, record)
    print(f"workload {wl.name} seed {seed}: {len(runs)} commands in {reps} repetition(s), "
          f"{failed} failed; record in {path.relative_to(harness.ROOT)}")
    for k, m in metrics.items():
        print(f"  {k:<20} {m['value']:.6g} {m['unit']}")
    print(f"  the tails are p{tail_pct:.0f} of {len(runs)} commands in {reps} repetition(s)")
    for k, v in extra.items():
        if isinstance(v, float):
            print(f"  {k:<20} {v:.6g}")
    for r in runs:
        for miss in r.outcome.misses:
            print(f"  MISS rep {r.rep}: {miss}")
    if not complete:
        print(f"  INCOMPLETE: the script did not finish within {HARD_LIMIT_S:.0f} s")
    return {"correct": failed == 0 and complete, "attempted": len(runs), "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    raise harness.Terminated()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one repetition")
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    if not harness.program_present():
        print(f"scalefit sources not found under {harness.SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            wl = WORKLOADS[name](args.seed, args.quick)
            if args.trace:
                results[name] = tracing.run_traced(wl, args.seed, args.seconds, args.quick, started, HARD_LIMIT_S)
            else:
                results[name] = run_untraced(wl, args.seed, args.seconds, args.quick, started)
            started = time.monotonic()
    except harness.Terminated:
        print("terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
