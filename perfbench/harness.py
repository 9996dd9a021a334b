"""Pieces shared by the untraced and the traced run: work directory, inputs,
argument filling, output checks, environment record and summary statistics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gen
from workloads import Command, Outcome, Workload

ROOT = Path.cwd()  # the benchmark runs from the root of a checkout
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class Terminated(BaseException):
    """Raised on SIGTERM. A BaseException, so neither the CLI's error handling
    nor the traced run's command boundary can swallow it."""


def program_present() -> bool:
    return (SRC / "scalefit" / "__init__.py").is_file()


def prepare(wl: Workload, tag: str) -> tuple[Path, dict]:
    """Fresh work directory with the workload's inputs; returns it and the inputs' sha256."""
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    digests = {}
    for name, content in wl.inputs.items():
        path = work / "in" / name
        if name.endswith(".csv"):
            gen.write_csv(path, content)
        elif name.endswith(".jsonl"):
            gen.write_jsonl(path, content)
        else:  # YAML config; JSON is valid YAML
            path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        digests[name] = {"sha256": gen.sha256(path), "bytes": path.stat().st_size}
    return work, digests


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fill(cmd: Command, work: Path, rep: int) -> list[str]:
    def one(arg: str) -> str:
        arg = arg.replace("{in}", str(work / "in")).replace("{out}", str(out_dir(work, rep, cmd.key)))
        if arg.startswith("{prev:"):
            key, rest = arg[len("{prev:"):].split("}", 1)
            arg = str(out_dir(work, rep, key)) + rest
        return arg
    return [one(a) for a in cmd.argv]


def out_dir(work: Path, rep: int, key: str) -> Path:
    return work / "out" / f"r{rep}" / key


@dataclass
class CommandRun:
    rep: int
    key: str
    wall_s: float
    exit_code: int
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    outcome: Outcome = field(default_factory=Outcome)

    def to_dict(self) -> dict:
        return {"rep": self.rep, "key": self.key, "wall_s": self.wall_s, "exit_code": self.exit_code, "cpu_s": self.cpu_s,
                "maxrss_kb": self.maxrss_kb, "fits": self.outcome.fits, "misses": self.outcome.misses}


class Checker:
    """Checks each command's artifacts, including byte-identity with the first repetition."""

    def __init__(self, work: Path, commands: list[Command]):
        self.work = work
        self.keys = [c.key for c in commands]
        self.first: dict[str, dict[str, str]] = {}

    def check(self, cmd: Command, run: CommandRun, stderr_tail: str = "") -> None:
        out = run.outcome
        if run.exit_code != 0:
            out.misses.append(f"{cmd.key}: exit code {run.exit_code} {stderr_tail}".rstrip())
            return
        directory = out_dir(self.work, run.rep, cmd.key)
        digests = {}
        for name in cmd.artifacts:
            path = directory / name
            if not path.is_file():
                out.misses.append(f"{cmd.key}: missing artifact {name}")
                continue
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        cmd.check(directory, out, {k: out_dir(self.work, run.rep, k) for k in self.keys})
        if cmd.key not in self.first:
            self.first[cmd.key] = digests
        else:
            for name, digest in digests.items():
                if self.first[cmd.key].get(name) != digest:
                    out.misses.append(f"{cmd.key}: {name} differs from the first repetition")


def environment() -> dict:
    """Host and build facts, kept beside the metrics and never inside an artifact."""
    import numpy

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = None
    config = getattr(numpy, "__config__", None)
    if config is not None and isinstance(getattr(config, "CONFIG", None), dict):
        deps = config.CONFIG.get("Build Dependencies", {})
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    threads = {k: v for k, v in os.environ.items()
               if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version,
        "python_executable": sys.executable,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "PyYAML": version("PyYAML"),
        "blas": blas,
        "thread_env": threads,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    Below 21 samples every such percentile lies under the median, so the
    median stands in for the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def write_result(tag: str, payload: dict) -> Path:
    path = WORK / "results" / f"{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
