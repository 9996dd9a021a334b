"""Traced run: the workload's script in-process through scalefit.cli.main.

Each layer's public functions are replaced, from outside the package, at
every scalefit module that bound them by name (so scalefit.cli.fit,
scalefit.meta.fit and scalefit.law.fit all record the same span). Spans
(name, start, end, parent) stay in memory and are written once at the end.
Repetitions alternate untraced and traced, and the difference of their
walls is the tracing overhead. Import costs come from `-X importtime` in a
fresh interpreter, since the traced process has already imported scalefit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import harness

IMPORTS = {
    "import.scalefit_cli_s": "scalefit.cli",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.numpy_s": "numpy",
    "import.yaml_s": "yaml",
}


class Overtime(BaseException):
    """Raised to abandon a run that would outlive the benchmark's time limit.

    A BaseException, so the CLI's own error handling cannot swallow it.
    """


def _fit_counts(args, kwargs, result, duration):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        config = importlib.import_module("scalefit.law").FitConfig()
    return {"law.fit.points": result.n_points, "law.fit.restarts": config.restarts,
            "law.fit.converged": int(result.converged), f"law.fit.{config.loss_kind}.s": duration}


# (module, attribute, span name, counter(args, kwargs, result, duration) -> {metric: amount})
LAYERS = [
    ("scalefit.records", "ingest", "records.ingest",
     lambda a, k, r, d: {"records.ingest.rows": sum(len(f.records) for f in r)}),
    ("scalefit.records", "ScaledFamily.from_records", "records.ScaledFamily.from_records",
     lambda a, k, r, d: {"records.ScaledFamily.from_records.records": len(r.records)}),
    ("scalefit.records", "serialize", "records.serialize",
     lambda a, k, r, d: {"records.serialize.bytes": len(r.encode())}),
    ("scalefit.synth", "generate", "synth.generate", lambda a, k, r, d: {"synth.generate.rows": len(r.records)}),
    ("scalefit.law", "fit", "law.fit", _fit_counts),
    ("scalefit.law", "predict_records", "law.predict_records",
     lambda a, k, r, d: {"law.predict_records.rows": len(r)}),
    ("scalefit.metrics", "are", "metrics.are", lambda a, k, r, d: {"metrics.are.targets": r.n_targets}),
    ("scalefit.metrics", "baseline_best_performance", "metrics.baseline", None),
    ("scalefit.metrics", "baseline_most_trained", "metrics.baseline", None),
    ("scalefit.subsets", "select_train_target", "subsets.select_train_target", None),
    ("scalefit.subsets", "build_train", "subsets.build_train", None),
    ("scalefit.subsets", "build_target", "subsets.build_target", None),
    ("scalefit.subsets", "downscale_split", "subsets.downscale_split", None),
    ("scalefit.meta", "run_grid", "meta.run_grid",
     lambda a, k, r, d: {"meta.cells_failed": sum(1 for c in r.cells if c.failure)}),
    ("scalefit.meta", "loo_family_cv", "meta.loo_family_cv", None),
    ("scalefit.meta", "pca_params", "meta.pca_params", None),
    ("scalefit.meta", "iso_flop_contours", "meta.iso_flop_contours", None),
    ("scalefit.meta", "efficiency_stars", "meta.efficiency_stars", None),
    ("scalefit.svgplot", "grid_heatmap_svg", "svgplot.grid_heatmap_svg",
     lambda a, k, r, d: {"svgplot.grid_heatmap_svg.bytes": len(r.encode())}),
    ("scalefit.cli", "main", "cli.main", None),
    ("scalefit.cli", "write_atomic", "cli.write_atomic",
     lambda a, k, r, d: {"cli.write_atomic.bytes": len(a[1].encode())}),
]

# Every per-layer metric: name -> (unit, better). Values are per repetition of the script.
PER_LAYER = {name: ("s", "lower") for name in IMPORTS}
for _layer, _fields in [
    ("records.ingest", ("calls", "s", "rows", "rows_per_s")),
    ("records.ScaledFamily.from_records", ("calls", "s", "records")),
    ("records.serialize", ("calls", "s", "bytes")),
    ("synth.generate", ("calls", "s", "rows")),
    ("law.fit", ("calls", "s", "points", "restarts", "converged_ratio", "s_per_restart")),
    ("law.fit.square", ("s",)),
    ("law.fit.huber", ("s",)),
    ("law.predict_records", ("calls", "s", "rows")),
    ("metrics.are", ("calls", "s", "targets")),
    ("metrics.baseline", ("calls", "s")),
    ("subsets.select_train_target", ("calls", "s")),
    ("subsets.build_train", ("calls", "s")),
    ("subsets.build_target", ("calls", "s")),
    ("subsets.downscale_split", ("calls", "s")),
    ("meta.run_grid", ("calls", "s", "self_s")),
    ("meta.loo_family_cv", ("calls", "s", "self_s")),
    ("meta.pca_params", ("s",)),
    ("meta.iso_flop_contours", ("s",)),
    ("meta.efficiency_stars", ("s",)),
    ("svgplot.grid_heatmap_svg", ("s", "bytes")),
    ("cli.main", ("calls", "s", "self_s")),
    ("cli.write_atomic", ("calls", "s", "bytes")),
]:
    for _field in _fields:
        PER_LAYER[f"{_layer}.{_field}"] = {
            "calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower"),
            "s_per_restart": ("s", "lower"), "rows": ("count", "lower"), "records": ("count", "lower"),
            "points": ("count", "lower"), "restarts": ("count", "lower"), "targets": ("count", "lower"),
            "bytes": ("B", "lower"), "rows_per_s": ("1/s", "higher"), "converged_ratio": ("ratio", "higher"),
        }[_field]
PER_LAYER.update({
    "meta.cells_failed": ("count", "lower"),
    "law.fit.wall_share": ("ratio", "lower"),
    "records.ingest.wall_share": ("ratio", "lower"),
    "trace.rep_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.patched: list[tuple] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result, span[2] - span[1]).items():
                    self.counts[key] += amount
            return result
        return wrapper

    def install(self) -> None:
        scalefit_modules = [m for n, m in sys.modules.items() if n == "scalefit" or n.startswith("scalefit.")]
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:  # a classmethod
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self.patched.append((cls, method, original))
                setattr(cls, method, classmethod(self._wrap(name, original.__func__, counter)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in scalefit_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
        return totals


def import_times(samples: int, deadline: float) -> dict[str, float]:
    """Median cumulative import time per module, from `-X importtime` in a fresh interpreter."""
    argv = [sys.executable, "-X", "importtime", "-c", "import scalefit.cli"]
    seen: dict[str, list[float]] = defaultdict(list)
    for _ in range(samples):
        proc = subprocess.run(argv, capture_output=True, text=True, env=harness.cli_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise SystemExit(f"importing scalefit.cli failed: {proc.stderr.strip().splitlines()[-1:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if match:
                cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
        for metric, module in IMPORTS.items():
            seen[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in seen.items()}


def call_main(cli, argv: list[str], work) -> tuple[float, int, str]:
    with open(work / "cmd.stdout", "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), ""
        except Exception:  # a traceback escaping the CLI is a failed command, not a dead benchmark
            code, error = 1, traceback.format_exc().strip().splitlines()[-1]
        except SystemExit as exc:  # argparse usage errors
            code, error = exc.code if isinstance(exc.code, int) else 2, ""
        return time.perf_counter() - start, code, error


def _overtime(signum, frame):
    raise Overtime()


def run_traced(wl, seed: int, seconds: float, quick: bool, started: float, hard_limit: float) -> dict:
    tag = f"{wl.name}-seed{seed}-trace1"
    work, inputs = harness.prepare(wl, tag)
    deadline = started + hard_limit
    imports = import_times(1 if quick else 3, deadline)
    sys.path.insert(0, str(harness.SRC))
    cli = importlib.import_module("scalefit.cli")
    checker = harness.Checker(work, wl.commands)
    tracer = Tracer()
    runs: list[harness.CommandRun] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    rep, complete = 0, True
    begin = time.monotonic()
    signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, max(0.1, deadline - time.monotonic()))
    try:
        while True:
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    rep_wall = 0.0
                    for cmd in wl.commands:
                        wall, code, error = call_main(cli, harness.fill(cmd, work, rep), work)
                        run = harness.CommandRun(rep, cmd.key, wall, code)
                        checker.check(cmd, run, error)
                        runs.append(run)
                        rep_wall += wall
                    walls[traced].append(rep_wall)
                finally:
                    tracer.uninstall()
                rep += 1
            pairs = len(walls[True])
            if quick or time.monotonic() + (time.monotonic() - begin) / pairs > begin + seconds:
                break
    except Overtime:
        complete = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    spans_path = work / "spans.json"
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    values = per_layer(tracer, imports, walls)
    failed = sum(1 for r in runs if r.outcome.misses)
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": 1, "quick": quick,
        "environment": harness.environment(), "inputs": inputs, "metrics": metrics,
        "extra": {"untraced_rep_s": walls[False], "traced_rep_s": walls[True], "complete": complete,
                  "spans_file": str(spans_path.relative_to(harness.ROOT))},
        "runs": [r.to_dict() for r in runs],
    }
    path = harness.write_result(tag, record)
    print(f"workload {wl.name} seed {seed} traced: {len(runs)} commands, {len(walls[True])} traced "
          f"repetition(s), {failed} failed; record in {path.relative_to(harness.ROOT)}")
    for k, m in metrics.items():
        print(f"  {k:<45} {m['value']:.6g} {m['unit']}")
    for r in runs:
        for miss in r.outcome.misses:
            print(f"  MISS rep {r.rep}: {miss}")
    if not complete:
        print(f"  INCOMPLETE: the script did not finish within {hard_limit:.0f} s")
    return {"correct": failed == 0 and complete and bool(walls[True]), "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def per_layer(tracer: Tracer, imports: dict, walls: dict) -> dict[str, float]:
    reps = max(1, len(walls[True]))
    values = dict(imports)
    for name, total in tracer.layer_totals().items():
        for field, amount in total.items():
            values[f"{name}.{field}"] = amount / reps
    for key, amount in tracer.counts.items():
        values[key] = amount / reps
    ingest_s = values.get("records.ingest.s", 0.0)
    values["records.ingest.rows_per_s"] = values.get("records.ingest.rows", 0.0) / ingest_s if ingest_s else 0.0
    fit_calls = values.get("law.fit.calls", 0.0)
    values["law.fit.converged_ratio"] = values.pop("law.fit.converged", 0.0) / fit_calls if fit_calls else 0.0
    restarts = values.get("law.fit.restarts", 0.0)
    values["law.fit.s_per_restart"] = values.get("law.fit.s", 0.0) / restarts if restarts else 0.0
    traced_rep = statistics.median(walls[True]) if walls[True] else 0.0
    values["law.fit.wall_share"] = values.get("law.fit.s", 0.0) / traced_rep if traced_rep else 0.0
    values["records.ingest.wall_share"] = ingest_s / traced_rep if traced_rep else 0.0
    values["trace.rep_s"] = statistics.median(walls[False]) if walls[False] else 0.0
    pairs = list(zip(walls[False], walls[True]))
    values["trace.overhead_s"] = statistics.median(t - u for u, t in pairs) if pairs else 0.0
    values["trace.spans"] = len(tracer.spans) / reps
    return values
