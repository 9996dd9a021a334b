"""Command-line surface.

Subcommands: ingest, fit, eval, grid, transfer, downscale, cv, pca, synth.
Exit codes: 0 success, 2 usage/config error, 3 data validation error,
4 fit non-convergence. Every artifact is written atomically and the same
input and config always reproduce byte-identical outputs.

main(argv) runs one command and returns its exit code. entry(), behind the
`scalefit` command and `python -m scalefit`, runs main() and ends the
process as soon as stdout and stderr are flushed, skipping the interpreter's
teardown.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import ScalefitError, ValidationError
from .metrics import EvalReport, are, baseline_best_performance, baseline_most_trained
from .records import (ScaledFamily, _ingest_cached, _write_atomic, check_one_corpus, family_summary, json_text,
                      select_corpus, serialize)
from .specs import ALT_HUBER_DELTA, FitConfig, LawParams, SynthSpec, check_count, check_real
from .subsets import (
    DEFAULT_TARGET_FRACTION,
    SubsetSpec,
    build_target,
    build_train,
    downscale_split,
)

# numpy loads with the solver (law), meta, synth and svgplot: each command imports what it runs, so
# help, usage errors, ingest and the baselines start without it.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4


class UsageError(Exception):
    """Bad flags or config content; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are usage errors, reported as one JSON line like every other."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class ConvergenceFailure(Exception):
    """Fit finished without convergence; maps to exit code 4."""


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, [text.encode("utf-8")])


# ---------------------------------------------------------------------------
# Settings: one table, flags laid over the YAML document, every value checked
# ---------------------------------------------------------------------------


def parse_delta(value, what: str) -> float:
    """A Huber delta: a number, or 'alt' for ALT_HUBER_DELTA."""
    return ALT_HUBER_DELTA if value == "alt" else check_real(value, what)


# Every setting the CLI resolves itself: (section, key) -> (flag dest, kind, default). Section None
# is the config's top level. A kind is str, bool, a number rule (check_count, check_real or parse_delta),
# or a one-element list of one (a list of that kind). A given flag wins over the config value, and a flag's
# text goes through the same rule; a null value, here or in any section, is unset.
SETTINGS = {
    (None, "input"): ("input", str, None),
    (None, "family"): ("family", str, None),
    (None, "corpus"): ("corpus", str, None),
    (None, "out"): ("out", str, "."),
    (None, "target_fraction"): (None, check_real, DEFAULT_TARGET_FRACTION),
    (None, "emit_svg"): ("emit_svg", bool, True),
    ("fit", "loss_kind"): ("loss", str, None),
    ("fit", "delta"): ("delta", parse_delta, None),
    ("grid", "num_models"): ("num_models", [check_count], None),
    ("grid", "train_fractions"): ("train_fractions", [check_real], None),
    ("grid", "contour_levels"): (None, [check_real], None),
    ("grid", "star_thresholds"): (None, [check_real], None),
    ("transfer", "A"): ("frozen_A", check_real, None),
    ("transfer", "alpha"): ("frozen_alpha", check_real, None),
    ("downscale", "k"): ("k", check_count, None),
    ("pca", "standardize"): ("standardize", bool, True),
    ("eval", "params"): ("params", str, None),
    ("eval", "baseline"): ("baseline", str, None),
    ("synth", "rng_seed"): ("seed", check_count, None),
}

# Accepted keys per section (None: the top level); the dataclass-owned sections take their fields.
CONFIG_KEYS = {None: set(), **{name: {f.name for f in fields(cls)} for name, cls in (
    ("subset", SubsetSpec), ("fit", FitConfig), ("synth", SynthSpec))}}
for _section, _key in SETTINGS:
    CONFIG_KEYS.setdefault(_section, set()).add(_key)
CONFIG_KEYS[None] |= set(CONFIG_KEYS) - {None}


def _mapping(value, what: str) -> dict:
    """A copy of a config section or params object; None reads as empty, a non-mapping is a usage error."""
    if not isinstance(value, (dict, type(None))):
        raise UsageError(f"{what} must be a mapping, got {type(value).__name__}")
    return dict(value or {})


def _check(value, kind, what: str):
    """value checked against a setting's kind (see SETTINGS); a mismatch is a usage error."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise UsageError(f"{what} must be a list, got {value!r}")
        return [_check(v, kind[0], what) for v in value]
    if kind in (str, bool):
        if not isinstance(value, kind):
            raise UsageError(f"{what} must be {'a string' if kind is str else 'true or false'}, got {value!r}")
        return value
    try:
        return kind(value, what)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


@contextlib.contextmanager
def _usage_errors(what: str):
    """Report a ValidationError raised inside as a usage error about what."""
    try:
        yield
    except ValidationError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def settings(args) -> dict:
    """The run's settings: the --config document with every given flag laid over it.

    Unknown keys and values of the wrong kind are usage errors. Top-level settings sit at the top;
    each section is a dict, except "subset" and "fit", which come back as SubsetSpec and FitConfig.
    """
    document = None
    if args.config is not None:
        import yaml  # only a --config run pays for the import

        try:
            document = yaml.safe_load(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise UsageError(f"config {args.config} is not valid YAML: {exc}") from exc
    cfg = _mapping(document, f"config {args.config}")
    for name, keys in CONFIG_KEYS.items():
        if name is not None:
            cfg[name] = {k: v for k, v in _mapping(cfg.get(name), f"{name} section").items() if v is not None}
        unknown = set(cfg if name is None else cfg[name]) - keys
        if unknown:
            label = "" if name is None else f"{name} "
            raise UsageError(f"unknown {label}config keys: {', '.join(sorted(map(str, unknown)))}")
    for (section, key), (dest, kind, default) in SETTINGS.items():
        where = cfg if section is None else cfg[section]
        for value in (where.get(key), vars(args).get(dest)):
            if value is not None:
                where[key] = _check(value, kind, key if section is None else f"{section} {key}")
        if where.get(key) is None and default is not None:
            where[key] = default
    if not 0.0 < cfg["target_fraction"] <= 1.0:
        raise UsageError(f"target_fraction must lie in (0, 1], got {cfg['target_fraction']}")
    k, levels = cfg["downscale"].get("k"), cfg["grid"].get("contour_levels")
    if k is not None and k < 1:
        raise UsageError(f"downscale k must be >= 1, got {k}")
    if levels is not None and not all(level > 0 for level in levels):
        raise UsageError(f"grid contour_levels must be positive, got {levels}")
    with _usage_errors("subset config"):
        cfg["subset"] = SubsetSpec(**cfg["subset"])
    with _usage_errors("fit config"):
        cfg["fit"] = FitConfig(**cfg["fit"])
    return cfg


def write_artifacts(cfg: dict, artifacts: dict[str, str]) -> None:
    """Write each named artifact atomically into the out directory, then print the one 'wrote' line."""
    out = Path(cfg["out"])
    for name, text in artifacts.items():
        write_atomic(out / name, text)
    print("wrote " + " ".join(str(out / name) for name in artifacts))


# ---------------------------------------------------------------------------
# Input selection
# ---------------------------------------------------------------------------


def load_families(cfg: dict, fmt: str | None = None, family: str | None = None) -> list[ScaledFamily]:
    """The input's families as records.ingest reads them, or only the one family names (an unknown one raises);
    a log of 1 MiB or more goes through the ingest cache."""
    source = cfg.get("input")
    if source is None:
        raise UsageError("no input: pass --input or set 'input' in the config")
    path = Path(source)
    # Path("") is the working directory, so an empty input would read as one.
    if not source or path.is_dir():
        raise UsageError(f"input path must name a file, got {source!r}")
    if not path.exists():
        raise UsageError(f"input path does not exist: {path}")
    return _ingest_cached(path, fmt, family)


def select_families(cfg: dict, fmt: str | None = None) -> list[ScaledFamily]:
    """The input's families, or the one the family setting names, with the corpus setting applied."""
    families, corpus = load_families(cfg, fmt, cfg.get("family")), cfg.get("corpus")
    # corpus "" selects records with no corpus tag; unset means no filter.
    return families if corpus is None else [select_corpus(f, corpus or None) for f in families]


def _load_family(cfg: dict) -> ScaledFamily:
    """The one family a single-family command works on."""
    families = select_families(cfg)
    if len(families) > 1:
        known = ", ".join(f.family_id for f in families)
        raise UsageError(f"input holds {len(families)} families; pass --family (have: {known})")
    return families[0]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: dict) -> int:
    families = select_families(cfg, args.format)
    summaries = [family_summary(f).to_dict() for f in families]
    for s in summaries:
        print(
            f"family {s['family_id']}: {s['model_count']} models, "
            f"{s['checkpoint_count']} checkpoints"
        )
    write_artifacts(cfg, {"ingest_summary.json": json_text({"families": summaries})})
    return EXIT_OK


def _print_eval(report: EvalReport) -> None:
    print(
        f"ARE {report.are:.6f} on {report.n_targets} target checkpoints "
        f"(meaningful-difference floor {report.meaningful_floor})"
    )


def _run_fit_command(cfg: dict, family: ScaledFamily, config: FitConfig, downscale_k=None) -> int:
    from .law import fit

    spec, fraction = cfg["subset"], cfg["target_fraction"]
    if downscale_k is not None:
        train, target = downscale_split(family, downscale_k, fraction)
    else:
        target, train = build_target(family, fraction), build_train(family, spec)
    result = fit(train, config)
    print(
        f"family {family.family_id}: fit {'converged' if result.converged else 'did NOT converge'} "
        f"(objective {result.objective:.6g}, {train.num_runs} size families, {result.n_points} records)"
    )
    envelope = {"family_id": family.family_id, "subset": spec.to_dict(), "target_fraction": fraction,
                "fit": result.to_dict()}
    artifacts = {"fit_result.json": json_text(envelope)}
    try:  # the fit is written even when scoring it overflows
        if result.converged:
            report = are(result.params, target)
            artifacts.update({"eval_report.json": report.to_json(), "eval_report.csv": report.to_csv()})
            _print_eval(report)
    finally:
        write_artifacts(cfg, artifacts)
    if not result.converged:
        raise ConvergenceFailure(f"no restart converged for family '{family.family_id}'")
    return EXIT_OK


def cmd_fit(args, cfg: dict) -> int:
    return _run_fit_command(cfg, _load_family(cfg), cfg["fit"])


def cmd_transfer(args, cfg: dict) -> int:
    frozen = {"A": cfg["transfer"].get("A"), "alpha": cfg["transfer"].get("alpha")}
    if None in frozen.values():
        raise UsageError(
            "transfer requires explicit frozen values: pass --frozen-A and --frozen-alpha "
            "(or set transfer: {A: ..., alpha: ...} in the config)"
        )
    with _usage_errors("fit config"):
        config = replace(cfg["fit"], frozen=frozen)
    return _run_fit_command(cfg, _load_family(cfg), config)


def cmd_downscale(args, cfg: dict) -> int:
    family = _load_family(cfg)
    k = cfg["downscale"].get("k")
    return _run_fit_command(cfg, family, cfg["fit"], downscale_k=max(1, family.num_runs - 1) if k is None else k)


def cmd_eval(args, cfg: dict) -> int:
    family = _load_family(cfg)
    target = build_target(family, cfg["target_fraction"])
    params_path, baseline = cfg["eval"].get("params"), cfg["eval"].get("baseline")
    if (params_path is None) == (baseline is None):
        raise UsageError("eval needs exactly one of --params PATH or --baseline {best,most-trained}")
    check_one_corpus(family, "eval")
    if baseline is not None:
        score = {"best": baseline_best_performance, "most-trained": baseline_most_trained}.get(baseline)
        if score is None:
            raise UsageError(f"unknown baseline '{baseline}' (expected 'best' or 'most-trained')")
        report = score(build_train(family, cfg["subset"]), target)
        stem = f"baseline_{baseline.replace('-', '_')}"
    else:
        report = are(_read_params(params_path), target)
        stem = "eval_report"
    _print_eval(report)
    write_artifacts(cfg, {f"{stem}.json": report.to_json(), f"{stem}.csv": report.to_csv()})
    return EXIT_OK


def _read_params(path: str) -> LawParams:
    """Law parameters from a fit_result.json envelope, a {"params": ...} object, or a bare object."""
    try:
        payload = _mapping(json.loads(Path(path).read_text(encoding="utf-8")), f"params file {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"params file {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read params file {path}: {exc}") from exc
    params = _mapping(payload.get("fit"), "fit").get("params", payload.get("params", payload))
    with _usage_errors(f"params in {path}"):
        return LawParams.from_dict(params)


def _comma_list(text: str) -> list[str]:
    """A comma-separated flag value as its items, blank ones skipped; settings() reads each by its kind."""
    return [tok for tok in text.split(",") if tok.strip()]


def cmd_grid(args, cfg: dict) -> int:
    import numpy as np

    from .meta import DEFAULT_STAR_THRESHOLDS, efficiency_stars, iso_flop_contours, run_grid

    family = _load_family(cfg)
    section = cfg["grid"]
    num_models, fractions = section.get("num_models"), section.get("train_fractions")
    if not num_models or not fractions:
        raise UsageError(
            "grid needs both axes: --num-models and --train-fractions "
            "(or grid: {num_models: [...], train_fractions: [...]} in the config)"
        )
    with _usage_errors("grid axis"):
        for k, q in itertools.zip_longest(num_models, fractions):
            SubsetSpec(num_models=k, train_fraction_max=q)
    report = run_grid(family, num_models, fractions, cfg["fit"], cfg["target_fraction"])
    levels = section.get("contour_levels")
    if levels is None:
        # A level must be positive, and a cell whose train set is empty costs 0 FLOPs.
        flops = sorted({c.train_flops for c in report.cells if c.train_flops > 0})
        # float() first: geomspace of ints past 2**63 would build an object array and fail.
        levels = flops if len(flops) <= 1 else [
            float(v) for v in np.geomspace(float(flops[0]), float(flops[-1]), 5)[1:-1]]
    contours = iso_flop_contours(report.cells, levels)
    thresholds = section.get("star_thresholds", DEFAULT_STAR_THRESHOLDS)
    stars = efficiency_stars(report.cells, thresholds)

    star_payload = {
        f"{t:g}": None
        if cell is None
        else {
            "num_models": cell.num_models,
            "train_fraction": cell.train_fraction,
            "are": cell.are,
            "train_flops": float(cell.train_flops),
        }
        for t, cell in stars.items()
    }
    artifacts = {
        "grid.csv": report.to_csv(),
        "grid_contours.json": json_text([c.to_dict() for c in contours]),
        "grid_stars.json": json_text(star_payload),
    }
    if cfg["emit_svg"]:
        from .svgplot import grid_heatmap_svg

        artifacts["grid.svg"] = grid_heatmap_svg(report, contours, stars)
    converged = sum(1 for c in report.cells if c.converged)
    print(f"grid over {len(report.cells)} cells ({converged} converged) for family {family.family_id}")
    for t in thresholds:
        cell = stars[t]
        if cell is None:
            print(f"  ARE <= {t:g}: no qualifying cell")
        else:
            print(
                f"  ARE <= {t:g}: {cell.num_models} models, fraction {cell.train_fraction:g}, "
                f"{cell.train_flops:.3g} FLOPs"
            )
    write_artifacts(cfg, artifacts)
    return EXIT_OK


def _fail_every_unit(failures: list, message: str, data_message: str | None = None) -> None:
    """Fail a command left with no usable fold or family: exit 4 if any failed by non-convergence, else 3."""
    if "non-convergence" in failures:
        raise ConvergenceFailure(message)
    raise ValidationError(data_message or message)


def cmd_cv(args, cfg: dict) -> int:
    from .meta import loo_family_cv

    family = _load_family(cfg)
    report = loo_family_cv(family, cfg["fit"], cfg["target_fraction"])
    for row in report.rows:
        shown = f"{row.are:.6f}" if row.are is not None else f"failed ({row.failure})"
        print(f"held out {row.model_id} (seed {row.seed}): ARE {shown}")
    write_artifacts(cfg, {"cv.json": json_text(report.to_dict()), "cv.csv": report.to_csv()})
    if all(row.failure is not None for row in report.rows):
        _fail_every_unit([row.failure for row in report.rows],
                         f"every cross-validation fold failed for family '{family.family_id}'")
    return EXIT_OK


def cmd_pca(args, cfg: dict) -> int:
    from .law import fit
    from .meta import pca_params

    families = select_families(cfg)
    fits: list[LawParams] = []
    labels: list[str] = []
    skipped: list[dict] = []
    for family in families:
        try:
            result = fit(build_train(family, cfg["subset"]), cfg["fit"])  # fit applies the config's shortfall rule
        except ScalefitError as exc:
            skipped.append({"family_id": family.family_id, "reason": str(exc)})
            continue
        if not result.converged:
            skipped.append({"family_id": family.family_id, "reason": "non-convergence"})
            continue
        fits.append(result.params)
        labels.append(family.family_id)
    if len(fits) < 2:
        _fail_every_unit(
            [s["reason"] for s in skipped],
            f"pca needs >= 2 converged fits, got {len(fits)} (skipped: {', '.join(s['family_id'] for s in skipped)})",
            f"pca needs >= 2 fittable families, got {len(fits)}"
            + "".join(f"; skipped {s['family_id']}: {s['reason']}" for s in skipped),
        )
    report = pca_params(fits, standardize=cfg["pca"]["standardize"], labels=labels)
    payload = report.to_dict()
    payload["skipped"] = skipped
    ratios = ", ".join(f"{r:.4f}" for r in report.explained_variance_ratio)
    print(f"pca over {len(fits)} fitted families; explained variance ratios: {ratios}")
    write_artifacts(cfg, {"pca.json": json_text(payload), "pca.csv": report.to_csv()})
    return EXIT_OK


def cmd_synth(args, cfg: dict) -> int:
    from .synth import generate

    with _usage_errors("synth config"):
        spec = SynthSpec.from_dict(cfg["synth"])
    family = generate(spec)
    print(
        f"generated family {family.family_id}: {family.num_runs} runs, "
        f"{len(family)} checkpoints"
    )
    write_artifacts(cfg, {"synthetic.csv": serialize([family], "csv")})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="checkpoint log (CSV or JSONL)")
    common.add_argument("--family", help="family_id to analyze when the input holds several")
    common.add_argument("--corpus", help="held-out corpus to select ('' for untagged records)")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--config", help="YAML config; flags override file values")

    fitting = argparse.ArgumentParser(add_help=False, parents=[common])
    fitting.add_argument("--loss", choices=("square", "huber"), help="objective kind")
    fitting.add_argument("--delta", help="Huber transition point (number or 'alt')")

    parser = _Parser(
        prog="scalefit",
        description="Fit, evaluate, and meta-analyze scaling laws from checkpoint logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser("ingest", parents=[common], help="validate a log and write summaries").add_argument(
        "--format", choices=("csv", "jsonl"), help="override format inference"
    )
    sub.add_parser("fit", parents=[fitting], help="fit the law on the standard split")

    p_eval = sub.add_parser("eval", parents=[common], help="score stored params or a baseline")
    p_eval.add_argument("--params", help="fit_result.json (or bare params JSON) to score")
    p_eval.add_argument("--baseline", choices=("best", "most-trained"), help="fit-free baseline")

    p_grid = sub.add_parser("grid", parents=[fitting], help="ARE over (num_models, train_fraction)")
    p_grid.add_argument("--num-models", type=_comma_list, help="comma-separated axis, e.g. 3,4,5")
    p_grid.add_argument("--train-fractions", type=_comma_list, help="comma-separated axis, e.g. 0.25,0.5,1")
    p_grid.add_argument("--no-svg", dest="emit_svg", action="store_false", default=None, help="skip the SVG heatmap")

    p_transfer = sub.add_parser("transfer", parents=[fitting], help="fit (E, B, beta) with frozen (A, alpha)")
    p_transfer.add_argument("--frozen-A", dest="frozen_A", help="fixed A value")
    p_transfer.add_argument("--frozen-alpha", dest="frozen_alpha", help="fixed alpha value")

    p_down = sub.add_parser("downscale", parents=[fitting], help="train on the largest runs, predict the smallest")
    p_down.add_argument("--k", help="how many largest size families to train on")

    sub.add_parser("cv", parents=[fitting], help="leave-one-size-family-out cross-validation")

    p_pca = sub.add_parser("pca", parents=[fitting], help="PCA over per-family fitted 5-vectors")
    p_pca.add_argument("--no-standardize", dest="standardize", action="store_false", default=None,
                       help="use covariance instead of correlation")

    sub.add_parser("synth", parents=[common], help="generate a synthetic family from a config").add_argument(
        "--seed", help="overrides synth.rng_seed"
    )
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "grid": cmd_grid,
    "transfer": cmd_transfer,
    "downscale": cmd_downscale,
    "cv": cmd_cv,
    "pca": cmd_pca,
    "synth": cmd_synth,
}


def _error_json(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, settings(args))
    except UsageError as exc:
        _error_json("usage", str(exc))
        return EXIT_USAGE
    except ConvergenceFailure as exc:
        _error_json("non-convergence", str(exc))
        return EXIT_NO_CONVERGENCE
    except (ScalefitError, OverflowError) as exc:
        _error_json("data", str(exc))
        return EXIT_DATA
    except OSError as exc:
        _error_json("io", str(exc))
        return EXIT_USAGE


# numpy's BLAS gets one thread unless the user sets these: scalefit's matrices are a few columns
# wide, so a BLAS worker thread never helps and spins on a second core.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def entry() -> None:
    """The process entry point: set the BLAS thread defaults before any command loads numpy, run main(), then end
    the process once stdout and stderr are flushed, without the interpreter's teardown.

    The teardown (a last collection, clearing every module, freeing every object) does nothing a command needs:
    every file scalefit writes is closed before main() returns (records._write_atomic's with block), and neither
    scalefit, numpy nor PyYAML registers an atexit handler. --help's SystemExit(0) takes the same exit; any other
    exception leaves as it would without this. A stream that cannot be flushed (a closed stdout pipe) leaves
    through sys.exit, so Python reports it and sets the status as it does for any program.
    """
    for name in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    try:
        code = main()
    except SystemExit as exc:
        if exc.code != 0:
            raise
        code = EXIT_OK
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without that file descriptor
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
