"""Command-line surface.

Subcommands: ingest, fit, eval, grid, transfer, downscale, cv, pca, synth.
Exit codes: 0 success, 2 usage/config error, 3 data validation error,
4 fit non-convergence. Every artifact is written atomically and the same
input and config always reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from .errors import ScalefitError, ValidationError
from .law import ALT_HUBER_DELTA, PARAM_NAMES, FitConfig, FitResult, LawParams, fit
from .meta import (
    DEFAULT_STAR_THRESHOLDS,
    efficiency_stars,
    iso_flop_contours,
    loo_family_cv,
    pca_params,
    run_grid,
)
from .metrics import EvalReport, are, baseline_best_performance, baseline_most_trained
from .records import ScaledFamily, family_summary, ingest, select_corpus, serialize
from .subsets import (
    DEFAULT_TARGET_FRACTION,
    SubsetSpec,
    build_target,
    build_train,
    downscale_split,
    select_train_target,
)
from .synth import SynthSpec, generate

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
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Config handling: YAML document, flags override file values
# ---------------------------------------------------------------------------

_SECTION_KEYS = {
    "subset": {f.name for f in fields(SubsetSpec)},
    "fit": {f.name for f in fields(FitConfig)},
    "grid": {"num_models", "train_fractions", "contour_levels", "star_thresholds"},
    "transfer": {"A", "alpha"},
    "downscale": {"k"},
    "pca": {"standardize"},
    "synth": {f.name for f in fields(SynthSpec)},
    "eval": {"params", "baseline"},
}

_TOP_KEYS = {"input", "family", "corpus", "out", "target_fraction", "emit_svg", *_SECTION_KEYS}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise UsageError(f"config {path} is not valid YAML: {exc}") from exc
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a mapping at the top level")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for name, keys in _SECTION_KEYS.items():
        unknown = set(_mapping(cfg.get(name), f"{name} section")) - keys
        if unknown:
            raise UsageError(f"unknown {name} config keys: {', '.join(sorted(unknown))}")
    return cfg


def _mapping(value, what: str) -> dict:
    """A copy of a config section or params object; None reads as empty, a non-mapping is a usage error."""
    if not isinstance(value, (dict, type(None))):
        raise UsageError(f"{what} must be a mapping, got {type(value).__name__}")
    return dict(value or {})


def _number(value, kind: type, what: str):
    """kind(value) for a config or params value; a bool, a fraction for an int or a value kind rejects is a usage error."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be a number, got {value!r}") from None


def _numbers(values, kind: type, what: str) -> list:
    """A config list of numbers; a scalar or a mapping in its place is a usage error."""
    if not isinstance(values, (list, tuple)):
        raise UsageError(f"{what} must be a list, got {values!r}")
    return [_number(v, kind, what) for v in values]


def pick(flag_value, cfg: dict, key: str, default=None):
    if flag_value is not None:
        return flag_value
    value = cfg.get(key)
    return default if value is None else value


def parse_delta(text: str) -> float:
    if text == "alt":
        return ALT_HUBER_DELTA
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"delta must be a number or 'alt', got {text!r}")


def subset_from(cfg: dict) -> SubsetSpec:
    try:
        return SubsetSpec.from_dict(_mapping(cfg.get("subset"), "subset section"))
    except (ValidationError, TypeError) as exc:
        raise UsageError(f"bad subset config: {exc}") from exc


def fit_config_from(cfg: dict, args, frozen: dict | None = None) -> FitConfig:
    section = _mapping(cfg.get("fit"), "fit section")
    if getattr(args, "loss", None) is not None:
        section["loss_kind"] = args.loss
    if getattr(args, "delta", None) is not None:
        section["delta"] = args.delta
    if frozen is not None:
        section["frozen"] = frozen
    try:
        if isinstance(section.get("delta"), str):
            section["delta"] = parse_delta(section["delta"])
        return FitConfig(**section)
    except (ValidationError, TypeError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad fit config: {exc}") from exc


def target_fraction_from(cfg: dict) -> float:
    value = cfg.get("target_fraction", DEFAULT_TARGET_FRACTION)
    if not isinstance(value, (int, float)) or not (0.0 < float(value) <= 1.0):
        raise UsageError(f"target_fraction must lie in (0, 1], got {value}")
    return float(value)


# ---------------------------------------------------------------------------
# Input selection
# ---------------------------------------------------------------------------


def load_families(args, cfg: dict) -> list[ScaledFamily]:
    source = pick(args.input, cfg, "input")
    if source is None:
        raise UsageError("no input: pass --input or set 'input' in the config")
    path = Path(source)
    if not path.exists():
        raise UsageError(f"input path does not exist: {path}")
    return ingest(path, getattr(args, "format", None))


def find_family(families: list[ScaledFamily], wanted: str) -> ScaledFamily:
    for fam in families:
        if fam.family_id == wanted:
            return fam
    known = ", ".join(f.family_id for f in families)
    raise ValidationError(f"family '{wanted}' not in input (have: {known})")


def pick_family(families: list[ScaledFamily], args, cfg: dict) -> ScaledFamily:
    wanted = pick(args.family, cfg, "family")
    if wanted is not None:
        return find_family(families, wanted)
    if len(families) == 1:
        return families[0]
    raise UsageError(
        f"input holds {len(families)} families; pass --family (have: "
        + ", ".join(f.family_id for f in families) + ")"
    )


def apply_corpus(family: ScaledFamily, args, cfg: dict) -> ScaledFamily:
    # --corpus "" selects records with no corpus tag; flag absent means no filter.
    corpus = pick(args.corpus, cfg, "corpus")
    if corpus is None:
        return family
    return select_corpus(family, corpus or None)


def _load_family(args, cfg: dict) -> ScaledFamily:
    """The one family a single-family command works on, corpus filter applied."""
    return apply_corpus(pick_family(load_families(args, cfg), args, cfg), args, cfg)


def out_dir(args, cfg: dict) -> Path:
    return Path(pick(args.out, cfg, "out", "."))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: dict) -> int:
    families = load_families(args, cfg)
    summaries = [family_summary(f).to_dict() for f in families]
    out = out_dir(args, cfg)
    write_atomic(out / "ingest_summary.json", to_json({"families": summaries}))
    for s in summaries:
        print(
            f"family {s['family_id']}: {s['model_count']} models, "
            f"{s['checkpoint_count']} checkpoints"
        )
    print(f"wrote {out / 'ingest_summary.json'}")
    return EXIT_OK


def _fit_envelope(family_id: str, spec: SubsetSpec, target_fraction: float, result: FitResult) -> str:
    return to_json(
        {
            "family_id": family_id,
            "subset": spec.to_dict(),
            "target_fraction": target_fraction,
            "fit": result.to_dict(),
        }
    )


def _print_eval(report: EvalReport) -> None:
    print(
        f"ARE {report.are:.6f} on {report.n_targets} target checkpoints "
        f"(meaningful-difference floor {report.meaningful_floor})"
    )


def _run_fit_command(args, cfg: dict, family: ScaledFamily, frozen: dict | None, downscale_k=None) -> int:
    spec = subset_from(cfg)
    config = fit_config_from(cfg, args, frozen=frozen)
    fraction = target_fraction_from(cfg)
    if downscale_k is not None:
        train, target = downscale_split(family, downscale_k, fraction)
    else:
        target, train = build_target(family, fraction), build_train(family, spec)
    result = fit(train, config)
    out = out_dir(args, cfg)
    write_atomic(out / "fit_result.json", _fit_envelope(family.family_id, spec, fraction, result))
    print(
        f"family {family.family_id}: fit {'converged' if result.converged else 'did NOT converge'} "
        f"(objective {result.objective:.6g}, {train.num_runs} size families, {result.n_points} records)"
    )
    wrote = [out / "fit_result.json"]
    if result.converged:
        report = are(result.params, target)
        write_atomic(out / "eval_report.json", report.to_json())
        write_atomic(out / "eval_report.csv", report.to_csv())
        wrote += [out / "eval_report.json", out / "eval_report.csv"]
        _print_eval(report)
    print("wrote " + " ".join(str(p) for p in wrote))
    if not result.converged:
        raise ConvergenceFailure(f"no restart converged for family '{family.family_id}'")
    return EXIT_OK


def cmd_fit(args, cfg: dict) -> int:
    return _run_fit_command(args, cfg, _load_family(args, cfg), frozen=None)


def cmd_transfer(args, cfg: dict) -> int:
    section = _mapping(cfg.get("transfer"), "transfer section")
    frozen_a = args.frozen_A if args.frozen_A is not None else section.get("A")
    frozen_alpha = args.frozen_alpha if args.frozen_alpha is not None else section.get("alpha")
    if frozen_a is None or frozen_alpha is None:
        raise UsageError(
            "transfer requires explicit frozen values: pass --frozen-A and --frozen-alpha "
            "(or set transfer: {A: ..., alpha: ...} in the config)"
        )
    frozen = {"A": _number(frozen_a, float, "A"), "alpha": _number(frozen_alpha, float, "alpha")}
    return _run_fit_command(args, cfg, _load_family(args, cfg), frozen=frozen)


def cmd_downscale(args, cfg: dict) -> int:
    k = pick(args.k, _mapping(cfg.get("downscale"), "downscale section"), "k")
    family = _load_family(args, cfg)
    k = max(1, family.num_runs - 1) if k is None else _number(k, int, "downscale k")
    return _run_fit_command(args, cfg, family, frozen=None, downscale_k=k)


def cmd_eval(args, cfg: dict) -> int:
    family = _load_family(args, cfg)
    fraction = target_fraction_from(cfg)
    target = build_target(family, fraction)
    section = _mapping(cfg.get("eval"), "eval section")
    params_path = args.params if args.params is not None else section.get("params")
    baseline = args.baseline if args.baseline is not None else section.get("baseline")
    if (params_path is None) == (baseline is None):
        raise UsageError("eval needs exactly one of --params PATH or --baseline {best,most-trained}")
    out = out_dir(args, cfg)
    if baseline is not None:
        train = build_train(family, subset_from(cfg))
        if baseline == "best":
            report = baseline_best_performance(train, target)
        elif baseline == "most-trained":
            report = baseline_most_trained(train, target)
        else:
            raise UsageError(f"unknown baseline '{baseline}' (expected 'best' or 'most-trained')")
        stem = f"baseline_{baseline.replace('-', '_')}"
    else:
        report = are(_read_params(params_path), target)
        stem = "eval_report"
    write_atomic(out / f"{stem}.json", report.to_json())
    write_atomic(out / f"{stem}.csv", report.to_csv())
    _print_eval(report)
    print(f"wrote {out / (stem + '.json')} {out / (stem + '.csv')}")
    return EXIT_OK


def _read_params(path: str) -> LawParams:
    """Law parameters from a fit_result.json envelope, a {"params": ...} object, or a bare object."""
    try:
        payload = _mapping(json.loads(Path(path).read_text(encoding="utf-8")), f"params file {path}")
    except OSError as exc:
        raise UsageError(f"cannot read params file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"params file {path} is not valid JSON: {exc}") from exc
    params = _mapping(payload.get("fit"), "fit").get("params", payload.get("params", payload))
    params = _mapping(params, f"params in {path}")
    return LawParams.from_dict({n: _number(params[n], float, f"param {n}") for n in PARAM_NAMES if n in params})


def _positive_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def cmd_grid(args, cfg: dict) -> int:
    family = _load_family(args, cfg)
    section = _mapping(cfg.get("grid"), "grid section")
    num_models = args.num_models if args.num_models is not None else section.get("num_models")
    fractions = args.train_fractions if args.train_fractions is not None else section.get("train_fractions")
    if not num_models or not fractions:
        raise UsageError(
            "grid needs both axes: --num-models and --train-fractions "
            "(or grid: {num_models: [...], train_fractions: [...]} in the config)"
        )
    num_models = _numbers(num_models, int, "grid num_models")
    fractions = _numbers(fractions, float, "grid train_fractions")
    try:
        for k, q in itertools.zip_longest(num_models, fractions):
            SubsetSpec(num_models=k, train_fraction_max=q)
    except ValidationError as exc:
        raise UsageError(f"bad grid axis: {exc}") from exc
    config = fit_config_from(cfg, args)
    report = run_grid(family, num_models, fractions, config, target_fraction_from(cfg))
    levels = section.get("contour_levels")
    if levels is None:
        flops = sorted({c.train_flops for c in report.cells})
        if len(flops) == 1:
            levels = [flops[0]]
        else:
            levels = [float(v) for v in np.geomspace(flops[0], flops[-1], 5)[1:-1]]
    contours = iso_flop_contours(report.cells, _numbers(levels, float, "grid contour_levels"))
    thresholds = section.get("star_thresholds", DEFAULT_STAR_THRESHOLDS)
    thresholds = _numbers(thresholds, float, "grid star_thresholds")
    stars = efficiency_stars(report.cells, thresholds)

    out = out_dir(args, cfg)
    write_atomic(out / "grid.csv", report.to_csv())
    write_atomic(out / "grid_contours.json", to_json([c.to_dict() for c in contours]))
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
    write_atomic(out / "grid_stars.json", to_json(star_payload))
    wrote = [out / "grid.csv", out / "grid_contours.json", out / "grid_stars.json"]
    emit_svg = cfg.get("emit_svg", True) and not args.no_svg
    if emit_svg:
        from .svgplot import grid_heatmap_svg

        write_atomic(out / "grid.svg", grid_heatmap_svg(report, contours, stars))
        wrote.append(out / "grid.svg")
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
    print("wrote " + " ".join(str(p) for p in wrote))
    return EXIT_OK


def cmd_cv(args, cfg: dict) -> int:
    family = _load_family(args, cfg)
    config = fit_config_from(cfg, args)
    report = loo_family_cv(family, config, target_fraction_from(cfg))
    out = out_dir(args, cfg)
    write_atomic(out / "cv.json", to_json(report.to_dict()))
    write_atomic(out / "cv.csv", report.to_csv())
    for row in report.rows:
        shown = f"{row.are:.6f}" if row.are is not None else f"failed ({row.failure})"
        print(f"held out {row.model_id} (seed {row.seed}): ARE {shown}")
    print(f"wrote {out / 'cv.json'} {out / 'cv.csv'}")
    if all(row.failure is not None for row in report.rows):
        # Exit 4 only when some fold failed by non-convergence; data shortfalls exit 3, as in pca.
        failure = ConvergenceFailure if any(r.failure == "non-convergence" for r in report.rows) else ValidationError
        raise failure(f"every cross-validation fold failed for family '{family.family_id}'")
    return EXIT_OK


def cmd_pca(args, cfg: dict) -> int:
    families = load_families(args, cfg)
    wanted = pick(args.family, cfg, "family")
    if wanted is not None:
        families = [find_family(families, wanted)]
    families = [apply_corpus(f, args, cfg) for f in families]
    section = _mapping(cfg.get("pca"), "pca section")
    standardize = section.get("standardize", True) and not args.no_standardize
    spec = subset_from(cfg)
    config = fit_config_from(cfg, args)
    fraction = target_fraction_from(cfg)
    fits: list[LawParams] = []
    labels: list[str] = []
    skipped: list[dict] = []
    for family in families:
        try:
            train, _ = select_train_target(family, spec, fraction)
            result = fit(train, config)
        except ScalefitError as exc:
            skipped.append({"family_id": family.family_id, "reason": str(exc)})
            continue
        if not result.converged:
            skipped.append({"family_id": family.family_id, "reason": "non-convergence"})
            continue
        fits.append(result.params)
        labels.append(family.family_id)
    if len(fits) < 2:
        if skipped and any(s["reason"] == "non-convergence" for s in skipped):
            raise ConvergenceFailure(
                f"pca needs >= 2 converged fits, got {len(fits)} "
                f"(skipped: {', '.join(s['family_id'] for s in skipped)})"
            )
        raise ValidationError(f"pca needs >= 2 fittable families, got {len(fits)}")
    report = pca_params(fits, standardize=standardize, labels=labels)
    out = out_dir(args, cfg)
    payload = report.to_dict()
    payload["skipped"] = skipped
    write_atomic(out / "pca.json", to_json(payload))
    write_atomic(out / "pca.csv", report.to_csv())
    ratios = ", ".join(f"{r:.4f}" for r in report.explained_variance_ratio)
    print(f"pca over {len(fits)} fitted families; explained variance ratios: {ratios}")
    print(f"wrote {out / 'pca.json'} {out / 'pca.csv'}")
    return EXIT_OK


def cmd_synth(args, cfg: dict) -> int:
    section = _mapping(cfg.get("synth"), "synth section")
    if not section:
        raise UsageError("synth requires a config file with a 'synth' section (truth, sizes, ...)")
    if args.seed is not None:
        section["rng_seed"] = args.seed
    try:
        spec = SynthSpec.from_dict(section)
    except (ValidationError, KeyError, TypeError) as exc:
        raise UsageError(f"bad synth config: {exc}") from exc
    family = generate(spec)
    out = out_dir(args, cfg)
    write_atomic(out / "synthetic.csv", serialize([family], "csv"))
    print(
        f"generated family {family.family_id}: {family.num_runs} runs, "
        f"{len(family.records)} checkpoints"
    )
    print(f"wrote {out / 'synthetic.csv'}")
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
    fitting.add_argument("--delta", type=parse_delta, help="Huber transition point (number or 'alt')")

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
    p_grid.add_argument("--num-models", type=lambda s: [int(t) for t in s.split(",") if t.strip()],
                        help="comma-separated axis, e.g. 3,4,5")
    p_grid.add_argument("--train-fractions", type=_positive_floats, help="comma-separated axis, e.g. 0.25,0.5,1")
    p_grid.add_argument("--no-svg", action="store_true", help="skip the SVG heatmap")

    p_transfer = sub.add_parser("transfer", parents=[fitting], help="fit (E, B, beta) with frozen (A, alpha)")
    p_transfer.add_argument("--frozen-A", type=float, dest="frozen_A", help="fixed A value")
    p_transfer.add_argument("--frozen-alpha", type=float, dest="frozen_alpha", help="fixed alpha value")

    p_down = sub.add_parser("downscale", parents=[fitting], help="train on the largest runs, predict the smallest")
    p_down.add_argument("--k", type=int, help="how many largest size families to train on")

    sub.add_parser("cv", parents=[fitting], help="leave-one-size-family-out cross-validation")

    p_pca = sub.add_parser("pca", parents=[fitting], help="PCA over per-family fitted 5-vectors")
    p_pca.add_argument("--no-standardize", action="store_true", help="use covariance instead of correlation")

    sub.add_parser("synth", parents=[common], help="generate a synthetic family from a config").add_argument(
        "--seed", type=int, help="overrides synth.rng_seed"
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
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
