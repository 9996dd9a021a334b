"""Fit, evaluate, and meta-analyze saturating power-law scaling fits from checkpoint logs.

Every public name loads with its submodule on first access (PEP 562), so
`import scalefit` costs nothing and numpy loads only with the numeric
modules (law, meta, synth, svgplot).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("IngestError", "InsufficientDataError", "ScalefitError", "ValidationError"),
    "specs": ("ALT_HUBER_DELTA", "DEFAULT_HUBER_DELTA", "FitConfig", "FitResult", "LawParams", "SynthSpec",
              "WarmupBump"),
    "law": ("eval_law", "fit", "huber", "objective_gradient", "objective_value", "predict_records",
            "residual_jacobian", "residuals"),
    "meta": ("ContourLine", "CvReport", "CvRow", "GridCell", "GridReport", "PcaReport", "efficiency_stars",
             "iso_flop_contours", "loo_family_cv", "pca_params", "run_grid", "train_flops"),
    "metrics": ("MEANINGFUL_FLOOR", "EvalReport", "TargetRow", "are", "baseline_best_performance",
                "baseline_most_trained"),
    "records": ("CheckpointRecord", "FamilySummary", "ScaledFamily", "family_summary", "ingest",
                "merge_families", "select_corpus", "serialize"),
    "subsets": ("SubsetSpec", "apply_spec", "build_target", "build_train", "downscale_split",
                "final_checkpoints", "k_largest_runs", "k_smallest_runs", "max_param_family",
                "max_token_family", "select_train_target"),
    "svgplot": ("grid_heatmap_svg",),
    "synth": ("checkpoint_schedule", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
