"""Subset constructions over scaled families.

All operations are pure filters: output records are a subset of input
records, equal to a one-line brute-force filter over the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InsufficientDataError, ValidationError
from .records import CheckpointRecord, RunKey, ScaledFamily
from .specs import check_count, check_real, fit_shortfall

DEFAULT_TARGET_FRACTION = 0.3
DEFAULT_CUTOFF_TOKENS = 10_000_000_000


@dataclass(frozen=True)
class SubsetSpec:
    """Declarative train-set filter.

    num_models keeps the k smallest-parameter size families; the fraction
    fields window each run's trajectory by tokens_seen relative to
    total_tokens; cutoff_tokens drops early checkpoints outright.
    """

    num_models: int | None = None
    train_fraction_max: float | None = None
    suffix_fraction: float | None = None
    cutoff_tokens: int | None = None

    def __post_init__(self):
        for name in ("num_models", "cutoff_tokens"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_count(getattr(self, name), name))
        if self.num_models is not None and self.num_models < 1:
            raise ValidationError(f"num_models must be >= 1, got {self.num_models}")
        for name in ("train_fraction_max", "suffix_fraction"):
            value = getattr(self, name)
            if value is not None and not (0.0 < check_real(value, name) <= 1.0):
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
        if self.cutoff_tokens is not None and self.cutoff_tokens < 0:
            raise ValidationError(f"cutoff_tokens must be nonnegative, got {self.cutoff_tokens}")

    def to_dict(self) -> dict:
        return {
            "num_models": self.num_models,
            "train_fraction_max": self.train_fraction_max,
            "suffix_fraction": self.suffix_fraction,
            "cutoff_tokens": self.cutoff_tokens,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SubsetSpec":
        known = {"num_models", "train_fraction_max", "suffix_fraction", "cutoff_tokens"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown subset fields: {', '.join(sorted(unknown))}")
        return cls(**{k: data[k] for k in known if data.get(k) is not None})


def _require_nonempty(family: ScaledFamily, op: str) -> None:
    if family.is_empty:
        raise InsufficientDataError(f"{op}: family '{family.family_id}' is empty")


def max_param_family(family: ScaledFamily) -> ScaledFamily:
    """Records at the largest parameter count present in the family."""
    _require_nonempty(family, "max_param_family")
    top = max(r.num_params for r in family.records)
    return family.with_records(r for r in family.records if r.num_params == top)


def max_token_family(family: ScaledFamily, q: float) -> ScaledFamily:
    """Records with tokens_seen >= q times the family-wide maximum."""
    _require_nonempty(family, "max_token_family")
    if not (0.0 < q <= 1.0):
        raise ValidationError(f"q must lie in (0, 1], got {q}")
    top = max(r.tokens_seen for r in family.records)
    return family.with_records(r for r in family.records if r.tokens_seen >= q * top)


def run_order(family: ScaledFamily) -> list[RunKey]:
    """Size families ordered smallest-first; num_params ties break on model_id, seed."""
    def key(run: RunKey):
        recs = family.size_families[run]
        return (max(r.num_params for r in recs), run[0], run[1])

    return sorted(family.size_families, key=key)


def k_smallest_runs(family: ScaledFamily, k: int) -> ScaledFamily:
    _require_nonempty(family, "k_smallest_runs")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    keep = set(run_order(family)[:k])
    return family.with_records(r for r in family.records if r.run_key in keep)


def k_largest_runs(family: ScaledFamily, k: int) -> ScaledFamily:
    _require_nonempty(family, "k_largest_runs")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    order = run_order(family)
    keep = set(order[len(order) - min(k, len(order)):])
    return family.with_records(r for r in family.records if r.run_key in keep)


def final_checkpoints(family: ScaledFamily) -> ScaledFamily:
    """The last checkpoint of every run (highest tokens_seen per size family)."""
    _require_nonempty(family, "final_checkpoints")
    kept: list[CheckpointRecord] = []
    for recs in family.size_families.values():
        kept.append(max(recs, key=lambda r: r.tokens_seen))
    return family.with_records(kept)


def apply_spec(family: ScaledFamily, spec: SubsetSpec) -> ScaledFamily:
    """Filter a family per a SubsetSpec; may leave some runs empty (dropped)."""
    out = family
    if spec.num_models is not None and not out.is_empty:
        out = k_smallest_runs(out, spec.num_models)
    records: Iterable[CheckpointRecord] = out.records
    if spec.train_fraction_max is not None:
        q = spec.train_fraction_max
        records = [r for r in records if r.tokens_seen <= q * r.total_tokens]
    if spec.suffix_fraction is not None:
        q = spec.suffix_fraction
        records = [r for r in records if r.tokens_seen >= (1.0 - q) * r.total_tokens]
    if spec.cutoff_tokens is not None:
        records = [r for r in records if r.tokens_seen >= spec.cutoff_tokens]
    return family.with_records(records)


def build_target(family: ScaledFamily, target_fraction: float = DEFAULT_TARGET_FRACTION) -> ScaledFamily:
    """Target set: the >=30%-token tail of the maximal-parameter family.

    The token threshold is taken within the maximal-parameter subfamily. All
    seeds at maximal size are pooled rather than averaged.
    """
    return max_token_family(max_param_family(family), target_fraction)


def build_train(family: ScaledFamily, spec: SubsetSpec) -> ScaledFamily:
    """Train set: everything outside the maximal-parameter family, filtered by spec.

    No minimum-size check here; select_train_target and fit apply
    law.fit_shortfall.
    """
    _require_nonempty(family, "build_train")
    top = max(r.num_params for r in family.records)
    rest = family.with_records(r for r in family.records if r.num_params != top)
    return apply_spec(rest, spec)


def select_train_target(
    family: ScaledFamily,
    spec: SubsetSpec | None = None,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> tuple[ScaledFamily, ScaledFamily]:
    """The fitting protocol's standard split.

    F_target is the target_fraction-maximal-token subset of the
    maximal-parameter family; F_train is the rest of the family filtered
    by spec, and must pass law.fit_shortfall for a full-model fit.
    Disjoint by construction (they differ in num_params).
    """
    spec = spec or SubsetSpec()
    target = build_target(family, target_fraction)
    train = build_train(family, spec)
    shortfall = fit_shortfall(train)
    if shortfall:
        raise InsufficientDataError(shortfall)
    return train, target


def downscale_split(
    family: ScaledFamily,
    k: int,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> tuple[ScaledFamily, ScaledFamily]:
    """Inverted protocol: train on the k largest runs, predict the smallest.

    F_target is the target_fraction-token tail of the smallest size family.
    """
    _require_nonempty(family, "downscale_split")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    order = run_order(family)
    if len(order) < k + 1:
        raise InsufficientDataError(
            f"insufficient families: downscale with k={k} needs at least {k + 1} "
            f"size families, family '{family.family_id}' has {len(order)}"
        )
    train = k_largest_runs(family, k)
    smallest = family.with_records(
        r for r in family.records if r.run_key == order[0]
    )
    target = max_token_family(smallest, target_fraction)
    return train, target
