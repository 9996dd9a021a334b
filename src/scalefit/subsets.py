"""Subset constructions over scaled families.

All operations are pure filters: each is one row selection
(ScaledFamily.where) over the family's columns, so the output rows are a
subset of the input rows in the same canonical order, equal to a one-line
brute-force filter over the family. No CheckpointRecord is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Iterable

from .errors import InsufficientDataError, ValidationError
from .records import RunKey, ScaledFamily
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
        for name, check in (("num_models", check_count), ("cutoff_tokens", check_count),
                            ("train_fraction_max", check_real), ("suffix_fraction", check_real)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name), name))
        if self.num_models is not None and self.num_models < 1:
            raise ValidationError(f"num_models must be >= 1, got {self.num_models}")
        for name in ("train_fraction_max", "suffix_fraction"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value <= 1.0):
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
        if self.cutoff_tokens is not None and self.cutoff_tokens < 0:
            raise ValidationError(f"cutoff_tokens must be nonnegative, got {self.cutoff_tokens}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SubsetSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown subset fields: {', '.join(sorted(unknown))}")
        return cls(**{k: v for k, v in data.items() if v is not None})


def _require_nonempty(family: ScaledFamily, op: str) -> None:
    if family.is_empty:
        raise InsufficientDataError(f"{op}: family '{family.family_id}' is empty")


def _in_runs(family: ScaledFamily, runs: Iterable[RunKey]) -> list[bool]:
    """One keep flag per row: whether the row's run is among runs."""
    runs = set(runs)
    return [run in runs for run in zip(family.columns.model_id, family.columns.seed)]


def max_param_family(family: ScaledFamily) -> ScaledFamily:
    """Records at the largest parameter count present in the family."""
    _require_nonempty(family, "max_param_family")
    params = family.columns.num_params
    top = max(params)
    return family.where(n == top for n in params)


def max_token_family(family: ScaledFamily, q: float) -> ScaledFamily:
    """Records with tokens_seen >= q times the family-wide maximum."""
    _require_nonempty(family, "max_token_family")
    if not (0.0 < q <= 1.0):
        raise ValidationError(f"q must lie in (0, 1], got {q}")
    tokens = family.columns.tokens_seen
    top = max(tokens)
    return family.where(t >= q * top for t in tokens)


def run_order(family: ScaledFamily) -> list[RunKey]:
    """Size families ordered smallest-first; num_params ties break on model_id, seed."""
    params = family.columns.num_params

    def key(run: RunKey):
        return (max(map(params.__getitem__, family.run_rows[run])), run[0], run[1])

    return sorted(family.run_rows, key=key)


def k_smallest_runs(family: ScaledFamily, k: int) -> ScaledFamily:
    _require_nonempty(family, "k_smallest_runs")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return family.where(_in_runs(family, run_order(family)[:k]))


def k_largest_runs(family: ScaledFamily, k: int) -> ScaledFamily:
    _require_nonempty(family, "k_largest_runs")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return family.where(_in_runs(family, run_order(family)[-k:]))


def final_checkpoints(family: ScaledFamily) -> ScaledFamily:
    """The last checkpoint of every run (highest tokens_seen per size family; the first such row on a tie)."""
    _require_nonempty(family, "final_checkpoints")
    tokens = family.columns.tokens_seen
    last = {max(rows, key=tokens.__getitem__) for rows in family.run_rows.values()}
    return family.where(i in last for i in range(len(family)))


def apply_spec(family: ScaledFamily, spec: SubsetSpec) -> ScaledFamily:
    """Filter a family per a SubsetSpec; may leave some runs empty (dropped)."""
    out = family
    if spec.num_models is not None and not out.is_empty:
        out = k_smallest_runs(out, spec.num_models)
    prefix, suffix, cutoff = spec.train_fraction_max, spec.suffix_fraction, spec.cutoff_tokens
    return out.where(
        (prefix is None or t <= prefix * total)
        and (suffix is None or t >= (1.0 - suffix) * total)
        and (cutoff is None or t >= cutoff)
        for t, total in zip(out.columns.tokens_seen, out.columns.total_tokens)
    )


def build_target(family: ScaledFamily, target_fraction: float = DEFAULT_TARGET_FRACTION) -> ScaledFamily:
    """Target set: the >=30%-token tail of the maximal-parameter family.

    The token threshold is taken within the maximal-parameter subfamily. All
    seeds at maximal size are pooled rather than averaged.
    """
    return max_token_family(max_param_family(family), target_fraction)


def build_train(family: ScaledFamily, spec: SubsetSpec) -> ScaledFamily:
    """Train set: everything outside the maximal-parameter family, filtered by spec.

    No minimum-size check here; select_train_target and fit apply
    specs.fit_shortfall.
    """
    _require_nonempty(family, "build_train")
    params = family.columns.num_params
    top = max(params)
    return apply_spec(family.where(n != top for n in params), spec)


def select_train_target(
    family: ScaledFamily,
    spec: SubsetSpec | None = None,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> tuple[ScaledFamily, ScaledFamily]:
    """The fitting protocol's standard split.

    F_target is the target_fraction-maximal-token subset of the
    maximal-parameter family; F_train is the rest of the family filtered
    by spec, and must pass specs.fit_shortfall for a full-model fit.
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
    target = max_token_family(family.where(_in_runs(family, order[:1])), target_fraction)
    return train, target
