"""Ground-truth trajectory generator for fitting and meta-analysis tests.

Losses are the forward law evaluation times multiplicative log-normal noise
(one per-run draw, one per-checkpoint draw), plus an optional additive warmup
bump with compact support. Noise draws always happen, even at sigma 0, so a
noiseless generation is byte-identical to forward evaluation and bump/no-bump
generations agree exactly wherever the bump is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .law import LawParams, _predict_points, check_count, check_real
from .records import CheckpointRecord, ScaledFamily


@dataclass(frozen=True)
class WarmupBump:
    """Additive distortion amplitude * max(0, 1 - tokens/span): early, decaying."""

    amplitude: float
    span_tokens: int

    def __post_init__(self):
        if not math.isfinite(check_real(self.amplitude, "bump amplitude")):
            raise ValidationError(f"bump amplitude must be finite, got {self.amplitude}")
        object.__setattr__(self, "span_tokens", check_count(self.span_tokens, "bump span_tokens"))
        if self.span_tokens < 1:
            raise ValidationError(f"bump span_tokens must be >= 1, got {self.span_tokens}")

    def at(self, tokens: int) -> float:
        return self.amplitude * max(0.0, 1.0 - tokens / self.span_tokens)


@dataclass(frozen=True)
class SynthSpec:
    truth: LawParams
    sizes: tuple[int, ...]
    tokens_per_run: int | tuple[int, ...] = 2_000_000_000
    checkpoints_per_run: int = 20
    noise_sigma: float = 0.0
    seed_sigma: float = 0.0
    warmup_bump: WarmupBump | None = None
    rng_seed: int = 0
    seeds_per_size: int = 1
    first_checkpoint_fraction: float = 0.01
    family_id: str = "synthetic"

    def __post_init__(self):
        if not isinstance(self.sizes, (list, tuple)):
            raise ValidationError(f"sizes must be a list, got {self.sizes!r}")
        object.__setattr__(self, "sizes", tuple(check_count(s, "sizes") for s in self.sizes))
        if not self.sizes:
            raise ValidationError("sizes must be non-empty")
        if any(s < 1 for s in self.sizes):
            raise ValidationError(f"sizes must be positive, got {self.sizes}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValidationError(f"sizes must be distinct, got {self.sizes}")
        if isinstance(self.tokens_per_run, (list, tuple)):
            tokens = tuple(check_count(t, "tokens_per_run") for t in self.tokens_per_run)
            object.__setattr__(self, "tokens_per_run", tokens)
            if len(tokens) != len(self.sizes):
                raise ValidationError(
                    f"tokens_per_run list length {len(tokens)} != number of sizes {len(self.sizes)}"
                )
        else:
            object.__setattr__(self, "tokens_per_run", check_count(self.tokens_per_run, "tokens_per_run"))
            tokens = (self.tokens_per_run,) * len(self.sizes)
        if any(t < 1 for t in tokens):
            raise ValidationError("tokens_per_run entries must be positive")
        for name in ("checkpoints_per_run", "rng_seed", "seeds_per_size"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        if self.checkpoints_per_run < 1:
            raise ValidationError(f"checkpoints_per_run must be >= 1, got {self.checkpoints_per_run}")
        if not (check_real(self.noise_sigma, "noise_sigma") >= 0 and check_real(self.seed_sigma, "seed_sigma") >= 0):
            raise ValidationError("noise sigmas must be nonnegative")
        if self.seeds_per_size < 1:
            raise ValidationError(f"seeds_per_size must be >= 1, got {self.seeds_per_size}")
        if not (0.0 < check_real(self.first_checkpoint_fraction, "first_checkpoint_fraction") <= 1.0):
            raise ValidationError(
                f"first_checkpoint_fraction must lie in (0, 1], got {self.first_checkpoint_fraction}"
            )
        if not isinstance(self.family_id, str):
            raise ValidationError(f"family_id must be a string, got {self.family_id!r}")

    def run_tokens(self, size_index: int) -> int:
        if isinstance(self.tokens_per_run, tuple):
            return self.tokens_per_run[size_index]
        return self.tokens_per_run

    @classmethod
    def from_dict(cls, data: Mapping) -> "SynthSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown synth fields: {', '.join(sorted(unknown))}")
        missing = {"truth", "sizes"} - set(data)
        if missing:
            raise ValidationError(f"missing synth fields: {', '.join(sorted(missing))}")
        kwargs = dict(data)
        kwargs["truth"] = LawParams.from_dict(data["truth"])
        bump = data.get("warmup_bump")
        if bump is not None:
            if not isinstance(bump, Mapping) or set(bump) != {"amplitude", "span_tokens"}:
                raise ValidationError(f"warmup_bump must map exactly amplitude and span_tokens, got {bump!r}")
            kwargs["warmup_bump"] = WarmupBump(**bump)
        return cls(**kwargs)


def checkpoint_schedule(total_tokens: int, checkpoints: int, first_fraction: float) -> list[int]:
    """Log-uniform token counts from first_fraction * total up to total, strictly increasing."""
    if checkpoints == 1:
        return [total_tokens]
    start = max(1, round(first_fraction * total_tokens))
    raw = np.geomspace(start, total_tokens, checkpoints)
    schedule: list[int] = []
    prev = 0
    for value in raw:
        tick = max(prev + 1, int(round(value)))
        schedule.append(tick)
        prev = tick
    if schedule[-1] > total_tokens:
        raise ValidationError(
            f"checkpoint schedule overflows the run: {checkpoints} checkpoints do not fit "
            f"in {total_tokens} tokens from fraction {first_fraction}"
        )
    return schedule


def generate(spec: SynthSpec) -> ScaledFamily:
    """Deterministic synthetic family; run order is sizes as listed, seeds ascending."""
    rng = np.random.default_rng(spec.rng_seed & 0xFFFFFFFFFFFFFFFF)
    records: list[CheckpointRecord] = []
    for size_index, size in enumerate(spec.sizes):
        total = spec.run_tokens(size_index)
        schedule = checkpoint_schedule(total, spec.checkpoints_per_run, spec.first_checkpoint_fraction)
        noiseless = _predict_points(spec.truth, [size] * len(schedule), schedule).tolist()
        for seed in range(spec.seeds_per_size):
            run_offset = rng.normal(0.0, spec.seed_sigma)
            ckpt_noise = rng.normal(0.0, spec.noise_sigma, size=len(schedule))
            for tokens, base, eps in zip(schedule, noiseless, ckpt_noise):
                loss = base * math.exp(run_offset) * math.exp(eps)
                if spec.warmup_bump is not None:
                    loss += spec.warmup_bump.at(tokens)
                records.append(
                    CheckpointRecord(
                        family_id=spec.family_id,
                        model_id=f"{spec.family_id}-n{size}",
                        num_params=size,
                        tokens_seen=tokens,
                        total_tokens=total,
                        loss=loss,
                        seed=seed,
                    )
                )
    return ScaledFamily.from_records(spec.family_id, records)
