"""Ground-truth trajectory generator for fitting and meta-analysis tests.

Losses are the forward law evaluation times multiplicative log-normal noise
(one per-run draw, one per-checkpoint draw), plus an optional additive warmup
bump with compact support. Noise draws always happen, even at sigma 0, so a
noiseless generation is byte-identical to forward evaluation and bump/no-bump
generations agree exactly wherever the bump is zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .law import _predict_points
from .records import CheckpointRecord, ScaledFamily
from .specs import SynthSpec


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
