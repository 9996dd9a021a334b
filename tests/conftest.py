"""Shared fixtures: a realistic ground-truth law and family builders."""

from pathlib import Path

import numpy as np
import pytest

from scalefit import CheckpointRecord, LawParams, ScaledFamily, SynthSpec, generate

DATA_DIR = Path(__file__).parent / "data"

# ln 1.69, ln 406.4, ln 410.7: loss floor and term scales of a published law,
# sane for raw-unit parameter and token counts.
TRUTH = LawParams(
    E=0.5247285289349821,
    A=6.007240922290097,
    alpha=0.34,
    B=6.017870926898238,
    beta=0.28,
)

SIZES_6 = tuple(int(round(v)) for v in np.geomspace(1e7, 1e9, 6))


def make_record(
    family_id: str = "fam",
    model_id: str = "fam-a",
    num_params: int = 10**8,
    tokens_seen: int = 10**9,
    total_tokens: int = 2 * 10**9,
    loss: float = 3.0,
    seed: int = 0,
    flops: float | None = None,
    loss_corpus: str | None = None,
) -> CheckpointRecord:
    return CheckpointRecord(
        family_id=family_id,
        model_id=model_id,
        num_params=num_params,
        tokens_seen=tokens_seen,
        total_tokens=total_tokens,
        loss=loss,
        seed=seed,
        flops=flops,
        loss_corpus=loss_corpus,
    )


def random_family(rng: np.random.Generator, family_id: str = "rand", tagged: bool = False) -> ScaledFamily:
    """A structurally valid family with 3..8 runs of 2..6 checkpoints each.

    tagged gives every size 2..3 seeds and rows on several corpora (untagged, "pile", "c4"); each
    run's last checkpoint is on two corpora with their own loss and flops, a tie at its maximal
    tokens_seen.
    """
    records = []
    n_runs = int(rng.integers(3, 9))
    sizes = sorted(set(int(v) for v in rng.integers(10**6, 10**10, size=n_runs)))
    for i, size in enumerate(sizes):
        total = int(rng.integers(10**8, 10**11))
        n_ckpt = int(rng.integers(2, 7))
        ticks = sorted(set(int(v) for v in rng.integers(1, total + 1, size=n_ckpt)))
        first_seed = int(rng.integers(0, 3))
        for seed in range(first_seed, first_seed + int(rng.integers(2, 4))) if tagged else [first_seed]:
            for t in ticks:
                corpora = [None]
                if tagged:
                    drawn = [c for c in (None, "pile", "c4") if rng.random() < 0.6]
                    corpora = ["c4", "pile"] if t == ticks[-1] else drawn
                for corpus in corpora:
                    records.append(
                        CheckpointRecord(
                            family_id=family_id,
                            model_id=f"{family_id}-m{i}",
                            num_params=size,
                            tokens_seen=t,
                            total_tokens=total,
                            loss=float(rng.uniform(1.5, 6.0)),
                            seed=seed,
                            flops=float(6 * size * t) if rng.random() < 0.3 else None,
                            loss_corpus=corpus,
                        )
                    )
    return ScaledFamily.from_records(family_id, records)


@pytest.fixture(scope="session", autouse=True)
def private_ingest_cache(tmp_path_factory):
    """Point XDG_CACHE_HOME at a temporary directory, so no test, nor a CLI it starts, writes to ~/.cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def truth() -> LawParams:
    return TRUTH


@pytest.fixture(scope="session")
def noiseless_family() -> ScaledFamily:
    spec = SynthSpec(
        truth=TRUTH,
        sizes=SIZES_6,
        tokens_per_run=2_000_000_000,
        checkpoints_per_run=20,
        family_id="fixture",
        rng_seed=0,
    )
    return generate(spec)


@pytest.fixture(scope="session")
def noiseless_csv() -> Path:
    return DATA_DIR / "noiseless.csv"
