"""The batched multi-start solver: golden objectives, restart independence, quiet numerics.

tests/data/golden_objectives.json holds the objective each case reached with
the previous solver (scipy.optimize.least_squares, method "trf", one call per
restart, ftol = xtol = gtol = 1e-10). The batched solver must reach an
objective at least that low, up to 1e-9 relative, on every case. Noiseless
fits end at the rounding level of the forward evaluation, where which
residuals happen to round to zero is chance; there the bound also admits
the objective of residuals of ROUNDING_ULPS ulps of each observed loss.
"""

import json
import warnings
from functools import lru_cache

import numpy as np
import pytest

from scalefit import (
    FitConfig,
    ScaledFamily,
    SynthSpec,
    fit,
    generate,
    ingest_path,
    objective_value,
    select_train_target,
)
from scalefit.law import PARAM_NAMES, _build_starts, _design, _solve_batch, _solve_rows

from conftest import DATA_DIR, SIZES_6, TRUTH, make_record

GOLDEN_PATH = DATA_DIR / "golden_objectives.json"
GOLDEN_REL = 1e-9
ROUNDING_ULPS = 2

NOISY = ((0.02, 3), (0.02, 9), (0.01, 5), (0.03, 17), (0.05, 2))
FROZEN = {
    "frozen-A-alpha": {"A": TRUTH.A, "alpha": TRUTH.alpha},
    "frozen-alpha": {"alpha": TRUTH.alpha},
    "frozen-alpha-off": {"alpha": 0.3},
}


def noisy_family(noise_sigma: float, rng_seed: int) -> ScaledFamily:
    # The three-run families of tests/test_law.py.
    spec = SynthSpec(
        truth=TRUTH, sizes=(10**7, 10**8, 10**9), tokens_per_run=2 * 10**9,
        checkpoints_per_run=10, rng_seed=rng_seed, noise_sigma=noise_sigma,
    )
    return generate(spec)


def poisoned_family(seed: int, rng: np.random.Generator) -> ScaledFamily:
    # test_law.py::test_huber_beats_square_under_outliers: one loss scaled by 1.5.
    fam = noisy_family(0.0, seed)
    records = list(fam.records)
    idx = int(rng.integers(0, len(records)))
    bad = records[idx]
    records[idx] = make_record(
        family_id=bad.family_id, model_id=bad.model_id, num_params=bad.num_params,
        tokens_seen=bad.tokens_seen, total_tokens=bad.total_tokens,
        loss=bad.loss * 1.5, seed=bad.seed,
    )
    return ScaledFamily.from_records(fam.family_id, records)


def corrupted_run_folds() -> dict:
    # The training sets of test_meta.py::test_loo_flags_a_corrupted_run: run 2's
    # losses scaled by 1.3, one run held out, the largest run never trained on.
    spec = SynthSpec(
        truth=TRUTH, sizes=SIZES_6, tokens_per_run=2 * 10**9, checkpoints_per_run=20,
        family_id="fixture", rng_seed=0,
    )
    records = [
        make_record(
            family_id=r.family_id, model_id=r.model_id, num_params=r.num_params,
            tokens_seen=r.tokens_seen, total_tokens=r.total_tokens, seed=r.seed,
            loss=r.loss * 1.3 if r.num_params == SIZES_6[2] else r.loss,
        )
        for r in generate(spec).records
    ]
    return {
        f"corrupted-run-fold-{held}": ScaledFamily.from_records(
            "fixture", [r for r in records if r.num_params not in (held, SIZES_6[-1])]
        )
        for held in SIZES_6
    }


def sweep_family() -> ScaledFamily:
    # Benchmark-sized: 7 runs x 100 checkpoints.
    spec = SynthSpec(
        truth=TRUTH, sizes=tuple(int(v) for v in np.geomspace(1e7, 1e9, 7)),
        tokens_per_run=2 * 10**9, checkpoints_per_run=100, noise_sigma=0.01, rng_seed=41,
    )
    return generate(spec)


@lru_cache(maxsize=None)
def golden_cases() -> dict:
    """name -> (family, config); the same names key the golden file."""
    cases = {}
    train, _ = select_train_target(ingest_path(DATA_DIR / "noiseless.csv")[0])
    families = {"noiseless-csv": train}
    families.update({f"noisy-{sigma}-{seed}": noisy_family(sigma, seed) for sigma, seed in NOISY})
    families["sweep-700"] = sweep_family()
    for name, fam in families.items():
        for loss in ("square", "huber"):
            cases[f"{name}/{loss}"] = (fam, FitConfig(loss_kind=loss))
            for mode, frozen in FROZEN.items():
                if name != "sweep-700":
                    cases[f"{name}/{loss}/{mode}"] = (fam, FitConfig(loss_kind=loss, frozen=frozen))
    cases["noisy-0.01-5/square/seed-11-restarts-40"] = (
        families["noisy-0.01-5"], FitConfig(restarts=40),
    )
    for restarts in (1, 2, 4, 8, 16, 48, 64):
        cases[f"noisy-0.03-17/square/restarts-{restarts}"] = (
            families["noisy-0.03-17"], FitConfig(restarts=restarts),
        )
    for name, fam in corrupted_run_folds().items():
        for loss in ("huber", "square"):
            cases[f"{name}/{loss}"] = (fam, FitConfig(loss_kind=loss))
    rng = np.random.default_rng(7)
    for seed in range(20):
        fam = poisoned_family(seed, rng)
        for loss in ("huber", "square"):
            cases[f"poisoned-{seed}/{loss}"] = (fam, FitConfig(loss_kind=loss))
    return cases


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_objective_no_worse_than_golden(name):
    golden = load_golden()[name]
    fam, config = golden_cases()[name]
    result = fit(fam, config)
    if golden["converged"]:
        assert result.converged
    rounding = objective_value(ROUNDING_ULPS * np.spacing(_design(fam)[2]), config)
    assert result.objective <= golden["objective"] * (1 + GOLDEN_REL) + rounding


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(golden_cases())


def _solver_inputs(fam, config):
    ln_n, ln_d, loss = _design(fam)
    free_idx = np.array([i for i, n in enumerate(PARAM_NAMES) if n not in config.frozen_map])
    return np.array(_build_starts(fam, config)), free_idx, ln_n, ln_d, loss


@pytest.mark.parametrize(
    "name",
    ["noisy-0.02-3/huber", "noisy-0.05-2/square/frozen-alpha", "noiseless-csv/huber/frozen-A-alpha",
     "corrupted-run-fold-25118864/huber", "poisoned-4/square"],
)
def test_each_restart_is_independent_of_the_batch(name):
    fam, config = golden_cases()[name]
    starts, free_idx, ln_n, ln_d, loss = _solver_inputs(fam, config)
    vecs, stop = _solve_batch(starts, free_idx, ln_n, ln_d, loss, config)
    # Batches shrink as starts stop; a start alone and a start in the full
    # batch must take the same path to the same bits.
    for i, start in enumerate(starts):
        alone_vecs, alone_stop = _solve_batch(start[None], free_idx, ln_n, ln_d, loss, config)
        assert np.array_equal(alone_vecs[0], vecs[i]) and alone_stop[0] == stop[i], i
    backwards = _solve_batch(starts[::-1], free_idx, ln_n, ln_d, loss, config)
    assert np.array_equal(backwards[0][::-1], vecs) and np.array_equal(backwards[1][::-1], stop)


def test_a_singular_system_does_not_fail_the_batch():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(4, 3, 3))
    mats = mats @ mats.transpose(0, 2, 1) + np.eye(3)
    mats[2, 1, :] = mats[2, :, 1] = 0.0
    rhs = rng.normal(size=(4, 3))
    rhs[2, 1] = 0.0
    out = _solve_rows(mats, rhs)
    regular = [0, 1, 3]
    assert np.array_equal(out[regular], _solve_rows(mats[regular], rhs[regular]))
    assert out[2, 1] == 0.0 and np.allclose(mats[2] @ out[2], rhs[2])


def test_fit_emits_no_runtime_warning():
    from conftest import random_family

    rng = np.random.default_rng(31)
    families = [random_family(rng) for _ in range(6)]
    families += [golden_cases()[name][0] for name in ("poisoned-3/huber", "corrupted-run-fold-63095734/huber")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in families:
            for config in (FitConfig(restarts=8), FitConfig(loss_kind="huber", restarts=8),
                           FitConfig(frozen={"alpha": 3.0}, restarts=8)):
                fit(fam, config)


def test_restarts_tried_counts_the_starts_solved(monkeypatch):
    import scalefit.law as law

    fam, config = golden_cases()["noisy-0.02-9/square"]
    build = law._build_starts

    def with_overflowing_starts(data, cfg):
        starts = build(data, cfg)
        starts[0] = starts[5] = np.array([0.0, 800.0, 0.0, 0.0, 0.0])
        return starts

    monkeypatch.setattr(law, "_build_starts", with_overflowing_starts)
    result = fit(fam, config)
    assert result.restarts_tried == config.restarts - 2
    assert result.converged
