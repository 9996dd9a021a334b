"""The batched multi-start solver: golden objectives, a bit-for-bit reference, restart
independence, restart waves, quiet numerics and the law evaluations a fit makes.

tests/data/golden_objectives.json holds the objective each case reached with
the previous solver (scipy.optimize.least_squares, method "trf", one call per
restart, ftol = xtol = gtol = 1e-10). The batched solver must reach an
objective at least that low, up to 1e-9 relative, on every case. Noiseless
fits end at the rounding level of the forward evaluation, where which
residuals happen to round to zero is chance; there the bound also admits
the objective of residuals of ROUNDING_ULPS ulps of each observed loss.

fit() solves its starts in waves and stops once two converged restarts lie
in the best bucket, whose width is the same GOLDEN_REL and rounding floor.
On every golden case the waves must pick what one batch of every restart
picks, and a larger budget must not move the winner.
"""

import json
import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from scalefit import (
    FitConfig,
    ScaledFamily,
    SubsetSpec,
    SynthSpec,
    build_train,
    fit,
    generate,
    ingest,
    objective_value,
    select_train_target,
)
import scalefit.law as law
from scalefit.law import (
    EXPONENT_RANGE, PARAM_NAMES, _TOLERANCE, FitResult, LawParams, _build_starts, _design, _forward,
    _solve_batch, _solve_rows, huber,
)

from conftest import DATA_DIR, SIZES_6, TRUTH, make_record, random_family

GOLDEN_PATH = DATA_DIR / "golden_objectives.json"
GOLDEN_REL = 1e-9
ROUNDING_ULPS = 2
# fit() solves WAVE starts at a time until AGREEING converged restarts share the best bucket.
WAVE, AGREEING = 4, 2

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
    train, _ = select_train_target(ingest(DATA_DIR / "noiseless.csv")[0])
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
    return _build_starts(ln_n, ln_d, loss, config), free_idx, ln_n, ln_d, loss


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


def _reference_solve_rows(matrices, rhs):
    # The solve before singular systems were found in one pass: any singular
    # system sends every row through its own solve, then lstsq.
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i, (mat, vec) in enumerate(zip(matrices, rhs)):
            try:
                out[i] = np.linalg.solve(mat, vec)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(mat, vec, rcond=None)[0]
        return out


def assert_solves_like_the_reference(matrices, rhs):
    with np.errstate(all="ignore"):
        assert _solve_rows(matrices, rhs).tobytes() == _reference_solve_rows(matrices, rhs).tobytes()


def test_singular_batches_of_a_one_d_fit_solve_like_the_reference(monkeypatch):
    # suffix_fraction 0.01 keeps one checkpoint per run, all at one D: the profile's
    # token column equals its constant one, so whole active sets are singular.
    train = build_train(ingest(DATA_DIR / "noiseless.csv")[0], SubsetSpec(suffix_fraction=0.01))
    batches = []

    def recording_solve_rows(matrices, rhs):
        batches.append((matrices.copy(), rhs.copy()))
        return _solve_rows(matrices, rhs)

    monkeypatch.setattr(law, "_solve_rows", recording_solve_rows)
    for loss in ("square", "huber"):
        fit(train, FitConfig(loss_kind=loss))
    singular = 0
    for matrices, rhs in batches:
        singular += int(np.any(np.linalg.slogdet(matrices)[0] == 0))
        assert_solves_like_the_reference(matrices, rhs)
    assert singular >= 2


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_random_batches_with_singular_rows_solve_like_the_reference(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        count = int(rng.integers(1, 40))
        x = rng.normal(size=(count, size, size + 2))
        matrices = x @ x.transpose(0, 2, 1) * 10.0 ** rng.integers(-150, 150, size=(count, 1, 1))
        rhs = rng.normal(size=(count, size))
        for i in rng.choice(count, size=int(rng.integers(1, count + 1)), replace=False):
            j, kind = rng.integers(size), rng.integers(4)
            if kind == 0:  # a zero row and column, as when a term's column is zero
                matrices[i, j, :] = matrices[i, :, j] = 0.0
            elif kind == 1:  # two identical rows and columns, as in the profile
                k = (j + 1) % size
                matrices[i, k, :], matrices[i, :, k] = matrices[i, j, :], matrices[i, :, j]
            elif kind == 2:
                matrices[i] = 0.0
            else:
                matrices[i, j, j] = rng.choice([np.nan, np.inf])
        assert_solves_like_the_reference(matrices, rhs)


def test_fit_emits_no_runtime_warning():
    rng = np.random.default_rng(31)
    families = [random_family(rng) for _ in range(6)]
    families += [golden_cases()[name][0] for name in ("poisoned-3/huber", "corrupted-run-fold-63095734/huber")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in families:
            for config in (FitConfig(restarts=8), FitConfig(loss_kind="huber", restarts=8),
                           FitConfig(frozen={"alpha": 3.0}, restarts=8)):
                fit(fam, config)


def overflow_starts_0_and_5(monkeypatch):
    build = law._build_starts

    def with_overflowing_starts(ln_n, ln_d, loss, cfg):
        starts = build(ln_n, ln_d, loss, cfg)
        starts[0] = starts[5] = np.array([0.0, 800.0, 0.0, 0.0, 0.0])
        return starts

    monkeypatch.setattr(law, "_build_starts", with_overflowing_starts)


def test_restarts_tried_counts_the_starts_solved(monkeypatch):
    fam, config = golden_cases()["noisy-0.02-9/square"]
    overflow_starts_0_and_5(monkeypatch)
    solved = []
    solve_batch = law._solve_batch

    def recording_solve_batch(starts, *args):
        solved.append(starts)
        return solve_batch(starts, *args)

    monkeypatch.setattr(law, "_solve_batch", recording_solve_batch)
    result = fit(fam, config)
    assert result.converged
    # The overflowing starts are skipped, and the waves stop before the budget runs out.
    assert result.restarts_tried == sum(len(starts) for starts in solved) < config.restarts - 2
    assert not any(np.any(starts[:, 1] == 800.0) for starts in solved)


def test_a_budget_without_agreement_solves_every_usable_start(monkeypatch):
    fam, config = golden_cases()["noisy-0.02-9/square"]
    overflow_starts_0_and_5(monkeypatch)
    config = replace(config, max_iterations=2)
    result = fit(fam, config)
    assert not result.converged and result.restarts_tried == config.restarts - 2


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_waves_pick_what_one_batch_of_every_restart_picks(name):
    fam, config = golden_cases()[name]
    starts, free_idx, ln_n, ln_d, loss = _solver_inputs(fam, config)
    index = np.flatnonzero(np.isfinite(_forward(starts.T[..., None], ln_n, ln_d)[0]).all(axis=1))
    vecs, stop = _solve_batch(starts[index], free_idx, ln_n, ln_d, loss, config)
    objectives = objective_value(_forward(vecs.T[..., None], ln_n, ln_d)[0] - loss, config)
    rows = _reference_rows(index, vecs, stop, objectives.tolist(), config)
    _, vec, objective, converged = _reference_select(rows, fam, config)[0]
    result = fit(fam, config)
    assert (result.params, result.objective, result.converged) == (LawParams.from_vector(vec), objective, converged)
    assert result.restarts_tried <= len(index)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_parameters_stay_put_as_the_budget_grows_past_the_winner(name):
    fam, config = golden_cases()[name]
    expected, start, _ = _reference_fit(fam, config)
    for restarts in sorted({*range(start + 1, start + 6), config.restarts, 64}):
        assert fit(fam, replace(config, restarts=restarts)).params == expected.params, restarts


# ---------------------------------------------------------------------------
# Bit-for-bit reference: the solver and scoring as they were when every step
# evaluated the law twice and every restart was scored on its own, in fit's
# waves and under its selection rule, restated.
# ---------------------------------------------------------------------------


def _reference_jacobian(vec5: np.ndarray, ln_n: np.ndarray, ln_d: np.ndarray) -> np.ndarray:
    t_e, t_n, t_d = _forward(vec5, ln_n, ln_d)[1]
    return np.stack((np.broadcast_to(t_e, t_n.shape), t_n, -ln_n * t_n, t_d, -ln_d * t_d), axis=-2)


def _reference_solve_batch(starts, free_idx, ln_n, ln_d, loss, config):
    tol, delta = config.tolerance, config.delta
    square = config.loss_kind == "square"

    def evaluate(vecs):
        res = _forward(vecs.T[..., None], ln_n, ln_d)[0] - loss
        return res, np.sum(0.5 * res * res if square else huber(res, delta), axis=-1)

    def normal_equations(vecs, res):
        jac = _reference_jacobian(vecs.T[..., None], ln_n, ln_d)[:, free_idx]
        if square:
            return np.einsum("mkn,mn->mk", jac, res), np.einsum("mkn,mjn->mkj", jac, jac)
        weights = delta / np.maximum(np.abs(res), delta)
        # Huber's derivative is the residual clipped to [-delta, delta].
        grad = np.einsum("mkn,mn->mk", jac, np.clip(res, -delta, delta))
        return grad, np.einsum("mkn,mjn->mkj", jac * weights[:, None, :], jac)

    with np.errstate(all="ignore"):
        vecs = np.array(starts, dtype=float)
        res, cost = evaluate(vecs)
        grad, hess = normal_equations(vecs, res)
        count = len(vecs)
        lam, growth, last_drop = np.full(count, 1e-3), np.full(count, 2.0), np.full(count, np.inf)
        diag = np.arange(len(free_idx))
        scale = hess[:, diag, diag].copy()
        stop = np.full(count, law._ITERATION_CAP)
        live = np.arange(count)
        for _ in range(config.max_iterations - 1):
            g, h = grad[live], hess[live]
            damped = h.copy()
            damped[:, diag, diag] += lam[live, None] * scale[live]
            step = _reference_solve_rows(damped, -g)
            trial = vecs[live]
            trial[:, free_idx] += step
            t_res, t_cost = evaluate(trial)
            drop = cost[live] - t_cost
            ratio = drop / (-np.sum(g * step, axis=1) - 0.5 * np.einsum("mk,mkj,mj->m", step, h, step))
            ok = drop > 0
            # Nielsen's damping update: shrink by up to 3x on a good step, grow geometrically on a bad one.
            lam[live] *= np.where(ok, np.fmax(1 / 3, 1 - (2 * ratio - 1) ** 3), growth[live])
            growth[live] = np.where(ok, 2.0, 2.0 * growth[live])
            rate = np.clip(drop / last_drop[live], 0.0, 0.999)
            done = np.all(np.abs(step) < tol * (tol + np.abs(vecs[live][:, free_idx])), axis=1)
            done |= ok & (drop < (1 - rate) * tol * cost[live]) & (ratio > 0.25)
            moved = live[ok]
            vecs[moved], res[moved], cost[moved], last_drop[moved] = trial[ok], t_res[ok], t_cost[ok], drop[ok]
            grad[moved], hess[moved] = normal_equations(vecs[moved], res[moved])
            scale[moved] = np.fmax(scale[moved], hess[moved][:, diag, diag])
            broken = ~np.isfinite(step).all(axis=1)
            broken[ok] |= ~(np.isfinite(grad[moved]).all(axis=1) & np.isfinite(hess[moved]).all(axis=(1, 2)))
            stop[live[done]] = _TOLERANCE
            stop[live[broken & ~done]] = law._NON_FINITE
            live = live[~(done | broken)]
            if not live.size:
                break
    return vecs, stop


def _reference_objective(residual_vec, config):
    if config.loss_kind == "square":
        return float(np.sum(np.square(residual_vec)))
    return float(np.sum(huber(residual_vec, config.delta)))


def _reference_rows(index, vecs, stop, objectives, config):
    """(start index, vec, objective, converged) per solved restart."""
    alpha_checked = "alpha" not in config.frozen_map
    lo, hi = EXPONENT_RANGE
    rows = []
    for i, vec, reason, objective in zip(index, vecs, stop, objectives):
        degenerate = (alpha_checked and not (lo <= vec[2] <= hi)) or not (lo <= vec[4] <= hi)
        rows.append((int(i), vec, objective, reason == _TOLERANCE and not degenerate and math.isfinite(objective)))
    return rows


def _reference_select(rows, data, config):
    """The winner of (start index, vec, objective, converged) rows, and how many converged rows share its bucket.

    Converged rows outrank the rest; within the best class, every row no
    more than 1e-9 relative plus the objective of 2-ulp residuals above the
    class's best objective ties, and the lowest start index wins.
    """
    rounding = objective_value(ROUNDING_ULPS * np.spacing(_design(data)[2]), config)
    converged_rows = [row for row in rows if row[3]]
    best_class = converged_rows or rows
    finite = [row[2] for row in best_class if math.isfinite(row[2])]
    edge = min(finite) * (1 + GOLDEN_REL) + rounding if finite else -math.inf
    in_bucket = [row for row in best_class if row[2] <= edge]
    winner = min(in_bucket or best_class, key=lambda row: row[0])
    return winner, sum(1 for row in converged_rows if row[2] <= edge)


def _reference_fit(data, config):
    """fit() through the reference solve and per-restart scoring, in waves of WAVE.

    Returns the result, the winner's start index and the (vecs, stop) of each wave's solve.
    """
    ln_n, ln_d, loss = _design(data)
    free_idx = np.array([i for i, n in enumerate(PARAM_NAMES) if n not in config.frozen_map], dtype=int)
    starts = law._build_starts(ln_n, ln_d, loss, config)
    index = np.flatnonzero(np.isfinite(_forward(starts.T[..., None], ln_n, ln_d)[0]).all(axis=1))

    rows, waves = [], []
    for first in range(0, len(index), WAVE):
        wave_index = index[first:first + WAVE]
        vecs, stop = _reference_solve_batch(starts[wave_index], free_idx, ln_n, ln_d, loss, config)
        waves.append((vecs, stop))
        objectives = [_reference_objective(_forward(vec, ln_n, ln_d)[0] - loss, config) for vec in vecs]
        rows += _reference_rows(wave_index, vecs, stop, objectives, config)
        (start, vec, objective, converged), count = _reference_select(rows, data, config)
        if count >= AGREEING:
            break

    result = FitResult(
        params=LawParams.from_vector(vec),
        objective=objective,
        converged=bool(converged),
        restarts_tried=len(rows),
        n_points=len(data.records),
    )
    return result, start, waves


def assert_matches_reference(monkeypatch, fam, config):
    expected, _, ref_waves = _reference_fit(fam, config)
    solved = []

    def recording_solve_batch(*args):
        solved.append(_solve_batch(*args))
        return solved[-1]

    monkeypatch.setattr(law, "_solve_batch", recording_solve_batch)
    assert fit(fam, config) == expected
    assert len(solved) == len(ref_waves)
    for (vecs, stop), (ref_vecs, ref_stop) in zip(solved, ref_waves):
        assert np.array_equal(vecs, ref_vecs, equal_nan=True)
        assert np.array_equal(stop, ref_stop)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_case_matches_the_reference_bit_for_bit(monkeypatch, name):
    assert_matches_reference(monkeypatch, *golden_cases()[name])


@pytest.mark.parametrize("loss", ["square", "huber"])
def test_singular_fallback_matches_the_reference_bit_for_bit(monkeypatch, loss):
    # Three seeds at one size: two identical constant columns make a damped
    # system singular, so _solve_rows falls back to row-by-row solves.
    fam = generate(SynthSpec(truth=TRUTH, sizes=(10**8,), seeds_per_size=3, seed_sigma=0.02, noise_sigma=0.01,
                             checkpoints_per_run=10, rng_seed=1))
    batch_failures = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            batch_failures.append(np.ndim(a) == 3)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    assert_matches_reference(monkeypatch, fam, FitConfig(loss_kind=loss))
    assert any(batch_failures)


def test_overflowing_starts_match_the_reference_bit_for_bit(monkeypatch):
    overflow_starts_0_and_5(monkeypatch)
    assert_matches_reference(monkeypatch, *golden_cases()["noisy-0.02-9/square"])


@pytest.mark.parametrize("max_iterations", [1, 2])
@pytest.mark.parametrize("loss", ["square", "huber"])
def test_iteration_cap_matches_the_reference_bit_for_bit(monkeypatch, loss, max_iterations):
    fam = golden_cases()["noisy-0.02-3/square"][0]
    assert_matches_reference(monkeypatch, fam, FitConfig(loss_kind=loss, max_iterations=max_iterations))


@pytest.mark.parametrize("loss", ["square", "huber"])
def test_a_fit_evaluates_the_law_once_per_step(monkeypatch, loss):
    # One start check, then per wave at most max_iterations cost evaluations
    # (each step's Jacobian reuses its trial's terms) and one pass scoring the wave.
    calls, waves = [], []
    forward, solve_batch = law._forward, law._solve_batch

    def counting_forward(*args):
        calls.append(args)
        return forward(*args)

    def counting_solve_batch(starts, *args):
        waves.append(len(starts))
        return solve_batch(starts, *args)

    monkeypatch.setattr(law, "_forward", counting_forward)
    monkeypatch.setattr(law, "_solve_batch", counting_solve_batch)
    config = FitConfig(loss_kind=loss, max_iterations=5)
    result = fit(golden_cases()["noisy-0.02-3/square"][0], config)
    assert sum(waves) == result.restarts_tried and max(waves) <= WAVE
    assert 0 < len(calls) <= 1 + len(waves) * (config.max_iterations + 1)
