import itertools
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit import (
    ALT_HUBER_DELTA,
    DEFAULT_HUBER_DELTA,
    FitConfig,
    InsufficientDataError,
    LawParams,
    ScaledFamily,
    SynthSpec,
    ValidationError,
    fit,
    generate,
    huber,
    objective_value,
    predict_records,
)
from scalefit.law import (
    _EXPONENT_GRID, EXPONENT_RANGE, _build_starts, _design, _forward, _jacobian, _predict_points, _profile,
    fit_shortfall,
)
from scalefit.specs import check_count, check_real

from conftest import TRUTH, make_record


def small_noiseless(truth=TRUTH, sizes=(10**7, 10**8, 10**9), rng_seed=0, **kw):
    spec = SynthSpec(
        truth=truth, sizes=sizes, tokens_per_run=2 * 10**9, checkpoints_per_run=10,
        rng_seed=rng_seed, **kw,
    )
    return generate(spec)


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def test_predict_points_all_zero_exponents():
    p = LawParams(E=0.0, A=0.0, alpha=0.0, B=0.0, beta=0.0)
    assert _predict_points(p, [12345], [67890]).tolist() == [3.0]


def test_predict_points_direct_arithmetic():
    p = LawParams(E=0.0, A=0.0, alpha=1.0, B=0.0, beta=1.0)
    assert _predict_points(p, [10], [100])[0] == pytest.approx(1.11, rel=1e-12)


def test_predict_points_asymptote_from_above():
    # Large enough that the tails are tiny, small enough that they still
    # register above the ulp of e^E.
    value = _predict_points(TRUTH, [10**30], [10**30])[0]
    assert value > math.exp(TRUTH.E)
    assert value == pytest.approx(math.exp(TRUTH.E), rel=1e-6)


def test_predict_points_monotone_decreasing():
    base, fewer_params, more_tokens = _predict_points(TRUTH, [10**8, 10**7, 10**8], [10**9, 10**9, 2 * 10**9])
    assert base < fewer_params
    assert more_tokens < base


def test_predict_points_overflow_raises():
    p = LawParams(E=800.0, A=0.0, alpha=0.0, B=0.0, beta=0.0)
    with pytest.raises(OverflowError):
        _predict_points(p, [10], [10])


def test_predict_points_conditioning_at_raw_counts():
    # e^A / N^alpha would need e^A ~ 3e21 for these values; the exponent-difference
    # form must survive raw 1e11-parameter counts.
    p = LawParams(E=0.5, A=50.0, alpha=2.0, B=6.0, beta=0.3)
    value = _predict_points(p, [10**11], [10**12])[0]
    assert math.isfinite(value) and value > 0


def test_law_params_validation_and_round_trip():
    with pytest.raises(ValidationError):
        LawParams(E=float("inf"), A=0, alpha=0, B=0, beta=0)
    assert LawParams.from_vector(TRUTH.as_vector()) == TRUTH
    assert LawParams.from_dict(TRUTH.to_dict()) == TRUTH


# ---------------------------------------------------------------------------
# Predictions per record
# ---------------------------------------------------------------------------


def test_predict_records_reproduces_noiseless_losses():
    fam = small_noiseless()
    assert predict_records(TRUTH, fam).tolist() == list(fam.columns.loss)


def test_predict_records_one_record():
    rec = make_record(loss=float(_predict_points(TRUTH, [10**8], [10**9])[0]) + 0.5)
    pred = predict_records(TRUTH, ScaledFamily.from_records("fam", [rec]))
    assert pred.shape == (1,)
    assert pred[0] - rec.loss == pytest.approx(-0.5, rel=1e-12)


def test_predict_records_order_independent():
    fam = small_noiseless()
    shuffled = ScaledFamily.from_records(fam.family_id, list(fam.records)[::-1])
    assert np.array_equal(predict_records(TRUTH, fam), predict_records(TRUTH, shuffled))


# ---------------------------------------------------------------------------
# Huber
# ---------------------------------------------------------------------------


def test_huber_zero():
    assert huber(0.0, 1e-3) == 0.0


def test_huber_branch_continuity():
    delta = 1e-3
    quad = 0.5 * delta * delta
    lin = delta * (delta - 0.5 * delta)
    assert huber(delta, delta) == pytest.approx(quad, rel=1e-15)
    assert quad == pytest.approx(lin, rel=1e-15)
    eps = 1e-9
    assert huber(delta + eps, delta) == pytest.approx(quad, rel=1e-5)


def test_huber_direct_arithmetic():
    assert huber(0.1, 0.001) == pytest.approx(9.95e-5, rel=1e-12)


def test_huber_array_and_validation():
    out = huber(np.array([0.0, 0.0005, 0.1]), 0.001)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.5 * 0.0005**2, rel=1e-12)
    with pytest.raises(ValidationError):
        huber(0.1, 0.0)


def test_delta_constants():
    assert DEFAULT_HUBER_DELTA == 1e-3
    assert ALT_HUBER_DELTA == pytest.approx(math.e * 1e-3, rel=1e-15)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_noiseless_recovery(noiseless_family):
    from scalefit import select_train_target

    train, _ = select_train_target(noiseless_family)
    result = fit(train, FitConfig())
    assert result.converged
    assert result.objective <= 1e-10
    assert result.n_points == len(train.records)
    # Noiseless restarts agree in the first wave, so the budget of 32 is not spent.
    assert 2 <= result.restarts_tried < 32
    loss = np.array(train.columns.loss)
    assert np.all(np.abs(predict_records(result.params, train) - loss) / loss <= 1e-6)


def test_fit_frozen_recovery(noiseless_family):
    from scalefit import select_train_target

    train, _ = select_train_target(noiseless_family)
    config = FitConfig(frozen={"A": TRUTH.A, "alpha": TRUTH.alpha})
    result = fit(train, config)
    assert result.converged
    assert result.params.A == TRUTH.A and result.params.alpha == TRUTH.alpha
    loss = np.array(train.columns.loss)
    assert np.all(np.abs(predict_records(result.params, train) - loss) / loss <= 1e-6)


def test_fit_single_run_token_extrapolation():
    fam = small_noiseless(sizes=(10**8,))
    config = FitConfig(frozen={"A": TRUTH.A, "alpha": TRUTH.alpha})
    result = fit(fam, config)
    assert result.converged
    assert result.params.beta == pytest.approx(TRUTH.beta, abs=1e-6)


def test_fit_objective_matches_own_residuals():
    fam = small_noiseless(noise_sigma=0.02, rng_seed=3)
    for config in (FitConfig(), FitConfig(loss_kind="huber")):
        result = fit(fam, config)
        recomputed = objective_value(predict_records(result.params, fam) - np.array(fam.columns.loss), config)
        assert result.objective == pytest.approx(recomputed, rel=1e-12)


def test_fit_square_objective_is_sum_of_squares():
    fam = small_noiseless(noise_sigma=0.02, rng_seed=9)
    result = fit(fam, FitConfig())
    r = predict_records(result.params, fam) - np.array(fam.columns.loss)
    assert result.objective == pytest.approx(float(np.sum(r * r)), rel=1e-12)


def test_fit_deterministic_given_seed():
    fam = small_noiseless(noise_sigma=0.01, rng_seed=5)
    a = fit(fam, FitConfig(restarts=40))
    b = fit(fam, FitConfig(restarts=40))
    assert a.to_dict() == b.to_dict()


def test_fit_monotone_in_restarts():
    fam = small_noiseless(noise_sigma=0.03, rng_seed=17)
    best = []
    for restarts in (1, 2, 4, 8, 16, 32, 48, 64):
        result = fit(fam, FitConfig(restarts=restarts))
        if result.converged:
            best.append(result.objective)
    assert len(best) >= 2
    for earlier, later in zip(best, best[1:]):
        assert later <= earlier * (1 + 1e-12)


# (moved column, loss kind): the rescalings the law is equivariant under. A loss rescaling is one for
# square loss only, since Huber's delta does not scale with it.
RESCALINGS = [("num_params", "square"), ("num_params", "huber"), ("tokens_seen", "square"),
              ("tokens_seen", "huber"), ("loss", "square")]


@settings(max_examples=40, deadline=None)
@given(rescaling=st.sampled_from(RESCALINGS), sizes=st.integers(4, 6), checkpoints=st.integers(5, 14),
       noise_sigma=st.floats(0.002, 0.03), rng_seed=st.integers(0, 2**32 - 1), count_factor=st.integers(2, 9),
       loss_factor=st.floats(0.2, 5.0))
def test_fit_scale_invariance(rescaling, sizes, checkpoints, noise_sigma, rng_seed, count_factor, loss_factor):
    """N x c moves A by alpha ln c and D x c moves B by beta ln c, the objective unchanged; loss x c moves E, A
    and B by ln c and the square-loss objective by c^2. Compared by objectives and predictions, since the
    exponents may slide along a flat valley at an unchanged objective."""
    column, loss_kind = rescaling
    fam = generate(SynthSpec(truth=TRUTH, sizes=tuple(int(v) for v in np.geomspace(1e7, 1e9, sizes).round()),
                             checkpoints_per_run=checkpoints, noise_sigma=noise_sigma, rng_seed=rng_seed))
    c = loss_factor if column == "loss" else 1.0
    if column == "num_params":
        rows = [r._replace(num_params=r.num_params * count_factor) for r in fam.records]
    elif column == "tokens_seen":
        rows = [r._replace(tokens_seen=r.tokens_seen * count_factor, total_tokens=r.total_tokens * count_factor)
                for r in fam.records]
    else:
        rows = [r._replace(loss=r.loss * c) for r in fam.records]
    moved = ScaledFamily.from_records(fam.family_id, rows)
    config = FitConfig(loss_kind=loss_kind)
    base, refit = fit(fam, config), fit(moved, config)
    assert base.converged and refit.converged
    assert refit.objective == pytest.approx(base.objective * c * c, rel=1e-6)
    # Square fits agree to ~1e-8 here; Huber predictions move by up to ~6e-5 along the valley.
    rel = 1e-6 if loss_kind == "square" else 1e-3
    np.testing.assert_allclose(predict_records(refit.params, moved), c * predict_records(base.params, fam), rtol=rel)


def test_fit_preconditions():
    few = ScaledFamily.from_records(
        "fam",
        [
            make_record(model_id=f"fam-m{i}", num_params=10**7 * (i + 1), tokens_seen=10**9)
            for i in range(3)
        ],
    )
    with pytest.raises(InsufficientDataError):
        fit(few, FitConfig())  # 3 records < 5

    two_runs = small_noiseless(sizes=(10**7, 10**8))
    with pytest.raises(InsufficientDataError, match="insufficient families"):
        fit(two_runs, FitConfig())

    single = ScaledFamily.from_records("fam", [make_record()])
    with pytest.raises(InsufficientDataError):
        fit(single, FitConfig(frozen={"A": 6.0, "alpha": 0.3}))


def test_fit_shortfall_is_the_one_size_rule():
    def family(runs, per_run):
        return ScaledFamily.from_records("fam", [
            make_record(model_id=f"fam-m{i}", num_params=10**7 * (i + 1), tokens_seen=10**8 * (k + 1))
            for i in range(runs)
            for k in range(per_run)
        ])

    both = FitConfig(frozen={"A": 6.0, "alpha": 0.3})
    assert fit_shortfall(family(3, 2)) is None
    assert fit_shortfall(family(5, 1), FitConfig()) is None
    assert fit_shortfall(family(4, 1)) == (
        "insufficient families: fit needs >= 5 records over >= 3 size families, "
        "family 'fam' has 4 records over 4 size families"
    )
    assert fit_shortfall(family(2, 3)).startswith("insufficient families")
    assert fit_shortfall(family(1, 2), both) is None
    assert fit_shortfall(family(1, 1), both).startswith("insufficient families: fit with frozen (A, alpha)")
    assert fit_shortfall(family(2, 3), FitConfig(frozen={"alpha": 0.3})) == fit_shortfall(family(2, 3))
    with pytest.raises(InsufficientDataError, match="family 'fam' has 4 records"):
        fit(family(4, 1))


def test_fit_rejects_mixed_corpora():
    records = [
        make_record(model_id=f"fam-m{i}", num_params=10**7 * (i + 1), tokens_seen=k * 10**8,
                    loss_corpus=corpus, loss=3.0 + 0.01 * k)
        for i in range(3)
        for k in range(1, 4)
        for corpus in ("pile", "c4")
    ]
    fam = ScaledFamily.from_records("fam", records)
    with pytest.raises(ValidationError, match="corpora"):
        fit(fam, FitConfig())


def test_fit_partial_freeze_keeps_full_preconditions():
    two_runs = small_noiseless(sizes=(10**7, 10**8))
    with pytest.raises(InsufficientDataError):
        fit(two_runs, FitConfig(frozen={"alpha": 0.34}))


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(loss_kind="absolute")
    for delta in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="delta"):
            FitConfig(delta=delta)
    for tolerance in (0.0, 1.0, 2.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="tolerance"):
            FitConfig(tolerance=tolerance)
    assert FitConfig(tolerance=0.5, delta=1e300).tolerance == 0.5
    with pytest.raises(ValidationError):
        FitConfig(restarts=0)
    with pytest.raises(ValidationError):
        FitConfig(frozen={"beta": 1.0})
    with pytest.raises(ValidationError):
        FitConfig(frozen={"A": float("nan")})


def test_fit_config_requires_integer_counts():
    # The counts follow check_count, the rule of every other count: an integral float, or a str that
    # reads as one, is that int.
    for field in ("restarts", "max_iterations"):
        for value in (2.5, "2.5", "x", True):
            with pytest.raises(ValidationError, match=field):
                FitConfig(**{field: value})
        for value in (3.0, "3", "3e0"):
            counted = getattr(FitConfig(**{field: value}), field)
            assert counted == 3 and type(counted) is int
    assert FitConfig(restarts=np.int64(4)).restarts == 4


def test_numeric_types_follow_the_numbers_tower():
    # Counts take any integral type, reals any real type, and both a str that float() reads;
    # bools, Decimal and complex are refused.
    for value in (3, 3.0, np.int64(3), np.uint8(3), "3"):
        assert check_count(value, "n") == 3 and type(check_count(value, "n")) is int
    for value in (2, 0.5, np.int64(2), np.float32(0.5), Fraction(1, 2), "0.5"):
        assert check_real(value, "x") == float(value) and type(check_real(value, "x")) is float
    assert FitConfig(max_iterations=np.uint8(7), delta=np.float32(0.5)).max_iterations == 7
    for bad in (True, np.bool_(True), Decimal("3"), 3 + 0j):
        with pytest.raises(ValidationError):
            check_count(bad, "n")
        with pytest.raises(ValidationError):
            check_real(bad, "x")
        with pytest.raises(ValidationError):
            FitConfig(restarts=bad)


def test_max_iterations_exhaustion_flags_non_convergence():
    fam = small_noiseless(noise_sigma=0.05, rng_seed=2)
    result = fit(fam, FitConfig(max_iterations=1, restarts=4))
    assert not result.converged
    assert result.params is not None


def test_converged_fits_never_carry_degenerate_exponents():
    rng = np.random.default_rng(88)
    lo, hi = EXPONENT_RANGE
    for _ in range(30):
        # Adversarial: random walk losses with no scaling structure.
        records = []
        for i in range(3):
            size = int(rng.integers(10**6, 10**9))
            for k in range(1, 4):
                records.append(
                    make_record(
                        model_id=f"fam-m{i}", num_params=size, tokens_seen=k * 10**7,
                        total_tokens=10**8, loss=float(rng.uniform(0.5, 8.0)),
                    )
                )
        fam = ScaledFamily.from_records("fam", records)
        result = fit(fam, FitConfig(restarts=8))
        if result.converged:
            assert lo <= result.params.alpha <= hi
            assert lo <= result.params.beta <= hi


# ---------------------------------------------------------------------------
# Gradient and Jacobian checks
# ---------------------------------------------------------------------------


def random_params(rng) -> LawParams:
    return LawParams(
        E=float(rng.uniform(-1.0, 1.5)),
        A=float(rng.uniform(0.0, 8.0)),
        alpha=float(rng.uniform(0.05, 1.0)),
        B=float(rng.uniform(0.0, 8.0)),
        beta=float(rng.uniform(0.05, 1.0)),
    )


def random_points_family(rng) -> ScaledFamily:
    records = []
    for i in range(3):
        size = int(rng.integers(10**6, 10**10))
        for k in range(4):
            records.append(
                make_record(
                    model_id=f"fam-m{i}", num_params=size,
                    tokens_seen=int(rng.integers(10**7, 10**10)) + k,
                    total_tokens=10**11, loss=float(rng.uniform(1.0, 6.0)),
                )
            )
    return ScaledFamily.from_records("fam", records)


def central_diff_jacobian(params: LawParams, fam: ScaledFamily, h: float = 1e-6) -> np.ndarray:
    """d prediction / d (E, A, alpha, B, beta) by central differences: (5, points), as _jacobian lays it out."""
    base = params.as_vector()
    rows = []
    for i in range(5):
        step = h * max(1.0, abs(base[i]))
        up, dn = base.copy(), base.copy()
        up[i] += step
        dn[i] -= step
        rows.append(
            (predict_records(LawParams.from_vector(up), fam) - predict_records(LawParams.from_vector(dn), fam))
            / (2 * step)
        )
    return np.stack(rows)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(404)
    for _ in range(10):
        params = random_params(rng)
        fam = random_points_family(rng)
        ln_n, ln_d, _ = _design(fam)
        analytic = _jacobian(_forward(params.as_vector(), ln_n, ln_d)[1], ln_n, ln_d, range(5))
        numeric = central_diff_jacobian(params, fam)
        # Unit floor: FD roundoff (~eps*|r|/h) swamps entries near zero, so a
        # bare relative comparison would test noise against noise there.
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5


def test_objective_gradient_matches_central_differences():
    # The gradient the solver forms: the Jacobian times the residuals' weights, whose Huber form is the
    # residual clipped to [-delta, delta].
    rng = np.random.default_rng(405)
    for config in (FitConfig(), FitConfig(loss_kind="huber")):
        for _ in range(5):
            params = random_params(rng)
            fam = random_points_family(rng)
            ln_n, ln_d, loss = _design(fam)
            pred, terms = _forward(params.as_vector(), ln_n, ln_d)
            res = pred - loss
            weights = 2.0 * res if config.loss_kind == "square" else np.clip(res, -config.delta, config.delta)
            analytic = _jacobian(terms, ln_n, ln_d, range(5)) @ weights
            base = params.as_vector()
            numeric = np.empty(5)
            for i in range(5):
                step = 1e-6 * max(1.0, abs(base[i]))
                up, dn = base.copy(), base.copy()
                up[i] += step
                dn[i] -= step
                numeric[i] = (
                    objective_value(predict_records(LawParams.from_vector(up), fam) - loss, config)
                    - objective_value(predict_records(LawParams.from_vector(dn), fam) - loss, config)
                ) / (2 * step)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5


def test_huber_beats_square_under_outliers():
    # Statistical: median parameter error over 20 seeds with one gross outlier.
    rng = np.random.default_rng(7)
    huber_errors, square_errors = [], []
    for seed in range(20):
        fam = small_noiseless(rng_seed=seed)
        records = list(fam.records)
        idx = int(rng.integers(0, len(records)))
        bad = records[idx]
        records[idx] = make_record(
            family_id=bad.family_id, model_id=bad.model_id, num_params=bad.num_params,
            tokens_seen=bad.tokens_seen, total_tokens=bad.total_tokens,
            loss=bad.loss * 1.5, seed=bad.seed,
        )
        poisoned = ScaledFamily.from_records(fam.family_id, records)
        truth_vec = TRUTH.as_vector()
        fit_h = fit(poisoned, FitConfig(loss_kind="huber"))
        fit_s = fit(poisoned, FitConfig(loss_kind="square"))
        huber_errors.append(float(np.linalg.norm(fit_h.params.as_vector() - truth_vec)))
        square_errors.append(float(np.linalg.norm(fit_s.params.as_vector() - truth_vec)))
    assert np.median(huber_errors) <= np.median(square_errors)


# ---------------------------------------------------------------------------
# Start profile
# ---------------------------------------------------------------------------


def brute_force_nnls(ln_n, ln_d, loss, alpha, beta):
    """Best feasible least-squares fit over every active set of [1, N^-alpha, D^-beta]: (objective, terms)."""
    design = np.stack((np.ones_like(loss), np.exp(-alpha * ln_n), np.exp(-beta * ln_d)), axis=1)
    design /= design.max(axis=0)
    best = (float(np.sum(loss * loss)), np.zeros_like(design))
    for size in (1, 2, 3):
        for active in map(list, itertools.combinations(range(3), size)):
            coef = np.linalg.lstsq(design[:, active], loss, rcond=None)[0]
            objective = float(np.sum((design[:, active] @ coef - loss) ** 2))
            if np.all(coef > 0) and objective < best[0]:
                terms = np.zeros_like(design)
                terms[:, active] = design[:, active] * coef
                best = (objective, terms)
    return best


@pytest.mark.parametrize("truth", [TRUTH, TRUTH.replace(E=-30.0)], ids=["with-floor", "no-floor"])
def test_profile_matches_brute_force_nnls(truth):
    ln_n, ln_d, loss = _design(small_noiseless(truth=truth, noise_sigma=0.02, rng_seed=3))
    objective, starts = _profile(ln_n, ln_d, loss, {})
    zeroed = 0
    for i, j in ((0, 0), (0, 31), (31, 0), (31, 31), (9, 7), (14, 20), (20, 14), (25, 3)):
        point = 32 * i + j
        assert starts[point, 2] == _EXPONENT_GRID[i] and starts[point, 4] == _EXPONENT_GRID[j]
        want_objective, want_terms = brute_force_nnls(ln_n, ln_d, loss, _EXPONENT_GRID[i], _EXPONENT_GRID[j])
        assert objective[point] == pytest.approx(want_objective, rel=1e-8, abs=1e-12)
        terms = np.stack(np.broadcast_arrays(*_forward(starts[point], ln_n, ln_d)[1]), axis=1)
        np.testing.assert_allclose(terms, want_terms, rtol=1e-6, atol=1e-10)
        zeroed += int(np.any(np.all(want_terms == 0, axis=0)))
    # The no-floor family exercises the smaller active sets.
    assert zeroed > 0 or truth is TRUTH


def test_starts_for_a_budget_extend_the_smaller_budget():
    fam = small_noiseless(noise_sigma=0.03, rng_seed=17)
    previous = _build_starts(*_design(fam), FitConfig(restarts=1))
    for restarts in (2, 5, 32, 33, 64, 1024):
        starts = _build_starts(*_design(fam), FitConfig(restarts=restarts))
        assert len(starts) == restarts
        assert np.array_equal(starts[: len(previous)], previous)
        previous = starts
    # Budgets past the 32 x 32 grid are capped at it.
    assert np.array_equal(_build_starts(*_design(fam), FitConfig(restarts=5000)), previous)


def test_frozen_alpha_starts_vary_only_beta():
    fam = small_noiseless(noise_sigma=0.02, rng_seed=9)
    starts = _build_starts(*_design(fam), FitConfig(frozen={"alpha": 0.3}, restarts=100))
    assert len(starts) == 32
    assert np.all(starts[:, 2] == 0.3)
    assert sorted(starts[:, 4]) == sorted(_EXPONENT_GRID)


def test_frozen_a_starts_keep_a():
    fam = small_noiseless(noise_sigma=0.02, rng_seed=9)
    for frozen in ({"A": 5.0}, {"A": 5.0, "alpha": 0.3}):
        starts = _build_starts(*_design(fam), FitConfig(frozen=frozen))
        assert np.all(starts[:, 1] == 5.0)
        assert np.all(np.isfinite(starts))


def test_seeds_at_one_size_fit_quietly():
    # Every run at one N: the N term is a second constant column, so an active set
    # holding both is singular and alpha is not identified. The mirror, N and D
    # swapped, puts every record at one D; the law is symmetric under the swap.
    fam = generate(SynthSpec(truth=TRUTH, sizes=(10**8,), seeds_per_size=3, seed_sigma=0.02, noise_sigma=0.01,
                             checkpoints_per_run=10, rng_seed=1))
    mirror = ScaledFamily.from_records("fam", [
        make_record(model_id=f"m{i}", num_params=r.tokens_seen, tokens_seen=r.num_params,
                    total_tokens=r.num_params, loss=r.loss)
        for i, r in enumerate(fam.records)
    ])
    assert fam.num_runs == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {(name, loss): fit(data, FitConfig(loss_kind=loss))
                   for name, data in (("one-N", fam), ("one-D", mirror)) for loss in ("square", "huber")}
        frozen = fit(fam, FitConfig(frozen={"alpha": 0.3}))
    assert frozen.converged and all(r.converged for r in results.values())
    # Freezing an unidentified exponent costs nothing, so the free fits must do as well.
    assert results["one-N", "square"].objective <= frozen.objective * (1 + 1e-9)
    for loss in ("square", "huber"):
        assert results["one-D", loss].objective == pytest.approx(results["one-N", loss].objective, rel=1e-9)
