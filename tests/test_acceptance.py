"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Every test pins its tolerance inline and uses fixed seeds, so the suite is
deterministic. The final dataset-replication check runs only when
SCALEFIT_DATASET points at a released aggregate log.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from scalefit import (
    FitConfig,
    LawParams,
    ScalefitError,
    ScaledFamily,
    SubsetSpec,
    SynthSpec,
    WarmupBump,
    are,
    baseline_best_performance,
    baseline_most_trained,
    build_target,
    build_train,
    efficiency_stars,
    final_checkpoints,
    fit,
    generate,
    ingest,
    k_largest_runs,
    k_smallest_runs,
    max_param_family,
    max_token_family,
    objective_value,
    pca_params,
    predict_records,
    select_train_target,
    train_flops,
)
from scalefit.law import _design, _forward, _jacobian

from conftest import SIZES_6, TRUTH, make_record, random_family
from test_meta import fake_cell


def check(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def family_spec(**kw) -> SynthSpec:
    base = dict(truth=TRUTH, sizes=SIZES_6, tokens_per_run=2_000_000_000,
                checkpoints_per_run=20, family_id="accept")
    base.update(kw)
    return SynthSpec(**base)


def split_fit_are(family: ScaledFamily, spec=None, config=None) -> float:
    train, target = select_train_target(family, spec)
    result = fit(train, config or FitConfig())
    try:
        return are(result.params, target).are
    except OverflowError:
        return math.inf


def test_criterion_1_noiseless_recovery(capsys):
    start = time.perf_counter()
    family = generate(family_spec())
    value = split_fit_are(family)
    elapsed = time.perf_counter() - start
    ok = value <= 0.005 and elapsed < 10.0
    check(capsys, ok, f"1 noiseless recovery: ARE {value:.3g} <= 0.005 in {elapsed:.1f}s (< 10s)")


def test_criterion_2_noisy_median(capsys):
    start = time.perf_counter()
    values = []
    for seed in range(20):
        family = generate(family_spec(noise_sigma=0.01, rng_seed=seed))
        values.append(split_fit_are(family))
    median = statistics.median(values)
    elapsed = time.perf_counter() - start
    ok = median <= 0.04 and elapsed < 120.0
    check(
        capsys, ok,
        f"2 noisy robustness: median ARE {median:.4f} <= 0.04 over 20 seeds in {elapsed:.0f}s (< 120s)",
    )


def test_criterion_3_checkpoint_benefit(capsys):
    all_ckpt, final_only = [], []
    for seed in range(20):
        family = generate(family_spec(noise_sigma=0.02, rng_seed=seed))
        train, target = select_train_target(family)
        result_all = fit(train, FitConfig())
        result_final = fit(final_checkpoints(train), FitConfig())
        for result, bucket in ((result_all, all_ckpt), (result_final, final_only)):
            try:
                bucket.append(are(result.params, target).are)
            except OverflowError:
                bucket.append(math.inf)
    med_all, med_final = statistics.median(all_ckpt), statistics.median(final_only)
    ok = med_all <= med_final
    check(
        capsys, ok,
        f"3 checkpoint benefit: median ARE all-checkpoints {med_all:.4f} <= final-only {med_final:.4f}",
    )


def test_criterion_4_cutoff_benefit(capsys):
    bump = WarmupBump(amplitude=0.8, span_tokens=10_000_000_000)
    with_cut, without = [], []
    for seed in range(20):
        family = generate(
            family_spec(
                tokens_per_run=100_000_000_000, noise_sigma=0.01,
                warmup_bump=bump, rng_seed=seed,
            )
        )
        with_cut.append(split_fit_are(family, SubsetSpec(cutoff_tokens=10_000_000_000)))
        without.append(split_fit_are(family, SubsetSpec()))
    med_cut, med_raw = statistics.median(with_cut), statistics.median(without)
    ok = med_cut <= med_raw
    check(
        capsys, ok,
        f"4 early-cutoff benefit: median ARE with 10e9 cutoff {med_cut:.4f} <= without {med_raw:.4f}",
    )


def test_criterion_5_huber_robustness(capsys):
    family = generate(family_spec())
    victim_run = sorted(
        (r for r in family.records if r.num_params == SIZES_6[2]),
        key=lambda r: r.tokens_seen,
    )
    victim = victim_run[9]
    records = [
        make_record(
            family_id=r.family_id, model_id=r.model_id, num_params=r.num_params,
            tokens_seen=r.tokens_seen, total_tokens=r.total_tokens, seed=r.seed,
            loss=r.loss * 1.5 if r is victim else r.loss,
        )
        for r in family.records
    ]
    poisoned = ScaledFamily.from_records(family.family_id, records)
    huber_are = split_fit_are(poisoned, config=FitConfig(loss_kind="huber", delta=1e-3))
    square_are = split_fit_are(poisoned, config=FitConfig(loss_kind="square"))
    ok = huber_are < square_are
    check(
        capsys, ok,
        f"5 Huber robustness under x1.5 outlier: huber ARE {huber_are:.3g} < square ARE {square_are:.3g}",
    )


def test_criterion_6_frozen_transfer(capsys):
    family = generate(
        SynthSpec(
            truth=TRUTH, sizes=(10**8, 10**9), tokens_per_run=2_000_000_000,
            checkpoints_per_run=20, noise_sigma=0.005, rng_seed=1, family_id="accept",
        )
    )
    train = k_smallest_runs(family, 1)
    target = build_target(family)
    assert train.num_runs == 1
    result = fit(train, FitConfig(frozen={"A": TRUTH.A, "alpha": TRUTH.alpha}))
    value = are(result.params, target).are
    ok = result.converged and value <= 0.01
    check(capsys, ok, f"6 frozen-(A, alpha) transfer to 10x params: ARE {value:.4f} <= 0.01")


# ---------------------------------------------------------------------------
# Criterion 7: exact brute-force equivalence, 100 randomized instances each
# ---------------------------------------------------------------------------


def brute_subsets_equal(fam: ScaledFamily, rng) -> bool:
    recs = list(fam.records)
    top = max(r.num_params for r in recs)
    if set(max_param_family(fam).records) != {r for r in recs if r.num_params == top}:
        return False

    q = float(rng.uniform(0.05, 1.0))
    t_max = max(r.tokens_seen for r in recs)
    if set(max_token_family(fam, q).records) != {r for r in recs if r.tokens_seen >= q * t_max}:
        return False

    ranked = sorted(
        {r.run_key for r in recs},
        key=lambda run: (max(r.num_params for r in recs if r.run_key == run), run[0], run[1]),
    )
    k = int(rng.integers(1, len(ranked) + 1))
    small = set(ranked[:k])
    if set(k_smallest_runs(fam, k).records) != {r for r in recs if r.run_key in small}:
        return False
    large = set(ranked[-k:])
    if set(k_largest_runs(fam, k).records) != {r for r in recs if r.run_key in large}:
        return False

    finals = set()
    for run in ranked:
        finals.add(max((r for r in recs if r.run_key == run), key=lambda r: r.tokens_seen))
    if set(final_checkpoints(fam).records) != finals:
        return False

    if set(build_target(fam, 0.3).records) != {
        r for r in recs
        if r.num_params == top
        and r.tokens_seen >= 0.3 * max(x.tokens_seen for x in recs if x.num_params == top)
    }:
        return False

    spec = SubsetSpec(
        num_models=int(rng.integers(1, len(ranked) + 1)) if rng.random() < 0.7 else None,
        train_fraction_max=float(rng.uniform(0.2, 1.0)) if rng.random() < 0.7 else None,
        suffix_fraction=float(rng.uniform(0.2, 1.0)) if rng.random() < 0.5 else None,
        cutoff_tokens=int(rng.integers(0, 10**10)) if rng.random() < 0.5 else None,
    )
    expected = [r for r in recs if r.num_params != top]
    if spec.num_models is not None:
        sub_ranked = sorted(
            {r.run_key for r in expected},
            key=lambda run: (max(r.num_params for r in expected if r.run_key == run), run[0], run[1]),
        )
        keep = set(sub_ranked[: spec.num_models])
        expected = [r for r in expected if r.run_key in keep]
    if spec.train_fraction_max is not None:
        expected = [r for r in expected if r.tokens_seen <= spec.train_fraction_max * r.total_tokens]
    if spec.suffix_fraction is not None:
        expected = [r for r in expected if r.tokens_seen >= (1.0 - spec.suffix_fraction) * r.total_tokens]
    if spec.cutoff_tokens is not None:
        expected = [r for r in expected if r.tokens_seen >= spec.cutoff_tokens]
    return set(build_train(fam, spec).records) == set(expected)


def brute_baselines_equal(train: ScaledFamily, targets: ScaledFamily) -> bool:
    best = min(r.loss for r in train.records)
    report = baseline_best_performance(train, targets)
    total = 0.0
    for rec, row in zip(targets.records, report.per_target):
        if row.predicted != best or row.observed != rec.loss:
            return False
        total += abs((best - rec.loss) / rec.loss)
    if report.are != total / len(targets.records):
        return False

    most = min(
        train.records,
        key=lambda r: (-(r.num_params * r.tokens_seen), r.loss, r.model_id, r.seed, r.tokens_seen),
    )
    report = baseline_most_trained(train, targets)
    total = 0.0
    for rec, row in zip(targets.records, report.per_target):
        if row.predicted != most.loss:
            return False
        total += abs((most.loss - rec.loss) / rec.loss)
    return report.are == total / len(targets.records)


def brute_flops_equal(fam: ScaledFamily) -> bool:
    expected: float | int = 0
    for run in sorted({r.run_key for r in fam.records}):
        run_recs = [r for r in fam.records if r.run_key == run]
        last = max(run_recs, key=lambda r: r.tokens_seen)
        expected += last.flops if last.flops is not None else 6 * last.num_params * last.tokens_seen
    return train_flops(fam) == expected


def brute_stars_equal(rng) -> bool:
    cells = []
    for k in range(2, 2 + int(rng.integers(2, 5))):
        for q in (0.25, 0.5, 0.75, 1.0):
            converged = bool(rng.random() < 0.75)
            cells.append(
                fake_cell(
                    k, q, float(rng.integers(1, 40)),
                    are=float(rng.uniform(0.0, 0.25)) if converged else None,
                    converged=converged,
                )
            )
    thresholds = (0.15, 0.10, 0.05)
    stars = efficiency_stars(cells, thresholds)
    for t in thresholds:
        pool = [c for c in cells if c.converged and c.are is not None and c.are <= t]
        if not pool:
            if stars[t] is not None:
                return False
            continue
        best = pool[0]
        for c in pool[1:]:
            if (c.train_flops, c.are, c.num_models, c.train_fraction) < (
                best.train_flops, best.are, best.num_models, best.train_fraction,
            ):
                best = c
        if stars[t] is not best:
            return False
    return True


def test_criterion_7_exact_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    subset_ok = all(brute_subsets_equal(random_family(rng, f"s{i}"), rng) for i in range(100))
    baseline_ok = all(
        brute_baselines_equal(random_family(rng, f"tr{i}"), random_family(rng, f"tg{i}"))
        for i in range(100)
    )
    flops_ok = all(brute_flops_equal(random_family(rng, f"f{i}")) for i in range(100))
    stars_ok = all(brute_stars_equal(rng) for _ in range(100))
    ok = subset_ok and baseline_ok and flops_ok and stars_ok
    check(
        capsys, ok,
        "7 exact oracle equivalence on 100 instances each: "
        f"subsets {subset_ok}, baselines {baseline_ok}, flops {flops_ok}, stars {stars_ok}",
    )


def test_criterion_8_pca(capsys):
    base = np.array([0.5, 6.0, 0.3, 6.0, 0.25])
    direction = np.array([0.1, 0.2, 0.01, -0.1, 0.02])
    rank1 = [LawParams.from_vector(base + t * direction) for t in range(8)]
    first_ratio = pca_params(rank1).explained_variance_ratio[0]

    rng = np.random.default_rng(808)
    coupled = []
    for _ in range(40):
        alpha = float(rng.uniform(0.2, 0.6))
        beta = float(rng.uniform(0.2, 0.6))
        coupled.append(
            LawParams(
                E=float(rng.normal(0.5, 0.1)),
                A=2.0 * alpha + float(rng.normal(0.0, 1e-3)),
                alpha=alpha,
                B=3.0 * beta + float(rng.normal(0.0, 1e-3)),
                beta=beta,
            )
        )
    top3 = float(pca_params(coupled).explained_variance_ratio[:3].sum())
    ok = first_ratio >= 0.999999 and top3 >= 0.99
    check(
        capsys, ok,
        f"8 PCA: rank-1 first ratio {first_ratio:.8f} >= 0.999999, coupled top-3 {top3:.4f} >= 0.99",
    )


def test_criterion_9_gradient_checks(capsys):
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        params = LawParams(
            E=float(rng.uniform(-1.0, 1.5)),
            A=float(rng.uniform(0.0, 8.0)),
            alpha=float(rng.uniform(0.05, 1.0)),
            B=float(rng.uniform(0.0, 8.0)),
            beta=float(rng.uniform(0.05, 1.0)),
        )
        records = []
        for i in range(3):
            size = int(rng.integers(10**6, 10**10))
            for k in range(3):
                records.append(
                    make_record(
                        model_id=f"fam-m{i}", num_params=size,
                        tokens_seen=int(rng.integers(10**7, 10**10)) + k,
                        total_tokens=10**11, loss=float(rng.uniform(1.0, 6.0)),
                    )
                )
        fam = ScaledFamily.from_records("fam", records)
        base = params.as_vector()

        # The solver's own Jacobian kernel, d prediction / d (E, A, alpha, B, beta): (5, points).
        ln_n, ln_d, loss = _design(fam)
        pred, terms = _forward(base, ln_n, ln_d)
        analytic_jac = _jacobian(terms, ln_n, ln_d, range(5))
        numeric_jac = np.empty_like(analytic_jac)
        for i in range(5):
            step = 1e-6 * max(1.0, abs(base[i]))
            up, dn = base.copy(), base.copy()
            up[i] += step
            dn[i] -= step
            numeric_jac[i] = (
                predict_records(LawParams.from_vector(up), fam) - predict_records(LawParams.from_vector(dn), fam)
            ) / (2 * step)
        # Relative agreement with a unit floor: near-zero entries sit below
        # central-difference roundoff and carry no information either way.
        denom = np.maximum(np.maximum(np.abs(analytic_jac), np.abs(numeric_jac)), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic_jac - numeric_jac) / denom)))

        res = pred - loss
        for config in (FitConfig(), FitConfig(loss_kind="huber")):
            # The gradient the solver forms: the Jacobian times the residuals' weights, for Huber the clipped residuals.
            weights = 2.0 * res if config.loss_kind == "square" else np.clip(res, -config.delta, config.delta)
            analytic_grad = analytic_jac @ weights
            numeric_grad = np.empty(5)
            for i in range(5):
                step = 1e-6 * max(1.0, abs(base[i]))
                up, dn = base.copy(), base.copy()
                up[i] += step
                dn[i] -= step
                numeric_grad[i] = (
                    objective_value(predict_records(LawParams.from_vector(up), fam) - loss, config)
                    - objective_value(predict_records(LawParams.from_vector(dn), fam) - loss, config)
                ) / (2 * step)
            denom = np.maximum(np.maximum(np.abs(analytic_grad), np.abs(numeric_grad)), 1.0)
            worst = max(worst, float(np.max(np.abs(analytic_grad - numeric_grad) / denom)))
    ok = worst <= 1e-5
    check(
        capsys, ok,
        f"9 gradient/Jacobian vs central differences at 50 points: worst relative gap {worst:.2e} <= 1e-5",
    )


def test_criterion_10_dataset_replication(capsys):
    path = os.environ.get("SCALEFIT_DATASET")
    if not path:
        with capsys.disabled():
            print("[SKIP] 10 dataset replication: SCALEFIT_DATASET is not set")
        pytest.skip("SCALEFIT_DATASET not set")
    families = ingest(path)
    baseline_ares, fit_ares = [], []
    for family in families:
        try:
            train, target = select_train_target(family)
        except ScalefitError:
            continue
        baseline_ares.append(baseline_best_performance(train, target).are)
        result = fit(train, FitConfig())
        if result.converged:
            try:
                fit_ares.append(are(result.params, target).are)
            except OverflowError:
                pass
    assert baseline_ares, "dataset yielded no scorable families"
    mean_baseline = sum(baseline_ares) / len(baseline_ares)
    best_fit = min(fit_ares) if fit_ares else math.inf
    ok = 0.15 <= mean_baseline <= 0.21 and best_fit <= 0.10
    check(
        capsys, ok,
        f"10 dataset replication: mean best-performance baseline ARE {mean_baseline:.3f} "
        f"in [0.15, 0.21]; best family fit ARE {best_fit:.3f} <= 0.10",
    )
