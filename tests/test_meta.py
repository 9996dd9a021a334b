import csv
import io

import numpy as np
import pytest

from scalefit import (
    ContourLine,
    FitConfig,
    FitResult,
    GridCell,
    InsufficientDataError,
    LawParams,
    ScaledFamily,
    SubsetSpec,
    SynthSpec,
    ValidationError,
    efficiency_stars,
    final_checkpoints,
    generate,
    iso_flop_contours,
    loo_family_cv,
    pca_params,
    run_grid,
    train_flops,
)
from scalefit.meta import DEFAULT_STAR_THRESHOLDS, FLOPS_PER_PARAM_TOKEN

from conftest import SIZES_6, TRUTH, make_record, random_family


def fake_cell(k, q, flops, are=None, converged=False):
    fit = None
    if converged:
        fit = FitResult(params=TRUTH, objective=0.0, converged=True, restarts_tried=1, n_points=5)
    return GridCell(
        spec=SubsetSpec(num_models=k, train_fraction_max=q),
        scale_up=None, train_flops=flops, fit=fit, are=are,
        failure=None if converged else "non-convergence",
    )


# ---------------------------------------------------------------------------
# Training FLOPs
# ---------------------------------------------------------------------------


def test_train_flops_single_run_arithmetic():
    fam = ScaledFamily.from_records(
        "fam",
        [make_record(tokens_seen=5 * 10**8), make_record(tokens_seen=10**9)],
    )
    assert train_flops(fam) == FLOPS_PER_PARAM_TOKEN * 10**8 * 10**9


def test_train_flops_override_on_last_checkpoint_only():
    fam = ScaledFamily.from_records(
        "fam",
        [
            make_record(tokens_seen=5 * 10**8, flops=1.0),
            make_record(tokens_seen=10**9, flops=123.0),
        ],
    )
    assert train_flops(fam) == 123.0

    # Override on an intermediate checkpoint is ignored.
    fam2 = ScaledFamily.from_records(
        "fam",
        [
            make_record(tokens_seen=5 * 10**8, flops=123.0),
            make_record(tokens_seen=10**9),
        ],
    )
    assert train_flops(fam2) == FLOPS_PER_PARAM_TOKEN * 10**8 * 10**9


def test_train_flops_brute_force_randomized():
    rng = np.random.default_rng(41)
    for i in range(30):
        fam = random_family(rng, f"fam{i}")
        expected: float | int = 0
        runs = {}
        for r in fam.records:
            runs.setdefault(r.run_key, []).append(r)
        for recs in runs.values():
            last = max(recs, key=lambda r: r.tokens_seen)
            if last.flops is not None:
                expected += last.flops
            else:
                expected += 6 * last.num_params * last.tokens_seen
        assert train_flops(fam) == expected


# ---------------------------------------------------------------------------
# Configuration grid
# ---------------------------------------------------------------------------


def test_run_grid_noiseless(noiseless_family):
    report = run_grid(noiseless_family, num_models=(3, 4, 2), train_fractions=(1.0, 0.25))
    assert report.num_models_axis == (2, 3, 4)
    assert report.train_fraction_axis == (0.25, 1.0)
    assert len(report.cells) == 6
    by_key = {(c.num_models, c.train_fraction): c for c in report.cells}
    for q in (0.25, 1.0):
        failed = by_key[(2, q)]
        assert failed.failure == "insufficient families"
        assert failed.fit is None and failed.are is None
    for k in (3, 4):
        for q in (0.25, 1.0):
            cell = by_key[(k, q)]
            assert cell.converged
            assert cell.are is not None and cell.are <= 1e-6
            assert cell.scale_up == pytest.approx(SIZES_6[-1] / SIZES_6[k - 1], rel=1e-12)
    # More data never costs more than a strict subset of it provides.
    assert by_key[(4, 1.0)].train_flops > by_key[(3, 1.0)].train_flops
    assert by_key[(3, 1.0)].train_flops > by_key[(3, 0.25)].train_flops


def test_run_grid_records_cells_too_thin_to_fit(noiseless_family):
    # 1.1% of the budget keeps one checkpoint per run: 3 or 4 records, under the 5 a fit needs.
    report = run_grid(noiseless_family, [3, 4], [0.011, 1.0])
    by_key = {(c.num_models, c.train_fraction): c for c in report.cells}
    for k in (3, 4):
        thin = by_key[(k, 0.011)]
        assert (thin.failure, thin.fit, thin.are) == ("insufficient families", None, None)
        assert by_key[(k, 1.0)].converged


def test_run_grid_cells_in_row_major_order(noiseless_family):
    report = run_grid(noiseless_family, num_models=(3, 4), train_fractions=(0.5, 1.0))
    keys = [(c.num_models, c.train_fraction) for c in report.cells]
    assert keys == [(3, 0.5), (3, 1.0), (4, 0.5), (4, 1.0)]


def test_run_grid_all_infeasible_raises(noiseless_family):
    with pytest.raises(InsufficientDataError):
        run_grid(noiseless_family, num_models=(1, 2), train_fractions=(1.0,))


def test_run_grid_empty_axis_raises(noiseless_family):
    with pytest.raises(ValidationError):
        run_grid(noiseless_family, num_models=(), train_fractions=(1.0,))


def test_run_grid_deterministic(noiseless_family):
    a = run_grid(noiseless_family, num_models=(3, 4), train_fractions=(0.5, 1.0))
    b = run_grid(noiseless_family, num_models=(3, 4), train_fractions=(0.5, 1.0))
    assert a.to_csv() == b.to_csv()


def test_grid_csv_shape(noiseless_family):
    report = run_grid(noiseless_family, num_models=(2, 3), train_fractions=(1.0,))
    lines = report.to_csv().splitlines()
    assert lines[0].startswith("num_models,train_fraction,scale_up,are,train_flops,converged,failure")
    assert len(lines) == 1 + len(report.cells)
    failed = next(line for line in lines[1:] if line.startswith("2,"))
    assert "insufficient families" in failed


# ---------------------------------------------------------------------------
# Iso-FLOP contours
# ---------------------------------------------------------------------------


def test_contour_two_by_two_hand_check():
    cells = [
        fake_cell(1, 0.5, 1.0), fake_cell(2, 0.5, 2.0),
        fake_cell(2, 1.0, 3.0), fake_cell(1, 1.0, 4.0),
    ]
    (line,) = iso_flop_contours(cells, [2.5])
    assert line.level == 2.5
    assert len(line.polylines) == 1
    points = line.polylines[0]
    assert len(points) == 2
    assert sorted(points) == [(1.0, 0.75), (2.0, 0.75)]


def test_contour_level_outside_range_is_empty():
    cells = [
        fake_cell(1, 0.5, 1.0), fake_cell(2, 0.5, 2.0),
        fake_cell(2, 1.0, 3.0), fake_cell(1, 1.0, 4.0),
    ]
    lines = iso_flop_contours(cells, [100.0, 2.5])
    assert lines[0].polylines == ()
    assert lines[1].polylines != ()


def test_contour_constant_field_yields_boundary_box():
    cells = [
        fake_cell(1, 0.5, 7.0), fake_cell(2, 0.5, 7.0),
        fake_cell(2, 1.0, 7.0), fake_cell(1, 1.0, 7.0),
    ]
    (line,) = iso_flop_contours(cells, [7.0])
    assert line.polylines == (
        ((1.0, 0.5), (2.0, 0.5), (2.0, 1.0), (1.0, 1.0), (1.0, 0.5)),
    )


def test_contour_saddle_produces_two_segments():
    cells = [
        fake_cell(1, 0.5, 10.0), fake_cell(2, 0.5, 1.0),
        fake_cell(2, 1.0, 10.0), fake_cell(1, 1.0, 1.0),
    ]
    (line,) = iso_flop_contours(cells, [5.0])
    assert len(line.polylines) == 2


def test_contour_crossings_lie_on_level():
    # Bilinear interpolation along edges: every emitted vertex sits where the
    # edge's linear FLOP interpolant equals the level.
    cells = [fake_cell(k, q, float(k * 10 + q * 4)) for k in (1, 2, 3) for q in (0.25, 0.5, 1.0)]
    values = {(c.num_models, c.train_fraction): c.train_flops for c in cells}
    xs, ys = (1.0, 2.0, 3.0), (0.25, 0.5, 1.0)
    for line in iso_flop_contours(cells, [15.0, 22.0]):
        for poly in line.polylines:
            for (x, y) in poly:
                # Locate the edge the point sits on and interpolate.
                if x in xs:
                    j = max(i for i in range(len(ys) - 1) if ys[i] <= y)
                    va, vb = values[(x, ys[j])], values[(x, ys[j + 1])]
                    t = (y - ys[j]) / (ys[j + 1] - ys[j])
                else:
                    i = max(i for i in range(len(xs) - 1) if xs[i] <= x)
                    va, vb = values[(xs[i], y)], values[(xs[i + 1], y)]
                    t = (x - xs[i]) / (xs[i + 1] - xs[i])
                assert va + t * (vb - va) == pytest.approx(line.level, rel=1e-9)


def test_contour_validation():
    cells = [
        fake_cell(1, 0.5, 1.0), fake_cell(2, 0.5, 2.0),
        fake_cell(2, 1.0, 3.0), fake_cell(1, 1.0, 4.0),
    ]
    with pytest.raises(ValidationError):
        iso_flop_contours(cells, [0.0])
    with pytest.raises(ValidationError):
        iso_flop_contours(cells[:3], [2.5])  # incomplete rectangle
    with pytest.raises(ValidationError):
        iso_flop_contours(cells + [fake_cell(1, 0.5, 9.0)], [2.5])  # duplicate
    with pytest.raises(ValidationError):
        iso_flop_contours([], [2.5])


def test_contour_serialization():
    line = ContourLine(level=2.0, polylines=(((1.0, 0.5), (2.0, 0.75)),))
    assert line.to_dict() == {"level": 2.0, "polylines": [[[1.0, 0.5], [2.0, 0.75]]]}


# ---------------------------------------------------------------------------
# Efficiency stars
# ---------------------------------------------------------------------------


def test_stars_pick_cheapest_qualifying():
    cells = [
        fake_cell(2, 0.5, 100.0, are=0.02, converged=True),
        fake_cell(3, 0.5, 50.0, are=0.09, converged=True),
        fake_cell(4, 0.5, 10.0, are=0.30, converged=True),
        fake_cell(5, 0.5, 5.0, are=0.12),  # not converged, never eligible
    ]
    stars = efficiency_stars(cells)
    assert set(stars) == set(DEFAULT_STAR_THRESHOLDS)
    assert stars[0.05].train_flops == 100.0
    assert stars[0.10].train_flops == 50.0
    assert stars[0.15].train_flops == 50.0


def test_stars_none_when_nothing_qualifies():
    cells = [fake_cell(2, 0.5, 10.0, are=0.5, converged=True)]
    assert efficiency_stars(cells, (0.05,)) == {0.05: None}


def test_stars_tie_break_on_are_then_models():
    cells = [
        fake_cell(4, 0.5, 10.0, are=0.04, converged=True),
        fake_cell(3, 0.5, 10.0, are=0.02, converged=True),
        fake_cell(2, 0.5, 10.0, are=0.02, converged=True),
    ]
    star = efficiency_stars(cells, (0.05,))[0.05]
    assert star.are == 0.02 and star.num_models == 2


def test_stars_brute_force_randomized():
    rng = np.random.default_rng(53)
    for _ in range(40):
        cells = []
        for k in range(2, 2 + int(rng.integers(2, 6))):
            for q in (0.25, 0.5, 1.0):
                converged = bool(rng.random() < 0.8)
                cells.append(
                    fake_cell(
                        k, q, float(rng.integers(1, 50)),
                        are=float(rng.uniform(0.0, 0.3)) if converged else None,
                        converged=converged,
                    )
                )
        thresholds = (0.15, 0.10, 0.05)
        stars = efficiency_stars(cells, thresholds)
        for t in thresholds:
            pool = [c for c in cells if c.converged and c.are is not None and c.are <= t]
            if not pool:
                assert stars[t] is None
            else:
                expected = min(pool, key=lambda c: (c.train_flops, c.are, c.num_models, c.train_fraction))
                assert stars[t] is expected
        # Tighter thresholds can only cost the same or more compute.
        costs = [stars[t].train_flops for t in sorted(thresholds) if stars[t] is not None]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------------------
# Leave-one-size-family-out CV
# ---------------------------------------------------------------------------


def test_loo_noiseless(noiseless_family):
    report = loo_family_cv(noiseless_family)
    assert report.family_id == noiseless_family.family_id
    assert len(report.rows) == 6
    assert {row.num_params for row in report.rows} == set(SIZES_6)
    for row in report.rows:
        assert row.converged and row.failure is None
        assert row.are <= 1e-6


def test_loo_flags_a_corrupted_run(noiseless_family):
    bad_size = SIZES_6[2]
    records = [
        make_record(
            family_id=r.family_id, model_id=r.model_id, num_params=r.num_params,
            tokens_seen=r.tokens_seen, total_tokens=r.total_tokens, seed=r.seed,
            loss=r.loss * 1.3 if r.num_params == bad_size else r.loss,
        )
        for r in noiseless_family.records
    ]
    fam = ScaledFamily.from_records(noiseless_family.family_id, records)
    report = loo_family_cv(fam, FitConfig(loss_kind="huber"))
    worst = max(report.rows, key=lambda row: row.are if row.are is not None else -1.0)
    assert worst.num_params == bad_size
    assert worst.are == pytest.approx(0.3 / 1.3, abs=0.02)
    for row in report.rows:
        if row.num_params != bad_size:
            assert row.are < 0.05


def test_loo_requires_four_runs():
    # Under 4 size families every fold trains on at most 2: each row is a recorded shortfall.
    for sizes, seeds in ((SIZES_6[:3], 1), (SIZES_6[:1], 3)):
        spec = SynthSpec(truth=TRUTH, sizes=sizes, tokens_per_run=10**9, checkpoints_per_run=5,
                         seeds_per_size=seeds, rng_seed=0)
        rows = loo_family_cv(generate(spec)).rows
        assert [(r.failure, r.are, r.converged) for r in rows] == [("insufficient families", None, False)] * 3


def test_loo_records_per_row_failures():
    spec = SynthSpec(truth=TRUTH, sizes=SIZES_6[:4], tokens_per_run=10**9,
                     checkpoints_per_run=5, rng_seed=0)
    report = loo_family_cv(generate(spec))
    assert len(report.rows) == 4
    by_size = {row.num_params: row for row in report.rows}
    # Holding out a small run leaves only 2 trainable runs below the top size.
    for size in SIZES_6[:3]:
        assert by_size[size].failure == "insufficient families"
        assert not by_size[size].converged and by_size[size].are is None
    top_row = by_size[SIZES_6[3]]
    assert top_row.converged and top_row.are <= 1e-6


def test_loo_records_folds_too_thin_to_fit(noiseless_family):
    # One record per run: a fold trains on 4 records unless it holds out the top run.
    report = loo_family_cv(final_checkpoints(noiseless_family))
    assert len(report.rows) == 6
    by_size = {row.num_params: row for row in report.rows}
    for size in SIZES_6[:-1]:
        row = by_size[size]
        assert (row.failure, row.are, row.converged) == ("insufficient families", None, False)
    top_row = by_size[SIZES_6[-1]]
    assert top_row.converged and top_row.failure is None and top_row.are is not None


def test_prediction_overflow_is_a_recorded_failure(noiseless_family, monkeypatch):
    # A converged fit whose size term is e^800 at every N: scoring it overflows.
    blowup = FitResult(
        params=LawParams(E=0.0, A=800.0, alpha=0.0, B=0.0, beta=0.0),
        objective=0.0, converged=True, restarts_tried=1, n_points=5,
    )
    monkeypatch.setattr("scalefit.meta.fit", lambda train, config: blowup)
    cell, = run_grid(noiseless_family, [3], [1.0]).cells
    assert (cell.failure, cell.are, cell.converged) == ("prediction overflow", None, True)
    rows = loo_family_cv(noiseless_family).rows
    assert [(r.failure, r.are, r.converged) for r in rows] == [("prediction overflow", None, True)] * 6


def test_loo_csv_shape(noiseless_family):
    report = loo_family_cv(noiseless_family)
    lines = report.to_csv().splitlines()
    assert lines[0] == "model_id,seed,num_params,are,converged,failure"
    assert len(lines) == 7


# ---------------------------------------------------------------------------
# PCA over fitted parameter vectors
# ---------------------------------------------------------------------------


def linear_cloud(n=6):
    base = np.array([0.5, 6.0, 0.3, 6.0, 0.25])
    direction = np.array([0.1, 0.2, 0.01, -0.1, 0.02])
    return [LawParams.from_vector(base + t * direction) for t in range(n)]


def test_pca_rank_one_cloud():
    report = pca_params(linear_cloud())
    assert report.explained_variance_ratio[0] >= 0.999999
    assert report.explained_variance_ratio[1:].max() <= 1e-6
    assert np.abs(report.scores[:, 1:]).max() <= 1e-6


def test_pca_isotropic_cloud():
    rng = np.random.default_rng(71)
    base = np.array([0.5, 6.0, 0.3, 6.0, 0.25])
    fits = [LawParams.from_vector(base + 0.01 * rng.standard_normal(5)) for _ in range(600)]
    report = pca_params(fits, standardize=False)
    assert np.all(np.abs(report.explained_variance_ratio - 0.2) <= 0.05)


def test_pca_coupled_pairs():
    rng = np.random.default_rng(72)
    fits = []
    for _ in range(200):
        z1, z2, z3 = rng.standard_normal(3)
        fits.append(
            LawParams(
                E=0.5 + 0.1 * z3,
                A=6.0 + 0.5 * z1,
                alpha=0.34 + 0.04 * z1 + 1e-3 * rng.standard_normal(),
                B=6.0 + 0.5 * z2,
                beta=0.28 + 0.03 * z2 + 1e-3 * rng.standard_normal(),
            )
        )
    report = pca_params(fits)
    assert report.explained_variance_ratio[:3].sum() >= 0.99


def test_pca_reconstruction_and_orthonormality():
    rng = np.random.default_rng(73)
    base = np.array([0.5, 6.0, 0.3, 6.0, 0.25])
    fits = [LawParams.from_vector(base + 0.05 * rng.standard_normal(5)) for _ in range(12)]
    for standardize in (True, False):
        report = pca_params(fits, standardize=standardize)
        gram = report.components @ report.components.T
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-8
        raw = report.scores @ report.components * report.scales + report.mean
        data = np.array([p.as_vector() for p in fits])
        assert np.max(np.abs(raw - data)) <= 1e-8
        assert report.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-12)


def test_pca_csv_writes_the_fitted_parameters():
    # The fitted values, not their reconstruction from the scores: a frozen alpha reads back exactly.
    rng = np.random.default_rng(74)
    base = np.array([0.5, 6.0, 0.3, 6.0, 0.25])
    fits = [LawParams.from_vector(base + 0.05 * rng.standard_normal(5)).replace(alpha=0.34) for _ in range(5)]
    for standardize in (True, False):
        rows = list(csv.reader(io.StringIO(pca_params(fits, standardize=standardize).to_csv())))[1:]
        assert [row[3] for row in rows] == ["0.34"] * len(fits)
        assert [[float(v) for v in row[1:6]] for row in rows] == [list(p.as_vector()) for p in fits]


def test_pca_sign_convention():
    report = pca_params(linear_cloud())
    for row in report.components:
        pivot = int(np.argmax(np.abs(row)))
        assert row[pivot] > 0


def test_pca_degenerate_cloud():
    fits = [TRUTH, TRUTH, TRUTH]
    report = pca_params(fits)
    assert np.all(report.explained_variance_ratio == 0.0)
    assert np.all(report.eigenvalues == 0.0)
    assert np.all(report.scales == 1.0)  # zero stds replaced, no NaN


def test_pca_validation_and_labels():
    with pytest.raises(InsufficientDataError):
        pca_params([TRUTH])
    with pytest.raises(ValidationError):
        pca_params(linear_cloud(), labels=("only-one",))
    report = pca_params(linear_cloud(3), labels=("a", "b", "c"))
    assert report.labels == ("a", "b", "c")
    assert report.scatter_a_alpha[0] == (linear_cloud(3)[0].A, linear_cloud(3)[0].alpha)
    lines = report.to_csv().splitlines()
    assert lines[0] == "label,E,A,alpha,B,beta,score_1,score_2,score_3,score_4,score_5"
    assert len(lines) == 4
