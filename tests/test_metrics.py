import numpy as np
import pytest

from scalefit import (
    InsufficientDataError,
    LawParams,
    ScaledFamily,
    are,
    baseline_best_performance,
    baseline_most_trained,
    eval_law,
)
from scalefit.metrics import MEANINGFUL_FLOOR

from conftest import TRUTH, make_record, random_family

FLAT = LawParams(E=0.0, A=0.0, alpha=0.0, B=0.0, beta=0.0)  # predicts 3.0 everywhere


def fam_of(losses, family_id="fam"):
    return ScaledFamily.from_records(
        family_id,
        [make_record(family_id=family_id, model_id=f"{family_id}-m{i}", loss=v)
         for i, v in enumerate(losses)],
    )


def test_are_direct_arithmetic():
    report = are(FLAT, fam_of([2.5, 7.5]))
    # |2.5 - 3|/2.5 = 0.2 and |7.5 - 3|/7.5 = 0.6
    assert report.are == pytest.approx(0.4, rel=1e-12)
    assert report.n_targets == 2
    assert report.meaningful_floor == MEANINGFUL_FLOOR == 0.04


def test_relative_error_is_signed():
    report = are(FLAT, fam_of([2.5, 4.0]))
    by_model = {row.model_id: row for row in report.per_target}
    assert by_model["fam-m0"].relative_error == pytest.approx(0.2, rel=1e-12)
    assert by_model["fam-m1"].relative_error == pytest.approx(-0.25, rel=1e-12)
    assert by_model["fam-m0"].predicted == 3.0
    assert by_model["fam-m0"].observed == 2.5


def test_are_zero_on_exact_predictions(noiseless_family):
    report = are(TRUTH, noiseless_family)
    assert report.are == 0.0


def test_are_order_independent():
    fam = fam_of([2.0, 3.5, 5.0])
    shuffled = ScaledFamily.from_records("fam", list(fam.records)[::-1])
    assert are(FLAT, fam).are == are(FLAT, shuffled).are


def test_are_empty_target_raises():
    with pytest.raises(InsufficientDataError):
        are(FLAT, ScaledFamily.from_records("fam", ()))


def test_are_brute_force_randomized():
    rng = np.random.default_rng(31)
    for i in range(25):
        fam = random_family(rng, f"fam{i}")
        params = LawParams(
            E=float(rng.uniform(-0.5, 1.0)), A=float(rng.uniform(2.0, 8.0)),
            alpha=float(rng.uniform(0.1, 0.8)), B=float(rng.uniform(2.0, 8.0)),
            beta=float(rng.uniform(0.1, 0.8)),
        )
        report = are(params, fam)
        total = 0.0
        for rec in fam.records:
            pred = eval_law(params, rec.num_params, rec.tokens_seen)
            total += abs(rec.loss - pred) / rec.loss
        assert report.are == total / len(fam.records)


def test_baseline_best_performance_constant():
    train = fam_of([3.0, 2.5, 2.8], family_id="tr")
    targets = fam_of([2.5, 5.0])
    report = baseline_best_performance(train, targets)
    assert all(row.predicted == 2.5 for row in report.per_target)
    assert report.are == pytest.approx((0.0 + 2.5 / 5.0) / 2, rel=1e-12)


def test_baseline_most_trained_picks_largest_product():
    train = ScaledFamily.from_records(
        "tr",
        [
            make_record(family_id="tr", model_id="tr-a", num_params=100, tokens_seen=500,
                        total_tokens=10**9, loss=3.0),
            make_record(family_id="tr", model_id="tr-a", num_params=100, tokens_seen=1000,
                        total_tokens=10**9, loss=2.9),
            make_record(family_id="tr", model_id="tr-b", num_params=50, tokens_seen=3000,
                        total_tokens=10**9, loss=2.6),
        ],
    )
    report = baseline_most_trained(train, fam_of([2.6]))
    assert report.per_target[0].predicted == 2.6
    assert report.are == 0.0


def test_baseline_most_trained_tie_breaks_on_loss():
    train = ScaledFamily.from_records(
        "tr",
        [
            make_record(family_id="tr", model_id="tr-a", num_params=100, tokens_seen=1000,
                        total_tokens=10**9, loss=2.9),
            make_record(family_id="tr", model_id="tr-b", num_params=200, tokens_seen=500,
                        total_tokens=10**9, loss=2.7),
        ],
    )
    report = baseline_most_trained(train, fam_of([2.7]))
    assert report.per_target[0].predicted == 2.7


def test_baseline_product_is_exact_for_large_counts():
    # 6004799503160661 * 2 differs from its float product; integer arithmetic must win.
    big, other = 6004799503160661, 6004799503160662
    train = ScaledFamily.from_records(
        "tr",
        [
            make_record(family_id="tr", model_id="tr-a", num_params=big, tokens_seen=2,
                        total_tokens=10**9, loss=1.0),
            make_record(family_id="tr", model_id="tr-b", num_params=other, tokens_seen=2,
                        total_tokens=10**9, loss=2.0),
        ],
    )
    report = baseline_most_trained(train, fam_of([2.0]))
    assert report.per_target[0].predicted == 2.0


def test_baseline_empty_inputs_raise():
    fam = fam_of([2.0])
    empty = ScaledFamily.from_records("fam", ())
    with pytest.raises(InsufficientDataError):
        baseline_best_performance(empty, fam)
    with pytest.raises(InsufficientDataError):
        baseline_most_trained(fam, empty)


def test_report_serialization_round_trip():
    report = are(FLAT, fam_of([2.5, 7.5]))
    blob = report.to_dict()
    assert blob["are"] == report.are
    assert blob["meaningful_floor"] == 0.04
    assert len(blob["per_target"]) == 2
    assert report.to_json() == report.to_json()
    lines = report.to_csv().splitlines()
    assert lines[0] == "model_id,tokens_seen,observed,predicted,relative_error"
    assert len(lines) == 3
