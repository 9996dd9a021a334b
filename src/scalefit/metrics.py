"""ARE scoring of fitted laws plus the two fit-free baselines.

The meaningful-difference floor (0.04) rides along on every report as an
interpretation aid; nothing here turns it into pass/fail logic.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from typing import Sequence

from .errors import InsufficientDataError
from .records import ScaledFamily, csv_text, json_text
from .specs import LawParams

MEANINGFUL_FLOOR = 0.04


@dataclass(frozen=True)
class TargetRow:
    model_id: str
    tokens_seen: int
    observed: float
    predicted: float
    relative_error: float
    """Signed: (predicted - observed) / observed. ARE averages the magnitudes."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalReport:
    are: float
    per_target: tuple[TargetRow, ...]
    n_targets: int
    meaningful_floor: float = MEANINGFUL_FLOOR

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(TargetRow)], map(astuple, self.per_target))


def _report(targets: ScaledFamily, predicted: Sequence[float]) -> EvalReport:
    c = targets.columns
    rows = [
        TargetRow(model_id=m, tokens_seen=t, observed=obs, predicted=float(p), relative_error=(float(p) - obs) / obs)
        for m, t, obs, p in zip(c.model_id, c.tokens_seen, c.loss, predicted)
    ]
    # Sequential sum in canonical row order, reproducible by a brute-force scan.
    are = sum(abs(r.relative_error) for r in rows) / len(rows)
    return EvalReport(are=are, per_target=tuple(rows), n_targets=len(rows))


def are(params: LawParams, targets: ScaledFamily) -> EvalReport:
    """Mean absolute relative error of the law's predictions on the targets."""
    if targets.is_empty:
        raise InsufficientDataError(f"are: target family '{targets.family_id}' is empty")
    from .law import predict_records  # the baselines run without numpy; scoring a law loads it

    return _report(targets, predict_records(params, targets))


def _constant_report(targets: ScaledFamily, prediction: float) -> EvalReport:
    return _report(targets, [prediction] * len(targets))


def baseline_best_performance(train: ScaledFamily, targets: ScaledFamily) -> EvalReport:
    """Constant prediction at the lowest loss seen anywhere in the train set."""
    if train.is_empty or targets.is_empty:
        raise InsufficientDataError("baseline_best_performance: empty train or target set")
    return _constant_report(targets, min(train.columns.loss))


def _most_trained_row(train: ScaledFamily) -> int:
    # Products are exact ints; ties prefer lower loss, then model_id order, then the first row.
    c = train.columns

    def key(i: int):
        return (-(c.num_params[i] * c.tokens_seen[i]), c.loss[i], c.model_id[i], c.seed[i], c.tokens_seen[i])

    return min(range(len(train)), key=key)


def baseline_most_trained(train: ScaledFamily, targets: ScaledFamily) -> EvalReport:
    """Constant prediction at the loss of the record with the most training compute."""
    if train.is_empty or targets.is_empty:
        raise InsufficientDataError("baseline_most_trained: empty train or target set")
    return _constant_report(targets, train.columns.loss[_most_trained_row(train)])
