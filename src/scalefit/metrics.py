"""ARE scoring of fitted laws plus the two fit-free baselines.

The meaningful-difference floor (0.04) rides along on every report as an
interpretation aid; nothing here turns it into pass/fail logic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from .errors import InsufficientDataError
from .records import ScaledFamily
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
        return {
            "model_id": self.model_id,
            "tokens_seen": self.tokens_seen,
            "observed": self.observed,
            "predicted": self.predicted,
            "relative_error": self.relative_error,
        }


@dataclass(frozen=True)
class EvalReport:
    are: float
    per_target: tuple[TargetRow, ...]
    n_targets: int
    meaningful_floor: float = MEANINGFUL_FLOOR

    def to_dict(self) -> dict:
        return {
            "are": float(self.are),
            "n_targets": int(self.n_targets),
            "meaningful_floor": float(self.meaningful_floor),
            "per_target": [row.to_dict() for row in self.per_target],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["model_id", "tokens_seen", "observed", "predicted", "relative_error"])
        for row in self.per_target:
            writer.writerow(
                [row.model_id, row.tokens_seen, repr(row.observed), repr(row.predicted), repr(row.relative_error)]
            )
        return out.getvalue()


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
