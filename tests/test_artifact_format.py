"""The artifact encoder's exact text on hand-built reports: no fit runs, so no solver or BLAS digit is involved.

The rules pinned here: a float is written as its repr, None as an empty CSV cell or JSON null, a bool
as 0/1 in CSV; JSON keys are sorted with a two-space indent and one trailing newline; CSV lines end
in "\\n" after the header row.
"""

from scalefit.meta import CvReport, CvRow, GridCell, GridReport
from scalefit.metrics import EvalReport, TargetRow
from scalefit.records import FamilySummary, ScaledFamily, family_summary, json_text
from scalefit.specs import FitResult, LawParams
from scalefit.subsets import SubsetSpec

PARAMS = LawParams(E=0.5, A=6.0, alpha=0.34, B=6.0, beta=0.28)
CONVERGED = FitResult(params=PARAMS, objective=1e-30, converged=True, restarts_tried=32, n_points=40)
STUCK = FitResult(params=PARAMS.replace(alpha=11.0), objective=0.25, converged=False, restarts_tried=3, n_points=7)
THIRD = 0.1 + 0.2  # repr 0.30000000000000004: any rounding on the way shows


def test_grid_csv_text():
    report = GridReport(
        family_id="fam", num_models_axis=(1, 3), train_fraction_axis=(0.5, 1.0), target_fraction=0.3,
        cells=(
            GridCell(SubsetSpec(num_models=3, train_fraction_max=0.5), 10.0, 6 * 10**17, CONVERGED, THIRD),
            GridCell(SubsetSpec(num_models=3), 2.5, 1.5e18, STUCK, None, "non-convergence"),
            GridCell(SubsetSpec(num_models=1, train_fraction_max=0.5), None, 0, None, None, "insufficient families"),
        ),
    )
    assert report.to_csv() == (
        "num_models,train_fraction,scale_up,are,train_flops,converged,failure,E,A,alpha,B,beta,objective\n"
        "3,0.5,10.0,0.30000000000000004,6e+17,1,,0.5,6.0,0.34,6.0,0.28,1e-30\n"
        "3,1.0,2.5,,1.5e+18,0,non-convergence,0.5,6.0,11.0,6.0,0.28,0.25\n"
        "1,0.5,,,0.0,0,insufficient families,,,,,,\n"
    )


def test_cv_csv_and_json_text():
    report = CvReport("fam", (
        CvRow("fam-a", 0, 10**7, 0.125, True, None),
        CvRow("fam-b", 1, 2 * 10**7, None, False, "insufficient families"),
    ))
    assert report.to_csv() == (
        "model_id,seed,num_params,are,converged,failure\n"
        "fam-a,0,10000000,0.125,1,\n"
        "fam-b,1,20000000,,0,insufficient families\n"
    )
    assert json_text(report.to_dict()) == """\
{
  "family_id": "fam",
  "rows": [
    {
      "are": 0.125,
      "converged": true,
      "failure": null,
      "model_id": "fam-a",
      "num_params": 10000000,
      "seed": 0
    },
    {
      "are": null,
      "converged": false,
      "failure": "insufficient families",
      "model_id": "fam-b",
      "num_params": 20000000,
      "seed": 1
    }
  ]
}
"""


def test_eval_report_text():
    row = TargetRow("fam-c", 10**9, THIRD, 0.3, (0.3 - THIRD) / THIRD)
    report = EvalReport(are=THIRD, per_target=(row,), n_targets=1)
    assert report.to_csv() == (
        "model_id,tokens_seen,observed,predicted,relative_error\n"
        "fam-c,1000000000,0.30000000000000004,0.3,-1.850371707708594e-16\n"
    )
    assert report.to_json() == """\
{
  "are": 0.30000000000000004,
  "meaningful_floor": 0.04,
  "n_targets": 1,
  "per_target": [
    {
      "model_id": "fam-c",
      "observed": 0.30000000000000004,
      "predicted": 0.3,
      "relative_error": -1.850371707708594e-16,
      "tokens_seen": 1000000000
    }
  ]
}
"""


def test_family_summary_json_text():
    assert json_text(family_summary(ScaledFamily.from_records("none", ())).to_dict()) == """\
{
  "checkpoint_count": 0,
  "family_id": "none",
  "model_count": 0,
  "size_range": null,
  "token_range": null
}
"""
    assert json_text(FamilySummary("fam", 2, 3, (10, 20), (1, 5)).to_dict()) == """\
{
  "checkpoint_count": 3,
  "family_id": "fam",
  "model_count": 2,
  "size_range": [
    10,
    20
  ],
  "token_range": [
    1,
    5
  ]
}
"""


def test_fit_result_json_text():
    assert json_text(CONVERGED.to_dict()) == """\
{
  "converged": true,
  "n_points": 40,
  "objective": 1e-30,
  "params": {
    "A": 6.0,
    "B": 6.0,
    "E": 0.5,
    "alpha": 0.34,
    "beta": 0.28
  },
  "restarts_tried": 32
}
"""
