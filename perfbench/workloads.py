"""The three workloads: generated inputs, command scripts and output checks.

Each workload is a fixed script of CLI commands. The same script runs as
subprocesses in the untraced run and in-process under tracing. Every check
recomputes what it can from the generated truth with the benchmark's own
numpy, so a wrong number from scalefit is a miss, not just a missing file.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

TARGET_FRACTION = 0.3  # scalefit's default split
HUBER_DELTA = 1e-3  # scalefit's default Huber transition
NOISELESS_ARE_GATE = 0.005  # acceptance criterion 1 tolerance


@dataclass
class Outcome:
    """What one command produced, as read back from its artifacts."""

    fits: int = 0
    objective_ratios: list = field(default_factory=list)  # fitted / truth objective, noisy fits only
    objectives: list = field(default_factory=list)
    ares: list = field(default_factory=list)
    misses: list = field(default_factory=list)


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]  # "{out}" and "{prev:<key>}" are filled in per repetition
    artifacts: tuple[str, ...]
    loss: str | None  # "square" or "huber" for commands that fit, None otherwise
    rows: int  # log rows the command parses
    check: Callable[[Path, Outcome, dict], None]  # (out dir, outcome, out dirs of earlier commands)


@dataclass
class Workload:
    name: str
    why: str
    inputs: dict  # file name -> families written to it
    commands: list


# ---------------------------------------------------------------------------
# Numpy reimplementation of the standard split and the objectives
# ---------------------------------------------------------------------------


class Rows:
    """Column view of a family, restricted by a boolean mask."""

    def __init__(self, fam: gen.Family, mask=None):
        mask = np.ones(fam.rows(), dtype=bool) if mask is None else mask
        self.n = fam.num_params[mask]
        self.d = fam.tokens_seen[mask]
        self.total = fam.total_tokens[mask]
        self.loss = fam.loss[mask]


def top_target(fam: gen.Family) -> Rows:
    top = fam.num_params == fam.num_params.max()
    cut = TARGET_FRACTION * fam.tokens_seen[top].max()
    return Rows(fam, top & (fam.tokens_seen >= cut))


def standard_train(fam: gen.Family, num_models=None, fraction=None) -> Rows:
    mask = fam.num_params != fam.num_params.max()
    if num_models is not None:
        kept = sorted(set(fam.num_params[mask].tolist()))[:num_models]
        mask &= np.isin(fam.num_params, kept)
    if fraction is not None:
        mask &= fam.tokens_seen <= fraction * fam.total_tokens
    return Rows(fam, mask)


def downscale_rows(fam: gen.Family) -> tuple[Rows, Rows]:
    smallest = fam.num_params == fam.num_params.min()
    cut = TARGET_FRACTION * fam.tokens_seen[smallest].max()
    return Rows(fam, ~smallest), Rows(fam, smallest & (fam.tokens_seen >= cut))


def objective(params: dict, rows: Rows, loss_kind: str) -> float:
    res = gen.law(params, rows.n, rows.d) - rows.loss
    if loss_kind == "square":
        return float(np.sum(res * res))
    a = np.abs(res)
    return float(np.sum(np.where(a <= HUBER_DELTA, 0.5 * res * res, HUBER_DELTA * (a - 0.5 * HUBER_DELTA))))


def are_of(params: dict, rows: Rows) -> float:
    return float(np.mean(np.abs((gen.law(params, rows.n, rows.d) - rows.loss) / rows.loss)))


def close(a: float, b: float, rel: float = 1e-6, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Artifact readers and checks
# ---------------------------------------------------------------------------


def read_json(path: Path, out: Outcome):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        out.misses.append(f"{path.name}: unreadable ({exc})")
        return None


def read_csv(path: Path, out: Outcome):
    try:
        return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    except (OSError, csv.Error) as exc:
        out.misses.append(f"{path.name}: unreadable ({exc})")
        return None


def record_fit(out: Outcome, params: dict, train: Rows, loss_kind: str, reported: float | None, label: str) -> None:
    """Count one fit and compare its objective with the truth's on the same rows."""
    out.fits += 1
    fitted = objective(params, train, loss_kind)
    if reported is not None:
        out.objectives.append(reported)
        if not close(reported, fitted):
            out.misses.append(f"{label}: reported objective {reported!r} != recomputed {fitted!r}")
    truth_obj = objective(gen.TRUTH, train, loss_kind)
    if truth_obj > 1e-20:  # noiseless families have no meaningful ratio
        out.objective_ratios.append(fitted / truth_obj)


def check_eval_report(report: dict | None, params: dict | None, target: Rows, out: Outcome, label: str,
                      constant: float | None = None) -> None:
    if report is None:
        return
    rows = report.get("per_target", [])
    if len(rows) != target.loss.size or report.get("n_targets") != target.loss.size:
        out.misses.append(f"{label}: {len(rows)} target rows, expected {target.loss.size}")
        return
    expected = (np.full(target.loss.size, constant) if constant is not None
                else gen.law(params, target.n, target.d))
    order = np.lexsort((target.d,))
    for row, pred, obs in zip(rows, expected[order], target.loss[order]):
        if not close(row["predicted"], float(pred), rel=1e-9) or row["observed"] != float(obs):
            out.misses.append(f"{label}: target row at D={row['tokens_seen']} disagrees with recomputation")
            return
    are = float(np.mean(np.abs(expected - target.loss) / target.loss))
    if not close(report["are"], are, rel=1e-9):
        out.misses.append(f"{label}: ARE {report['are']!r} != recomputed {are!r}")
    out.ares.append(report["are"])


def check_fit(train: Rows, target: Rows, loss_kind: str, label: str, are_gate: float | None = None):
    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        env = read_json(out_dir / "fit_result.json", out)
        if env is None:
            return
        fit = env["fit"]
        if not fit.get("converged"):
            out.misses.append(f"{label}: fit did not converge")
            return
        if fit.get("n_points") != train.loss.size:
            out.misses.append(f"{label}: fit used {fit.get('n_points')} points, expected {train.loss.size}")
        record_fit(out, fit["params"], train, loss_kind, fit["objective"], label)
        report = read_json(out_dir / "eval_report.json", out)
        check_eval_report(report, fit["params"], target, out, label)
        if are_gate is not None and report is not None and not report["are"] <= are_gate:
            out.misses.append(f"{label}: noiseless ARE {report['are']!r} above {are_gate}")
    return check


def check_eval_params(fit_key: str, target: Rows, label: str):
    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        env = read_json(prev[fit_key] / "fit_result.json", out)
        if env is not None:
            check_eval_report(read_json(out_dir / "eval_report.json", out), env["fit"]["params"], target, out, label)
    return check


def check_baseline(fam: gen.Family, which: str, label: str):
    train, target = standard_train(fam), top_target(fam)
    if which == "best":
        constant = float(train.loss.min())
    else:
        compute = train.n.astype(object) * train.d.astype(object)  # exact integer products
        best = max(range(train.loss.size), key=lambda i: (compute[i], -train.loss[i]))
        constant = float(train.loss[best])
    stem = f"baseline_{which.replace('-', '_')}"

    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        check_eval_report(read_json(out_dir / f"{stem}.json", out), None, target, out, label, constant=constant)
    return check


def check_ingest(families: list):
    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        summary = read_json(out_dir / "ingest_summary.json", out)
        if summary is None:
            return
        got = {f["family_id"]: f for f in summary["families"]}
        for fam in families:
            row = got.get(fam.family_id)
            want = (len(fam.sizes), fam.rows(), [int(fam.num_params.min()), int(fam.num_params.max())],
                    [int(fam.tokens_seen.min()), int(fam.tokens_seen.max())])
            if row is None or (row["model_count"], row["checkpoint_count"], row["size_range"],
                               row["token_range"]) != want:
                out.misses.append(f"ingest: summary for {fam.family_id} disagrees with the input")
                return
        if len(got) != len(families):
            out.misses.append(f"ingest: {len(got)} families, expected {len(families)}")
    return check


def check_grid(fam: gen.Family, loss_kind: str, cells: int):
    target = top_target(fam)

    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        rows = read_csv(out_dir / "grid.csv", out)
        for name in ("grid_contours.json", "grid_stars.json"):
            read_json(out_dir / name, out)
        svg = out_dir / "grid.svg"
        if not (svg.is_file() and svg.read_bytes().startswith(b"<svg")):
            out.misses.append("grid.svg is missing or not an SVG document")
        if rows is None:
            return
        if len(rows) != cells:
            out.misses.append(f"grid: {len(rows)} cells, expected {cells}")
        for row in rows:
            label = f"grid cell ({row['num_models']}, {row['train_fraction']})"
            if row["converged"] != "1":
                out.misses.append(f"{label}: {row['failure'] or 'not converged'}")
                continue
            params = {k: float(row[k]) for k in gen.TRUTH}
            train = standard_train(fam, int(row["num_models"]), float(row["train_fraction"]))
            record_fit(out, params, train, loss_kind, float(row["objective"]), label)
            are = are_of(params, target)
            if not close(float(row["are"]), are, rel=1e-9):
                out.misses.append(f"{label}: ARE {row['are']} != recomputed {are!r}")
            out.ares.append(float(row["are"]))
    return check


def check_cv(fam: gen.Family):
    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        report = read_json(out_dir / "cv.json", out)
        read_csv(out_dir / "cv.csv", out)
        if report is None:
            return
        if len(report["rows"]) != len(fam.sizes):
            out.misses.append(f"cv: {len(report['rows'])} folds, expected {len(fam.sizes)}")
        for row in report["rows"]:
            if row["failure"] is not None or not row["converged"]:
                out.misses.append(f"cv fold {row['model_id']}: {row['failure'] or 'not converged'}")
                continue
            out.fits += 1
            out.ares.append(row["are"])
    return check


def check_pca(families: list, loss_kind: str):
    by_id = {f.family_id: f for f in families}

    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        report = read_json(out_dir / "pca.json", out)
        rows = read_csv(out_dir / "pca.csv", out)
        if report is None or rows is None:
            return
        if report["skipped"] or sorted(report["labels"]) != sorted(by_id):
            out.misses.append(f"pca: fitted {report['labels']}, skipped {report['skipped']}")
            return
        if not close(sum(report["explained_variance_ratio"]), 1.0, rel=1e-9):
            out.misses.append("pca: explained variance ratios do not sum to 1")
        for row in rows:
            fam = by_id[row["label"]]
            params = {k: float(row[k]) for k in gen.TRUTH}
            record_fit(out, params, standard_train(fam), loss_kind, None, f"pca {row['label']}")
    return check


def check_synth(n_rows: int):
    def check(out_dir: Path, out: Outcome, prev: dict) -> None:
        rows = read_csv(out_dir / "synthetic.csv", out)
        if rows is not None and len(rows) != n_rows:
            out.misses.append(f"synth: {len(rows)} rows, expected {n_rows}")
    return check


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

WHY = {
    "cli-small": "interactive-size log: interpreter start and imports are most of each command; "
                 "covers ingest, fit, evals, transfer, downscale and the synth write path",
    "sweep": "the paper's meta-analysis on 700-row families: square-loss grid, CV on 3 families and PCA, "
             "plus a Huber PCA; solver-bound",
    "bulk-log": "100k-row CSV and JSONL log that every command re-reads; parse-bound, the solver does little; "
                "bypass workload for solver changes",
}


def cli_small(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    truth = gen.TRUTH
    clean = gen.make_family(rng, "clean", 6, 20, 0.0)
    noisy = gen.make_family(rng, "noisy", 6, 20, 0.01)
    rows = clean.rows() + noisy.rows()
    log = "small.csv"
    synth_cfg = {"synth": {"truth": truth, "sizes": [int(s) for s in np.geomspace(1e7, 1e9, 5).round()],
                           "tokens_per_run": 2_000_000_000, "checkpoints_per_run": 20,
                           "noise_sigma": 0.01, "rng_seed": seed}}
    inp = ("--input", "{in}/" + log)
    down_train, down_target = downscale_rows(noisy)
    frozen_train = standard_train(noisy)
    commands = [
        Command("ingest", ("ingest", *inp, "--out", "{out}"), ("ingest_summary.json",), None, rows,
                check_ingest([clean, noisy])),
        Command("fit-clean", ("fit", *inp, "--family", "clean", "--out", "{out}"),
                ("fit_result.json", "eval_report.json", "eval_report.csv"), "square", rows,
                check_fit(standard_train(clean), top_target(clean), "square", "fit clean",
                          are_gate=NOISELESS_ARE_GATE)),
        Command("eval-params", ("eval", *inp, "--family", "noisy", "--params", "{prev:fit-clean}/fit_result.json",
                                "--out", "{out}"), ("eval_report.json", "eval_report.csv"), None, rows,
                check_eval_params("fit-clean", top_target(noisy), "eval --params")),
        Command("eval-best", ("eval", *inp, "--family", "noisy", "--baseline", "best", "--out", "{out}"),
                ("baseline_best.json", "baseline_best.csv"), None, rows, check_baseline(noisy, "best", "baseline best")),
        Command("eval-most-trained", ("eval", *inp, "--family", "noisy", "--baseline", "most-trained",
                                      "--out", "{out}"),
                ("baseline_most_trained.json", "baseline_most_trained.csv"), None, rows,
                check_baseline(noisy, "most-trained", "baseline most-trained")),
        Command("transfer", ("transfer", *inp, "--family", "noisy", "--frozen-A", repr(truth["A"]),
                             "--frozen-alpha", repr(truth["alpha"]), "--out", "{out}"),
                ("fit_result.json", "eval_report.json", "eval_report.csv"), "square", rows,
                check_fit(frozen_train, top_target(noisy), "square", "transfer")),
        Command("downscale", ("downscale", *inp, "--family", "noisy", "--out", "{out}"),
                ("fit_result.json", "eval_report.json", "eval_report.csv"), "square", rows,
                check_fit(down_train, down_target, "square", "downscale")),
        Command("synth", ("synth", "--config", "{in}/synth.yaml", "--out", "{out}"), ("synthetic.csv",), None, 0,
                check_synth(5 * 20)),
    ]
    return Workload("cli-small", WHY["cli-small"], {log: [clean, noisy], "synth.yaml": synth_cfg}, commands)


def sweep(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    # CV runs on several families, so that the run's median command is a cluster of
    # like-sized commands rather than one family's luck with the solver.
    n_fam, n_sizes, n_ckpts, n_cv = (3, 6, 20, 2) if quick else (6, 8, 100, 3)
    fams = [gen.make_family(rng, f"sw{i}", n_sizes, n_ckpts, 0.01) for i in range(n_fam)]
    huber_fams = fams[:2] if quick else fams[:3]
    ks, qs = ((3, 4), (0.5, 1.0)) if quick else ((3, 4, 5, 6), (0.25, 0.5, 0.75, 1.0))
    rows = sum(f.rows() for f in fams)
    head = fams[0]
    commands = [
        Command("grid", ("grid", "--input", "{in}/sweep.csv", "--family", head.family_id,
                         "--num-models", ",".join(map(str, ks)), "--train-fractions", ",".join(map(str, qs)),
                         "--out", "{out}"),
                ("grid.csv", "grid_contours.json", "grid_stars.json", "grid.svg"), "square", rows,
                check_grid(head, "square", len(ks) * len(qs))),
        *(Command(f"cv-{fam.family_id}", ("cv", "--input", "{in}/sweep.csv", "--family", fam.family_id,
                                           "--out", "{out}"), ("cv.json", "cv.csv"), "square", rows, check_cv(fam))
          for fam in fams[1:1 + n_cv]),
        Command("pca", ("pca", "--input", "{in}/sweep.csv", "--out", "{out}"), ("pca.json", "pca.csv"), "square",
                rows, check_pca(fams, "square")),
        Command("pca-huber", ("pca", "--input", "{in}/sweep_huber.csv", "--loss", "huber", "--out", "{out}"),
                ("pca.json", "pca.csv"), "huber", sum(f.rows() for f in huber_fams),
                check_pca(huber_fams, "huber")),
    ]
    return Workload("sweep", WHY["sweep"], {"sweep.csv": fams, "sweep_huber.csv": huber_fams}, commands)


def bulk_log(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng([seed, 3])
    n_fam, n_sizes, n_ckpts = (5, 10, 20) if quick else (50, 20, 100)
    fams = [gen.make_family(rng, f"b{i:02d}", n_sizes, n_ckpts, 0.01) for i in range(n_fam)]
    rows = sum(f.rows() for f in fams)
    fit_fam, eval_fam = fams[0], fams[1]
    inp = ("--input", "{in}/bulk.csv")
    commands = [
        Command("ingest-csv", ("ingest", *inp, "--out", "{out}"), ("ingest_summary.json",), None, rows,
                check_ingest(fams)),
        Command("ingest-jsonl", ("ingest", "--input", "{in}/bulk.jsonl", "--out", "{out}"),
                ("ingest_summary.json",), None, rows, check_ingest(fams)),
        Command("fit", ("fit", *inp, "--family", fit_fam.family_id, "--out", "{out}"),
                ("fit_result.json", "eval_report.json", "eval_report.csv"), "square", rows,
                check_fit(standard_train(fit_fam), top_target(fit_fam), "square", "fit")),
        Command("eval-params", ("eval", *inp, "--family", eval_fam.family_id, "--params",
                                "{prev:fit}/fit_result.json", "--out", "{out}"),
                ("eval_report.json", "eval_report.csv"), None, rows,
                check_eval_params("fit", top_target(eval_fam), "eval --params")),
        Command("eval-best", ("eval", *inp, "--family", eval_fam.family_id, "--baseline", "best", "--out", "{out}"),
                ("baseline_best.json", "baseline_best.csv"), None, rows,
                check_baseline(eval_fam, "best", "baseline best")),
        Command("eval-most-trained", ("eval", *inp, "--family", eval_fam.family_id, "--baseline", "most-trained",
                                      "--out", "{out}"),
                ("baseline_most_trained.json", "baseline_most_trained.csv"), None, rows,
                check_baseline(eval_fam, "most-trained", "baseline most-trained")),
    ]
    return Workload("bulk-log", WHY["bulk-log"], {"bulk.csv": fams, "bulk.jsonl": fams}, commands)


WORKLOADS = {"cli-small": cli_small, "sweep": sweep, "bulk-log": bulk_log}
