"""Meta-experiments over scaled families.

Configuration grids with iso-FLOP contours and efficiency stars,
leave-one-size-family-out cross-validation, and PCA over fitted 5-vectors.
Failed grid cells are recorded with a failure marker, never dropped.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .law import fit
from .metrics import are
from .records import ScaledFamily, csv_text, json_text
from .specs import PARAM_NAMES, FitConfig, FitResult, LawParams, check_count, check_real, fit_shortfall
from .subsets import (
    DEFAULT_TARGET_FRACTION,
    SubsetSpec,
    build_target,
    build_train,
    max_token_family,
)

FLOPS_PER_PARAM_TOKEN = 6
DEFAULT_STAR_THRESHOLDS = (0.15, 0.10, 0.05)


def train_flops(family: ScaledFamily) -> float:
    """Total training compute to produce a train set: per run, 6 * N * max tokens kept.

    An ingested flops value on a run's last kept checkpoint overrides the
    6ND approximation for that run. Integer-only inputs stay exact.
    """
    columns = family.columns
    total: float | int = 0
    for rows in family.run_rows.values():
        last = max(rows, key=columns.tokens_seen.__getitem__)  # the first on a tie
        if columns.flops[last] is not None:
            total += columns.flops[last]
        else:
            total += FLOPS_PER_PARAM_TOKEN * columns.num_params[last] * columns.tokens_seen[last]
    return total


@dataclass(frozen=True)
class GridCell:
    """One meta-experiment configuration and its outcome.

    are is present iff the fit converged; failure explains white cells.
    """

    spec: SubsetSpec
    scale_up: float | None
    train_flops: float
    fit: FitResult | None
    are: float | None
    failure: str | None = None

    @property
    def num_models(self) -> int | None:
        return self.spec.num_models

    @property
    def train_fraction(self) -> float:
        return self.spec.train_fraction_max if self.spec.train_fraction_max is not None else 1.0

    @property
    def converged(self) -> bool:
        return self.fit is not None and self.fit.converged


@dataclass(frozen=True)
class GridReport:
    family_id: str
    num_models_axis: tuple[int, ...]
    train_fraction_axis: tuple[float, ...]
    target_fraction: float
    cells: tuple[GridCell, ...]

    def to_csv(self) -> str:
        header = ["num_models", "train_fraction", "scale_up", "are", "train_flops", "converged", "failure",
                  *PARAM_NAMES, "objective"]
        return csv_text(header, (
            # train_flops is an exact int unless flops were ingested; the column is a float.
            [cell.num_models, cell.train_fraction, cell.scale_up, cell.are, float(cell.train_flops),
             cell.converged, cell.failure,
             *(cell.fit.params.to_dict().values() if cell.fit else [None] * len(PARAM_NAMES)),
             None if cell.fit is None else cell.fit.objective]
            for cell in self.cells
        ))


def _fit_and_score(train: ScaledFamily, target: ScaledFamily, config: FitConfig):
    """Fit train and score it on target: (fit, are, failure), where are is set iff failure is None."""
    if fit_shortfall(train, config):
        return None, None, "insufficient families"
    result = fit(train, config)
    if not result.converged:
        return result, None, "non-convergence"
    try:
        return result, are(result.params, target).are, None
    except OverflowError:
        return result, None, "prediction overflow"


def _grid_cell(
    family: ScaledFamily,
    spec: SubsetSpec,
    config: FitConfig,
    target: ScaledFamily,
    target_max_params: int,
) -> GridCell:
    train = build_train(family, spec)
    scale_up = None if train.is_empty else target_max_params / max(train.columns.num_params)
    result, score, failure = _fit_and_score(train, target, config)
    return GridCell(spec=spec, scale_up=scale_up, train_flops=train_flops(train), fit=result, are=score,
                    failure=failure)


def run_grid(
    family: ScaledFamily,
    num_models: Sequence[int],
    train_fractions: Sequence[float],
    config: FitConfig | None = None,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> GridReport:
    """One cell per (num_models, train_fraction) combination, axes read by check_count/check_real, sorted ascending.

    Every cell reuses the same FitConfig (common multi-start schedule), so
    cross-cell ARE comparisons are not confounded by solver luck.
    """
    config = config or FitConfig()
    if not num_models or not train_fractions:
        raise ValidationError("run_grid: both axes must be non-empty")
    ks = tuple(sorted({check_count(k, "num_models") for k in num_models}))
    qs = tuple(sorted({check_real(q, "train_fraction") for q in train_fractions}))
    target = build_target(family, target_fraction)
    target_max_params = max(target.columns.num_params)
    cells = []
    for k in ks:
        for q in qs:
            spec = SubsetSpec(num_models=k, train_fraction_max=q)
            cells.append(_grid_cell(family, spec, config, target, target_max_params))
    if all(cell.fit is None for cell in cells):
        raise InsufficientDataError(
            f"run_grid: no feasible cell for family '{family.family_id}' "
            f"(insufficient families in every configuration)"
        )
    return GridReport(
        family_id=family.family_id,
        num_models_axis=ks,
        train_fraction_axis=qs,
        target_fraction=target_fraction,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# Iso-FLOP contours (marching squares with bilinear interpolation)
# ---------------------------------------------------------------------------

Point = tuple[float, float]


@dataclass(frozen=True)
class ContourLine:
    level: float
    polylines: tuple[tuple[Point, ...], ...]

    def to_dict(self) -> dict:
        return {
            "level": float(self.level),
            "polylines": [[[float(x), float(y)] for (x, y) in line] for line in self.polylines],
        }


def _grid_values(cells: Sequence[GridCell]):
    xs = sorted({c.num_models for c in cells})
    ys = sorted({c.train_fraction for c in cells})
    if any(x is None for x in xs):
        raise ValidationError("iso_flop_contours: every cell needs a num_models value")
    index = {}
    for cell in cells:
        key = (cell.num_models, cell.train_fraction)
        if key in index:
            raise ValidationError(f"iso_flop_contours: duplicate cell at {key}")
        index[key] = cell.train_flops
    values = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if (x, y) not in index:
                raise ValidationError(f"iso_flop_contours: grid is missing cell ({x}, {y})")
            values[i, j] = index[(x, y)]
    return np.array(xs, dtype=float), np.array(ys, dtype=float), values


def _edge_point(pa: Point, va: float, pb: Point, vb: float, level: float) -> Point:
    t = (level - va) / (vb - va)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def _square_segments(corners, values, level: float):
    # corners/values ordered: 00, 10, 11, 01 (counter-clockwise)
    high = [v >= level for v in values]
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    crossings = {}
    for e, (a, b) in enumerate(edges):
        if high[a] != high[b]:
            crossings[e] = _edge_point(corners[a], values[a], corners[b], values[b], level)
    if len(crossings) == 2:
        pts = [crossings[e] for e in sorted(crossings)]
        return [(pts[0], pts[1])]
    if len(crossings) == 4:
        center_high = (sum(values) / 4.0) >= level
        if center_high == high[0]:
            pairs = ((0, 1), (2, 3))
        else:
            pairs = ((0, 3), (1, 2))
        return [(crossings[a], crossings[b]) for a, b in pairs]
    return []


def _chain_segments(segments: list[tuple[Point, Point]]) -> tuple[tuple[Point, ...], ...]:
    def key(p: Point):
        return (round(p[0], 9), round(p[1], 9))

    adjacency: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(i)
        adjacency.setdefault(key(b), []).append(i)
    used = [False] * len(segments)

    def walk(start):
        line = [start]
        current = start
        while True:
            next_id = next((i for i in sorted(adjacency.get(current, ())) if not used[i]), None)
            if next_id is None:
                return line
            used[next_id] = True
            a, b = segments[next_id]
            current = key(b) if key(a) == current else key(a)
            line.append(current)

    polylines = []
    for start in sorted(k for k, ids in adjacency.items() if len(ids) % 2 == 1):
        if any(not used[i] for i in adjacency[start]):
            polylines.append(walk(start))
    for i, (a, _) in enumerate(segments):
        if not used[i]:
            polylines.append(walk(key(a)))
    return tuple(tuple(line) for line in polylines if len(line) >= 2)


def iso_flop_contours(cells: Sequence[GridCell], levels: Sequence[float]) -> list[ContourLine]:
    """Equal-compute polylines in (num_models, train_fraction) axis units.

    A level outside the grid's FLOP range yields an empty entry; a constant
    field equal to the level yields the grid's boundary rectangle.
    """
    if not cells:
        raise ValidationError("iso_flop_contours: no cells")
    xs, ys, values = _grid_values(cells)
    out = []
    for level in levels:
        if not (level > 0):
            raise ValidationError(f"iso_flop_contours: levels must be positive, got {level}")
        if np.all(values == level):
            box = (
                (xs[0], ys[0]), (xs[-1], ys[0]), (xs[-1], ys[-1]), (xs[0], ys[-1]), (xs[0], ys[0]),
            )
            out.append(ContourLine(level=level, polylines=(box,)))
            continue
        segments: list[tuple[Point, Point]] = []
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                corners = (
                    (xs[i], ys[j]), (xs[i + 1], ys[j]), (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]),
                )
                vals = (values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1])
                segments.extend(_square_segments(corners, vals, level))
        out.append(ContourLine(level=level, polylines=_chain_segments(segments)))
    return out


def efficiency_stars(
    cells: Sequence[GridCell],
    thresholds: Sequence[float] = DEFAULT_STAR_THRESHOLDS,
) -> dict[float, GridCell | None]:
    """Per threshold, the cheapest converged cell with ARE at or under it.

    Ties prefer lower ARE, then fewer models. None when nothing qualifies.
    """
    stars: dict[float, GridCell | None] = {}
    for threshold in thresholds:
        qualifying = [c for c in cells if c.converged and c.are is not None and c.are <= threshold]
        if not qualifying:
            stars[threshold] = None
            continue
        stars[threshold] = min(
            qualifying,
            key=lambda c: (
                c.train_flops,
                c.are,
                c.num_models if c.num_models is not None else 2**63,
                c.train_fraction,
            ),
        )
    return stars


# ---------------------------------------------------------------------------
# Leave-one-size-family-out cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CvRow:
    model_id: str
    seed: int
    num_params: int
    are: float | None
    converged: bool
    failure: str | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CvReport:
    family_id: str
    rows: tuple[CvRow, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(CvRow)], map(astuple, self.rows))


def loo_family_cv(
    family: ScaledFamily,
    config: FitConfig | None = None,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> CvReport:
    """Hold out each size family in turn, fit on the rest, score the held-out tail.

    The true maximal-parameter family is always excluded from training so
    every row's fit extrapolates upward. Per-row failures are recorded
    rather than aborting the sweep, so a family with under 4 size families
    gives a row per run, each failed with "insufficient families".
    """
    config = config or FitConfig()
    params = family.columns.num_params
    top = max(params)
    runs = list(zip(family.columns.model_id, family.columns.seed))
    rows = []
    for run_key, run_rows in family.run_rows.items():
        target = max_token_family(family.where(run == run_key for run in runs), target_fraction)
        train = family.where(run != run_key and n != top for run, n in zip(runs, params))
        num_params = max(map(params.__getitem__, run_rows))
        result, score, failure = _fit_and_score(train, target, config)
        converged = result is not None and result.converged
        rows.append(CvRow(run_key[0], run_key[1], num_params, score, converged, failure))
    return CvReport(family_id=family.family_id, rows=tuple(rows))


# ---------------------------------------------------------------------------
# PCA over fitted parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaReport:
    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray
    eigenvalues: np.ndarray
    scores: np.ndarray
    scatter_a_alpha: tuple[tuple[float, float], ...]
    scatter_b_beta: tuple[tuple[float, float], ...]
    standardize: bool
    scales: np.ndarray
    labels: tuple[str, ...]
    params: np.ndarray  # the fitted 5-vectors, one row per label

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "components": [[float(v) for v in row] for row in self.components],
            "explained_variance_ratio": [float(v) for v in self.explained_variance_ratio],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "standardize": self.standardize,
            "scales": [float(v) for v in self.scales],
            "labels": list(self.labels),
            "scatter_a_alpha": [[float(a), float(b)] for a, b in self.scatter_a_alpha],
            "scatter_b_beta": [[float(a), float(b)] for a, b in self.scatter_b_beta],
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_csv(self) -> str:
        header = ["label", *PARAM_NAMES, *(f"score_{i + 1}" for i in range(self.components.shape[0]))]
        # tolist() gives Python floats: the repr of a numpy scalar is not its value's.
        return csv_text(header, ([label, *params, *scores] for label, params, scores
                                 in zip(self.labels, self.params.tolist(), self.scores.tolist())))


def pca_params(
    fits: Sequence[LawParams],
    standardize: bool = True,
    labels: Sequence[str] | None = None,
) -> PcaReport:
    """Eigendecomposition of the covariance (or correlation) of fitted 5-vectors.

    Components come back as orthonormal rows in descending variance order;
    ratios sum to 1 except for an all-identical cloud, where they are all 0.
    """
    if len(fits) < 2:
        raise InsufficientDataError(f"pca_params needs >= 2 fits, got {len(fits)}")
    if labels is None:
        labels = tuple(f"fit-{i}" for i in range(len(fits)))
    elif len(labels) != len(fits):
        raise ValidationError("pca_params: labels length must match fits")
    data = np.array([p.as_vector() for p in fits])
    mean = data.mean(axis=0)
    centered = data - mean
    stds = centered.std(axis=0, ddof=1)
    # The mean of identical values can wobble by an ulp; a column whose spread
    # sits at roundoff relative to its magnitude is constant, not variance.
    constant = stds <= np.abs(mean) * 1e-12
    centered[:, constant] = 0.0
    if standardize:
        scales = np.where((stds > 0) & ~constant, stds, 1.0)
    else:
        scales = np.ones(5)
    scaled = centered / scales
    cov = (scaled.T @ scaled) / (len(fits) - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    components = eigenvectors[:, order].T
    # Deterministic sign: the largest-magnitude entry of each component is positive.
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    total = float(eigenvalues.sum())
    ratios = eigenvalues / total if total > 0 else np.zeros_like(eigenvalues)
    scores = scaled @ components.T
    return PcaReport(
        mean=mean,
        components=components,
        explained_variance_ratio=ratios,
        eigenvalues=eigenvalues,
        scores=scores,
        scatter_a_alpha=tuple((float(p.A), float(p.alpha)) for p in fits),
        scatter_b_beta=tuple((float(p.B), float(p.beta)) for p in fits),
        standardize=standardize,
        scales=scales,
        labels=tuple(labels),
        params=data,
    )
