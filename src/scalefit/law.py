"""Five-parameter scaling-law evaluation and robust multi-start fitting.

The law, with every parameter living in log space:

    L_hat(N, D) = e^E + e^(A - alpha * ln N) + e^(B - beta * ln D)

Each power-law term is computed from the exponent difference, never as
e^A / N^alpha, so raw parameter counts around 1e11 stay inside float range.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .records import ScaledFamily

from .specs import EXPONENT_RANGE, PARAM_NAMES, FitConfig, FitResult, LawParams, fit_shortfall

# Fixed exponent grid of the start profile, for alpha and beta alike.
_EXPONENT_GRID = np.geomspace(0.02, 3.0, 32)
# Where a term the profile zeroes starts: its size at the smallest run.
_TERM_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def _forward(vec5: np.ndarray, ln_n: np.ndarray, ln_d: np.ndarray):
    """Prediction and its terms (e^E, e^(A - alpha ln N), e^(B - beta ln D)) per point.

    The law's only exponentials. Overflow comes back as inf, which the
    solver's trust region rejects; the public functions raise instead.
    """
    E, A, a, B, b = vec5
    with np.errstate(over="ignore"):
        t_e, t_n, t_d = np.exp(E), np.exp(A - a * ln_n), np.exp(B - b * ln_d)
        return t_e + t_n + t_d, (t_e, t_n, t_d)


def _jacobian(terms, ln_n: np.ndarray, ln_d: np.ndarray, free_idx) -> np.ndarray:
    """d prediction / d (E, A, alpha, B, beta)[free_idx] from _forward's terms: (..., free, points).

    Each free column is written once into the result; no term is recomputed.
    """
    t_e, t_n, t_d = terms
    columns = ((1.0, t_e), (1.0, t_n), (-ln_n, t_n), (1.0, t_d), (-ln_d, t_d))
    out = np.empty(t_n.shape[:-1] + (len(free_idx), t_n.shape[-1]))
    for k, i in enumerate(free_idx):
        np.multiply(*columns[i], out=out[..., k, :])
    return out


def _predict_points(params: LawParams, num_params: Sequence[int], tokens: Sequence[int]) -> np.ndarray:
    """Predicted loss per (N, D) point, raising on overflow; math.log keeps counts past 2**63 exact."""
    ln_n = np.array([math.log(n) for n in num_params])
    ln_d = np.array([math.log(d) for d in tokens])
    pred = _forward(params.as_vector(), ln_n, ln_d)[0]
    if not np.all(np.isfinite(pred)):
        i = int(np.argmin(np.isfinite(pred)))
        raise OverflowError(
            f"scaling-law evaluation overflows at N={num_params[i]}, D={tokens[i]} with {params.to_dict()}"
        )
    return pred


def eval_law(params: LawParams, num_params: float, tokens: float) -> float:
    """Predicted loss at one (N, D) point; raises on overflow, never inf."""
    if num_params < 1 or tokens < 1:
        raise ValidationError(f"num_params and tokens must be >= 1, got ({num_params}, {tokens})")
    return float(_predict_points(params, [num_params], [tokens])[0])


def _design(data: ScaledFamily) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if data.is_empty:
        raise InsufficientDataError(f"family '{data.family_id}' is empty")
    columns = data.columns
    ln_n = np.array([math.log(n) for n in columns.num_params])
    ln_d = np.array([math.log(d) for d in columns.tokens_seen])
    return ln_n, ln_d, np.array(columns.loss)


def predict_records(params: LawParams, data: ScaledFamily) -> np.ndarray:
    """Predicted loss per record, in canonical record order; element-wise identical to eval_law."""
    if data.is_empty:
        raise InsufficientDataError(f"family '{data.family_id}' is empty")
    return _predict_points(params, data.columns.num_params, data.columns.tokens_seen)


def residuals(params: LawParams, data: ScaledFamily) -> np.ndarray:
    """prediction - observation per record, in canonical record order."""
    return predict_records(params, data) - np.array(data.columns.loss)


def residual_jacobian(params: LawParams, data: ScaledFamily) -> np.ndarray:
    """d residual_i / d (E, A, alpha, B, beta): an (n_records, 5) matrix."""
    ln_n, ln_d, _ = _design(data)
    jac = _jacobian(_forward(params.as_vector(), ln_n, ln_d)[1], ln_n, ln_d, range(5)).T
    if not np.all(np.isfinite(jac)):
        raise OverflowError(f"scaling-law Jacobian overflows with {params.to_dict()}")
    return jac


def huber(a, delta: float):
    """Piecewise penalty: a^2/2 inside |a| <= delta, linear outside."""
    if not (delta > 0):
        raise ValidationError(f"delta must be positive, got {delta}")
    arr = np.asarray(a, dtype=float)
    out = np.where(np.abs(arr) <= delta, 0.5 * arr * arr, delta * (np.abs(arr) - 0.5 * delta))
    return float(out) if out.ndim == 0 else out


def objective_value(residual_vec: np.ndarray, config: FitConfig) -> float | np.ndarray:
    """The fit objective of a residual vector; a 2-D array gives one objective per row."""
    per_point = np.square(residual_vec) if config.loss_kind == "square" else huber(residual_vec, config.delta)
    total = np.sum(per_point, axis=-1)
    return float(total) if total.ndim == 0 else total


def objective_gradient(params: LawParams, data: ScaledFamily, config: FitConfig) -> np.ndarray:
    """Analytic gradient of the fit objective w.r.t. the full 5-vector."""
    res = residuals(params, data)
    # Huber's derivative is the residual clipped to [-delta, delta].
    weights = 2.0 * res if config.loss_kind == "square" else np.clip(res, -config.delta, config.delta)
    return weights @ residual_jacobian(params, data)


# ---------------------------------------------------------------------------
# Multi-start fitting
# ---------------------------------------------------------------------------


def _profile(ln_n: np.ndarray, ln_d: np.ndarray, loss: np.ndarray, frozen: Mapping[str, float]):
    """Square-loss profile on the (alpha, beta) grid: objective and start 5-vector per point, alpha outer.

    At fixed exponents the law is linear in (e^E, e^A, e^B) >= 0: a 3-column
    non-negative least-squares problem, solved exactly by trying every active
    set on the Gram matrix of [1, (N / N_min)^-alpha, (D / D_min)^-beta]. All
    dot products come from one einsum, so two identical columns (every run at
    one N, or every record at one D) make a set exactly singular, and
    _solve_rows splits the coefficient between them. A frozen alpha is the
    grid's one row; a frozen A moves its term into the target.
    """
    alphas = np.array([frozen["alpha"]]) if "alpha" in frozen else _EXPONENT_GRID
    na, nb = len(alphas), len(_EXPONENT_GRID)
    m_n, m_d = ln_n.min(), ln_d.min()
    with np.errstate(all="ignore"):
        targets = loss[None] if "A" not in frozen else loss - np.exp(frozen["A"] - np.outer(alphas, ln_n))
        rows = np.concatenate((
            np.ones((1, len(loss))),
            np.exp(-np.outer(alphas, ln_n - m_n)),
            np.exp(-np.outer(_EXPONENT_GRID, ln_d - m_d)),
            targets,
        ))
        products = np.einsum("kn,jn->kj", rows, rows)
        a, b = np.divmod(np.arange(na * nb), nb)
        # Row of each column per grid point: E, A, B, target.
        index = np.stack((0 * a, 1 + a, 1 + na + b, 1 + na + nb + a * (len(targets) > 1)), axis=1)
        gram = products[index[:, :, None], index[:, None, :]]

        total = gram[:, 3, 3]
        linear = [0, 2] if "A" in frozen else [0, 1, 2]
        objective, coef = total.copy(), np.zeros((len(gram), 3))
        # Larger active sets first, and a smaller one must win by more than the rounding
        # of the Gram form, so two identical columns keep their shared coefficient.
        for size in range(len(linear), 0, -1):
            for active in map(list, itertools.combinations(linear, size)):
                g, rhs = gram[:, active][:, :, active], gram[:, active, 3]
                c = _solve_rows(g, rhs)
                # The sum of squares at c itself, so an inexact solve cannot undercut the exact one.
                obj = total - 2 * np.sum(c * rhs, axis=1) + np.einsum("mk,mkj,mj->m", c, g, c)
                better = np.all(c > 0, axis=1) & (obj < objective - 1e-12 * total)
                objective[better] = obj[better]
                coef[better] = 0.0
                coef[np.ix_(better, active)] = c[better]

    log_coef = np.log(np.fmax(coef, _TERM_FLOOR))
    alpha, beta = alphas[a], _EXPONENT_GRID[b]
    big_a = np.full(len(a), frozen["A"]) if "A" in frozen else log_coef[:, 1] + alpha * m_n
    return objective, np.stack((log_coef[:, 0], big_a, alpha, log_coef[:, 2] + beta * m_d, beta), axis=1)


def _build_starts(data: ScaledFamily, config: FitConfig) -> np.ndarray:
    """The restarts lowest-profile grid points, best first; start i is the same for any budget.

    Huber fits start from the square-loss profile too. A budget above the
    grid size is capped at it.
    """
    ln_n, ln_d, loss = _design(data)
    objective, starts = _profile(ln_n, ln_d, loss, config.frozen_map)
    return starts[np.argsort(objective, kind="stable")[: config.restarts]]


# Why a restart stopped.
_ITERATION_CAP, _TOLERANCE, _NON_FINITE = 0, 1, 2


def _solve_rows(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve; a singular system gets its least-norm solution without failing the batch.

    Damping keeps the systems regular unless a Jacobian column is zero from
    the start or the damping has underflowed; in the profile, two identical
    columns make every system of an active set singular. slogdet's sign is 0
    exactly where the LU factorization behind solve meets a zero pivot, so
    only those systems go one by one to lstsq and the rest are solved as one
    batch, with the bits they get in any batch: the fallback couples no restarts.
    """
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(matrices)[0] == 0
    out = np.empty_like(rhs)
    regular = ~singular
    out[regular] = np.linalg.solve(matrices[regular], rhs[regular][..., None])[..., 0]
    for i in np.flatnonzero(singular):
        out[i] = np.linalg.lstsq(matrices[i], rhs[i], rcond=None)[0]
    return out


def _solve_batch(starts: np.ndarray, free_idx: np.ndarray, ln_n: np.ndarray, ln_d: np.ndarray,
                 loss: np.ndarray, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg–Marquardt from every start at once: final 5-vectors and stop reasons.

    Rows are independent problems with their own damping, step acceptance
    and stop reason. Every operation is elementwise or reduces within one
    row, so a start ends bit-identical whether it runs alone or in a batch.
    Huber is iteratively reweighted least squares: weights min(1, delta/|r|)
    give the quadratic that majorizes huber() at the current residuals.
    The damping lam * D scales each parameter by the largest diagonal of
    J^T W J seen so far (Moré's rule), so a parameter whose term fades (E,
    when the data shows no loss floor) keeps its damping instead of taking
    ever larger steps.

    A start stops at tolerance tol when every component of its step is
    below tol * (tol + |x_i|), or when the cost still to gain, read as the
    geometric tail of the last two accepted drops, is below tol * cost on a
    step the model predicted well. The tail matters for Huber, where
    reweighting converges linearly. max_iterations caps the cost
    evaluations per start, the first included.
    """
    tol, delta = config.tolerance, config.delta
    square = config.loss_kind == "square"

    def evaluate(vecs):
        pred, terms = _forward(vecs.T[..., None], ln_n, ln_d)
        res = pred - loss
        return res, np.sum(0.5 * res * res if square else huber(res, delta), axis=-1), terms

    def normal_equations(terms, res):
        jac = _jacobian(terms, ln_n, ln_d, free_idx)
        if square:
            return np.einsum("mkn,mn->mk", jac, res), np.einsum("mkn,mjn->mkj", jac, jac)
        weights = delta / np.maximum(np.abs(res), delta)
        # Huber's derivative is the residual clipped to [-delta, delta].
        grad = np.einsum("mkn,mn->mk", jac, np.clip(res, -delta, delta))
        return grad, np.einsum("mkn,mjn->mkj", jac * weights[:, None, :], jac)

    with np.errstate(all="ignore"):
        vecs = np.array(starts, dtype=float)
        res, cost, terms = evaluate(vecs)
        grad, hess = normal_equations(terms, res)
        count = len(vecs)
        lam, growth, last_drop = np.full(count, 1e-3), np.full(count, 2.0), np.full(count, np.inf)
        diag = np.arange(len(free_idx))
        scale = hess[:, diag, diag].copy()
        stop = np.full(count, _ITERATION_CAP)
        live = np.arange(count)
        for _ in range(config.max_iterations - 1):
            g, h = grad[live], hess[live]
            damped = h.copy()
            damped[:, diag, diag] += lam[live, None] * scale[live]
            step = _solve_rows(damped, -g)
            trial = vecs[live]
            trial[:, free_idx] += step
            t_res, t_cost, t_terms = evaluate(trial)
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
            vecs[moved], cost[moved], last_drop[moved] = trial[ok], t_cost[ok], drop[ok]
            grad[moved], hess[moved] = normal_equations([t[ok] for t in t_terms], t_res[ok])
            scale[moved] = np.fmax(scale[moved], hess[moved][:, diag, diag])
            broken = ~np.isfinite(step).all(axis=1)
            broken[ok] |= ~(np.isfinite(grad[moved]).all(axis=1) & np.isfinite(hess[moved]).all(axis=(1, 2)))
            stop[live[done]] = _TOLERANCE
            stop[live[broken & ~done]] = _NON_FINITE
            live = live[~(done | broken)]
            if not live.size:
                break
    return vecs, stop


def fit(data: ScaledFamily, config: FitConfig | None = None) -> FitResult:
    """Best-of-restarts robust fit of the 5-parameter law.

    Returns the lowest-objective converged restart; ties break on lower
    alpha+beta, then start index. When nothing converges the best-effort
    parameters come back with converged=False; callers must check.
    """
    config = config or FitConfig()
    shortfall = fit_shortfall(data, config)
    if shortfall:
        raise InsufficientDataError(shortfall)
    if len(data.corpora) > 1:
        raise ValidationError(
            f"fit: family '{data.family_id}' mixes corpora {data.corpora}; select one with select_corpus"
        )
    ln_n, ln_d, loss = _design(data)
    frozen = config.frozen_map
    free_idx = np.array([i for i, n in enumerate(PARAM_NAMES) if n not in frozen], dtype=int)

    starts = np.array(_build_starts(data, config))
    index = np.flatnonzero(np.isfinite(_forward(starts.T[..., None], ln_n, ln_d)[0]).all(axis=1))
    if not index.size:
        raise InsufficientDataError(
            f"fit: no usable start for family '{data.family_id}' (all starts non-finite)"
        )
    vecs, stop = _solve_batch(starts[index], free_idx, ln_n, ln_d, loss, config)

    objectives = objective_value(_forward(vecs.T[..., None], ln_n, ln_d)[0] - loss, config)
    alpha_checked = "alpha" not in frozen
    lo, hi = EXPONENT_RANGE
    best_key = None
    for i, vec, reason, objective in zip(index, vecs, stop, objectives.tolist()):
        degenerate = (alpha_checked and not (lo <= vec[2] <= hi)) or not (lo <= vec[4] <= hi)
        converged = reason == _TOLERANCE and not degenerate and math.isfinite(objective)
        # Converged results always outrank non-converged ones.
        key = (not converged, objective, vec[2] + vec[4], int(i))
        if best_key is None or key < best_key:
            best_key, best = key, (vec, objective, converged)

    vec, objective, converged = best
    return FitResult(
        params=LawParams.from_vector(vec),
        objective=objective,
        converged=bool(converged),
        restarts_tried=int(index.size),
        n_points=len(data),
    )
