"""Workload inputs, generated from the seed with numpy alone.

The benchmark does not call scalefit.synth or the package's forward law, so a
change to either cannot silently change what the benchmark feeds the CLI.
Every family follows one published-style law L(N, D) = e^E + e^A / N^alpha +
e^B / D^beta with 20 tokens per parameter per run and log-uniform checkpoints
from 1% to 100% of the run; the seed draws the multiplicative noise. The truth
is not varied between families or seeds: that made the solver's work per fit
swing several-fold from seed to seed, which a benchmark cannot average away.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMNS = ("family_id", "model_id", "num_params", "tokens_seen", "total_tokens", "seed", "loss", "flops", "loss_corpus")
TRUTH = {"E": 0.52, "A": 6.0, "alpha": 0.34, "B": 6.0, "beta": 0.28}
TOKENS_PER_PARAM = 20


@dataclass(frozen=True)
class Family:
    family_id: str
    num_params: np.ndarray  # one entry per row
    tokens_seen: np.ndarray
    total_tokens: np.ndarray
    loss: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return sorted({int(n) for n in self.num_params})

    def rows(self) -> int:
        return int(self.loss.size)


def law(truth: dict, num_params, tokens) -> np.ndarray:
    return (
        np.exp(truth["E"])
        + np.exp(truth["A"] - truth["alpha"] * np.log(np.asarray(num_params, dtype=float)))
        + np.exp(truth["B"] - truth["beta"] * np.log(np.asarray(tokens, dtype=float)))
    )


def make_family(rng: np.random.Generator, family_id: str, n_sizes: int, n_ckpts: int, sigma: float) -> Family:
    sizes = np.unique(np.round(np.geomspace(1e7, 1e9, n_sizes)).astype(np.int64))
    n, d, total = [], [], []
    for size in sizes:
        budget = int(size) * TOKENS_PER_PARAM
        ticks = np.unique(np.round(np.geomspace(0.01 * budget, budget, n_ckpts)).astype(np.int64))
        n.append(np.full(ticks.size, size))
        d.append(ticks)
        total.append(np.full(ticks.size, budget))
    num_params, tokens_seen, total_tokens = (np.concatenate(a) for a in (n, d, total))
    loss = law(TRUTH, num_params, tokens_seen)
    if sigma > 0:
        loss = loss * np.exp(rng.normal(0.0, sigma, loss.size))
    return Family(family_id, num_params, tokens_seen, total_tokens, loss)


def _row_dicts(families):
    for fam in families:
        for n, d, t, loss in zip(fam.num_params.tolist(), fam.tokens_seen.tolist(),
                                 fam.total_tokens.tolist(), fam.loss.tolist()):
            yield {"family_id": fam.family_id, "model_id": f"{fam.family_id}-n{n}", "num_params": n,
                   "tokens_seen": d, "total_tokens": t, "seed": 0, "loss": loss}


def write_csv(path: Path, families) -> None:
    lines = [",".join(COLUMNS)]
    for r in _row_dicts(families):
        lines.append(f"{r['family_id']},{r['model_id']},{r['num_params']},{r['tokens_seen']},"
                     f"{r['total_tokens']},0,{r['loss']!r},,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_jsonl(path: Path, families) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in _row_dicts(families)), encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
