"""Law parameters, fit and synth settings, fit results and the value checks behind them.

The plain-Python half of law and synth: nothing here imports numpy, so the
CLI can parse and check every setting, and the commands that fit nothing can
run, without loading it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

    from .records import ScaledFamily

PARAM_NAMES = ("E", "A", "alpha", "B", "beta")
FREEZABLE = ("A", "alpha")

DEFAULT_HUBER_DELTA = 1e-3
# Alternative reading of the published constant: e * 10^-3.
ALT_HUBER_DELTA = math.e * 1e-3

# Fitted exponents outside this range mark a degenerate (non-converged) fit.
EXPONENT_RANGE = (-5.0, 10.0)


def _float(value) -> float | None:
    """float(value) for a number that is no bool, or for a str that float() reads; None for anything else."""
    if isinstance(value, (str, Real)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    return None


def check_real(value, name: str) -> float:
    """value as a float: the one rule for a number, from a log cell, a config value, a flag or a params file.

    A number or a str that float() reads ("1e-3", "nan") is read; a bool, an overflow and anything else
    raise ValidationError.
    """
    number = value if value.__class__ is float else _float(value)  # a float skips the ABC checks
    if number is None:
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return number


def check_count(value, name: str) -> int:
    """value as an int: the one rule for a count, wherever it is read.

    An integer is read, and so is a number or a str that float() reads with no fraction ("1e9", 3.0).
    A bool, a fraction, a non-finite value and anything else raise ValidationError.
    """
    if value.__class__ is int:  # the common case, ahead of the ABC checks
        return value
    if isinstance(value, str):
        try:
            return int(value)  # exact past 2**53, where a float is not
        except ValueError:
            pass
    elif isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    number = _float(value)
    if number is None or not number.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class LawParams:
    """The 5-vector (E, A, alpha, B, beta); serialization order is fixed."""

    E: float
    A: float
    alpha: float
    B: float
    beta: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"law parameter {name} must be finite, got {value}")

    def as_vector(self) -> np.ndarray:
        import numpy as np

        return np.array([self.E, self.A, self.alpha, self.B, self.beta], dtype=float)

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "LawParams":
        if len(vec) != 5:
            raise ValidationError(f"expected a 5-vector, got length {len(vec)}")
        return cls(*(float(v) for v in vec))

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "LawParams":
        if not isinstance(data, Mapping):
            raise ValidationError(f"law params must be a mapping, got {data!r}")
        missing = [n for n in PARAM_NAMES if n not in data]
        if missing:
            raise ValidationError(f"law params missing fields: {', '.join(missing)}")
        return cls(**{n: check_real(data[n], n) for n in PARAM_NAMES})

    def replace(self, **changes) -> "LawParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class FitConfig:
    """Solver configuration.

    frozen maps a subset of {A, alpha} to fixed values; frozen parameters are
    returned unchanged and excluded from the search space. delta is the Huber
    transition point (quadratic below, linear above).
    """

    loss_kind: str = "square"
    delta: float = DEFAULT_HUBER_DELTA
    frozen: Mapping[str, float] | None = None
    restarts: int = 32
    max_iterations: int = 2000
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.loss_kind not in ("square", "huber"):
            raise ValidationError(f"loss_kind must be 'square' or 'huber', got '{self.loss_kind}'")
        for name, check in (("delta", check_real), ("restarts", check_count), ("max_iterations", check_count),
                            ("tolerance", check_real)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if not (0 < self.delta < math.inf):  # an infinite delta makes every IRLS weight NaN
            raise ValidationError(f"delta must be positive and finite, got {self.delta}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0 < self.tolerance < 1):  # from 1 up, the first step passes the step test
            raise ValidationError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        try:
            frozen = dict(self.frozen or {})
        except (TypeError, ValueError):
            raise ValidationError(f"frozen must be a mapping, got {self.frozen!r}") from None
        bad = set(frozen) - set(FREEZABLE)
        if bad:
            raise ValidationError(f"only {FREEZABLE} may be frozen, got: {', '.join(sorted(map(str, bad)))}")
        frozen = {name: check_real(value, f"frozen {name}") for name, value in frozen.items()}
        for name, value in frozen.items():
            if not math.isfinite(value):
                raise ValidationError(f"frozen value for {name} must be finite, got {value}")
        object.__setattr__(self, "frozen", tuple(sorted(frozen.items())))

    @property
    def frozen_map(self) -> dict[str, float]:
        return dict(self.frozen or ())


@dataclass(frozen=True)
class FitResult:
    params: LawParams
    objective: float
    converged: bool
    restarts_tried: int
    n_points: int

    def to_dict(self) -> dict:
        return asdict(self)


def fit_shortfall(data: ScaledFamily, config: FitConfig | None = None) -> str | None:
    """Why data is too small to fit under config, or None: the one fittability rule.

    A fit needs >= 5 records over >= 3 size families, or >= 2 records when A and alpha
    are both frozen; a partial freeze keeps the full rule, since the size term still varies.
    """
    frozen = config is not None and set(FREEZABLE) <= set(config.frozen_map)
    records, runs = len(data), data.num_runs
    if frozen and records < 2:
        need = "fit with frozen (A, alpha) needs >= 2 records"
    elif not frozen and (records < 5 or runs < 3):
        need = "fit needs >= 5 records over >= 3 size families"
    else:
        return None
    return f"insufficient families: {need}, family '{data.family_id}' has {records} records over {runs} size families"


@dataclass(frozen=True)
class WarmupBump:
    """Additive distortion amplitude * max(0, 1 - tokens/span): early, decaying."""

    amplitude: float
    span_tokens: int

    def __post_init__(self):
        object.__setattr__(self, "amplitude", check_real(self.amplitude, "bump amplitude"))
        if not math.isfinite(self.amplitude):
            raise ValidationError(f"bump amplitude must be finite, got {self.amplitude}")
        object.__setattr__(self, "span_tokens", check_count(self.span_tokens, "bump span_tokens"))
        if self.span_tokens < 1:
            raise ValidationError(f"bump span_tokens must be >= 1, got {self.span_tokens}")

    def at(self, tokens: int) -> float:
        return self.amplitude * max(0.0, 1.0 - tokens / self.span_tokens)


@dataclass(frozen=True)
class SynthSpec:
    truth: LawParams
    sizes: tuple[int, ...]
    tokens_per_run: int | tuple[int, ...] = 2_000_000_000
    checkpoints_per_run: int = 20
    noise_sigma: float = 0.0
    seed_sigma: float = 0.0
    warmup_bump: WarmupBump | None = None
    rng_seed: int = 0
    seeds_per_size: int = 1
    first_checkpoint_fraction: float = 0.01
    family_id: str = "synthetic"

    def __post_init__(self):
        if not isinstance(self.sizes, (list, tuple)):
            raise ValidationError(f"sizes must be a list, got {self.sizes!r}")
        object.__setattr__(self, "sizes", tuple(check_count(s, "sizes") for s in self.sizes))
        if not self.sizes:
            raise ValidationError("sizes must be non-empty")
        if any(s < 1 for s in self.sizes):
            raise ValidationError(f"sizes must be positive, got {self.sizes}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValidationError(f"sizes must be distinct, got {self.sizes}")
        if isinstance(self.tokens_per_run, (list, tuple)):
            tokens = tuple(check_count(t, "tokens_per_run") for t in self.tokens_per_run)
            object.__setattr__(self, "tokens_per_run", tokens)
            if len(tokens) != len(self.sizes):
                raise ValidationError(
                    f"tokens_per_run list length {len(tokens)} != number of sizes {len(self.sizes)}"
                )
        else:
            object.__setattr__(self, "tokens_per_run", check_count(self.tokens_per_run, "tokens_per_run"))
            tokens = (self.tokens_per_run,) * len(self.sizes)
        if any(t < 1 for t in tokens):
            raise ValidationError("tokens_per_run entries must be positive")
        for name, check in (("checkpoints_per_run", check_count), ("rng_seed", check_count),
                            ("seeds_per_size", check_count), ("noise_sigma", check_real), ("seed_sigma", check_real),
                            ("first_checkpoint_fraction", check_real)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.checkpoints_per_run < 1:
            raise ValidationError(f"checkpoints_per_run must be >= 1, got {self.checkpoints_per_run}")
        if not (self.noise_sigma >= 0 and self.seed_sigma >= 0):
            raise ValidationError("noise sigmas must be nonnegative")
        if self.seeds_per_size < 1:
            raise ValidationError(f"seeds_per_size must be >= 1, got {self.seeds_per_size}")
        if not (0.0 < self.first_checkpoint_fraction <= 1.0):
            raise ValidationError(
                f"first_checkpoint_fraction must lie in (0, 1], got {self.first_checkpoint_fraction}"
            )
        if not isinstance(self.family_id, str):
            raise ValidationError(f"family_id must be a string, got {self.family_id!r}")

    def run_tokens(self, size_index: int) -> int:
        if isinstance(self.tokens_per_run, tuple):
            return self.tokens_per_run[size_index]
        return self.tokens_per_run

    @classmethod
    def from_dict(cls, data: Mapping) -> "SynthSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown synth fields: {', '.join(sorted(map(str, unknown)))}")
        missing = {"truth", "sizes"} - set(data)
        if missing:
            raise ValidationError(f"missing synth fields: {', '.join(sorted(missing))}")
        kwargs = dict(data)
        kwargs["truth"] = LawParams.from_dict(data["truth"])
        bump = data.get("warmup_bump")
        if bump is not None:
            if not isinstance(bump, Mapping) or set(bump) != {"amplitude", "span_tokens"}:
                raise ValidationError(f"warmup_bump must map exactly amplitude and span_tokens, got {bump!r}")
            kwargs["warmup_bump"] = WarmupBump(**bump)
        return cls(**kwargs)
