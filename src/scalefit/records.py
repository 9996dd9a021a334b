"""Checkpoint-level training logs: records, scaled families, ingestion, serialization.

A record is one observed (family, model, #params, tokens-seen, loss) point.
A scaled family groups records that share an architecture/data recipe and
differ only in model size and tokens consumed. Within a family, one training
run (a "size family") is identified by (model_id, seed).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .errors import IngestError, ValidationError

# Exact column set of the CSV/JSONL interchange format. Unknown extra columns
# are ignored on ingest so released aggregate dumps with bonus metadata load.
COLUMNS = (
    "family_id",
    "model_id",
    "num_params",
    "tokens_seen",
    "total_tokens",
    "seed",
    "loss",
    "flops",
    "loss_corpus",
)

RunKey = tuple[str, int]


@dataclass(frozen=True)
class CheckpointRecord:
    """One checkpoint of one training run.

    num_params and token counts are stored raw (not in billions); all
    normalization happens inside the estimator.
    """

    family_id: str
    model_id: str
    num_params: int
    tokens_seen: int
    total_tokens: int
    loss: float
    seed: int = 0
    flops: float | None = None
    loss_corpus: str | None = None

    def __post_init__(self):
        if not self.family_id:
            raise ValidationError("family_id must be non-empty")
        if not self.model_id:
            raise ValidationError("model_id must be non-empty")
        if self.num_params <= 0:
            raise ValidationError(f"{self._name()}: num_params must be positive, got {self.num_params}")
        if self.tokens_seen <= 0:
            raise ValidationError(f"{self._name()}: tokens_seen must be positive, got {self.tokens_seen}")
        if self.total_tokens <= 0:
            raise ValidationError(f"{self._name()}: total_tokens must be positive, got {self.total_tokens}")
        if self.tokens_seen > self.total_tokens:
            raise ValidationError(
                f"{self._name()}: tokens_seen {self.tokens_seen} exceeds total_tokens {self.total_tokens}"
            )
        if not (math.isfinite(self.loss) and self.loss > 0):
            raise ValidationError(f"{self._name()}: loss must be positive and finite, got {self.loss}")
        if self.flops is not None and not (math.isfinite(self.flops) and self.flops >= 0):
            raise ValidationError(f"{self._name()}: flops must be nonnegative, got {self.flops}")

    def _name(self) -> str:
        return f"record ({self.model_id}, tokens_seen={self.tokens_seen})"

    @property
    def run_key(self) -> RunKey:
        """Identity of the training run this checkpoint belongs to."""
        return (self.model_id, self.seed)

    def sort_key(self):
        return (self.model_id, self.seed, self.loss_corpus or "", self.tokens_seen)


def _canonical(records: Iterable[CheckpointRecord]) -> tuple[CheckpointRecord, ...]:
    return tuple(sorted(records, key=CheckpointRecord.sort_key))


@dataclass(frozen=True)
class ScaledFamily:
    """An immutable, canonically ordered collection of checkpoints of one family.

    Construct through :meth:`from_records`, which validates the shared
    family_id, rejects contradictory duplicates, and sorts records by
    (model_id, seed, corpus, tokens_seen).
    """

    family_id: str
    records: tuple[CheckpointRecord, ...]

    @classmethod
    def from_records(cls, family_id: str, records: Iterable[CheckpointRecord]) -> "ScaledFamily":
        ordered = _canonical(records)
        seen: dict[tuple, CheckpointRecord] = {}
        kept: list[CheckpointRecord] = []
        for rec in ordered:
            if rec.family_id != family_id:
                raise ValidationError(
                    f"record {rec.model_id} has family_id '{rec.family_id}', expected '{family_id}'"
                )
            key = (rec.model_id, rec.seed, rec.loss_corpus, rec.tokens_seen)
            prior = seen.get(key)
            if prior is None:
                seen[key] = rec
                kept.append(rec)
            elif prior != rec:
                raise ValidationError(
                    f"duplicate checkpoint ({rec.model_id}, tokens_seen={rec.tokens_seen}) "
                    f"with conflicting values (loss {prior.loss} vs {rec.loss})"
                )
        return cls(family_id=family_id, records=tuple(kept))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def is_empty(self) -> bool:
        return not self.records

    @cached_property
    def size_families(self) -> dict[RunKey, tuple[CheckpointRecord, ...]]:
        """Partition of records by training run, keyed by (model_id, seed)."""
        runs: dict[RunKey, list[CheckpointRecord]] = {}
        for rec in self.records:
            runs.setdefault(rec.run_key, []).append(rec)
        return {key: tuple(recs) for key, recs in sorted(runs.items())}

    @property
    def num_runs(self) -> int:
        return len(self.size_families)

    @cached_property
    def corpora(self) -> tuple[str | None, ...]:
        return tuple(sorted({r.loss_corpus for r in self.records}, key=lambda c: (c is not None, c or "")))

    def with_records(self, records: Iterable[CheckpointRecord]) -> "ScaledFamily":
        """A family with the same id over a subset (or reordering) of records."""
        return ScaledFamily(family_id=self.family_id, records=_canonical(records))


@dataclass(frozen=True)
class FamilySummary:
    family_id: str
    model_count: int
    checkpoint_count: int
    size_range: tuple[int, int] | None
    token_range: tuple[int, int] | None

    def to_dict(self) -> dict:
        return {
            "family_id": self.family_id,
            "model_count": self.model_count,
            "checkpoint_count": self.checkpoint_count,
            "size_range": list(self.size_range) if self.size_range else None,
            "token_range": list(self.token_range) if self.token_range else None,
        }


def family_summary(family: ScaledFamily) -> FamilySummary:
    """Tallies over a family; zero counts and absent ranges for an empty one."""
    if family.is_empty:
        return FamilySummary(family.family_id, 0, 0, None, None)
    sizes = [r.num_params for r in family.records]
    tokens = [r.tokens_seen for r in family.records]
    return FamilySummary(
        family_id=family.family_id,
        model_count=family.num_runs,
        checkpoint_count=len(family.records),
        size_range=(min(sizes), max(sizes)),
        token_range=(min(tokens), max(tokens)),
    )


def select_corpus(family: ScaledFamily, corpus: str | None) -> ScaledFamily:
    """Restrict a family to records evaluated on one held-out corpus.

    corpus=None selects records that carry no corpus tag. Raises when the
    selection is empty, naming the corpora that are present.
    """
    kept = [r for r in family.records if r.loss_corpus == corpus]
    if not kept:
        have = ", ".join(repr(c) for c in family.corpora)
        raise ValidationError(
            f"family '{family.family_id}' has no records for corpus {corpus!r} (present: {have})"
        )
    return family.with_records(kept)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

_REQUIRED = ("family_id", "model_id", "num_params", "tokens_seen", "total_tokens", "loss")


def _parse_int(value: str, field: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        pass
    # Tolerate scientific notation for counts (e.g. "1e9") when integral.
    try:
        as_float = float(value)
    except ValueError:
        raise IngestError(f"expected an integer, got {value!r}", line=line, field=field) from None
    if not math.isfinite(as_float) or as_float != int(as_float):
        raise IngestError(f"expected an integer, got {value!r}", line=line, field=field)
    return int(as_float)


def _parse_float(value: str, field: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise IngestError(f"expected a number, got {value!r}", line=line, field=field) from None


def _record_from_row(row: dict, line: int) -> CheckpointRecord:
    for field in _REQUIRED:
        if row.get(field) in (None, ""):
            raise IngestError("missing required value", line=line, field=field)
    seed_raw = row.get("seed")
    flops_raw = row.get("flops")
    corpus_raw = row.get("loss_corpus")
    try:
        return CheckpointRecord(
            family_id=str(row["family_id"]),
            model_id=str(row["model_id"]),
            num_params=_parse_int(str(row["num_params"]), "num_params", line),
            tokens_seen=_parse_int(str(row["tokens_seen"]), "tokens_seen", line),
            total_tokens=_parse_int(str(row["total_tokens"]), "total_tokens", line),
            loss=_parse_float(str(row["loss"]), "loss", line),
            seed=_parse_int(str(seed_raw), "seed", line) if seed_raw not in (None, "") else 0,
            flops=_parse_float(str(flops_raw), "flops", line) if flops_raw not in (None, "") else None,
            loss_corpus=str(corpus_raw) if corpus_raw not in (None, "") else None,
        )
    except ValidationError as exc:
        if isinstance(exc, IngestError):
            raise
        raise IngestError(str(exc), line=line) from exc


def _iter_csv(stream: TextIO):
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise IngestError("empty input: no header row", line=1)
    missing = [c for c in _REQUIRED if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"header missing required columns: {', '.join(missing)}", line=1)
    for row in reader:
        yield reader.line_num, row


def _iter_jsonl(stream: TextIO):
    for line_num, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON: {exc.msg}", line=line_num) from exc
        if not isinstance(row, dict):
            raise IngestError("expected a JSON object per line", line=line_num)
        yield line_num, row


def ingest(source, fmt: str | None = None) -> list[ScaledFamily]:
    """Parse a CSV or JSONL stream into validated scaled families.

    source may be a path, a text/binary stream, or a str/bytes payload. Without fmt a
    path's suffix decides (.jsonl, .ndjson and .json are JSONL) and anything else is CSV.
    Returns one family per distinct family_id, sorted by id; row order is irrelevant.
    """
    path = Path(source) if _is_path(source) else None
    if fmt is None:
        fmt = "jsonl" if path is not None and path.suffix.lower() in (".jsonl", ".ndjson", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format '{fmt}' (expected 'csv' or 'jsonl')")
    if path is not None:
        with path.open("r", encoding="utf-8", newline="") as handle:
            return _parse(handle, fmt)
    if isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        wrapper = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            return _parse(wrapper, fmt)
        finally:
            wrapper.detach()  # the caller's stream stays open
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    return _parse(io.StringIO(source) if isinstance(source, str) else source, fmt)


def _is_path(source) -> bool:
    """A Path, or a one-line str naming a file or holding no comma or brace (a header or JSON row is data)."""
    if isinstance(source, Path):
        return True
    if not isinstance(source, str) or "\n" in source:
        return False
    return os.path.isfile(source) or not any(c in source for c in ",{")


def _parse(stream: TextIO, fmt: str) -> list[ScaledFamily]:
    rows = _iter_csv(stream) if fmt == "csv" else _iter_jsonl(stream)
    by_family: dict[str, list[CheckpointRecord]] = {}
    for line_num, row in rows:
        rec = _record_from_row(row, line_num)
        by_family.setdefault(rec.family_id, []).append(rec)
    if not by_family:
        raise IngestError("input contains no data rows")
    return [ScaledFamily.from_records(fid, recs) for fid, recs in sorted(by_family.items())]


def ingest_path(path: str | Path) -> list[ScaledFamily]:
    """Ingest a file, inferring csv/jsonl from its suffix."""
    return ingest(Path(path))


# ---------------------------------------------------------------------------
# Serialization (round-trip compatible with ingest)
# ---------------------------------------------------------------------------


def _row_values(rec: CheckpointRecord) -> dict:
    return {
        "family_id": rec.family_id,
        "model_id": rec.model_id,
        "num_params": rec.num_params,
        "tokens_seen": rec.tokens_seen,
        "total_tokens": rec.total_tokens,
        "seed": rec.seed,
        "loss": rec.loss,
        "flops": rec.flops,
        "loss_corpus": rec.loss_corpus,
    }


def serialize(families: Sequence[ScaledFamily], fmt: str = "csv") -> str:
    """Render families in the interchange format; ingest(serialize(f)) == sorted(f).

    Floats are written with repr so the round trip is lossless. Missing
    optional fields become the empty string (CSV) or an absent key (JSONL).
    """
    ordered = sorted(families, key=lambda f: f.family_id)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(COLUMNS)
        for family in ordered:
            for rec in family.records:
                vals = _row_values(rec)
                writer.writerow(
                    ["" if vals[c] is None else repr(vals[c]) if isinstance(vals[c], float) else vals[c] for c in COLUMNS]
                )
        return out.getvalue()
    if fmt == "jsonl":
        lines = []
        for family in ordered:
            for rec in family.records:
                vals = {k: v for k, v in _row_values(rec).items() if v is not None}
                lines.append(json.dumps(vals, sort_keys=True))
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown format '{fmt}' (expected 'csv' or 'jsonl')")


def merge_families(families: Iterable[ScaledFamily]) -> ScaledFamily:
    """Combine same-id families (e.g. shards of one dataset) into one."""
    families = list(families)
    if not families:
        raise ValidationError("nothing to merge")
    fid = families[0].family_id
    records = [r for fam in families for r in fam.records]
    return ScaledFamily.from_records(fid, records)
