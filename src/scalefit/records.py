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
from dataclasses import FrozenInstanceError, asdict, dataclass
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

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


def _record_problem(family_id, model_id, num_params, tokens_seen, total_tokens, loss, flops) -> str | None:
    """The first value rule a checkpoint breaks, as a message; None when it keeps them all."""
    if not family_id:
        return "family_id must be non-empty"
    if not model_id:
        return "model_id must be non-empty"
    if num_params <= 0:
        problem = f"num_params must be positive, got {num_params}"
    elif tokens_seen <= 0:
        problem = f"tokens_seen must be positive, got {tokens_seen}"
    elif total_tokens <= 0:
        problem = f"total_tokens must be positive, got {total_tokens}"
    elif tokens_seen > total_tokens:
        problem = f"tokens_seen {tokens_seen} exceeds total_tokens {total_tokens}"
    elif not (math.isfinite(loss) and loss > 0):
        problem = f"loss must be positive and finite, got {loss}"
    elif flops is not None and not (math.isfinite(flops) and flops >= 0):
        problem = f"flops must be nonnegative, got {flops}"
    else:
        return None
    return f"record ({model_id}, tokens_seen={tokens_seen}): {problem}"


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
        problem = _record_problem(self.family_id, self.model_id, self.num_params, self.tokens_seen,
                                  self.total_tokens, self.loss, self.flops)
        if problem is not None:
            raise ValidationError(problem)

    @property
    def run_key(self) -> RunKey:
        """Identity of the training run this checkpoint belongs to."""
        return (self.model_id, self.seed)

    def sort_key(self):
        return (self.model_id, self.seed, self.loss_corpus or "", self.tokens_seen)


class Columns(NamedTuple):
    """A family's rows as one sequence per field. The first four fields identify a checkpoint."""

    model_id: Sequence[str]
    seed: Sequence[int]
    loss_corpus: Sequence[str | None]
    tokens_seen: Sequence[int]
    num_params: Sequence[int]
    total_tokens: Sequence[int]
    loss: Sequence[float]
    flops: Sequence[float | None]


def _canonical_rows(columns: Columns) -> list[int]:
    """Row indices in canonical order, identical duplicates dropped; a conflicting duplicate raises.

    The order is stable by (model_id, seed, corpus or "", tokens_seen); the first of a checkpoint's
    rows is kept.
    """
    model_id, seed, corpus, tokens = columns[:4]
    order_keys = list(zip(model_id, seed, [c or "" for c in corpus], tokens))
    order = sorted(range(len(order_keys)), key=order_keys.__getitem__)
    # A checkpoint tells an empty corpus from none, which the order does not.
    checkpoint_keys = order_keys if "" not in corpus else list(zip(model_id, seed, corpus, tokens))
    first: dict[tuple, int] = {}
    kept = []
    for i in order:
        j = first.setdefault(checkpoint_keys[i], i)
        if j == i:
            kept.append(i)
        elif any(column[i] != column[j] for column in columns):
            raise ValidationError(
                f"duplicate checkpoint ({model_id[i]}, tokens_seen={tokens[i]}) "
                f"with conflicting values (loss {columns.loss[j]} vs {columns.loss[i]})"
            )
    return kept


def _select(columns: Columns, rows: list[int]) -> Columns:
    return Columns(*(tuple(map(column.__getitem__, rows)) for column in columns))


def _columns_of(records: Sequence[CheckpointRecord]) -> Columns:
    return Columns(*(tuple(map(attrgetter(name), records)) for name in Columns._fields))


class ScaledFamily:
    """An immutable, canonically ordered collection of checkpoints of one family.

    The rows are stored only as columns, in canonical order by (model_id, seed,
    corpus, tokens_seen). Every subset is a row selection (:meth:`where`), which
    keeps that order without a sort. `records`, the CheckpointRecord tuple, is a
    view built only when a caller asks for it. Every constructor from records
    (ScaledFamily(family_id, records), :meth:`from_records`, :meth:`with_records`)
    rejects a record of another family and a contradictory duplicate, and drops
    an identical duplicate.
    """

    def __init__(self, family_id: str, records: Iterable[CheckpointRecord]):
        records = tuple(records)
        for rec in records:
            if rec.family_id != family_id:
                raise ValidationError(
                    f"record {rec.model_id} has family_id '{rec.family_id}', expected '{family_id}'"
                )
        columns = _columns_of(records)
        self.__dict__.update(family_id=family_id, columns=_select(columns, _canonical_rows(columns)))

    @classmethod
    def _of_columns(cls, family_id: str, columns: Columns) -> "ScaledFamily":
        family = cls.__new__(cls)
        family.__dict__.update(family_id=family_id, columns=columns)
        return family

    @classmethod
    def from_records(cls, family_id: str, records: Iterable[CheckpointRecord]) -> "ScaledFamily":
        return cls(family_id, records)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family_id == other.family_id and self.columns == other.columns

    def __hash__(self):
        return hash((self.family_id, self.columns))

    def __repr__(self) -> str:
        return f"ScaledFamily(family_id={self.family_id!r}, rows={len(self)})"

    @cached_property
    def records(self) -> tuple[CheckpointRecord, ...]:
        fid = self.family_id
        return tuple(
            CheckpointRecord(fid, model_id, num_params, tokens_seen, total_tokens, loss, seed, flops, corpus)
            for model_id, seed, corpus, tokens_seen, num_params, total_tokens, loss, flops in zip(*self.columns)
        )

    def __len__(self) -> int:
        return len(self.columns.loss)

    def __iter__(self):
        return iter(self.records)

    @property
    def is_empty(self) -> bool:
        return not self.columns.loss

    def where(self, keep: Iterable[bool]) -> "ScaledFamily":
        """The rows whose keep flag is true, one flag per row; the selection stays in canonical order."""
        return ScaledFamily._of_columns(self.family_id, _select(self.columns, list(compress(range(len(self)), keep))))

    @cached_property
    def run_rows(self) -> dict[RunKey, list[int]]:
        """Row indices of each training run, keyed by (model_id, seed) in sorted order."""
        runs: dict[RunKey, list[int]] = {}
        for i, run in enumerate(zip(self.columns.model_id, self.columns.seed)):
            runs.setdefault(run, []).append(i)  # canonical rows put the runs in sorted order
        return runs

    @cached_property
    def size_families(self) -> dict[RunKey, tuple[CheckpointRecord, ...]]:
        """Partition of records by training run, keyed by (model_id, seed)."""
        return {run: tuple(map(self.records.__getitem__, rows)) for run, rows in self.run_rows.items()}

    @property
    def num_runs(self) -> int:
        return len(self.run_rows)

    @cached_property
    def corpora(self) -> tuple[str | None, ...]:
        return tuple(sorted(set(self.columns.loss_corpus), key=lambda c: (c is not None, c or "")))

    def with_records(self, records: Iterable[CheckpointRecord]) -> "ScaledFamily":
        """A family with the same id over a subset (or reordering) of records."""
        return ScaledFamily(self.family_id, records)


@dataclass(frozen=True)
class FamilySummary:
    family_id: str
    model_count: int
    checkpoint_count: int
    size_range: tuple[int, int] | None
    token_range: tuple[int, int] | None

    def to_dict(self) -> dict:
        return asdict(self)


def family_summary(family: ScaledFamily) -> FamilySummary:
    """Tallies over a family; zero counts and absent ranges for an empty one."""
    if family.is_empty:
        return FamilySummary(family.family_id, 0, 0, None, None)
    sizes, tokens = family.columns.num_params, family.columns.tokens_seen
    return FamilySummary(
        family_id=family.family_id,
        model_count=family.num_runs,
        checkpoint_count=len(family),
        size_range=(min(sizes), max(sizes)),
        token_range=(min(tokens), max(tokens)),
    )


def select_corpus(family: ScaledFamily, corpus: str | None) -> ScaledFamily:
    """Restrict a family to records evaluated on one held-out corpus.

    corpus=None selects records that carry no corpus tag. Raises when the
    selection is empty, naming the corpora that are present.
    """
    kept = family.where(c == corpus for c in family.columns.loss_corpus)
    if kept.is_empty:
        have = ", ".join(repr(c) for c in family.corpora)
        raise ValidationError(
            f"family '{family.family_id}' has no records for corpus {corpus!r} (present: {have})"
        )
    return kept


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

_REQUIRED = ("family_id", "model_id", "num_params", "tokens_seen", "total_tokens", "loss")


def _parse_int(value, field: str, line: int) -> int:
    """A count from a CSV cell or a JSONL value read as its str(): "1e9" and 1e9 count, "1.5" and true do not.

    An int is taken as it is, since its str() reads the same.
    """
    if value.__class__ is not str:
        if value.__class__ is int:
            return value
        value = str(value)
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


def _parse_float(value, field: str, line: int) -> float:
    """A number from a CSV cell or a JSONL value read as its str(); a float is taken as it is."""
    if value.__class__ is not str:
        if value.__class__ is float:
            return value
        value = str(value)
    try:
        return float(value)
    except ValueError:
        raise IngestError(f"expected a number, got {value!r}", line=line, field=field) from None


def _csv_cells(stream: TextIO):
    """(line, cells in COLUMNS order) per non-blank row; a cell the row or the header lacks is None."""
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty input: no header row", line=1)
        missing = [c for c in _REQUIRED if c not in header]
        if missing:
            raise IngestError(f"header missing required columns: {', '.join(missing)}", line=1)
        width = len(header)
        position = {name: i for i, name in enumerate(header)}  # a repeated name: the last column wins
        cells = itemgetter(*(position.get(c, width) for c in COLUMNS))
        for row in reader:
            if row:
                if len(row) != width:  # extra cells are ignored, missing ones are empty
                    row = row[:width] if len(row) > width else row + [None] * (width - len(row))
                row.append(None)  # the cell of every optional column the header lacks
                yield reader.line_num, cells(row)
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}", line=reader.line_num) from None


def _jsonl_cells(stream: TextIO):
    """(line, values in COLUMNS order) per non-blank line; an absent value is None."""
    for line_num, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise IngestError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=line_num) from None
        if not isinstance(row, dict):
            raise IngestError("expected a JSON object per line", line=line_num)
        yield line_num, tuple(map(row.get, COLUMNS))


def ingest(source, fmt: str | None = None) -> list[ScaledFamily]:
    """Parse a CSV or JSONL stream into validated scaled families.

    source may be a path, a text/binary stream, or a str/bytes payload. Without fmt a
    path's suffix decides (.jsonl, .ndjson and .json are JSONL) and anything else is CSV.
    Returns one family per distinct family_id, sorted by id; row order is irrelevant.
    Input that is not UTF-8 raises IngestError, naming the first bad line of a path or bytes.
    """
    path = Path(source) if _is_path(source) else None
    if fmt is None:
        fmt = "jsonl" if path is not None and path.suffix.lower() in (".jsonl", ".ndjson", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format '{fmt}' (expected 'csv' or 'jsonl')")
    try:
        if path is not None:
            with path.open("r", encoding="utf-8", newline="") as handle:
                return _parse(handle, fmt)
        if isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
            wrapper = io.TextIOWrapper(source, encoding="utf-8", newline="")
            try:
                return _parse(wrapper, fmt)
            finally:
                wrapper.detach()  # the caller's stream stays open
        text = source.decode("utf-8") if isinstance(source, bytes) else source
        return _parse(io.StringIO(text) if isinstance(text, str) else text, fmt)
    except UnicodeDecodeError as exc:
        if path is not None:
            with path.open("rb") as raw:
                line = _first_undecodable_line(raw)
        else:
            line = _first_undecodable_line(io.BytesIO(source)) if isinstance(source, bytes) else None
        raise IngestError(f"input is not UTF-8 text ({exc.reason})", line=line) from None


def _first_undecodable_line(lines: Iterable[bytes]) -> int | None:
    """The number of the first line that is not UTF-8, counting b"\\n" line ends (the decoder reads ahead)."""
    for number, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return number
    return None


def _is_path(source) -> bool:
    """A Path, or a non-empty one-line str naming a file or holding no comma or brace (a header or JSON row is data)."""
    if isinstance(source, Path):
        return True
    if not isinstance(source, str) or not source or "\n" in source:
        return False
    return os.path.isfile(source) or not any(c in source for c in ",{")


def _parse(stream: TextIO, fmt: str) -> list[ScaledFamily]:
    """One pass over the rows, each checked and appended to its family's columns; no record is built."""
    by_family: dict[str, Columns] = {}
    cells = _csv_cells(stream) if fmt == "csv" else _jsonl_cells(stream)
    for line, (family_id, model_id, params, tokens, total, seed, loss, flops, corpus) in cells:
        if not (family_id and model_id and params and tokens and total and loss):  # a JSON 0 is no gap
            raw = (family_id, model_id, params, tokens, total, loss)
            field = next((f for f, value in zip(_REQUIRED, raw) if value in (None, "")), None)
            if field is not None:
                raise IngestError("missing required value", line=line, field=field)
        family_id, model_id = str(family_id), str(model_id)
        params = _parse_int(params, "num_params", line)
        tokens = _parse_int(tokens, "tokens_seen", line)
        total = _parse_int(total, "total_tokens", line)
        loss = _parse_float(loss, "loss", line)
        seed = 0 if seed in (None, "") else _parse_int(seed, "seed", line)
        flops = None if flops in (None, "") else _parse_float(flops, "flops", line)
        corpus = None if corpus in (None, "") else str(corpus)
        problem = _record_problem(family_id, model_id, params, tokens, total, loss, flops)
        if problem is not None:
            raise IngestError(problem, line=line)
        columns = by_family.get(family_id)
        if columns is None:
            columns = by_family[family_id] = Columns(*([] for _ in Columns._fields))
        columns.model_id.append(model_id)
        columns.seed.append(seed)
        columns.loss_corpus.append(corpus)
        columns.tokens_seen.append(tokens)
        columns.num_params.append(params)
        columns.total_tokens.append(total)
        columns.loss.append(loss)
        columns.flops.append(flops)
    if not by_family:
        raise IngestError("input contains no data rows")
    return [ScaledFamily._of_columns(fid, _select(columns, _canonical_rows(columns)))
            for fid, columns in sorted(by_family.items())]


def ingest_path(path: str | Path) -> list[ScaledFamily]:
    """Ingest a file, inferring csv/jsonl from its suffix."""
    return ingest(Path(path))


# ---------------------------------------------------------------------------
# Serialization (round-trip compatible with ingest) and the artifact format
# ---------------------------------------------------------------------------


def json_text(payload) -> str:
    """A JSON artifact: keys sorted, two-space indent, one trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(value):
    """A CSV artifact cell: None is empty, a bool 0/1, a float its repr (lossless), anything else as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def csv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """A CSV artifact: the header row, then one row per item of rows, every cell through _cell; "\n" line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)
    return out.getvalue()


def _rows(family: ScaledFamily) -> Iterator[tuple]:
    """Each row of a family as a tuple over COLUMNS."""
    for model_id, seed, corpus, tokens_seen, num_params, total_tokens, loss, flops in zip(*family.columns):
        yield family.family_id, model_id, num_params, tokens_seen, total_tokens, seed, loss, flops, corpus


def serialize(families: Sequence[ScaledFamily], fmt: str = "csv") -> str:
    """Render families in the interchange format; ingest(serialize(f)) == sorted(f).

    CSV goes through csv_text, whose float repr makes the round trip lossless.
    Missing optional fields become the empty string (CSV) or an absent key (JSONL).
    """
    rows = chain.from_iterable(map(_rows, sorted(families, key=lambda f: f.family_id)))
    if fmt == "csv":
        return csv_text(COLUMNS, rows)
    if fmt == "jsonl":
        lines = [json.dumps({k: v for k, v in zip(COLUMNS, row) if v is not None}, sort_keys=True) for row in rows]
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown format '{fmt}' (expected 'csv' or 'jsonl')")


def merge_families(families: Iterable[ScaledFamily]) -> ScaledFamily:
    """Combine same-id families (e.g. shards of one dataset) into one."""
    families = list(families)
    if not families:
        raise ValidationError("nothing to merge")
    fid = families[0].family_id
    for fam in families:
        if fam.family_id != fid and not fam.is_empty:
            raise ValidationError(
                f"record {fam.columns.model_id[0]} has family_id '{fam.family_id}', expected '{fid}'"
            )
    columns = Columns(*(tuple(chain(*field)) for field in zip(*(f.columns for f in families))))
    return ScaledFamily._of_columns(fid, _select(columns, _canonical_rows(columns)))
