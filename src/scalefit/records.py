"""Checkpoint-level training logs: records, scaled families, ingestion, serialization.

A record is one row of a log: one observed (family, model, #params, tokens-seen,
loss) point, a plain tuple over COLUMNS. A scaled family groups the rows that
share an architecture/data recipe and differ only in model size and tokens
consumed. Within a family, one training run (a "size family") is identified by
(model_id, seed). A family is built from a log by `ingest`, or from Python rows
by `ScaledFamily.from_records`; both check every row by the same rules.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, compress, count, islice, repeat, zip_longest
from operator import eq, ge, itemgetter, le, ne, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import IngestError, ValidationError
from .specs import check_count, check_real

RunKey = tuple[str, int]


class CheckpointRecord(NamedTuple):
    """One checkpoint of one training run: a row of a log, in COLUMNS order, unchecked.

    num_params and token counts are raw (not in billions); all normalization happens
    inside the estimator. A family checks its rows: see ScaledFamily.from_records.
    """

    family_id: str
    model_id: str
    num_params: int
    tokens_seen: int
    total_tokens: int
    seed: int
    loss: float
    flops: float | None = None
    loss_corpus: str | None = None

    @property
    def run_key(self) -> RunKey:
        """Identity of the training run this checkpoint belongs to."""
        return (self.model_id, self.seed)


# Exact column set of the CSV/JSONL interchange format. Unknown extra columns
# are ignored on ingest so released aggregate dumps with bonus metadata load.
COLUMNS = CheckpointRecord._fields


def _record_problem(model_id, num_params, tokens_seen, total_tokens, loss, flops) -> str | None:
    """The first value rule a checkpoint breaks, as a message; None when it keeps them all."""
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


class Columns(NamedTuple):
    """A family's rows as one sequence per field, in COLUMNS order after family_id."""

    model_id: Sequence[str]
    num_params: Sequence[int]
    tokens_seen: Sequence[int]
    total_tokens: Sequence[int]
    seed: Sequence[int]
    loss: Sequence[float]
    flops: Sequence[float | None]
    loss_corpus: Sequence[str | None]


def _run_starts(*key: Sequence) -> Iterator[int]:
    """The first row of every maximal block of rows with one value in each key column, in order.

    With one column that is not constant, the rows are compared only as far as the caller reads.
    """
    n = len(key[0])
    if not n:
        return iter(())
    changes = [compress(count(1), map(ne, column, islice(column, 1, None)))
               for column in key if column.count(column[0]) != n]  # a column of one value starts no block
    return chain([0], changes[0] if len(changes) == 1 else sorted(set(chain.from_iterable(changes))))


def _canonical_rows(columns: Columns) -> list[int] | None:
    """Row indices in canonical order, identical duplicates dropped; None when the rows already are in it.

    The order is stable by (model_id, seed, corpus or "", tokens_seen). A log that writes each run's
    checkpoints together is ordered by its run blocks: when tokens rise inside every block of one
    (model_id, seed, corpus) and no two blocks share a key, the rows are the blocks sorted by key.
    Any other rows go to _sorted_rows, interleaved or shuffled runs as soon as a key's second block is met.
    """
    model_id, seed, corpus, tokens = columns.model_id, columns.seed, columns.loss_corpus, columns.tokens_seen
    if len(tokens) < 2:
        return None
    starts: list[int] = []
    blocks: dict[tuple, int] = {}
    for b, i in enumerate(_run_starts(model_id, seed, corpus)):
        if blocks.setdefault((model_id[i], seed[i], corpus[i] or ""), b) != b:  # a key's second block
            return _sorted_rows(columns)
        starts.append(i)
    falls = compress(count(1), map(ge, tokens, islice(tokens, 1, None)))  # rows whose tokens do not rise
    if not set(falls).issubset(starts):
        return _sorted_rows(columns)
    order = [blocks[key] for key in sorted(blocks)]
    if order == list(range(len(order))):
        return None
    bounds = [*starts, len(tokens)]
    return list(chain.from_iterable(range(bounds[b], bounds[b + 1]) for b in order))


def _sorted_rows(columns: Columns) -> list[int]:
    """_canonical_rows by one sort key per row.

    The first of a checkpoint's rows is kept, and a conflicting duplicate raises. Only rows with a
    duplicate run the dict sweep.
    """
    model_id, seed, corpus, tokens = columns.model_id, columns.seed, columns.loss_corpus, columns.tokens_seen
    n = len(corpus)
    tags = [""] * n if corpus.count(None) == n else [c or "" for c in corpus]
    order_keys = list(zip(model_id, seed, tags, tokens))
    order = sorted(range(n), key=order_keys.__getitem__)
    ranked = list(map(order_keys.__getitem__, order))
    if not any(map(eq, ranked, islice(ranked, 1, None))):
        return order
    first: dict[tuple, int] = {}
    kept = []
    for i in order:
        j = first.setdefault(order_keys[i], i)
        if j == i:
            kept.append(i)
        elif any(column[i] != column[j] for column in columns):
            raise ValidationError(
                f"duplicate checkpoint ({model_id[i]}, tokens_seen={tokens[i]}) "
                f"with conflicting values (loss {columns.loss[j]} vs {columns.loss[i]})"
            )
    return kept


def _select(columns: Columns, rows: Sequence[int]) -> Columns:
    if len(rows) < 2:  # itemgetter returns a tuple only for two or more items
        return Columns(*(tuple(map(column.__getitem__, rows)) for column in columns))
    return Columns(*map(itemgetter(*rows), columns))


def _canonical(columns: Columns) -> Columns:
    """The columns cut to _canonical_rows: the one canonical-order step of every family built from rows."""
    rows = _canonical_rows(columns)
    return Columns(*map(tuple, columns)) if rows is None else _select(columns, rows)


@dataclass(frozen=True, init=False)
class ScaledFamily:
    """An immutable, canonically ordered collection of checkpoints of one family.

    The rows are stored only as columns, in canonical order by (model_id, seed,
    corpus, tokens_seen). Every subset is a row selection (:meth:`where`), which
    keeps that order without a sort. `records`, the rows as CheckpointRecords, is
    a view built only when a caller asks for it. A family is built by `ingest` or
    :meth:`from_records`; there is no other public constructor.
    """

    family_id: str
    columns: Columns

    @classmethod
    def _of_columns(cls, family_id: str, columns: Columns) -> "ScaledFamily":
        family = cls.__new__(cls)
        family.__dict__.update(family_id=family_id, columns=columns)
        return family

    @classmethod
    def from_records(cls, family_id: str, records: Iterable[Sequence]) -> "ScaledFamily":
        """A family from rows over COLUMNS (CheckpointRecords, say), checked and converted as ingest reads a JSONL log.

        A row ingest would refuse raises its IngestError, without a line number; an empty corpus reads as
        untagged. A row of another family and a contradictory duplicate raise ValidationError, and an
        identical duplicate is dropped.
        """
        raw = list(zip(*records)) or [()] * len(COLUMNS)
        family_ids, columns = _checked_columns(raw, typed=True) or _checked_rows(zip(repeat(None), zip(*raw)))
        stranger = next((i for i, fid in enumerate(family_ids) if fid != family_id), None)
        if stranger is not None:
            raise ValidationError(
                f"record {columns.model_id[stranger]} has family_id '{family_ids[stranger]}', expected '{family_id}'"
            )
        return cls._of_columns(family_id, _canonical(columns))

    def __repr__(self) -> str:
        return f"ScaledFamily(family_id={self.family_id!r}, rows={len(self)})"

    @cached_property
    def records(self) -> tuple[CheckpointRecord, ...]:
        return tuple(map(CheckpointRecord._make, _rows(self)))

    def __len__(self) -> int:
        return len(self.columns.loss)

    @property
    def is_empty(self) -> bool:
        return not self.columns.loss

    def where(self, keep: Iterable[bool]) -> "ScaledFamily":
        """The rows whose keep flag is true, one flag per row; the selection stays in canonical order."""
        return ScaledFamily._of_columns(self.family_id, _select(self.columns, list(compress(range(len(self)), keep))))

    @cached_property
    def run_rows(self) -> dict[RunKey, list[int]]:
        """Row indices of each training run, keyed by (model_id, seed) in sorted order."""
        model_id, seed = self.columns.model_id, self.columns.seed
        bounds = [*_run_starts(model_id, seed), len(self)]  # canonical rows keep a run together, runs in order
        return {(model_id[a], seed[a]): list(range(a, b)) for a, b in zip(bounds, islice(bounds, 1, None))}

    @property
    def num_runs(self) -> int:
        return len(self.run_rows)

    @cached_property
    def corpora(self) -> tuple[str | None, ...]:
        return tuple(sorted(set(self.columns.loss_corpus), key=lambda c: (c is not None, c or "")))


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
_CHUNK = 128  # rows converted and checked together; a chunk the column checks cannot take goes row by row
_JSON_SPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once


def _csv_chunks(stream: TextIO):
    """(cells as columns in COLUMNS order, (line, row) pairs for the row loop) per chunk of up to _CHUNK rows.

    A column the header lacks is None. A chunk of plain lines (_plain_lines) is split on its commas; the
    first chunk that is not plain hands itself and the rest of the stream to _reader_chunks.
    """
    reader = csv.reader(stream)  # it reads no further than the header's own lines
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}", line=reader.line_num) from None
    if header is None:
        raise IngestError("empty input: no header row", line=1)
    missing = [c for c in _REQUIRED if c not in header]
    if missing:
        raise IngestError(f"header missing required columns: {', '.join(missing)}", line=1)
    width = len(header)
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last column wins
    picks = [position.get(c) for c in COLUMNS]
    cells = itemgetter(*(position.get(c, width) for c in COLUMNS))
    start, limit = reader.line_num, csv.field_size_limit()
    while lines := list(islice(stream, _CHUNK)):
        bodies = _plain_lines(lines, limit)
        if bodies is None:
            yield from _reader_chunks(chain(lines, stream), start, width, picks, cells)
            return
        numbered = zip(count(start + 1), map(_split, bodies))
        yield _split_columns(bodies, width, picks), _csv_rows(numbered, width, cells)
        start += len(lines)


def _plain_lines(lines: list[str], limit: int) -> list[str] | None:
    """The lines without their line ends, when csv.reader would read each as its commas split it; else None.

    A plain line has no quote, no NUL (Python 3.10's csv rejects it), no more characters than a field may
    have, and no line-end character before its line end.
    """
    if max(map(len, lines)) > limit:
        return None
    bodies = list(map(str.rstrip, lines, repeat("\r\n")))
    text = "".join(bodies)
    return None if '"' in text or "\0" in text or "\n" in text or "\r" in text else bodies


def _split(body: str) -> list[str]:
    return body.split(",") if body else []  # csv.reader reads a blank line as no cells


def _split_columns(bodies: list[str], width: int, picks: list) -> list[list[str] | None] | None:
    """A plain chunk's cells as columns, from one join and one split; a short row is padded with empty cells
    and a long one cut to the header, as the row loop reads them."""
    rows = list(filter(None, bodies))  # blank lines are skipped
    if not rows:
        return None
    commas = list(map(str.count, rows, repeat(",")))
    stride = commas[0] + 1
    if commas.count(commas[0]) != len(rows):  # ragged: cut each row to the header's width, or pad it
        rows = [row.rsplit(",", extra)[0] if extra >= 0 else row + "," * -extra
                for row, extra in zip(rows, map(sub, commas, repeat(width - 1)))]
        stride = width
    cells = ",".join(rows).split(",")
    empty = [""] * len(rows)
    return [None if i is None else cells[i::stride] if i < stride else empty for i in picks]


def _reader_chunks(lines: Iterator[str], start: int, width: int, picks: list, cells):
    """_csv_chunks for lines read by csv.reader, from line start + 1 on; the columns are None for a malformed chunk.

    Each row is numbered by the physical line it ends on, as it is read. On a malformed row the rows read
    before it go to the row loop first, and then the error is raised.
    """
    reader = csv.reader(lines)
    while True:
        numbered, error = [], None
        try:  # extend keeps the rows read before a malformed one
            numbered.extend((start + reader.line_num, row) for row in islice(reader, _CHUNK))
        except csv.Error as exc:
            error = IngestError(f"malformed CSV: {exc}", line=start + reader.line_num)
        if not numbered and error is None:
            return
        columns = None
        if error is None and (full := [row for _, row in numbered if row]):  # blank lines are skipped
            table = list(zip_longest(*full, fillvalue=""))  # short rows padded with empty cells
            columns = [None if i is None else table[i] if i < len(table) else ("",) * len(full) for i in picks]
        yield columns, _csv_rows(numbered, width, cells)
        if error is not None:
            raise error


def _csv_rows(numbered, width: int, cells):
    """The row loop's (line, cells in COLUMNS order) per non-blank (line, row)."""
    for line, row in numbered:
        if row:
            if len(row) != width:  # extra cells are ignored, missing ones are empty
                row = row[:width] if len(row) > width else row + [None] * (width - len(row))
            row.append(None)  # the cell of every optional column the header lacks
            yield line, cells(row)


def _jsonl_chunks(stream: TextIO):
    """(values as columns in COLUMNS order, rows for the row loop) per chunk of up to _CHUNK lines.

    When the lines decode as _json_objects, the row loop reads the decoded values; otherwise the columns are
    None, and the row loop decodes each line again for the exact message.
    """
    start = 0
    while lines := list(islice(stream, _CHUNK)):
        objects = _json_objects(lines)
        if objects is None:
            yield None, _jsonl_rows(lines, start)
        else:
            columns = [list(map(dict.get, objects, repeat(name))) for name in COLUMNS]
            yield columns, zip(count(start + 1), zip(*columns))
        start += len(lines)


def _json_objects(lines: list[str]) -> list[dict] | None:
    """The decoded lines, when every one is a JSON object followed by nothing but JSON space; else None."""
    texts = list(map(str.rstrip, lines, repeat(_JSON_SPACE)))
    try:
        decoded = list(map(_scan_json, texts, repeat(0)))
    except (ValueError, RecursionError):
        return None
    # A blank line's StopIteration ends the map early; an object must end its line.
    if list(map(itemgetter(1), decoded)) != list(map(len, texts)):
        return None
    objects = list(map(itemgetter(0), decoded))
    return objects if set(map(type, objects)) == {dict} else None


def _jsonl_rows(lines: list[str], start: int):
    """The row loop's (line, values in COLUMNS order) per non-blank line of a chunk; an absent value is None."""
    for line_num, line in enumerate(lines, start=start + 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise IngestError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=line_num) from None
        if not isinstance(row, dict):
            raise IngestError("expected a JSON object per line", line=line_num)
        yield line_num, tuple(map(row.get, COLUMNS))


def _labels(cells: Sequence, typed: bool) -> Sequence[str] | None:
    """The str() of every cell, as the row loop reads a label; None when a cell is absent or empty."""
    if None in cells or "" in cells:
        return None
    return list(map(str, cells)) if typed else cells


def _numbers(cells: Sequence, typed: bool, kind: type) -> Sequence | None:
    """Every cell of the kind (int or float) as it is, or a str that kind() reads; else None.

    A count may also be a float, or a str that float() reads ("1e9"), when it is integral and below
    2**53: there a float holds every integer exactly, so int() of a cell that int() also reads agrees.
    """
    if typed and (kinds := set(map(type, cells))) != {str}:
        if kinds == {kind}:
            return cells
        if kind is float or kinds != {float}:
            return None
        values = cells
    else:
        try:
            return list(map(kind, cells))
        except ValueError:
            if kind is float:
                return None
        try:
            values = list(map(float, cells))
        except ValueError:
            return None
    return list(map(int, values)) if all(map(float.is_integer, values)) and max(map(abs, values)) < 2**53 else None


def _optional(cells: Sequence | None, n: int, default, convert, *args) -> Sequence | None:
    """An optional column: the default for an absent or empty cell, convert's value for any other; None if it fails."""
    gaps = n if cells is None else cells.count(None) + cells.count("")
    if not gaps:
        return convert(cells, *args)
    if gaps == n:
        return [default] * n
    values = convert([c for c in cells if c is not None and c != ""], *args)
    if values is None:
        return None
    values = iter(values)
    return [default if c is None or c == "" else next(values) for c in cells]


def _checked_columns(raw: list, typed: bool) -> tuple[Sequence[str], Columns] | None:
    """A chunk's family ids and columns through whole-column conversions and checks; None if they cannot take it.

    typed is False when every cell is a str (CSV). The checks accept only what the row loop accepts, and the
    conversions give what it gives. A gap, a value of another type (a JSON true count) and a broken
    value rule all send the chunk to the row loop, which names the first bad row.
    """
    family_id, model_id, params, tokens, total, seed, loss, flops, corpus = raw
    n = len(family_id)
    family_id = _labels(family_id, typed)
    columns = Columns(
        model_id=_labels(model_id, typed),
        seed=_optional(seed, n, 0, _numbers, typed, int),
        loss_corpus=_optional(corpus, n, None, _labels, typed),
        tokens_seen=_numbers(tokens, typed, int),
        num_params=_numbers(params, typed, int),
        total_tokens=_numbers(total, typed, int),
        loss=_numbers(loss, typed, float),
        flops=_optional(flops, n, None, _numbers, typed, float),
    )
    if family_id is None or None in columns:
        return None
    tokens, loss, flops = columns.tokens_seen, columns.loss, columns.flops
    if None in flops:
        flops = [f for f in flops if f is not None]
    if not (min(columns.num_params) > 0 and min(tokens) > 0 and min(columns.total_tokens) > 0
            and all(map(le, tokens, columns.total_tokens))
            and all(map(math.isfinite, loss)) and min(loss) > 0
            and (not flops or (all(map(math.isfinite, flops)) and min(flops) >= 0))):
        return None
    return family_id, columns


def _value(cell, check, field: str, line: int | None):
    """A cell read by specs' number rule (check_count or check_real); a refusal quotes the cell's str()."""
    try:
        return check(cell, field)
    except ValidationError:
        expected = "an integer" if check is check_count else "a number"
        raise IngestError(f"expected {expected}, got {str(cell)!r}", line=line, field=field) from None


def _checked_rows(rows) -> tuple[list[str], Columns]:
    """The row loop: each row converted and checked on its own; the first bad one raises with its line and field."""
    family_ids, columns = [], Columns(*([] for _ in Columns._fields))
    for line, (family_id, model_id, params, tokens, total, seed, loss, flops, corpus) in rows:
        if not (family_id and model_id and params and tokens and total and loss):  # a JSON 0 is no gap
            raw = (family_id, model_id, params, tokens, total, loss)
            field = next((f for f, value in zip(_REQUIRED, raw) if value in (None, "")), None)
            if field is not None:
                raise IngestError("missing required value", line=line, field=field)
        family_id, model_id = str(family_id), str(model_id)
        params = _value(params, check_count, "num_params", line)
        tokens = _value(tokens, check_count, "tokens_seen", line)
        total = _value(total, check_count, "total_tokens", line)
        loss = _value(loss, check_real, "loss", line)
        seed = 0 if seed in (None, "") else _value(seed, check_count, "seed", line)
        flops = None if flops in (None, "") else _value(flops, check_real, "flops", line)
        corpus = None if corpus in (None, "") else str(corpus)
        problem = _record_problem(model_id, params, tokens, total, loss, flops)
        if problem is not None:
            raise IngestError(problem, line=line)
        family_ids.append(family_id)
        columns.model_id.append(model_id)
        columns.seed.append(seed)
        columns.loss_corpus.append(corpus)
        columns.tokens_seen.append(tokens)
        columns.num_params.append(params)
        columns.total_tokens.append(total)
        columns.loss.append(loss)
        columns.flops.append(flops)
    return family_ids, columns


def _extend(by_family: dict[str, Columns], family_ids: Sequence[str], columns: Columns) -> None:
    """Append a chunk's rows to their families' columns, each family's rows in the order they were read."""
    n = len(family_ids)
    if family_ids.count(family_ids[0]) != n:  # mixed families: a stable sort puts each family's rows together
        order = sorted(range(n), key=family_ids.__getitem__)
        family_ids, columns = list(map(family_ids.__getitem__, order)), _select(columns, order)
    start = 0
    while start < n:
        family_id = family_ids[start]
        stop = bisect_right(family_ids, family_id, start)
        into = by_family.get(family_id)
        if into is None:
            into = by_family[family_id] = Columns(*([] for _ in Columns._fields))
        for column, values in zip(into, columns):
            column.extend(values[start:stop])
        start = stop


def ingest(source: str | Path | TextIO, fmt: str | None = None) -> list[ScaledFamily]:
    """Parse a CSV or JSONL log into validated scaled families.

    source is a path (a str is always a path) or a text stream, which is read as it is and
    left open. Without fmt a path's suffix decides (.jsonl, .ndjson and .json are JSONL) and
    anything else, a stream included, is CSV. Returns one family per distinct family_id,
    sorted by id; row order is irrelevant. A file that is not UTF-8 raises IngestError
    naming its first bad line; a UTF-8 byte-order mark at the start of a file is skipped.
    """
    path = Path(source) if isinstance(source, (str, Path)) else None
    if fmt is None:
        fmt = "jsonl" if path is not None and path.suffix.lower() in (".jsonl", ".ndjson", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format '{fmt}' (expected 'csv' or 'jsonl')")
    if path is None:
        return _parse(source, fmt)
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as handle:
            return _parse(handle, fmt)
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not UTF-8 text ({exc.reason})", line=_first_undecodable_line(path)) from None


def _first_undecodable_line(path: Path) -> int | None:
    """The number of the file's first line that is not UTF-8 (the decoder reads ahead, so its error cannot tell)."""
    with path.open("rb") as lines:
        for number, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


def _parse(stream: TextIO, fmt: str) -> list[ScaledFamily]:
    """One pass over the rows, a chunk at a time, appended to their families' columns; no record is built.

    A chunk goes through whole-column conversions and checks, or through the row loop when they cannot take it.
    """
    by_family: dict[str, Columns] = {}
    typed = fmt == "jsonl"
    for columns, rows in _jsonl_chunks(stream) if typed else _csv_chunks(stream):
        checked = None if columns is None else _checked_columns(columns, typed)
        family_ids, columns = checked or _checked_rows(rows)
        if family_ids:
            _extend(by_family, family_ids, columns)
    if not by_family:
        raise IngestError("input contains no data rows")
    return [ScaledFamily._of_columns(fid, _canonical(columns)) for fid, columns in sorted(by_family.items())]


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
    return zip(repeat(family.family_id), *family.columns)


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
    return ScaledFamily._of_columns(fid, _canonical(columns))
