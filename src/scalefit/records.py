"""Checkpoint-level training logs: records, scaled families, ingestion, serialization.

A record is one row of a log: one observed (family, model, #params, tokens-seen,
loss) point, a plain tuple over COLUMNS. A scaled family groups the rows that
share an architecture/data recipe and differ only in model size and tokens
consumed. Within a family, one training run (a "size family") is identified by
(model_id, seed). A family is built from a log by `ingest`, or from Python rows
by `ScaledFamily.from_records`; both send every row through one row loop,
`_checked_rows`, the one place that converts and checks a row. The CLI
reads a log through `_ingest_cached`, which keeps the result of ingesting a large
log on disk and gives it back while the log's bytes and the code stay the same.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import marshal
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

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


def _run_starts(*key: Sequence) -> list[int]:
    """The first row of every maximal block of rows with one value in each key column, in order."""
    changes = chain.from_iterable(compress(count(1), map(ne, column, islice(column, 1, None))) for column in key)
    return [0, *sorted(set(changes))] if key[0] else []


def _select(columns: Columns, rows: Sequence[int]) -> Columns:
    if len(rows) < 2:  # itemgetter returns a tuple only for two or more items
        return Columns(*(tuple(map(column.__getitem__, rows)) for column in columns))
    return Columns(*map(itemgetter(*rows), columns))


def _canonical(columns: Columns) -> Columns:
    """The columns in canonical order, stable by (model_id, seed, corpus or "", tokens_seen), with the first row of
    each checkpoint kept: the one canonical-order step of every family built from rows. A copy of a checkpoint
    whose values differ from the first raises ValidationError."""
    tokens = columns.tokens_seen
    keys = list(zip(columns.model_id, columns.seed, [c or "" for c in columns.loss_corpus], tokens))
    rows: list[int] = []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if not rows or keys[i] != keys[j := rows[-1]]:
            rows.append(i)
        elif any(column[i] != column[j] for column in columns):
            raise ValidationError(
                f"duplicate checkpoint ({columns.model_id[i]}, tokens_seen={tokens[i]}) "
                f"with conflicting values (loss {columns.loss[j]} vs {columns.loss[i]})"
            )
    return _select(columns, rows)


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

        A row ingest would refuse raises its IngestError without a line number, and so does a row whose length
        is not that of COLUMNS, naming its index; an empty corpus reads as untagged. A row of another family
        and a contradictory duplicate raise ValidationError, and an identical duplicate is dropped.
        """
        by_family = _checked_rows(map(_sized, count(), records))
        for stranger, columns in by_family.items():  # in the order of their first rows: the first stranger leads
            if stranger != family_id:
                raise ValidationError(
                    f"record {columns.model_id[0]} has family_id '{stranger}', expected '{family_id}'"
                )
        columns = by_family.get(family_id) or Columns(*[()] * len(Columns._fields))
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
        """The number of training runs: canonical rows keep each run together, so each is one block of rows."""
        return len(_run_starts(self.columns.model_id, self.columns.seed))

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


def check_one_corpus(family: ScaledFamily, command: str) -> None:
    """Raise ValidationError, under command's name, when the family's rows come from more than one held-out corpus:
    a fit or a score of such a family pools losses that were measured on different data."""
    if len(family.corpora) > 1:
        raise ValidationError(
            f"{command}: family '{family.family_id}' mixes corpora {family.corpora}; select one with select_corpus"
        )


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

_REQUIRED = ("family_id", "model_id", "num_params", "tokens_seen", "total_tokens", "loss")


def _csv_rows(stream: TextIO):
    """The row loop's (line, cells in COLUMNS order) per non-blank row, from one csv.reader over the stream.

    Each row is numbered by the physical line it ends on. A column the header lacks is None; a short row is
    padded with empty cells and a long row's extra cells are unread. The rows read before a malformed one are
    yielded before its IngestError.
    """
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
            if row:  # blank lines are skipped
                if len(row) != width:  # extra cells are ignored, missing ones are empty
                    row = row[:width] if len(row) > width else row + [None] * (width - len(row))
                row.append(None)  # the cell of every optional column the header lacks
                yield reader.line_num, cells(row)
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}", line=reader.line_num) from None


def _jsonl_rows(stream: TextIO):
    """The row loop's (line, values in COLUMNS order, an absent one None) per non-blank line; a bad line raises."""
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


def _sized(index: int, row: Sequence) -> tuple[None, Sequence]:
    """from_records' row for the row loop, without a line; a row of another length than COLUMNS raises."""
    if len(row) != len(COLUMNS):
        raise IngestError(f"record {index} has {len(row)} fields, expected {len(COLUMNS)}")
    return None, row


def _checked_rows(rows) -> dict[str, Columns]:
    """The row loop: each (line, row over COLUMNS) converted, checked and appended to its family's columns.

    Families come in the order of their first rows, each one's rows in the order they were read. The first
    bad row raises with its line and field.
    """
    by_family: dict[str, Columns] = {}
    for line, (family_id, model_id, params, tokens, total, seed, loss, flops, corpus) in rows:
        if not (family_id and model_id and params and tokens and total and loss):  # a JSON 0 is no gap
            raw = (family_id, model_id, params, tokens, total, loss)
            field = next((f for f, value in zip(_REQUIRED, raw) if value in (None, "")), None)
            if field is not None:
                raise IngestError("missing required value", line=line, field=field)
        family_id, model_id = str(family_id), str(model_id)
        try:
            params = check_count(params, "num_params")
            tokens = check_count(tokens, "tokens_seen")
            total = check_count(total, "total_tokens")
            loss = check_real(loss, "loss")
            seed = 0 if seed in (None, "") else check_count(seed, "seed")
            flops = None if flops in (None, "") else check_real(flops, "flops")
        except ValidationError:  # read the cells again, in order, to name the first bad one
            for cell, check, field in ((params, check_count, "num_params"), (tokens, check_count, "tokens_seen"),
                                       (total, check_count, "total_tokens"), (loss, check_real, "loss"),
                                       (seed, check_count, "seed"), (flops, check_real, "flops")):
                try:
                    if cell not in (None, ""):
                        check(cell, field)
                except ValidationError:
                    expected = "an integer" if check is check_count else "a number"
                    raise IngestError(f"expected {expected}, got {str(cell)!r}", line=line, field=field) from None
            raise
        problem = _record_problem(model_id, params, tokens, total, loss, flops)
        if problem is not None:
            raise IngestError(problem, line=line)
        columns = by_family.get(family_id)
        if columns is None:
            columns = by_family[family_id] = Columns(*([] for _ in Columns._fields))
        columns.model_id.append(model_id)
        columns.num_params.append(params)
        columns.tokens_seen.append(tokens)
        columns.total_tokens.append(total)
        columns.seed.append(seed)
        columns.loss.append(loss)
        columns.flops.append(flops)
        columns.loss_corpus.append(None if corpus in (None, "") else str(corpus))
    return by_family


def ingest(source: str | Path | TextIO, fmt: str | None = None) -> list[ScaledFamily]:
    """Parse a CSV or JSONL log into validated scaled families.

    source is a path (a str is always a path) or a text stream, which is read as it is and
    left open. Without fmt a path's suffix decides (.jsonl, .ndjson and .json are JSONL) and
    anything else, a stream included, is CSV. Returns one family per distinct family_id,
    sorted by id; row order is irrelevant. A file that is not UTF-8 raises IngestError
    naming its first bad line; a UTF-8 byte-order mark at the start of a file is skipped.
    """
    path = Path(source) if isinstance(source, (str, Path)) else None
    fmt = _format(path, fmt)
    if path is None:
        return _parse(source, fmt)
    return _parse_binary(partial(path.open, "rb"), fmt)


def _format(path: Path | None, fmt: str | None) -> str:
    """The format ingest reads: fmt, or without it the path's suffix ("csv" for no path); an unknown one raises."""
    if fmt is None:
        fmt = "jsonl" if path is not None and path.suffix.lower() in (".jsonl", ".ndjson", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format '{fmt}' (expected 'csv' or 'jsonl')")
    return fmt


def _parse_binary(open_binary: Callable[[], BinaryIO], fmt: str) -> list[ScaledFamily]:
    """_parse of the UTF-8 text of the binary stream open_binary() gives, a byte-order mark at its start skipped.

    Bytes that are not UTF-8 raise IngestError naming their line, which a second stream from open_binary reads.
    """
    try:
        with open_binary() as binary, io.TextIOWrapper(binary, encoding="utf-8-sig", newline="") as text:
            return _parse(text, fmt)
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not UTF-8 text ({exc.reason})", line=_first_undecodable_line(open_binary)) from None


def _first_undecodable_line(open_binary: Callable[[], BinaryIO]) -> int | None:
    """The number of the stream's first line that is not UTF-8 (the decoder reads ahead, so its error cannot tell)."""
    with open_binary() as lines:
        for number, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


# A log this size or larger goes through the CLI's ingest cache; a smaller one parses in under ~20 ms, less than
# hashing it and writing an entry would cost.
_CACHE_MIN_BYTES = 1 << 20
# The modules whose rules decide what an ingest returns: their source is part of every cache key.
_KEYED_SOURCES = (Path(__file__), Path(__file__).with_name("specs.py"))
_HASH_BLOCK = 1 << 16  # bytes of the log hashed at a time


def _ingest_cached(path: Path, fmt: str | None = None, family: str | None = None) -> list[ScaledFamily]:
    """ingest(path, fmt), or only its family whose id is family, read from an on-disk entry of an earlier ingest of
    the same bytes when there is one; a family the log does not hold raises (_named).

    Only a file of at least _CACHE_MIN_BYTES is cached. Its entry, one per resolved path and format, lives
    under $XDG_CACHE_HOME/scalefit (else ~/.cache/scalefit). It starts with a header, the key and the resolved
    path, and the number of families of the last successful parse; then comes each family's id, the byte length
    of its columns and its columns' marshal bytes. The key is the sha256 of the format, _KEYED_SOURCES, the
    interpreter's version and the log's bytes, which are read in blocks and never held whole. A header that
    differs, or an entry whose families do not read, is a miss: the whole log is parsed from its path, so every
    error comes from a parse, and the whole entry is written. The entry is rewritten only if the log's size and
    modification time are still those read before it was hashed, and then every other entry whose log path is
    gone or whose header does not read is removed. A hit reads only its own entry, and with a family only that
    family's columns (_stored_families). A cache that cannot be read or written leaves ingest's result as it is.
    """
    fmt = _format(path, fmt)
    try:
        stat = path.stat()
    except OSError:
        return _named(ingest(path, fmt), family)
    directory = None if stat.st_size < _CACHE_MIN_BYTES else _cache_directory()
    if directory is None:
        return _named(ingest(path, fmt), family)
    import hashlib

    digest = hashlib.sha256()
    try:
        where = os.fsencode(path.resolve())
        for part in (fmt.encode(), *(source.read_bytes() for source in _KEYED_SOURCES),
                     sys.version.encode(), str(marshal.version).encode()):
            digest.update(len(part).to_bytes(8, "big"))  # each part's length first, so no two keys hash alike
            digest.update(part)
        with path.open("rb") as log:  # the log last, so it needs no length
            for block in iter(partial(log.read, _HASH_BLOCK), b""):
                digest.update(block)
    except OSError:
        return _named(ingest(path, fmt), family)
    header, name = (digest.digest(), where), hashlib.sha256(where + b"\0" + fmt.encode()).hexdigest()
    entry = directory / f"{name}.marshal"
    hit = False
    try:
        with entry.open("rb") as stored:
            hit = marshal.load(stored) == header
            if hit:
                families, ids = _stored_families(marshal.load(stored), stored, family)
    except (OSError, EOFError, ValueError, TypeError):
        hit = False  # a broken entry is a miss like any other
    if hit:
        return _named(families, family, ids)
    families = ingest(path, fmt)
    try:
        after = path.stat()
        # A log that changed since it was hashed may not hold the bytes that were parsed: it gets no entry.
        if (after.st_size, after.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns):
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            _write_atomic(entry, _entry_pieces(header, families))
            for other in directory.glob("*.marshal"):
                if other != entry and not _names_a_log(other):
                    with contextlib.suppress(OSError):
                        other.unlink()
    except OSError:
        pass  # an entry only saves a later parse: the command goes on with the families it has
    return _named(families, family)


def _named(families: list[ScaledFamily], family: str | None, ids: Iterable[str] | None = None) -> list[ScaledFamily]:
    """The families, or only the one whose id is family; a family that is not among ids (by default the families'
    own ids) raises ValidationError naming them."""
    if family is None:
        return families
    kept = [f for f in families if f.family_id == family]
    if not kept:
        have = ", ".join(f.family_id for f in families) if ids is None else ", ".join(ids)
        raise ValidationError(f"family '{family}' not in input (have: {have})")
    return kept


def _cache_directory() -> Path | None:
    """$XDG_CACHE_HOME/scalefit, or ~/.cache/scalefit when that is unset, empty or relative; None without a HOME."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.environ.get("HOME")
        if not home:
            return None
        base = os.path.join(home, ".cache")
    return Path(base, "scalefit")


def _entry_pieces(header: tuple, families: list[ScaledFamily]) -> Iterator[bytes]:
    """An entry a piece at a time: the header and the number of families, then each family's id, the 8-byte length
    of its columns' marshal bytes and those bytes. So no more than one family's bytes are held while it is written."""
    yield marshal.dumps(header) + marshal.dumps(len(families))
    for family in families:
        piece = marshal.dumps(tuple(family.columns))
        yield marshal.dumps(family.family_id) + len(piece).to_bytes(8, "big")
        yield piece


def _stored_families(count, stored: BinaryIO, family: str | None = None) -> tuple[list[ScaledFamily], list[str]]:
    """The families of an open entry after its count, or only the one whose id is family, and every family's id.

    Every id must be a str, and the count, the ids and the byte lengths must account for exactly the entry's
    size; each family that is decoded must have a tuple of tuples for columns. A misshapen entry raises
    EOFError, ValueError or TypeError. Another family's columns are skipped with a seek and never decoded, so
    nothing reads them; such a family is never returned. A family's bytes are decoded at once: marshal.load()
    would read a file value by value.
    """
    families, ids, size = [], [], os.fstat(stored.fileno()).st_size
    for _ in range(count):
        family_id, head = marshal.load(stored), stored.read(8)
        length = int.from_bytes(head, "big")
        if type(family_id) is not str or len(head) != 8 or stored.tell() + length > size:
            raise ValueError("misshapen cache entry")
        ids.append(family_id)
        if family is not None and family_id != family:
            stored.seek(length, os.SEEK_CUR)
            continue
        columns = marshal.loads(stored.read(length))  # whole: the length was checked against the entry's size
        if type(columns) is not tuple or not all(type(column) is tuple for column in columns):
            raise ValueError("misshapen cache entry")
        families.append(ScaledFamily._of_columns(family_id, Columns(*columns)))
    if stored.tell() != size:
        raise ValueError("misshapen cache entry")
    return families, ids


def _names_a_log(entry: Path) -> bool:
    """Whether an entry's header reads and names a log path that exists."""
    try:
        with entry.open("rb") as stored:
            _, where = marshal.load(stored)
        return os.path.exists(where)
    except (OSError, EOFError, ValueError, TypeError):
        return False


def _write_atomic(path: Path, pieces: Iterable[bytes]) -> None:
    """Write a file whole from its pieces, through a temporary file beside it and a rename; a failed step leaves
    no temporary file."""
    import tempfile

    fd, temporary = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def _parse(stream: TextIO, fmt: str) -> list[ScaledFamily]:
    """One pass over the rows through the row loop, each appended to its family's columns; no record is built."""
    by_family = _checked_rows(_jsonl_rows(stream) if fmt == "jsonl" else _csv_rows(stream))
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
