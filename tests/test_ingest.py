"""The columnar ingest against the row-at-a-time parse it replaced.

`reference_ingest` keeps that older algorithm as an oracle: csv.DictReader or
one json.loads per line, one CheckpointRecord per row, checked by value rules
stated here rather than taken from scalefit, then a sort and a duplicate sweep
over the records. On random CSV and JSONL documents, ingest must return equal
families or raise the same exception with the same message.
"""

import contextlib
import csv
import io
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import random_family
from scalefit import CheckpointRecord, IngestError, ScaledFamily, ValidationError, family_summary, ingest
from scalefit.cli import main
from scalefit.records import COLUMNS

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

REQUIRED = ("family_id", "model_id", "num_params", "tokens_seen", "total_tokens", "loss")


def _int(value: str, field: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        as_float = float(value)
    except ValueError:
        raise IngestError(f"expected an integer, got {value!r}", line=line, field=field) from None
    if not math.isfinite(as_float) or as_float != int(as_float):
        raise IngestError(f"expected an integer, got {value!r}", line=line, field=field)
    return int(as_float)


def _float(value: str, field: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise IngestError(f"expected a number, got {value!r}", line=line, field=field) from None


def _record(row: dict, line: int) -> CheckpointRecord:
    for field in REQUIRED:  # a label, like every required value, is non-empty
        if row.get(field) in (None, ""):
            raise IngestError("missing required value", line=line, field=field)
    seed, flops, corpus = row.get("seed"), row.get("flops"), row.get("loss_corpus")
    rec = CheckpointRecord(
        family_id=str(row["family_id"]),
        model_id=str(row["model_id"]),
        num_params=_int(str(row["num_params"]), "num_params", line),
        tokens_seen=_int(str(row["tokens_seen"]), "tokens_seen", line),
        total_tokens=_int(str(row["total_tokens"]), "total_tokens", line),
        loss=_float(str(row["loss"]), "loss", line),
        seed=_int(str(seed), "seed", line) if seed not in (None, "") else 0,
        flops=_float(str(flops), "flops", line) if flops not in (None, "") else None,
        loss_corpus=str(corpus) if corpus not in (None, "") else None,
    )
    problem = _value_problem(rec)
    if problem is not None:
        raise IngestError(f"record ({rec.model_id}, tokens_seen={rec.tokens_seen}): {problem}", line=line)
    return rec


def _value_problem(rec: CheckpointRecord) -> str | None:
    """The first value rule a record breaks, worded as ingest words it; None when it keeps them all."""
    for name in ("num_params", "tokens_seen", "total_tokens"):
        if getattr(rec, name) <= 0:
            return f"{name} must be positive, got {getattr(rec, name)}"
    if rec.tokens_seen > rec.total_tokens:
        return f"tokens_seen {rec.tokens_seen} exceeds total_tokens {rec.total_tokens}"
    if not (math.isfinite(rec.loss) and rec.loss > 0):
        return f"loss must be positive and finite, got {rec.loss}"
    if rec.flops is not None and not (math.isfinite(rec.flops) and rec.flops >= 0):
        return f"flops must be nonnegative, got {rec.flops}"
    return None


def _rows(text: str, fmt: str, newline: str):
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text, newline=newline))
        try:
            reader.fieldnames
        except csv.Error as exc:
            raise IngestError(f"malformed CSV: {exc}", line=reader.reader.line_num) from exc
        if reader.fieldnames is None:
            raise IngestError("empty input: no header row", line=1)
        missing = [c for c in REQUIRED if c not in reader.fieldnames]
        if missing:
            raise IngestError(f"header missing required columns: {', '.join(missing)}", line=1)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise IngestError(f"malformed CSV: {exc}", line=reader.reader.line_num) from exc
        return
    for line_num, line in enumerate(io.StringIO(text, newline=newline), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON: {exc.msg}", line=line_num) from exc
        if not isinstance(row, dict):
            raise IngestError("expected a JSON object per line", line=line_num)
        yield line_num, row


def _family(family_id: str, records: list[CheckpointRecord]) -> ScaledFamily:
    seen, kept = {}, []
    for rec in sorted(records, key=lambda r: (r.model_id, r.seed, r.loss_corpus or "", r.tokens_seen)):
        key = (rec.model_id, rec.seed, rec.loss_corpus, rec.tokens_seen)
        prior = seen.setdefault(key, rec)
        if prior is rec:
            kept.append(rec)
        elif prior != rec:
            raise ValidationError(
                f"duplicate checkpoint ({rec.model_id}, tokens_seen={rec.tokens_seen}) "
                f"with conflicting values (loss {prior.loss} vs {rec.loss})"
            )
    return ScaledFamily.from_records(family_id, kept)


def reference_ingest(text: str, fmt: str, newline: str = "\n") -> list[ScaledFamily]:
    by_family: dict[str, list[CheckpointRecord]] = {}
    for line, row in _rows(text, fmt, newline):
        rec = _record(row, line)
        by_family.setdefault(rec.family_id, []).append(rec)
    if not by_family:
        raise IngestError("input contains no data rows")
    return [_family(fid, recs) for fid, recs in sorted(by_family.items())]


def outcome(parse, text: str, fmt: str, newline: str = "\n"):
    """The families as records, or the exception's type and message. newline is the stream's newline mode:
    "\n" ends a line only at a line feed, "" also at a lone carriage return (as ingest opens a path).
    """
    try:
        if parse is reference_ingest:
            families = reference_ingest(text, fmt, newline)
        else:
            families = parse(io.StringIO(text, newline=newline), fmt)
    except ValidationError as exc:
        return type(exc), str(exc)
    return [(f.family_id, f.records) for f in families]


# Few distinct values per column, so duplicates (identical and conflicting) and several families occur.
GOOD = {
    "family_id": ["a", "b", "c"],
    "model_id": ["m1", "m2"],
    "num_params": ["100", "1e3", "2000"],
    "tokens_seen": ["1", "2", "3"],
    "total_tokens": ["3", "5", "1e1"],
    "seed": ["", "0", "1"],
    "loss": ["2.5", "3", "0.75"],
    "flops": ["", "1e18", "0"],
    "loss_corpus": ["", "", "pile"],
    "notes": ["x", ""],
}
# Values a fit can use: one family, five sizes, so some documents reach the solver.
FITTABLE = {
    **GOOD,
    "family_id": ["a"],
    "model_id": ["m1", "m2", "m3", "m4", "m5"],
    "num_params": ["1e7", "2e7", "5e7", "1e8", "3e8"],
    "tokens_seen": [str(k * 10**7) for k in range(1, 61)],
    "total_tokens": ["1e9"],
    "loss": ["3.1", "2.9", "2.7", "4.0", "3.5", "2.2"],
    "loss_corpus": [""],
}
ODD = ["", "nan", "inf", "-inf", "1e400", "1.5", "-1", "0", "-0.0", "true", "False", "x", "ü", " 7 ", "1_0", "٣"]


def cell(name: str, good: dict, odd: bool = True):
    return st.sampled_from(good[name] * 6 + ODD if odd else good[name])


LONG_CELL = "x" * 131_073  # past the csv module's field limit, so the reader raises
# Cells that take a document off the split path (a quote, a multi-line cell, a NUL, a field past the limit,
# a 70,000-character cell, two of which make a line past it), so the reader reads it from that line on;
# NUL_CELL is written in after the csv writer, which rejects a NUL before Python 3.11.
NUL_CELL = "nul\0cell"
SPECIAL = ['say "hi"', "a,b", "two\nlines", "cr\rcell", NUL_CELL, LONG_CELL, "y" * 70_000]


@st.composite
def csv_documents(draw, good=GOOD, max_rows=12, odd=True) -> str:
    """A CSV log: a shuffled header and rows of good (and, with odd, bad) cells.

    Every document may end its lines with LF or CRLF, leave off each row's trailing empty cells and
    hold up to two SPECIAL cells (without odd, only in columns that take any text). With odd, a row may
    also be one cell short or long, and lines may end with a lone CR.
    """
    names = list(draw(st.permutations(COLUMNS)))
    for _ in range(draw(st.integers(0, 2))):  # drop, repeat or add a column
        action = draw(st.sampled_from(["drop", "repeat", "notes"]))
        if action == "drop" and names:
            names.pop(draw(st.integers(0, len(names) - 1)))
        elif action == "repeat" and names:
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        else:
            names.insert(draw(st.integers(0, len(names))), "notes")
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])  # a blank line
            continue
        row = [draw(cell(name, good, odd)) for name in names]
        cut = draw(st.sampled_from([len(row)] * 8 + [len(row) - 1, len(row) + 1, 1])) if odd else len(row)
        rows.append(row[:cut] if cut <= len(row) else row + ["extra"])
    full = [row for row in rows if row]
    labels = [i for i, name in enumerate(names) if name in ("family_id", "model_id", "loss_corpus", "notes")]
    for _ in range(draw(st.integers(0, 2)) if full else 0):
        row = draw(st.sampled_from(full))
        columns = range(len(row)) if odd else [i for i in labels if i < len(row)]  # a label takes any text
        if columns:
            row[draw(st.sampled_from(columns))] = draw(st.sampled_from(SPECIAL))
    if draw(st.booleans()):  # a writer that leaves off trailing empty cells
        for row in full:
            while len(row) > 1 and row[-1] == "":
                row.pop()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"] if odd else ["\n", "\r\n"])))
    writer.writerow(names)
    writer.writerows([c.replace(NUL_CELL, "NUL_CELL") for c in row] for row in rows)
    return out.getvalue().replace("NUL_CELL", NUL_CELL)


json_values = st.one_of(
    st.sampled_from(ODD),
    st.sampled_from([None, True, False, 0, 1, 3, -1, 100, 10**30, 1.5, 1e9, 2.0, 0.75, -0.0, float("nan"),
                     float("inf"), [], {"k": 1}]),
)


@st.composite
def jsonl_documents(draw, good=GOOD, max_rows=12, odd=True) -> str:
    lines = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.integers(0, 19)) if odd else 19
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "not json", "[1, 2]", "{", "3"])))
            continue
        row = {name: draw(cell(name, good, odd) if kind > 2 else json_values) for name in COLUMNS}
        for name in draw(st.lists(st.sampled_from(COLUMNS), max_size=int(odd))):
            row[name] = draw(json_values)
        if kind > 10:  # the native form a JSON writer gives counts and losses
            for name in ("num_params", "tokens_seen", "total_tokens", "seed", "loss"):
                try:
                    row[name] = json.loads(row[name])
                except (ValueError, TypeError):
                    pass
        for name in draw(st.lists(st.sampled_from(COLUMNS), max_size=2 * odd)):
            row.pop(name, None)
        lines.append(json.dumps(row))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(csv_documents(), csv_documents(odd=False)), newline=st.sampled_from(["\n", ""]))
def test_csv_ingest_matches_the_row_at_a_time_parse(text, newline):
    assert outcome(ingest, text, "csv", newline) == outcome(reference_ingest, text, "csv", newline)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(jsonl_documents(), jsonl_documents(odd=False)))
def test_jsonl_ingest_matches_the_row_at_a_time_parse(text):
    assert outcome(ingest, text, "jsonl") == outcome(reference_ingest, text, "jsonl")


# ---------------------------------------------------------------------------
# The rules the property tests draw from, one case each
# ---------------------------------------------------------------------------

HEADER = "family_id,model_id,num_params,tokens_seen,total_tokens,loss"


@pytest.mark.parametrize(
    "text, fmt",
    [
        pytest.param(f"{HEADER}\na,m,100,1,2,3.0\n\n\na,m,100,x,2,3.0\n", "csv", id="blank-lines-keep-physical-lines"),
        pytest.param(f"{HEADER},loss\na,m,100,1,2,3.0,2.5\n", "csv", id="repeated-header-last-wins"),
        pytest.param(f"{HEADER},loss\na,m,100,1,2,3.0\n", "csv", id="repeated-header-short-row-is-empty"),
        pytest.param(f"{HEADER}\na,m,100,1,2,3.0,extra,more\n", "csv", id="long-row"),
        pytest.param(f"{HEADER}\na,m,100,1\n", "csv", id="short-row"),
        pytest.param(f"{HEADER}\n1,1,1,1,1,1,1\n1,1,1,2,2,1\n", "csv", id="long-row-beside-a-full-row"),
        pytest.param(f'{HEADER},seed\n"a",m,100,1,2,3.0,1\na,m,100,2,2,3.0\n', "csv", id="quoted-chunk-with-a-short-row"),
        pytest.param(f"{HEADER}\na,m,100,3,2,-1\n", "csv", id="value-rules-in-order"),
        pytest.param(f"{HEADER},seed,flops\na,m,100,1,2,3.0,,x\n", "csv", id="empty-seed-then-bad-flops"),
        pytest.param('{"family_id": "a", "model_id": "m", "num_params": 100, "tokens_seen": 1, '
                     '"total_tokens": 2, "loss": 3, "seed": null, "flops": "x"}\n', "jsonl",
                     id="null-seed-then-bad-flops"),
        pytest.param(f"{HEADER}\nb,m,100,1,2,3.0\na,m,100,1,2,3.0\na,m,100,1,2,2.5\nb,m,100,1,2,2.0\n", "csv",
                     id="first-conflict-in-family-order"),
        pytest.param('{"family_id": "a", "model_id": "m", "num_params": 1e9, "tokens_seen": 1, '
                     '"total_tokens": 2, "loss": 3}\n', "jsonl", id="json-float-count"),
        pytest.param('{"family_id": "a", "model_id": "m", "num_params": true, "tokens_seen": 1, '
                     '"total_tokens": 2, "loss": 3}\n', "jsonl", id="json-bool-count"),
        pytest.param('{"family_id": "a", "model_id": "m", "num_params": 100, "tokens_seen": 1.5, '
                     '"total_tokens": 2, "loss": 3}\n', "jsonl", id="json-fractional-count"),
        pytest.param('{"family_id": 7, "model_id": "m", "num_params": 0, "tokens_seen": 1, '
                     '"total_tokens": 2, "loss": 3, "seed": 0, "flops": 0}\n', "jsonl", id="json-zeros-are-values"),
        pytest.param('{"family_id": "a", "model_id": "m", "num_params": 100, "tokens_seen": 1, '
                     '"total_tokens": 2, "loss": 3, "seed": false}\n', "jsonl", id="json-false-seed"),
        pytest.param('{"family_id": "a", "model_id": "m", "num_params": 100, "tokens_seen": 1, '
                     '"total_tokens": 2, "loss": 3, "flops": 0}\n', "jsonl", id="json-zero-flops"),
    ],
)
def test_ingest_rule_matches_the_row_at_a_time_parse(text, fmt):
    assert outcome(ingest, text, fmt) == outcome(reference_ingest, text, fmt)


# ---------------------------------------------------------------------------
# Logs of many rows: errors after good rows, duplicates and families spread through the log
# ---------------------------------------------------------------------------


def jsonl_line(family_id="a", model_id="m", num_params=100, tokens_seen=1, total_tokens=2, loss=3.0, **extra):
    return json.dumps(dict(family_id=family_id, model_id=model_id, num_params=num_params, tokens_seen=tokens_seen,
                           total_tokens=total_tokens, loss=loss, **extra)) + "\n"


def checkpoints(families=("a", "b"), models=3, tokens=4):
    """CSV lines of a canonically ordered log: every family, model and token count once."""
    return [f"{f},m{m},{100 * (m + 1)},{t + 1},{tokens},{2 + 1 / (t + 1)}\n"
            for f in families for m in range(models) for t in range(tokens)]


SORTED = checkpoints()
SHUFFLED = [SORTED[i] for i in (5, 17, 0, 22, 9, 3, 14, 21, 1, 11, 8, 19, 6, 2, 23, 12, 16, 4, 10, 20, 7, 15, 18, 13)]


@pytest.mark.parametrize(
    "text, fmt, error",
    [
        pytest.param(jsonl_line() + jsonl_line(loss=-1.0) + jsonl_line(tokens_seen=2) + "{\n", "jsonl",
                     "line 2: record (m, tokens_seen=1): loss", id="value-error-before-invalid-json"),
        pytest.param(jsonl_line() + jsonl_line(num_params="x") + jsonl_line(tokens_seen=2) + "[1, 2]\n", "jsonl",
                     "line 2: field 'num_params'", id="value-error-before-a-non-object-line"),
        pytest.param(jsonl_line() + jsonl_line(tokens_seen=2) + "\n" + "{\n", "jsonl",
                     "line 4: invalid JSON", id="invalid-json-after-good-lines"),
        pytest.param(f"{HEADER},notes\na,m,100,1,2,3.0,\na,m,100,1,2,-3.0,\na,m,100,2,2,3.0,\n"
                     f'a,m,100,3,2,3.0,"{LONG_CELL}"\n', "csv",
                     "line 3: record (m, tokens_seen=1): loss", id="value-error-before-malformed-csv"),
        pytest.param(f"{HEADER},notes\na,m,100,1,2,3.0,\na,m,100,2,2,3.0,\n\na,m,100,2,2,3.0,\n"
                     f'a,m,100,3,2,3.0,"{LONG_CELL}"\n', "csv",
                     "line 6: malformed CSV", id="malformed-csv-after-good-rows"),
        pytest.param(f'{HEADER},notes\na,m,100,1,9,3.0,"one\ntwo"\na,m,100,2,9,3.0,"three\n\nfour"\n'
                     f"a,m,100,3,9,3.0,\na,m,100,x,9,3.0,\n", "csv",
                     "line 8: field 'tokens_seen'", id="multi-line-cells-keep-physical-lines"),
        pytest.param(f"{HEADER}\n" + "".join(SORTED), "csv", None, id="sorted-log"),
        pytest.param(f"{HEADER}\n" + "".join(SHUFFLED), "csv", None, id="shuffled-log"),
        pytest.param(f"{HEADER}\n" + "".join(SORTED[:3] + SORTED[2:4] + SORTED[3:]), "csv", None,
                     id="identical-duplicates-side-by-side"),
        pytest.param(f"{HEADER}\n" + "".join(SHUFFLED[:5] + [SHUFFLED[0]] + SHUFFLED[5:] + [SHUFFLED[5]]), "csv",
                     None, id="shuffled-identical-duplicates"),
        pytest.param(f"{HEADER}\n" + "".join(SORTED[:3] + ["a,m0,100,3,4,9.5\n"] + SORTED[3:]), "csv",
                     "duplicate checkpoint (m0, tokens_seen=3) with conflicting values",
                     id="conflicting-duplicate-side-by-side"),
        pytest.param(f"{HEADER}\n" + "".join(SHUFFLED[:4] + ["b,m2,300,2,4,9.5\n"] + SHUFFLED[4:]), "csv",
                     "duplicate checkpoint (m2, tokens_seen=2) with conflicting values",
                     id="shuffled-conflicting-duplicate"),
        pytest.param(f"{HEADER},seed\n" + "".join(f"{'abc'[i % 3]},m{i % 2},100,{i + 1},99,{3 - i / 50},{i % 2}\n"
                                                  for i in range(12)), "csv", None, id="interleaved-families"),
        pytest.param("".join(jsonl_line(family_id="ab"[i % 2], model_id="m", tokens_seen=i // 2 + 1, total_tokens=9,
                                        seed=i % 3) for i in range(10)), "jsonl", None,
                     id="interleaved-jsonl-families"),
        pytest.param(f"{HEADER},flops,seed,loss_corpus\n" + "".join(
            f"{'ab'[i % 2]},m,100,{i + 1},9,2.5" + (f",1e18,{i % 3},pile\n" if i % 3 else ",,,\n") for i in range(9)),
            "csv", None, id="optional-cells-partly-empty"),
        pytest.param("".join(jsonl_line(family_id="ab"[i % 2], num_params=100.0, tokens_seen=float(i + 1),
                                        total_tokens=9.0) for i in range(4)) + jsonl_line(num_params=1.5)
                     + jsonl_line("b", tokens_seen=5.0), "jsonl", "line 5: field 'num_params'",
                     id="json-float-counts"),
    ],
)
def test_a_log_of_many_rows_keeps_the_row_at_a_time_outcome(text, fmt, error):
    got = outcome(ingest, text, fmt)
    assert got == outcome(reference_ingest, text, fmt)
    if error is None:
        assert isinstance(got, list) and len(got) > 1
    else:
        assert got[0] in (IngestError, ValidationError) and error in got[1]


def test_a_long_shuffled_log_matches_the_row_at_a_time_parse():
    rng = random.Random(5)
    lines = checkpoints(families=("a", "b", "c"), models=5, tokens=200)  # 3,000 rows
    rng.shuffle(lines)
    lines[127:127] = [lines[128]]  # an identical duplicate beside its original
    text = f"{HEADER}\n" + "".join(lines)
    families = outcome(ingest, text, "csv")
    assert families == outcome(reference_ingest, text, "csv") and len(families) == 3
    clash = lines[256].rsplit(",", 1)[0] + ",9.5\n"  # a conflicting duplicate 128 rows before its original
    text = f"{HEADER}\n" + "".join(lines[:128] + [clash] + lines[128:])
    assert outcome(ingest, text, "csv")[1].startswith("duplicate checkpoint")
    assert outcome(ingest, text, "csv") == outcome(reference_ingest, text, "csv")


# ---------------------------------------------------------------------------
# Run blocks: a log that writes each run's checkpoints together is ordered by its blocks
# ---------------------------------------------------------------------------

BLOCK_HEADER = "family_id,model_id,num_params,tokens_seen,total_tokens,seed,loss,flops,loss_corpus"


def block_line(family_id, model_id, seed, corpus, tokens, loss=None, fmt="csv"):
    loss = 2 + 1 / tokens if loss is None else loss
    params = 100 * int(model_id[1:])
    if fmt == "jsonl":
        return jsonl_line(family_id, model_id, params, tokens, 99, loss, seed=seed, loss_corpus=corpus)
    return f"{family_id},{model_id},{params},{tokens},99,{seed},{loss},,{corpus}\n"


@st.composite
def block_logs(draw):
    """(text, fmt): a log written a run at a time, each run's tokens rising, the runs in any order.

    It may interleave two runs, write one run in two blocks, or repeat a row, identical or not, inside its
    block or at the end of the log.
    """
    keys = draw(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from(["m1", "m10", "m2"]), st.integers(0, 1),
                                   st.sampled_from(["", "pile"])), min_size=1, max_size=6, unique=True))
    blocks = [[(*key, t) for t in sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=5)))] for key in keys]
    blocks = draw(st.permutations(blocks))
    change = draw(st.sampled_from(["none", "none", "interleave", "split", "repeat-inside", "repeat-at-end"]))
    rows = [row + (None,) for block in blocks for row in block]
    if change == "interleave" and len(blocks) > 1:
        first, second = blocks[0], blocks[1]
        mixed = [row for pair in zip(first, second) for row in pair] + first[len(second):] + second[len(first):]
        rows = [row + (None,) for row in mixed + [r for block in blocks[2:] for r in block]]
    elif change == "split" and len(blocks[0]) > 1:
        rows = rows[1:] + rows[:1]
    elif change.startswith("repeat"):
        i = draw(st.integers(0, len(rows) - 1))
        repeated = rows[i][:5] + (draw(st.sampled_from([None, 9.5])),)
        rows.insert(i + 1 if change == "repeat-inside" else len(rows), repeated)
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    lines = [block_line(*row, fmt=fmt) for row in rows]
    return (BLOCK_HEADER + "\n" if fmt == "csv" else "") + "".join(lines), fmt


@settings(max_examples=200, deadline=None)
@given(log=block_logs())
def test_run_blocks_in_any_order_match_the_row_at_a_time_parse(log):
    text, fmt = log
    assert outcome(ingest, text, fmt) == outcome(reference_ingest, text, fmt)


def bulk_lines(fmt="csv", corpora=("",)):
    """A log like a training run's: each run's 30 checkpoints together (one block per corpus), the runs by
    size, which as strings is not their canonical order ("m1000000000" sorts before "m12742750")."""
    return [block_line(f, f"m{n}", seed, corpus, t + 1, 2 + n / 1e9 + 1 / (t + 1), fmt)
            for f in ("b00", "b01") for n in (12_742_750, 3 * 10**8, 10**9) for seed in (0, 1)
            for corpus in corpora for t in range(30)]


@pytest.mark.parametrize("fmt, shape", [("csv", "full"), ("csv", "short"), ("csv", "crlf"), ("csv", "corpora"),
                                        ("jsonl", "full"), ("jsonl", "corpora")])
def test_a_block_ordered_log_is_read_into_canonical_order(fmt, shape):
    lines = bulk_lines(fmt, ("", "pile") if shape == "corpora" else ("",))
    if shape == "short":  # a writer that leaves off the trailing empty flops and loss_corpus cells
        lines = [line.replace(",,\n", "\n") for line in lines]
    elif shape == "crlf":
        lines = [line.replace("\n", "\r\n") for line in lines]
    text = (BLOCK_HEADER + "\n" if fmt == "csv" else "") + "".join(lines)
    got = outcome(ingest, text, fmt)
    assert got == outcome(reference_ingest, text, fmt) and len(got) == 2
    families = ingest(io.StringIO(text), fmt)
    assert [family_summary(f).model_count for f in families] == [6, 6]
    assert list(families[0].columns.model_id[:1]) == ["m1000000000"]


BAD_LAST = {"csv": "b01,m1,x,3,99,0,3.5,,\n", "jsonl": jsonl_line("b01", "m1", "x", 3, 99, 3.5)}
WHERE = ["first-row", "mid-log", "last-row"]


def insert_at(lines: list[str], where: str, special: str) -> int:
    """Put special into lines as their first, 193rd or last line; its index."""
    at = {"first-row": 0, "mid-log": 192, "last-row": len(lines)}[where]
    lines.insert(at, special)
    return at


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("last", ["good", "bad"], ids=["good-last-row", "bad-last-row"])
@pytest.mark.parametrize(
    "special",
    [
        pytest.param('b00,"m12742750",12742750,77,99,0,2.5,,\n', id="quoted-cell"),
        pytest.param('b00,m12742750,12742750,77,99,0,2.5,,"two\nlines"\n', id="multi-line-cell"),
        pytest.param("b00,m12742750,12742750,77,99,0,2.5,,nul\0cell\n", id="nul-cell"),
        pytest.param(f"b00,m12742750,12742750,77,99,0,2.5,,{LONG_CELL}\n", id="cell-past-the-limit"),
        pytest.param(f"b00,m12742750,12742750,77,99,0,2.5,{'7' * 70_000},{'y' * 70_000}\n", id="line-past-the-limit"),
        pytest.param("b00,m12742750,12742750,77,99,0,2.5,,\rb00,m12742750,12742750,78,99,0,2.5,,\n", id="lone-cr"),
        pytest.param('b00,m12742750,12742750,77,99,0,-2.5,,"q"\n', id="quoted-row-with-a-bad-value"),
    ],
)
@pytest.mark.parametrize("newline", ["\n", ""])
def test_a_bulk_csv_log_with_a_special_line_matches_the_row_at_a_time_parse(special, last, where, newline):
    # A bad last row is named by its physical line, counted past the special line's.
    lines = bulk_lines()
    lines[-3:-3] = ['b01,"m1",100,1,99,0,3.5,,\n', "b01,m1,100,2,99,0,3.5,,\n"]
    insert_at(lines, where, special)
    text = BLOCK_HEADER + "\n" + "".join(lines) + (BAD_LAST["csv"] if last == "bad" else "")
    assert outcome(ingest, text, "csv", newline) == outcome(reference_ingest, text, "csv", newline)


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("last", ["good", "bad"], ids=["good-last-row", "bad-last-row"])
@pytest.mark.parametrize(
    "special, error",
    [
        pytest.param("\n", None, id="blank-line"),
        pytest.param(" \t" + jsonl_line("b00", "m12742750", 12742750, 77, 99, 2.5), None, id="space-led-object"),
        pytest.param("[1, 2]\n", "expected a JSON object per line", id="a-list"),
        pytest.param('{"family_id": "b00",\n', "invalid JSON", id="bad-line"),
    ],
)
def test_a_bulk_jsonl_log_with_a_special_line_matches_the_row_at_a_time_parse(special, error, last, where):
    lines = bulk_lines("jsonl")
    at = insert_at(lines, where, special)
    text = "".join(lines) + (BAD_LAST["jsonl"] if last == "bad" else "")
    got = outcome(ingest, text, "jsonl")
    assert got == outcome(reference_ingest, text, "jsonl")
    if error is not None:  # a bad special line raises before the bad last row is read
        assert got[1].startswith(f"line {at + 1}: {error}")
    elif last == "good":
        assert len(got) == 2


@st.composite
def shuffled_records(draw) -> list[CheckpointRecord]:
    """One family's rows in any order: each run's tokens drawn in any order, so a run may be split, its tokens
    may fall, and a token count may repeat, as an identical or (with a loss of 9.5) a conflicting duplicate."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["m1", "m10", "m2"]), st.integers(0, 1),
                                   st.sampled_from([None, "pile"])), min_size=1, max_size=4, unique=True))
    rows = [CheckpointRecord("a", model_id, 100 * int(model_id[1:]), tokens, 9, seed,
                             9.5 if draw(st.integers(0, 5)) == 0 else 2 + 1 / tokens, None, corpus)
            for model_id, seed, corpus in keys for tokens in draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))]
    return draw(st.permutations(rows))


def family_outcome(build):
    """The family's records, or the exception's type and message."""
    try:
        return build().records
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(rows=shuffled_records())
def test_from_records_matches_the_per_row_sort(rows):
    assert family_outcome(lambda: ScaledFamily.from_records("a", rows)) == family_outcome(lambda: _family("a", rows))


@pytest.mark.parametrize("seed", range(12))
def test_run_rows_are_the_per_row_grouping(seed):
    rng = np.random.default_rng(seed)
    family = random_family(rng, tagged=bool(seed % 2))
    for fam in (family, family.where(rng.random(len(family)) < 0.6), family.where([False] * len(family))):
        grouped: dict = {}
        for i, run in enumerate(zip(fam.columns.model_id, fam.columns.seed)):
            grouped.setdefault(run, []).append(i)
        assert fam.run_rows == grouped and list(fam.run_rows) == sorted(grouped)
        assert fam.num_runs == len(grouped)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_byte_order_mark_is_skipped(tmp_path, fmt):
    text = f"{HEADER}\na,m,100,1,2,3.0\nb,m,100,1,2,2.5\n" if fmt == "csv" else jsonl_line() + jsonl_line("b")
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ingest(marked) == ingest(plain) and len(ingest(plain)) == 2


def test_bad_row_names_its_physical_line():
    with pytest.raises(IngestError, match="^line 5: field 'tokens_seen'"):
        ingest(io.StringIO(f"{HEADER}\na,m,100,1,2,3.0\n\n\na,m,100,x,2,3.0\n"), "csv")


def test_summarizing_an_ingested_family_builds_no_records():
    text = f"{HEADER}\n" + "".join(f"a,m{i % 3},{100 * (1 + i % 3)},{i + 1},99,{3 - i / 50}\n" for i in range(30))
    (family,) = ingest(io.StringIO(text), "csv")
    summary = family_summary(family)
    assert (summary.model_count, summary.checkpoint_count, len(family), family.num_runs) == (3, 30, 30, 3)
    assert family.corpora == (None,) and not family.is_empty
    assert "records" not in vars(family)
    assert family.records == reference_ingest(text, "csv")[0].records
    assert family == ScaledFamily.from_records("a", family.records)
    assert hash(family) == hash(ScaledFamily.from_records("a", family.records))


def test_a_family_is_immutable():
    (family,) = ingest(io.StringIO(f"{HEADER}\na,m,100,1,2,3.0\n"), "csv")
    with pytest.raises(AttributeError):
        family.family_id = "b"


# ---------------------------------------------------------------------------
# Random logs through the CLI: only the documented exits
# ---------------------------------------------------------------------------

logs = st.one_of(
    st.tuples(st.sampled_from([".csv", ".jsonl"]), st.binary(max_size=300)),
    *(st.tuples(st.just(".csv"), csv_documents(FITTABLE, 30, odd).map(str.encode)) for odd in (True, False)),
    *(st.tuples(st.just(".jsonl"), jsonl_documents(FITTABLE, 30, odd).map(str.encode)) for odd in (True, False)),
)


@settings(max_examples=30, deadline=None)
@given(log=logs)
def test_random_log_exits_with_a_documented_code(log):
    suffix, payload = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log{suffix}"
        path.write_bytes(payload)
        for command in ("ingest", "fit"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path), "--out", str(Path(tmp) / "out")])
            assert code in (0, 2, 3, 4)
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
