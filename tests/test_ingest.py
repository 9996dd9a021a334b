"""The columnar ingest against the row-at-a-time parse it replaced.

`reference_ingest` keeps that older algorithm as an oracle: csv.DictReader or
one json.loads per line, one CheckpointRecord per row, then a sort and a
duplicate sweep over the records. On random CSV and JSONL documents, ingest
must return equal families or raise the same exception with the same message.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

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
    for field in REQUIRED:
        if row.get(field) in (None, ""):
            raise IngestError("missing required value", line=line, field=field)
    seed, flops, corpus = row.get("seed"), row.get("flops"), row.get("loss_corpus")
    try:
        return CheckpointRecord(
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
    except IngestError:
        raise
    except ValidationError as exc:
        raise IngestError(str(exc), line=line) from exc


def _rows(text: str, fmt: str):
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise IngestError("empty input: no header row", line=1)
        missing = [c for c in REQUIRED if c not in reader.fieldnames]
        if missing:
            raise IngestError(f"header missing required columns: {', '.join(missing)}", line=1)
        for row in reader:
            yield reader.line_num, row
        return
    for line_num, line in enumerate(io.StringIO(text), start=1):
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
    for rec in sorted(records, key=CheckpointRecord.sort_key):
        key = (rec.model_id, rec.seed, rec.loss_corpus, rec.tokens_seen)
        prior = seen.setdefault(key, rec)
        if prior is rec:
            kept.append(rec)
        elif prior != rec:
            raise ValidationError(
                f"duplicate checkpoint ({rec.model_id}, tokens_seen={rec.tokens_seen}) "
                f"with conflicting values (loss {prior.loss} vs {rec.loss})"
            )
    return ScaledFamily(family_id, kept)


def reference_ingest(text: str, fmt: str) -> list[ScaledFamily]:
    by_family: dict[str, list[CheckpointRecord]] = {}
    for line, row in _rows(text, fmt):
        rec = _record(row, line)
        by_family.setdefault(rec.family_id, []).append(rec)
    if not by_family:
        raise IngestError("input contains no data rows")
    return [_family(fid, recs) for fid, recs in sorted(by_family.items())]


def outcome(parse, text: str, fmt: str):
    try:
        families = parse(text, fmt) if parse is reference_ingest else parse(io.StringIO(text), fmt)
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


@st.composite
def csv_documents(draw, good=GOOD, max_rows=12, odd=True) -> str:
    names = list(draw(st.permutations(COLUMNS)))
    for _ in range(draw(st.integers(0, 2))):  # drop, repeat or add a column
        action = draw(st.sampled_from(["drop", "repeat", "notes"]))
        if action == "drop" and names:
            names.pop(draw(st.integers(0, len(names) - 1)))
        elif action == "repeat" and names:
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        else:
            names.insert(draw(st.integers(0, len(names))), "notes")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 9)) == 0:
            writer.writerow([])  # a blank line
            continue
        row = [draw(cell(name, good, odd)) for name in names]
        cut = draw(st.sampled_from([len(row)] * 8 + [len(row) - 1, len(row) + 1, 1])) if odd else len(row)
        writer.writerow(row[:cut] if cut <= len(row) else row + ["extra"])
    return out.getvalue()


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


@settings(max_examples=200, deadline=None)
@given(text=csv_documents())
def test_csv_ingest_matches_the_row_at_a_time_parse(text):
    assert outcome(ingest, text, "csv") == outcome(reference_ingest, text, "csv")


@settings(max_examples=200, deadline=None)
@given(text=jsonl_documents())
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
        pytest.param(f"{HEADER}\na,m,100,3,2,-1\n", "csv", id="value-rules-in-order"),
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


def test_bad_row_names_its_physical_line():
    with pytest.raises(IngestError, match="^line 5: field 'tokens_seen'"):
        ingest(f"{HEADER}\na,m,100,1,2,3.0\n\n\na,m,100,x,2,3.0\n", "csv")


def test_summarizing_an_ingested_family_builds_no_records():
    text = f"{HEADER}\n" + "".join(f"a,m{i % 3},{100 * (1 + i % 3)},{i + 1},99,{3 - i / 50}\n" for i in range(30))
    (family,) = ingest(text, "csv")
    summary = family_summary(family)
    assert (summary.model_count, summary.checkpoint_count, len(family), family.num_runs) == (3, 30, 30, 3)
    assert family.corpora == (None,) and not family.is_empty
    assert "records" not in vars(family)
    assert family.records == reference_ingest(text, "csv")[0].records
    assert family == ScaledFamily.from_records("a", family.records)
    assert hash(family) == hash(ScaledFamily("a", family.records))


def test_a_family_is_immutable():
    (family,) = ingest(f"{HEADER}\na,m,100,1,2,3.0\n", "csv")
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
