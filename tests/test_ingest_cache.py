"""The CLI's ingest cache, records._ingest_cached: a hit gives what a parse gives, and anything else is a parse.

The size threshold is lowered to 0 in-process, so small generated logs go through the cache; the
end-to-end tests run `python -m scalefit` on a log past the real threshold.
"""

import io
import json
import marshal
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import scalefit
from scalefit import IngestError, ValidationError, generate, ingest, records, serialize
from scalefit.cli import main
from scalefit.specs import SynthSpec

from conftest import SIZES_6, TRUTH

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from test_ingest import csv_documents, jsonl_documents  # noqa: E402

HEADER = "family_id,model_id,num_params,tokens_seen,total_tokens,loss\n"
GOOD_LOG = HEADER + "".join(f"a,m{m},{100 * (m + 1)},{t},4,{2 + 1 / t}\n" for m in range(3) for t in (1, 2, 3))
# Families a, b and c: in the entry, b and c come after a.
THREE_LOG = GOOD_LOG + "".join(f"{family},m{m},{100 * (m + 1)},{t},4,{2 + 1 / t + (family == 'c')}\n"
                               for family in "bc" for m in range(3) for t in (1, 2, 3))


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """The cache directory, empty; every log is cached, whatever its size."""
    monkeypatch.setattr(records, "_CACHE_MIN_BYTES", 0)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "scalefit"


@pytest.fixture
def parses(monkeypatch):
    """The formats of every parse that runs, in order."""
    seen = []
    parse = records._parse

    def counted(stream, fmt):
        seen.append(fmt)
        return parse(stream, fmt)

    monkeypatch.setattr(records, "_parse", counted)
    return seen


def outcome(read, path: Path, fmt: str | None = None):
    """The families with every value's type, or the error's type and message."""
    try:
        families = read(path, fmt)
    except ValidationError as exc:
        return type(exc), str(exc)
    return [(f.family_id, f.columns, [type(column) for column in f.columns],
             [sorted({type(v).__name__ for v in column}) for column in f.columns]) for f in families]


def entries(cache: Path) -> list[Path]:
    return sorted(cache.iterdir()) if cache.exists() else []


documents = st.one_of(
    st.tuples(st.one_of(csv_documents(odd=False), csv_documents()), st.just("csv")),
    st.tuples(st.one_of(jsonl_documents(odd=False), jsonl_documents()), st.just("jsonl")),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=documents, bom=st.booleans(), bad_byte=st.one_of(st.none(), st.integers(0, 10**6)))
def test_a_hit_gives_what_a_parse_gives(cache, document, bom, bad_byte):
    # The miss, then the hit (or, after an error, a second parse) each equal a fresh ingest of the file,
    # down to the type of every value: tuple columns of int, float, str and None.
    text, fmt = document
    data = ("\ufeff" * bom + text).encode("utf-8")
    if bad_byte is not None and data:
        at = bad_byte % len(data)
        data = data[:at] + b"\xff" + data[at + 1:]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"XDG_CACHE_HOME": tmp}):
        path = Path(tmp, "log")
        path.write_bytes(data)
        fresh = outcome(ingest, path, fmt)
        assert outcome(records._ingest_cached, path, fmt) == fresh
        stored = entries(Path(tmp, "scalefit"))
        assert len(stored) == isinstance(fresh, list)  # only a successful parse is cached
        if stored:
            with mock.patch.object(records, "_parse", side_effect=AssertionError("a hit parses nothing")):
                assert outcome(records._ingest_cached, path, fmt) == fresh
        else:
            assert outcome(records._ingest_cached, path, fmt) == fresh


def test_a_changed_byte_is_a_miss(cache, tmp_path, parses):
    path = tmp_path / "log.csv"
    path.write_text(GOOD_LOG, encoding="utf-8")
    first = records._ingest_cached(path)
    assert records._ingest_cached(path) == first and parses == ["csv"]
    path.write_text(GOOD_LOG.replace("a,m2,300,3,4", "a,m2,300,3,5"), encoding="utf-8")  # one byte, same size
    changed = records._ingest_cached(path)
    assert changed == ingest(path) != first and changed[0].columns.total_tokens[-1] == 5
    assert records._ingest_cached(path) == changed and parses == ["csv", "csv", "csv"]  # miss, ingest, hit
    assert len(entries(cache)) == 1  # the path's one entry, rewritten


def test_another_format_is_another_entry(cache, tmp_path, capsys):
    path = tmp_path / "log.txt"  # read as CSV unless --format says otherwise
    path.write_text("".join(json.dumps(dict(zip(HEADER.strip().split(","), line.split(",")))) + "\n"
                            for line in GOOD_LOG.strip().splitlines()[1:]), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["ingest", "--input", str(path), "--format", "jsonl", "--out", out]) == 0
    assert len(entries(cache)) == 1
    assert main(["ingest", "--input", str(path), "--out", out]) == 3  # CSV: no entry of the JSONL read applies
    assert "header missing required columns" in capsys.readouterr().err
    assert main(["ingest", "--input", str(path), "--format", "jsonl", "--out", out]) == 0
    assert len(entries(cache)) == 1


@pytest.mark.parametrize("change", ["source", "interpreter"])
def test_a_code_change_is_a_miss(cache, tmp_path, monkeypatch, parses, change):
    sources = []
    for source in records._KEYED_SOURCES:
        sources.append(tmp_path / source.name)
        sources[-1].write_bytes(source.read_bytes())
    monkeypatch.setattr(records, "_KEYED_SOURCES", tuple(sources))
    path = tmp_path / "log.csv"
    path.write_text(GOOD_LOG, encoding="utf-8")
    first = records._ingest_cached(path)
    assert records._ingest_cached(path) == first and parses == ["csv"]
    if change == "source":
        sources[0].write_bytes(sources[0].read_bytes() + b"# one more line\n")
    else:
        monkeypatch.setattr(sys, "version", sys.version + " (another build)")
    assert records._ingest_cached(path) == first and parses == ["csv", "csv"]
    assert records._ingest_cached(path) == first and parses == ["csv", "csv"]


def read_entry(entry: bytes) -> tuple:
    """An entry's header and its families, each an (id, columns) pair as marshal reads them."""
    stored = io.BytesIO(entry)
    header, count = marshal.load(stored), marshal.load(stored)
    return header, [(marshal.load(stored), marshal.loads(stored.read(int.from_bytes(stored.read(8), "big"))))
                    for _ in range(count)]


def write_entry(header, families: list, count: int | None = None, lengths: dict | None = None) -> bytes:
    """An entry of the header and the (id, columns) families, with count (by default the number of families) as its
    count and each id's length in lengths (by default that of its columns' bytes)."""
    pieces = []
    for family_id, columns in families:
        piece = marshal.dumps(columns)
        length = (lengths or {}).get(family_id, len(piece))
        pieces.append(marshal.dumps(family_id) + length.to_bytes(8, "big") + piece)
    return marshal.dumps(header) + marshal.dumps(len(families) if count is None else count) + b"".join(pieces)


def _truncated(entry: bytes) -> bytes:
    return entry[: len(entry) // 2]


def _misshapen(entry: bytes) -> bytes:
    header, stored = read_entry(entry)
    return write_entry(header, [(family_id, tuple(map(list, columns))) for family_id, columns in stored])


def _short(entry: bytes) -> bytes:
    header, stored = read_entry(entry)
    return write_entry(header, [(family_id, columns[:3]) for family_id, columns in stored])


def _a_family_short(entry: bytes) -> bytes:
    header, stored = read_entry(entry)
    return write_entry(header, stored[:-1], count=len(stored))


def _cut_in_the_last_length(entry: bytes) -> bytes:
    stored = io.BytesIO(entry)
    marshal.load(stored)
    for _ in range(marshal.load(stored)):
        marshal.load(stored)
        at = stored.tell()
        stored.seek(int.from_bytes(stored.read(8), "big"), os.SEEK_CUR)
    return entry[:at + 3]  # three zero bytes: a length of 0 if a short read were taken for one


def _a_number_for_an_id(entry: bytes) -> bytes:
    header, stored = read_entry(entry)
    return write_entry(header, [(i, columns) for i, (_, columns) in enumerate(stored)])


def _a_longer_last_family(entry: bytes) -> bytes:
    header, stored = read_entry(entry)
    last, columns = stored[-1]
    return write_entry(header, stored, lengths={last: len(marshal.dumps(columns)) + 1})


def _a_huge_length(entry: bytes) -> bytes:
    header, stored = read_entry(entry)
    return write_entry(header, stored, lengths={stored[-1][0]: 2**64 - 1})


def _another_key(entry: bytes) -> bytes:
    (key, where), stored = read_entry(entry)
    return write_entry((bytes(len(key)), where), stored)


def _old_format(entry: bytes) -> bytes:
    (key, _), stored = read_entry(entry)
    return marshal.dumps((key, stored))  # the key and the families in one pair, with no header


@pytest.mark.parametrize("family", [None, "a"], ids=["every-family", "one-family"])
@pytest.mark.parametrize("damage", [
    pytest.param(_truncated, id="truncated"),
    pytest.param(lambda entry: entry[:-3], id="cut-in-the-last-family"),
    pytest.param(_cut_in_the_last_length, id="cut-in-the-last-length"),
    pytest.param(lambda entry: entry + b"\0", id="a-byte-more"),
    pytest.param(lambda entry: b"\x00 not marshal data", id="garbage"),
    pytest.param(lambda entry: b"", id="empty"),
    pytest.param(lambda entry: marshal.dumps(42), id="not-a-pair"),
    pytest.param(_misshapen, id="list-columns"),
    pytest.param(_short, id="three-columns"),
    pytest.param(_a_family_short, id="a-family-short"),
    pytest.param(_a_number_for_an_id, id="a-number-for-an-id"),
    pytest.param(_a_longer_last_family, id="a-longer-last-family"),
    pytest.param(_a_huge_length, id="a-huge-length"),
    pytest.param(_another_key, id="another-key"),
    pytest.param(_old_format, id="old-format"),
])
def test_a_broken_entry_is_parsed_and_rewritten(cache, tmp_path, parses, damage, family):
    # A one-family read of a skips the columns of b and c, so a cut or a length in c is found without decoding c.
    path = tmp_path / "log.csv"
    path.write_text(THREE_LOG, encoding="utf-8")
    expected = records._ingest_cached(path, family=family)
    assert [f.family_id for f in expected] == (["a", "b", "c"] if family is None else ["a"])
    (entry,) = entries(cache)
    good = read_entry(entry.read_bytes())
    entry.write_bytes(damage(entry.read_bytes()))
    opened, real_open = [], Path.open

    def spy(self, *args, **kwargs):
        if self == path:
            opened.append(args)
        return real_open(self, *args, **kwargs)

    with mock.patch.object(Path, "open", spy):
        assert records._ingest_cached(path, family=family) == expected and parses == ["csv", "csv"]
    assert opened == [("rb",), ("rb",)]  # a broken entry is a miss like any other: the log is hashed, then parsed
    assert read_entry(entry.read_bytes()) == good
    assert records._ingest_cached(path, family=family) == expected and parses == ["csv", "csv"]


def test_a_one_family_hit_decodes_only_that_family(cache, tmp_path, monkeypatch, parses):
    path = tmp_path / "log.csv"
    path.write_text(THREE_LOG, encoding="utf-8")
    records._ingest_cached(path)  # the miss that writes the entry
    decoded = []

    class Counted:
        """records.marshal, its loads counted: a hit decodes each family's columns with one loads."""

        def __getattr__(self, name):
            return getattr(marshal, name)

        def loads(self, data):
            decoded.append(len(data))
            return marshal.loads(data)

    monkeypatch.setattr(records, "marshal", Counted())
    fresh = ingest(path)
    assert records._ingest_cached(path, family="b") == [fresh[1]] and len(decoded) == 1
    assert records._ingest_cached(path) == fresh and len(decoded) == 4
    with pytest.raises(ValidationError, match=r"^family 'nope' not in input \(have: a, b, c\)$"):
        records._ingest_cached(path, family="nope")
    # The unknown family is told from the ids alone; the two parses are the miss and the fresh ingest.
    assert len(decoded) == 4 and parses == ["csv", "csv"]


def test_the_log_is_never_read_whole(cache, tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "".join(f"a,m{m},{100 * (m + 1)},{t},999,{2 + 1 / t}\n"
                                     for m in range(3) for t in range(1, 999)), encoding="utf-8")
    expected = ingest(path)
    read_bytes, opened, reads = Path.read_bytes, Path.open, []

    class Watched(io.BufferedReader):
        def read(self, size=-1):
            reads.append(len(data := super().read(size)))
            return data

        def read1(self, size=-1):
            reads.append(len(data := super().read1(size)))
            return data

    def read_whole(self):
        assert self != path, "the log was read whole"
        return read_bytes(self)

    def watched_open(self, mode="r", *args, **kwargs):
        return Watched(io.FileIO(self)) if self == path and mode == "rb" else opened(self, mode, *args, **kwargs)

    monkeypatch.setattr(records, "_HASH_BLOCK", 4096)
    monkeypatch.setattr(Path, "read_bytes", read_whole)
    monkeypatch.setattr(Path, "open", watched_open)
    for _ in ("miss", "hit"):
        assert records._ingest_cached(path) == expected and len(entries(cache)) == 1
        assert reads and max(reads) <= 8192 < path.stat().st_size
        reads.clear()


@pytest.mark.parametrize("change", ["grown", "touched"])
def test_a_log_that_changes_while_it_is_parsed_gets_no_entry(cache, tmp_path, monkeypatch, change):
    path = tmp_path / "log.csv"
    path.write_text(GOOD_LOG, encoding="utf-8")
    expected, parse = ingest(path), records._parse

    def changing(stream, fmt):
        families = parse(stream, fmt)
        if change == "grown":
            with open(path, "a", encoding="utf-8") as log:
                log.write("a,m0,100,4,4,1.5\n")
        else:  # the same bytes, written again later
            os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 10**9))
        return families

    monkeypatch.setattr(records, "_parse", changing)
    assert records._ingest_cached(path) == expected and entries(cache) == []
    monkeypatch.setattr(records, "_parse", parse)
    assert records._ingest_cached(path) == ingest(path) and len(entries(cache)) == 1


def test_a_miss_removes_the_entries_whose_log_is_gone_or_whose_header_does_not_read(cache, tmp_path, parses):
    logs = {name: tmp_path / f"{name}.csv" for name in ("kept", "gone", "read")}
    for log in logs.values():
        log.write_text(GOOD_LOG, encoding="utf-8")
        records._ingest_cached(log)
    stored = {read_entry(entry.read_bytes())[0][1]: entry for entry in entries(cache)}  # by the header's log path
    by_log = {name: stored[os.fsencode(log.resolve())] for name, log in logs.items()}
    logs["gone"].unlink()
    old = cache / "old.marshal"
    old.write_bytes(_old_format(by_log["kept"].read_bytes()))
    junk = cache / "junk.marshal"
    junk.write_bytes(b"\x00 not marshal data")
    other = cache / "notes.txt"
    other.write_text("not an entry", encoding="utf-8")
    assert set(entries(cache)) == {*by_log.values(), old, junk, other}

    listing = AssertionError("a hit listed the cache directory")
    with mock.patch.object(records.os, "scandir", side_effect=listing), \
            mock.patch.object(records.os, "listdir", side_effect=listing):
        records._ingest_cached(logs["kept"])  # a hit
    assert set(entries(cache)) == {*by_log.values(), old, junk, other} and len(parses) == 3
    logs["read"].write_text(GOOD_LOG.replace("a,m2,300,3,4", "a,m2,300,3,5"), encoding="utf-8")
    records._ingest_cached(logs["read"])  # a miss
    assert set(entries(cache)) == {by_log["kept"], by_log["read"], other} and len(parses) == 4


def test_an_unwritable_cache_gives_the_result_and_leaves_no_file(cache, tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    path.write_text(GOOD_LOG, encoding="utf-8")
    expected = ingest(path)
    cache.parent.mkdir()
    cache.write_text("a file where the cache directory would be", encoding="utf-8")
    assert records._ingest_cached(path) == expected
    cache.unlink()

    def refuse(source, target):
        raise PermissionError(13, "refused", str(target))

    with mock.patch.object(records.os, "replace", refuse):
        assert records._ingest_cached(path) == expected
    assert entries(cache) == []  # the temporary file is gone too

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)
    assert records._ingest_cached(path) == expected


@pytest.mark.parametrize("bad", [
    pytest.param(GOOD_LOG.encode() + b"a,m0,100,2,4,9.5\n", id="conflicting-duplicate"),
    pytest.param(GOOD_LOG.encode().replace(b"a,m1", b"a,m\xff1", 1), id="non-utf8-line"),
    pytest.param(GOOD_LOG.encode().replace(b"a,m1,200,1", b"a,m1,200,x", 1) + b"a,m\xe9\n", id="row-before-bad-byte"),
])
def test_a_bad_log_raises_the_same_error_and_is_not_cached(cache, tmp_path, bad):
    path = tmp_path / "log.csv"
    path.write_text(GOOD_LOG, encoding="utf-8")
    records._ingest_cached(path)  # an entry of the same path's earlier, good bytes
    (entry,) = entries(cache)
    before = entry.read_bytes()
    path.write_bytes(bad)
    with pytest.raises(ValidationError) as fresh:
        ingest(path)
    for _ in range(2):
        with pytest.raises(ValidationError) as cached:
            records._ingest_cached(path)
        assert (type(cached.value), str(cached.value)) == (type(fresh.value), str(fresh.value))
        if isinstance(fresh.value, IngestError):
            assert (cached.value.line, cached.value.field) == (fresh.value.line, fresh.value.field)
    assert entries(cache) == [entry] and entry.read_bytes() == before


# ---------------------------------------------------------------------------
# End to end: python -m scalefit, cold and then warm
# ---------------------------------------------------------------------------


def child_env(cache_home: Path) -> dict:
    paths = [str(Path(scalefit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), "XDG_CACHE_HOME": str(cache_home)}


def scalefit_cli(env: dict, *argv: str) -> None:
    proc = subprocess.run([sys.executable, "-m", "scalefit", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_every_command_writes_the_same_bytes_cold_and_warm(tmp_path):
    # 20 fittable families, 15,600 rows: 1.1 MB as CSV, past the 1 MiB below which nothing is cached.
    families = [generate(SynthSpec(truth=TRUTH, sizes=SIZES_6, tokens_per_run=2_000_000_000, checkpoints_per_run=130,
                                   noise_sigma=0.01, family_id=f"f{i:02d}", rng_seed=i)) for i in range(20)]
    log = tmp_path / "log.csv"
    log.write_text(serialize(families, "csv"), encoding="utf-8")
    assert log.stat().st_size >= 1 << 20
    cache_home = tmp_path / "xdg"
    env = child_env(cache_home)
    commands = {
        "ingest": ["ingest"],
        "fit": ["fit", "--family", "f00"],
        "eval-params": ["eval", "--family", "f01", "--params", str(tmp_path / "fit-cold" / "fit_result.json")],
        "eval-best": ["eval", "--family", "f01", "--baseline", "best"],
        "eval-most-trained": ["eval", "--family", "f02", "--baseline", "most-trained"],
        "downscale": ["downscale", "--family", "f03"],
        "transfer": ["transfer", "--family", "f04", "--frozen-A", str(TRUTH.A), "--frozen-alpha", str(TRUTH.alpha)],
    }
    for name, argv in commands.items():
        for run in ("cold", "warm"):
            if run == "cold":
                for entry in entries(cache_home / "scalefit"):
                    entry.unlink()
            scalefit_cli(env, *argv, "--input", str(log), "--out", str(tmp_path / f"{name}-{run}"))
            assert len(entries(cache_home / "scalefit")) == 1
        cold, warm = artifacts(tmp_path / f"{name}-cold"), artifacts(tmp_path / f"{name}-warm")
        assert cold == warm and cold, name


def test_a_small_log_makes_no_cache_and_loads_no_hashlib(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(GOOD_LOG, encoding="utf-8")
    code = ("import sys\nfrom scalefit.cli import main\n"
            f"assert main(['ingest', '--input', {str(log)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print('hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(tmp_path / "xdg"), check=True)
    assert proc.stdout.splitlines()[-1] == "False"
    assert not (tmp_path / "xdg").exists()


def test_ingest_selects_the_family_and_corpus_cold_and_warm(tmp_path, monkeypatch, capsys):
    # A log past the real 1 MiB threshold: ingest takes --family and --corpus as every other command does.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    log = tmp_path / "log.csv"
    log.write_text(HEADER + "".join(f"{family},m{m},{100 * (m + 1)},{t},9999,{2 + 1 / t}\n"
                                    for family in "ab" for m in range(15) for t in range(1, 1100)), encoding="utf-8")
    assert log.stat().st_size >= 1 << 20
    outcomes = {}
    for run in ("cold", "warm"):
        if run == "cold":
            assert not (tmp_path / "xdg").exists()
        for name, flags in (("nope", ("--family", "nope")), ("b", ("--family", "b")),
                            ("corpus-nope", ("--corpus", "nope")), ("every", ())):
            out = tmp_path / f"{run}-{name}"
            code = main(["ingest", "--input", str(log), *flags, "--out", str(out)])
            err = capsys.readouterr().err
            written = (out / "ingest_summary.json").read_bytes() if out.exists() else None
            outcomes[run, name] = code, err, written
        assert len(entries(tmp_path / "xdg" / "scalefit")) == 1
    for name in ("nope", "b", "corpus-nope", "every"):
        assert outcomes["cold", name] == outcomes["warm", name], name
    assert outcomes["cold", "nope"] == (3, json.dumps({"error": "data", "message": "family 'nope' not in input (have: a, b)"})
                                        + "\n", None)
    assert outcomes["cold", "corpus-nope"] == (3, json.dumps(
        {"error": "data", "message": "family 'a' has no records for corpus 'nope' (present: None)"}) + "\n", None)
    every = json.loads(outcomes["cold", "every"][2])["families"]
    assert [f["family_id"] for f in every] == ["a", "b"]
    assert json.loads(outcomes["cold", "b"][2])["families"] == every[1:]
