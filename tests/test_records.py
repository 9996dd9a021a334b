import gc
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

from scalefit import (
    CheckpointRecord,
    IngestError,
    ScaledFamily,
    ValidationError,
    family_summary,
    ingest,
    merge_families,
    select_corpus,
    serialize,
)

from scalefit.records import COLUMNS

from conftest import make_record, random_family

CSV_3ROWS = """family_id,model_id,num_params,tokens_seen,total_tokens,seed,loss,flops,loss_corpus
pythia,pythia-410m,405334016,1000000000,300000000000,0,3.1,,
pythia,pythia-410m,405334016,2000000000,300000000000,0,2.9,,
pythia,pythia-410m,405334016,4000000000,300000000000,0,2.7,,
"""


def test_ingest_identity_roundtrip():
    families = ingest(io.StringIO(CSV_3ROWS), "csv")
    assert len(families) == 1
    fam = families[0]
    assert fam.family_id == "pythia"
    assert len(fam.records) == 3
    assert [r.tokens_seen for r in fam.records] == [10**9, 2 * 10**9, 4 * 10**9]
    assert fam.num_runs == 1


def test_negative_loss_rejected_with_line_number():
    bad = CSV_3ROWS.replace("3.1", "-1.0")
    with pytest.raises(IngestError) as err:
        ingest(io.StringIO(bad), "csv")
    assert "line 2" in str(err.value)


def test_malformed_row_names_line_and_field():
    bad = CSV_3ROWS.replace("405334016,2000000000", "405334016,not-a-number")
    with pytest.raises(IngestError) as err:
        ingest(io.StringIO(bad), "csv")
    assert "line 3" in str(err.value)
    assert "tokens_seen" in str(err.value)


def test_missing_required_column_rejected():
    text = "family_id,model_id,num_params,tokens_seen,total_tokens\nf,m,1,1,1\n"
    with pytest.raises(IngestError) as err:
        ingest(io.StringIO(text), "csv")
    assert "loss" in str(err.value)


def test_extra_columns_ignored():
    text = CSV_3ROWS.replace("loss_corpus", "loss_corpus,notes").replace(",3.1,,", ",3.1,,,hello")
    fam = ingest(io.StringIO(text), "csv")[0]
    assert len(fam.records) == 3


def test_scientific_notation_counts_accepted():
    text = (
        "family_id,model_id,num_params,tokens_seen,total_tokens,loss\n"
        "f,m,1e8,1e9,2e9,3.0\n"
    )
    rec = ingest(io.StringIO(text), "csv")[0].records[0]
    assert rec.num_params == 10**8 and rec.tokens_seen == 10**9


def test_jsonl_ingest_and_missing_optional_keys():
    text = (
        '{"family_id": "f", "model_id": "m", "num_params": 100, "tokens_seen": 10,'
        ' "total_tokens": 20, "loss": 2.5}\n'
        '{"family_id": "f", "model_id": "m", "num_params": 100, "tokens_seen": 20,'
        ' "total_tokens": 20, "loss": 2.0, "seed": 1, "flops": 1.5e18}\n'
    )
    fam = ingest(io.StringIO(text), "jsonl")[0]
    assert len(fam.records) == 2
    assert fam.records[0].seed == 0 and fam.records[0].flops is None
    assert fam.records[1].seed == 1 and fam.records[1].flops == 1.5e18


def test_jsonl_bad_line_number():
    text = '{"family_id": "f"}\nnot json\n'
    with pytest.raises(IngestError) as err:
        ingest(io.StringIO(text), "jsonl")
    assert "line" in str(err.value)


def test_duplicate_conflicting_loss_rejected():
    rows = [
        make_record(tokens_seen=10**9, loss=3.0),
        make_record(tokens_seen=10**9, loss=2.5),
    ]
    with pytest.raises(ValidationError):
        ScaledFamily.from_records("fam", rows)


def test_identical_duplicates_collapse():
    rows = [make_record(), make_record()]
    fam = ScaledFamily.from_records("fam", rows)
    assert len(fam.records) == 1


@pytest.mark.parametrize("build", [
    ScaledFamily,
    ScaledFamily.from_records,
], ids=["constructor", "from_records"])
def test_every_constructor_checks_family_and_duplicates(build):
    foreign = [make_record(family_id="b", loss=3.0), make_record(family_id="b", loss=2.0)]
    with pytest.raises(ValidationError, match="family_id 'b'"):
        build("a", foreign)
    with pytest.raises(ValidationError, match="conflicting"):
        build("fam", [make_record(loss=3.0), make_record(loss=2.0)])
    once = [make_record(tokens_seen=10**9), make_record(tokens_seen=2 * 10**8)]
    family = build("fam", once + once[::-1])
    assert family.records == tuple(sorted(once, key=lambda r: r.tokens_seen))
    assert build("fam", family.records * 2) == family


def test_record_invariants():
    with pytest.raises(ValidationError):
        make_record(loss=float("nan"))
    with pytest.raises(ValidationError):
        make_record(loss=0.0)
    with pytest.raises(ValidationError):
        make_record(num_params=0)
    with pytest.raises(ValidationError):
        make_record(tokens_seen=5, total_tokens=4)
    with pytest.raises(ValidationError):
        make_record(flops=-1.0)


def test_roundtrip_random_families_csv_and_jsonl():
    rng = np.random.default_rng(101)
    families = sorted(
        (random_family(rng, f"fam{i}") for i in range(5)), key=lambda f: f.family_id
    )
    for fmt in ("csv", "jsonl"):
        back = ingest(io.StringIO(serialize(families, fmt)), fmt)
        assert back == families


def test_ingest_of_a_path_follows_the_suffix_rule(tmp_path):
    rng = np.random.default_rng(7)
    families = [random_family(rng, "fam")]
    path = tmp_path / "log.jsonl"
    path.write_text(serialize(families, "jsonl"), encoding="utf-8")
    assert ingest(path) == ingest(str(path)) == families


def test_partition_property_random():
    # The records come in canonical order, so each run's checkpoints are contiguous.
    rng = np.random.default_rng(11)
    for _ in range(20):
        fam = random_family(rng)
        records = list(fam.records)
        assert records == sorted(records, key=lambda r: (r.model_id, r.seed, r.loss_corpus or "", r.tokens_seen))
        runs = [r.run_key for r in records]
        starts = [run for i, run in enumerate(runs) if i == 0 or runs[i - 1] != run]
        assert len(starts) == len(set(runs)) == fam.num_runs


def test_family_summary_tallies():
    empty = ScaledFamily(family_id="none", records=())
    s = family_summary(empty)
    assert s.model_count == 0 and s.checkpoint_count == 0
    assert s.size_range is None and s.token_range is None

    records = [
        make_record(model_id=f"fam-{i}", num_params=p, tokens_seen=t, total_tokens=10**10)
        for i, (p, t) in enumerate([(7 * 10**7, 10**9), (12 * 10**9, 5 * 10**9), (10**9, 2 * 10**9)])
    ]
    s = family_summary(ScaledFamily.from_records("fam", records))
    assert s.model_count == 3 and s.checkpoint_count == 3
    assert s.size_range == (7 * 10**7, 12 * 10**9)
    assert s.token_range == (10**9, 5 * 10**9)


def test_family_summary_counts_equal_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(10):
        fam = random_family(rng)
        s = family_summary(fam)
        assert s.checkpoint_count == len(fam.records)
        assert s.model_count == len({(r.model_id, r.seed) for r in fam.records})
        assert s.size_range == (min(r.num_params for r in fam.records), max(r.num_params for r in fam.records))


def test_seed_distinguishes_runs():
    rows = [
        make_record(seed=0, tokens_seen=10**9, loss=3.0),
        make_record(seed=1, tokens_seen=10**9, loss=3.1),
    ]
    fam = ScaledFamily.from_records("fam", rows)
    assert fam.num_runs == 2


def test_select_corpus():
    rows = [
        make_record(loss_corpus="pile", loss=3.0),
        make_record(loss_corpus="c4", loss=2.8),
        make_record(loss_corpus=None, loss=2.9, tokens_seen=2 * 10**9),
    ]
    fam = ScaledFamily.from_records("fam", rows)
    assert len(select_corpus(fam, "pile").records) == 1
    assert len(select_corpus(fam, None).records) == 1
    with pytest.raises(ValidationError) as err:
        select_corpus(fam, "wiki")
    assert "pile" in str(err.value)


def test_mismatched_family_id_rejected():
    with pytest.raises(ValidationError):
        ScaledFamily.from_records("other", [make_record()])


def test_merge_families():
    a = ScaledFamily.from_records("fam", [make_record(tokens_seen=10**9)])
    b = ScaledFamily.from_records("fam", [make_record(tokens_seen=2 * 10**9)])
    merged = merge_families([a, b])
    assert len(merged.records) == 2


def test_ingest_path_closes_its_file():
    path = Path(__file__).parent / "data" / "noiseless.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for source in (path, str(path)):
            assert len(ingest(source, "csv")[0].records) == 120
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_empty_input_rejected():
    with pytest.raises(IngestError, match="no header row"):
        ingest(io.StringIO(""), "csv")
    with pytest.raises(IngestError, match="no data rows"):
        ingest(io.StringIO(""), "jsonl")


def test_ingest_leaves_the_callers_stream_open():
    stream = io.StringIO(CSV_3ROWS)
    assert len(ingest(stream, "csv")[0].records) == 3
    gc.collect()
    assert not stream.closed


def test_header_only_csv_string_has_no_data_rows():
    with pytest.raises(IngestError, match="no data rows"):
        ingest(io.StringIO(",".join(COLUMNS)), "csv")


def test_a_str_is_always_a_path(tmp_path):
    # Even one that holds a comma or a brace, as a CSV header or a JSON row would.
    path = tmp_path / "{log},v2.csv"
    path.write_text(CSV_3ROWS, encoding="utf-8")
    assert len(ingest(str(path))[0].records) == 3
    with pytest.raises(FileNotFoundError):
        ingest(str(tmp_path / "missing.csv"), "csv")
    with pytest.raises(FileNotFoundError):
        ingest(CSV_3ROWS.splitlines()[0], "csv")
    # The empty string is the path "", which names the current directory and no file.
    with pytest.raises(OSError):
        ingest("", "csv")
