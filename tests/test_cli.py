import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import scalefit
from scalefit import FitResult, IngestError, LawParams, ScaledFamily, SynthSpec, generate, ingest, serialize
import scalefit.cli as cli
from scalefit.cli import main

from conftest import SIZES_6, TRUTH

SYNTH = {"truth": TRUTH.to_dict(), "sizes": [10**7, 10**8], "tokens_per_run": 10**9, "checkpoints_per_run": 5}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def err_payload(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


def write_family_csv(path, families):
    path.write_text(serialize(families, "csv"), encoding="utf-8")
    return path


def small_family(family_id="toy", truth=TRUTH, sizes=SIZES_6[:4], noise=0.0, rng_seed=0):
    spec = SynthSpec(
        truth=truth, sizes=sizes, tokens_per_run=10**9, checkpoints_per_run=6,
        noise_sigma=noise, family_id=family_id, rng_seed=rng_seed,
    )
    return generate(spec)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_writes_summary(tmp_path, noiseless_csv, capsys):
    code, out, _ = run(capsys, "ingest", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "ingest_summary.json").read_text())
    assert blob["families"][0]["family_id"] == "fixture"
    assert blob["families"][0]["checkpoint_count"] == 120
    assert "family fixture: 6 models, 120 checkpoints" in out


def test_ingest_selects_the_family_and_corpus_as_every_command_does(tmp_path, capsys):
    tagged = ScaledFamily.from_records("toy", [r._replace(loss_corpus="pile") for r in small_family().records]
                                       + list(small_family(rng_seed=1).records[:5]))
    log = write_family_csv(tmp_path / "log.csv", [tagged, small_family("other")])
    summaries = {}
    for name, flags in (("plain", ()), ("toy", ("--family", "toy")), ("toy-pile", ("--family", "toy", "--corpus", "pile")),
                        ("untagged", ("--corpus", ""))):
        code, out, err = run(capsys, "ingest", "--input", str(log), *flags, "--out", str(tmp_path / name))
        assert code == 0, err
        summaries[name] = json.loads((tmp_path / name / "ingest_summary.json").read_text())["families"]
    assert [s["family_id"] for s in summaries["plain"]] == ["other", "toy"]
    assert summaries["toy"] == summaries["plain"][1:]
    assert summaries["toy-pile"][0]["checkpoint_count"] == len(small_family())
    assert [s["checkpoint_count"] for s in summaries["untagged"]] == [len(small_family("other")), 5]
    for flags, message in ((("--family", "nope"), "family 'nope' not in input (have: other, toy)"),
                           (("--corpus", "nope"), "family 'other' has no records for corpus 'nope' (present: None)")):
        code, out, err = run(capsys, "ingest", "--input", str(log), *flags, "--out", str(tmp_path / "refused"))
        assert (code, out, len(err.splitlines())) == (3, "", 1)
        assert err_payload(err) == {"error": "data", "message": message}
    assert not (tmp_path / "refused").exists()


def test_ingest_missing_input_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--out", str(tmp_path))
    assert code == 2
    assert err_payload(err)["error"] == "usage"


def test_ingest_nonexistent_path(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "does not exist" in err_payload(err)["message"]


@pytest.mark.parametrize("command", ["ingest", "fit"])
def test_empty_or_directory_input_is_usage_error(tmp_path, capsys, command):
    for source in ("", str(tmp_path)):
        code, _, err = run(capsys, command, "--input", source, "--out", str(tmp_path / "out"))
        assert code == 2 and len(err.splitlines()) == 1
        assert err_payload(err) == {"error": "usage", "message": f"input path must name a file, got {source!r}"}


def test_ingest_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "family_id,model_id,num_params,tokens_seen,total_tokens,seed,loss\n"
        "fam,fam-a,1000,10,100,0,not-a-number\n"
    )
    code, _, err = run(capsys, "ingest", "--input", str(bad))
    assert code == 3
    payload = err_payload(err)
    assert payload["error"] == "data"
    assert "line 2" in payload["message"]


HEADER = b"family_id,model_id,num_params,tokens_seen,total_tokens,seed,loss\n"


@pytest.mark.parametrize(
    "payload, line, words",
    [
        pytest.param(HEADER + b"fam,fam-a,1000,10,100,0,3.0\nfam,fam-\xff,1000,20,100,0,2.9\n", 3, "not UTF-8",
                     id="byte-0xff"),
        pytest.param(HEADER + b'fam,"' + b"x" * 131_073 + b'",1000,10,100,0,3.0\n', 2, "field larger",
                     id="oversized-cell"),
    ],
)
def test_undecodable_or_oversized_csv_is_data_error(tmp_path, capsys, payload, line, words):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(payload)
    code, out, err = run(capsys, "ingest", "--input", str(bad), "--out", str(tmp_path))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    message = err_payload(err)
    assert message["error"] == "data"
    assert f"line {line}: " in message["message"] and words in message["message"]


def child_env() -> dict:
    """The environment of a child interpreter that imports the scalefit package under test."""
    paths = [str(Path(scalefit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_importing_the_cli_loads_neither_yaml_nor_numpy():
    # PyYAML is imported by the one path that reads --config, numpy by the commands that compute, hashlib by the
    # ingest cache and tempfile by the atomic writes. Only what the imports add counts: a site hook may load
    # tempfile at start-up.
    code = ("import sys; before = set(sys.modules); "
            "import scalefit, scalefit.cli, scalefit.records, scalefit.subsets, scalefit.metrics; "
            "print(sorted({'yaml', 'numpy', 'hashlib', 'tempfile'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_no_command_builds_a_checkpoint_record(tmp_path, noiseless_csv, capsys, monkeypatch):
    # Commands compute on a family's columns; its records are a view built only on request.
    built = []
    view = ScaledFamily.records
    monkeypatch.setattr(ScaledFamily, "records", property(lambda family: built.append(family) or view.func(family)))
    common = ("--input", str(noiseless_csv), "--out", str(tmp_path))
    commands = [
        (0, "ingest"), (0, "fit"), (0, "fit", "--loss", "huber"),
        (0, "eval", "--params", str(tmp_path / "fit_result.json")),
        (0, "eval", "--baseline", "best"), (0, "eval", "--baseline", "most-trained"),
        (0, "grid", "--num-models", "3,4", "--train-fractions", "0.5,1.0"),
        (0, "transfer", "--frozen-A", str(TRUTH.A), "--frozen-alpha", str(TRUTH.alpha)),
        (0, "downscale"), (0, "cv"),
        (3, "pca"),  # the log holds one family: pca fits it, then has too few fits to compare
    ]
    for expected, *argv in commands:
        code, _, err = run(capsys, *argv, *common)
        assert (code, len(built)) == (expected, 0), (argv, err)


# A child that runs scalefit.cli.main on its arguments; "block" first makes every numpy import fail.
MAIN_IN_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from scalefit.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv", [
    pytest.param(["--help"], id="help"),
    pytest.param(["ingest", "--input", "{csv}", "--out", "out"], id="ingest-csv"),
    pytest.param(["ingest", "--input", "{jsonl}", "--out", "out"], id="ingest-jsonl"),
    pytest.param(["eval", "--input", "{csv}", "--baseline", "best", "--out", "out"], id="eval-best"),
    pytest.param(["eval", "--input", "{csv}", "--baseline", "most-trained", "--out", "out"], id="eval-most-trained"),
    pytest.param(["fit", "--input", "{csv}", "--loss", "absolute"], id="usage-error"),
])
def test_commands_that_compute_nothing_run_without_numpy(tmp_path, noiseless_csv, argv):
    jsonl = tmp_path / "log.jsonl"
    jsonl.write_text(serialize([ingest(noiseless_csv)[0]], "jsonl"), encoding="utf-8")
    argv = [a.format(csv=noiseless_csv, jsonl=jsonl) for a in argv]
    outcomes = []
    for mode in ("block", "normal"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", MAIN_IN_CHILD, mode, *argv], cwd=cwd,
                              capture_output=True, text=True, env=child_env())
        artifacts = {p.name: p.read_bytes() for p in sorted((cwd / "out").glob("*"))}
        outcomes.append((proc.returncode, proc.stdout, proc.stderr, artifacts))
    blocked, normal = outcomes
    assert "Traceback" not in blocked[2]
    assert blocked == normal
    assert normal[0] == (2 if argv[0] == "fit" else 0)
    assert bool(normal[3]) == (argv[0] in ("ingest", "eval"))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_noiseless_csv(tmp_path, noiseless_csv, capsys):
    code, out, _ = run(capsys, "fit", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 0
    envelope = json.loads((tmp_path / "fit_result.json").read_text())
    assert envelope["family_id"] == "fixture"
    assert envelope["fit"]["converged"] is True
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["are"] <= 0.005
    assert (tmp_path / "eval_report.csv").exists()
    assert "converged" in out and "ARE" in out


def test_fit_byte_deterministic(tmp_path, noiseless_csv, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "fit", "--input", str(noiseless_csv), "--out", str(a))[0] == 0
    assert run(capsys, "fit", "--input", str(noiseless_csv), "--out", str(b))[0] == 0
    for name in ("fit_result.json", "eval_report.json", "eval_report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_two_size_family_is_data_error(tmp_path, capsys):
    csv_path = write_family_csv(tmp_path / "two.csv", [small_family(sizes=SIZES_6[:2])])
    code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(tmp_path))
    assert code == 3
    assert "insufficient families" in err_payload(err)["message"]


def test_fit_non_convergence_exits_4(tmp_path, noiseless_csv, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"fit": {"max_iterations": 1, "restarts": 2}}))
    code, _, err = run(
        capsys, "fit", "--input", str(noiseless_csv), "--out", str(tmp_path),
        "--config", str(config),
    )
    assert code == 4
    assert err_payload(err)["error"] == "non-convergence"
    envelope = json.loads((tmp_path / "fit_result.json").read_text())
    assert envelope["fit"]["converged"] is False
    assert not (tmp_path / "eval_report.json").exists()


def test_fit_prediction_overflow_is_data_error_after_writing_the_fit(tmp_path, noiseless_csv, capsys, monkeypatch):
    # A converged fit whose size term is e^800 at every N: scoring it overflows.
    blowup = FitResult(
        params=LawParams(E=0.0, A=800.0, alpha=0.0, B=0.0, beta=0.0),
        objective=0.0, converged=True, restarts_tried=1, n_points=5,
    )
    monkeypatch.setattr("scalefit.law.fit", lambda train, config: blowup)
    code, _, err = run(capsys, "fit", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 3
    assert err_payload(err)["error"] == "data"
    assert json.loads((tmp_path / "fit_result.json").read_text())["fit"] == blowup.to_dict()
    assert not list(tmp_path.glob("eval_report.*"))


def test_fit_multi_family_requires_family_flag(tmp_path, capsys):
    csv_path = write_family_csv(
        tmp_path / "multi.csv", [small_family("fam-a"), small_family("fam-b")]
    )
    code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(tmp_path))
    assert code == 2
    assert "--family" in err_payload(err)["message"]
    code, _, _ = run(
        capsys, "fit", "--input", str(csv_path), "--family", "fam-b", "--out", str(tmp_path)
    )
    assert code == 0


def test_fit_unknown_family_is_data_error(tmp_path, noiseless_csv, capsys):
    code, _, err = run(
        capsys, "fit", "--input", str(noiseless_csv), "--family", "ghost", "--out", str(tmp_path)
    )
    assert code == 3
    assert "ghost" in err_payload(err)["message"]


@pytest.mark.parametrize("command", ["fit", "pca", "ingest"])
def test_unknown_family_message_lists_the_input_families(tmp_path, noiseless_csv, capsys, command):
    code, _, err = run(capsys, command, "--input", str(noiseless_csv), "--family", "nope", "--out", str(tmp_path))
    assert code == 3
    assert err_payload(err)["message"] == "family 'nope' not in input (have: fixture)"


def write_cached_size_log(path: Path) -> Path:
    """Families fixture and other in a CSV log past the 1 MiB below which the CLI caches nothing."""
    path.write_text("family_id,model_id,num_params,tokens_seen,total_tokens,loss\n" + "".join(
        f"{family},m{m},{m + 1},{t},9999,{2 + 1 / t}\n" for family in ("fixture", "other")
        for m in range(15) for t in range(1, 1000)), encoding="utf-8")
    assert path.stat().st_size >= 1 << 20
    return path


def test_unknown_family_message_is_the_same_cold_and_warm_on_a_cached_log(tmp_path, noiseless_csv, capsys, monkeypatch):
    # A log past the 1 MiB below which nothing is cached: the miss parses it, the hit reads only its entry's ids.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    log = write_cached_size_log(tmp_path / "big.csv")
    messages = {}
    for run_name, path in (("small", noiseless_csv), ("cold", log), ("warm", log)):
        code, _, err = run(capsys, "fit", "--input", str(path), "--family", "nope", "--out", str(tmp_path))
        assert code == 3 and len(err.strip().splitlines()) == 1
        messages[run_name] = err_payload(err)["message"]
    assert len(list((tmp_path / "xdg" / "scalefit").iterdir())) == 1  # the cold read wrote the entry the warm one read
    assert messages == {"small": "family 'nope' not in input (have: fixture)",
                        "cold": "family 'nope' not in input (have: fixture, other)",
                        "warm": "family 'nope' not in input (have: fixture, other)"}


def test_fit_delta_flag_overrides_config(tmp_path, capsys):
    noisy = write_family_csv(
        tmp_path / "noisy.csv", [small_family(sizes=SIZES_6, noise=0.02)]
    )
    cfg_num = tmp_path / "num.yaml"
    cfg_num.write_text(yaml.safe_dump({"fit": {"loss_kind": "huber", "delta": 1e-3}}))
    cfg_alt = tmp_path / "alt.yaml"
    cfg_alt.write_text(yaml.safe_dump({"fit": {"loss_kind": "huber", "delta": "alt"}}))

    out_num, out_flag, out_alt = tmp_path / "n", tmp_path / "f", tmp_path / "a"
    assert run(capsys, "fit", "--input", str(noisy), "--config", str(cfg_num), "--out", str(out_num))[0] == 0
    assert run(
        capsys, "fit", "--input", str(noisy), "--config", str(cfg_num),
        "--delta", "alt", "--out", str(out_flag),
    )[0] == 0
    assert run(capsys, "fit", "--input", str(noisy), "--config", str(cfg_alt), "--out", str(out_alt))[0] == 0

    num_bytes = (out_num / "fit_result.json").read_bytes()
    flag_bytes = (out_flag / "fit_result.json").read_bytes()
    alt_bytes = (out_alt / "fit_result.json").read_bytes()
    assert flag_bytes != num_bytes  # the flag changed the objective
    assert flag_bytes == alt_bytes  # and matches the config spelling of the same delta


def test_unknown_config_key_is_usage_error(tmp_path, noiseless_csv, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"inputt": "x"}))
    code, _, err = run(
        capsys, "fit", "--input", str(noiseless_csv), "--config", str(config), "--out", str(tmp_path)
    )
    assert code == 2
    assert "unknown config keys" in err_payload(err)["message"]


def test_unknown_subset_config_keys_are_a_usage_error(tmp_path, noiseless_csv, capsys):
    # A key that is not a string is named as YAML reads it.
    config = tmp_path / "cfg.yaml"
    config.write_text("subset:\n  7: 1\n  nope: 2\n  num_models: 2\n")
    code, _, err = run(
        capsys, "fit", "--input", str(noiseless_csv), "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert code == 2
    assert err_payload(err)["message"] == "unknown subset config keys: 7, nope"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config, params",
    [
        pytest.param("eval", None, "{not json", id="eval-params-malformed-json"),
        pytest.param("eval", None, json.dumps({**TRUTH.to_dict(), "E": "abc"}), id="eval-params-non-numeric"),
        pytest.param("eval", None, "[1, 2, 3]", id="eval-params-json-list"),
        pytest.param("transfer", {"transfer": {"A": "abc", "alpha": 0.34}}, None, id="transfer-A"),
        pytest.param("downscale", {"downscale": {"k": "abc"}}, None, id="downscale-k"),
        pytest.param("grid", {"grid": {"num_models": ["a"], "train_fractions": [1.0]}}, None, id="grid-num-models"),
        pytest.param(
            "grid", {"grid": {"num_models": [3], "train_fractions": [1.0], "contour_levels": ["x"]}}, None,
            id="grid-contour-levels",
        ),
        pytest.param("grid", {"grid": {"num_models": 3, "train_fractions": [1.0]}}, None, id="grid-num-models-scalar"),
        pytest.param("fit", {"fit": {"restarts": 2.5}}, None, id="fit-restarts-float"),
        pytest.param("fit", {"fit": {"tolerance": 1.0}}, None, id="fit-tolerance-one"),
        pytest.param("fit --loss huber --delta inf", None, None, id="fit-delta-inf-flag"),
        pytest.param("grid", {"grid": {"num_models": [3.7], "train_fractions": [1.0]}}, None,
                     id="grid-num-models-non-integral"),
        pytest.param("grid", {"grid": {"num_models": [True], "train_fractions": [1.0]}}, None,
                     id="grid-num-models-bool"),
        pytest.param("downscale", {"downscale": {"k": 2.5}}, None, id="downscale-k-non-integral"),
        pytest.param("downscale", {"downscale": {"k": 0}}, None, id="downscale-k-zero"),
        pytest.param("downscale --k 0", None, None, id="downscale-k-zero-flag"),
        pytest.param(
            "grid", {"grid": {"num_models": [3], "train_fractions": [1.0], "contour_levels": [-1]}}, None,
            id="grid-contour-levels-negative",
        ),
        pytest.param(
            "grid", {"grid": {"num_models": [3], "train_fractions": [1.0], "star_thresholdz": [0.1]}}, None,
            id="grid-unknown-key",
        ),
        pytest.param("pca", {"pca": {"standardise": False}}, None, id="pca-unknown-key"),
        pytest.param("transfer", {"transfer": {"A": 6, "alpha": 0.34, "beta": 9}}, None, id="transfer-unknown-key"),
        pytest.param("downscale", {"downscale": {"kk": 3}}, None, id="downscale-unknown-key"),
        pytest.param("eval", {"eval": {"baseline": "best", "paramz": "x"}}, None, id="eval-unknown-key"),
        pytest.param("fit", {"synth": {"truthh": {}}}, None, id="synth-unknown-key"),
        pytest.param("fit", {"seed": 3}, None, id="top-level-seed"),
        pytest.param("fit", {"subset": [1]}, None, id="subset-list"),
        pytest.param("fit", {"fit": [1]}, None, id="fit-list"),
        pytest.param("pca", {"pca": [1]}, None, id="pca-list"),
        pytest.param("grid", {"grid": {"num_models": [0], "train_fractions": [1.0]}}, None, id="grid-num-models-zero"),
        pytest.param("grid", {"grid": {"num_models": [3], "train_fractions": [0]}}, None,
                     id="grid-train-fractions-zero"),
        pytest.param("grid --num-models 0 --train-fractions 1", None, None, id="grid-num-models-zero-flag"),
        pytest.param("grid --num-models 3 --train-fractions 0", None, None, id="grid-train-fractions-zero-flag"),
        pytest.param("fit", {"fit": {"rng_seed": 0}}, None, id="fit-rng-seed"),
        pytest.param("fit --seed 1", None, None, id="fit-seed-flag"),
        pytest.param("fit", {"subset": {"num_models": 2.5}}, None, id="subset-num-models-non-integral"),
        pytest.param("fit", {"subset": {"cutoff_tokens": 1.5}}, None, id="subset-cutoff-tokens-non-integral"),
        pytest.param("synth", {"synth": {**SYNTH, "checkpoints_per_run": 2.5}}, None,
                     id="synth-checkpoints-non-integral"),
        pytest.param("synth", {"synth": {**SYNTH, "rng_seed": 1.5}}, None, id="synth-rng-seed-non-integral"),
        pytest.param("fit", {"fit": {"frozen": {"A": "abc"}}}, None, id="fit-frozen-non-numeric"),
        pytest.param("fit", {"input": 3}, None, id="input-int"),
        pytest.param("fit", {"out": 7}, None, id="out-int"),
        pytest.param("eval", {"eval": {"params": 3}}, None, id="eval-params-int"),
        pytest.param("fit", {"target_fraction": True}, None, id="target-fraction-bool"),
        pytest.param("fit", {"target_fraction": 0}, None, id="target-fraction-zero"),
        pytest.param("grid --num-models 3 --train-fractions 1", {"emit_svg": "no"}, None, id="emit-svg-string"),
        pytest.param("pca", {"pca": {"standardize": "no"}}, None, id="pca-standardize-string"),
        pytest.param("pca", {"pca": {"standardize": 0}}, None, id="pca-standardize-int"),
        pytest.param("fit", {"family": ["x"]}, None, id="family-list"),
    ],
)
def test_bad_config_or_params_value_is_usage_error(tmp_path, noiseless_csv, capsys, command, config, params):
    # A config value of the wrong kind is rejected even where a flag would override it.
    argv = [*command.split(), "--input", str(noiseless_csv), "--out", str(tmp_path)]
    if config is not None:
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(config))
        argv += ["--config", str(tmp_path / "cfg.yaml")]
    if params is not None:
        (tmp_path / "params.json").write_text(params)
        argv += ["--params", str(tmp_path / "params.json")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err_payload(err)["error"] == "usage"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["grid", "--num-models", "a"], "grid num_models must be an integer, got 'a'", id="num-models-word"),
    pytest.param(["grid", "--train-fractions", "x"], "grid train_fractions must be a number, got 'x'",
                 id="train-fractions-word"),
    pytest.param(["fit", "--bogus"], "unrecognized arguments: --bogus", id="unknown-flag"),
    pytest.param(["ingest", "--seed", "1"], "unrecognized arguments: --seed 1", id="flag-of-another-command"),
])
def test_argparse_errors_are_one_json_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err_payload(err)["error"] == "usage"
    assert message in err_payload(err)["message"]


# Each spelling of a count as a YAML or JSON value, as a CSV cell or flag text, and the count it reads as
# (None: refused). "1e9" as a CSV cell is quoted, so it also takes the csv.reader path.
COUNT_SPELLINGS = [
    pytest.param(1e9, "1e9", 10**9, id="1e9"),
    pytest.param("1e9", '"1e9"', 10**9, id="str-1e9"),
    pytest.param(3.0, "3.0", 3, id="3.0"),
    pytest.param("3", "3", 3, id="str-3"),
    pytest.param(1.5, "1.5", None, id="1.5"),
    pytest.param(True, "True", None, id="True"),
    pytest.param("x", "x", None, id="x"),
]

# Every door a count comes in by: the command, the words a refusal names, and how the settings hold the count.
COUNT_DOORS = {
    "subset.cutoff_tokens": ("fit", "cutoff_tokens must be", lambda cfg: cfg["subset"].cutoff_tokens),
    "fit.restarts": ("fit", "restarts must be", lambda cfg: cfg["fit"].restarts),
    "synth.sizes": ("synth", "sizes must be", lambda cfg: SynthSpec.from_dict(cfg["synth"]).sizes[0]),
    "downscale.k": ("downscale", "downscale k must be", lambda cfg: cfg["downscale"]["k"]),
    "grid.num_models": ("grid", "grid num_models must be", lambda cfg: cfg["grid"]["num_models"][0]),
    "--k": ("downscale", "downscale k must be", lambda cfg: cfg["downscale"]["k"]),
    "--num-models": ("grid", "grid num_models must be", lambda cfg: cfg["grid"]["num_models"][0]),
}


def read_count_from_log(fmt: str, value, cell) -> int:
    """The num_params ingest reads from a one-row log whose num_params is value (JSONL) or cell (CSV)."""
    row = {"family_id": "a", "model_id": "m", "num_params": value, "tokens_seen": 1, "total_tokens": 2, "loss": 3.0}
    if fmt == "csv":
        text = "family_id,model_id,num_params,tokens_seen,total_tokens,loss\n" + f"a,m,{cell},1,2,3.0\n"
    else:
        text = json.dumps(row) + "\n"
    return ingest(io.StringIO(text), fmt)[0].columns.num_params[0]


@pytest.mark.parametrize("value, cell, count", COUNT_SPELLINGS)
def test_every_door_reads_a_count_by_one_rule(tmp_path, capsys, value, cell, count):
    # The one rule (specs.check_count) gives each spelling one verdict: at a log cell, a config value and a flag.
    for fmt in ("csv", "jsonl"):
        if count is None:
            with pytest.raises(IngestError, match="field 'num_params': expected an integer"):
                read_count_from_log(fmt, value, cell)
        else:
            assert read_count_from_log(fmt, value, cell) == count
    for door, (command, refusal, held) in COUNT_DOORS.items():
        if door.startswith("--"):
            argv = [command, door, cell.strip('"')]
        else:
            section, key = door.split(".")
            document = {section: {key: [value, 7] if key in ("sizes", "num_models") else value}}
            if section == "synth":
                document = {"synth": {**SYNTH, **document["synth"]}}
            (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(document))
            argv = [command, "--config", str(tmp_path / "cfg.yaml")]
        if count is None:
            code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
            assert (code, out, len(err.splitlines()), err_payload(err)["error"]) == (2, "", 1, "usage"), door
            assert f"{refusal} an integer" in err_payload(err)["message"], door
        else:
            counted = held(cli.settings(cli.build_parser().parse_args(argv)))
            assert counted == count and type(counted) is int, door


def test_synth_sizes_may_be_written_as_exponents(tmp_path, capsys):
    # YAML 1.1 reads 1e7 (no dot) as a string; the number rule reads it as the count it spells.
    for name, sizes in (("ints", [10**7, 10**8]), ("strings", ["1e7", "1e8"])):
        config = synth_config(tmp_path, sizes=sizes)
        assert run(capsys, "synth", "--config", str(config), "--out", str(tmp_path / name))[0] == 0
    assert (tmp_path / "strings" / "synthetic.csv").read_bytes() == (tmp_path / "ints" / "synthetic.csv").read_bytes()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    assert "usage: scalefit fit" in capsys.readouterr().out


def test_csv_jsonl_and_json_inputs_give_identical_artifacts(tmp_path, capsys):
    # .jsonl, .ndjson and .json are JSONL, anything else CSV: the one suffix rule of ingest.
    family = small_family(noise=0.01)
    artifacts = {}
    for suffix, fmt in ((".csv", "csv"), (".jsonl", "jsonl"), (".json", "jsonl")):
        log = tmp_path / f"log{suffix}"
        log.write_text(serialize([family], fmt), encoding="utf-8")
        out = tmp_path / suffix[1:]
        assert run(capsys, "ingest", "--input", str(log), "--out", str(out))[0] == 0
        assert run(capsys, "fit", "--input", str(log), "--out", str(out))[0] == 0
        artifacts[suffix] = [(out / name).read_bytes() for name in ("ingest_summary.json", "fit_result.json")]
    assert artifacts[".jsonl"] == artifacts[".csv"]
    assert artifacts[".json"] == artifacts[".csv"]


def test_corpus_selection(tmp_path, capsys):
    fam = small_family()
    tagged = ScaledFamily.from_records(
        "toy",
        [r._replace(loss_corpus="pile") for r in fam.records]
        + list(small_family().records),
    )
    csv_path = write_family_csv(tmp_path / "mixed.csv", [tagged])
    # Mixed corpora without selection: the fit refuses.
    code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(tmp_path))
    assert code == 3
    assert "corpora" in err_payload(err)["message"]
    # Selecting either slice works.
    assert run(capsys, "fit", "--input", str(csv_path), "--corpus", "pile", "--out", str(tmp_path))[0] == 0
    assert run(capsys, "fit", "--input", str(csv_path), "--corpus", "", "--out", str(tmp_path))[0] == 0
    code, _, err = run(capsys, "fit", "--input", str(csv_path), "--corpus", "ghost", "--out", str(tmp_path))
    assert code == 3


def test_eval_refuses_mixed_corpora_as_fit_does(tmp_path, capsys):
    fam = generate(SynthSpec(truth=LawParams(E=0.52, A=6.0, alpha=0.34, B=6.0, beta=0.28),
                             sizes=(10**7, 3 * 10**7, 10**8, 3 * 10**8, 10**9), noise_sigma=0.01))
    mixed = ScaledFamily.from_records(
        fam.family_id, [r._replace(loss_corpus=("c4", "pile")[i % 2]) for i, r in enumerate(fam.records)]
    )
    csv_path = write_family_csv(tmp_path / "mixed.csv", [mixed])
    params = tmp_path / "params.json"
    params.write_text(json.dumps(TRUTH.to_dict()))
    code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(tmp_path / "fit"))
    assert code == 3
    assert err_payload(err)["message"] == (
        "fit: family 'synthetic' mixes corpora ('c4', 'pile'); select one with select_corpus"
    )
    for n, mode in enumerate((["--baseline", "best"], ["--baseline", "most-trained"], ["--params", str(params)])):
        out = tmp_path / f"eval-{n}"
        code, _, err = run(capsys, "eval", "--input", str(csv_path), *mode, "--out", str(out))
        assert code == 3
        assert err_payload(err)["message"] == (
            "eval: family 'synthetic' mixes corpora ('c4', 'pile'); select one with select_corpus"
        )
        assert not out.exists()
        assert run(capsys, "eval", "--input", str(csv_path), *mode, "--corpus", "c4", "--out", str(out))[0] == 0


def test_pca_names_why_each_family_was_refused(tmp_path, capsys):
    fam = generate(SynthSpec(truth=TRUTH, sizes=(10**7, 3 * 10**7, 10**8, 3 * 10**8, 10**9), noise_sigma=0.01))
    mixed = ScaledFamily.from_records(
        fam.family_id, [r._replace(loss_corpus=("c4", "pile")[i % 2]) for i, r in enumerate(fam.records)]
    )
    csv_path = write_family_csv(tmp_path / "mixed.csv", [mixed])
    code, _, err = run(capsys, "pca", "--input", str(csv_path), "--out", str(tmp_path / "pca"))
    assert code == 3
    assert err_payload(err)["message"] == (
        "pca needs >= 2 fittable families, got 0; skipped synthetic: "
        "fit: family 'synthetic' mixes corpora ('c4', 'pile'); select one with select_corpus"
    )
    assert not (tmp_path / "pca" / "pca.json").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_baselines(tmp_path, noiseless_csv, capsys):
    code, out, _ = run(
        capsys, "eval", "--input", str(noiseless_csv), "--baseline", "best", "--out", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "baseline_best.json").exists()
    assert (tmp_path / "baseline_best.csv").exists()
    code, _, _ = run(
        capsys, "eval", "--input", str(noiseless_csv), "--baseline", "most-trained", "--out", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "baseline_most_trained.json").exists()
    best = json.loads((tmp_path / "baseline_best.json").read_text())
    assert best["are"] > 0.005  # fit-free baselines are far off the extrapolation target


def test_eval_params_accepts_envelope_and_bare(tmp_path, noiseless_csv, capsys):
    fit_dir = tmp_path / "fit"
    assert run(capsys, "fit", "--input", str(noiseless_csv), "--out", str(fit_dir))[0] == 0
    code, _, _ = run(
        capsys, "eval", "--input", str(noiseless_csv),
        "--params", str(fit_dir / "fit_result.json"), "--out", str(tmp_path / "env"),
    )
    assert code == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(TRUTH.to_dict()))
    code, _, _ = run(
        capsys, "eval", "--input", str(noiseless_csv),
        "--params", str(bare), "--out", str(tmp_path / "bare"),
    )
    assert code == 0
    report = json.loads((tmp_path / "bare" / "eval_report.json").read_text())
    assert report["are"] <= 1e-9


def test_eval_requires_exactly_one_mode(tmp_path, noiseless_csv, capsys):
    code, _, err = run(capsys, "eval", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 2
    code, _, err = run(
        capsys, "eval", "--input", str(noiseless_csv), "--baseline", "best",
        "--params", "x.json", "--out", str(tmp_path),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_writes_all_artifacts(tmp_path, noiseless_csv, capsys):
    code, out, _ = run(
        capsys, "grid", "--input", str(noiseless_csv), "--out", str(tmp_path),
        "--num-models", "2,3,4", "--train-fractions", "0.5,1.0",
    )
    assert code == 0
    for name in ("grid.csv", "grid_contours.json", "grid_stars.json", "grid.svg"):
        assert (tmp_path / name).exists()
    stars = json.loads((tmp_path / "grid_stars.json").read_text())
    assert set(stars) == {"0.15", "0.1", "0.05"}
    assert all(v is not None for v in stars.values())
    assert "6 cells" in out


def test_grid_no_svg(tmp_path, noiseless_csv, capsys):
    code, _, _ = run(
        capsys, "grid", "--input", str(noiseless_csv), "--out", str(tmp_path),
        "--num-models", "3,4", "--train-fractions", "1.0", "--no-svg",
    )
    assert code == 0
    assert not (tmp_path / "grid.svg").exists()


def test_grid_contours_past_int64_train_flops(tmp_path, capsys):
    # 6 N D of every run is above 2**63, and train_flops keeps integer inputs exact as Python ints.
    family = generate(SynthSpec(truth=TRUTH, sizes=SIZES_6, tokens_per_run=10**12, checkpoints_per_run=6,
                                family_id="huge"))
    csv_path = write_family_csv(tmp_path / "huge.csv", [family])
    code, _, err = run(
        capsys, "grid", "--input", str(csv_path), "--out", str(tmp_path),
        "--num-models", "3,4,5", "--train-fractions", "0.5,1.0",
    )
    assert code == 0, err
    cells = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    assert len(cells) == 6
    contours = json.loads((tmp_path / "grid_contours.json").read_text())
    assert len(contours) == 3 and all(c["level"] > 2**63 for c in contours)


def test_grid_contours_skip_an_empty_train_set(tmp_path, noiseless_csv, capsys):
    # Every run's first checkpoint is at 1% of its tokens: the 0.001 cells train on nothing and cost 0 FLOPs.
    code, _, err = run(
        capsys, "grid", "--input", str(noiseless_csv), "--out", str(tmp_path),
        "--num-models", "3,4", "--train-fractions", "0.001,1", "--no-svg",
    )
    assert code == 0, err
    cells = [line.split(",") for line in (tmp_path / "grid.csv").read_text().splitlines()[1:]]
    assert [(c[1], c[4], c[6]) for c in cells if c[1] == "0.001"] == [("0.001", "0.0", "insufficient families")] * 2
    contours = json.loads((tmp_path / "grid_contours.json").read_text())
    assert len(contours) == 3 and all(c["level"] > 0 for c in contours)


def test_grid_requires_axes(tmp_path, noiseless_csv, capsys):
    code, _, err = run(capsys, "grid", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 2
    assert "axes" in err_payload(err)["message"]


# ---------------------------------------------------------------------------
# transfer / downscale
# ---------------------------------------------------------------------------


def test_transfer_requires_frozen_values(tmp_path, noiseless_csv, capsys):
    code, _, err = run(capsys, "transfer", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 2
    assert "frozen" in err_payload(err)["message"]


def test_transfer_with_frozen_flags(tmp_path, noiseless_csv, capsys):
    code, _, _ = run(
        capsys, "transfer", "--input", str(noiseless_csv), "--out", str(tmp_path),
        "--frozen-A", str(TRUTH.A), "--frozen-alpha", str(TRUTH.alpha),
    )
    assert code == 0
    envelope = json.loads((tmp_path / "fit_result.json").read_text())
    assert envelope["fit"]["params"]["A"] == TRUTH.A
    assert envelope["fit"]["params"]["alpha"] == TRUTH.alpha
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["are"] <= 0.005


def test_downscale(tmp_path, noiseless_csv, capsys):
    code, _, _ = run(
        capsys, "downscale", "--input", str(noiseless_csv), "--out", str(tmp_path), "--k", "3"
    )
    assert code == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["are"] <= 0.005
    # k defaults to num_runs - 1 when unset
    assert run(capsys, "downscale", "--input", str(noiseless_csv), "--out", str(tmp_path))[0] == 0
    code, _, err = run(
        capsys, "downscale", "--input", str(noiseless_csv), "--out", str(tmp_path), "--k", "6"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# cv / pca
# ---------------------------------------------------------------------------


def test_cv_writes_reports(tmp_path, noiseless_csv, capsys):
    code, out, _ = run(capsys, "cv", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "cv.json").read_text())
    assert len(blob["rows"]) == 6
    assert all(row["are"] is not None and row["are"] <= 1e-6 for row in blob["rows"])
    assert (tmp_path / "cv.csv").exists()
    assert out.count("held out") == 6


def test_cv_with_every_fold_too_thin_is_data_error(tmp_path, capsys):
    # One checkpoint per run over 5 sizes: every fold trains on 3 or 4 records.
    family = small_family("thin", sizes=SIZES_6[:5])
    last = {}
    for r in family.records:
        if r.run_key not in last or r.tokens_seen > last[r.run_key].tokens_seen:
            last[r.run_key] = r
    csv_path = write_family_csv(tmp_path / "final.csv", [ScaledFamily.from_records(family.family_id, last.values())])
    code, out, err = run(capsys, "cv", "--input", str(csv_path), "--out", str(tmp_path))
    assert code == 3
    assert err_payload(err)["error"] == "data"
    rows = json.loads((tmp_path / "cv.json").read_text())["rows"]
    assert [row["failure"] for row in rows] == ["insufficient families"] * 5
    assert (tmp_path / "cv.csv").read_text().count("insufficient families") == 5
    assert out.count("held out") == 5


def test_pca_over_families(tmp_path, capsys):
    fams = [
        small_family("fam-a", truth=TRUTH, sizes=SIZES_6[:4]),
        small_family("fam-b", truth=TRUTH.replace(E=0.62, alpha=0.31), sizes=SIZES_6[:4]),
        small_family("fam-c", truth=TRUTH.replace(E=0.45, beta=0.25), sizes=SIZES_6[:4]),
    ]
    csv_path = write_family_csv(tmp_path / "many.csv", fams)
    code, out, _ = run(capsys, "pca", "--input", str(csv_path), "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "pca.json").read_text())
    assert blob["labels"] == ["fam-a", "fam-b", "fam-c"]
    assert blob["skipped"] == []
    assert len(blob["components"]) == 5
    assert (tmp_path / "pca.csv").exists()
    assert "explained variance ratios" in out


def test_pca_skips_unfittable_families(tmp_path, capsys):
    fams = [
        small_family("fam-a", sizes=SIZES_6[:4]),
        small_family("fam-b", truth=TRUTH.replace(E=0.62), sizes=SIZES_6[:4]),
        small_family("fam-tiny", sizes=SIZES_6[:2]),
    ]
    csv_path = write_family_csv(tmp_path / "many.csv", fams)
    code, _, _ = run(capsys, "pca", "--input", str(csv_path), "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "pca.json").read_text())
    assert blob["skipped"] == [{
        "family_id": "fam-tiny",
        "reason": "insufficient families: fit needs >= 5 records over >= 3 size families, "
                  "family 'fam-tiny' has 6 records over 1 size families",
    }]
    assert blob["labels"] == ["fam-a", "fam-b"]


def test_pca_decides_fittability_under_the_fit_config(tmp_path, capsys):
    # With A and alpha both frozen a fit needs only 2 records, so a 3-size family's 8 train records
    # over 2 runs can be fitted: by pca exactly as by fit.
    tiny = generate(SynthSpec(truth=TRUTH, sizes=SIZES_6[:3], tokens_per_run=10**9, checkpoints_per_run=4,
                              family_id="tiny"))
    csv_path = write_family_csv(tmp_path / "many.csv", [small_family("fam-a"), tiny])
    config = tmp_path / "frozen.yaml"
    config.write_text(yaml.safe_dump({"fit": {"frozen": {"A": TRUTH.A, "alpha": TRUTH.alpha}}}))
    argv = ["--input", str(csv_path), "--config", str(config)]
    code, out, _ = run(capsys, "fit", *argv, "--family", "tiny", "--out", str(tmp_path / "fit"))
    assert code == 0 and "2 size families, 8 records" in out
    code, _, err = run(capsys, "pca", *argv, "--out", str(tmp_path / "pca"))
    assert code == 0, err
    blob = json.loads((tmp_path / "pca" / "pca.json").read_text())
    assert blob["skipped"] == []
    assert blob["labels"] == ["fam-a", "tiny"]


def test_pca_single_family_is_error(tmp_path, noiseless_csv, capsys):
    code, _, err = run(capsys, "pca", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 3
    assert "pca" in err_payload(err)["message"]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def synth_config(tmp_path, **overrides):
    section = {
        "truth": TRUTH.to_dict(),
        "sizes": [10**7, 10**8],
        "tokens_per_run": 10**9,
        "checkpoints_per_run": 5,
        "noise_sigma": 0.01,
        "rng_seed": 1,
        "family_id": "gen",
    }
    section.update(overrides)
    path = tmp_path / "synth.yaml"
    path.write_text(yaml.safe_dump({"synth": section}))
    return path


def test_synth_requires_config(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path))
    assert code == 2
    assert "synth" in err_payload(err)["message"]


def test_synth_generates_ingestable_csv(tmp_path, capsys):
    config = synth_config(tmp_path)
    code, out, _ = run(capsys, "synth", "--config", str(config), "--out", str(tmp_path))
    assert code == 0
    families = ingest(tmp_path / "synthetic.csv")
    assert len(families) == 1
    assert families[0].family_id == "gen"
    assert len(families[0].records) == 10
    assert "generated family gen" in out


def test_synth_seed_flag_overrides_config(tmp_path, capsys):
    config = synth_config(tmp_path)
    base, same, other = tmp_path / "base", tmp_path / "same", tmp_path / "other"
    assert run(capsys, "synth", "--config", str(config), "--out", str(base))[0] == 0
    assert run(capsys, "synth", "--config", str(config), "--seed", "1", "--out", str(same))[0] == 0
    assert run(capsys, "synth", "--config", str(config), "--seed", "2", "--out", str(other))[0] == 0
    base_bytes = (base / "synthetic.csv").read_bytes()
    assert (same / "synthetic.csv").read_bytes() == base_bytes
    assert (other / "synthetic.csv").read_bytes() != base_bytes


def test_synth_bad_spec_is_usage_error(tmp_path, capsys):
    config = synth_config(tmp_path, sizes=[10**7, 10**7])
    code, _, err = run(capsys, "synth", "--config", str(config), "--out", str(tmp_path))
    assert code == 2
    assert err_payload(err)["error"] == "usage"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def declared_console_script() -> importlib.metadata.EntryPoint:
    """The `scalefit` entry point that `[project.scripts]` declares.

    Read from the installed distribution's entry points when scalefit is
    installed, and from the checkout's `pyproject.toml` otherwise.
    """
    try:
        dist = importlib.metadata.distribution("scalefit")
    except importlib.metadata.PackageNotFoundError:
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["scalefit"]
        return importlib.metadata.EntryPoint("scalefit", target, "console_scripts")
    (ep,) = [ep for ep in dist.entry_points if ep.group == "console_scripts" and ep.name == "scalefit"]
    return ep


def console_wrapper() -> str:
    """What installers generate for the `scalefit` console script, as `python -c` source."""
    ep = declared_console_script()
    return ("import sys\n"
            f"from {ep.module} import {ep.attr.split('.')[0]}\n"
            "sys.argv[0] = 'scalefit'\n"
            f"sys.exit({ep.attr}())\n")


def outcome_of(command: list[str], argv: list[str], cwd: Path, closed_stdout: bool = False) -> tuple:
    """Run `command argv` in a child process in a new directory cwd; return its exit code, stdout, stderr and the
    bytes of every artifact it wrote to cwd/out.

    The child's PYTHONPATH starts with the directory holding the `scalefit` package this test process imported, so
    every leg runs the code under test. PYTHONUNBUFFERED is removed, so stdout is block-buffered in a pipe, as it is
    for a user. With closed_stdout, stdout is a pipe whose reading end is closed before the child starts.
    """
    cwd.mkdir()
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if closed_stdout:
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "wb") as stdout:
            proc = subprocess.run([*command, *argv], cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, env=env)
    else:
        proc = subprocess.run([*command, *argv], cwd=cwd, capture_output=True, env=env)
    written = {p.name: p.read_bytes() for p in sorted((cwd / "out").glob("*"))}
    return proc.returncode, proc.stdout, proc.stderr, written


def test_console_script_and_module_entry(tmp_path, noiseless_csv):
    argv = ["ingest", "--input", str(noiseless_csv), "--out", "out"]
    script = outcome_of([sys.executable, "-c", console_wrapper()], argv, tmp_path / "s")
    module = outcome_of([sys.executable, "-m", "scalefit"], argv, tmp_path / "m")
    assert script == module
    assert module[0] == 0 and module[3]


@pytest.mark.skipif(
    shutil.which("scalefit") is None,
    reason="no `scalefit` executable on PATH; the console script exists only after `pip install`",
)
def test_installed_console_script_matches_module_entry(tmp_path, noiseless_csv):
    argv = ["ingest", "--input", str(noiseless_csv), "--out", "out"]
    script = outcome_of(["scalefit"], argv, tmp_path / "s")
    module = outcome_of([sys.executable, "-m", "scalefit"], argv, tmp_path / "m")
    assert script == module
    assert module[0] == 0 and module[3]


@pytest.mark.parametrize("argv, code, closed_stdout", [
    pytest.param(["--help"], 0, False, id="help"),
    pytest.param(["fit", "--input", "{csv}", "--out", "out"], 0, False, id="fit"),
    pytest.param(["fit", "--input", "{csv}", "--loss", "absolute", "--out", "out"], 2, False, id="bad-loss"),
    pytest.param(["fit", "--input", "{csv}", "--family", "nope", "--out", "out"], 3, False, id="unknown-family"),
    pytest.param(["fit", "--input", "{csv}", "--config", "{config}", "--out", "out"], 4, False, id="no-convergence"),
    pytest.param(["ingest", "--input", "{many}", "--out", "out"], 0, False, id="stdout-over-64-KiB"),
    pytest.param(["ingest", "--input", "{csv}", "--out", "out"], None, True, id="closed-stdout"),
])
def test_the_entry_points_end_as_a_full_teardown_does(tmp_path, noiseless_csv, argv, code, closed_stdout):
    # entry() ends `scalefit` and `python -m scalefit` without the interpreter's teardown; a child that runs main()
    # takes the teardown. Every exit code, byte of output and artifact must be the same.
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"fit": {"max_iterations": 1, "restarts": 2}}))
    many = tmp_path / "many.csv"  # 1,200 one-row families with long ids: ingest prints over 64 KiB
    if "{many}" in argv:
        many.write_text("family_id,model_id,num_params,tokens_seen,total_tokens,loss\n" + "".join(
            f"{'family-' * 8}{i:04d},m,1000,10,100,3.0\n" for i in range(1200)), encoding="utf-8")
    argv = [a.format(csv=noiseless_csv, config=config, many=many) for a in argv]
    launchers = {"teardown": [sys.executable, "-c", MAIN_IN_CHILD, "normal"],
                 "module": [sys.executable, "-m", "scalefit"],
                 "script": [sys.executable, "-c", console_wrapper()]}
    outcomes = {name: outcome_of(command, argv, tmp_path / name, closed_stdout) for name, command in launchers.items()}
    assert outcomes["module"] == outcomes["teardown"]
    assert outcomes["script"] == outcomes["teardown"]
    returncode, out, err, written = outcomes["teardown"]
    if closed_stdout:  # Python reports the unflushable stdout at exit, as for any program, with no traceback
        assert returncode != 0 and b"BrokenPipeError" in err and b"Traceback" not in err
        return
    assert returncode == code, err
    assert bool(written) == (code in (0, 4) and argv != ["--help"])
    if argv == ["--help"]:
        assert out.startswith(b"usage: scalefit")
    if str(many) in argv:  # 1,200 family lines and the "wrote" line, every one of them
        assert len(out) > 64 * 1024 and out.count(b"\n") == 1201


def test_entry_ends_the_process_only_after_flushing(monkeypatch):
    # In-process: os._exit is replaced, so each path shows how entry() would end the process.
    ended, flushed = [], []
    monkeypatch.setattr(os, "_exit", ended.append)

    class Stream:
        def __init__(self, name, fails=False):
            self.name, self.fails = name, fails

        def flush(self):
            flushed.append(self.name)
            if self.fails:
                raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    for returned in (0, 3):
        monkeypatch.setattr(cli, "main", lambda: returned)
        cli.entry()
    assert (ended, flushed) == ([0, 3], ["stdout", "stderr"] * 2)

    def helps():
        raise SystemExit(0)  # what argparse raises after printing --help

    monkeypatch.setattr(cli, "main", helps)
    cli.entry()
    assert ended == [0, 3, 0]

    monkeypatch.setattr(sys, "stdout", None)  # a process started with file descriptor 1 closed
    monkeypatch.setattr(cli, "main", lambda: 0)
    cli.entry()
    assert ended == [0, 3, 0, 0] and flushed[-1] == "stderr"

    monkeypatch.setattr(sys, "stdout", Stream("stdout", fails=True))
    monkeypatch.setattr(cli, "main", lambda: 4)
    with pytest.raises(SystemExit) as exited:  # an unflushable stream leaves through the interpreter's exit
        cli.entry()
    assert exited.value.code == 4 and ended == [0, 3, 0, 0]

    for raised in (SystemExit(2), KeyboardInterrupt(), RuntimeError("a bug")):
        def fails():
            raise raised

        monkeypatch.setattr(cli, "main", fails)
        with pytest.raises(type(raised)):
            cli.entry()
    assert ended == [0, 3, 0, 0]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_entry_gives_blas_one_thread_unless_the_variable_is_set(monkeypatch):
    environ = {"MKL_NUM_THREADS": "3"}
    seen, ended = [], []
    monkeypatch.setattr(os, "environ", environ)
    monkeypatch.setattr(os, "_exit", ended.append)  # entry() would end this process
    monkeypatch.setattr(cli, "main", lambda: seen.append(dict(environ)) or 0)
    cli.entry()
    assert ended == [0]
    assert seen == [{"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}]


def test_main_leaves_the_environment_alone(tmp_path, noiseless_csv, capsys):
    before = dict(os.environ)
    code, _, err = run(capsys, "fit", "--input", str(noiseless_csv), "--out", str(tmp_path))
    assert code == 0, err
    assert dict(os.environ) == before


def test_blas_threads_change_no_artifact_byte(tmp_path, noiseless_csv):
    env = {k: v for k, v in child_env().items() if k not in BLAS_THREAD_VARIABLES}
    artifacts = []
    for name, threads in (("default", {}), ("four", {"OPENBLAS_NUM_THREADS": "4"})):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "scalefit", "fit", "--input", str(noiseless_csv), "--loss", "huber",
             "--out", str(out)],
            capture_output=True, text=True, env={**env, **threads},
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert artifacts[0] == artifacts[1] and artifacts[0]


def leak_case(argv: list[str], case_id: str, runs: tuple = ("only",)):
    return pytest.param(argv, runs, id=case_id)


# The commands, run where the interpreter tears itself down. entry() skips that teardown, so a file a command
# left open would no longer raise its ResourceWarning in a `scalefit` or `python -m scalefit` process.
@pytest.mark.parametrize("argv, runs", [
    leak_case(["ingest", "--input", "{csv}"], "ingest-csv"),
    leak_case(["ingest", "--input", "{jsonl}"], "ingest-jsonl"),
    leak_case(["fit", "--input", "{csv}"], "fit"),
    leak_case(["eval", "--input", "{csv}", "--params", "{params}"], "eval-params"),
    leak_case(["eval", "--input", "{csv}", "--baseline", "best"], "eval-baseline"),
    leak_case(["grid", "--input", "{csv}", "--num-models", "3,4", "--train-fractions", "0.5,1"], "grid"),
    leak_case(["transfer", "--input", "{csv}", "--frozen-A", str(TRUTH.A), "--frozen-alpha", str(TRUTH.alpha)],
              "transfer"),
    leak_case(["downscale", "--input", "{csv}"], "downscale"),
    leak_case(["cv", "--input", "{csv}"], "cv"),
    leak_case(["pca", "--input", "{two}"], "pca"),
    leak_case(["synth", "--config", "{synth}"], "synth"),
    leak_case(["ingest", "--input", "{big}"], "ingest-1MiB-cold"),
    leak_case(["ingest", "--input", "{big}"], "ingest-1MiB-warm", runs=("cold", "warm")),
])
def test_no_command_leaves_a_resource_open_at_teardown(tmp_path, noiseless_csv, argv, runs):
    inputs = {"csv": noiseless_csv, "params": tmp_path / "params.json", "jsonl": tmp_path / "log.jsonl",
              "two": tmp_path / "two.csv", "synth": synth_config(tmp_path), "big": tmp_path / "big.csv"}
    inputs["params"].write_text(json.dumps({"params": TRUTH.to_dict()}), encoding="utf-8")
    inputs["jsonl"].write_text(serialize(ingest(noiseless_csv), "jsonl"), encoding="utf-8")
    write_family_csv(inputs["two"], [small_family("fam-a"), small_family("fam-b")])
    big = "{big}" in argv
    if big:
        write_cached_size_log(inputs["big"])
    argv = [a.format(**inputs) for a in argv]
    env = {**child_env(), "XDG_CACHE_HOME": str(tmp_path / "xdg")}
    for run_name in runs:
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", MAIN_IN_CHILD,
                               "normal", *argv, "--out", str(tmp_path / run_name)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), run_name
    assert (tmp_path / "xdg" / "scalefit").exists() == big  # the cold read wrote the entry a warm one reads
