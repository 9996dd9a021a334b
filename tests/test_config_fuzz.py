"""Random config documents and random logs through the commands: only the documented exits.

Documents are drawn over the known sections and keys, with values of every
YAML kind, so most fail a kind check and some run the command to the end.
Logs are drawn with counts from 1 to 1e100, far past 2**63, and every number
the fitting commands write must be finite.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scalefit.cli import CONFIG_KEYS, main  # noqa: E402

COMMANDS = ["fit", "eval", "grid", "transfer", "downscale", "cv", "pca", "synth"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(0, 1),
    st.floats(allow_nan=False, allow_infinity=True),
    st.just(float("nan")),
    st.sampled_from(["", "x", "alt", "best", "most-trained", "huber", "square", "1e7", "0.5", "3",
                     "1e-8", "2e9", "3.0", "nan", "inf"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["E", "A", "alpha", "B", "beta", "amplitude", "span_tokens", "x"]), inner,
                      max_size=5),
    max_leaves=8,
)
sections = {key: st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS[key])), values, max_size=2) | values
            for key in CONFIG_KEYS if key is not None}
documents = st.lists(st.sampled_from(sorted(CONFIG_KEYS[None])), max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: sections.get(key, values) for key in keys})
)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=30, deadline=None)
@given(document=documents)
def test_random_config_exits_with_a_documented_code(noiseless_csv, command, document):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.yaml"
        config.write_text(yaml.safe_dump(document), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(noiseless_csv), "--out", str(Path(tmp) / "out"),
                         "--config", str(config)])
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}


FITTING = [
    ["fit"],
    ["grid", "--num-models", "2,3", "--train-fractions", "0.5,1", "--no-svg"],
    ["cv"],
    ["downscale"],
]


@st.composite
def huge_logs(draw):
    """A CSV log of 3-6 runs with parameter and token counts up to 1e100 and losses in [0.01, 100]."""
    sizes = draw(st.lists(st.integers(1, 10**100), min_size=3, max_size=6, unique=True))
    lines = ["family_id,model_id,num_params,tokens_seen,total_tokens,loss"]
    for i, size in enumerate(sizes):
        total = draw(st.integers(1, 10**100))
        tokens = draw(st.lists(st.integers(1, total), min_size=1, max_size=5, unique=True))
        for t in tokens:
            lines.append(f"f,m{i},{size},{t},{total},{draw(st.floats(0.01, 100))!r}")
    return "\n".join(lines) + "\n"


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def assert_every_number_finite(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_float=_finite_number, parse_constant=_reject_constant)
    elif path.suffix == ".csv":
        for cell in (c for line in text.splitlines()[1:] for c in line.split(",")):
            try:
                value = float(cell)
            except ValueError:
                continue  # a text cell: an id or a failure reason
            assert math.isfinite(value), f"{path.name}: {cell}"


@pytest.mark.parametrize("command", FITTING, ids=[argv[0] for argv in FITTING])
@settings(max_examples=20, deadline=None)
@given(log=huge_logs())
def test_fitting_commands_write_only_finite_numbers(command, log):
    with tempfile.TemporaryDirectory() as tmp:
        source, out_dir = Path(tmp) / "log.csv", Path(tmp) / "out"
        source.write_text(log, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--input", str(source), "--out", str(out_dir)])
        assert code in (0, 3, 4)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
        for artifact in out_dir.glob("*") if out_dir.exists() else ():
            assert_every_number_finite(artifact)
