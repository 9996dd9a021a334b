"""Random config documents through every configurable command: only the documented exits.

Documents are drawn over the known sections and keys, with values of every
YAML kind, so most fail a kind check and some run the command to the end.
"""

import contextlib
import io
import json
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
    st.sampled_from(["", "x", "alt", "best", "most-trained", "huber", "square", "1e7", "0.5", "3"]),
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
