"""The README's examples run as written: the library-use block and the quick start's commands."""

import json
import re
from pathlib import Path

from scalefit.cli import build_parser, main, settings

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README text under the heading '## title', up to the next such heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", section("Library use"), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert re.search(r"^target ARE: \d\.\d{4}$", capsys.readouterr().out, re.M)


def test_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    quick_start = section("Quick start")
    config = re.search(r"^cat > synth\.yaml <<'EOF'\n(.*?)^EOF$", quick_start, re.S | re.M).group(1)
    commands = re.findall(r"^scalefit (.+)$", quick_start, re.M)
    assert [c.split()[0] for c in commands] == ["synth", "fit"]
    monkeypatch.chdir(tmp_path)
    Path("synth.yaml").write_text(config, encoding="utf-8")
    for command in commands:
        assert main(command.split()) == 0, capsys.readouterr().err
    assert json.loads(Path("run/fit_result.json").read_text())["fit"]["converged"] is True
    assert Path("run/eval_report.json").exists()


def test_configuration_block_reads_through_the_settings(tmp_path):
    # YAML 1.1 reads 1e10 and 1e-12 (no dot) as strings; the number rule reads them as the numbers they spell.
    (block,) = re.findall(r"```yaml\n(.*?)```", section("Configuration"), re.S)
    config = tmp_path / "config.yaml"
    config.write_text(block, encoding="utf-8")
    cfg = settings(build_parser().parse_args(["fit", "--config", str(config)]))
    assert cfg["subset"].cutoff_tokens == 10**10 and type(cfg["subset"].cutoff_tokens) is int
    assert cfg["fit"].tolerance == 1e-12
