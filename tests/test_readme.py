"""The README's Python Quickstart and config example run against the current code."""

import re
from pathlib import Path

import pytest

from harmcont.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_the_two_quickstart_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_quickstart_block_runs(capsys, index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
    out = capsys.readouterr().out.split()
    assert len(out) == 2, out
    if index == 0:
        assert out[1] == "2"  # two solutions above the global minimum
    else:
        assert out[1] == "True"  # converged


def test_config_example_runs(tmp_path):
    # the ini block under "Config file format", inline comments included
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M)
    cfg = tmp_path / "example.cfg"
    cfg.write_text(block)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "solutions at mu* = 1.5" in (tmp_path / "out" / "analysis.txt").read_text()
