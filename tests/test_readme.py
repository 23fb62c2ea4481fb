"""The README's Python Quickstart runs against the current API."""

import re
from pathlib import Path

import pytest

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
