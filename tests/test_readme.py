"""The README's library examples run as written.

Each fenced ``python`` block runs in a fresh directory whose ``data.csv``
is the embedded three-university dataset, so a renamed function or a
changed signature fails here instead of in the documentation.
"""

import re
from pathlib import Path

import pytest

from ranksig import data

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k + 1}" for k in range(len(BLOCKS))])
def test_example_runs(code, tmp_path, monkeypatch):
    (tmp_path / "data.csv").write_text(data.trio_csv(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
