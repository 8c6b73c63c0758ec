"""The README's library examples run as written.

Each fenced ``python`` block runs in a fresh directory whose ``data.csv``
is the embedded three-university dataset, so a renamed function or a
changed signature fails here instead of in the documentation.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from ranksig import data
from ranksig.siggraph import Grouping, SignificanceGraph

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k + 1}" for k in range(len(BLOCKS))])
def test_example_runs(code, tmp_path, monkeypatch):
    (tmp_path / "data.csv").write_text(data.trio_csv(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


@pytest.mark.parametrize("cls", [SignificanceGraph, Grouping], ids=lambda cls: cls.__name__)
def test_stated_constructor_fields(cls):
    """Each ``Cls(field, ...)`` the README states lists the dataclass's fields."""
    stated = re.findall(rf"`{cls.__name__}\(([^)`]*)\)`", TEXT)
    assert stated, f"the README states no {cls.__name__}(...) field list"
    fields = ", ".join(f.name for f in dataclasses.fields(cls))
    assert stated == [fields] * len(stated)
