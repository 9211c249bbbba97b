"""The package parses under the oldest Python that ``pyproject.toml``
declares (``requires-python``)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_package_parses_at_the_declared_floor():
    floor = python_floor()
    paths = sorted((ROOT / "src" / "ccsynth").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
