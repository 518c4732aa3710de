"""Every source file parses as the oldest Python pyproject.toml admits.

The suite itself runs on one newer interpreter, and
`ast.parse(feature_version=...)` rejects the grammar added since the
declared minimum (an `except*` clause under 3.10, say).  It checks syntax
only, not the standard library names a file uses.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/commvar", "tests", "demos", "tools")
               for p in (ROOT / d).glob("*.py"))
MINIMUM = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                   (ROOT / "pyproject.toml").read_text(), re.M).groups()))


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_the_minimum_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=MINIMUM)
