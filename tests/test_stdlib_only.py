"""The ``ybx`` package imports nothing outside the standard library.

Every module under ``src/ybx`` is parsed, not imported, and each absolute
import's top-level module must be one of ``sys.stdlib_module_names``;
relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ybx"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = sorted({name for name in _absolute_imports(path)
                      if name.split(".")[0] not in sys.stdlib_module_names})
    assert not outside
