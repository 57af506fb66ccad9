"""The program imports only the standard library, numpy and itself.

numpy is the one runtime dependency, and the benchmark's reference
computations (``perfbench/reference.py``) stay independent of the program
only while the program never imports them.
"""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "nextloc").glob("*.py"))
ALLOWED = {"numpy", "nextloc"}


def imports(path):
    """(module root or None for a relative import, every dotted name part)
    of each import statement in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            yield (None if node.level else parts[0]), parts


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_itself(path):
    for root, parts in imports(path):
        assert "reference" not in parts, f"{path.name} imports {'.'.join(parts)}"
        if root is not None:
            assert root in ALLOWED or root in sys.stdlib_module_names, \
                f"{path.name} imports {root}"
