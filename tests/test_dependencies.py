"""The package has no runtime dependencies: every import in src/ellstab is
from the standard library or from the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ellstab"


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." if node.level else node.module


def test_imports_are_standard_library_or_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for name in _imported_modules(path):
            top = name.split(".")[0]
            assert name == "." or top == "ellstab" or top in sys.stdlib_module_names, (path.name, name)
