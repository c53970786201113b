"""The runtime is pure standard library: every import in ``src/bellops`` is a
module of the package itself or of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellops"


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {f"{path.name}: {name}" for path in sources for name in imported_modules(path)
               if name != "bellops" and name not in sys.stdlib_module_names}
    assert not outside, sorted(outside)


def test_a_third_party_import_is_seen(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os.path\nfrom . import x\nif True:\n    from numpy import linalg\n")
    assert imported_modules(source) == {"os", "numpy"}
    assert "numpy" not in sys.stdlib_module_names
