"""The package depends on the Python standard library only: every import
in ``src/provopt`` names a standard-library module or the package itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "provopt"


def _imported_modules(tree: ast.AST):
    """(line, top-level module name) of each absolute import; a relative
    import is from the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_standard_library_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in modules
               for line, name in _imported_modules(ast.parse(path.read_text(), str(path)))
               if name not in sys.stdlib_module_names and name != "provopt"]
    assert foreign == []


def test_the_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom numpy.linalg import norm\nfrom . import algebra\n")
    names = [name for _, name in _imported_modules(tree)]
    assert names == ["os", "numpy"]
    assert "numpy" not in sys.stdlib_module_names
