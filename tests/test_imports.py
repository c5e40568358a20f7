"""Every library module uses each name it imports.

Names listed in a module's ``__all__`` are exports, and ``__init__.py`` is the
package's re-export list, so both count as used.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "twinfo"


def unused_imports(source: str) -> list:
    """Names imported by ``source`` that it never reads, with the import's line."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_dead_names():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.pi\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
