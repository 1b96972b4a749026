"""Every imported name is used: a module under `src/tap3sim/` or `tests/`
that imports a name which no `ast.Name` in it reads fails here, so a
deletion cannot leave a stale import behind."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "tap3sim").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name that an import binds and nothing reads;
    `import a.b` binds `a`, and a `__future__` import binds nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import os.path\nfrom a import b as c, d\nd()\n")
    assert unused_imports(source) == [(3, "os"), (4, "c")]
