"""No module of usbvet imports a name it never uses. No linter is a
dependency, and deleting code tends to leave orphan imports behind, so this
reads each module with ``ast``: every name an import statement binds must
appear as a name somewhere else in that module."""

import ast
import pathlib

import usbvet

SRC = pathlib.Path(usbvet.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for line, name in sorted((ln, n) for n, ln in bound.items())
            if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b as c\n") == [
        "line 1: os", "line 2: c"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join('a')\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: rows for name, rows in found.items() if rows} == {}
