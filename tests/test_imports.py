"""No module of usbvet imports a name it never uses, and no module defines a
private name that nothing uses. No linter is a dependency, and deleting code
tends to leave orphan imports and helpers behind, so this reads each module
with ``ast``: every name an import statement binds must appear as a name
somewhere else in that module, and every module-level ``_name`` must be read
somewhere in the package, as a name or as an attribute (``isa._SPEC_BYTES``).
Every module-level public function, class and constant must also be read
outside ``tests/``, in the package, ``bench/`` or ``demos/``: a helper or a
constant that only tests read is deleted, not kept for them."""

import ast
import pathlib

import usbvet

SRC = pathlib.Path(usbvet.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent

# Public names that only tests read, each with why it stays.
TEST_ONLY: dict[str, str] = {}


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


def names_read(tree: ast.AST) -> set[str]:
    """Every name tree reads, as a name or as an attribute."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def module_names(tree: ast.Module) -> list[str]:
    """The names tree's top level defines: its functions, classes and
    assignment targets."""
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def orphan_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name` for each module-level `_name` of `sources` (module name
    -> source text) that no module reads."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        defined += [(module, name) for name in module_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        read |= names_read(tree)
    return [f"{module}: {name}" for module, name in defined
            if name not in read]


def public_names_read_only_by_tests(package: dict[str, str],
                                    outside: list[str]) -> list[str]:
    """`module: name` for each module-level public function, class or
    constant of `package` (module name -> source text) that no source of the
    package or of `outside` reads: as a name, as an attribute, or as a
    string equal to it (the name a `getattr` table gives)."""
    read: set[str] = set()
    for source in [*package.values(), *outside]:
        tree = ast.parse(source)
        read |= names_read(tree)
        read.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str))
    return [f"{module}: {name}"
            for module, source in sorted(package.items())
            for name in module_names(ast.parse(source))
            if not name.startswith("_") and name not in read]


def test_public_names_read_only_by_tests_are_found():
    package = {"a": "def f(): pass\ndef g(): pass\nclass C: pass\n"
                    "def h(): return g\nX = 1\nY: int = 2\nZ = X\n"
                    "def _p(): pass\n",
               "b": "class D: pass\n"}
    outside = ["from usbvet import a\nprint(a.C, a.Z)\n",
               "TABLE = [(b, 'D')]\n"]
    assert public_names_read_only_by_tests(package, outside) == [
        "a: f", "a: h", "a: Y"]


def test_every_public_name_is_read_outside_tests():
    package = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    outside = [path.read_text() for folder in ("bench", "demos")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert public_names_read_only_by_tests(package, outside) == sorted(
        TEST_ONLY)


def test_orphan_private_names_are_found():
    sources = {"a": "_X = 1\n_Y: int = 2\ndef _f(): pass\nclass _C: pass\n"
                    "def g(): return _f()\n",
               "b": "from . import a\nprint(a._Y, _C)\n__all__ = []\n"}
    assert orphan_private_names(sources) == ["a: _X"]


def test_no_module_defines_a_private_name_nothing_reads():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert orphan_private_names(sources) == []


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b as c\n") == [
        "line 1: os", "line 2: c"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join('a')\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: rows for name, rows in found.items() if rows} == {}
