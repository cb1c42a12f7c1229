"""No module of the package imports a name it never reads, or a private
name of another package module.

No linter is installed, and a deletion easily leaves an import behind.
The unread-import check skips __init__.py: its imports are the public API.
"""

import ast
from pathlib import Path

import sievelab

PACKAGE = Path(sievelab.__file__).parent


def unread_imports(source):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def private_imports(source):
    """(line, name) of each underscore name imported from the package."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "sievelab")
                  for alias in node.names if alias.name.startswith("_"))


def test_unread_imports_are_found():
    assert unread_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        (1, "math"), (2, "path")]
    assert unread_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_module_imports_a_name_it_never_reads():
    found = {path.name: unread_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_imports_are_found():
    assert private_imports("from .walker import _CHUNK, run_walk\nfrom os import _exit\n"
                           "from sievelab.prng import _TILE\nfrom . import _x\n") == [
        (1, "_CHUNK"), (3, "_TILE"), (4, "_x")]
    assert private_imports("from __future__ import annotations\nfrom . import prng\n") == []


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
