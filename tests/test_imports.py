"""No module of the package imports a name it never reads.

No linter is installed, and a deletion easily leaves an import behind.
__init__.py is skipped: its imports are the public API.
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


def test_unread_imports_are_found():
    assert unread_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        (1, "math"), (2, "path")]
    assert unread_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_module_imports_a_name_it_never_reads():
    found = {path.name: unread_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
