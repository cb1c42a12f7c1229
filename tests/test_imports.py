"""No module of the package or test file imports a name it never reads,
no package module imports a private name of another, no public name or
package module is read only by tests, and every private top-level name
is read by the package.

No linter is installed, and a deletion easily leaves an import behind.
The unread-import check skips the package's __init__.py: its imports are
the public API.
"""

import ast
from pathlib import Path

import sievelab

PACKAGE = Path(sievelab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


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
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    found = {str(path.relative_to(ROOT)): unread_imports(path.read_text())
             for path in paths + sorted(TESTS.glob("*.py"))}
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


def references(node):
    """Every name, attribute name and imported name under node, and every
    string that spells an identifier: the benchmark's tracer wraps
    functions by name, through getattr."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and str(sub.value).isidentifier():
            found.add(sub.value)
    return found


def unread_names(modules, readers, defines):
    """"module.name" of each name that defines(statement) gives for a
    top-level statement of modules ({module: source}) and that neither
    readers (sources) nor any module reads, outside the name's own
    definition."""
    bodies = {mod: ast.parse(source).body for mod, source in modules.items()}
    refs = {mod: [references(stmt) for stmt in body] for mod, body in bodies.items()}
    outside = set().union(*(references(ast.parse(source)) for source in readers))
    found = []
    for mod, body in bodies.items():
        read = outside.union(*(r for other, rs in refs.items() if other != mod for r in rs))
        for i, stmt in enumerate(body):
            elsewhere = read.union(*(r for j, r in enumerate(refs[mod]) if j != i))
            found += [f"{mod}.{name}" for name in defines(stmt) if name not in elsewhere]
    return sorted(found)


def public_definitions(stmt):
    """The public function or class a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
        return [stmt.name]
    return []


def unread_public_names(modules, readers):
    return unread_names(modules, readers, public_definitions)


def private_definitions(stmt):
    """The private function, class or module constants a top-level
    statement defines; dunder names are not private."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_unread_public_names_are_found():
    modules = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
                    "def h():\n    return h()\n\nclass K:\n    pass\n\n"
                    "def _p():\n    pass\n",
               "b": "import a\n\ndef j():\n    return a.K()\n"}
    assert unread_public_names(modules, ["from sievelab.a import f\nimport b.j\n"]) == ["a.h"]
    assert unread_public_names(modules, ["import a\na.f\ngetattr(b, 'j')\nprint('h ')\n"]) == [
        "a.h"]
    assert unread_public_names(modules, []) == ["a.f", "a.h", "b.j"]


def test_unread_private_names_are_found():
    modules = {"a": "_K = 1\n_L: int = 2\n__all__ = []\n\n"
                    "def _f():\n    return _g() + _K\n\n"
                    "def _g():\n    return _g()\n\nclass _C:\n    pass\n\n"
                    "def h():\n    pass\n",
               "b": "import a\n\ndef j():\n    return a._C\n\n_M = 3\n"}
    assert unread_names(modules, [], private_definitions) == ["a._L", "a._f", "b._M"]
    assert unread_names(modules, ["a._f\nfrom b import _M\n"], private_definitions) == [
        "a._L"]


def package_modules():
    """{name: source} of every package module but __init__.py."""
    return {path.stem: path.read_text()
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def outside_readers():
    """The sources that read the package from outside it: the benchmark
    but its own tests, and the acceptance criteria."""
    readers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
               if path.name != "test_perfbench.py"]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    return readers


def test_no_public_name_is_read_only_by_tests():
    """Readers are the package modules but __init__.py, the benchmark but
    its own tests, and the acceptance criteria."""
    assert unread_public_names(package_modules(), outside_readers()) == []


def imported_modules(source):
    """The package modules that source imports: `from . import m`,
    `from .m import x`, `from sievelab import m`, `from sievelab.m import
    x` and `import sievelab.m` all give m. (`from sievelab import x` also
    gives x where x is not a module, which names no module here.)"""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [f"sievelab.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("sievelab."))
    return found


def unimported_modules(modules, readers):
    """Each module of modules ({name: source}) that neither another module
    nor any of readers (sources) imports."""
    imports = {mod: imported_modules(source) for mod, source in modules.items()}
    outside = set().union(*map(imported_modules, readers))
    return sorted(mod for mod in modules
                  if mod not in outside.union(*(imports[o] for o in modules if o != mod)))


def test_unimported_modules_are_found():
    modules = {"a": "from . import b\nimport a\n", "b": "from .c import f\n", "c": "",
               "d": "", "e": "", "f": "", "g": "from .a import x\n"}
    readers = ["from sievelab import d\n", "import sievelab.e as e\n",
               "from sievelab.f import y\nimport os.g\nfrom os import g\n"]
    assert unimported_modules(modules, readers) == ["g"]
    assert unimported_modules(modules, []) == ["d", "e", "f", "g"]


def test_no_package_module_is_imported_only_by_tests():
    """A module no package module, benchmark file or acceptance criterion
    imports is code that only its own tests run."""
    assert unimported_modules(package_modules(), outside_readers()) == []


def test_no_private_name_is_read_only_by_tests():
    """A private top-level function, class or constant that no statement
    of the package reads is dead code; tests may still monkeypatch it."""
    readers = [(PACKAGE / "__init__.py").read_text()]
    assert unread_names(package_modules(), readers, private_definitions) == []
