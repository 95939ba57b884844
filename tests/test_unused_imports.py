"""No module in ``src/`` or ``tests/`` imports a name it never reads.

No linter runs on this project, so an ``ast`` scan stands in for one: a
name bound by ``import`` or ``from ... import`` must appear as a ``Name``
somewhere in the same module (an attribute chain ``a.b`` reads ``a``) or
be listed in its ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read.update(e.value for e in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm as l\n__all__ = ['l']\n"
    assert unused_imports(source) == [(1, "os"), (2, "gcd")]


def test_no_module_imports_a_name_it_never_reads():
    found = {}
    for path in MODULES:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
