"""No module in ``src/`` or ``tests/`` imports a name it never reads, and
no private or public name of the package is left unread.

No linter runs on this project, so ``ast`` scans stand in for one: a
name bound by ``import`` or ``from ... import`` must appear as a ``Name``
somewhere in the same module (an attribute chain ``a.b`` reads ``a``) or
be listed in its ``__all__``; a private name (``_name``) that a
module of ``src/odecartan`` binds at its top level must be read, as a
``Name`` or as an attribute, somewhere in ``src/`` or ``tests/``; and a
public name that such a module binds at its top level must be read
somewhere in ``src/``, listed in an ``__all__`` there, or named in
``README.md``, so that a name only the tests read lives in the tests.  And
the monomial encoding stays inside ``poly``: no other module of the
package imports one of its layout names or its slot registry
(``MONOMIAL_HELPERS``), or reads one as an attribute.  A monomial is one
packed ``int``, and the other modules build, read, split and multiply it
only through ``poly.monomial``, ``poly.factors``, ``poly.mask`` and
``poly.add_product``: the put-in (``expression._subst_poly``), the
evaluation at a point (``expression._eval_poly``) and the invariant
table's decode, walk, residues and certificates.  Rendering is
``Poly.render``, the one writer of the grammar.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "odecartan"


def exported_names(source):
    """The names that ``source`` lists in an ``__all__``."""
    return {
        e.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for e in node.value.elts
    }


def unused_imports(source):
    """(line, name) of every imported name that ``source`` never reads."""
    imported = {}
    read = exported_names(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def top_level_names(source):
    """{name: line} of each name ``source`` binds at its top level by
    ``def``, ``class`` or assignment, dunder names left out."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


def read_names(source):
    """Every name ``source`` reads, as a ``Name`` or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def dead_names(source, read, private):
    """(line, name) of every private (or, with ``private`` false, public)
    name ``source`` binds at its top level that is not in ``read``."""
    return sorted(
        (line, name)
        for name, line in top_level_names(source).items()
        if name.startswith("_") == private and name not in read
    )


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


def test_the_scan_sees_a_dead_private_name():
    source = (
        "_USED = 1\n_DEAD, __all__ = 2, []\n"
        "def _helper():\n    return _USED\n"
        "class _Unread:\n    _attr = 0\n"
    )
    reader = "import m\nm._helper()\n_Unread = None\n"
    read = read_names(source) | read_names(reader)
    assert dead_names(source, read, private=True) == [(2, "_DEAD"), (5, "_Unread")]


def test_every_private_name_of_the_package_is_read():
    read = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in MODULES))
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        dead = dead_names(path.read_text(encoding="utf-8"), read, private=True)
        if dead:
            found[str(path.relative_to(ROOT))] = dead
    assert found == {}


def test_the_scan_sees_a_dead_public_name():
    source = (
        "USED, EXPORTED = 1, 2\nDEAD = 3\n__all__ = ['EXPORTED']\n"
        "def helper():\n    return USED\n"
        "def documented():\n    pass\n"
        "class Unread:\n    attr = 0\n_private = 4\n"
    )
    read = read_names(source) | exported_names(source) | {"documented"}
    assert dead_names(source, read, private=False) == [(2, "DEAD"), (4, "helper"), (8, "Unread")]


def test_every_public_name_of_the_package_is_read_exported_or_documented():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(read_names, sources), *map(exported_names, sources))
    read |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    found = {}
    for path, source in zip(sorted(PACKAGE.glob("*.py")), sources):
        dead = dead_names(source, read, private=False)
        if dead:
            found[str(path.relative_to(ROOT))] = dead
    assert found == {}


# The layout of a packed monomial and the slot registry of ``poly``: the
# field width and masks, the registry and its lock, and the helpers that
# read fields.  Other modules go through ``monomial``, ``factors``,
# ``mask`` and ``add_product``.
MONOMIAL_HELPERS = {
    "_WIDTH", "_FIELD", "_GUARDS", "_LOWS", "_SLOTS", "_SYMS", "_LOCK", "_slot",
    "_occupied", "_ordered", "_support", "_at_least", "_field_min", "_mono_content",
    "_degrees", "_top", "_grlex", "_mono_text",
}


def monomial_helpers_used(source):
    """The encoding helpers ``source`` imports by name or reads as an
    attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return sorted(used & MONOMIAL_HELPERS)


def test_the_scan_sees_a_monomial_helper():
    source = "from .poly import Poly, _slot\nfrom . import poly\npoly._FIELD << poly._WIDTH\n"
    assert monomial_helpers_used(source) == ["_FIELD", "_WIDTH", "_slot"]


def test_the_encoding_helpers_are_poly_names():
    body = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8")).body
    names = {t.id for node in body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    names |= {node.name for node in body if isinstance(node, ast.FunctionDef)}
    assert MONOMIAL_HELPERS <= names


def test_only_poly_multiplies_monomials():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        used = monomial_helpers_used(path.read_text(encoding="utf-8"))
        if used and path.name != "poly.py":
            found[str(path.relative_to(ROOT))] = used
    assert found == {}
