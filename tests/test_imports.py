"""Nothing in the package is dead weight.

Every module-level import is used by the module itself (``__init__.py``
is skipped: its imports are the package's re-exports), every private
function or method is read somewhere in the package, private
attributes are read only through ``self`` or ``cls``, and no module
imports a private name from another module of the package.

Every public top-level name of every module, and every member of a
top-level class but its dunders (methods, properties, dataclass
fields), is read somewhere in the package, apart from the exemptions
in ``UNREAD_PUBLIC``.  An attribute ``x.name`` reads ``name`` wherever
it appears; a bare ``name`` reads it only in a module that defines or
imports ``name``, so a local variable that happens to share the name
is not a reader.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cohfun"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing in ``source`` reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) or hasattr(node, "returns"):
            # quoted annotations name imports too
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    names = ast.walk(ast.parse(ann.value))
                    used |= {n.id for n in names if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_sees_unused_and_quoted_names():
    source = "import os\nfrom typing import Callable\ndef f(x: 'Callable') -> None: pass\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_helpers(sources: list[str]) -> list[str]:
    """Private (``_name``, not dunder) functions and methods nothing reads."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(defined - read)


def test_checker_sees_an_unused_private_helper():
    source = "def _used(): pass\ndef _dead(): pass\nclass K:\n    def __init__(self): _used()\n"
    assert unused_private_helpers([source]) == ["_dead"]


def test_no_unused_private_helpers():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unused_private_helpers(sources) == []


def top_level_names(tree: ast.Module) -> dict[ast.AST, list[str]]:
    """Each top-level function, class or alias definition, with the names it binds."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node] = [node.name]
        elif isinstance(node, ast.Assign):
            defs[node] = [t.id for t in node.targets if isinstance(t, ast.Name)]
    return defs


def class_members(cls: ast.ClassDef) -> dict[ast.AST, list[str]]:
    """Each method, property, field or class attribute of ``cls``, dunders excluded."""
    members = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        members[node] = [n for n in names if not (n.startswith("__") and n.endswith("__"))]
    return members


def unread_public_names(sources: dict[str, str], checked: set[str]) -> list[str]:
    """Names defined in ``checked`` that nothing reads.

    Checked are the public top-level functions, classes and aliases,
    and every member of a top-level class but its dunders: methods,
    properties, dataclass fields.  ``sources`` maps file names to
    source text.  An attribute ``x.name`` loaded in any of them reads
    ``name``.  A bare ``name`` reads it only in a module that defines
    ``name`` at top level or imports it, so a local variable that
    shares a name defined elsewhere reads nothing.  No definition
    reads itself.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads: dict[str, set[int]] = {}
    for tree in trees.values():
        bound = {n: n for names in top_level_names(tree).values() for n in names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                bound |= {a.asname or a.name: a.name for a in node.names}
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name) and node.id in bound:
                reads.setdefault(bound[node.id], set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    unread = []
    for name in checked:
        for node, names in top_level_names(trees[name]).items():
            defs = {node: [n for n in names if not n.startswith("_")]}
            if isinstance(node, ast.ClassDef):
                defs |= class_members(node)
            for definition, bound_names in defs.items():
                own = {id(n) for n in ast.walk(definition)}
                unread += [n for n in bound_names if not reads.get(n, set()) - own]
    return sorted(unread)


def test_checker_sees_an_unread_public_name():
    sources = {
        "a.py": "def used(): pass\ndef dead(): return dead\nclass K: pass\nalias = used\n",
        "b.py": "from a import K\nimport a\nK()\na.used()\n",
    }
    assert unread_public_names(sources, {"a.py"}) == ["alias", "dead"]


def test_checker_ignores_a_local_that_shares_a_public_name():
    sources = {
        "a.py": "def vec(m): return m\n",
        "b.py": "def f(cols):\n    for vec in cols:\n        print(vec)\n",
    }
    assert unread_public_names(sources, {"a.py"}) == ["vec"]
    sources["c.py"] = "from a import vec as flatten\nflatten(1)\n"
    assert unread_public_names(sources, {"a.py"}) == []


def test_checker_sees_an_unread_field_and_method():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class K:\n"
        "    read: int\n"
        "    dead: int\n"
        "    def __len__(self): return self.read\n"
        "    def used(self): return self.read\n"
        "    def unused(self): return self.unused()\n"
        "K(1, 2).used()\n"
    )
    assert unread_public_names({"a.py": source}, {"a.py"}) == ["dead", "unused"]


# Public names the package itself never reads, each kept for a stated reader.
UNREAD_PUBLIC = {
    # the L0 acceptance criterion and tests/test_functors.py compare
    # tensor_functor and l0_functor against the tensor product of modules
    "tensor_module",
    # perfbench/tests pins this alias as a binding the tracer must reach
    "is_left_exact",
}


def test_public_library_names_are_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_public_names(sources, set(sources)) == sorted(UNREAD_PUBLIC)


def foreign_private_reads(source: str) -> list[str]:
    """Reads of ``obj._x`` (dunders excluded) where obj is not ``self`` or ``cls``."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_checker_sees_a_foreign_private_read():
    source = (
        "class K:\n"
        "    def f(self, other):\n"
        "        self._a = other._b + self._c + cls._d + other.__len__() + other.e\n"
    )
    assert foreign_private_reads(source) == ["other._b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_attributes_read_only_through_self(path):
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Private names (``_x``, dunders excluded) imported from a cohfun module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cohfun")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_checker_sees_a_private_import():
    source = (
        "from .linalg import Matrix, _matrix\n"
        "from cohfun.modules import _hidden\n"
        "from os import _exit\n"
        "from . import __version__\n"
    )
    assert private_imports(source) == ["_matrix", "_hidden"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
