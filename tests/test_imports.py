"""Nothing in the package is dead weight.

Every module-level import is used by the module itself (``__init__.py``
is skipped: its imports are the package's re-exports), every private
function or method is read somewhere in the package, private
attributes are read only through ``self`` or ``cls``, and no module
imports a private name from another module of the package.

Every public top-level name of every module, and every member of a
top-level class but its dunders (methods, properties, dataclass
fields), is read somewhere in the package, apart from the exemptions
in ``UNREAD_PUBLIC``.  An attribute ``x.name`` whose receiver ``x``
resolves to a class reads that class's member ``name`` only; one whose
receiver does not resolve reads ``name`` wherever it appears.  A bare
``name`` reads it only in a module that defines or imports ``name``,
so a local variable that happens to share the name is not a reader.

The same holds for the test suite: every public top-level helper or
constant in ``tests/`` is read somewhere, apart from what pytest reads
itself (``test_*`` functions, ``Test*`` classes and fixtures).
"""

import ast
from collections import ChainMap
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


def annotated_type(ann: ast.AST | None, classes) -> str | tuple | None:
    """The type an annotation names: one of ``classes``, or a tuple of types.

    ``C``, ``"C"`` and ``C | None`` name the class C, ``tuple[A, B]``
    names ``(A, B)``, and anything else names no type (None).
    """
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if isinstance(ann, ast.Name):
        return ann.id if ann.id in classes else None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        sides = [s for s in (ann.left, ann.right) if not is_constant(s, None)]
        return annotated_type(sides[0], classes) if len(sides) == 1 else None
    if (
        isinstance(ann, ast.Subscript)
        and isinstance(ann.value, ast.Name)
        and ann.value.id == "tuple"
        and isinstance(ann.slice, ast.Tuple)
        and not any(is_constant(e, Ellipsis) for e in ann.slice.elts)
    ):
        return tuple(annotated_type(e, classes) for e in ann.slice.elts)
    return None


def is_constant(node: ast.AST, value) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def class_table(trees) -> dict[str, dict[str, tuple[str | None, object]]]:
    """Each top-level class's members, as name -> (how it is read, type).

    A field, property or class attribute is read as a ``"value"`` of its
    annotated type; a method is ``"call"``-ed and gives its return type.
    """
    defs = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    names = {node.name for node in defs}
    table = {}
    for cls in defs:
        members = table.setdefault(cls.name, {})
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members[node.target.id] = ("value", annotated_type(node.annotation, names))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {ast.unparse(d).split(".")[-1] for d in node.decorator_list}
                how = "value" if decorators & {"property", "cached_property"} else "call"
                members[node.name] = (how, annotated_type(node.returns, names))
            elif isinstance(node, ast.Assign):
                members |= {t.id: ("value", None) for t in node.targets if isinstance(t, ast.Name)}
    return table


def return_types(trees, classes) -> dict[str, object]:
    """The annotated return type of each top-level function; None where names clash."""
    found: dict[str, set] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(node.name, set()).add(annotated_type(node.returns, classes))
    return {name: types.pop() if len(types) == 1 else None for name, types in found.items()}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scope_nodes(node: ast.AST):
    """The nodes under ``node`` outside any nested function or class body."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            yield from scope_nodes(child)


class Receivers:
    """The class of each attribute's receiver in one module, where it resolves.

    A receiver resolves through ``self`` (and ``cls``), an annotated
    parameter, a class name, a field or property of a resolved
    receiver, a call of a class or of a function or method with an
    annotated return type, and a variable all of whose bindings in its
    scope resolve, alike, through one of these.  A tuple display or a
    ``tuple[...]`` annotation has a tuple type, whose elements tuple
    unpacking and constant subscripts pick.
    ``found`` maps the id of each resolved attribute node to its class.
    """

    def __init__(self, tree: ast.Module, bound: dict[str, str], classes, returns):
        self.bound, self.classes, self.returns = bound, classes, returns
        self.found: dict[int, str] = {}
        self.visit(tree, self.scope(tree, ChainMap(), None))

    def member(self, cls, attr: str) -> tuple[str | None, object]:
        return self.classes[cls].get(attr, (None, None)) if isinstance(cls, str) else (None, None)

    def type_of(self, expr: ast.AST, env: ChainMap):
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            name = self.bound.get(expr.id)
            return name if name in self.classes else None
        if isinstance(expr, ast.Attribute):
            how, t = self.member(self.type_of(expr.value, env), expr.attr)
            return t if how == "value" else None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id not in env:
                name = self.bound.get(func.id)
                return name if name in self.classes else self.returns.get(name)
            if isinstance(func, ast.Attribute):
                how, t = self.member(self.type_of(func.value, env), func.attr)
                return t if how == "call" else None
        if isinstance(expr, ast.Tuple):
            return tuple(self.type_of(e, env) for e in expr.elts)
        if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Constant):
            t, i = self.type_of(expr.value, env), expr.slice.value
            if isinstance(t, tuple) and isinstance(i, int) and -len(t) <= i < len(t):
                return t[i]
        return None

    def scope(self, node: ast.AST, parent: ChainMap, cls: str | None) -> ChainMap:
        """``parent`` with the variables ``node`` binds, each typed or None."""
        declared: dict[str, set] = {}  # types bound without a value to resolve
        values: dict[str, list] = {}  # (value, None) or (value, (index, width))

        def declare(name: str, t) -> None:
            declared.setdefault(name, set()).add(t)

        if isinstance(node, FUNCTIONS):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg in positional + args.kwonlyargs:
                declare(arg.arg, annotated_type(arg.annotation, self.classes))
            for arg in (args.vararg, args.kwarg):
                if arg:
                    declare(arg.arg, None)
            decorators = getattr(node, "decorator_list", [])
            if cls and positional and "staticmethod" not in map(ast.unparse, decorators):
                declared[positional[0].arg] = {cls}
        assigned = set()
        for child in scope_nodes(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else None
                    if isinstance(target, ast.Name):
                        values.setdefault(target.id, []).append((child.value, None))
                        assigned.add(id(target))
                    elif elts and all(isinstance(e, ast.Name) for e in elts):
                        for i, e in enumerate(elts):
                            values.setdefault(e.id, []).append((child.value, (i, len(elts))))
                            assigned.add(id(e))
            elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                declare(child.target.id, annotated_type(child.annotation, self.classes))
                assigned.add(id(child.target))
        for child in scope_nodes(node):
            # loop, with, comprehension and walrus targets, and the like
            if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
                if id(child) not in assigned:
                    declare(child.id, None)
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                for name in child.names:
                    declare(name, None)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                declare(child.name, None)
        names = declared.keys() | values.keys()
        env = parent.new_child(dict.fromkeys(names))
        for _ in range(len(names) + 1):
            changed = False
            for name in names:
                types = declared.get(name, set()) | {
                    self.value_type(value, pick, env) for value, pick in values.get(name, ())
                }
                t = types.pop() if len(types) == 1 else None
                changed |= env.maps[0][name] != t
                env.maps[0][name] = t
            if not changed:
                break
        return env

    def value_type(self, value: ast.AST, pick: tuple[int, int] | None, env: ChainMap):
        """The type of ``value``, or of its element ``index`` when unpacked ``width`` ways."""
        t = self.type_of(value, env)
        if pick is None:
            return t
        i, width = pick
        return t[i] if isinstance(t, tuple) and len(t) == width else None

    def visit(self, node: ast.AST, env: ChainMap, cls: str | None = None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self.visit(child, env, child.name if child.name in self.classes else None)
            elif isinstance(child, FUNCTIONS):
                method_of = cls if not isinstance(child, ast.Lambda) else None
                self.visit(child, self.scope(child, env, method_of))
            else:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    t = self.type_of(child.value, env)
                    if isinstance(t, str) and child.attr in self.classes[t]:
                        self.found[id(child)] = t
                self.visit(child, env, cls)


def unread_public_names(
    sources: dict[str, str], checked: set[str], skipped: frozenset[str] = frozenset()
) -> list[str]:
    """Names defined in ``checked`` that nothing reads.

    Checked are the public top-level functions, classes and aliases,
    and every member of a top-level class but its dunders: methods,
    properties, dataclass fields.  A top-level definition named in
    ``skipped`` is not checked, and neither are its members.
    ``sources`` maps file names to source text.  An attribute
    ``x.name`` loaded in any of them reads the member ``name`` of x's
    class where ``Receivers`` resolves x, and reads ``name`` otherwise.
    A bare ``name`` reads it only in a module that defines ``name`` at
    top level or imports it, so a local variable that shares a name
    defined elsewhere reads nothing.  No definition reads itself.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    classes = class_table(trees.values())
    returns = return_types(trees.values(), classes)
    # keyed by name, or by (class, member) for a resolved receiver
    reads: dict[str | tuple[str, str], set[int]] = {}
    for tree in trees.values():
        bound = {n: n for names in top_level_names(tree).values() for n in names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                bound |= {a.asname or a.name: a.name for a in node.names}
        receivers = Receivers(tree, bound, classes, returns).found
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name) and node.id in bound:
                reads.setdefault(bound[node.id], set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                cls = receivers.get(id(node))
                reads.setdefault((cls, node.attr) if cls else node.attr, set()).add(id(node))
    unread = []
    for name in checked:
        for node, names in top_level_names(trees[name]).items():
            if set(names) & skipped:
                continue
            defs = {node: [n for n in names if not n.startswith("_")]}
            if isinstance(node, ast.ClassDef):
                defs |= class_members(node)
            for definition, bound_names in defs.items():
                own = {id(n) for n in ast.walk(definition)}
                owner = node.name if definition is not node else None
                unread += [
                    n
                    for n in bound_names
                    if not (reads.get(n, set()) | reads.get((owner, n), set())) - own
                ]
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


RECEIVERS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class Box:\n"
    "    size: int\n"
    "    def grow(self) -> 'Box':\n"
    "        return Box(self.size + 1)\n"
    "@dataclass\n"
    "class Crate:\n"
    "    size: int\n"
    "    box: Box\n"
    "    label: str\n"
    "def pack() -> tuple[Box, Crate]:\n"
    "    return Box(1), Crate(2, Box(0), 'c')\n"
    "def ship(crate: Crate | None):\n"
    "    _, spare = pack()\n"
    "    return crate.box.grow(), spare.label\n"
    "ship(None)\n"
)


def test_checker_resolves_receivers():
    # self.size reads Box.size only; crate.box (an annotated parameter),
    # .grow() on that field, and spare.label (unpacked from an annotated
    # return) are each read through the class they resolve to
    assert unread_public_names({"a.py": RECEIVERS}, {"a.py"}) == ["size"]


def test_checker_counts_an_unresolved_receiver_by_name():
    reader = "def weigh(thing):\n    return thing.size\n"
    assert unread_public_names({"a.py": RECEIVERS + reader}, {"a.py"}) == ["weigh"]
    rebound = "def weigh(crate: Crate):\n    crate = pack()\n    return crate.size\n"
    assert unread_public_names({"a.py": RECEIVERS + rebound}, {"a.py"}) == ["weigh"]


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
    # perfbench/tests pins this alias as a binding the tracer must reach
    "is_left_exact",
}


def test_public_library_names_are_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_public_names(sources, set(sources)) == sorted(UNREAD_PUBLIC)


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def collected_by_pytest(source: str) -> set[str]:
    """Top-level names pytest reads itself: ``test_*``, ``Test*`` and fixtures."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (
            node.name.startswith(("test_", "Test"))
            or any("fixture" in ast.unparse(d) for d in node.decorator_list)
        )
    }


def test_checker_skips_what_pytest_collects():
    source = (
        "import pytest\n"
        "LIMIT = 3\n"
        "def helper(): pass\n"
        "@pytest.fixture\n"
        "def ring(): pass\n"
        "def test_a(ring): assert LIMIT\n"
        "class TestK:\n"
        "    def test_b(self): pass\n"
    )
    skipped = frozenset(collected_by_pytest(source))
    assert skipped == {"ring", "test_a", "TestK"}
    assert unread_public_names({"t.py": source}, {"t.py"}, skipped) == ["helper"]


def test_test_helpers_are_read():
    """Every public top-level helper or constant in ``tests/`` is read somewhere."""
    tests = {f"tests/{p.name}": p.read_text(encoding="utf-8") for p in TESTS}
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES} | tests
    skipped = frozenset().union(*map(collected_by_pytest, tests.values()))
    assert unread_public_names(sources, set(tests), skipped) == []


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
