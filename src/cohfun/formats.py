"""Structured encodings shared by the CLI and the verification layer.

Matrices travel as {"rows": r, "cols": c, "data": [...]} with row-major
flat data, so zero-sized matrices keep their dimensions.  A
``Workspace`` holds named modules, morphisms, functors and
transformations over one ring: it is what a workspace file parses to,
and instances added to one serialize into the small self-contained
workspace dictionaries that are also the re-run format for failure
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import BaseRing, Matrix
from .modules import FpModule, ModMorphism
from .functors import CoherentFunctor, NatMorphism


def ring_to_str(ring: BaseRing) -> str:
    return "Z" if ring.p is None else f"Fp:{ring.p}"


def ring_from_str(text: str) -> BaseRing:
    text = text.strip()
    if text == "Z":
        return BaseRing.integers()
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ValueError(f"bad ring {text!r}: expected Z or Fp:<prime>") from None
        return BaseRing.prime_field(p)
    raise ValueError(f"bad ring {text!r}: expected Z or Fp:<prime>")


def matrix_to_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "data": [x for row in m.entries for x in row],
    }


def matrix_from_obj(ring: BaseRing, obj, where: str = "matrix") -> Matrix:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object with rows/cols/data")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # type(...) is int: JSON true/false would pass isinstance(x, int)
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise ValueError(f"{where}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise ValueError(f"{where}: data must be a list of integers")
    if len(data) != rows * cols:
        raise ValueError(
            f"{where}: data length {len(data)} does not match {rows}x{cols}"
        )
    return Matrix(
        ring,
        rows,
        cols,
        tuple(tuple(data[i * cols : (i + 1) * cols]) for i in range(rows)),
    )


def render_matrix(m: Matrix) -> str:
    """Human-readable nested-list form used in reports."""
    return str(m.to_lists())


class WorkspaceError(ValueError):
    """Input problem; maps to exit code 2 and names the offending field."""


def _names(table: dict, key=lambda obj: obj) -> dict:
    """Reverse map from each entry's key to its name; the last name wins."""
    return {key(obj): name for name, obj in table.items()}


def _namer(table: dict, key=lambda obj: obj):
    """Name of a part ``table`` holds: by identity of the stored object
    first, so equal entries keep their own names, then by ``key`` for a
    part that ``add`` merged into an equal entry."""
    by_id = {id(obj): name for name, obj in table.items()}
    by_key = _names(table, key)
    return lambda obj: by_id[id(obj)] if id(obj) in by_id else by_key[key(obj)]


def _named(table: dict, prefix: str, obj, key=lambda obj: obj) -> str:
    """Name ``obj`` in ``table``: an entry with the same key keeps its name;
    otherwise, and always when ``key`` is None, ``obj`` enters under the
    first unused ``prefix<k>`` with k >= len(table)."""
    if key is not None and key(obj) in (names := _names(table, key)):
        return names[key(obj)]
    k = len(table)
    while f"{prefix}{k}" in table:
        k += 1
    table[f"{prefix}{k}"] = obj
    return f"{prefix}{k}"


@dataclass
class Workspace:
    """Named modules, morphisms, functors and transformations over one ring:
    a parsed workspace file, or a payload that ``add`` fills."""

    ring: BaseRing
    modules: dict[str, FpModule] = field(default_factory=dict)
    morphisms: dict[str, ModMorphism] = field(default_factory=dict)
    functors: dict[str, CoherentFunctor] = field(default_factory=dict)
    nats: dict[str, NatMorphism] = field(default_factory=dict)

    def module(self, name: str) -> FpModule:
        if name not in self.modules:
            raise WorkspaceError(f"unknown module {name!r}")
        return self.modules[name]

    def functor(self, name: str) -> CoherentFunctor:
        if name not in self.functors:
            raise WorkspaceError(f"unknown functor {name!r}")
        return self.functors[name]

    def add(self, obj) -> str:
        """Name ``obj`` and the parts it refers to, and return its name.

        An equal module or functor, or a morphism with the same
        ``key()``, keeps the name it has; every transformation gets a
        new one.  New names are ``M<k>``, ``f<k>``, ``pres<k>`` (a
        functor's presentation), ``F<k>`` and ``n<k>``.
        """
        if isinstance(obj, FpModule):
            return _named(self.modules, "M", obj)
        if isinstance(obj, ModMorphism):
            self.add(obj.source)
            self.add(obj.target)
            return _named(self.morphisms, "f", obj, ModMorphism.key)
        if isinstance(obj, CoherentFunctor):
            self.add(obj.source_module)
            self.add(obj.target_module)
            _named(self.morphisms, "pres", obj.pres, ModMorphism.key)
            return _named(self.functors, "F", obj)
        if isinstance(obj, NatMorphism):
            self.add(obj.source)
            self.add(obj.target)
            return _named(self.nats, "n", obj, key=None)
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    def to_dict(self) -> dict:
        module_name = _namer(self.modules)
        morphism_name = _namer(self.morphisms, ModMorphism.key)
        functor_name = _namer(self.functors)
        out = {
            "ring": ring_to_str(self.ring),
            "modules": {
                name: {"gens": m.gens, "rels": matrix_to_obj(m.rels)}
                for name, m in self.modules.items()
            },
            "morphisms": {
                name: {
                    "source": module_name(phi.source),
                    "target": module_name(phi.target),
                    "mat": matrix_to_obj(phi.mat),
                }
                for name, phi in self.morphisms.items()
            },
            "functors": {
                name: {"pres": morphism_name(f.pres)}
                for name, f in self.functors.items()
            },
            "nats": {
                name: {
                    "source": functor_name(alpha.source),
                    "target": functor_name(alpha.target),
                    "a": matrix_to_obj(alpha.a.mat),
                    "b": matrix_to_obj(alpha.b.mat),
                }
                for name, alpha in self.nats.items()
            },
        }
        return {key: value for key, value in out.items() if value}  # no empty sections


def instance_payload(obj) -> dict:
    """A re-runnable workspace dict for one instance or a nonempty list of them."""
    items = obj if isinstance(obj, (list, tuple)) else [obj]
    ws = Workspace(items[0].ring)
    for item in items:
        ws.add(item)
    return ws.to_dict()
