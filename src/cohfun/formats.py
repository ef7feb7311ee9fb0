"""The workspace format, read and written, and the encodings it shares.

Matrices travel as {"rows": r, "cols": c, "data": [...]} with row-major
flat data, so zero-sized matrices keep their dimensions.  Probe
batteries, the ``--battery`` flag's and the defaults alike, are comma
lists such as ``Z, Z/2, Z+Z/2``.  A ``Workspace`` holds named modules,
morphisms, functors and transformations over one ring.
``parse_workspace`` reads one from a workspace file, checking each
section's entries against ``FIELDS``; instances added to one serialize
through ``to_dict`` into the small self-contained workspace dictionaries
that are also the re-run format for failure payloads.  Matrix
dimensions and free probe ranks above ``MAX_DIM`` are refused before
anything is allocated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .linalg import BaseRing, Matrix
from .modules import FpModule, ModMorphism, direct_sum
from .functors import CoherentFunctor, NatMorphism


# The largest matrix dimension or free probe rank read from outside: the
# bound BaseRing puts on a prime.
MAX_DIM = 2 ** 16

# Each section's entry fields, in the order error messages list them.
# Sections are read in this order, so names refer to earlier sections.
FIELDS = {
    "modules": ("gens", "rels"),
    "morphisms": ("source", "target", "mat"),
    "functors": ("pres",),
    "nats": ("source", "target", "a", "b"),
}


class WorkspaceError(ValueError):
    """Input problem; maps to exit code 2 and names the offending field."""


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


def probes_from_spec(ring: BaseRing, spec: str) -> tuple[FpModule, ...]:
    """The probes a comma list names: ``Z`` is the ring, ``Z^n`` and ``Z/d``
    its power and cyclic module, ``+`` sums them; ``Z/d`` is refused over
    F_p, and ``Z^n`` for n above ``MAX_DIM``."""
    probes = []
    for item in filter(None, map(str.strip, spec.split(","))):
        total = FpModule.zero(ring)
        for s in (s.strip() for s in item.split("+")):
            if s.startswith("Z/") and ring.is_field:
                raise ValueError(f"item {s!r} is not defined over {ring}")
            head, n = ("Z^", "1") if s == "Z" else (s[:2], s[2:])
            try:
                make, n = {"Z^": FpModule.free, "Z/": FpModule.cyclic}[head], int(n)
                part = make(ring, n) if head == "Z/" or n <= MAX_DIM else None
            except (KeyError, ValueError):
                raise ValueError(f"bad item {s!r}") from None
            if part is None:
                raise ValueError(f"item {s!r} is larger than Z^{MAX_DIM}")
            total = direct_sum(total, part)
        probes.append(total)
    if not probes:
        raise ValueError("no probes given")
    return tuple(probes)


def matrix_to_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "data": [x for row in m.entries for x in row],
    }


def matrix_from_obj(ring: BaseRing, obj, where: str) -> Matrix:
    if not isinstance(obj, dict):
        raise WorkspaceError(f"{where}: expected an object with rows/cols/data")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise WorkspaceError(f"{where}: missing fields {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # type(...) is int: JSON true/false would pass isinstance(x, int)
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise WorkspaceError(f"{where}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise WorkspaceError(f"{where}: data must be a list of integers")
    if len(data) != rows * cols:
        raise WorkspaceError(f"{where}: data length {len(data)} does not match {rows}x{cols}")
    if rows > MAX_DIM or cols > MAX_DIM:  # an n x 0 matrix still holds n rows
        raise WorkspaceError(f"{where}: rows/cols must be at most {MAX_DIM}")
    return Matrix(
        ring,
        rows,
        cols,
        tuple(tuple(data[i * cols : (i + 1) * cols]) for i in range(rows)),
    )


def render_matrix(m: Matrix) -> str:
    """Human-readable nested-list form used in reports."""
    return str(m.to_lists())


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


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise WorkspaceError(f"duplicate name {key!r}")
        seen[key] = value
    return seen


def _entries(raw: dict, section: str):
    """(name, where, spec) for each entry of ``section``, its field set checked."""
    entries = raw.get(section, {})
    if not isinstance(entries, dict):
        raise WorkspaceError(f"{section}: expected an object of named entries")
    fields = FIELDS[section]
    for name, spec in entries.items():
        where = f"{section}.{name}"
        if not isinstance(spec, dict) or spec.keys() != set(fields):
            plural = "s" if len(fields) > 1 else ""
            raise WorkspaceError(f"{where}: expected field{plural} {', '.join(fields)}")
        yield name, where, spec


def _built(where: str, make, *args):
    """``make(*args)``, its ValueError named after ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise WorkspaceError(f"{where}: {exc}") from None


def parse_workspace(text: str) -> Workspace:
    """Parse and fully validate one workspace file."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except WorkspaceError:
        raise
    except (ValueError, RecursionError) as exc:
        # nesting too deep to decode, or an integer literal too long to convert
        raise WorkspaceError(f"unreadable workspace: {exc}") from None
    if not isinstance(raw, dict):
        raise WorkspaceError("workspace must be a JSON object")
    unknown = set(raw) - {"ring", *FIELDS}
    if unknown:
        raise WorkspaceError(f"unknown top-level fields {sorted(unknown)}")
    if "ring" not in raw:
        raise WorkspaceError("workspace is missing the ring declaration")
    if not isinstance(raw["ring"], str):
        raise WorkspaceError("ring: expected a string such as Z or Fp:5")
    ring = _built("ring", ring_from_str, raw["ring"])
    ws = Workspace(ring=ring)

    def ref(spec: dict, key: str, section: str, where: str):
        name, kind, table = spec[key], section[:-1], getattr(ws, section)
        if not isinstance(name, str):
            raise WorkspaceError(f"{where}.{key}: expected a {kind} name")
        if name not in table:
            raise WorkspaceError(f"{where}.{key}: unknown {kind} {name!r}")
        return table[name]

    for name, where, spec in _entries(raw, "modules"):
        gens = spec["gens"]
        if type(gens) is not int or gens < 0:  # not isinstance: JSON true is a bool
            raise WorkspaceError(f"{where}.gens: expected a nonnegative integer")
        rels = matrix_from_obj(ring, spec["rels"], f"{where}.rels")
        ws.modules[name] = _built(where, FpModule, ring, gens, rels)
    for name, where, spec in _entries(raw, "morphisms"):
        src = ref(spec, "source", "modules", where)
        tgt = ref(spec, "target", "modules", where)
        mat = matrix_from_obj(ring, spec["mat"], f"{where}.mat")
        ws.morphisms[name] = _built(where, ModMorphism, src, tgt, mat)
    for name, where, spec in _entries(raw, "functors"):
        ws.functors[name] = CoherentFunctor(ref(spec, "pres", "morphisms", where))
    for name, where, spec in _entries(raw, "nats"):
        src = ref(spec, "source", "functors", where)
        tgt = ref(spec, "target", "functors", where)
        a = matrix_from_obj(ring, spec["a"], f"{where}.a")
        b = matrix_from_obj(ring, spec["b"], f"{where}.b")
        ws.nats[name] = _built(where, lambda: NatMorphism(
            src, tgt, ModMorphism(tgt.source_module, src.source_module, a),
            ModMorphism(tgt.target_module, src.target_module, b)))
    return ws
