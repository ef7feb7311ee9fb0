"""Structured encodings shared by the CLI and the verification layer.

Matrices travel as {"rows": r, "cols": c, "data": [...]} with row-major
flat data, so zero-sized matrices keep their dimensions.  Instances
(modules, morphisms, functors, transformations) serialize into small
self-contained workspace dictionaries, which is also the re-run format
for failure payloads.
"""

from __future__ import annotations

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


class PayloadBuilder:
    """Accumulates instances into one self-contained workspace dict."""

    def __init__(
        self,
        ring: BaseRing,
        modules: dict[str, FpModule] | None = None,
        morphisms: dict[str, ModMorphism] | None = None,
        functors: dict[str, CoherentFunctor] | None = None,
        nats: dict[str, NatMorphism] | None = None,
    ):
        """Start empty, or from instances that already have names."""
        self.ring = ring
        self.modules = dict(modules or {})
        self.morphisms = dict(morphisms or {})
        self.functors = dict(functors or {})
        self.nats = dict(nats or {})
        self._module_names = {m: n for n, m in self.modules.items()}
        self._morphism_names = {phi.key(): n for n, phi in self.morphisms.items()}
        self._functor_names = {f.pres.key(): n for n, f in self.functors.items()}

    def add_module(self, m: FpModule, hint: str = "M") -> str:
        if m in self._module_names:
            return self._module_names[m]
        name = f"{hint}{len(self.modules)}"
        self.modules[name] = m
        self._module_names[m] = name
        return name

    def add_morphism(self, phi: ModMorphism, hint: str = "f") -> str:
        key = phi.key()
        if key in self._morphism_names:
            return self._morphism_names[key]
        self.add_module(phi.source)
        self.add_module(phi.target)
        name = f"{hint}{len(self.morphisms)}"
        self.morphisms[name] = phi
        self._morphism_names[key] = name
        return name

    def add_functor(self, f: CoherentFunctor, hint: str = "F") -> str:
        key = f.pres.key()
        if key in self._functor_names:
            return self._functor_names[key]
        self.add_morphism(f.pres, hint="pres")
        name = f"{hint}{len(self.functors)}"
        self.functors[name] = f
        self._functor_names[key] = name
        return name

    def add_nat(self, alpha: NatMorphism, hint: str = "n") -> str:
        self.add_functor(alpha.source)
        self.add_functor(alpha.target)
        name = f"{hint}{len(self.nats)}"
        self.nats[name] = alpha
        return name

    def to_dict(self) -> dict:
        out: dict = {"ring": ring_to_str(self.ring)}
        if self.modules:
            out["modules"] = {
                name: {"gens": m.gens, "rels": matrix_to_obj(m.rels)}
                for name, m in self.modules.items()
            }
        if self.morphisms:
            out["morphisms"] = {
                name: {
                    "source": self._module_names[phi.source],
                    "target": self._module_names[phi.target],
                    "mat": matrix_to_obj(phi.mat),
                }
                for name, phi in self.morphisms.items()
            }
        if self.functors:
            out["functors"] = {
                name: {"pres": self._morphism_names[f.pres.key()]}
                for name, f in self.functors.items()
            }
        if self.nats:
            out["nats"] = {
                name: {
                    "source": self._functor_names[alpha.source.pres.key()],
                    "target": self._functor_names[alpha.target.pres.key()],
                    "a": matrix_to_obj(alpha.a.mat),
                    "b": matrix_to_obj(alpha.b.mat),
                }
                for name, alpha in self.nats.items()
            }
        return out


def instance_payload(obj, ring: BaseRing | None = None) -> dict:
    """A self-contained, re-runnable workspace dict for one instance."""
    if isinstance(obj, FpModule):
        b = PayloadBuilder(obj.ring)
        b.add_module(obj)
    elif isinstance(obj, ModMorphism):
        b = PayloadBuilder(obj.source.ring)
        b.add_morphism(obj)
    elif isinstance(obj, CoherentFunctor):
        b = PayloadBuilder(obj.ring)
        b.add_functor(obj)
    elif isinstance(obj, NatMorphism):
        b = PayloadBuilder(obj.source.ring)
        b.add_nat(obj)
    elif isinstance(obj, (list, tuple)):
        if ring is None:
            raise ValueError("payload for a collection needs an explicit ring")
        b = PayloadBuilder(ring)
        for item in obj:
            instance_into(b, item)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return b.to_dict()


def instance_into(b: PayloadBuilder, obj) -> str:
    if isinstance(obj, FpModule):
        return b.add_module(obj)
    if isinstance(obj, ModMorphism):
        return b.add_morphism(obj)
    if isinstance(obj, CoherentFunctor):
        return b.add_functor(obj)
    if isinstance(obj, NatMorphism):
        return b.add_nat(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
