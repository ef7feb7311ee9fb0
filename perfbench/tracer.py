"""Per-layer tracing of cohfun from outside the package.

The tracer replaces every ``cohfun.*`` binding of each measured entry
point with a wrapper and puts the originals back afterwards.  Each
wrapped call is a span on a stack; when it closes, its duration minus
the time its child spans covered is added to the entry point's self
time.  Spans are aggregated as they close rather than stored one by
one, because the hot constructors (``Matrix.__post_init__``) run
hundreds of thousands of times per workload.

Argument reuse (``.reuse``) is 1 - distinct arguments / calls, counted
by the wrapper itself so that it does not depend on how or whether the
program caches.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# metric prefix -> dotted path of the measured object.  A path of four
# parts names a method in the class's own __dict__, so an inherited
# attribute cannot stand in for one that was removed.
ENTRY_POINTS: dict[str, str] = {
    "linalg.snf": "cohfun.linalg.smith_normal_form",
    "linalg.solve_matrix": "cohfun.linalg.solve_matrix",
    "linalg.hermite_basis": "cohfun.linalg.hermite_basis",
    "linalg.preimage_lattice": "cohfun.linalg.preimage_lattice",
    "linalg.kron": "cohfun.linalg.kron",
    "linalg.matmul": "cohfun.linalg.Matrix.__matmul__",
    "linalg.matrix_new": "cohfun.linalg.Matrix.__post_init__",
    "modules.hom_group": "cohfun.modules.hom_group",
    "modules.hom_coords": "cohfun.modules.HomGroup.coords",
    "modules.kernel_mor": "cohfun.modules.kernel_mor",
    "modules.morphism_new": "cohfun.modules.ModMorphism.__post_init__",
    "functors.evaluate": "cohfun.functors.evaluate",
    "functors.evaluate_nat": "cohfun.functors.evaluate_nat",
    "functors.nat_group": "cohfun.functors.nat_group",
    "functors.nat_new": "cohfun.functors.NatMorphism.__post_init__",
    "functors.injective_resolution": "cohfun.functors.injective_resolution",
    "functors.is_representable": "cohfun.functors.is_representable",
    "oracle.random_finite_module": "cohfun.oracle.random_finite_module",
    "oracle.random_functor": "cohfun.oracle.random_functor",
    "oracle.brute_hom": "cohfun.oracle.brute_hom",
    "oracle.brute_eval": "cohfun.oracle.brute_eval",
    "oracle.check_exact": "cohfun.oracle.check_exact",
    "cli.build_parser": "cohfun.cli.build_parser",
    "cli.parse_workspace": "cohfun.cli.parse_workspace",
    "cli.run_command": "cohfun.cli.run_command",
    "formats.render_matrix": "cohfun.formats.render_matrix",
}

# Entry points whose distinct arguments are counted.
REUSE = ("linalg.snf", "modules.hom_group", "functors.evaluate")

# Entry points whose ValueError means "draw refused as oversized".
REFUSALS = ("oracle.brute_eval",)


def resolve(path: str):
    """(owner, attribute, object) for a dotted entry-point path.

    Raises LookupError naming the path when it no longer exists, so a
    rename cannot read as a layer that got faster.
    """
    parts = path.split(".")
    module = importlib.import_module(".".join(parts[:2]))
    owner = module
    if len(parts) == 4:
        owner = vars(module).get(parts[2])
        if not isinstance(owner, type):
            raise LookupError(f"entry point {path}: class {parts[2]} is missing")
    attr = parts[-1]
    if attr not in vars(owner):
        raise LookupError(f"entry point {path} is missing")
    return owner, attr, vars(owner)[attr]


def _bit_width(res) -> int:
    return max(
        (abs(x).bit_length() for m in (res.u, res.v) for row in m.entries for x in row),
        default=0,
    )


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    refused: int = 0


class Tracer:
    """Aggregated spans for the entry points in ``ENTRY_POINTS``."""

    def __init__(self) -> None:
        self.stats = {name: Stat() for name in ENTRY_POINTS}
        self.distinct: dict[str, set] = {name: set() for name in REUSE}
        self.snf_bits_max = 0
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every cohfun.* binding of every entry point."""
        targets = [(name, *resolve(path)) for name, path in ENTRY_POINTS.items()]
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cohfun" or n.startswith("cohfun.")) and m is not None]
        try:
            for name, owner, attr, original in targets:
                wrapper = self._wrap(name, original)
                self._patch(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        distinct = self.distinct.get(name)
        refusable = name in REFUSALS
        is_snf = name == "linalg.snf"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fresh = False
            if distinct is not None:
                key = (args, tuple(sorted(kwargs.items())))
                fresh = key not in distinct
                if fresh:
                    distinct.add(key)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if refusable:
                    stat.refused += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span = end - frame[0]
                stat.calls += 1
                stat.self_s += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if is_snf and fresh:
                self.snf_bits_max = max(self.snf_bits_max, _bit_width(result))
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
        for name, seen in self.distinct.items():
            calls = self.stats[name].calls
            out[f"{name}.reuse"] = 1 - len(seen) / calls if calls else 0.0
        for name in REFUSALS:
            calls = self.stats[name].calls
            out[f"{name}.refused_frac"] = self.stats[name].refused / calls if calls else 0.0
        out["linalg.snf.witness_bits_max"] = self.snf_bits_max
        return out
