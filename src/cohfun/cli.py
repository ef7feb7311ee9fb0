"""Command line front end.

A workspace is one self-contained JSON file declaring the ring and named
modules, morphisms, functors and transformations; ``formats`` reads it.
Every command runs one operation on the workspace and prints a
deterministic report (canonical group strings, explicit witness
matrices).  Timing goes to stderr so stdout is byte-stable across runs.

Exit codes: 0 success / all checks pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from .linalg import BaseRing
from .modules import FpModule
from .functors import (
    evaluate,
    four_term,
    injective_resolution,
    inj_stabilize,
    is_inj_stable,
    is_injective_functor,
    is_proj_stable,
    is_representable,
    is_zero_functor,
    l0_functor,
    nat_group,
    proj_stabilize,
    r0_functor,
    w_of,
)
from . import oracle
from .formats import (
    Workspace,
    WorkspaceError,
    instance_payload,
    parse_workspace,
    probes_from_spec,
    render_matrix,
    ring_from_str,
)


def _battery_from_spec(ring: BaseRing, spec: str | None) -> oracle.ProbeBattery:
    if not spec:
        return oracle.default_battery(ring)
    try:
        return oracle.ProbeBattery(probes=probes_from_spec(ring, spec))
    except ValueError as exc:
        raise WorkspaceError(f"--battery: {exc}") from None


def _print_exactness(maps, battery, out) -> bool:
    report = oracle.check_exact(maps, battery)
    out.write(f"exactness: {'pass' if report.passed else 'FAIL'}\n")
    return report.passed


def _eval(ws, args, out, battery) -> int:
    value = evaluate(ws.functor(args.functor), ws.module(args.module))
    out.write(f"{args.functor}({args.module}) = {value.describe()}\n")
    return 0


def _nat(ws, args, out, battery) -> int:
    ng = nat_group(ws.functor(args.functor), ws.functor(args.other))
    out.write(f"Nat({args.functor}, {args.other}) = {ng.group.describe()}\n")
    for i, rep in enumerate(ng.reps):
        out.write(f"gen {i}: a = {render_matrix(rep.a.mat)}, b = {render_matrix(rep.b.mat)}\n")
    return 0


def _w(ws, args, out, battery) -> int:
    wf, k = w_of(ws.functor(args.functor))
    out.write(f"w({args.functor}) = {wf.describe()}\n")
    out.write(f"k: w({args.functor}) -> X = {render_matrix(k.mat)}\n")
    return 0


def _fourterm(ws, args, out, battery) -> int:
    f = ws.functor(args.functor)
    ft = four_term(f)
    wf, v = ft.r0.source_module.describe(), ft.f0.pres
    out.write(f"w({args.functor}) = {wf}\n")
    out.write(f"k = {render_matrix(ft.f1.pres.mat)}\n")
    out.write(f"F0: presented by v = {render_matrix(v.mat)} on {v.source.describe()}\n")
    out.write(f"F1: presented by k on {wf}\n")
    for probe in battery.probes:
        row = " -> ".join(evaluate(g, probe).describe() for g in (ft.f0, f, ft.r0, ft.f1))
        out.write(f"at {probe.describe()}: 0 -> {row} -> 0\n")
    return 0 if _print_exactness([ft.iota, ft.phi, ft.rho], battery, out) else 1


def _r0(ws, args, out, battery) -> int:
    r0, unit = r0_functor(ws.functor(args.functor))
    out.write(f"R0({args.functor}) = Hom({r0.pres.source.describe()}, -)\n")
    out.write(f"unit a-component = {render_matrix(unit.a.mat)}\n")
    return 0


def _l0(ws, args, out, battery) -> int:
    f = ws.functor(args.functor)
    _, counit = l0_functor(f)
    out.write(f"L0({args.functor}) = {evaluate(f, FpModule.free(ws.ring, 1)).describe()} tensor -\n")
    out.write(f"counit a-component = {render_matrix(counit.a.mat)}\n")
    out.write(f"counit b-component = {render_matrix(counit.b.mat)}\n")
    return 0


# Per stabilization command: the functor, its stability test, the heading
# of its presentation ({} is F's name), and the kind of stability.
STABILIZATIONS = {
    "stab-inj": (inj_stabilize, is_inj_stable, "stable({})", "injectively"),
    "stab-proj": (proj_stabilize, is_proj_stable, "stabilization", "projectively"),
}


def _stab(ws, args, out, battery) -> int:
    stabilize, is_stable, heading, kind = STABILIZATIONS[args.command]
    f = ws.functor(args.functor)
    st = stabilize(f)
    out.write(f"{heading.format(args.functor)} presented by {render_matrix(st.pres.mat)}\n")
    out.write(f"{kind} stable: {'true' if is_stable(f) else 'false'}\n")
    for probe in battery.probes:
        out.write(f"at {probe.describe()}: {evaluate(st, probe).describe()}\n")
    return 0


def _resolve(ws, args, out, battery) -> int:
    f = ws.functor(args.functor)
    res = injective_resolution(f)
    for name, term in zip(("I0", "I1", "I2"), res.terms):
        pres = term.pres
        out.write(
            f"{name}: {pres.source.describe()} -> {pres.target.describe()}"
            f" via {render_matrix(pres.mat)}\n"
        )
    for label, mp in zip(("F->I0", "I0->I1", "I1->I2"), res.maps):
        out.write(f"map {label} a-component: {render_matrix(mp.a.mat)}\n")
    length = max((i for i, t in enumerate(res.terms) if not is_zero_functor(t)), default=0)
    out.write(f"length: {length}\n")
    for probe in battery.probes:
        row = " -> ".join(evaluate(t, probe).describe() for t in res.terms)
        out.write(f"at {probe.describe()}: 0 -> {evaluate(f, probe).describe()} -> {row} -> 0\n")
    return 0 if _print_exactness(list(res.maps), battery, out) else 1


def _is_rep(ws, args, out, battery) -> int:
    out.write("true\n" if is_representable(ws.functor(args.functor)) else "false\n")
    return 0


def _is_inj(ws, args, out, battery) -> int:
    out.write("true\n" if is_injective_functor(ws.functor(args.functor)) else "false\n")
    return 0


def _check(ws, args, out, battery) -> int:
    failed = False
    for rep in oracle.verify_theorems(battery, seed=args.seed, cases=args.cases):
        out.write(rep.line() + "\n")
        sys.stderr.write(f"{rep.name}: {rep.seconds:.2f}s\n")
        if not rep.passed:
            failed = True
            for failure in rep.failures[:3]:
                out.write(f"  counterexample: {json.dumps(failure, sort_keys=True)}\n")
    return 1 if failed else 0


def _random(ws, args, out, battery) -> int:
    inst = oracle.random_instance(args.kind, args.seed, ring=ws.ring)
    out.write(json.dumps(instance_payload(inst), indent=2, sort_keys=True) + "\n")
    return 0


@dataclass(frozen=True)
class Command:
    """One subcommand.  ``run(ws, args, out, battery)`` writes the report
    and returns the exit code; ``args`` and ``options`` are the
    subcommand's positional arguments and its add_argument settings."""

    run: Callable[..., int]
    help: str
    args: tuple[str, ...] = ()
    options: dict[str, dict] = field(default_factory=dict)


COMMANDS: dict[str, Command] = {
    "eval": Command(_eval, "evaluate a functor at a module", ("functor", "module")),
    "nat": Command(_nat, "the group of natural transformations", ("functor", "other")),
    "w": Command(_w, "the module the functor's reflection represents", ("functor",)),
    "fourterm": Command(_fourterm, "the four-term exact sequence", ("functor",)),
    "r0": Command(_r0, "the representable reflection and its unit", ("functor",)),
    "l0": Command(_l0, "the tensor coreflection and its counit", ("functor",)),
    "stab-inj": Command(_stab, "the injective stabilization", ("functor",)),
    "stab-proj": Command(_stab, "the projective stabilization", ("functor",)),
    "resolve": Command(_resolve, "an injective resolution of length at most 2", ("functor",)),
    "is-rep": Command(_is_rep, "representability test", ("functor",)),
    "is-inj": Command(_is_inj, "injectivity test", ("functor",)),
    "check": Command(_check, "run the randomized verification suite"),
    "random": Command(
        _random,
        "emit a seeded random instance",
        options={
            "--kind": {"required": True, "choices": ["module", "morphism", "functor", "nat", "ses"]},
            # SUPPRESS: when absent here, the global --seed stands
            "--seed": {"type": int, "default": argparse.SUPPRESS, "help": "same as the global --seed"},
        },
    ),
}


def run_command(ws: Workspace, args, out, battery) -> int:
    """Execute one subcommand against the workspace; returns exit code."""
    return COMMANDS[args.command].run(ws, args, out, battery)


def _ring_arg(text: str) -> BaseRing:
    try:
        return ring_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_arg(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged,
    building a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="cohfun",
        description="Exact computations with coherent functors over f.p. modules.",
    )
    parser.add_argument("--input", help="workspace JSON file")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--cases", type=_count_arg, default=100, help="cases per randomized check")
    parser.add_argument("--battery", help="comma list of probes, e.g. Z,Z/2,Z+Z/2")
    parser.add_argument("--ring", type=_ring_arg, help="Z or Fp:<prime> (when no input file)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.args:
            p.add_argument(arg)
        for flag, settings in command.options.items():
            p.add_argument(flag, **settings)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as handle:
                try:
                    text = handle.read()
                except UnicodeDecodeError as exc:
                    raise WorkspaceError(
                        f"{args.input}: not UTF-8 text (byte {exc.start})"
                    ) from None
            ws = parse_workspace(text)
            if args.ring is not None and args.ring != ws.ring:
                raise WorkspaceError("--ring conflicts with the workspace ring")
        else:
            ws = Workspace(ring=args.ring or BaseRing.integers())
        battery = _battery_from_spec(ws.ring, args.battery)
        return run_command(ws, args, out, battery)
    except (WorkspaceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
