"""The cohfun benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload verify-z --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Each job runs in a fresh child process
(``workloads.py``), one child at a time, in a closed loop from a single
caller, for about ``--seconds``.  The seed fixes every input:

- verify-*: child k runs ``cohfun check`` with seed ``seed * 1000 + b``
  for b = 0, 0, 1, 2, ...; block 0 runs twice so that its digest can be
  compared across processes.  ``wall_s`` is the median child.
- cli-z: a pass takes the 64 nat workspaces of the catalogue in an
  order drawn from the seed and runs them eight to a child.  A run makes
  at least two passes; ``wall_s`` is the median pass, and every pass
  must print the same digest.

A traced run alternates untraced and traced children on the first job
only, so the per-layer counts describe one fixed input, and traced and
untraced digests must agree.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
untraced, the per-layer metrics when traced.  The lines before it give
the same figures with their units, plus ``failed_frac``, the cli-z
command latencies and the digest.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import ENTRY_POINTS, REFUSALS, REUSE  # noqa: E402
from workloads import COMMAND_DEADLINE_S, WORK_DIR, digest, expected_reports  # noqa: E402

# Cases per verify-* child: about two seconds each, so a run holds a
# steady median of children.
CASES = {"verify-z": 8, "verify-fp5": 12}
WORKLOADS = ("cli-z", "verify-fp5", "verify-z")
# cli-z visits a fixed catalogue of nat workspaces rather than fresh
# draws: one workspace's session time varies by a factor of ten, and
# runs over ~100 fresh workspaces each moved wall_s by +-35% between
# seeds.  The seed sets the order and grouping of the catalogue.
CATALOGUE = 64
PER_CHILD = 8
BLOCKS_PER_SEED = 1000
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def report_names() -> list[str]:
    names = [n for n, _ in expected_reports("Z", 1)]
    return names + [n for n, _ in expected_reports("Fp:5", 1) if n not in names]


def per_layer_units() -> dict[str, str]:
    out = {}
    for name in ENTRY_POINTS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for name in REUSE:
        out[f"{name}.reuse"] = "ratio"
    for name in REFUSALS:
        out[f"{name}.refused_frac"] = "ratio"
    out["linalg.snf.witness_bits_max"] = "bits"
    for name in report_names():
        out[f"oracle.report.{name}.s"] = "s"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict, traced: bool, timeout: float) -> dict:
    argv = [sys.executable, str(HERE / "workloads.py"), json.dumps(job),
            "1" if traced else "0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{job} ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{job} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(workload: str, seed: int, trace: bool):
    """Yield lists of (job, traced): the units a run is made of."""
    if workload == "cli-z":
        def job(p: int, i: int) -> dict:
            order = random.Random(f"cli-z:{seed}:{p}").sample(range(CATALOGUE), CATALOGUE)
            return {"workload": workload, "seeds": order[i:i + PER_CHILD]}
        if not trace:
            for p in itertools.count():
                yield [(job(p, i), False) for i in range(0, CATALOGUE, PER_CHILD)]
        first = job(0, 0)
    else:
        def job(b: int) -> dict:
            return {"workload": workload, "seeds": [seed * BLOCKS_PER_SEED + b],
                    "cases": CASES[workload]}
        if not trace:
            yield [(job(0), False)]
            for b in itertools.count():
                yield [(job(b), False)]
        first = job(0)
    while True:
        yield [(first, False), (first, True)]


def run_children(workload: str, seed: int, seconds: float, trace: bool) -> list[list[tuple]]:
    """Per unit, the (job, traced, report) of its children.

    A run stops once it has its least units and another unit, taking as
    long as the last, would end past ``seconds``.
    """
    start = time.monotonic()
    done: list[list[tuple]] = []
    least = 1 if trace else 2
    for unit in units(workload, seed, trace):
        began = time.monotonic()
        children = []
        for job, traced in unit:
            timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
            children.append((job, traced, spawn(job, traced, timeout)))
        done.append(children)
        now = time.monotonic()
        if len(done) >= least and 2 * now - began - start > seconds:
            return done


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(workload: str, seed: int, done: list[list[tuple]], trace: bool) -> tuple[dict, list[str]]:
    children = [child for unit in done for child in unit]
    reports = [r for _, _, r in children]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    lines = [f"workload {workload} seed {seed}: {len(done)} units, {len(reports)} children, "
             f"trace {'on' if trace else 'off'}"]

    # A job run twice, in two processes, must print the same digest; so
    # must every cli-z pass, whatever order it visited the catalogue in.
    mismatches = []
    first: dict[str, str] = {}
    for job, _, r in children:
        key = json.dumps(job, sort_keys=True)
        if first.setdefault(key, r["digest"]) != r["digest"]:
            mismatches.append(f"{key}: digest {r['digest']} differs from {first[key]}")
    shown = reports[0]["digest"]
    if workload == "cli-z" and not trace:
        passes = [digest(f"{k} {v}" for k, v in sorted(
            (k, v) for _, _, r in unit for k, v in r["outputs"].items())) for unit in done]
        mismatches += [f"pass {i}: digest {d} differs from {passes[0]}"
                       for i, d in enumerate(passes) if d != passes[0]]
        shown = passes[0]
    failed += len(mismatches)
    problems += mismatches
    lines.append(f"digest {shown}")

    for miss in sorted({m for r in reports for m in r.get("deadline_misses", ())}):
        lines.append(f"deadline miss (> {COMMAND_DEADLINE_S:g} s, not a wrong answer): {miss}")
    lines += [f"FAILED: {problem}" for problem in problems]
    lines.append(f"failed_frac  {failed / attempted:.6f} ratio ({failed} of {attempted})")

    if trace:
        metrics = trace_metrics(children)
        unit_of = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_s": statistics.median(sum(r["wall_s"] for _, _, r in unit) for unit in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        unit_of = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        latencies = [t for r in reports for t in r.get("latencies_ms", ())]
        if latencies:
            for q in (50, 90):
                lines.append(f"op_p{q}_ms    {quantile(latencies, q):.4f} ms "
                             f"(of {len(latencies)} commands)")
    for name, value in metrics.items():
        lines.append(f"{name:<12} {value:.6g} {unit_of[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of[n]} for n, v in metrics.items()},
    }
    return result, lines


def trace_metrics(children: list[tuple]) -> dict[str, float]:
    traced = [r for _, t, r in children if t]
    plain = [r for _, t, r in children if not t]
    first = traced[0]["layers"]
    metrics: dict[str, float] = {}
    for name in per_layer_units():
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        elif name.startswith("oracle.report."):
            key = name[len("oracle.report."):-len(".s")]
            metrics[name] = statistics.median(r.get("reports", {}).get(key, 0.0) for r in traced)
        elif name == "trace.wall_s":
            metrics[name] = statistics.median(r["wall_s"] for r in traced)
        elif name == "trace.overhead_s":
            metrics[name] = metrics["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
        else:
            metrics[name] = first[name]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cohfun" / "__init__.py").is_file():
        print(f"error: no cohfun package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        done = run_children(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result, lines = summarize(args.workload, args.seed, done, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
