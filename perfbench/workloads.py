"""The benchmark's workloads, and the child process that runs one job.

Every repetition of a workload runs in a fresh child process, so the
program's module-level caches start cold, as they do for a user who
runs ``cohfun``.  The child builds its inputs, runs the timed region
once, checks the outputs and prints one JSON object as its last line:

    python3 perfbench/workloads.py JOB TRACE SPAWNED

JOB is a JSON object: ``{"workload": "verify-z", "seeds": [s], "cases": n}``
runs ``verify_theorems`` with seed s, ``{"workload": "cli-z", "seeds":
[...]}`` runs the command session over the nat workspaces with those
seeds.  TRACE is 0 or 1.  SPAWNED is the parent's ``time.monotonic()``
just before it started the child, so that ``setup_s`` covers
interpreter start-up too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

# Per-command time limit on cli-z.  The slowest command seen on 400
# random nat workspaces took 1.1 s; five others (seeds 112, 155, 257,
# 309, 364) make hermite_basis grow its coefficients for minutes.  A
# command cut here is reported as a deadline miss, so such an input
# shows in the output instead of stalling the run.
COMMAND_DEADLINE_S = 3.0

CLI_COMMANDS = (
    ("w", "F0"), ("fourterm", "F0"), ("r0", "F0"), ("l0", "F0"),
    ("stab-inj", "F0"), ("stab-proj", "F0"), ("resolve", "F0"),
    ("is-rep", "F0"), ("is-inj", "F0"), ("nat", "F0", "F1"), ("eval", "F0", "M0"),
)

# Entry points each workload must reach; zero calls fails the traced run.
CORE_LAYERS = (
    "linalg.snf", "linalg.solve_matrix", "linalg.hermite_basis",
    "linalg.preimage_lattice", "linalg.kron", "linalg.matmul", "linalg.matrix_new",
    "modules.hom_group", "modules.hom_coords", "modules.kernel_mor",
    "modules.morphism_new", "functors.evaluate", "functors.evaluate_nat",
    "functors.nat_group", "functors.nat_new", "functors.injective_resolution",
    "functors.is_representable", "oracle.check_exact",
)
REQUIRED_CALLS = {
    "verify-z": CORE_LAYERS + (
        "oracle.random_functor", "oracle.random_finite_module",
        "oracle.brute_hom", "oracle.brute_eval",
    ),
    "verify-fp5": CORE_LAYERS + ("oracle.random_functor",),
    "cli-z": CORE_LAYERS + (
        "cli.build_parser", "cli.parse_workspace", "cli.run_command",
        "formats.render_matrix",
    ),
}


def expected_reports(ring: str, cases: int) -> list[tuple[str, int]]:
    """Names and case counts ``cohfun check`` must report, in order.

    Written out here rather than read from the program, so that a check
    that disappears or runs fewer cases counts as a failure.
    """
    half = max(1, cases // 2)
    heavy = max(1, cases // 4)
    names = [
        ("snf-contract", 10 * cases), ("solve-oracle", 2 * cases),
        ("yoneda", cases), ("coyoneda", cases), ("representable-values", half),
        ("adjunction", cases), ("four-term", heavy), ("w-exactness", heavy),
        ("w-presentation-independence", cases), ("vanishing", cases),
        ("representables-projective", heavy), ("equivalence", heavy),
        ("functoriality", heavy), ("stabilization", heavy), ("resolutions", heavy),
    ]
    if ring == "Z":
        names[2:2] = [("hom-oracle", cases), ("brute-eval-agreement", 3 * cases)]
    else:
        names.append(("semisimple-collapse", cases))
    return names


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program eats it."""


def _on_alarm(signum, frame):
    raise Deadline()


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


class Verify:
    """``oracle.verify_theorems`` over one ring: exactly ``cohfun check``."""

    def __init__(self, ring: str, seed: int, cases: int):
        from cohfun import oracle
        from cohfun.formats import ring_from_str

        self.oracle = oracle
        self.ring_name = ring
        self.ring = ring_from_str(ring)
        self.seed = seed
        self.cases = cases
        self.reports = []

    def run(self) -> None:
        self.reports = self.oracle.verify_theorems(
            ring=self.ring, seed=self.seed, cases=self.cases
        )

    def close(self) -> None:
        pass

    def result(self) -> dict:
        want = expected_reports(self.ring_name, self.cases)
        got = [(r.name, r.cases) for r in self.reports]
        failed = sum(len(r.failures) or not r.passed for r in self.reports)
        problems = [f"{r.name}: {len(r.failures)} failed cases"
                    for r in self.reports if not r.passed]
        if got != want:
            failed += 1
            problems.append(f"reports {got} differ from the expected {want}")
        return {
            "attempted": sum(n for _, n in want),
            "failed": failed,
            "problems": problems,
            "digest": digest(r.line() for r in self.reports),
            "reports": {r.name: r.seconds for r in self.reports},
        }


class CliSession:
    """In-process ``cli.main`` calls over random nat workspaces."""

    def __init__(self, seeds: list[int]):
        from cohfun import cli

        self.main = cli.main
        self.seeds = seeds
        self.dir = WORK_DIR / f"{seeds[0]}-{time.monotonic_ns()}"
        self.dir.mkdir(parents=True)
        self.paths = []
        for seed in self.seeds:
            out = io.StringIO()
            code = self.main(["random", "--kind", "nat", "--seed", str(seed)], out=out)
            if code != 0:
                raise RuntimeError(f"cohfun random --kind nat --seed {seed} exited {code}")
            path = self.dir / f"nat{seed}.json"
            path.write_text(out.getvalue(), encoding="utf-8")
            self.paths.append(path)
        self.latencies: list[float] = []
        self.outputs: dict[str, str] = {}
        self.problems: list[str] = []
        self.misses: list[str] = []

    def run(self) -> None:
        clock = time.perf_counter
        for seed, path in zip(self.seeds, self.paths):
            for command in CLI_COMMANDS:
                argv = ["--input", str(path), *command]
                out = io.StringIO()
                start = clock()
                signal.setitimer(signal.ITIMER_REAL, COMMAND_DEADLINE_S)
                try:
                    code = self.main(argv, out=out)
                except Deadline:
                    code = None
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                self.latencies.append(clock() - start)
                name = f"nat seed {seed}: {' '.join(command)}"
                if code is None:
                    self.misses.append(name)
                    self.outputs[name] = "deadline"  # how much it printed varies
                    continue
                if code != 0:
                    self.problems.append(f"{name} exited {code}")
                self.outputs[name] = digest([f"exit {code}", out.getvalue()])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def result(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": len(self.problems),
            "problems": self.problems,
            "deadline_misses": self.misses,
            "digest": digest(f"{k} {v}" for k, v in sorted(self.outputs.items())),
            "outputs": self.outputs,
            "latencies_ms": [t * 1e3 for t in self.latencies],
        }


def make(job: dict):
    workload, seeds = job["workload"], job["seeds"]
    if workload == "verify-z":
        return Verify("Z", seeds[0], job["cases"])
    if workload == "verify-fp5":
        return Verify("Fp:5", seeds[0], job["cases"])
    if workload == "cli-z":
        return CliSession(seeds)
    raise ValueError(f"unknown workload {workload!r}")


def run_child(job: dict, trace: bool, spawned: float) -> dict:
    """Set up, run and check one job; the dict is the child's report."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cohfun

    if Path(cohfun.__file__).resolve().parent != src / "cohfun":
        raise RuntimeError(f"imported cohfun from {cohfun.__file__}, not from {src}")
    signal.signal(signal.SIGALRM, _on_alarm)
    work = make(job)
    setup_s = time.monotonic() - spawned
    tracer = Tracer() if trace else None
    try:
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            work.run()
            wall_s = time.perf_counter() - start
    finally:
        work.close()
    out = work.result()
    out.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        layers = tracer.metrics()
        required = REQUIRED_CALLS[job["workload"]]
        silent = [n for n in required if not layers[f"{n}.calls"]]
        if silent:
            raise RuntimeError(f"{job['workload']} made no calls to {', '.join(silent)}")
        out["layers"] = layers
    return out


def main(argv: list[str]) -> int:
    job, trace, spawned = argv
    print(json.dumps(run_child(json.loads(job), trace == "1", float(spawned))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
