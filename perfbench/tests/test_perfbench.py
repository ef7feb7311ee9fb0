"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = run.WORKLOADS


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "CASES", {"verify-z": 2, "verify-fp5": 2})
    monkeypatch.setattr(run, "CATALOGUE", 4)
    monkeypatch.setattr(run, "PER_CHILD", 2)


def first_job(workload: str) -> dict:
    return next(run.units(workload, 7, trace=True))[0][0]


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0"]) == 0
    result = last_json(capsys.readouterr().out)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_children_agree(tiny, workload):
    job = first_job(workload)
    plain = run.spawn(job, traced=False, timeout=120)
    traced = run.spawn(job, traced=True, timeout=120)
    assert traced["digest"] == plain["digest"]
    assert (traced["attempted"], traced["failed"]) == (plain["attempted"], plain["failed"])
    assert traced["problems"] == plain["problems"] == []
    for name in workloads.REQUIRED_CALLS[workload]:
        assert traced["layers"][f"{name}.calls"] > 0, name


def test_traced_run_reports_every_per_layer_metric(tiny, capsys):
    assert run.main(["--workload", "cli-z", "--seed", "0", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json(capsys.readouterr().out)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def bindings(paths=tuple(tracer.ENTRY_POINTS.values())) -> dict[tuple, object]:
    """Every cohfun.* binding of every measured object, by (owner, attr)."""
    targets = [tracer.resolve(path) for path in paths]
    found = {}
    for owner, attr, original in targets:
        found[(owner, attr)] = original
        for name, module in list(sys.modules.items()):
            if name == "cohfun" or name.startswith("cohfun."):
                for key, value in vars(module).items():
                    if value is original:
                        found[(module, key)] = original
    return found


def test_tracer_restores_every_binding():
    from cohfun import functors, linalg, modules, oracle

    before = bindings()
    # the re-imports the tracer must reach, not only the defining module
    assert (modules, "smith_normal_form") in before
    assert (oracle, "smith_normal_form") in before
    assert (functors, "is_left_exact") in before
    t = tracer.Tracer()
    with t:
        assert linalg.Matrix.__matmul__ is not before[(linalg.Matrix, "__matmul__")]
        assert all(getattr(o, a) is not v for (o, a), v in before.items())
        workloads.Verify("Fp:5", 3, 1).run()
    assert all(vars(o)[a] is v for (o, a), v in before.items())
    assert bindings() == before
    assert t.stats["linalg.matrix_new"].calls > 0
    assert t.stats["modules.morphism_new"].calls > 0


def test_tracer_fails_loudly_on_a_missing_entry_point(monkeypatch):
    before = bindings()
    monkeypatch.setitem(tracer.ENTRY_POINTS, "linalg.gone", "cohfun.linalg.renamed_away")
    with pytest.raises(LookupError, match="renamed_away"):
        tracer.Tracer().install()
    assert bindings() == before


def test_zero_calls_on_a_required_entry_point_fail_the_child(monkeypatch):
    monkeypatch.setitem(workloads.REQUIRED_CALLS, "verify-fp5", ("oracle.brute_hom",))
    with pytest.raises(RuntimeError, match="no calls to oracle.brute_hom"):
        workloads.run_child({"workload": "verify-fp5", "seeds": [0], "cases": 1}, True, 0.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-z", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(strict=True, reason="hermite_basis coefficient growth: is-rep runs for minutes")
def test_known_slow_workspace_finishes_within_the_deadline(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    cohfun = [sys.executable, "-m", "cohfun.cli"]
    ws = subprocess.run(cohfun + ["random", "--kind", "nat", "--seed", "112"],
                        capture_output=True, text=True, env=env, check=True).stdout
    (tmp_path / "ws.json").write_text(ws)
    subprocess.run(cohfun + ["--input", str(tmp_path / "ws.json"), "is-rep", "F0"],
                   capture_output=True, env=env, timeout=workloads.COMMAND_DEADLINE_S)
