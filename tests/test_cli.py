import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohfun
from cohfun import (
    BaseRing,
    CoherentFunctor,
    FpModule,
    Matrix,
    ModMorphism,
    four_term,
    identity_nat,
    is_zero_functor,
    oracle,
)
from cohfun.cli import WorkspaceError, build_parser, main, parse_workspace, render_workspace
from cohfun.formats import Workspace, instance_payload

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

QUOTIENT_COMMANDS = ["w F", "fourterm F", "r0 F", "l0 F", "stab-inj F", "is-rep F"]
YONEDA_COMMANDS = ["resolve G", "is-inj G", "w G", "eval G C2", "nat G G"]

Z = BaseRing.integers()
F5 = BaseRing.prime_field(5)
KINDS = ["module", "morphism", "functor", "nat", "ses"]

EMPTY_RELS = {"rows": 1, "cols": 0, "data": []}
TRUE_RELS = {"rows": 1, "cols": 1, "data": [True]}
ONE = {"rows": 1, "cols": 1, "data": [1]}


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_fresh(argv, timeout=None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter on the package these tests import."""
    src = str(Path(cohfun.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "cohfun.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_script(fixture: str, commands) -> str:
    chunks = []
    for command in commands:
        code, text = run_cli(["--input", str(DATA / fixture)] + command.split())
        assert code == 0, (command, text)
        chunks.append(text + f"::cmd {command} done\n")
    return "".join(chunks)


class TestParsing:
    def test_minimal_workspace(self):
        ws = parse_workspace(
            json.dumps(
                {
                    "ring": "Z",
                    "modules": {"A": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": [2]}}},
                }
            )
        )
        assert ws.modules["A"].describe() == "Z/2"

    def test_ill_defined_morphism_named(self):
        text = json.dumps(
            {
                "ring": "Z",
                "modules": {
                    "A": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": [2]}},
                    "B": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": [3]}},
                },
                "morphisms": {
                    "bad": {
                        "source": "A",
                        "target": "B",
                        "mat": {"rows": 1, "cols": 1, "data": [1]},
                    }
                },
            }
        )
        with pytest.raises(WorkspaceError, match="morphisms.bad.*ill-defined"):
            parse_workspace(text)

    def test_unknown_reference_named(self):
        text = json.dumps(
            {
                "ring": "Z",
                "morphisms": {
                    "f": {"source": "A", "target": "A", "mat": {"rows": 0, "cols": 0, "data": []}}
                },
            }
        )
        with pytest.raises(WorkspaceError, match="unknown module 'A'"):
            parse_workspace(text)

    def test_syntax_error_positioned(self):
        with pytest.raises(WorkspaceError, match="line 2"):
            parse_workspace('{\n  "ring": Z\n}')

    def test_duplicate_names_rejected(self):
        text = '{"ring": "Z", "modules": {"A": {"gens": 0, "rels": {"rows": 0, "cols": 0, "data": []}}, "A": {"gens": 0, "rels": {"rows": 0, "cols": 0, "data": []}}}}'
        with pytest.raises(WorkspaceError, match="duplicate"):
            parse_workspace(text)

    def test_dimension_mismatch_named(self):
        text = json.dumps(
            {
                "ring": "Z",
                "modules": {"A": {"gens": 2, "rels": {"rows": 1, "cols": 1, "data": [2]}}},
            }
        )
        with pytest.raises(WorkspaceError, match="modules.A"):
            parse_workspace(text)

    def test_duplicate_message_passes_through(self):
        text = '{"ring": "Z", "nats": {}, "nats": {}}'
        with pytest.raises(WorkspaceError, match=r"^duplicate name 'nats'$"):
            parse_workspace(text)

    def test_functor_only_workspace_valid(self):
        ws = parse_workspace((DATA / "worked_quotient.json").read_text())
        assert set(ws.functors) == {"F"}

    def test_render_keeps_the_names_of_equal_parts(self):
        # A and B are both Z/2, and f and g have the same data
        z2 = {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": [2]}}
        text = json.dumps({
            "ring": "Z",
            "modules": {"A": z2, "B": z2},
            "morphisms": {
                "f": {"source": "A", "target": "B", "mat": ONE},
                "g": {"source": "A", "target": "B", "mat": ONE},
            },
            "functors": {"F": {"pres": "f"}, "G": {"pres": "g"}},
        })
        rendered = json.loads(render_workspace(parse_workspace(text)))
        assert rendered == json.loads(text)
        assert rendered["morphisms"]["f"]["source"] == "A"

    def test_roundtrip_is_identity_on_canonical_text(self):
        ws = parse_workspace((DATA / "worked_quotient.json").read_text())
        text = render_workspace(ws)
        again = parse_workspace(text)
        assert render_workspace(again) == text


class TestCommands:
    def test_eval_zero_functor(self, tmp_path):
        workspace = {
            "ring": "Z",
            "modules": {
                "A": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": [4]}},
                "Z1": {"gens": 1, "rels": {"rows": 1, "cols": 0, "data": []}},
            },
            "morphisms": {
                "ident": {"source": "Z1", "target": "Z1", "mat": {"rows": 1, "cols": 1, "data": [1]}}
            },
            "functors": {"F": {"pres": "ident"}},
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(workspace))
        code, text = run_cli(["--input", str(path), "eval", "F", "A"])
        assert code == 0
        assert text == "F(A) = 0\n"

    def test_w_command(self):
        code, text = run_cli(["--input", str(DATA / "worked_quotient.json"), "w", "F"])
        assert code == 0
        assert "w(F) = Z^1" in text
        assert "[[2]]" in text

    def test_resolve_reports_length_two(self):
        code, text = run_cli(["--input", str(DATA / "worked_yoneda.json"), "resolve", "G"])
        assert code == 0
        assert "length: 2" in text
        assert "exactness: pass" in text

    def test_unknown_functor_exit_2(self):
        code, _ = run_cli(["--input", str(DATA / "worked_quotient.json"), "w", "Nope"])
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _ = run_cli(["--input", "/definitely/not/here.json", "w", "F"])
        assert code == 2

    def test_check_passes_small(self):
        code, text = run_cli(["--cases", "2", "check"])
        assert code == 0
        assert all(line.startswith("PASS") for line in text.strip().splitlines())

    def test_check_zero_cases_vacuous(self):
        code, text = run_cli(["--cases", "0", "check"])
        assert code == 0
        assert "no cases" in text

    def test_random_deterministic(self):
        code1, text1 = run_cli(["random", "--kind", "functor", "--seed", "5"])
        code2, text2 = run_cli(["random", "--kind", "functor", "--seed", "5"])
        assert code1 == code2 == 0
        assert text1 == text2
        parse_workspace(text1)

    def test_random_over_field(self):
        code, text = run_cli(["--ring", "Fp:5", "random", "--kind", "module", "--seed", "3"])
        assert code == 0
        assert json.loads(text)["ring"] == "Fp:5"

    def test_battery_flag(self):
        code, text = run_cli(
            ["--input", str(DATA / "worked_quotient.json"), "--battery", "Z,Z/4", "stab-inj", "F"]
        )
        assert code == 0
        assert "at Z^1: 0" in text and "at Z/4: 0" in text
        assert "Z/8" not in text

    def test_global_and_subcommand_seed_agree(self):
        _, seed5 = run_cli(["random", "--kind", "functor", "--seed", "5"])
        _, global5 = run_cli(["--seed", "5", "random", "--kind", "functor"])
        _, seed0 = run_cli(["random", "--kind", "functor"])
        assert global5 == seed5 != seed0

    @pytest.mark.parametrize(
        "argv, workspace, named",
        [
            (["--ring", "Fp:4", "check"], None, "--ring"),
            (["--ring", "Fp:65537", "check"], None, "--ring"),
            (["--battery", "Z/abc", "check"], None, "--battery"),
            (["--battery", "Z^-1", "check"], None, "--battery"),
            (["--battery", ",", "check"], None, "--battery"),
            (["--cases", "-5", "check"], None, "--cases"),
            (["w", "F"], {"ring": "Z", "modules": {"A": {"gens": True, "rels": EMPTY_RELS}}},
             "modules.A.gens"),
            (["w", "F"], {"ring": "Z", "modules": {"A": {"gens": 1, "rels": TRUE_RELS}}},
             "modules.A.rels"),
            (["w", "F"], {"ring": 5}, "ring"),
            (["w", "F"], {"ring": "Z", "modules": [1]}, "modules"),
            (["w", "F"], {"ring": "Z", "modules": []}, "modules"),
            (["w", "F"], {"ring": "Z", "modules": {"A": {"gens": 1, "rels": EMPTY_RELS}},
                          "morphisms": {"f": {"source": ["A"], "target": "A", "mat": ONE}}},
             "morphisms.f.source"),
            (["w", "F"], {"ring": "Z", "functors": {"F": {"pres": ["x"]}}}, "functors.F.pres"),
        ],
    )
    def test_bad_input_exit_2(self, argv, workspace, named, tmp_path, capsys):
        if workspace is not None:
            path = tmp_path / "ws.json"
            path.write_text(json.dumps(workspace))
            argv = ["--input", str(path)] + argv
        code, text = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert "Traceback" not in err
        assert any("error:" in line and named in line for line in err.splitlines()), err

    @pytest.mark.parametrize(
        "text",
        [
            '{"ring": "Z", "modules": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"ring": "Z", "modules": {"A": {"gens": 1, "rels": '
            '{"rows": 1, "cols": 1, "data": [' + "7" * 5000 + "]}}}}",
        ],
        ids=["deep-nesting", "long-integer"],
    )
    def test_unreadable_workspace_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(text)
        code, out = run_cli(["--input", str(path), "w", "F"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.startswith("error: unreadable workspace: "), err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe")
        code, text = run_cli(["--input", str(path), "w", "F"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert "Traceback" not in err
        assert any("error:" in line and str(path) in line for line in err.splitlines()), err

    def test_every_operation_reachable(self):
        # each library operation has a subcommand
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        assert set(sub.choices) == {
            "eval", "nat", "w", "fourterm", "r0", "l0", "stab-inj", "stab-proj",
            "resolve", "is-rep", "is-inj", "check", "random",
        }


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_share_no_state(self):
        assert run_cli(["--no-such-flag", "check"])[0] == 2
        assert run_cli(["--help"])[0] == 0
        code1, text1 = run_cli(["random", "--kind", "module", "--seed", "3"])
        code2, text2 = run_cli(["--seed", "3", "random", "--kind", "module"])
        assert code1 == code2 == 0 and text1 == text2
        argv = ["--input", str(DATA / "worked_quotient.json"), "fourterm", "F"]
        code, text = run_cli(argv)
        fresh = run_fresh(argv)
        assert (code, text) == (fresh.returncode, fresh.stdout)
        assert code == 0


class TestFormerlyStalled:
    # Each took over 12 s while preimage_lattice put the whole Smith kernel
    # in Hermite form before projecting it.  Seed 112 (is-rep F0) still
    # stalls, in the ker_nat/coker_nat pushouts; the strict xfail in
    # perfbench/tests pins it, so it is left out here.
    @pytest.mark.parametrize("seed, command", [
        (155, "is-rep F0"), (257, "is-inj F0"), (364, "is-inj F0"), (309, "nat F0 F1"),
    ])
    def test_finishes_within_ten_seconds(self, tmp_path, seed, command):
        code, text = run_cli(["random", "--kind", "nat", "--seed", str(seed)])
        assert code == 0
        path = tmp_path / "ws.json"
        path.write_text(text)
        proc = run_fresh(["--input", str(path), *command.split()], timeout=10)
        assert proc.returncode == 0, proc.stderr
        if command == "is-rep F0":
            ft = four_term(parse_workspace(text).functor("F0"))
            representable = is_zero_functor(ft.f0) and is_zero_functor(ft.f1)
            assert proc.stdout == ("true\n" if representable else "false\n")


class TestPayloads:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("ring", [Z, F5], ids=["Z", "F5"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_payload_is_a_canonical_workspace(self, kind, ring, seed):
        inst = oracle.random_instance(kind, seed, ring=ring)
        if kind == "ses":
            inst = [inst.incl, inst.proj]
        p = instance_payload(inst)
        assert render_workspace(parse_workspace(json.dumps(p))) == (
            json.dumps(p, indent=2, sort_keys=True) + "\n"
        )

    def test_naming_rules(self):
        a, b = FpModule.cyclic(Z, 2), FpModule.cyclic(Z, 4)
        phi = ModMorphism(a, b, Matrix.from_rows(Z, [[2]]))
        back = ModMorphism(b, a, Matrix.from_rows(Z, [[1]]))
        f, g = CoherentFunctor(phi), CoherentFunctor(back)
        ws = Workspace(Z)
        assert [ws.add(x) for x in (a, phi, f, g)] == ["M0", "f0", "F0", "F1"]
        # equal modules and functors and same-key morphisms keep their names
        assert [ws.add(x) for x in (FpModule.cyclic(Z, 2), f, back)] == ["M0", "F0", "pres1"]
        # an equal morphism with other data is a new entry
        assert ws.add(ModMorphism(b, a, Matrix.from_rows(Z, [[3]]))) == "f2"
        assert list(ws.modules) == ["M0", "M1"]
        assert list(ws.morphisms) == ["f0", "pres1", "f2"]
        # every transformation gets a new name, even the same one added twice
        alpha = identity_nat(f)
        assert [ws.add(alpha), ws.add(alpha)] == ["n0", "n1"]
        assert ws.to_dict()["functors"] == {"F0": {"pres": "f0"}, "F1": {"pres": "pres1"}}

    def test_add_never_overwrites_a_parsed_name(self):
        ws = parse_workspace(json.dumps({
            "ring": "Z",
            "modules": {"M1": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": [2]}}},
        }))
        taken = ws.modules["M1"]
        assert ws.add(FpModule.cyclic(Z, 3)) == "M2"
        assert ws.modules["M1"] is taken
        assert ws.add(FpModule.cyclic(Z, 2)) == "M1"


class TestGolden:
    def test_worked_quotient_golden(self):
        got = run_script("worked_quotient.json", QUOTIENT_COMMANDS)
        assert got == (GOLDEN / "worked_quotient.txt").read_text()

    def test_worked_yoneda_golden(self):
        got = run_script("worked_yoneda.json", YONEDA_COMMANDS)
        assert got == (GOLDEN / "worked_yoneda.txt").read_text()

    def test_stab_proj_and_random_ses_golden(self):
        got = run_script("worked_quotient.json", ["stab-proj F", "random --kind ses --seed 1"])
        assert got == (GOLDEN / "stab_proj_random_ses.txt").read_text()

    def test_byte_identical_across_runs(self):
        first = run_script("worked_quotient.json", QUOTIENT_COMMANDS)
        second = run_script("worked_quotient.json", QUOTIENT_COMMANDS)
        assert first == second
