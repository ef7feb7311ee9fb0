"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Defaults throughout: integer ring, seed 0, generator/relation bounds 4,
entries bounded by 4, and the probe battery
{Z, Z/2, Z/3, Z/4, Z/6, Z+Z/2, Z/8, Z/9}.  Each test prints a PASS line
on success (visible with -s); a failing criterion fails its test.
"""

import io
import random
import time
from contextlib import contextmanager
from pathlib import Path

from cohfun import (
    BaseRing,
    CoherentFunctor,
    FpModule,
    Matrix,
    ModMorphism,
    canonical_form,
    evaluate,
    evaluate_nat,
    four_term,
    hom_group,
    injective_resolution,
    is_injective_functor,
    is_iso,
    is_proj_stable,
    is_representable,
    is_zero_functor,
    kernel_mor,
    l0_functor,
    nat_group,
    proj_stabilize,
    r0_functor,
    smith_normal_form,
    tensor_module,
    w_of,
    yoneda_embed,
)
from cohfun.modules import compose_mor as compose
from cohfun.oracle import (
    Bounds,
    brute_hom,
    check_exact,
    det,
    default_battery,
    padded_complex,
    random_finite_module,
    random_functor,
    random_module,
    random_nat,
    random_ses,
    module_sequence_exact,
    w_mor,
    _stream,
)

Z = BaseRing.integers()
F5 = BaseRing.prime_field(5)
SEED = 0
BATTERY = default_battery(Z)
BOUNDS = Bounds(gens=4, rels=4, entry=4)


@contextmanager
def criterion(label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({time.perf_counter() - start:.1f}s)")


def cyc(d, ring=Z):
    return FpModule.cyclic(ring, d)


def free(n, ring=Z):
    return FpModule.free(ring, n)


def test_criterion_01_snf_suite():
    with criterion("criterion 1: SNF suite, 1000 matrices in under 10s"):
        start = time.perf_counter()
        rng = random.Random(SEED)
        for case in range(1000):
            rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
            m = Matrix.from_rows(
                Z,
                [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            res = smith_normal_form(m)
            assert res.u @ m @ res.v == Matrix.diagonal(Z, res.diag, rows, cols), case
            assert all(b % a == 0 for a, b in zip(res.diag, res.diag[1:])), case
            assert all(d > 0 for d in res.diag), case
            assert abs(det(res.u)) == 1 and abs(det(res.v)) == 1, case
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"SNF suite took {elapsed:.1f}s"


def test_criterion_02_hom_oracle():
    with criterion("criterion 2: Hom groups match brute enumeration, 200 pairs"):
        rng = _stream(SEED, "acc-hom")
        for case in range(200):
            a = random_finite_module(rng, Z, max_order=36)
            b = random_finite_module(rng, Z, max_order=36)
            got = canonical_form(hom_group(a, b).group)
            want = canonical_form(brute_hom(a, b, cap=60000))
            assert got == want, (case, a.rels.to_lists(), b.rels.to_lists())


def test_criterion_03_yoneda():
    with criterion("criterion 3: Yoneda isomorphism, 200 pairs"):
        rng = _stream(SEED, "acc-yoneda")
        for case in range(200):
            x = random_module(rng, Z, BOUNDS)
            f = random_functor(rng, Z, BOUNDS)
            lhs = canonical_form(nat_group(yoneda_embed(x), f).group)
            rhs = canonical_form(evaluate(f, x))
            assert lhs == rhs, case


def test_criterion_04_coyoneda():
    with criterion("criterion 4: CoYoneda isomorphism, 200 pairs"):
        rng = _stream(SEED, "acc-coyoneda")
        for case in range(200):
            f = random_functor(rng, Z, BOUNDS)
            x = random_module(rng, Z, BOUNDS)
            wf, _ = w_of(f)
            lhs = canonical_form(nat_group(f, yoneda_embed(x)).group)
            rhs = canonical_form(hom_group(x, wf).group)
            assert lhs == rhs, case


def test_criterion_05_four_term():
    with criterion("criterion 5: four-term sequence exact, 100 functors"):
        rng = _stream(SEED, "acc-fourterm")
        for case in range(100):
            f = random_functor(rng, Z, BOUNDS)
            ft = four_term(f)
            assert w_of(ft.f0)[0].is_zero, case
            assert w_of(ft.f1)[0].is_zero, case
            report = check_exact(padded_complex([ft.iota, ft.phi, ft.rho]), BATTERY)
            assert report.passed, (case, report.failures[:1])


def test_criterion_06_worked_quotient_instance():
    with criterion("criterion 6: worked instance A -> A/A[2]"):
        f = CoherentFunctor(ModMorphism(free(1), cyc(2), Matrix.from_rows(Z, [[1]])))
        wf, k = w_of(f)
        assert canonical_form(wf) == (1, ())
        assert k.mat.entries == ((2,),)
        r0, unit = r0_functor(f)
        ft = four_term(f)
        assert is_zero_functor(ft.f0)
        tensor2 = CoherentFunctor(ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]])))
        for probe in BATTERY.probes:
            # R0(F) is the identity functor pointwise
            assert canonical_form(evaluate(r0, probe)) == canonical_form(probe)
            # the unit [a] -> 2a is pointwise injective
            comp = evaluate_nat(unit, probe)
            assert kernel_mor(comp)[0].is_zero
            # F1 is the mod-two tensor functor
            assert canonical_form(evaluate(ft.f1, probe)) == canonical_form(
                evaluate(tensor2, probe)
            )


def test_criterion_07_worked_yoneda_instance():
    with criterion("criterion 7: worked resolution of Hom(Z/2, -)"):
        g = yoneda_embed(cyc(2))
        res = injective_resolution(g)
        i0, i1, i2 = res.terms
        for probe in BATTERY.probes:
            two_torsion = canonical_form(evaluate(g, probe))
            assert two_torsion == canonical_form(
                hom_group(cyc(2), probe).group
            )
            assert canonical_form(evaluate(i0, probe)) == canonical_form(probe)
            assert canonical_form(evaluate(i1, probe)) == canonical_form(probe)
            assert canonical_form(evaluate(i2, probe)) == canonical_form(
                tensor_module(cyc(2), probe)
            )
        assert check_exact(padded_complex(list(res.maps)), BATTERY).passed
        assert not is_injective_functor(g)
        assert all(is_injective_functor(t) for t in res.terms)
        # the bound is tight: both higher terms are nonzero
        assert not is_zero_functor(i1)
        assert not is_zero_functor(i2)


def test_criterion_08_resolutions():
    with criterion("criterion 8: 100 random resolutions in under 60s"):
        start = time.perf_counter()
        rng = _stream(SEED, "acc-res")
        for case in range(100):
            f = random_functor(rng, Z, BOUNDS)
            res = injective_resolution(f)
            assert all(is_injective_functor(t) for t in res.terms), case
            report = check_exact(padded_complex(list(res.maps)), BATTERY)
            assert report.passed, case
            assert len(res.terms) == 3  # length at most 2 by construction
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"resolutions took {elapsed:.1f}s"


def test_criterion_09_adjunction():
    with criterion("criterion 9: reflection adjunction on representables, 100 pairs"):
        rng = _stream(SEED, "acc-adj")
        for case in range(100):
            f = random_functor(rng, Z, BOUNDS)
            a = random_module(rng, Z, BOUNDS)
            g = yoneda_embed(a)
            r0, _ = r0_functor(f)
            assert canonical_form(nat_group(f, g).group) == canonical_form(
                nat_group(r0, g).group
            ), case


def test_criterion_10_w_exactness():
    with criterion("criterion 10: kernel functor exact on 100 short exact sequences"):
        rng = _stream(SEED, "acc-wex")
        for case in range(100):
            incl, proj = random_ses(rng, Z, Bounds(gens=3, rels=3, entry=3))
            wq = w_mor(proj)
            wi = w_mor(incl)
            assert module_sequence_exact([wq, wi]), case


def test_criterion_11_l0_stabilization():
    with criterion("criterion 11: coreflection and projective stabilization, 100 functors"):
        rng = _stream(SEED, "acc-l0")
        for case in range(100):
            f = random_functor(rng, Z, BOUNDS)
            l0, counit = l0_functor(f)
            for n in (1, 2, 3):
                fr = free(n)
                assert canonical_form(evaluate(l0, fr)) == canonical_form(
                    evaluate(f, fr)
                ), case
                assert is_iso(evaluate_nat(counit, fr)), case
                assert evaluate(proj_stabilize(f), fr).is_zero, case
            assert is_proj_stable(f) == evaluate(f, free(1)).is_zero, case


def test_criterion_12_representability_trichotomy():
    with criterion("criterion 12: representability trichotomy"):
        rng = _stream(SEED, "acc-rep")
        for case in range(20):
            x = random_module(rng, Z, BOUNDS)
            assert is_representable(yoneda_embed(x)), case
            # recompose with a random free cover of the source
            extra = rng.randrange(0, 3)
            cover = free(x.gens + extra)
            cols = [
                [1 if i == j else 0 for j in range(x.gens)]
                + [rng.randrange(-2, 3) for _ in range(extra)]
                for i in range(x.gens)
            ]
            p = ModMorphism(cover, x, Matrix.from_rows(Z, cols, cols=cover.gens))
            recomposed = CoherentFunctor(compose(yoneda_embed(x).pres, p))
            assert is_representable(recomposed), case
        tensor2 = CoherentFunctor(ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]])))
        assert not is_representable(tensor2)
        for case in range(100):
            f = random_functor(rng, F5, BOUNDS)
            assert is_representable(f), case


def test_criterion_13_representables_projective():
    with criterion("criterion 13: representables lift through 100 random epis"):
        from cohfun import coker_nat, compose_nat
        from cohfun.linalg import Matrix as M, express, hstack

        rng = _stream(SEED, "acc-proj")
        bounds = Bounds(gens=3, rels=3, entry=3)
        for case in range(100):
            f = random_functor(rng, Z, bounds)
            g = random_functor(rng, Z, bounds)
            alpha = random_nat(rng, f, g, bounds)
            quot, proj = coker_nat(alpha)
            x = random_module(rng, Z, bounds)
            y = yoneda_embed(x)
            gamma = random_nat(rng, y, quot, bounds)
            ng_mid = nat_group(y, g)
            ng_q = nat_group(y, quot)
            cols = [ng_q.coords(compose_nat(proj, rep)) for rep in ng_mid.reps]
            comp = hstack(*cols) if cols else M.zeros(Z, ng_q.group.gens, 0)
            coeff = express(comp, ng_q.group.rels, ng_q.coords(gamma))
            assert coeff is not None, case
            lifted = ng_mid.from_coords(coeff)
            assert compose_nat(proj, lifted) == gamma, case


def test_criterion_14_cli_determinism():
    with criterion("criterion 14: CLI golden files, byte-identical runs"):
        from cohfun.cli import main

        data = Path(__file__).parent / "data"
        golden = Path(__file__).parent / "golden"
        scripts = {
            "worked_quotient": ["w F", "fourterm F", "r0 F", "l0 F", "stab-inj F", "is-rep F"],
            "worked_yoneda": ["resolve G", "is-inj G", "w G", "eval G C2", "nat G G"],
        }
        for name, commands in scripts.items():
            outputs = []
            for _ in range(2):
                chunks = []
                for command in commands:
                    out = io.StringIO()
                    code = main(
                        ["--input", str(data / f"{name}.json")] + command.split(), out=out
                    )
                    assert code == 0, command
                    chunks.append(out.getvalue() + f"::cmd {command} done\n")
                outputs.append("".join(chunks))
            assert outputs[0] == outputs[1], name
            assert outputs[0] == (golden / f"{name}.txt").read_text(), name
