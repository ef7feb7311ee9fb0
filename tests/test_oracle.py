import itertools
import json
import random

import pytest

from cohfun import (
    BaseRing,
    CoherentFunctor,
    FpModule,
    Matrix,
    ModMorphism,
    canonical_form,
    evaluate,
    four_term,
    yoneda_embed,
)
from cohfun.formats import instance_payload
from cohfun.oracle import (
    Bounds,
    ProbeBattery,
    brute_eval,
    brute_hom,
    check_exact,
    default_battery,
    padded_complex,
    random_finite_module,
    random_instance,
    verify_theorems,
    _divisor_chains,
    _run,
)
from cohfun.cli import parse_workspace

Z = BaseRing.integers()


def cyc(d):
    return FpModule.cyclic(Z, d)


def free(n):
    return FpModule.free(Z, n)


class TestBattery:
    def test_default_contents(self):
        battery = default_battery(Z)
        names = [p.describe() for p in battery.probes]
        assert names == ["Z^1", "Z/2", "Z/3", "Z/4", "Z/6", "Z^1 + Z/2", "Z/8", "Z/9"]

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            ProbeBattery(probes=())

    def test_field_battery(self):
        battery = default_battery(BaseRing.prime_field(5))
        assert [p.gens for p in battery.probes] == [1, 2, 3]


class TestBruteEval:
    def test_tensor_at_z4(self):
        f = CoherentFunctor(ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]])))
        assert canonical_form(brute_eval(f, cyc(4))) == (0, (2,))

    def test_yoneda_at_self(self):
        f = yoneda_embed(cyc(2))
        assert canonical_form(brute_eval(f, cyc(2))) == (0, (2,))

    def test_zero_functor(self):
        z = CoherentFunctor(
            ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[1]]))
        )
        assert brute_eval(z, cyc(6)).is_zero

    def test_rejects_oversized(self):
        f = yoneda_embed(free(1))
        big = cyc(5000)
        with pytest.raises(ValueError, match="cap"):
            brute_eval(f, big, cap=4096)

    def test_rejects_infinite_probe(self):
        f = yoneda_embed(free(1))
        with pytest.raises(ValueError, match="infinite"):
            brute_eval(f, free(1))

    def test_agreement_with_evaluate(self):
        from cohfun.oracle import random_functor, _stream

        battery = default_battery(Z)
        rng = _stream(100, "agree")
        checked = 0
        for _ in range(60):
            f = random_functor(rng, Z, Bounds(gens=2, rels=2, entry=3))
            probe = battery.probes[rng.randrange(len(battery.probes))]
            try:
                want = brute_eval(f, probe)
            except ValueError:
                continue
            checked += 1
            assert canonical_form(want) == canonical_form(evaluate(f, probe))
        assert checked >= 30


class TestBruteHom:
    def test_known_values(self):
        assert canonical_form(brute_hom(cyc(4), cyc(6))) == (0, (2,))
        assert canonical_form(brute_hom(cyc(2), cyc(2))) == (0, (2,))
        assert brute_hom(cyc(2), cyc(3)).is_zero

    def test_noncyclic(self):
        a = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 4]]))
        assert canonical_form(brute_hom(a, cyc(4))) == (0, (2, 4))


class TestCheckExact:
    def test_four_term_passes(self):
        f = CoherentFunctor(
            ModMorphism(free(1), cyc(2), Matrix.from_rows(Z, [[1]]))
        )
        ft = four_term(f)
        report = check_exact(padded_complex([ft.iota, ft.phi, ft.rho]), default_battery(Z))
        assert report.passed

    def test_corrupted_complex_fails_with_probe_named(self):
        # dropping a relation spoils exactness: identity then identity is
        # not a complex with zero composite unless the middle map kills it
        from cohfun.functors import identity_nat

        f = CoherentFunctor(ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]])))
        bad = [identity_nat(f), identity_nat(f)]
        report = check_exact(bad, default_battery(Z))
        assert not report.passed
        assert report.failures
        assert "probe" in report.failures[0]

    def test_zero_complex_passes(self):
        z = yoneda_embed(free(0))
        from cohfun.functors import zero_nat

        report = check_exact([zero_nat(z, z), zero_nat(z, z)], default_battery(Z))
        assert report.passed

    def test_noncomposable_rejected(self):
        from cohfun.functors import identity_nat

        f = CoherentFunctor(ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]])))
        g = yoneda_embed(cyc(2))
        with pytest.raises(ValueError):
            check_exact([identity_nat(f), identity_nat(g)], default_battery(Z))

    def test_verdict_stable_under_re_presentation(self):
        # conjugating the middle term by an isomorphism of presentations
        # (block sum with an identity) must not change the verdict
        from cohfun.functors import NatMorphism, compose_nat, identity_nat
        from cohfun.linalg import block_diag
        from cohfun.modules import direct_sum

        f = CoherentFunctor(ModMorphism(free(1), cyc(2), Matrix.from_rows(Z, [[1]])))
        ft = four_term(f)
        battery = ProbeBattery(probes=default_battery(Z).probes[:5])
        pad = cyc(3)
        sx, ix, _, px, _ = direct_sum(f.pres.source, pad)
        sy, iy, _, py, _ = direct_sum(f.pres.target, pad)
        padded = CoherentFunctor(
            ModMorphism(sx, sy, block_diag(f.pres.mat, Matrix.identity(Z, pad.gens)))
        )
        iso_to = NatMorphism(source=f, target=padded, a=px, b=py)
        iso_from = NatMorphism(source=padded, target=f, a=ix, b=iy)
        assert compose_nat(iso_from, iso_to) == identity_nat(f)
        assert compose_nat(iso_to, iso_from) == identity_nat(padded)
        original = check_exact(padded_complex([ft.iota, ft.phi, ft.rho]), battery)
        conjugated = check_exact(
            padded_complex(
                [compose_nat(iso_to, ft.iota), compose_nat(ft.phi, iso_from), ft.rho]
            ),
            battery,
        )
        assert original.passed and conjugated.passed


class TestRandomInstances:
    def test_reproducible(self):
        for kind in ("module", "morphism", "functor", "nat", "ses"):
            first = random_instance(kind, 42)
            second = random_instance(kind, 42)
            if kind == "module":
                assert first == second
            elif kind == "morphism":
                assert first.key() == second.key()
            elif kind == "functor":
                assert first == second
            elif kind == "nat":
                assert first.a.mat == second.a.mat and first.b.mat == second.b.mat
            else:
                assert first.mid == second.mid

    def test_distinct_seeds_differ_somewhere(self):
        mods = [random_instance("module", seed) for seed in range(8)]
        assert len({m.key() if hasattr(m, "key") else m for m in mods}) > 1

    def test_morphisms_well_defined_by_construction(self):
        for seed in range(10):
            random_instance("morphism", seed)  # constructor validates

    def test_ses_is_pointwise_exact(self):
        battery = ProbeBattery(probes=default_battery(Z).probes[:4])
        for seed in (0, 1, 2):
            ses = random_instance("ses", seed)
            assert check_exact(padded_complex([ses.incl, ses.proj]), battery).passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_instance("widget", 0)


def _chains_by_product(max_order):
    """Reference divisor-chain table: every tuple of a full product, filtered."""
    chains = []
    for k in (1, 2, 3):
        for chain in itertools.product(range(2, max_order + 1), repeat=k):
            ok = all(chain[i + 1] % chain[i] == 0 for i in range(k - 1))
            order = 1
            for d in chain:
                order *= d
            if ok and order <= max_order:
                chains.append(chain)
    return chains


class TestChainTable:
    def test_equals_product_reference_in_order(self):
        for max_order in range(1, 61):
            assert list(_divisor_chains(max_order)) == _chains_by_product(max_order)

    @pytest.mark.parametrize(
        "seed, max_order, gens, rels",
        [
            (0, 36, 3, [[2, 4, 8], [0, 2, 4], [0, -6, -6]]),
            (1, 36, 1, [[10]]),
            (2, 36, 3, [[-2, 2, 4], [0, 2, 0], [-8, 8, 8]]),
            (7, 36, 1, [[22]]),
            (42, 36, 2, [[6, -18], [-2, 10]]),
            (3, 12, 1, [[9]]),
        ],
    )
    def test_draws_pinned(self, seed, max_order, gens, rels):
        m = random_finite_module(random.Random(seed), Z, max_order=max_order)
        assert m.gens == gens
        assert m.rels.to_lists() == rels


class TestReports:
    def test_zero_cases_flagged(self):
        report = _run("empty", 0, lambda idx: None)
        assert report.passed and report.note == "no cases"
        assert "no cases" in report.line()

    def test_failure_payload_is_rerunnable(self):
        f = random_instance("functor", 7)
        payload = instance_payload(f)
        ws = parse_workspace(json.dumps(payload))
        again = list(ws.functors.values())[0]
        assert again.pres.mat == f.pres.mat
        assert again.pres.source == f.pres.source

    def test_verify_theorems_smoke(self):
        reports = verify_theorems(ring=Z, seed=0, cases=2)
        assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
        names = {r.name for r in reports}
        assert {"yoneda", "coyoneda", "four-term", "resolutions", "w-exactness"} <= names

    @pytest.mark.parametrize("cases", [0, 1, 4])
    @pytest.mark.parametrize("ring", [Z, BaseRing.prime_field(5)], ids=["Z", "Fp5"])
    def test_report_names_and_counts_pinned(self, ring, cases):
        half = max(1, cases // 2) if cases else 0
        heavy = max(1, cases // 4) if cases else 0
        expected = [
            ("snf-contract", 10 * cases), ("solve-oracle", 2 * cases),
            ("yoneda", cases), ("coyoneda", cases), ("representable-values", half),
            ("adjunction", cases), ("four-term", heavy), ("w-exactness", heavy),
            ("w-presentation-independence", cases), ("vanishing", cases),
            ("representables-projective", heavy), ("equivalence", heavy),
            ("functoriality", heavy), ("stabilization", heavy), ("resolutions", heavy),
        ]
        if ring.is_field:
            expected.append(("semisimple-collapse", cases))
        else:
            expected[2:2] = [("hom-oracle", cases), ("brute-eval-agreement", 3 * cases)]
        reports = verify_theorems(ring=ring, seed=0, cases=cases)
        assert [(r.name, r.cases) for r in reports] == expected
        assert len(expected) == (16 if ring.is_field else 17)
