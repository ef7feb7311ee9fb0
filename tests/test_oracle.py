import ast
import inspect
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
    identity_mor,
    yoneda_embed,
)
from cohfun import oracle
from cohfun.formats import instance_payload
from cohfun.modules import hom_group
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
    random_functor,
    random_module,
    verify_theorems,
    _divisor_chains,
    _enum_homs,
    _group_invariants,
    _moduli,
    _run,
    _stream,
)
from cohfun.cli import parse_workspace

Z = BaseRing.integers()
F5 = BaseRing.prime_field(5)


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


FIELDS = [BaseRing.prime_field(2), BaseRing.prime_field(3), F5]


class TestBruteOverFields:
    """brute_hom and brute_eval agree with the symbolic side over F_p."""

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_hom_matches_hom_group(self, ring):
        rng = _stream(0, "field-hom", ring)
        bounds = Bounds(gens=3, rels=1, entry=3)
        checked = 0
        for _ in range(40):
            a, b = random_module(rng, ring, bounds), random_module(rng, ring, bounds)
            try:
                want = brute_hom(a, b)
            except ValueError:
                continue  # oversized draw
            checked += 1
            assert canonical_form(want) == canonical_form(hom_group(a, b).group)
        assert checked >= 30

    @pytest.mark.parametrize("ring", FIELDS + [BaseRing.prime_field(7)], ids=str)
    def test_hom_group_from_pruned_presentations(self, ring):
        # hom_group reads Hom over a field off pruned presentations
        rng = _stream(0, "field-hom-pruned", ring)
        checked = 0
        for _ in range(150):
            a, b = random_module(rng, ring, Bounds()), random_module(rng, ring, Bounds())
            try:
                want = brute_hom(a, b, cap=50000)
            except ValueError:
                continue  # oversized draw
            checked += 1
            h = hom_group(a, b)
            assert canonical_form(h.group) == canonical_form(want)
            coords = ModMorphism(h.group, h.group, h.coords_all(list(h.reps)))
            assert coords == identity_mor(h.group)
        assert checked >= 120

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_eval_matches_evaluate(self, ring):
        battery = default_battery(ring)
        rng = _stream(0, "field-eval", ring)
        checked = 0
        for _ in range(40):
            f = random_functor(rng, ring, Bounds(gens=2, rels=2, entry=3))
            probe = battery.probes[rng.randrange(len(battery.probes))]
            try:
                want = brute_eval(f, probe)
            except ValueError:
                continue  # oversized draw
            checked += 1
            assert canonical_form(want) == canonical_form(evaluate(f, probe))
        assert checked >= 30


class TestRefusals:
    """The enumerators refuse at fixed thresholds with fixed messages."""

    def test_infinite_module(self):
        with pytest.raises(ValueError) as exc:
            brute_hom(cyc(2), free(1))
        assert str(exc.value) == "cannot enumerate an infinite module (free rank 1)"

    def test_module_order(self):
        assert canonical_form(brute_hom(free(1), cyc(64), cap=64)) == (0, (64,))
        with pytest.raises(ValueError) as exc:
            brute_hom(free(1), cyc(64), cap=63)
        assert str(exc.value) == "module order 64 exceeds enumeration cap 63"

    def test_hom_enumeration_size(self):
        assert canonical_form(brute_hom(free(2), cyc(8), cap=64)) == (0, (8, 8))
        with pytest.raises(ValueError) as exc:
            brute_hom(free(2), cyc(8), cap=63)
        assert str(exc.value) == "Hom enumeration size 8^2 exceeds cap 63"


def _homs_by_product(src, moduli):
    """Reference Hom enumerator: every assignment of a full product, filtered."""
    elements = list(itertools.product(*(range(m) for m in moduli)))
    rels = src.rels.entries
    out = []
    for images in itertools.product(elements, repeat=src.gens):
        if all(
            sum(rels[i][j] * images[i][t] for i in range(src.gens)) % m == 0
            for j in range(src.rels.cols)
            for t, m in enumerate(moduli)
        ):
            out.append(images)
    return out


def _finite_targets(ring):
    """A cyclic target and a two-coordinate target."""
    if ring.is_field:
        return [FpModule.free(ring, 1), FpModule.free(ring, 2)]
    return [FpModule.cyclic(ring, 6), FpModule(ring, 2, Matrix.from_rows(ring, [[2, 2], [0, 4]]))]


class TestEnumHoms:
    @pytest.mark.parametrize(
        "gens, rels, cols",
        [
            (0, [], 2),  # no generators
            (2, [[0, 2], [0, 3]], 2),  # an all-zero relation column
            (3, [[4, 2], [0, 1], [0, 1]], 2),  # a relation on the first generator only
            (2, [[], []], 0),  # no relations
            (3, [[2, 0, 1], [-1, 3, 0], [0, 0, 2]], 3),
        ],
    )
    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_shapes_match_product_reference(self, ring, gens, rels, cols):
        src = FpModule(ring, gens, Matrix.from_rows(ring, rels, cols=cols))
        for b in _finite_targets(ring):
            moduli = _moduli(b)
            assert _enum_homs(src, moduli, 10 ** 6) == _homs_by_product(src, moduli)

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_random_draws_match_product_reference(self, ring):
        rng = _stream(0, "enum-homs", ring)
        bounds = Bounds(gens=3, rels=3, entry=4)
        for _ in range(30):
            src = random_module(rng, ring, bounds)
            if ring.is_field:
                b = FpModule.free(ring, rng.randrange(1, 3))
            else:
                b = random_finite_module(rng, ring, max_order=12)
            moduli = _moduli(b)
            assert _enum_homs(src, moduli, 10 ** 6) == _homs_by_product(src, moduli)


@pytest.mark.parametrize(
    "moduli, invariants",
    [
        ((4, 2), (2, 4)),
        ((6,), (6,)),
        ((2, 2, 3), (2, 6)),
        ((9, 3), (3, 9)),
        ((), ()),
    ],
)
def test_group_invariants_of_known_groups(moduli, invariants):
    elements = list(itertools.product(*(range(m) for m in moduli)))

    def killed(c):
        return sum(1 for z in elements if all(c * x % m == 0 for x, m in zip(z, moduli)))

    assert _group_invariants(len(elements), killed) == invariants


# The oracle's brute force, and what it may not read: the code it checks.
BRUTE_FORCE = (
    "brute_hom", "brute_eval", "_enum_homs", "_moduli", "_combine",
    "_group_invariants", "_type_module", "_lattice_contains", "_field_solvable",
    "det", "_minors", "_rank", "_generates_kernel",
)
CHECKED = {
    "hom_group", "solve_matrix", "express", "preimage_lattice", "hermite_basis",
    "contains", "solve",  # the solver methods of SnfResult
}


def checked_names_read(source: str) -> dict[str, set[str]]:
    """For each brute-force function in ``source``, the checked names it reads.

    Checked are the names imported from ``.functors`` other than
    ``CoherentFunctor``, and the solvers and Hom groups in CHECKED.
    """
    tree = ast.parse(source)
    from_functors = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "functors"
        for alias in node.names
    }
    checked = (from_functors - {"CoherentFunctor"}) | CHECKED
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in BRUTE_FORCE:
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            found[node.name] = read & checked
    return found


class TestIndependence:
    def test_brute_force_reads_nothing_it_checks(self):
        found = checked_names_read(inspect.getsource(oracle))
        assert found == {name: set() for name in BRUTE_FORCE}

    def test_checker_sees_a_yoneda_embed_call(self):
        source = inspect.getsource(oracle)
        tree = ast.parse(source)
        brute_hom_node = next(
            n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "brute_hom"
        )
        brute_hom_node.body = ast.parse("return brute_eval(yoneda_embed(a), b, cap)").body
        assert checked_names_read(ast.unparse(tree))["brute_hom"] == {"yoneda_embed"}


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


def solve_oracle(ring):
    """The solve-oracle report at seed 0 and 100 cases, as ``check`` runs it."""
    battery = default_battery(ring)
    case = oracle.case_solve_oracle
    return _run("solve-oracle", 200, lambda idx: case(_stream(0, "solve", idx), ring, battery))


class TestSolveOracle:
    @pytest.mark.parametrize("ring", [Z, F5], ids=["Z", "Fp5"])
    def test_production_paths_pass(self, ring):
        assert solve_oracle(ring).passed

    def test_fails_on_a_scaled_kernel_basis(self, monkeypatch):
        # 2K lies in the kernel and has the right rank, but does not generate it
        real = oracle.preimage_lattice
        monkeypatch.setattr(oracle, "preimage_lattice", lambda p, q: real(p, q) + real(p, q))
        report = solve_oracle(Z)
        assert not report.passed
        assert all("basis" in failure for failure in report.failures)

    def test_fails_on_a_dropped_kernel_column(self, monkeypatch):
        real = oracle.preimage_lattice

        def dropped(p, q):
            k = real(p, q)
            return k.slice_cols(0, max(k.cols - 1, 0))

        monkeypatch.setattr(oracle, "preimage_lattice", dropped)
        report = solve_oracle(F5)
        assert not report.passed
        assert all("basis" in failure for failure in report.failures)

    @pytest.mark.parametrize("ring", [Z, F5], ids=["Z", "Fp5"])
    def test_fails_on_a_wrong_particular_solution(self, ring, monkeypatch):
        real = oracle.solve_matrix

        def shifted(m, b):
            x = real(m, b)
            return None if x is None else x + Matrix.from_rows(ring, [[1]] * x.rows, cols=1)

        monkeypatch.setattr(oracle, "solve_matrix", shifted)
        report = solve_oracle(ring)
        assert not report.passed
        assert any("x" in failure for failure in report.failures)


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

    def test_semisimple_collapse_fails_on_a_zero_unit(self, monkeypatch):
        # a zero unit is an iso only where F vanishes; the case must name the probe
        battery = default_battery(F5)
        real_r0 = oracle.r0_functor

        def zero_unit(f):
            r0, _ = real_r0(f)
            return r0, oracle.zero_nat(f, r0)

        monkeypatch.setattr(oracle, "r0_functor", zero_unit)
        failed = 0
        for idx in range(8):
            f = random_functor(_stream(0, "semisimple", idx), F5, Bounds())
            alive = [p for p in battery.probes if not evaluate(f, p).is_zero]
            got = oracle.case_semisimple_collapse(_stream(0, "semisimple", idx), F5, battery)
            if alive:
                failed += 1
                assert got["reason"] == f"unit not iso at {alive[0].describe()}"
            else:
                assert got is None
        assert failed

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
