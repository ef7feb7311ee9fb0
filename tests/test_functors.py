import pytest

from cohfun import (
    BaseRing,
    CoherentFunctor,
    FpModule,
    Matrix,
    ModMorphism,
    canonical_form,
    coker_nat,
    compose_mor,
    compose_nat,
    embed_injective,
    evaluate,
    evaluate_mor,
    evaluate_nat,
    four_term,
    hom_group,
    identity_mor,
    identity_nat,
    inj_stabilize,
    injective_resolution,
    is_inj_stable,
    is_injective_functor,
    is_iso,
    is_mono,
    is_proj_stable,
    is_representable,
    is_zero_functor,
    ker_nat,
    kernel_mor,
    l0_functor,
    nat_group,
    proj_stabilize,
    r0_functor,
    tensor_functor,
    tensor_module,
    w_mor,
    w_of,
    yoneda_embed,
    yoneda_mor,
    zero_nat,
)
from cohfun.functors import NatMorphism
from cohfun.oracle import (
    Bounds,
    check_exact,
    default_battery,
    padded_complex,
    random_functor,
    random_module,
    random_morphism,
    random_nat,
    _stream,
)

Z = BaseRing.integers()
F5 = BaseRing.prime_field(5)
BATTERY = default_battery(Z)


def cyc(d):
    return FpModule.cyclic(Z, d)


def free(n, ring=Z):
    return FpModule.free(ring, n)


def functor(src, tgt, rows):
    return CoherentFunctor(ModMorphism(src, tgt, Matrix.from_rows(Z, rows, cols=src.gens)))


# the two running examples: Z/2 tensor - and A |-> A/A[2]
F_TENSOR2 = functor(free(1), free(1), [[2]])
F_MOD_TORSION = functor(free(1), cyc(2), [[1]])


class TestYonedaEmbed:
    def test_hom_z_is_identity_functor(self):
        y = yoneda_embed(free(1))
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(y, probe)) == canonical_form(probe)

    def test_two_torsion(self):
        y = yoneda_embed(cyc(2))
        assert canonical_form(evaluate(y, cyc(4))) == (0, (2,))

    def test_zero_object(self):
        y = yoneda_embed(free(0))
        assert is_zero_functor(y)


class TestEvaluate:
    def test_tensor_at_z4(self):
        assert canonical_form(evaluate(F_TENSOR2, cyc(4))) == (0, (2,))

    def test_torsion_source_at_z(self):
        assert evaluate(yoneda_embed(cyc(2)), free(1)).is_zero

    def test_quotient_by_torsion(self):
        assert canonical_form(evaluate(F_MOD_TORSION, cyc(4))) == (0, (2,))

    def test_evaluate_mor_functorial(self):
        rng = _stream(0, "evmor")
        bounds = Bounds(gens=3, rels=3, entry=3)
        for _ in range(20):
            f = random_functor(rng, Z, bounds)
            a = random_module(rng, Z, bounds)
            b = random_module(rng, Z, bounds)
            c = random_module(rng, Z, bounds)
            phi = random_morphism(rng, a, b, bounds)
            psi = random_morphism(rng, b, c, bounds)
            assert evaluate_mor(f, compose_mor(psi, phi)) == compose_mor(
                evaluate_mor(f, psi), evaluate_mor(f, phi)
            )
            assert evaluate_mor(f, identity_mor(a)) == identity_mor(evaluate(f, a))


class TestNatGroup:
    def test_yoneda_lemma_values(self):
        rng = _stream(1, "yon")
        for _ in range(40):
            x = random_module(rng, Z, Bounds())
            f = random_functor(rng, Z, Bounds())
            assert canonical_form(nat_group(yoneda_embed(x), f).group) == canonical_form(
                evaluate(f, x)
            )

    def test_tensor_endomorphisms(self):
        assert canonical_form(nat_group(F_TENSOR2, F_TENSOR2).group) == (0, (2,))

    def test_tensor_into_representable(self):
        assert nat_group(F_TENSOR2, yoneda_embed(free(1))).group.is_zero

    def test_reps_round_trip(self):
        ng = nat_group(F_MOD_TORSION, F_MOD_TORSION)
        for rep in ng.reps:
            assert ng.from_coords(ng.coords(rep)) == rep

    def test_reps_match_group_generators(self):
        ng = nat_group(F_TENSOR2, F_TENSOR2)
        assert len(ng.reps) == ng.group.gens


class TestNatMorphism:
    def test_compatibility_enforced(self):
        # no nonzero transformation from the tensor functor to Hom(Z, -)
        f = F_TENSOR2
        g = yoneda_embed(free(1))
        with pytest.raises(ValueError, match="incompatible"):
            NatMorphism(
                source=f,
                target=g,
                a=identity_mor(free(1)),
                b=ModMorphism(free(0), free(1), Matrix.zeros(Z, 1, 0)),
            )

    def test_equality_is_homotopy_aware(self):
        # two a-components differing by s∘g induce the same transformation
        f = F_MOD_TORSION
        ng = nat_group(f, f)
        rep = ng.reps[0]
        shifted = NatMorphism(
            source=f,
            target=f,
            a=rep.a + compose_mor(zero_mor_like(rep), f.pres),
            b=rep.b,
        )
        assert shifted == rep

    def test_pointwise_action(self):
        ident = identity_nat(F_MOD_TORSION)
        for probe in BATTERY.probes:
            comp = evaluate_nat(ident, probe)
            assert comp == identity_mor(evaluate(F_MOD_TORSION, probe))


def zero_mor_like(rep):
    # a legitimate s : Y_target -> X_source for the running example
    from cohfun.modules import zero_mor

    return zero_mor(rep.target.target_module, rep.source.source_module)


class TestW:
    def test_w_of_yoneda_recovers_object(self):
        rng = _stream(2, "wyon")
        for _ in range(30):
            x = random_module(rng, Z, Bounds())
            wf, _ = w_of(yoneda_embed(x))
            assert canonical_form(wf) == canonical_form(x)

    def test_mono_presentation_vanishes(self):
        wf, _ = w_of(F_TENSOR2)
        assert wf.is_zero

    def test_projection_kernel(self):
        wf, k = w_of(F_MOD_TORSION)
        assert canonical_form(wf) == (1, ())
        assert k.mat.entries == ((2,),)

    def test_w_mor_contravariant(self):
        rng = _stream(3, "wmor")
        bounds = Bounds(gens=3, rels=3, entry=3)
        for _ in range(15):
            f = random_functor(rng, Z, bounds)
            g = random_functor(rng, Z, bounds)
            h = random_functor(rng, Z, bounds)
            al = random_nat(rng, f, g, bounds)
            be = random_nat(rng, g, h, bounds)
            assert w_mor(compose_nat(be, al)) == compose_mor(w_mor(al), w_mor(be))


class TestFourTerm:
    def test_worked_instance(self):
        ft = four_term(F_MOD_TORSION)
        assert canonical_form(ft.wf) == (1, ())
        assert is_zero_functor(ft.f0)
        assert w_of(ft.f0)[0].is_zero and w_of(ft.f1)[0].is_zero
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(ft.f1, probe)) == canonical_form(
                evaluate(F_TENSOR2, probe)
            )
            # the unit is pointwise injective here: ker(phi_A) == 0
            k, _ = kernel_mor(evaluate_nat(ft.phi, probe))
            assert k.is_zero
        assert check_exact(padded_complex([ft.iota, ft.phi, ft.rho]), BATTERY).passed

    def test_representable_collapses(self):
        ft = four_term(yoneda_embed(cyc(6)))
        assert is_zero_functor(ft.f0) and is_zero_functor(ft.f1)

    def test_stable_case(self):
        ft = four_term(F_TENSOR2)
        assert ft.wf.is_zero
        assert is_zero_functor(ft.r0)
        assert is_zero_functor(ft.f1)
        for probe in BATTERY.probes[:4]:
            assert canonical_form(evaluate(ft.f0, probe)) == canonical_form(
                evaluate(F_TENSOR2, probe)
            )

    def test_random_exactness(self):
        rng = _stream(4, "ft")
        small = default_battery(Z).probes[:5]
        from cohfun.oracle import ProbeBattery

        battery = ProbeBattery(probes=tuple(small))
        for _ in range(15):
            f = random_functor(rng, Z, Bounds())
            ft = four_term(f)
            assert w_of(ft.f0)[0].is_zero
            assert w_of(ft.f1)[0].is_zero
            assert check_exact(padded_complex([ft.iota, ft.phi, ft.rho]), battery).passed


class TestReflection:
    def test_worked_unit(self):
        r0, unit = r0_functor(F_MOD_TORSION)
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(r0, probe)) == canonical_form(probe)
        comp = evaluate_nat(unit, cyc(4))
        # [a] -> 2a lands in the index-two subgroup
        img, _ = __import__("cohfun.modules", fromlist=["image_mor"]).image_mor(comp)
        assert canonical_form(img) == (0, (2,))

    def test_unit_iso_for_representables(self):
        _, unit = r0_functor(yoneda_embed(cyc(6)))
        assert is_zero_functor(ker_nat(unit)[0])
        assert is_zero_functor(coker_nat(unit)[0])

    def test_reflection_of_stable_functor_vanishes(self):
        r0, _ = r0_functor(F_TENSOR2)
        assert is_zero_functor(r0)


class TestStabilization:
    def test_already_stable(self):
        st = inj_stabilize(F_TENSOR2)
        assert is_inj_stable(F_TENSOR2)
        for probe in BATTERY.probes[:4]:
            assert canonical_form(evaluate(st, probe)) == canonical_form(
                evaluate(F_TENSOR2, probe)
            )

    def test_representable_stabilizes_to_zero(self):
        assert not is_inj_stable(yoneda_embed(cyc(2)))
        assert is_zero_functor(inj_stabilize(yoneda_embed(cyc(2))))

    def test_zero(self):
        z = yoneda_embed(free(0))
        assert is_inj_stable(z)
        assert is_zero_functor(inj_stabilize(z))


class TestTensorFunctor:
    def test_matches_tensor_module(self):
        for w in (cyc(2), free(1), FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 3]]))):
            tf = tensor_functor(w)
            for probe in BATTERY.probes:
                assert canonical_form(evaluate(tf, probe)) == canonical_form(
                    tensor_module(w, probe)
                )

    def test_zero(self):
        assert is_zero_functor(tensor_functor(free(0)))


class TestCoreflection:
    def test_worked_instance(self):
        l0, counit = l0_functor(F_MOD_TORSION)
        assert canonical_form(evaluate(F_MOD_TORSION, free(1))) == (1, ())
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(l0, probe)) == canonical_form(probe)
            # counit pointwise surjects onto A/A[2]
            comp = evaluate_nat(counit, probe)
            from cohfun.modules import cokernel_mor as coker

            assert coker(comp)[0].is_zero

    def test_right_exact_counit_iso(self):
        _, counit = l0_functor(F_TENSOR2)
        for probe in BATTERY.probes:
            assert is_iso(evaluate_nat(counit, probe))

    def test_projectively_stable(self):
        y2 = yoneda_embed(cyc(2))
        assert evaluate(y2, free(1)).is_zero
        assert is_proj_stable(y2)
        l0, _ = l0_functor(y2)
        assert is_zero_functor(l0)

    def test_counit_with_no_maps_into_the_ring(self):
        # Hom(Z/2, Z) == Hom(Z/4, Z) == 0: no rows in either counit component
        f = functor(cyc(2), cyc(4), [[2]])
        l0, counit = l0_functor(f)
        assert counit.a.mat == Matrix.zeros(Z, 0, 1)
        assert counit.b.mat == Matrix.zeros(Z, 0, 1)
        assert is_zero_functor(l0)
        st = proj_stabilize(f)
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(st, probe)) == canonical_form(evaluate(f, probe))

    def test_counit_stacks_the_hom_generators(self):
        rng = _stream(6, "l0-rows")
        for _ in range(10):
            f = random_functor(rng, Z, Bounds(gens=3, rels=3, entry=3))
            _, counit = l0_functor(f)
            one = free(1)
            hx, hy = hom_group(f.source_module, one), hom_group(f.target_module, one)
            a_rows = [rep.mat for rep in hx.reps]
            b_rows = [Matrix.zeros(Z, 1, f.target_module.gens)] * hx.group.rels.cols
            b_rows += [rep.mat for rep in hy.reps]
            assert counit.a.mat.entries == tuple(row for m in a_rows for row in m.entries)
            assert counit.b.mat.entries == tuple(row for m in b_rows for row in m.entries)

    def test_stabilization_dies_on_frees(self):
        rng = _stream(5, "l0")
        for _ in range(10):
            f = random_functor(rng, Z, Bounds(gens=3, rels=3, entry=3))
            st = proj_stabilize(f)
            for n in (1, 2, 3):
                assert evaluate(st, free(n)).is_zero


class TestKerCokerNat:
    def test_identity_has_zero_kernel_cokernel(self):
        ident = identity_nat(F_TENSOR2)
        assert is_zero_functor(ker_nat(ident)[0])
        assert is_zero_functor(coker_nat(ident)[0])

    def test_cokernel_of_zero_is_target(self):
        z = zero_nat(F_TENSOR2, F_MOD_TORSION)
        c, _ = coker_nat(z)
        for probe in BATTERY.probes[:5]:
            assert canonical_form(evaluate(c, probe)) == canonical_form(
                evaluate(F_MOD_TORSION, probe)
            )

    def test_kernel_between_representables_is_representable(self):
        m = ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]]))
        alpha = yoneda_mor(m)
        k, _ = ker_nat(alpha)
        assert is_representable(k)

    def test_kernel_of_unit_is_stabilization(self):
        ft = four_term(F_MOD_TORSION)
        k, _ = ker_nat(ft.phi)
        assert is_zero_functor(k)

    def test_pointwise_semantics(self):
        rng = _stream(6, "kc")
        bounds = Bounds(gens=2, rels=2, entry=3)
        from cohfun.modules import cokernel_mor as coker_m
        from cohfun.modules import kernel_mor as kernel_m

        for _ in range(10):
            f = random_functor(rng, Z, bounds)
            g = random_functor(rng, Z, bounds)
            alpha = random_nat(rng, f, g, bounds)
            kf, ki = ker_nat(alpha)
            cf, cp = coker_nat(alpha)
            for probe in BATTERY.probes[:4]:
                comp = evaluate_nat(alpha, probe)
                assert canonical_form(evaluate(kf, probe)) == canonical_form(
                    kernel_m(comp)[0]
                )
                assert canonical_form(evaluate(cf, probe)) == canonical_form(
                    coker_m(comp)[0]
                )


class TestRepresentability:
    def test_yoneda_detected(self):
        assert is_representable(yoneda_embed(cyc(6)))

    def test_tensor_not_representable(self):
        assert not is_representable(F_TENSOR2)

    def test_zero_functor_representable(self):
        z = CoherentFunctor(identity_mor(free(1)))
        assert is_representable(z)

    def test_semisimple_collapse(self):
        rng = _stream(7, "ss")
        for _ in range(15):
            f = random_functor(rng, F5, Bounds())
            assert is_representable(f)


class TestInjectives:
    def test_embed_worked_instance(self):
        h, mono = embed_injective(yoneda_embed(cyc(2)))
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(h, probe)) == canonical_form(probe)
            assert is_mono(evaluate_nat(mono, probe))

    def test_embed_degenerates_on_free_presentations(self):
        h, mono = embed_injective(F_TENSOR2)
        assert h == F_TENSOR2
        assert mono == identity_nat(F_TENSOR2)

    def test_embed_zero(self):
        z = yoneda_embed(free(0))
        h, _ = embed_injective(z)
        assert is_zero_functor(h)

    def test_injectivity_judgments(self):
        assert is_injective_functor(F_TENSOR2)
        assert not is_injective_functor(yoneda_embed(cyc(2)))
        assert is_injective_functor(yoneda_embed(free(1)))

    def test_resolution_worked_instance(self):
        res = injective_resolution(yoneda_embed(cyc(2)))
        i0, i1, i2 = res.terms
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(i0, probe)) == canonical_form(probe)
            assert canonical_form(evaluate(i1, probe)) == canonical_form(probe)
            assert canonical_form(evaluate(i2, probe)) == canonical_form(
                tensor_module(cyc(2), probe)
            )
        assert not is_zero_functor(i1) and not is_zero_functor(i2)
        assert check_exact(padded_complex(list(res.maps)), BATTERY).passed

    def test_resolution_of_injective_is_short(self):
        res = injective_resolution(F_TENSOR2)
        assert res.terms[0] == F_TENSOR2
        assert is_zero_functor(res.terms[1])
        assert is_zero_functor(res.terms[2])

    def test_resolution_of_zero(self):
        res = injective_resolution(yoneda_embed(free(0)))
        assert all(is_zero_functor(t) for t in res.terms)

    def test_random_resolutions(self):
        rng = _stream(8, "res")
        from cohfun.oracle import ProbeBattery

        battery = ProbeBattery(probes=BATTERY.probes[:5])
        for _ in range(8):
            f = random_functor(rng, Z, Bounds(gens=3, rels=3, entry=3))
            res = injective_resolution(f)
            assert all(is_injective_functor(t) for t in res.terms)
            assert check_exact(padded_complex(list(res.maps)), battery).passed


class TestCoYonedaAndAdjunction:
    def test_coyoneda(self):
        rng = _stream(9, "coy")
        for _ in range(30):
            f = random_functor(rng, Z, Bounds())
            x = random_module(rng, Z, Bounds())
            wf, _ = w_of(f)
            assert canonical_form(nat_group(f, yoneda_embed(x)).group) == canonical_form(
                hom_group(x, wf).group
            )

    def test_adjunction(self):
        rng = _stream(10, "adj")
        for _ in range(20):
            f = random_functor(rng, Z, Bounds())
            a = random_module(rng, Z, Bounds())
            g = yoneda_embed(a)
            r0, _ = r0_functor(f)
            assert canonical_form(nat_group(f, g).group) == canonical_form(
                nat_group(r0, g).group
            )
