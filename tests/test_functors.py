import pytest

from cohfun import (
    BaseRing,
    CoherentFunctor,
    FpModule,
    Matrix,
    ModMorphism,
    canonical_form,
    coker_nat,
    cokernel_mor,
    compose_mor,
    compose_nat,
    embed_injective,
    evaluate,
    evaluate_mor,
    evaluate_nat,
    four_term,
    free_presentation,
    hom_group,
    identity_mor,
    identity_nat,
    inj_stabilize,
    injective_resolution,
    is_inj_stable,
    is_injective_functor,
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
    w_mor,
    w_of,
    yoneda_embed,
    yoneda_mor,
    zero_mor,
)
from cohfun import functors as functors_module
from cohfun.functors import NatMorphism, _evaluation, nat_lift
from cohfun.linalg import hstack, vstack
from cohfun.oracle import (
    Bounds,
    check_exact,
    default_battery,
    module_sequence_exact,
    random_functor,
    random_module,
    random_morphism,
    random_nat,
    _is_mono,
    _stream,
)
from reference import add, biproduct, express, reps, tensor_module, zero_nat

Z = BaseRing.integers()
F2 = BaseRing.prime_field(2)
F3 = BaseRing.prime_field(3)
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

    def test_hom_element_outside_the_kernel_raises(self):
        # 1 in Hom(Z, Z) is not a transformation Z/2 ⊗ - -> Hom(Z, -)
        ng = nat_group(F_TENSOR2, yoneda_embed(free(1)))
        with pytest.raises(ValueError, match="escaped"):
            ng.coords_from_hom(Matrix.column(Z, [1]))


class TestCoordinatesAgainstKernelBases:
    def test_unique_solutions_agree_with_the_coset_solve(self):
        """Nat coordinates and w(F) maps solved against a kernel's Hermite basis
        alone give back the a components exactly, and differ from the Smith
        particular solution against [basis | relations] by a relation.

        The two solutions differ only when that Smith form pivots on a
        relation column, which few draws make it do; this stream holds
        draws where each of them does.
        """
        rng = _stream(12, "kernel-basis-coords")
        nat_moved = w_moved = 0
        for _ in range(100):
            f, g = random_functor(rng, Z, Bounds()), random_functor(rng, Z, Bounds())
            alpha = random_nat(rng, f, g, Bounds())
            ng = nat_group(f, g)
            x = ng.hom_x.coords(alpha.a)
            new, old = ng.coords(alpha), express(ng.incl.mat, ng.incl.target.rels, x)
            assert ng.incl.mat @ new == x
            assert ng.group.snf.contains(new - old)
            nat_moved += new != old
            (wg, kg), (wf, kf) = w_of(g), w_of(f)
            old_w = express(kf.mat, f.source_module.rels, alpha.a.mat @ kg.mat)
            assert w_mor(alpha) == ModMorphism(wg, wf, old_w)
            w_moved += w_mor(alpha).mat != old_w
        assert nat_moved and w_moved


def lift_by_composing_reps(domain, codomain, target, along):
    """Reference for nat_lift: compose each generator of ``domain``, then solve."""
    empty = Matrix.zeros(codomain.group.ring, codomain.group.gens, 0)
    comp = hstack(empty, *(codomain.coords(along(rep)) for rep in domain.reps))
    return express(comp, codomain.group.rels, codomain.coords(target))


class TestNatLift:
    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_matches_composed_reps(self, ring):
        rng = _stream(7, f"natlift-{ring}")
        bounds = Bounds(gens=2, rels=2, entry=3)
        seen = {"none": 0, "empty": 0, "lifted": 0}
        for _ in range(12):
            f, g, h = (random_functor(rng, ring, bounds) for _ in range(3))
            # pre only: gamma : H -> G composed with pre : F -> H
            pre = random_nat(rng, f, h, bounds)
            domain, codomain = nat_group(h, g), nat_group(f, g)
            target = random_nat(rng, f, g, bounds)
            got = nat_lift(domain, codomain, target, pre=pre)
            assert got == lift_by_composing_reps(
                domain, codomain, target, lambda gamma: compose_nat(gamma, pre)
            )
            seen["none"] += got is None
            seen["empty"] += domain.group.gens == 0
            seen["lifted"] += got is not None and domain.group.gens > 0
            # post only: gamma : F -> G composed with post : G -> H
            post = random_nat(rng, g, h, bounds)
            domain, codomain = nat_group(f, g), nat_group(f, h)
            target = random_nat(rng, f, h, bounds)
            got = nat_lift(domain, codomain, target, post=post)
            assert got == lift_by_composing_reps(
                domain, codomain, target, lambda gamma: compose_nat(post, gamma)
            )
            seen["none"] += got is None
            seen["empty"] += domain.group.gens == 0
            seen["lifted"] += got is not None and domain.group.gens > 0
        assert all(seen.values())

    def test_identity_not_in_image_of_zero(self):
        f = yoneda_embed(free(1))
        pre = zero_nat(f, F_TENSOR2)
        domain, codomain = nat_group(F_TENSOR2, f), nat_group(f, f)
        assert nat_lift(domain, codomain, identity_nat(f), pre=pre) is None

    def test_domain_without_generators(self):
        # Nat(Z/2 ⊗ -, Hom(Z, -)) == 0, so only zero lifts
        f = yoneda_embed(free(1))
        pre = zero_nat(f, F_TENSOR2)
        domain, codomain = nat_group(F_TENSOR2, f), nat_group(f, f)
        assert domain.group.gens == 0
        assert nat_lift(domain, codomain, zero_nat(f, f), pre=pre) == Matrix.zeros(Z, 0, 1)

    def test_rejects_mismatched_endpoints(self):
        domain = nat_group(F_TENSOR2, F_MOD_TORSION)
        codomain = nat_group(F_MOD_TORSION, F_MOD_TORSION)
        target = identity_nat(F_MOD_TORSION)
        with pytest.raises(ValueError, match="endpoint"):
            nat_lift(domain, codomain, target)  # sources differ, no pre
        with pytest.raises(ValueError, match="endpoint"):
            # pre must end at F_TENSOR2
            nat_lift(domain, codomain, target, pre=identity_nat(F_MOD_TORSION))
        with pytest.raises(ValueError, match="endpoint"):
            nat_lift(
                domain,
                codomain,
                target,
                pre=zero_nat(F_MOD_TORSION, F_TENSOR2),
                post=zero_nat(F_TENSOR2, F_MOD_TORSION),  # must start at F_MOD_TORSION
            )


class TestNatMorphism:
    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_compatibility_enforced(self, ring):
        # f∘a - b∘g = [[2]] is not a relation of the free Y; over Z this says
        # there is no nonzero transformation from Z/2 ⊗ - to Hom(Z, -)
        one = free(1, ring)
        f = CoherentFunctor(ModMorphism(one, one, Matrix.from_rows(ring, [[2]])))
        g = yoneda_embed(one)
        with pytest.raises(ValueError, match="incompatible"):
            NatMorphism(
                source=f,
                target=g,
                a=identity_mor(one),
                b=ModMorphism(free(0, ring), one, Matrix.zeros(ring, 1, 0)),
            )

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_defect_in_the_relation_span_is_accepted(self, ring):
        # f∘a - b∘g = [[2]] is a nonzero matrix, but a relation of Y = ring/2
        one, y = free(1, ring), FpModule.cyclic(ring, 2)
        f = CoherentFunctor(ModMorphism(one, y, Matrix.identity(ring, 1)))
        g = yoneda_embed(one)
        a = ModMorphism(one, one, Matrix.from_rows(ring, [[2]]))
        b = ModMorphism(g.target_module, y, Matrix.zeros(ring, 1, 0))
        defect = f.pres.mat @ a.mat - b.mat @ g.pres.mat
        assert not defect.is_zero and y.snf.contains(defect)
        assert NatMorphism(source=f, target=g, a=a, b=b).a is a

    def test_equality_is_homotopy_aware(self):
        # two a-components differing by s∘g induce the same transformation
        f = F_MOD_TORSION
        ng = nat_group(f, f)
        rep = ng.reps[0]
        shifted = NatMorphism(
            source=f,
            target=f,
            a=add(rep.a, compose_mor(zero_mor_like(rep), f.pres)),
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
        assert canonical_form(ft.r0.source_module) == (1, ())
        assert is_zero_functor(ft.f0)
        assert w_of(ft.f0)[0].is_zero and w_of(ft.f1)[0].is_zero
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(ft.f1, probe)) == canonical_form(
                evaluate(F_TENSOR2, probe)
            )
            # the unit is pointwise injective here: ker(phi_A) == 0
            k, _ = kernel_mor(evaluate_nat(ft.phi, probe))
            assert k.is_zero
        assert check_exact([ft.iota, ft.phi, ft.rho], BATTERY).passed

    def test_representable_collapses(self):
        ft = four_term(yoneda_embed(cyc(6)))
        assert is_zero_functor(ft.f0) and is_zero_functor(ft.f1)

    def test_stable_case(self):
        ft = four_term(F_TENSOR2)
        assert ft.r0.source_module.is_zero
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
            assert check_exact([ft.iota, ft.phi, ft.rho], battery).passed


class TestReflection:
    def test_worked_unit(self):
        r0, unit = r0_functor(F_MOD_TORSION)
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(r0, probe)) == canonical_form(probe)
        comp = evaluate_nat(unit, cyc(4))
        # [a] -> 2a lands in the index-two subgroup
        img, _ = kernel_mor(cokernel_mor(comp)[1])
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

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_f0_alone_is_the_four_term_f0(self, ring):
        rng = _stream(0, "inj-stabilize", ring)
        for _ in range(200):
            f = random_functor(rng, ring, Bounds())
            assert inj_stabilize(f) == four_term(f).f0


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
            assert module_sequence_exact([evaluate_nat(counit, probe)])

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
            a_rows = [rep.mat for rep in reps(hx)]
            b_rows = [Matrix.zeros(Z, 1, f.target_module.gens)] * hx.group.rels.cols
            b_rows += [rep.mat for rep in reps(hy)]
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


def reference_ker_nat(alpha):
    """The kernel built from biproducts and cokernels, the reference for the closed form."""
    f, g = alpha.source, alpha.target
    s1, i1, _, _, _ = biproduct(f.source_module, g.target_module)
    d, pi_d = cokernel_mor(ModMorphism(g.source_module, s1, vstack(alpha.a.mat, -g.pres.mat)))
    j = compose_mor(pi_d, i1)
    s2, k1, k2, _, _ = biproduct(d, f.target_module)
    _, pi_e = cokernel_mor(ModMorphism(f.source_module, s2, vstack(j.mat, -f.pres.mat)))
    ker = CoherentFunctor(compose_mor(pi_e, k1))
    return ker, NatMorphism(source=ker, target=f, a=j, b=compose_mor(pi_e, k2))


def reference_coker_nat(alpha):
    """The cokernel whose projection is the biproduct's second projection."""
    f, g = alpha.source, alpha.target
    s, _, _, _, p2 = biproduct(f.source_module, g.target_module)
    c = CoherentFunctor(ModMorphism(g.source_module, s, vstack(alpha.a.mat, g.pres.mat)))
    return c, NatMorphism(source=g, target=c, a=identity_mor(g.source_module), b=p2)


def reference_four_term(f):
    """The four-term sequence built in one pass from the kernel of f, unit included."""
    x, y = f.source_module, f.target_module
    zero = FpModule.zero(f.ring)
    wf, k = kernel_mor(f.pres)
    coim, pi_v = cokernel_mor(k)
    f0 = CoherentFunctor(ModMorphism(coim, y, f.pres.mat))
    r0, f1 = yoneda_embed(wf), CoherentFunctor(k)
    iota = NatMorphism(source=f0, target=f, a=pi_v, b=identity_mor(y))
    phi = NatMorphism(source=f, target=r0, a=k, b=zero_mor(zero, y))
    rho = NatMorphism(source=r0, target=f1, a=identity_mor(wf), b=zero_mor(x, zero))
    return (f0, r0, f1), (iota, phi, rho)


def nat_keys(alpha):
    return alpha.source.pres.key(), alpha.target.pres.key(), alpha.a.key(), alpha.b.key()


class TestClosedForms:
    @pytest.mark.parametrize("ring", [Z, F2, F3, F5], ids=str)
    def test_match_the_biproduct_constructions(self, ring):
        rng = _stream(0, "closed", ring)
        bounds = Bounds(gens=3, rels=3, entry=3)
        for _ in range(25):
            f = random_functor(rng, ring, bounds)
            g = random_functor(rng, ring, bounds)
            ft = four_term(f)
            functors, maps = reference_four_term(f)
            assert [h.pres.key() for h in (ft.f0, ft.r0, ft.f1)] == [h.pres.key() for h in functors]
            assert [nat_keys(m) for m in (ft.iota, ft.phi, ft.rho)] == [nat_keys(m) for m in maps]
            r0, unit = r0_functor(f)
            assert (r0.pres.key(), nat_keys(unit)) == (ft.r0.pres.key(), nat_keys(ft.phi))
            pairs = ((ker_nat, reference_ker_nat), (coker_nat, reference_coker_nat))
            for alpha in (random_nat(rng, f, g, bounds), unit):
                for build, reference in pairs:
                    (h, m), (h_ref, m_ref) = build(alpha), reference(alpha)
                    assert h.pres.key() == h_ref.pres.key()
                    assert nat_keys(m) == nat_keys(m_ref)


class TestFreeToFreeZeroTest:
    @pytest.mark.parametrize("ring", [Z, F2, F3, F5], ids=str)
    def test_split_mono_test_matches_the_evaluation(self, ring, monkeypatch):
        # reference: F == 0 iff the class of 1_X dies in F(X)
        rng = _stream(0, "free-zero", ring)
        draws = []
        for _ in range(150):
            x, y = rng.randrange(0, 4), rng.randrange(0, 5)
            draws.append((x, [[rng.randrange(-3, 4) for _ in range(x)] for _ in range(y)]))
        # named shapes: a unit and a non-unit diagonal, a rank deficit, a
        # split tall matrix, and the 0 x n, n x 0 and 0 x 0 presentations
        draws += [
            (2, [[1, 0], [0, -1]]), (2, [[1, 0], [0, 6]]), (2, [[1, 2], [2, 4], [3, 6]]),
            (2, [[1, 0], [0, 1], [5, 7]]), (3, []), (0, [[], [], []]), (0, []),
        ]
        cases = []
        for x, data in draws:
            y = len(data)
            mat = Matrix.from_rows(ring, data, cols=x)
            f = CoherentFunctor(ModMorphism(free(x, ring), free(y, ring), mat))
            ev = _evaluation(f, f.source_module)
            cases.append((f, ev.is_zero_class(identity_mor(f.source_module))))
        assert {want for _, want in cases} == {True, False}
        # no F(X) is built on free data
        monkeypatch.setattr(functors_module, "_evaluation", None)
        for f, want in cases:
            assert is_zero_functor(f) == want


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


def two_step_embedding(f):
    """The embedding built the long way, as the reference for the closed form.

    Step one replaces X by its free cover P0 = ring^(X.gens); step two
    lifts f∘p through the free cover pi_y of Y and adjoins the syzygies,
    landing in H presented by P0 ⊕ Q1 -> Q0.  A free Y skips step two.
    """
    pres = f.pres
    x, y, ring = pres.source, pres.target, f.ring
    p0 = FpModule.free(ring, x.gens)
    p = ModMorphism(p0, x, Matrix.identity(ring, x.gens))
    g = CoherentFunctor(compose_mor(pres, p))
    step1 = NatMorphism(source=f, target=g, a=p, b=identity_mor(y))
    if y.rels.cols == 0:
        return g, compose_nat(identity_nat(g), step1)
    d, pi_y = free_presentation(y)
    lam = express(pi_y.mat, y.rels, g.pres.mat)
    assert lam is not None
    s, _, _, pr1, _ = biproduct(p0, d.source)
    h = CoherentFunctor(ModMorphism(s, pi_y.source, hstack(lam, d.mat)))
    step2 = NatMorphism(source=g, target=h, a=pr1, b=pi_y)
    return h, compose_nat(step2, step1)


class TestInjectives:
    @pytest.mark.parametrize("ring", [Z, F2, F3, F5], ids=str)
    def test_closed_form_matches_two_step_construction(self, ring):
        rng = _stream(0, "embed", ring)
        probes = default_battery(ring).probes
        for _ in range(30):
            f = random_functor(rng, ring, Bounds())
            h, j = embed_injective(f)
            h_ref, j_ref = two_step_embedding(f)
            assert h.pres.key() == h_ref.pres.key()
            assert j.a.key() == j_ref.a.key()
            assert j.b.key() == j_ref.b.key()
            assert all(_is_mono(evaluate_nat(j, probe)) for probe in probes)
            assert is_injective_functor(h)

    @pytest.mark.parametrize("ring", [Z, F2, F5], ids=str)
    def test_injective_iff_the_tensor_counit_is_an_iso(self, ring):
        """The injectives are the tensor functors F(R) ⊗ -: the split test
        in Nat groups agrees with the l0 counit's kernel and cokernel both
        vanishing, on random F and on their injective hulls H."""
        rng = _stream(0, "injective-counit", ring)
        verdicts = []
        for _ in range(60):
            f = random_functor(rng, ring, Bounds(gens=3, rels=3, entry=3))
            for g in (f, embed_injective(f)[0]):
                _, counit = l0_functor(g)
                iso = is_zero_functor(ker_nat(counit)[0]) and is_zero_functor(coker_nat(counit)[0])
                assert is_injective_functor(g) == iso
                verdicts.append(iso)
        # over a field every functor is injective; over Z some draws are not
        assert all(verdicts) == ring.is_field

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_free_to_free_shortcut_agrees_with_nat_lift(self, ring):
        rng = _stream(1, "embed", ring)
        for _ in range(20):
            x, y = free(rng.randrange(4), ring), free(rng.randrange(4), ring)
            f = CoherentFunctor(random_morphism(rng, x, y, Bounds()))
            h, j = embed_injective(f)
            assert h == f and j == identity_nat(f)
            splitting = nat_lift(nat_group(h, f), nat_group(f, f), identity_nat(f), pre=j)
            assert splitting is not None

    def test_embed_worked_instance(self):
        h, mono = embed_injective(yoneda_embed(cyc(2)))
        for probe in BATTERY.probes:
            assert canonical_form(evaluate(h, probe)) == canonical_form(probe)
            assert _is_mono(evaluate_nat(mono, probe))

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
        assert check_exact(list(res.maps), BATTERY).passed

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
            assert check_exact(list(res.maps), battery).passed


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


def random_unimodular(rng, ring, n):
    """A random invertible n x n matrix and its inverse, from elementary row
    operations: each row operation E on the matrix is matched by the column
    operation E^-1 on the inverse."""
    units = [1, -1] if ring.p is None else list(range(1, ring.p))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-2, 3)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in inv:
                row[j] -= c * row[i]
        else:
            u = rng.choice(units)
            a[i] = [u * x for x in a[i]]
            for row in inv:
                row[i] *= u if ring.p is None else pow(u, -1, ring.p)
    return Matrix.from_rows(ring, a, cols=n), Matrix.from_rows(ring, inv, cols=n)


def change_of_basis(rng, f):
    """The functor f presents, presented again after unimodular changes of the
    generators and relations of X and Y: X' has relations P rels_X R and f
    becomes Q f P^-1.  Also returns the isomorphism P : X -> X'."""
    ring, x, y = f.ring, f.source_module, f.target_module
    p, p_inv = random_unimodular(rng, ring, x.gens)
    q, _ = random_unimodular(rng, ring, y.gens)
    x2 = FpModule(ring, x.gens, p @ x.rels @ random_unimodular(rng, ring, x.rels.cols)[0])
    y2 = FpModule(ring, y.gens, q @ y.rels @ random_unimodular(rng, ring, y.rels.cols)[0])
    assert p @ p_inv == Matrix.identity(ring, x.gens)
    return CoherentFunctor(ModMorphism(x2, y2, q @ f.pres.mat @ p_inv)), ModMorphism(x, x2, p)


class TestChangeOfBasis:
    """Answers depend on the functor, not on the presentation chosen for it
    (Auslander, "Coherent functors", 1966)."""

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_answers_are_invariant(self, ring):
        rng = _stream(0, "change-of-basis", ring)
        bounds = Bounds(gens=3, rels=3, entry=3)
        probes = default_battery(ring).probes
        for _ in range(25):
            f = random_functor(rng, ring, bounds)
            g = random_functor(rng, ring, bounds)
            f2, iso = change_of_basis(rng, f)
            assert module_sequence_exact([iso])
            assert [evaluate(f2, a).describe() for a in probes] == [
                evaluate(f, a).describe() for a in probes
            ]
            for (s, t), (s2, t2) in [((f, f), (f2, f2)), ((f, g), (f2, g)), ((g, f), (g, f2))]:
                assert nat_group(s2, t2).group.describe() == nat_group(s, t).group.describe()
            assert is_representable(f2) == is_representable(f)
            assert is_injective_functor(f2) == is_injective_functor(f)
