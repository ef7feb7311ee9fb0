import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfun import (
    BaseRing,
    FpModule,
    Matrix,
    ModMorphism,
    canonical_form,
    cokernel_mor,
    compose_mor,
    direct_sum,
    free_presentation,
    hom_group,
    identity_mor,
    kernel_mor,
    render_group,
    zero_mor,
)
from cohfun import linalg, modules
from cohfun.linalg import hermite_solve, hstack, kron, smith_normal_form, vec
from cohfun.modules import HomGroup, prune
from cohfun.oracle import (
    Bounds,
    brute_hom,
    module_sequence_exact,
    random_module,
    random_morphism,
    _is_mono,
    _stream,
)
import reference
from reference import add, express, hom_coords, is_epi, reps, tensor_module

Z = BaseRing.integers()
F5 = BaseRing.prime_field(5)


def cyc(d, ring=Z):
    return FpModule.cyclic(ring, d)


def free(n, ring=Z):
    return FpModule.free(ring, n)


class TestCanonicalForm:
    def test_diag_presentation(self):
        a = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 3]]))
        assert canonical_form(a) == (0, (6,))

    def test_free(self):
        assert canonical_form(free(1)) == (1, ())

    def test_unit_relation_kills(self):
        a = FpModule(Z, 1, Matrix.from_rows(Z, [[1]]))
        assert canonical_form(a) == (0, ())
        assert a.is_zero

    def test_rendering(self):
        assert free(0).describe() == "0"
        s = direct_sum(free(1), cyc(2))
        s2 = direct_sum(s, cyc(6))
        assert s2.describe() == "Z^1 + Z/2 + Z/6"
        assert render_group(F5, 2, ()) == "Z/5 + Z/5"

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            FpModule(Z, 2, Matrix.from_rows(Z, [[2]]))


class TestMorphisms:
    def test_ill_defined_rejected(self):
        with pytest.raises(ValueError, match="ill-defined"):
            ModMorphism(cyc(2), cyc(3), Matrix.from_rows(Z, [[1]]))

    def test_equality_mod_relations(self):
        phi = ModMorphism(free(1), cyc(2), Matrix.from_rows(Z, [[0]]))
        psi = ModMorphism(free(1), cyc(2), Matrix.from_rows(Z, [[2]]))
        assert phi == psi

    def test_composition_endpoint_check(self):
        f = identity_mor(cyc(2))
        g = identity_mor(cyc(3))
        with pytest.raises(ValueError):
            compose_mor(g, f)

    def test_times_two_then_three(self):
        t2 = ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]]))
        t3 = ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[3]]))
        assert compose_mor(t3, t2).mat.entries == ((6,),)

    def test_zero_composite_mod_relations(self):
        pi = ModMorphism(free(1), cyc(2), Matrix.from_rows(Z, [[1]]))
        z = zero_mor(cyc(2), free(1))
        comp = compose_mor(z, pi)
        assert comp == zero_mor(free(1), free(1))

    def test_identity_law_random(self):
        rng = _stream(0, "idlaw")
        for _ in range(40):
            a = random_module(rng, Z, Bounds())
            b = random_module(rng, Z, Bounds())
            phi = random_morphism(rng, a, b, Bounds())
            assert compose_mor(identity_mor(b), phi) == phi
            assert compose_mor(phi, identity_mor(a)) == phi

    def test_endo_ring_axioms_sampled(self):
        rng = _stream(1, "endo")
        a = FpModule(Z, 2, Matrix.from_rows(Z, [[4, 0], [0, 6]]))
        end = hom_group(a, a)
        els = [random_morphism(rng, a, a, Bounds()) for _ in range(5)]
        for f, g, h in itertools.product(els[:3], repeat=3):
            assert compose_mor(f, compose_mor(g, h)) == compose_mor(compose_mor(f, g), h)
            assert compose_mor(f, add(g, h)) == add(compose_mor(f, g), compose_mor(f, h))
            assert compose_mor(add(f, g), h) == add(compose_mor(f, h), compose_mor(g, h))


class TestHom:
    def test_hom_z4_z6(self):
        assert canonical_form(hom_group(cyc(4), cyc(6)).group) == (0, (2,))

    def test_hom_from_z_is_identity(self):
        rng = _stream(2, "homz")
        for _ in range(60):
            a = random_module(rng, Z, Bounds())
            h = hom_group(free(1), a)
            assert canonical_form(h.group) == canonical_form(a)

    def test_torsion_to_free_vanishes(self):
        assert hom_group(cyc(2), free(1)).group.is_zero

    def test_reps_are_well_defined_and_coords_roundtrip(self):
        h = hom_group(cyc(4), cyc(6))
        for i, rep in enumerate(reps(h)):
            c = h.coords(rep)
            again = h.from_coords(c)
            assert again == rep

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_coords_all_matches_per_morphism_coords(self, ring):
        rng = _stream(4, f"coords-all-{ring}")
        for _ in range(25):
            a = random_module(rng, ring, Bounds())
            b = random_module(rng, ring, Bounds())
            h = hom_group(a, b)
            phis = list(reps(h)) + [random_morphism(rng, a, b, Bounds()) for _ in range(3)]
            assert h.coords_all(phis) == hstack(*(h.coords(phi) for phi in phis))
            assert h.coords_all([]) == Matrix.zeros(ring, h.group.gens, 0)

    def test_coords_all_rejects_foreign_morphism(self):
        h = hom_group(cyc(4), cyc(6))
        other = hom_group(cyc(6), cyc(4))
        with pytest.raises(ValueError):
            h.coords_all(list(reps(h)) + list(reps(other)))
        with pytest.raises(ValueError):
            h.coords(reps(other)[0])

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_induced_matches_composed_reps(self, ring):
        # reference: compose each generator of the domain group, then solve
        rng = _stream(6, f"induced-{ring}")
        for _ in range(20):
            a, a2, b, b2 = (random_module(rng, ring, Bounds()) for _ in range(4))
            pre = random_morphism(rng, a2, a, Bounds())
            post = random_morphism(rng, b, b2, Bounds())
            dom = hom_group(a, b)
            into_pre, into_post = hom_group(a2, b), hom_group(a, b2)
            assert into_pre.induced(dom, pre=pre) == into_pre.coords_all(
                [compose_mor(rep, pre) for rep in reps(dom)]
            )
            assert into_post.induced(dom, post=post) == into_post.coords_all(
                [compose_mor(post, rep) for rep in reps(dom)]
            )

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_induced_from_group_without_generators(self, ring):
        # over Z, Hom(Z/2, Z) == 0; over F5, Hom(0, F5) == 0
        x = cyc(2) if ring == Z else free(0, F5)
        one, two = free(1, ring), free(2, ring)
        dom = hom_group(x, one)
        pre = ModMorphism(two, x, Matrix.from_rows(ring, [[1, 1]] if ring == Z else [], cols=2))
        post = ModMorphism(one, two, Matrix.from_rows(ring, [[1], [3]]))
        assert dom.group.gens == 0
        for into, kw in ((hom_group(two, one), {"pre": pre}), (hom_group(x, two), {"post": post})):
            assert into.induced(dom, **kw) == Matrix.zeros(ring, into.group.gens, 0)

    def test_induced_rejects_mismatched_endpoints(self):
        dom = hom_group(cyc(4), cyc(6))
        to_z2 = ModMorphism(cyc(6), cyc(2), Matrix.from_rows(Z, [[1]]))
        with pytest.raises(ValueError, match="endpoint"):
            hom_group(cyc(2), cyc(6)).induced(dom)  # sources differ, no pre
        with pytest.raises(ValueError, match="endpoint"):
            hom_group(cyc(4), cyc(2)).induced(dom, pre=to_z2)  # pre must be Z/4 -> Z/4
        with pytest.raises(ValueError, match="endpoint"):
            hom_group(cyc(4), cyc(4)).induced(dom, post=to_z2)  # post must be Z/6 -> Z/4

    def test_induced_raises_when_a_composite_is_not_generated(self):
        # a Hom(Z, Z) that lost its generator cannot express the identity
        dom = hom_group(free(1), free(1))
        broken = HomGroup(free(1), free(1), FpModule.zero(Z), Matrix.zeros(Z, 1, 0))
        with pytest.raises(ValueError, match="not generated"):
            broken.induced(dom)

    def test_brute_force_agreement_small(self):
        rng = _stream(3, "hombrute")
        from cohfun.oracle import random_finite_module

        for _ in range(40):
            a = random_finite_module(rng, Z, max_order=16)
            b = random_finite_module(rng, Z, max_order=16)
            assert canonical_form(hom_group(a, b).group) == brute_hom(a, b)


FIELDS = [BaseRing.prime_field(p) for p in (2, 3, 5, 7)]


class TestPrune:
    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_contract(self, ring):
        rng = _stream(0, "prune", ring)
        for _ in range(150):
            a = random_module(rng, ring, Bounds())
            s, t = prune(a.rels)
            pruned = FpModule.free(ring, s.rows)
            s_mor, t_mor = ModMorphism(a, pruned, s), ModMorphism(pruned, a, t)
            assert compose_mor(s_mor, t_mor) == identity_mor(pruned)
            assert compose_mor(t_mor, s_mor) == identity_mor(a)
            assert canonical_form(pruned) == canonical_form(a)

    @given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_general_prune(self, ring, rows, cols, data):
        entries = st.integers(min_value=-9, max_value=9)
        rels = Matrix.from_rows(
            ring, [[data.draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        gens, pruned_rels, s, t = reference.prune(FpModule(ring, rows, rels))
        assert prune(rels) == (s, t)
        assert (gens, pruned_rels.cols) == (s.rows, 0)

    def test_keeps_surviving_generators(self):
        # g1 = 2 g2 by the first relation, then g0 = 4 g2 by the second: g2 survives
        a = FpModule(F5, 3, Matrix.from_rows(F5, [[0, 2], [1, 1], [3, 0]]))
        s, t = prune(a.rels)
        assert t == Matrix.from_rows(F5, [[0], [0], [1]])
        assert s == Matrix.from_rows(F5, [[4, 2, 1]])

    @pytest.mark.parametrize("ring", [F5], ids=str)
    def test_empty_presentations(self, ring):
        for a in (FpModule.zero(ring), free(2, ring)):
            assert prune(a.rels) == (Matrix.identity(ring, a.gens),) * 2


def random_matrix(rng, ring, rows, cols, entry=9):
    data = [[rng.randrange(-entry, entry + 1) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, data, cols=cols)


def shifted(rng, phi):
    """phi plus rels_target @ W for a random W: the same morphism, another matrix."""
    rels = phi.target.rels
    w = random_matrix(rng, phi.ring, rels.cols, phi.source.gens)
    return ModMorphism(phi.source, phi.target, add(phi.mat, rels @ w))


def vecs_of(ring, phis, rows):
    return hstack(Matrix.zeros(ring, rows, 0), *(vec(phi.mat) for phi in phis))


@pytest.fixture
def snf_args(monkeypatch):
    """Every matrix handed to ``smith_normal_form``, through linalg's binding or modules'."""
    seen = []
    snf = smith_normal_form
    for module in (linalg, modules):
        monkeypatch.setattr(module, "smith_normal_form", lambda m: seen.append(m) or snf(m))
    return seen


class TestHomCoordinatesByProduct:
    """Hom coordinates read off the basis agree with the coset solve, and take
    no Smith form of the basis: by substitution over Z, by one product over a field."""

    def test_free_source_over_z_reads_vec(self, snf_args):
        rng = _stream(0, "free-source-coords")
        for _ in range(100):
            a, b = free(rng.randrange(0, 4)), random_module(rng, Z, Bounds())
            h = hom_group(a, b)
            phis = [
                shifted(rng, ModMorphism(a, b, random_matrix(rng, Z, b.gens, a.gens)))
                for _ in range(3)
            ]
            b2 = random_module(rng, Z, Bounds())
            post = shifted(rng, random_morphism(rng, b, b2, Bounds()))
            into = hom_group(a, b2)
            snf_args.clear()
            coords, induced = h.coords_all(phis), into.induced(h, post=post)
            assert h.gen_mat not in snf_args and into.gen_mat not in snf_args
            vecs = vecs_of(Z, phis, h.gen_mat.rows)
            assert h.gen_mat == Matrix.identity(Z, vecs.rows)
            assert coords == vecs == hom_coords(h, vecs)
            images = kron(post.mat, Matrix.identity(Z, a.gens)) @ h.gen_mat
            assert induced == images == hom_coords(into, images)

    @pytest.mark.parametrize("ring", [BaseRing.prime_field(p) for p in (2, 5, 7)], ids=str)
    def test_field_coords_match_the_solver(self, ring, snf_args):
        rng = _stream(0, "field-coords", ring)
        for _ in range(100):
            a, a2, b = (random_module(rng, ring, Bounds()) for _ in range(3))
            h = hom_group(a, b)
            phis = [shifted(rng, random_morphism(rng, a, b, Bounds())) for _ in range(3)]
            pre = shifted(rng, random_morphism(rng, a2, a, Bounds()))
            into = hom_group(a2, b)
            snf_args.clear()
            coords, induced = h.coords_all(phis), into.induced(h, pre=pre)
            assert h.gen_mat not in snf_args and into.gen_mat not in snf_args
            assert h.coord_mat is not None and into.coord_mat is not None
            vecs = vecs_of(ring, phis, h.gen_mat.rows)
            assert coords == hom_coords(h, vecs)
            images = kron(Matrix.identity(ring, b.gens), pre.mat.transpose()) @ h.gen_mat
            assert induced == hom_coords(into, images)

    def test_hom_from_a_module_with_relations_over_z_solves(self):
        # over Z no Hom group carries a coordinate matrix: free source or not,
        # coordinates are solved against the basis, and they give phi back
        h = hom_group(cyc(4), cyc(6))
        assert h.coord_mat is None
        assert h.coords(reps(h)[0]) == Matrix.identity(Z, 1)
        rng = _stream(0, "z-hom-substitution")
        for _ in range(50):
            a, b = random_module(rng, Z, Bounds()), random_module(rng, Z, Bounds())
            h = hom_group(a, b)
            assert h.coord_mat is None
            phi = shifted(rng, random_morphism(rng, a, b, Bounds()))
            assert h.from_coords(h.coords(phi)) == phi

    def test_the_solver_reads_the_generator_basis_alone(self, snf_args, monkeypatch):
        # coordinates are read off gen_mat by substitution: its Hermite basis
        # spans the relations, so no relation block and no Smith form of it
        solved = []
        monkeypatch.setattr(
            modules, "hermite_solve", lambda m, b: solved.append(m) or hermite_solve(m, b)
        )
        rng = _stream(0, "solver-columns")
        for _ in range(20):
            a, b = random_module(rng, Z, Bounds()), random_module(rng, Z, Bounds())
            h = hom_group(a, b)
            phi = random_morphism(rng, a, b, Bounds())
            snf_args.clear()
            h.coords(phi)
            assert solved[-1] == h.gen_mat and h.gen_mat not in snf_args
        # the spy does see a Smith form of gen_mat, when one is taken
        linalg.solve_matrix(h.gen_mat, vec(phi.mat))
        assert snf_args[-1] == h.gen_mat


class TestHomCoordinatesAgainstTheBasis:
    def test_unique_coordinates_agree_with_the_coset_solve(self):
        """Over Z from a module with relations, the coordinates solved against
        gen_mat alone give back the morphisms exactly, and differ from the
        Smith particular solution of [gen_mat | relations] by a relation."""
        rng = _stream(0, "hom-basis-coords")
        moved = 0
        for _ in range(200):
            a, b = random_module(rng, Z, Bounds()), random_module(rng, Z, Bounds())
            if a.rels.cols == 0:
                continue
            h = hom_group(a, b)
            phis = [shifted(rng, random_morphism(rng, a, b, Bounds())) for _ in range(3)]
            vecs = vecs_of(Z, phis, h.gen_mat.rows)
            new, old = h.coords_all(phis), hom_coords(h, vecs)
            assert h.gen_mat @ new == vecs
            assert h.group.snf.contains(new - old)
            moved += new != old
        assert moved


class TestPrunedOncePerModule:
    def test_prune_runs_once_per_module(self, monkeypatch):
        # once per distinct presentation: equal modules share one prune
        seen = []
        monkeypatch.setattr(modules, "prune", lambda rels: seen.append(rels) or prune(rels))
        hom_group.cache_clear()
        modules.pruned_maps.cache_clear()
        rng = _stream(1, "prune-once", F5)
        mods = [random_module(rng, F5, Bounds()) for _ in range(12)]
        twins = [FpModule(a.ring, a.gens, a.rels) for a in mods]
        for a in mods:
            for b in twins:
                hom_group(a, b).coords_all([])
        assert sorted(seen, key=repr) == sorted({a.rels for a in mods}, key=repr)

    @pytest.mark.parametrize("which", ["s", "t", "rank"])
    def test_a_corrupted_prune_raises(self, which, monkeypatch):
        def corrupted(rels):
            s, t = prune(rels)
            if which == "rank":  # s∘t == 1 still holds; only t∘s == 1 fails
                return s.slice_rows(0, s.rows - 1), t.slice_cols(0, t.cols - 1)
            return (add(s, s), t) if which == "s" else (s, add(t, t))

        monkeypatch.setattr(modules, "prune", corrupted)
        modules.pruned_maps.cache_clear()
        # the unit relation removes g0 = -2 g1, leaving F5 on g1
        rels = Matrix.from_rows(F5, [[1], [2]])
        with pytest.raises(ValueError, match="pruned presentation"):
            modules.pruned_maps(rels)
        hom_group.cache_clear()
        modules.pruned_maps.cache_clear()
        with pytest.raises(ValueError, match="pruned presentation"):
            hom_group(FpModule(F5, 2, rels), free(1, F5))


class TestModuleIsItsPresentation:
    def test_construction_computes_no_smith_form(self):
        rels = Matrix.from_rows(Z, [[2, 4], [6, 9]])
        a, b = FpModule(Z, 2, rels), FpModule(Z, 2, rels)
        assert "snf" not in vars(a) and "snf" not in vars(b)
        for _ in range(2):  # reading a's Smith form changes none of ==, hash or repr
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) == f"FpModule(ring={Z!r}, gens=2, rels={rels!r})"
            assert canonical_form(a) == (0, (6,))
        assert vars(a)["snf"] == smith_normal_form(rels) and "snf" not in vars(b)


class TestKernelCokernel:
    def test_kernel_of_injection(self):
        t2 = ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]]))
        k, incl = kernel_mor(t2)
        assert k.is_zero

    def test_kernel_of_projection(self):
        pr = ModMorphism(cyc(4), cyc(2), Matrix.from_rows(Z, [[1]]))
        k, incl = kernel_mor(pr)
        assert canonical_form(k) == (0, (2,))
        assert incl.mat.entries == ((2,),)
        assert _is_mono(incl)
        assert compose_mor(pr, incl) == zero_mor(k, cyc(2))

    def test_kernel_of_zero_map(self):
        a = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 3]]))
        k, incl = kernel_mor(zero_mor(a, cyc(5)))
        assert canonical_form(k) == canonical_form(a)
        assert module_sequence_exact([incl])

    def test_kernel_universal_property(self):
        pr = ModMorphism(cyc(4), cyc(2), Matrix.from_rows(Z, [[1]]))
        psi = ModMorphism(cyc(2), cyc(4), Matrix.from_rows(Z, [[2]]))
        assert compose_mor(pr, psi) == zero_mor(cyc(2), cyc(2))
        k, incl = kernel_mor(pr)
        coeff = express(incl.mat, pr.source.rels, psi.mat)
        assert coeff is not None
        lift = ModMorphism(psi.source, k, coeff)
        assert compose_mor(incl, lift) == psi

    def test_cokernel_times_two(self):
        t2 = ModMorphism(free(1), free(1), Matrix.from_rows(Z, [[2]]))
        c, pi = cokernel_mor(t2)
        assert canonical_form(c) == (0, (2,))
        assert is_epi(pi)
        assert compose_mor(pi, t2) == zero_mor(free(1), c)

    def test_cokernel_identity(self):
        c, _ = cokernel_mor(identity_mor(cyc(6)))
        assert c.is_zero

    def test_cokernel_inclusion_into_plane(self):
        incl = ModMorphism(free(1), free(2), Matrix.from_rows(Z, [[1], [0]]))
        c, _ = cokernel_mor(incl)
        assert canonical_form(c) == (1, ())

    def test_image_iso_coimage_random(self):
        rng = _stream(4, "imcoim")
        for _ in range(60):
            a = random_module(rng, Z, Bounds())
            b = random_module(rng, Z, Bounds())
            phi = random_morphism(rng, a, b, Bounds())
            im, _ = kernel_mor(cokernel_mor(phi)[1])
            coim, _ = cokernel_mor(kernel_mor(phi)[1])
            assert canonical_form(im) == canonical_form(coim)


class TestTensorSum:
    def test_tensor_cyclics(self):
        assert canonical_form(tensor_module(cyc(4), cyc(6))) == (0, (2,))
        assert tensor_module(cyc(2), cyc(3)).is_zero

    def test_unit_object(self):
        rng = _stream(6, "tensorunit")
        for _ in range(40):
            a = random_module(rng, Z, Bounds())
            assert canonical_form(tensor_module(free(1), a)) == canonical_form(a)

    def test_symmetry(self):
        rng = _stream(7, "tensorsym")
        for _ in range(40):
            a = random_module(rng, Z, Bounds(gens=3, rels=3))
            b = random_module(rng, Z, Bounds(gens=3, rels=3))
            assert canonical_form(tensor_module(a, b)) == canonical_form(
                tensor_module(b, a)
            )

    def test_direct_sum_forms(self):
        s = direct_sum(free(1), cyc(2))
        assert canonical_form(s) == (1, (2,))
        s2 = direct_sum(cyc(2), cyc(3))
        assert canonical_form(s2) == (0, (6,))
        a = cyc(12)
        s3 = direct_sum(a, free(0))
        assert canonical_form(s3) == canonical_form(a)

    def test_biproduct_identities(self):
        a, b = cyc(4), free(2)
        s, ia, ib, pa, pb = reference.biproduct(a, b)
        assert s == direct_sum(a, b)
        assert compose_mor(pa, ia) == identity_mor(a)
        assert compose_mor(pb, ib) == identity_mor(b)
        assert compose_mor(pa, ib) == zero_mor(b, a)
        assert compose_mor(pb, ia) == zero_mor(a, b)
        total = add(compose_mor(ia, pa), compose_mor(ib, pb))
        assert total == identity_mor(s)


class TestLiftAndPresentation:
    def test_free_presentation_reads_off_data(self):
        a = cyc(6)
        d, pi = free_presentation(a)
        assert d.mat == a.rels
        assert pi.mat == Matrix.identity(Z, 1)
        assert is_epi(pi)
        assert compose_mor(pi, d) == zero_mor(d.source, a)
        b = free(2)
        d2, pi2 = free_presentation(b)
        assert d2.source.gens == 0
        assert module_sequence_exact([pi2])

    def test_presentation_exactness(self):
        a = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 3]]))
        d, pi = free_presentation(a)
        k, _ = kernel_mor(pi)
        im, _ = kernel_mor(cokernel_mor(d)[1])
        assert canonical_form(k) == canonical_form(im)


class TestFieldInstance:
    def test_everything_free(self):
        a = FpModule(F5, 3, Matrix.from_rows(F5, [[1, 0], [2, 0], [0, 0]]))
        assert canonical_form(a) == (2, ())

    def test_hom_is_matrix_space(self):
        a, b = free(2, F5), free(3, F5)
        assert canonical_form(hom_group(a, b).group) == (6, ())
