"""Coherent functors on the module category, and their calculus.

A coherent functor F is stored by one module morphism f : X -> Y, read
as F(A) = Hom(X, A) / {h∘f : h : Y -> A}.  Natural transformations are
pairs (a, b) of module morphisms compatible with the presentations; all
of the structure of the functor category (kernels, cokernels, Nat
groups) is computed through Hom groups in the base category.

On top of that sit the derived-functor constructions: the module w(F)
cut out as the kernel of the presentation, the four-term exact sequence

    0 -> F_0 -> F -> (w(F), -) -> F_1 -> 0,

the reflection into representable functors together with its unit, the
coreflection into tensor functors together with its counit, both
stabilizations, and constructive injective embeddings and resolutions
of length at most two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from .linalg import Matrix, express, hstack, solve_matrix, vstack
from .modules import (
    FpModule,
    HomGroup,
    ModMorphism,
    cokernel_mor,
    compose_mor,
    direct_sum,
    free_presentation,
    hom_group,
    identity_mor,
    kernel_mor,
    lift_through_epi,
    zero_mor,
)


@dataclass(frozen=True, eq=False)
class CoherentFunctor:
    """F = coker((Y,-) -> (X,-)) for the stored presentation f : X -> Y."""

    pres: ModMorphism

    @property
    def ring(self):
        return self.pres.source.ring

    @property
    def source_module(self) -> FpModule:
        return self.pres.source

    @property
    def target_module(self) -> FpModule:
        return self.pres.target

    def _key(self) -> tuple:
        return self.pres.key()

    def __eq__(self, other: object) -> bool:
        # identity of presentation, matching object equality in the base
        if not isinstance(other, CoherentFunctor):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def yoneda_embed(x: FpModule) -> CoherentFunctor:
    """The representable functor Hom(x, -), presented by x -> 0."""
    zero = FpModule.zero(x.ring)
    return CoherentFunctor(ModMorphism(x, zero, Matrix.zeros(x.ring, 0, x.gens)))


def yoneda_mor(m: ModMorphism) -> "NatMorphism":
    """Contravariant action on morphisms: m : A -> B gives (B,-) -> (A,-)."""
    return NatMorphism(
        source=yoneda_embed(m.target),
        target=yoneda_embed(m.source),
        a=m,
        b=zero_mor(FpModule.zero(m.source.ring), FpModule.zero(m.source.ring)),
    )


@dataclass(frozen=True, eq=False)
class Evaluation:
    """F(at) together with the data needed to move elements around.

    ``module`` presents the value group on the generators of
    Hom(X, at); its relations are the Hom-group relations followed by
    the columns of ``precomp`` (the classes h_j∘f of the generators of
    Hom(Y, at)).
    """

    hom_x: HomGroup
    hom_y: HomGroup
    precomp: Matrix
    module: FpModule

    def is_zero_class(self, coords: Matrix) -> bool:
        return solve_matrix(self.module.rels, coords) is not None

    def factor_precompose(self, m: ModMorphism) -> ModMorphism | None:
        """h : Y -> at with h∘f equal to m as morphisms, if one exists."""
        c = self.hom_x.coords(m)
        z = solve_matrix(hstack(self.hom_x.group.rels, self.precomp), c)
        if z is None:
            return None
        beta = z.slice_rows(self.hom_x.group.rels.cols, z.rows)
        return self.hom_y.from_coords(beta)


@lru_cache(maxsize=None)
def _evaluation(f: CoherentFunctor, at: FpModule) -> Evaluation:
    pres = f.pres
    hx = hom_group(pres.source, at)
    hy = hom_group(pres.target, at)
    precomp = hx.induced(hy, pre=pres)
    module = FpModule(f.ring, hx.group.gens, hstack(hx.group.rels, precomp))
    return Evaluation(hom_x=hx, hom_y=hy, precomp=precomp, module=module)


def evaluate(f: CoherentFunctor, a: FpModule) -> FpModule:
    """The value F(a) as a finitely presented abelian group."""
    if f.ring != a.ring:
        raise ValueError("functor and module live over different rings")
    return _evaluation(f, a).module


def evaluate_mor(f: CoherentFunctor, phi: ModMorphism) -> ModMorphism:
    """The induced map F(phi) : F(source) -> F(target) by postcomposition."""
    ev_a = _evaluation(f, phi.source)
    ev_b = _evaluation(f, phi.target)
    mat = ev_b.hom_x.induced(ev_a.hom_x, post=phi)
    return ModMorphism(ev_a.module, ev_b.module, mat)


@dataclass(frozen=True, eq=False)
class NatMorphism:
    """Natural transformation source -> target in presentation form.

    With source presented by f : X -> Y and target by g : X' -> Y', the
    data is a : X' -> X and b : Y' -> Y with f∘a == b∘g.  The pointwise
    action at A sends [u : X -> A] to [u∘a].  Equality only consults the
    a component, modulo maps factoring through g.
    """

    source: CoherentFunctor
    target: CoherentFunctor
    a: ModMorphism
    b: ModMorphism

    def __post_init__(self) -> None:
        f, g = self.source.pres, self.target.pres
        if self.a.source != g.source or self.a.target != f.source:
            raise ValueError("a component has wrong endpoints")
        if self.b.source != g.target or self.b.target != f.target:
            raise ValueError("b component has wrong endpoints")
        if compose_mor(f, self.a) != compose_mor(self.b, g):
            raise ValueError("incompatible transformation: f∘a != b∘g")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NatMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        ev = _evaluation(self.target, self.source.source_module)
        return ev.is_zero_class(ev.hom_x.coords(self.a - other.a))

    __hash__ = None

    def __add__(self, other: "NatMorphism") -> "NatMorphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("transformation endpoints differ")
        return NatMorphism(self.source, self.target, self.a + other.a, self.b + other.b)

    def __neg__(self) -> "NatMorphism":
        return NatMorphism(self.source, self.target, -self.a, -self.b)

    def __sub__(self, other: "NatMorphism") -> "NatMorphism":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        ev = _evaluation(self.target, self.source.source_module)
        return ev.is_zero_class(ev.hom_x.coords(self.a))


def identity_nat(f: CoherentFunctor) -> NatMorphism:
    return NatMorphism(f, f, identity_mor(f.source_module), identity_mor(f.target_module))


def zero_nat(f: CoherentFunctor, g: CoherentFunctor) -> NatMorphism:
    return NatMorphism(
        f,
        g,
        zero_mor(g.source_module, f.source_module),
        zero_mor(g.target_module, f.target_module),
    )


def compose_nat(beta: NatMorphism, alpha: NatMorphism) -> NatMorphism:
    """beta after alpha."""
    if alpha.target != beta.source:
        raise ValueError("transformation composition endpoint mismatch")
    return NatMorphism(
        alpha.source,
        beta.target,
        compose_mor(alpha.a, beta.a),
        compose_mor(alpha.b, beta.b),
    )


def evaluate_nat(alpha: NatMorphism, a: FpModule) -> ModMorphism:
    """The component alpha_a : source(a) -> target(a)."""
    ev_s = _evaluation(alpha.source, a)
    ev_t = _evaluation(alpha.target, a)
    mat = ev_t.hom_x.induced(ev_s.hom_x, pre=alpha.a)
    return ModMorphism(ev_s.module, ev_t.module, mat)


@dataclass(frozen=True, eq=False)
class NatGroup:
    """Nat(F, G) as a group: the kernel of G(f) : G(X) -> G(Y)."""

    source: CoherentFunctor
    target: CoherentFunctor
    group: FpModule
    _ev_x: Evaluation
    _incl: ModMorphism

    @cached_property
    def reps(self) -> tuple[NatMorphism, ...]:
        """Each generator as an honest transformation, built when first read."""
        ident = Matrix.identity(self.group.ring, self.group.gens)
        return tuple(self.from_coords(ident.col(j)) for j in range(self.group.gens))

    def coords(self, alpha: NatMorphism) -> Matrix:
        return self.coords_all([alpha])

    def coords_all(self, alphas: list[NatMorphism]) -> Matrix:
        """Coordinate columns of the transformations ``alphas``, side by side."""
        for alpha in alphas:
            if alpha.source != self.source or alpha.target != self.target:
                raise ValueError("transformation does not belong to this Nat group")
        x = self._ev_x.hom_x.coords_all([alpha.a for alpha in alphas])
        c = express(self._incl.mat, self._ev_x.module.rels, x)
        if c is None:
            raise ValueError("transformation escaped its Nat group; inconsistent data")
        return c

    def from_coords(self, coeffs: Matrix) -> NatMorphism:
        x = self._incl.mat @ coeffs
        a = self._ev_x.hom_x.from_coords(x)
        return _nat_from_a(self.source, self.target, a)


def _nat_from_a(f: CoherentFunctor, g: CoherentFunctor, a: ModMorphism) -> NatMorphism:
    """Complete an a component to a transformation by solving for b."""
    ev_y = _evaluation(g, f.target_module)
    b = ev_y.factor_precompose(compose_mor(f.pres, a))
    if b is None:
        raise ValueError("a component does not define a transformation")
    return NatMorphism(f, g, a, b)


def nat_group(f: CoherentFunctor, g: CoherentFunctor) -> NatGroup:
    """Nat(F, G), with generators realized as honest transformations."""
    if f.ring != g.ring:
        raise ValueError("functors live over different rings")
    ev_x = _evaluation(g, f.source_module)
    ev_y = _evaluation(g, f.target_module)
    gf = ModMorphism(ev_x.module, ev_y.module, ev_y.hom_x.induced(ev_x.hom_x, post=f.pres))
    k, incl = kernel_mor(gf)
    return NatGroup(source=f, target=g, group=k, _ev_x=ev_x, _incl=incl)


def nat_lift(
    domain: NatGroup,
    codomain: NatGroup,
    along: Callable[[NatMorphism], NatMorphism],
    target: NatMorphism,
) -> Matrix | None:
    """Coordinates in ``domain`` of a preimage of ``target`` under ``along``.

    ``along`` composes with one fixed transformation, a group map from
    ``domain`` to ``codomain``; None when ``target`` is not in its image.
    """
    comp = codomain.coords_all([along(rep) for rep in domain.reps])
    return express(comp, codomain.group.rels, codomain.coords(target))


def w_of(f: CoherentFunctor) -> tuple[FpModule, ModMorphism]:
    """The kernel of the presentation morphism, with its inclusion into X."""
    return kernel_mor(f.pres)


def w_mor(alpha: NatMorphism) -> ModMorphism:
    """Contravariant action: alpha : F -> G restricts a to w(G) -> w(F)."""
    wg, kg = w_of(alpha.target)
    wf, kf = w_of(alpha.source)
    m = compose_mor(alpha.a, kg)
    coeff = express(kf.mat, alpha.source.source_module.rels, m.mat)
    if coeff is None:
        raise ValueError("kernel restriction failed; incompatible transformation")
    return ModMorphism(wg, wf, coeff)


@dataclass(frozen=True, eq=False)
class FourTermData:
    """The exact sequence 0 -> F_0 -> F -> (w(F),-) -> F_1 -> 0.

    f0 is presented by the image inclusion v : V -> Y, f1 by the kernel
    inclusion k : w(F) -> X, and phi (the unit of the reflection) is the
    pair (k, 0).
    """

    f0: CoherentFunctor
    iota: NatMorphism
    phi: NatMorphism
    r0: CoherentFunctor
    f1: CoherentFunctor
    rho: NatMorphism
    wf: FpModule
    k: ModMorphism
    v: ModMorphism
    coim: FpModule


def four_term(f: CoherentFunctor) -> FourTermData:
    pres = f.pres
    x, y = pres.source, pres.target
    ring = f.ring
    zero = FpModule.zero(ring)

    wf, k = kernel_mor(pres)
    coim, pi_v = cokernel_mor(k)
    v = ModMorphism(coim, y, pres.mat)

    f0 = CoherentFunctor(v)
    r0 = yoneda_embed(wf)
    f1 = CoherentFunctor(k)

    iota = NatMorphism(source=f0, target=f, a=pi_v, b=identity_mor(y))
    phi = NatMorphism(source=f, target=r0, a=k, b=zero_mor(zero, y))
    rho = NatMorphism(source=r0, target=f1, a=identity_mor(wf), b=zero_mor(x, zero))
    return FourTermData(
        f0=f0, iota=iota, phi=phi, r0=r0, f1=f1, rho=rho, wf=wf, k=k, v=v, coim=coim
    )


def r0_functor(f: CoherentFunctor) -> tuple[CoherentFunctor, NatMorphism]:
    """The representable reflection (w(F), -) and the unit F -> (w(F), -)."""
    ft = four_term(f)
    return ft.r0, ft.phi


def inj_stabilize(f: CoherentFunctor) -> CoherentFunctor:
    """The kernel F_0 of the unit; F is injectively stable iff F_0 is all of F."""
    return four_term(f).f0


def is_inj_stable(f: CoherentFunctor) -> bool:
    """True when the reflection vanishes, i.e. the presentation is mono."""
    return w_of(f)[0].is_zero


def tensor_functor(w: FpModule) -> CoherentFunctor:
    """The functor w ⊗ -, presented by the transpose of w's relations."""
    ring = w.ring
    src = FpModule.free(ring, w.gens)
    tgt = FpModule.free(ring, w.rels.cols)
    return CoherentFunctor(ModMorphism(src, tgt, w.rels.transpose()))


def l0_functor(f: CoherentFunctor) -> tuple[CoherentFunctor, NatMorphism]:
    """The right-exact coreflection F(ring) ⊗ - and its counit into F.

    The counit stacks chosen representatives u_i : X -> ring of the
    generators of F(ring) into its a component; the b component pairs
    each relation of F(ring) with the morphism Y -> ring that witnesses
    it (zero for internal Hom-group relations, the corresponding
    generator of Hom(Y, ring) for precomposition relations).
    """
    ring = f.ring
    ev = _evaluation(f, FpModule.free(ring, 1))
    a_mat = ev.hom_x.gen_mat.transpose()
    b_mat = vstack(
        Matrix.zeros(ring, ev.hom_x.group.rels.cols, f.target_module.gens),
        ev.hom_y.gen_mat.transpose(),
    )
    l0 = tensor_functor(ev.module)
    counit = NatMorphism(
        source=l0,
        target=f,
        a=ModMorphism(f.source_module, l0.source_module, a_mat),
        b=ModMorphism(f.target_module, l0.target_module, b_mat),
    )
    return l0, counit


def proj_stabilize(f: CoherentFunctor) -> CoherentFunctor:
    """Cokernel of the counit; vanishes on free modules."""
    _, counit = l0_functor(f)
    return coker_nat(counit)[0]


def is_proj_stable(f: CoherentFunctor) -> bool:
    """True when the coreflection vanishes, i.e. F(ring) == 0."""
    return evaluate(f, FpModule.free(f.ring, 1)).is_zero


def coker_nat(alpha: NatMorphism) -> tuple[CoherentFunctor, NatMorphism]:
    """Cokernel, presented by pairing alpha's a component with g.

    The projection acts pointwise as the quotient by the image of
    alpha, which is exactly the cokernel in the functor category.
    """
    f, g = alpha.source, alpha.target
    s, _, _, _, p2 = direct_sum(f.source_module, g.target_module)
    pres = ModMorphism(g.source_module, s, vstack(alpha.a.mat, g.pres.mat))
    c = CoherentFunctor(pres)
    proj = NatMorphism(source=g, target=c, a=identity_mor(g.source_module), b=p2)
    return c, proj


def ker_nat(alpha: NatMorphism) -> tuple[CoherentFunctor, NatMorphism]:
    """Kernel via two pushouts.

    D is the pushout of a : X_G -> X_F against g : X_G -> Y_G, and E
    the pushout of the induced j : X_F -> D against f : X_F -> Y_F; the
    kernel is presented by D -> E, included into F by (j, Y_F -> E).
    """
    f, g = alpha.source, alpha.target

    s1, i1, i2, _, _ = direct_sum(f.source_module, g.target_module)
    d, pi_d = cokernel_mor(
        ModMorphism(g.source_module, s1, vstack(alpha.a.mat, (-g.pres).mat))
    )
    j = compose_mor(pi_d, i1)

    s2, k1, k2, _, _ = direct_sum(d, f.target_module)
    e, pi_e = cokernel_mor(ModMorphism(f.source_module, s2, vstack(j.mat, (-f.pres).mat)))
    k_d = compose_mor(pi_e, k1)
    into_y = compose_mor(pi_e, k2)

    ker = CoherentFunctor(k_d)
    incl = NatMorphism(source=ker, target=f, a=j, b=into_y)
    return ker, incl


def is_zero_functor(f: CoherentFunctor) -> bool:
    """Exact test: F == 0 iff the class of the identity dies in F(X).

    F is a quotient of (X, -), and the quotient map corresponds to
    [1_X]; it is zero exactly when the presentation is a split mono,
    which in turn forces every value to vanish.
    """
    ev = _evaluation(f, f.source_module)
    return ev.is_zero_class(ev.hom_x.coords(identity_mor(f.source_module)))


def is_representable(f: CoherentFunctor) -> bool:
    """True iff the unit into the reflection is an isomorphism."""
    _, unit = r0_functor(f)
    if not is_zero_functor(ker_nat(unit)[0]):
        return False
    return is_zero_functor(coker_nat(unit)[0])


# The reflection is an isomorphism exactly on the left exact coherent
# functors, which are the representable (equivalently projective) ones.
is_left_exact = is_representable


def embed_injective(f: CoherentFunctor) -> tuple[CoherentFunctor, NatMorphism]:
    """A pointwise-injective embedding into a free-to-free presented functor.

    Step one replaces X by a free cover P0, embedding F into the functor
    presented by f∘p.  Step two lifts f∘p through a free cover of Y and
    adjoins the syzygies, landing in H presented by P0 ⊕ Q1 -> Q0 with
    both ends free.  Such functors are injective, so this is the first
    half of a resolution.
    """
    pres = f.pres
    x, y = pres.source, pres.target
    ring = f.ring

    p0 = FpModule.free(ring, x.gens)
    p = ModMorphism(p0, x, Matrix.identity(ring, x.gens))
    g_pres = compose_mor(pres, p)
    g = CoherentFunctor(g_pres)
    step1 = NatMorphism(source=f, target=g, a=p, b=identity_mor(y))

    if y.is_free and y.rels.cols == 0:
        h = g
        step2 = identity_nat(g)
    else:
        d, pi_y = free_presentation(y)
        q0, q1 = pi_y.source, d.source
        lam = lift_through_epi(g_pres, pi_y)
        s, _, _, pr1, _ = direct_sum(p0, q1)
        h = CoherentFunctor(ModMorphism(s, q0, hstack(lam.mat, d.mat)))
        step2 = NatMorphism(source=g, target=h, a=pr1, b=pi_y)
    return h, compose_nat(step2, step1)


@dataclass(frozen=True, eq=False)
class InjectiveResolution:
    """0 -> F -> I0 -> I1 -> I2 -> 0 with injective terms (some may vanish)."""

    functor: CoherentFunctor
    terms: tuple[CoherentFunctor, CoherentFunctor, CoherentFunctor]
    maps: tuple[NatMorphism, NatMorphism, NatMorphism]


def injective_resolution(f: CoherentFunctor) -> InjectiveResolution:
    """Embed, take the cokernel, embed again; the final cokernel closes it.

    The last term inherits a free-to-free presentation, so it must pass
    the injectivity test; failure would be an internal contradiction
    and raises instead of returning bad data.
    """
    i0, j0 = embed_injective(f)
    c0, q0 = coker_nat(j0)
    i1, j1 = embed_injective(c0)
    d0 = compose_nat(j1, q0)
    i2, d1 = coker_nat(j1)
    if not is_injective_functor(i2):
        raise RuntimeError("resolution closed on a non-injective cokernel")
    return InjectiveResolution(functor=f, terms=(i0, i1, i2), maps=(j0, d0, d1))


def is_injective_functor(f: CoherentFunctor) -> bool:
    """Split test: F is injective iff its canonical embedding splits.

    Splitting is a membership question in Nat(F, F): the identity must
    be in the image of composition with the embedding.
    """
    h, j = embed_injective(f)
    ring = f.ring
    if h == f and j.a.mat == Matrix.identity(ring, f.source_module.gens):
        return True
    split = nat_lift(
        nat_group(h, f), nat_group(f, f), lambda gamma: compose_nat(gamma, j), identity_nat(f)
    )
    return split is not None
