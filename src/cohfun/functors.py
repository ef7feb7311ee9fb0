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

from .linalg import Matrix, block_diag, express, hstack, smith_normal_form, vstack
from .modules import (
    FpModule,
    HomGroup,
    ModMorphism,
    cokernel_mor,
    compose_mor,
    free_presentation,
    hom_group,
    identity_mor,
    kernel_mor,
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

    def __eq__(self, other: object) -> bool:
        # identity of presentation, matching object equality in the base
        if not isinstance(other, CoherentFunctor):
            return NotImplemented
        return self.pres.key() == other.pres.key()

    def __hash__(self) -> int:
        return hash(self.pres.key())


def yoneda_embed(x: FpModule) -> CoherentFunctor:
    """The representable functor Hom(x, -), presented by x -> 0."""
    zero = FpModule.zero(x.ring)
    return CoherentFunctor(ModMorphism(x, zero, Matrix.zeros(x.ring, 0, x.gens)))


def yoneda_mor(m: ModMorphism) -> "NatMorphism":
    """Contravariant action on morphisms: m : A -> B gives (B,-) -> (A,-)."""
    zero = FpModule.zero(m.source.ring)
    return NatMorphism(
        source=yoneda_embed(m.target), target=yoneda_embed(m.source), a=m, b=zero_mor(zero, zero)
    )


@dataclass(frozen=True, eq=False)
class Evaluation:
    """F(at) together with the data needed to move elements around.

    ``module`` presents the value group on the generators of
    Hom(X, at); its relations are the Hom-group relations followed by
    the classes h_j∘f of the generators h_j of Hom(Y, at).
    """

    hom_x: HomGroup
    hom_y: HomGroup
    module: FpModule

    def is_zero_class(self, m: ModMorphism) -> bool:
        """True when the class of m : X -> at vanishes in F(at)."""
        return self.module.snf.contains(self.hom_x.coords(m))

    def factor_precompose(self, m: ModMorphism) -> ModMorphism | None:
        """h : Y -> at with h∘f equal to m as morphisms, if one exists."""
        z = self.module.snf.solve(self.hom_x.coords(m))
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
    return Evaluation(hom_x=hx, hom_y=hy, module=module)


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
        if not f.target.snf.contains(f.mat @ self.a.mat - self.b.mat @ g.mat):
            raise ValueError("incompatible transformation: f∘a != b∘g")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NatMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        ev = _evaluation(self.target, self.source.source_module)
        return ev.is_zero_class(self.a - other.a)

    __hash__ = None

    @property
    def ring(self):
        return self.source.ring


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
    """Nat(F, G) as a group: the kernel of G(f) : G(X) -> G(Y).

    Elements are coordinate columns on ``group``'s generators; a
    generator's a component is the Hom(X_G, X_F) element picked out by
    the kernel inclusion.  ``reps`` builds the generators as
    transformations, for the ``nat`` command, the oracle's naturality
    checks and tests; everything else stays in coordinates.
    """

    source: CoherentFunctor
    target: CoherentFunctor
    group: FpModule
    ev_x: Evaluation
    incl: ModMorphism

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
        return self.coords_from_hom(self.ev_x.hom_x.coords_all([alpha.a for alpha in alphas]))

    def coords_from_hom(self, x: Matrix) -> Matrix:
        """Coordinates of the transformations whose a components have Hom coordinates ``x``."""
        c = express(self.incl.mat, self.ev_x.module.rels, x)
        if c is None:
            raise ValueError("transformation escaped its Nat group; inconsistent data")
        return c

    def from_coords(self, coeffs: Matrix) -> NatMorphism:
        """The transformation with these coordinates; its b component is solved for."""
        f, g = self.source, self.target
        a = self.ev_x.hom_x.from_coords(self.incl.mat @ coeffs)
        b = _evaluation(g, f.target_module).factor_precompose(compose_mor(f.pres, a))
        if b is None:
            raise ValueError("a component does not define a transformation")
        return NatMorphism(f, g, a, b)


def nat_group(f: CoherentFunctor, g: CoherentFunctor) -> NatGroup:
    """Nat(F, G) as the kernel of G(f); no transformation is built until ``reps`` is read."""
    if f.ring != g.ring:
        raise ValueError("functors live over different rings")
    k, incl = kernel_mor(evaluate_mor(g, f.pres))
    return NatGroup(source=f, target=g, group=k, ev_x=_evaluation(g, f.source_module), incl=incl)


def nat_lift(
    domain: NatGroup,
    codomain: NatGroup,
    target: NatMorphism,
    pre: NatMorphism | None = None,
    post: NatMorphism | None = None,
) -> Matrix | None:
    """Coordinates in ``domain`` of some gamma with post∘gamma∘pre == ``target``.

    A missing ``pre`` or ``post`` is the identity; None when ``target``
    is not in the image.  The composite's a component is
    pre.a∘gamma.a∘post.a, so the images of all of ``domain``'s
    generators come from one ``induced`` solve in Hom coordinates.
    """
    f, g = domain.source, domain.target
    pre_ends = (f, f) if pre is None else (pre.source, pre.target)
    post_ends = (g, g) if post is None else (post.source, post.target)
    if pre_ends != (codomain.source, f) or post_ends != (g, codomain.target):
        raise ValueError("nat_lift endpoint mismatch")
    hom = codomain.ev_x.hom_x.induced(
        domain.ev_x.hom_x,
        pre=None if post is None else post.a,
        post=None if pre is None else pre.a,
    )
    comp = codomain.coords_from_hom(hom @ domain.incl.mat)
    return express(comp, codomain.group.rels, codomain.coords(target))


def w_of(f: CoherentFunctor) -> tuple[FpModule, ModMorphism]:
    """The kernel of the presentation morphism, with its inclusion into X."""
    return kernel_mor(f.pres)


def w_mor(alpha: NatMorphism) -> ModMorphism:
    """Contravariant action: alpha : F -> G restricts a to w(G) -> w(F)."""
    wg, kg = w_of(alpha.target)
    wf, kf = w_of(alpha.source)
    coeff = express(kf.mat, alpha.source.source_module.rels, alpha.a.mat @ kg.mat)
    if coeff is None:
        raise ValueError("kernel restriction failed; incompatible transformation")
    return ModMorphism(wg, wf, coeff)


def r0_functor(f: CoherentFunctor) -> tuple[CoherentFunctor, NatMorphism]:
    """The representable reflection (w(F), -) and the unit F -> (w(F), -).

    With k : w(F) -> X the kernel inclusion of f : X -> Y, the
    reflection is presented by w(F) -> 0 and the unit is (k, 0 -> Y).
    """
    wf, k = w_of(f)
    r0 = yoneda_embed(wf)
    return r0, NatMorphism(f, r0, a=k, b=zero_mor(r0.target_module, f.target_module))


@dataclass(frozen=True, eq=False)
class FourTermData:
    """The exact sequence 0 -> F_0 -> F -> (w(F),-) -> F_1 -> 0.

    phi is the unit (k, 0) of ``r0_functor``, k : w(F) -> X.  f1 is
    presented by k and f0 by f's matrix v on the coimage X / im(k), so
    w(F), k, v and the coimage are ``r0.source_module``, ``f1.pres``,
    ``f0.pres`` and ``f0.source_module``; iota is (X -> X / im(k), 1_Y).
    """

    f0: CoherentFunctor
    iota: NatMorphism
    phi: NatMorphism
    r0: CoherentFunctor
    f1: CoherentFunctor
    rho: NatMorphism


def four_term(f: CoherentFunctor) -> FourTermData:
    x, y = f.source_module, f.target_module
    r0, phi = r0_functor(f)
    coim, pi_v = cokernel_mor(phi.a)
    f0 = CoherentFunctor(ModMorphism(coim, y, f.pres.mat))
    f1 = CoherentFunctor(phi.a)
    iota = NatMorphism(source=f0, target=f, a=pi_v, b=identity_mor(y))
    rho = NatMorphism(r0, f1, a=identity_mor(r0.source_module), b=zero_mor(x, r0.target_module))
    return FourTermData(f0=f0, iota=iota, phi=phi, r0=r0, f1=f1, rho=rho)


def inj_stabilize(f: CoherentFunctor) -> CoherentFunctor:
    """The kernel F_0 of the unit; F is injectively stable iff F_0 is all of F.

    F_0 is f's matrix on the coimage X / im(k), with k : w(F) -> X the
    kernel inclusion: ``four_term(f).f0`` without the rest of the sequence.
    """
    coim, _ = cokernel_mor(w_of(f)[1])
    return CoherentFunctor(ModMorphism(coim, f.target_module, f.pres.mat))


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
    """Cokernel, presented by [a; g] : X_G -> X_F ⊕ Y_G.

    X_F ⊕ Y_G has the relations block_diag(rels_X_F, rels_Y_G), and the
    projection is (1, [0 | I]).  It acts pointwise as the quotient by
    the image of alpha, which is the cokernel in the functor category.
    """
    f, g = alpha.source, alpha.target
    xf, yg, ring = f.source_module, g.target_module, alpha.ring
    s = FpModule(ring, xf.gens + yg.gens, block_diag(xf.rels, yg.rels))
    c = CoherentFunctor(ModMorphism(g.source_module, s, vstack(alpha.a.mat, g.pres.mat)))
    b = hstack(Matrix.zeros(ring, yg.gens, xf.gens), Matrix.identity(ring, yg.gens))
    return c, NatMorphism(g, c, a=identity_mor(g.source_module), b=ModMorphism(s, yg, b))


def _pushout(p: ModMorphism, q: ModMorphism) -> tuple[ModMorphism, ModMorphism]:
    """The pushout of p : A -> B and q : A -> C, as its maps [I; 0] and [0; I].

    The pushout D has the generators of B ⊕ C and the relations
    hstack(block_diag(rels_B, rels_C), vstack(p, -q)): the biproduct
    with the image of (p, -q) divided out.
    """
    b, c, ring = p.target, q.target, p.ring
    d = FpModule(ring, b.gens + c.gens, hstack(block_diag(b.rels, c.rels), vstack(p.mat, -q.mat)))
    into_b = vstack(Matrix.identity(ring, b.gens), Matrix.zeros(ring, c.gens, b.gens))
    into_c = vstack(Matrix.zeros(ring, b.gens, c.gens), Matrix.identity(ring, c.gens))
    return ModMorphism(b, d, into_b), ModMorphism(c, d, into_c)


def ker_nat(alpha: NatMorphism) -> tuple[CoherentFunctor, NatMorphism]:
    """Kernel via two pushouts, in closed form.

    D is the pushout of a : X_G -> X_F against g : X_G -> Y_G, with
    j = [I; 0] : X_F -> D, and E the pushout of j against f : X_F -> Y_F.
    The kernel is presented by [I; 0] : D -> E and included into F by
    (j, [0; I] : Y_F -> E).
    """
    j = _pushout(alpha.a, alpha.target.pres)[0]
    k_d, into_y = _pushout(j, alpha.source.pres)
    ker = CoherentFunctor(k_d)
    return ker, NatMorphism(source=ker, target=alpha.source, a=j, b=into_y)


def is_zero_functor(f: CoherentFunctor) -> bool:
    """Exact test: F == 0 iff f : X -> Y is a split mono.

    F is a quotient of (X, -), and the quotient map corresponds to
    [1_X]; F vanishes exactly when [1_X] dies in F(X), that is when
    1_X == h∘f for some h : Y -> X, which in turn forces every value to
    vanish.  With X and Y both free, such an h exists iff f's Smith
    diagonal has X.gens entries, all units: that is read off f's matrix
    without building F(X).  Otherwise the class of 1_X is tested in F(X).
    """
    x, y = f.source_module, f.target_module
    if x.rels.cols == 0 and y.rels.cols == 0:
        diag = smith_normal_form(f.pres.mat).diag
        return len(diag) == x.gens and all(f.ring.is_unit(d) for d in diag)
    ev = _evaluation(f, x)
    return ev.is_zero_class(identity_mor(x))


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

    With d = rels_Y : Q1 -> Q0 and pi_y : Q0 -> Y the stored free
    presentation of Y, H is presented by [f | d] : ring^(X.gens) ⊕ Q1 ->
    Q0, and the embedding is a = [I | 0] : ring^(X.gens) ⊕ Q1 -> X with
    b = pi_y.  This is the proof's two steps in closed form: cover X by
    the free module on its generators, then lift f through pi_y and
    adjoin the syzygies Q1.  pi_y is the identity on generators, so the
    lift is f's own matrix; a free Y has no syzygies.  Functors with
    both ends free are injective, so this is the first half of a
    resolution.
    """
    pres = f.pres
    x, ring = pres.source, f.ring
    d, pi_y = free_presentation(pres.target)
    s = FpModule.free(ring, x.gens + d.source.gens)
    h = CoherentFunctor(ModMorphism(s, d.target, hstack(pres.mat, d.mat)))
    a = hstack(Matrix.identity(ring, x.gens), Matrix.zeros(ring, x.gens, d.source.gens))
    return h, NatMorphism(source=f, target=h, a=ModMorphism(s, x, a), b=pi_y)


@dataclass(frozen=True, eq=False)
class InjectiveResolution:
    """0 -> F -> I0 -> I1 -> I2 -> 0 with injective terms (some may vanish)."""

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
    return InjectiveResolution(terms=(i0, i1, i2), maps=(j0, d0, d1))


def is_injective_functor(f: CoherentFunctor) -> bool:
    """Split test: F is injective iff its canonical embedding splits.

    Splitting is a membership question in Nat(F, F): the identity must
    be in the image of composition with the embedding.
    """
    h, j = embed_injective(f)
    if h == f:  # X free and Y without relations: j is the identity
        return True
    return nat_lift(nat_group(h, f), nat_group(f, f), identity_nat(f), pre=j) is not None
