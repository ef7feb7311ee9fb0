"""Finitely presented modules over the base ring, and their morphisms.

A module is stored as a cokernel presentation: ``gens`` generators and a
relation matrix whose *columns* are relations.  A morphism is a matrix on
generators, taken modulo the target's relations; well-definedness and
equality are decided exactly by linear solving.  Cokernels and direct
sums are written down directly from presentations.  Kernels, and Hom
groups over Z, are preimage lattices in Hermite form, computed by the
primitives in ``linalg``; the coordinates of a morphism are read off
that basis by substitution.  Over a field Hom is read off the pruned
presentations, which are free, and coordinates are one matrix product;
each distinct presentation is pruned once, off its echelon form.

A module is its presentation.  Its Smith form, and the free rank and
invariant factors read off it, are computed when first read.  Object
equality is identity of presentation.  Isomorphism is decided by
comparing canonical forms (free rank plus invariant factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .linalg import (
    BaseRing,
    Matrix,
    SnfResult,
    block_diag,
    hermite_basis,
    hermite_solve,
    hstack,
    kron,
    preimage_lattice,
    smith_normal_form,
    unvec,
    vec,
)


@dataclass(frozen=True)
class FpModule:
    """coker(rels : ring^m -> ring^gens): the presentation and nothing else.

    ``snf``, the Smith form of ``rels``, is computed when first read: it
    decides whether columns lie in the relation span, and ``rank`` and
    ``invariant_factors`` are read off its diagonal.
    """

    ring: BaseRing
    gens: int
    rels: Matrix

    def __post_init__(self) -> None:
        if self.rels.ring != self.ring:
            raise ValueError("relation matrix ring mismatch")
        if self.rels.rows != self.gens:
            raise ValueError(
                f"relation matrix has {self.rels.rows} rows for {self.gens} generators"
            )

    @staticmethod
    def free(ring: BaseRing, n: int) -> "FpModule":
        return FpModule(ring, n, Matrix.zeros(ring, n, 0))

    @staticmethod
    def zero(ring: BaseRing) -> "FpModule":
        return FpModule.free(ring, 0)

    @staticmethod
    def cyclic(ring: BaseRing, d: int) -> "FpModule":
        return FpModule(ring, 1, Matrix.from_rows(ring, [[d]]))

    @cached_property
    def snf(self) -> SnfResult:
        return smith_normal_form(self.rels)

    @property
    def rank(self) -> int:
        return self.gens - len(self.snf.diag)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.snf.diag if not self.ring.is_unit(d))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    def describe(self) -> str:
        return render_group(self.ring, self.rank, self.invariant_factors)


def render_group(ring: BaseRing, rank: int, factors: tuple[int, ...]) -> str:
    """Canonical group string: "0" | "Z^r" | "Z/d" joined by " + ".

    Over a prime field every module is ring^rank; as an abelian group
    that is rank copies of Z/p, which is how it is rendered so the same
    grammar covers both rings.
    """
    parts: list[str] = []
    if ring.is_field:
        parts.extend([f"Z/{ring.p}"] * rank)
    else:
        if rank:
            parts.append(f"Z^{rank}")
        parts.extend(f"Z/{d}" for d in factors)
    return " + ".join(parts) if parts else "0"


def canonical_form(a: FpModule) -> tuple[int, tuple[int, ...]]:
    """Free rank and invariant factors d_1 | d_2 | ... (no unit factors)."""
    return a.rank, a.invariant_factors


@dataclass(frozen=True, eq=False)
class ModMorphism:
    """Morphism of presentations: a (target.gens x source.gens) matrix.

    It acts on generator-coordinate columns by left multiplication.
    Construction checks well-definedness: mat @ rels_source must land in
    the column span of rels_target.  Equality is modulo the target's
    relations, so it is *not* entry-wise equality of matrices.
    """

    source: FpModule
    target: FpModule
    mat: Matrix

    def __post_init__(self) -> None:
        if self.source.ring != self.target.ring or self.mat.ring != self.source.ring:
            raise ValueError("ring mismatch in morphism")
        if self.mat.rows != self.target.gens or self.mat.cols != self.source.gens:
            raise ValueError(
                f"morphism matrix is {self.mat.rows}x{self.mat.cols}, expected "
                f"{self.target.gens}x{self.source.gens}"
            )
        if not self.target.snf.contains(self.mat @ self.source.rels):
            raise ValueError("ill-defined morphism: image of relations is not a relation")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return self.target.snf.contains(self.mat - other.mat)

    __hash__ = None  # semantic equality is coarser than the raw data

    def __sub__(self, other: "ModMorphism") -> "ModMorphism":
        self._same_endpoints(other)
        return ModMorphism(self.source, self.target, self.mat - other.mat)

    @property
    def ring(self) -> BaseRing:
        return self.source.ring

    def _same_endpoints(self, other: "ModMorphism") -> None:
        if self.source != other.source or self.target != other.target:
            raise ValueError("morphism endpoints differ")

    def key(self) -> tuple:
        """Raw presentation data; usable as a cache key (finer than ==)."""
        return (self.source, self.target, self.mat)


def identity_mor(a: FpModule) -> ModMorphism:
    return ModMorphism(a, a, Matrix.identity(a.ring, a.gens))


def zero_mor(a: FpModule, b: FpModule) -> ModMorphism:
    return ModMorphism(a, b, Matrix.zeros(a.ring, b.gens, a.gens))


def compose_mor(psi: ModMorphism, phi: ModMorphism) -> ModMorphism:
    """psi after phi; endpoints are matched by presentation identity."""
    if phi.target != psi.source:
        raise ValueError("composition endpoint mismatch")
    return ModMorphism(phi.source, psi.target, psi.mat @ phi.mat)


def kernel_mor(phi: ModMorphism) -> tuple[FpModule, ModMorphism]:
    """Kernel with its inclusion; the inclusion is mono by construction.

    Generators are lattice generators of {x : phi(x) == 0 in target};
    relations are the coefficient vectors landing in the source's
    relation span.
    """
    ktilde = preimage_lattice(phi.mat, phi.target.rels)
    rels = preimage_lattice(ktilde, phi.source.rels)
    k = FpModule(phi.source.ring, ktilde.cols, rels)
    return k, ModMorphism(k, phi.source, ktilde)


def cokernel_mor(phi: ModMorphism) -> tuple[FpModule, ModMorphism]:
    """Cokernel: adjoin the image columns to the target's relations."""
    c = FpModule(phi.target.ring, phi.target.gens, hstack(phi.target.rels, phi.mat))
    return c, ModMorphism(phi.target, c, Matrix.identity(phi.target.ring, phi.target.gens))


@dataclass(frozen=True, eq=False)
class HomGroup:
    """Hom(source, target) as a finitely presented abelian group.

    ``coords`` and ``from_coords`` convert between morphisms and
    coordinate columns (mutually inverse modulo the group's relations);
    ``coords_all`` and ``induced`` express many morphisms at once.

    Over a field ``hom_group`` sets ``coord_mat`` to kron(s_b, t_a^T),
    and the coordinates of a morphism are ``coord_mat @ vec(phi)``, one
    product.  Over Z ``gen_mat`` is a Hermite basis whose span holds the
    relations, and coordinates are the unique solution against it alone,
    read by substitution.
    """

    source: FpModule
    target: FpModule
    group: FpModule
    gen_mat: Matrix  # vec'd generator matrices, one column per generator
    coord_mat: Matrix | None = None

    def _solve(self, vecs: Matrix) -> Matrix:
        """Coordinates of the vec'd morphism matrices in the columns of ``vecs``."""
        if self.coord_mat is not None:
            return self.coord_mat @ vecs
        z = hermite_solve(self.gen_mat, vecs)
        if z is None:
            raise ValueError("morphism is not generated; Hom group is inconsistent")
        return z

    def coords(self, phi: ModMorphism) -> Matrix:
        return self.coords_all([phi])

    def coords_all(self, phis: list[ModMorphism]) -> Matrix:
        """Coordinate columns of the morphisms ``phis``, side by side."""
        for phi in phis:
            if phi.source != self.source or phi.target != self.target:
                raise ValueError("morphism does not belong to this Hom group")
        # column k is vec(phis[k].mat); the zero-width block lets phis be empty
        empty = Matrix.zeros(self.source.ring, self.gen_mat.rows, 0)
        return self._solve(hstack(empty, *(vec(phi.mat) for phi in phis)))

    def induced(
        self, dom: "HomGroup", pre: ModMorphism | None = None, post: ModMorphism | None = None
    ) -> Matrix:
        """Coordinates of post∘h∘pre, one column per generator h of ``dom``.

        A missing ``pre`` or ``post`` is the identity; the composites are
        expressed at once, as vec(post∘h∘pre) == kron(post, pre.T) vec(h).
        """
        a, b = self.source, self.target
        pre_mat = Matrix.identity(a.ring, a.gens) if pre is None else pre.mat
        post_mat = Matrix.identity(b.ring, b.gens) if post is None else post.mat
        pre_ends = (a, a) if pre is None else (pre.source, pre.target)
        post_ends = (b, b) if post is None else (post.source, post.target)
        if pre_ends != (a, dom.source) or post_ends != (dom.target, b):
            raise ValueError("induced map endpoint mismatch")
        return self._solve(kron(post_mat, pre_mat.transpose()) @ dom.gen_mat)

    def from_coords(self, coeffs: Matrix) -> ModMorphism:
        if coeffs.rows != self.group.gens or coeffs.cols != 1:
            raise ValueError("bad coordinate column")
        col = self.gen_mat @ coeffs
        mat = unvec(col, self.target.gens, self.source.gens)
        return ModMorphism(self.source, self.target, mat)


def prune(rels: Matrix) -> tuple[Matrix, Matrix]:
    """Prune the presentation coker(rels) over a field: ``(s, t)``.

    The relations' Hermite basis is their reduced column echelon form.
    Each column writes the generator at its pivot, 1 there and 0 in the
    other columns, as minus its entries at the kept ones (the ``prune``
    of Macaulay2), so the pruned module is free of rank ``s.rows``.
    ``s`` maps the module onto it and ``t``, which keeps the surviving
    generators, maps it back; the two are mutually inverse.
    """
    ring, n, h = rels.ring, rels.rows, hermite_basis(rels)
    pivots = {next(i for i in range(n) if h.entries[i][j]): j for j in range(h.cols)}
    kept = [i for i in range(n) if i not in pivots]
    s = tuple(
        tuple(-h.entries[k][pivots[i]] if i in pivots else int(i == k) for i in range(n))
        for k in kept
    )
    t = tuple(tuple(int(k == i) for k in kept) for i in range(n))
    return Matrix(ring, len(kept), n, s), Matrix(ring, n, len(kept), t)


@lru_cache(maxsize=None)
def pruned_maps(rels: Matrix) -> tuple[Matrix, Matrix]:
    """``prune(rels)``, computed once per presentation and checked once.

    The pruned module is free, so ``s`` is well defined iff
    ``s @ rels`` is zero and s∘t == 1 iff ``s @ t`` is the identity;
    only t∘s == 1 needs a membership test in the relation span.  A
    prune that breaks this raises here instead of giving wrong Hom
    coordinates later.
    """
    s, t = prune(rels)
    ring = rels.ring
    if not (
        (s @ rels).is_zero
        and s @ t == Matrix.identity(ring, s.rows)
        and smith_normal_form(rels).contains(t @ s - Matrix.identity(ring, rels.rows))
    ):
        raise ValueError("pruned presentation is not isomorphic to the module")
    return s, t


@lru_cache(maxsize=None)
def hom_group(a: FpModule, b: FpModule) -> HomGroup:
    """Hom(a, b), computed in one of three ways.

    - Over a field, both modules prune to free ones (``pruned_maps``,
      shared by equal presentations), so Hom(a, b) is free on the
      nb' x na' matrices M, realized as t_b @ M @ s_a.  The coordinates
      of phi are M = s_b @ phi @ t_a, unique because the group is free:
      one product with kron(s_b, t_a^T).
    - Over Z from a free ``a``, Hom(Z^na, b) is b^na on the nose: the
      basis is the identity, so coordinates are vec(phi) itself.
    - Otherwise Hom(a, b) is the lattice of T with T @ rels_a in the span
      of rels_b, modulo the T with columns in that span; its Hermite
      basis holds those, and coordinates are read off it by substitution.
    """
    if a.ring != b.ring:
        raise ValueError("Hom between modules over different rings")
    ring = a.ring
    if ring.is_field:
        s_a, t_a = pruned_maps(a.rels)
        s_b, t_b = pruned_maps(b.rels)
        return HomGroup(
            a,
            b,
            FpModule.free(ring, s_b.rows * s_a.rows),
            kron(t_b, s_a.transpose()),
            coord_mat=kron(s_b, t_a.transpose()),
        )
    na, ma, nb = a.gens, a.rels.cols, b.gens
    ident_na = Matrix.identity(ring, na)
    if ma == 0:
        # Hom(ring^na, B) is B^na on the nose; skip the kernel computation.
        gen_mat = Matrix.identity(ring, nb * na)
        rels = kron(b.rels, ident_na)
    else:
        # {T : T @ rels_a == rels_b @ W} as a sublattice of Z^(nb*na),
        # via vec(T @ rels_a) == kron(I, rels_a^T) vec(T).
        cond = kron(Matrix.identity(ring, nb), a.rels.transpose())
        modw = kron(b.rels, Matrix.identity(ring, ma))
        gen_mat = preimage_lattice(cond, modw)
        rels = preimage_lattice(gen_mat, kron(b.rels, ident_na))
    group = FpModule(ring, gen_mat.cols, rels)
    return HomGroup(source=a, target=b, group=group, gen_mat=gen_mat)


def direct_sum(a: FpModule, b: FpModule) -> FpModule:
    """The biproduct module a + b, presented by the block sum of the relations."""
    if a.ring != b.ring:
        raise ValueError("direct sum of modules over different rings")
    return FpModule(a.ring, a.gens + b.gens, block_diag(a.rels, b.rels))


def free_presentation(a: FpModule) -> tuple[ModMorphism, ModMorphism]:
    """The stored presentation ring^m -> ring^n -> a -> 0, read off directly."""
    ring = a.ring
    cover = FpModule.free(ring, a.gens)
    syz = FpModule.free(ring, a.rels.cols)
    d = ModMorphism(syz, cover, a.rels)
    pi = ModMorphism(cover, a, Matrix.identity(ring, a.gens))
    return d, pi
