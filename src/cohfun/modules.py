"""Finitely presented modules over the base ring, and their morphisms.

A module is stored as a cokernel presentation: ``gens`` generators and a
relation matrix whose *columns* are relations.  A morphism is a matrix on
generators, taken modulo the target's relations; well-definedness and
equality are decided exactly by linear solving.  Cokernels, tensor
products and direct sums are written down directly from presentations.
Kernels, and Hom groups over Z, are preimage lattices computed by the
Smith normal form primitives in ``linalg``; over a field, Hom groups
are read off pruned presentations, which are free.

Object equality is identity of presentation.  Isomorphism is decided
by comparing canonical forms (free rank plus invariant factors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .linalg import (
    BaseRing,
    Matrix,
    SnfResult,
    block_diag,
    hstack,
    kron,
    preimage_lattice,
    smith_normal_form,
    unvec,
    vec,
    vstack,
)


@dataclass(frozen=True)
class FpModule:
    """coker(rels : ring^m -> ring^gens), with its canonical form cached.

    ``snf`` is the Smith form of ``rels``: the solver that decides
    whether columns lie in the relation span.
    """

    ring: BaseRing
    gens: int
    rels: Matrix
    snf: SnfResult = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False, repr=False)
    invariant_factors: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rels.ring != self.ring:
            raise ValueError("relation matrix ring mismatch")
        if self.rels.rows != self.gens:
            raise ValueError(
                f"relation matrix has {self.rels.rows} rows for {self.gens} generators"
            )
        snf = smith_normal_form(self.rels)
        object.__setattr__(self, "snf", snf)
        object.__setattr__(self, "rank", self.gens - len(snf.diag))
        object.__setattr__(
            self,
            "invariant_factors",
            tuple(d for d in snf.diag if not self.ring.is_unit(d)),
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

    def __add__(self, other: "ModMorphism") -> "ModMorphism":
        self._same_endpoints(other)
        return ModMorphism(self.source, self.target, self.mat + other.mat)

    def __sub__(self, other: "ModMorphism") -> "ModMorphism":
        self._same_endpoints(other)
        return ModMorphism(self.source, self.target, self.mat - other.mat)

    def __neg__(self) -> "ModMorphism":
        return ModMorphism(self.source, self.target, -self.mat)

    @property
    def ring(self) -> BaseRing:
        return self.source.ring

    @property
    def is_zero(self) -> bool:
        return self.target.snf.contains(self.mat)

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


def is_mono(phi: ModMorphism) -> bool:
    return kernel_mor(phi)[0].is_zero


def is_epi(phi: ModMorphism) -> bool:
    return cokernel_mor(phi)[0].is_zero


def is_iso(phi: ModMorphism) -> bool:
    return is_mono(phi) and is_epi(phi)


@dataclass(frozen=True, eq=False)
class HomGroup:
    """Hom(source, target) as a finitely presented abelian group.

    ``reps`` realizes each generator as a genuine morphism; ``coords``
    and ``from_coords`` convert between morphisms and coordinate columns
    (mutually inverse modulo the group's relations).  ``coords_all``
    and ``induced`` express many morphisms with one solve.
    """

    source: FpModule
    target: FpModule
    group: FpModule
    gen_mat: Matrix  # vec'd generator matrices, one column per generator

    @cached_property
    def reps(self) -> tuple[ModMorphism, ...]:
        """Each generator as a genuine morphism, built when first read."""
        ident = Matrix.identity(self.source.ring, self.group.gens)
        return tuple(self.from_coords(ident.col(j)) for j in range(self.group.gens))

    @cached_property
    def _solver(self) -> SnfResult:
        """The solver for [gen_mat | target relations on vec'd matrices], built once."""
        ident = Matrix.identity(self.source.ring, self.source.gens)
        return smith_normal_form(hstack(self.gen_mat, kron(self.target.rels, ident)))

    def _solve(self, vecs: Matrix) -> Matrix:
        """Coordinates of the vec'd morphism matrices in the columns of ``vecs``."""
        z = self._solver.solve(vecs)
        if z is None:
            raise ValueError("morphism is not generated; Hom group is inconsistent")
        return z.slice_rows(0, self.gen_mat.cols)

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
        solved at once, as vec(post∘h∘pre) == kron(post, pre.T) vec(h).
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


def prune(a: FpModule) -> tuple[int, Matrix, Matrix, Matrix]:
    """A smaller presentation of ``a``: ``(gens, rels, s, t)``.

    Each unit entry of a relation removes its generator and that
    relation (the ``prune`` of Macaulay2); zero relations are dropped.
    ``s : a -> a'`` and ``t : a' -> a`` are mutually inverse, and ``t``
    keeps the surviving generators.  Over a field ``a'`` is free.
    """
    ring, n, r = a.ring, a.gens, a.rels.cols
    # one row per current generator: its relation entries, then its row of s
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.rels.entries)]
    kept, live = list(range(n)), list(range(r))
    while pivot := next(
        ((i, j) for j in live for i, row in enumerate(rows) if ring.is_unit(row[j])), None
    ):
        i, j = pivot
        inv = ring.eucdiv(1, rows[i][j])[0]
        prow = rows.pop(i)
        del kept[i]
        live.remove(j)
        # generator i is -inv * (the rest of relation j); substitute it everywhere
        for row in rows:
            if c := row[j] * inv:
                row[:] = [ring.normalize(x - c * y) for x, y in zip(row, prow)]
    live = [j for j in live if any(row[j] for row in rows)]
    m = len(rows)
    rels = Matrix(ring, m, len(live), tuple(tuple(row[j] for j in live) for row in rows))
    s = Matrix(ring, m, n, tuple(tuple(row[r:]) for row in rows))
    t = Matrix(ring, n, m, tuple(tuple(int(k == i) for k in kept) for i in range(n)))
    return m, rels, s, t


@lru_cache(maxsize=None)
def hom_group(a: FpModule, b: FpModule) -> HomGroup:
    """Hom(a, b), computed in one of three ways.

    - Over a field, both modules prune to free ones, so Hom(a, b) is free
      on the nb' x na' matrices M, realized as t_b @ M @ s_a.
    - Over Z from a free ``a``, Hom(Z^na, b) is b^na on the nose.
    - Otherwise Hom(a, b) is the lattice of T with T @ rels_a in the span
      of rels_b, modulo the T with columns in that span.
    """
    if a.ring != b.ring:
        raise ValueError("Hom between modules over different rings")
    ring = a.ring
    if ring.is_field:
        na, _, s_a, _ = prune(a)
        nb, _, _, t_b = prune(b)
        return HomGroup(a, b, FpModule.free(ring, nb * na), kron(t_b, s_a.transpose()))
    na, ma = a.gens, a.rels.cols
    nb, mb = b.gens, b.rels.cols
    n = nb * na
    ident_na = Matrix.identity(ring, na)
    if ma == 0:
        # Hom(ring^na, B) is B^na on the nose; skip the kernel computation.
        gen_mat = Matrix.identity(ring, n)
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


def tensor_module(a: FpModule, b: FpModule) -> FpModule:
    """Tensor product; generator (i, j) sits at flat index i*b.gens + j."""
    if a.ring != b.ring:
        raise ValueError("tensor of modules over different rings")
    ring = a.ring
    rels = hstack(
        kron(a.rels, Matrix.identity(ring, b.gens)),
        kron(Matrix.identity(ring, a.gens), b.rels),
    )
    return FpModule(ring, a.gens * b.gens, rels)


def direct_sum(
    a: FpModule, b: FpModule
) -> tuple[FpModule, ModMorphism, ModMorphism, ModMorphism, ModMorphism]:
    """Biproduct with (inj_a, inj_b, proj_a, proj_b)."""
    if a.ring != b.ring:
        raise ValueError("direct sum of modules over different rings")
    ring = a.ring
    s = FpModule(ring, a.gens + b.gens, block_diag(a.rels, b.rels))
    za = Matrix.zeros(ring, a.gens, b.gens)
    zb = Matrix.zeros(ring, b.gens, a.gens)
    ia, ib = Matrix.identity(ring, a.gens), Matrix.identity(ring, b.gens)
    inj_a = ModMorphism(a, s, vstack(ia, zb))
    inj_b = ModMorphism(b, s, vstack(za, ib))
    proj_a = ModMorphism(s, a, hstack(ia, za))
    proj_b = ModMorphism(s, b, hstack(zb, ib))
    return s, inj_a, inj_b, proj_a, proj_b


def free_presentation(a: FpModule) -> tuple[ModMorphism, ModMorphism]:
    """The stored presentation ring^m -> ring^n -> a -> 0, read off directly."""
    ring = a.ring
    cover = FpModule.free(ring, a.gens)
    syz = FpModule.free(ring, a.rels.cols)
    d = ModMorphism(syz, cover, a.rels)
    pi = ModMorphism(cover, a, Matrix.identity(ring, a.gens))
    return d, pi
