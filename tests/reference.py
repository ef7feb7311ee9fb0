"""Reference constructions that the tests compare the package against.

Nothing in ``src/cohfun`` reads these; they live with the tests so that
the package carries no code only its tests need.

``smith_normal_form``, ``hermite_basis`` and ``preimage_lattice`` below
are the package's elimination before it carried only the witnesses its
callers read, kept as they were with two differences: the Euclidean
size and division are the functions ``_degree`` and ``_eucdiv`` here
(they were ``BaseRing.degree`` and ``BaseRing.eucdiv``), and nothing is
memoized, so every call runs the elimination.

``prune`` is the package's pruning before it served only Hom over a
field: it runs over either ring, and returns the pruned presentation
with the two maps.

``is_mono``, ``is_epi`` and ``is_iso`` are the package's tests before
the oracle decided mono and iso by its exactness test: a kernel or a
cokernel is zero.  ``reps`` is ``HomGroup.reps`` as it was, each
generator of a Hom group as a morphism, and ``zero_nat`` is the zero
transformation the package built to close complexes with zero functors.
``biproduct`` is ``direct_sum`` as it was, with the two injections and
the two projections that no package caller read.

``exact_at`` is the oracle's exactness test before it compared Smith
types: image equals kernel inside the middle module, by two-sided
generator membership, with the kernel a preimage lattice.
``sequence_exact`` and ``check_exact_failures`` apply it as the
oracle's ``module_sequence_exact`` and ``check_exact`` did, probe by
probe.  ``add`` is the sum of two matrices or two morphisms, which the
package no longer defines.

``express`` is the package's coset solve before Hom, Nat and w(F)
coordinates were solved against their bases alone: coefficients c with
gens @ c == target modulo the span of rels, one Smith particular
solution of [gens | rels].  ``hom_coords`` is ``HomGroup``'s solve as it
was, on [gen_mat | kron(rels_target, I)] with the relation block cut off.
"""

from cohfun import (
    BaseRing,
    CoherentFunctor,
    FpModule,
    HomGroup,
    Matrix,
    ModMorphism,
    NatMorphism,
    cokernel_mor,
    direct_sum,
    evaluate_nat,
    kernel_mor,
    linalg,
    zero_mor,
)
from cohfun.formats import instance_payload
from cohfun.linalg import SnfResult, _matrix, hstack, kron, solve_matrix, vstack, xgcd


def add(x, y):
    """x + y, for two matrices of one shape or two morphisms with the same ends."""
    if isinstance(x, ModMorphism):
        if x.source != y.source or x.target != y.target:
            raise ValueError("morphism endpoints differ")
        return ModMorphism(x.source, x.target, add(x.mat, y.mat))
    if x.ring != y.ring or (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("matrices differ in ring or shape")
    rows = tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(x.entries, y.entries))
    return Matrix(x.ring, x.rows, x.cols, rows)


def express(gens: Matrix, rels: Matrix, target: Matrix) -> Matrix | None:
    """Coefficients c with gens @ c == target modulo the span of rels, or None."""
    if gens.rows != target.rows or rels.rows != target.rows:
        raise ValueError("incompatible matrices in express")
    z = solve_matrix(hstack(gens, rels), target)
    if z is None:
        return None
    return z.slice_rows(0, gens.cols)


def hom_coords(h: HomGroup, vecs: Matrix) -> Matrix:
    """Coordinates in ``h`` of the vec'd morphism matrices ``vecs``, solved on
    [gen_mat | target relations on vec'd matrices]."""
    ident = Matrix.identity(h.source.ring, h.source.gens)
    z = express(h.gen_mat, kron(h.target.rels, ident), vecs)
    assert z is not None
    return z


def exact_at(mid: FpModule, incoming: Matrix, outgoing: Matrix, next_rels: Matrix) -> bool:
    """image == kernel inside mid, by two-sided generator membership."""
    if not linalg.smith_normal_form(next_rels).contains(outgoing @ incoming):
        return False
    kernel = linalg.preimage_lattice(outgoing, next_rels)
    return linalg.smith_normal_form(hstack(incoming, mid.rels)).contains(kernel)


def sequence_exact(mors: list[ModMorphism]) -> bool:
    """Exactness of a sequence of modules, padded with zero at both ends."""
    zero = FpModule.zero(mors[0].source.ring)
    seq = [zero_mor(zero, mors[0].source), *mors, zero_mor(mors[-1].target, zero)]
    return all(
        exact_at(first.target, first.mat, second.mat, second.target.rels)
        for first, second in zip(seq, seq[1:])
    )


def check_exact_failures(maps: list[NatMorphism], probes) -> list[dict]:
    """The failure payloads of ``check_exact``: every probe evaluated and tested."""
    return [
        {"probe": f"probe[{pi}]={probe.describe()}", "instance": instance_payload(list(maps))}
        for pi, probe in enumerate(probes)
        if not sequence_exact([evaluate_nat(m, probe) for m in maps])
    ]


def is_mono(phi: ModMorphism) -> bool:
    return kernel_mor(phi)[0].is_zero


def is_epi(phi: ModMorphism) -> bool:
    return cokernel_mor(phi)[0].is_zero


def is_iso(phi: ModMorphism) -> bool:
    return is_mono(phi) and is_epi(phi)


def zero_nat(f: CoherentFunctor, g: CoherentFunctor) -> NatMorphism:
    return NatMorphism(
        f,
        g,
        zero_mor(g.source_module, f.source_module),
        zero_mor(g.target_module, f.target_module),
    )


def reps(h: HomGroup) -> tuple[ModMorphism, ...]:
    """Each generator of ``h.group`` as a genuine morphism."""
    ident = Matrix.identity(h.source.ring, h.group.gens)
    return tuple(h.from_coords(ident.col(j)) for j in range(h.group.gens))


def biproduct(
    a: FpModule, b: FpModule
) -> tuple[FpModule, ModMorphism, ModMorphism, ModMorphism, ModMorphism]:
    """``direct_sum(a, b)`` with (inj_a, inj_b, proj_a, proj_b)."""
    ring = a.ring
    s = direct_sum(a, b)
    za = Matrix.zeros(ring, a.gens, b.gens)
    zb = Matrix.zeros(ring, b.gens, a.gens)
    ia, ib = Matrix.identity(ring, a.gens), Matrix.identity(ring, b.gens)
    inj_a = ModMorphism(a, s, vstack(ia, zb))
    inj_b = ModMorphism(b, s, vstack(za, ib))
    proj_a = ModMorphism(s, a, hstack(ia, za))
    proj_b = ModMorphism(s, b, hstack(zb, ib))
    return s, inj_a, inj_b, proj_a, proj_b


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
        inv = _eucdiv(ring, 1, rows[i][j])[0]
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


def _degree(ring: BaseRing, x: int) -> int:
    """Euclidean size function; only compared, never used as a value."""
    if x == 0:
        raise ValueError("degree of zero is undefined")
    return 1 if ring.p is not None else abs(x)


def _eucdiv(ring: BaseRing, a: int, b: int) -> tuple[int, int]:
    """Division a = q*b + r with r == 0, or |r| <= |b|/2 over Z."""
    if b == 0:
        raise ZeroDivisionError("division by zero in base ring")
    if ring.p is not None:
        return a * pow(b, -1, ring.p) % ring.p, 0
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q, r = q + 1, r - b
    return q, r


def _row_addmul(ring: BaseRing, a: list, dst: int, src: int, c: int) -> None:
    row_d, row_s = a[dst], a[src]
    if ring.p is None:
        for k in range(len(row_d)):
            row_d[k] += c * row_s[k]
    else:
        p = ring.p
        for k in range(len(row_d)):
            row_d[k] = (row_d[k] + c * row_s[k]) % p


def _col_addmul(ring: BaseRing, a: list, dst: int, src: int, c: int) -> None:
    if ring.p is None:
        for row in a:
            row[dst] += c * row[src]
    else:
        p = ring.p
        for row in a:
            row[dst] = (row[dst] + c * row[src]) % p


def _row_combine(a: list, r1: int, r2: int, x: int, y: int, z: int, w: int) -> None:
    """(row r1, row r2) <- (x*r1 + y*r2, z*r1 + w*r2); caller keeps det a unit."""
    row1, row2 = a[r1], a[r2]
    for k in range(len(row1)):
        p, q = row1[k], row2[k]
        row1[k] = x * p + y * q
        row2[k] = z * p + w * q


def _col_combine(a: list, c1: int, c2: int, x: int, y: int, z: int, w: int) -> None:
    for row in a:
        p, q = row[c1], row[c2]
        row[c1] = x * p + y * q
        row[c2] = z * p + w * q


def smith_normal_form(m: Matrix) -> SnfResult:
    """Diagonalize m over its ring, returning witnesses u, v as well.

    The reduction runs on the bordered matrix [[m, I_R], [I_C, 0]]:
    pivoting and clearing look only at the top-left R x C block, but
    each row operation acts on a whole one of the first R rows and each
    column operation on a whole one of the first C columns, so the same
    operations build u in the top-right block and v in the bottom-left.

    Each stage picks a minimal-degree pivot and clears its row and
    column with single-shot unimodular 2x2 combines (gcd steps), which
    zero their target exactly instead of looping on remainders; that is
    what keeps intermediate entries from exploding.  The divisibility
    chain is repaired afterwards on the diagonal, where everything is
    small.
    """
    ring = m.ring
    R, C = m.rows, m.cols
    a = [list(row) + [1 if i == j else 0 for j in range(R)] for i, row in enumerate(m.entries)]
    a += [[1 if i == j else 0 for j in range(C)] + [0] * R for i in range(C)]

    rank = 0
    for t in range(min(R, C)):
        piv = None
        best = None
        for i in range(t, R):
            arow = a[i]
            for j in range(t, C):
                x = arow[j]
                if x and (best is None or _degree(ring, x) < best):
                    best = _degree(ring, x)
                    piv = (i, j)
            if best == 1:
                break  # a unit pivot cannot be improved
        if piv is None:
            break
        rank = t + 1
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for row in a:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            for i in range(t + 1, R):
                b = a[i][t]
                if not b:
                    continue
                p0 = a[t][t]
                if ring.is_field or b % p0 == 0:
                    q, _ = _eucdiv(ring, b, p0)
                    _row_addmul(ring, a, i, t, -q)
                else:
                    x, y, g = xgcd(p0, b)
                    _row_combine(a, t, i, x, y, -(b // g), p0 // g)
            col_mixed = False
            for j in range(t + 1, C):
                b = a[t][j]
                if not b:
                    continue
                p0 = a[t][t]
                if ring.is_field or b % p0 == 0:
                    q, _ = _eucdiv(ring, b, p0)
                    _col_addmul(ring, a, j, t, -q)
                else:
                    x, y, g = xgcd(p0, b)
                    _col_combine(a, t, j, x, y, -(b // g), p0 // g)
                    col_mixed = True
            if not col_mixed:
                break
            if all(a[i][t] == 0 for i in range(t + 1, R)):
                break

    if not ring.is_field:
        # divisibility chain on the diagonal: each violating pair
        # (d_i, d_j) becomes (gcd, lcm) via one add, one column gcd
        # step, and one row clean-up
        done = False
        while not done:
            done = True
            for i in range(rank):
                for j in range(i + 1, rank):
                    di, dj = a[i][i], a[j][j]
                    if dj % di == 0:
                        continue
                    done = False
                    _row_addmul(ring, a, i, j, 1)
                    x, y, g = xgcd(di, dj)
                    _col_combine(a, i, j, x, y, -(dj // g), di // g)
                    q = a[j][i] // a[i][i]
                    _row_addmul(ring, a, j, i, -q)

    for i in range(rank):
        c = ring.canonical_scale(a[i][i])
        if c != 1:
            a[i] = [ring.normalize(c * x) for x in a[i]]
    return SnfResult(
        u=_matrix(ring, R, R, tuple(tuple(row[C:]) for row in a[:R])),
        v=_matrix(ring, C, C, tuple(tuple(row[:C]) for row in a[R:])),
        diag=tuple(a[i][i] for i in range(rank)),
    )


def hermite_basis(m: Matrix) -> Matrix:
    """Canonical column basis (Hermite form) of the lattice m's columns span.

    Lower-triangular column echelon with positive pivots and the other
    entries of each pivot row reduced into [0, pivot).  Canonical for
    the lattice itself (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4), so callers get basis-independent, small output,
    and a Hermite form taken on any earlier generators of the same
    lattice would be wasted: take it once, on the generators returned.

    The columns are eliminated as rows with the row helpers of
    ``smith_normal_form``: at each row, the first column holding a
    nonzero entry accumulates the gcd of the entries there.
    """
    ring = m.ring
    n = m.rows
    cols = [list(c) for c in zip(*m.entries) if any(c)]
    result: list[list[int]] = []  # pivot columns, by increasing pivot row
    for i in range(n):
        holders = [c for c in cols if c[i]]
        if not holders:
            continue
        cols = [c for c in cols if not c[i]]
        for k in range(1, len(holders)):
            a, b = holders[0][i], holders[k][i]
            if ring.is_field:
                _row_addmul(ring, holders, k, 0, -_eucdiv(ring, b, a)[0])
            else:
                x, y, g = xgcd(a, b)
                _row_combine(holders, 0, k, x, y, -(b // g), a // g)
            if any(holders[k]):
                cols.append(holders[k])
        scale = ring.canonical_scale(holders[0][i])
        if scale != 1:
            _row_addmul(ring, holders, 0, 0, scale - 1)  # row 0 <- scale * row 0
        result.append(holders[0])
        for j in range(len(result) - 1):
            q = result[j][i] // result[-1][i]
            if q:
                _row_addmul(ring, result, j, -1, -q)
    return _matrix(ring, len(result), n, tuple(map(tuple, result))).transpose()


def preimage_lattice(p: Matrix, q: Matrix) -> Matrix:
    """Generators of the lattice {x : p @ x lies in the column span of q}.

    The raw Smith kernel columns of [p | -q] are projected onto the x
    block, and the projection is put in Hermite form once.  Hermite form
    is canonical for the lattice, so taking it on the whole kernel first
    could not change the answer.  With q of no columns it is the kernel
    of p.
    """
    if p.ring != q.ring or p.rows != q.rows:
        raise ValueError("incompatible matrices in preimage_lattice")
    snf = smith_normal_form(hstack(p, -q))
    return hermite_basis(snf.v.slice_rows(0, p.cols).slice_cols(len(snf.diag), snf.v.cols))

