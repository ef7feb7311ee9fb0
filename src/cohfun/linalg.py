"""Exact linear algebra over the integers and over prime fields.

Everything in the higher layers (module presentations, Hom groups, the
functor calculus) reduces to a handful of primitives implemented here:
Smith normal form with invertible transformation witnesses, exact
solving, Hermite bases and substitution in them, preimage lattices.  All
arithmetic is arbitrary precision; Smith reduction is prone to
intermediate coefficient growth, so fixed-width integers would be a
correctness bug, not a performance tweak.

One elimination routine serves Smith forms, preimage lattices and
Smith types, and it carries only the witness rows its caller reads: all
of u and v for ``smith_normal_form``, the kernel rows of v alone for
``preimage_lattice``, none for ``rank_and_divisor``.  The first two
are memoized per argument, and matrices cache their hash, so a
repeated call costs one lookup.

Conventions shared by the whole package:

* matrices are immutable values that carry their ring;
* matrices are checked where they enter, by the public constructors;
  results built inside this module skip the check, because their shape
  and entry range hold by construction;
* entries over F_p are stored reduced to [0, p); entries over Z are
  stored as they are, never normalized;
* zero-sized matrices (0 x n, n x 0, 0 x 0) are ordinary values;
* flattening is row-major, so vec(A @ X @ B) == kron(A, B.T) @ vec(X).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BaseRing:
    """The coefficient ring: the integers (p is None) or a prime field F_p."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not 2 <= self.p < 2 ** 16:
                raise ValueError(f"prime modulus out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"modulus {self.p} is not prime")

    @staticmethod
    def integers() -> "BaseRing":
        return BaseRing(None)

    @staticmethod
    def prime_field(p: int) -> "BaseRing":
        return BaseRing(p)

    @property
    def is_field(self) -> bool:
        return self.p is not None

    def normalize(self, x: int) -> int:
        return x % self.p if self.p is not None else x

    def is_unit(self, x: int) -> bool:
        if self.p is not None:
            return x % self.p != 0
        return x in (1, -1)

    def canonical_scale(self, x: int) -> int:
        """Unit u such that u*x is canonical (positive over Z, 1 over F_p)."""
        if x == 0:
            raise ValueError("zero has no canonical scale")
        if self.p is not None:
            return pow(x, -1, self.p)
        return -1 if x < 0 else 1

    def __str__(self) -> str:
        return "Z" if self.p is None else f"F{self.p}"


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable rectangular matrix with entries in a BaseRing.

    ``entries`` is a row-major tuple of row tuples; the row and column
    counts are explicit so that 0 x n and n x 0 matrices are honest
    values (presentations of free modules need them).  Constructing one
    checks the shape and reduces F_p entries; the results of operations
    in this module are built by ``_matrix`` instead, without the check.
    """

    ring: BaseRing
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    # the hash of the four fields above, taken on first use: matrices key
    # the module caches, and hashing walks every entry
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        cols = self.cols
        if any(len(row) != cols for row in self.entries):
            raise ValueError("ragged matrix rows")
        p = self.ring.p
        if p is not None and cols and any(
            min(row) < 0 or max(row) >= p for row in self.entries
        ):
            object.__setattr__(
                self, "entries", tuple(tuple(x % p for x in row) for row in self.entries)
            )

    @staticmethod
    def from_rows(ring: BaseRing, data, cols: int | None = None) -> "Matrix":
        rows = len(data)
        if rows == 0:
            if cols is None:
                cols = 0
        else:
            cols = len(data[0])
        return Matrix(ring, rows, cols, tuple(tuple(int(x) for x in row) for row in data))

    @staticmethod
    def zeros(ring: BaseRing, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return _matrix(ring, rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    @functools.cache
    def identity(ring: BaseRing, n: int) -> "Matrix":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return _matrix(
            ring, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def column(ring: BaseRing, data) -> "Matrix":
        return Matrix(ring, len(data), 1, tuple((int(x),) for x in data))

    @staticmethod
    def diagonal(ring: BaseRing, diag, rows: int | None = None, cols: int | None = None) -> "Matrix":
        diag = list(diag)
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        return Matrix(
            ring,
            rows,
            cols,
            tuple(
                tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols))
                for i in range(rows)
            ),
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        p = self.ring.p
        ocols = range(other.cols)
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    orow = other.entries[k]
                    for j in ocols:
                        acc[j] += a * orow[j]
            out.append(tuple(acc) if p is None else tuple(x % p for x in acc))
        return _matrix(self.ring, self.rows, other.cols, tuple(out))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        p = self.ring.p
        pairs = zip(self.entries, other.entries)
        if p is None:
            rows = tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in pairs)
        else:
            rows = tuple(tuple((a - b) % p for a, b in zip(r1, r2)) for r1, r2 in pairs)
        return _matrix(self.ring, self.rows, self.cols, rows)

    def __neg__(self) -> "Matrix":
        p = self.ring.p
        rows = (tuple(-a for a in row) for row in self.entries)
        if p is not None:
            rows = (tuple(x % p for x in row) for row in rows)
        return _matrix(self.ring, self.rows, self.cols, tuple(rows))

    def transpose(self) -> "Matrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return _matrix(self.ring, self.cols, self.rows, entries)

    def col(self, j: int) -> "Matrix":
        _check_range(j, j + 1, self.cols)
        return _matrix(self.ring, self.rows, 1, tuple((row[j],) for row in self.entries))

    def slice_rows(self, start: int, stop: int) -> "Matrix":
        _check_range(start, stop, self.rows)
        return _matrix(self.ring, stop - start, self.cols, self.entries[start:stop])

    def slice_cols(self, start: int, stop: int) -> "Matrix":
        _check_range(start, stop, self.cols)
        entries = tuple(row[start:stop] for row in self.entries)
        return _matrix(self.ring, self.rows, stop - start, entries)

    def _same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _matrix(ring: BaseRing, rows: int, cols: int, entries: tuple) -> Matrix:
    """A Matrix whose shape and F_p range hold by construction, built without checks."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "ring", ring)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)
    object.__setattr__(m, "_hash", None)
    return m


def _check_range(start: int, stop: int, n: int) -> None:
    if not 0 <= start <= stop <= n:
        raise ValueError(f"index range {start}:{stop} outside 0:{n}")


def hstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats:
        if m.ring != ring or m.rows != rows:
            raise ValueError("hstack: incompatible matrices")
    entries = tuple(sum(parts, ()) for parts in zip(*(m.entries for m in mats)))
    return _matrix(ring, rows, sum(m.cols for m in mats), entries)


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    ring, cols = mats[0].ring, mats[0].cols
    for m in mats:
        if m.ring != ring or m.cols != cols:
            raise ValueError("vstack: incompatible matrices")
    return _matrix(ring, sum(m.rows for m in mats), cols, sum((m.entries for m in mats), ()))


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    top = hstack(a, Matrix.zeros(a.ring, a.rows, b.cols))
    bot = hstack(Matrix.zeros(a.ring, b.rows, a.cols), b)
    return vstack(top, bot)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; pairs with row-major vec: vec(AXB) = kron(A, B.T) vec(X)."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch in kron")
    p = a.ring.p
    rows = []
    for arow in a.entries:
        for brow in b.entries:
            if p is None:
                rows.append(tuple([x * y for x in arow for y in brow]))
            else:
                rows.append(tuple([x * y % p for x in arow for y in brow]))
    return _matrix(a.ring, a.rows * b.rows, a.cols * b.cols, tuple(rows))


def vec(m: Matrix) -> Matrix:
    """Row-major flattening of a matrix into a single column."""
    return _matrix(m.ring, m.rows * m.cols, 1, tuple((x,) for row in m.entries for x in row))


def unvec(column: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of vec: the rows x cols matrix whose row-major flattening is column."""
    if min(rows, cols) < 0 or column.cols != 1 or column.rows != rows * cols:
        raise ValueError("unvec: wrong column length")
    flat = tuple(row[0] for row in column.entries)
    entries = tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))
    return _matrix(column.ring, rows, cols, entries)


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition with unimodular u, v, and the solver for m.

    ``u @ m @ v`` is the diagonal matrix of ``diag``, of m's shape.
    ``diag`` lists the nonzero diagonal entries d_1 | d_2 | ... in
    canonical form (positive over Z, 1 over a prime field).

    m @ x == b is solvable exactly when c = u @ b vanishes below the
    rank and each d_i divides row i of c; then v[:, :r] @ (c[:r] / d)
    is a solution.  ``contains`` asks only the first question.
    """

    u: Matrix
    v: Matrix
    diag: tuple[int, ...]

    @functools.cached_property
    def _v_image(self) -> Matrix:
        return self.v.slice_cols(0, len(self.diag))

    @functools.cached_property
    def _spans_everything(self) -> bool:
        """m's columns span every vector: one diagonal entry per row, each 1."""
        return len(self.diag) == self.u.rows and all(d == 1 for d in self.diag)

    def _reduced(self, b: Matrix) -> tuple[tuple[int, ...], ...] | None:
        """Rows of y with diag(d) @ y == (u @ b)[:r], or None if m x == b has no solution."""
        c = self.u @ b
        r = len(self.diag)
        if any(any(row) for row in c.entries[r:]):
            return None
        # over F_p every d is 1, so y is the first r rows of u @ b there
        y = []
        for d, row in zip(self.diag, c.entries):
            if d != 1:
                if any(x % d for x in row):
                    return None
                row = tuple(x // d for x in row)
            y.append(row)
        return tuple(y)

    def contains(self, b: Matrix) -> bool:
        """True when every column of b lies in the column span of m.

        With b of no columns, or m's columns spanning every vector, the
        answer is known without forming u @ b.
        """
        if b.ring != self.u.ring or b.rows != self.u.rows:
            raise ValueError("matrix does not match in membership test")
        if not b.cols or self._spans_everything:
            return True
        return self._reduced(b) is not None

    def solve(self, b: Matrix) -> Matrix | None:
        """Particular solution x of m @ x == b, or None if none exists."""
        y = self._reduced(b)
        if y is None:
            return None
        v = self._v_image
        return v @ _matrix(v.ring, v.cols, b.cols, y)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Bezout data x*a + y*b == g with g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _col_combine(a: list, c1: int, c2: int, x: int, y: int, z: int, w: int) -> None:
    """(col c1, col c2) <- (x*c1 + y*c2, z*c1 + w*c2) over Z; rows zero in both stay."""
    for row in a:
        p, q = row[c1], row[c2]
        if p or q:
            row[c1] = x * p + y * q
            row[c2] = z * p + w * q


def _eliminate(
    p: int | None, a: list[list[int]], C: int, carry_u: bool, v_rows: int
) -> tuple[list[list[int]], int]:
    """Diagonalize an R x C matrix by unimodular row and column operations.

    a is the matrix as the caller's own list of rows, over F_p for a
    prime p and over Z for p None.  It is reduced in place and returned
    with the rank.  Its first R rows then hold the reduced matrix, each
    followed by its row of u when ``carry_u``; the next ``v_rows`` rows
    are the first rows of v.  This is the bordered
    matrix [[m, I_R], [I_C, 0]] of ``smith_normal_form`` with the
    witness rows and columns nobody reads left out: row operations act
    on the first R rows alone and column operations on the first C
    columns alone, so no kept entry depends on a dropped one.

    Each stage picks a pivot of least |x| (over F_p: the first nonzero)
    and clears its row and column with single-shot unimodular 2x2
    combines (gcd steps), which zero their target exactly instead of
    looping on remainders; that is what keeps intermediate entries from
    exploding.  A column operation skips the rows where the entries it
    reads are zero, which changes nothing: over F_p every entry is
    already reduced.
    """
    R = len(a)
    if carry_u:
        zeros = [0] * R
        for i, row in enumerate(a):
            row += zeros
            row[C + i] = 1
    vrows = []
    for i in range(v_rows):
        row = [0] * C
        row[i] = 1
        vrows.append(row)
    a += vrows

    rank = 0
    for t in range(min(R, C)):
        pi = pj = -1
        if p is None:
            best = 0
            for i in range(t, R):
                row = a[i]
                for j in range(t, C):
                    x = row[j]
                    if x:
                        if x < 0:
                            x = -x
                        if not best or x < best:
                            best, pi, pj = x, i, j
                            if x == 1:
                                break  # a unit pivot cannot be improved
                if best == 1:
                    break
        else:
            for i in range(t, R):
                row = a[i]
                for j in range(t, C):
                    if row[j]:
                        pi, pj = i, j
                        break
                if pi >= 0:
                    break
        if pi < 0:
            break
        rank = t + 1
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]

        if p is not None:
            # over a field the pivot row and column never change, and
            # one pass clears both
            rt = a[t]
            inv = pow(rt[t], -1, p)
            for i in range(t + 1, R):
                ri = a[i]
                if ri[t]:
                    q = ri[t] * inv % p
                    a[i] = [(x - q * y) % p for x, y in zip(ri, rt)]
            # every top row but row t is zero in column t now, so a column
            # operation zeroes entry j of row t and acts on v alone
            for j in range(t + 1, C):
                if rt[j]:
                    q = rt[j] * inv % p
                    rt[j] = 0
                    for row in vrows:
                        y = row[t]
                        if y:
                            row[j] = (row[j] - q * y) % p
            continue

        while True:
            for i in range(t + 1, R):
                ri = a[i]
                b = ri[t]
                if not b:
                    continue
                rt = a[t]
                p0 = rt[t]
                if b % p0 == 0:
                    q = b // p0
                    a[i] = [x - q * y for x, y in zip(ri, rt)]
                else:
                    x, y, g = xgcd(p0, b)
                    z, w = -(b // g), p0 // g
                    a[t] = [x * c1 + y * c2 for c1, c2 in zip(rt, ri)]
                    a[i] = [z * c1 + w * c2 for c1, c2 in zip(rt, ri)]
            col_mixed = False
            rt = a[t]
            for j in range(t + 1, C):
                b = rt[j]
                if not b:
                    continue
                p0 = rt[t]
                if b % p0 == 0:
                    q = b // p0
                    if col_mixed:
                        rows = a
                    else:
                        # no combine yet in this pass: as over a field
                        rt[j] = 0
                        rows = vrows
                    for row in rows:
                        y = row[t]
                        if y:
                            row[j] -= q * y
                else:
                    x, y, g = xgcd(p0, b)
                    _col_combine(a, t, j, x, y, -(b // g), p0 // g)
                    col_mixed = True
            if not col_mixed:
                break
            if all(a[i][t] == 0 for i in range(t + 1, R)):
                break
    return a, rank


@functools.lru_cache(maxsize=None)
def smith_normal_form(m: Matrix) -> SnfResult:
    """Diagonalize m over its ring, returning witnesses u, v as well.

    ``_eliminate`` carries all of u and v.  The divisibility chain is
    repaired afterwards on the diagonal, where everything is small, and
    each pivot row is scaled to a canonical diagonal entry.  Neither
    step touches a column of v past the rank.
    """
    ring = m.ring
    p = ring.p
    R, C = m.rows, m.cols
    a, rank = _eliminate(p, [list(row) for row in m.entries], C, carry_u=True, v_rows=C)

    if p is None:
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
                    a[i] = [x + y for x, y in zip(a[i], a[j])]
                    x, y, g = xgcd(di, dj)
                    _col_combine(a, i, j, x, y, -(dj // g), di // g)
                    q = a[j][i] // a[i][i]
                    a[j] = [x - q * y for x, y in zip(a[j], a[i])]

    for i in range(rank):
        c = ring.canonical_scale(a[i][i])
        if c != 1:
            a[i] = [-x for x in a[i]] if p is None else [c * x % p for x in a[i]]
    return SnfResult(
        u=_matrix(ring, R, R, tuple(tuple(row[C:]) for row in a[:R])),
        v=_matrix(ring, C, C, tuple(map(tuple, a[R:]))),
        diag=tuple(a[i][i] for i in range(rank)),
    )


def rank_and_divisor(m: Matrix) -> tuple[int, int]:
    """The rank r of m and |d_1 * ... * d_r|, the product of its Smith diagonal.

    The product is Smith's determinantal divisor D_r, the gcd of the
    r x r minors, and the order of the torsion of coker m; over F_p it is
    1.  ``_eliminate`` runs with no witness rows, and its diagonal is
    read without the divisibility repair: any diagonal matrix equivalent
    to m has D_r as the product of its entries, up to sign.
    """
    a, rank = _eliminate(
        m.ring.p, [list(row) for row in m.entries], m.cols, carry_u=False, v_rows=0
    )
    if m.ring.is_field:
        return rank, 1
    return rank, abs(math.prod(a[t][t] for t in range(rank)))


def hermite_basis(m: Matrix) -> Matrix:
    """Canonical column basis (Hermite form) of the lattice m's columns span.

    Lower-triangular column echelon with positive pivots and the other
    entries of each pivot row reduced into [0, pivot).  Canonical for
    the lattice itself (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4), so callers get basis-independent, small output,
    and a Hermite form taken on any earlier generators of the same
    lattice would be wasted: take it once, on the generators returned.

    The columns are eliminated as rows: at each row, the first column
    holding a nonzero entry accumulates the gcd of the entries there.
    """
    ring = m.ring
    p = ring.p
    n = m.rows
    cols = [list(c) for c in zip(*m.entries) if any(c)]
    result: list[list[int]] = []  # pivot columns, by increasing pivot row
    for i in range(n):
        holders = [c for c in cols if c[i]]
        if not holders:
            continue
        cols = [c for c in cols if not c[i]]
        head = holders[0]
        if p is None:
            for other in holders[1:]:
                a, b = head[i], other[i]
                x, y, g = xgcd(a, b)
                z, w = -(b // g), a // g
                if y:
                    head, other = (
                        [x * c1 + y * c2 for c1, c2 in zip(head, other)],
                        [z * c1 + w * c2 for c1, c2 in zip(head, other)],
                    )
                else:
                    # a divides b: head is kept (times x, a unit)
                    other = [z * c1 + w * c2 for c1, c2 in zip(head, other)]
                    if x != 1:
                        head = [x * c for c in head]
                if any(other):
                    cols.append(other)
        else:
            inv = pow(head[i], -1, p)
            for other in holders[1:]:
                q = other[i] * inv % p
                other = [(x - q * y) % p for x, y in zip(other, head)]
                if any(other):
                    cols.append(other)
        scale = ring.canonical_scale(head[i])
        if scale != 1:
            head = [-x for x in head] if p is None else [scale * x % p for x in head]
        for j, prev in enumerate(result):
            q = prev[i] // head[i]
            if q:
                if p is None:
                    result[j] = [x - q * y for x, y in zip(prev, head)]
                else:
                    result[j] = [(x - q * y) % p for x, y in zip(prev, head)]
        result.append(head)
    return _matrix(ring, n, len(result), tuple(zip(*result)) if result else ((),) * n)


def hermite_solve(h: Matrix, b: Matrix) -> Matrix | None:
    """The unique X with h @ X == b for h in column echelon form, or None.

    Echelon, as a ``hermite_basis`` result is: each column's first nonzero
    entry, its pivot, lies below the previous column's.  X is read by
    substitution, one row of h at a time (Cohen 2.4).
    """
    if h.ring != b.ring or h.rows != b.rows:
        raise ValueError("ring or row mismatch in hermite_solve")
    p, cols, j, echelon = h.ring.p, h.cols, 0, True
    for row in h.entries:  # j counts the pivots above this row
        echelon = echelon and not any(row[j + 1:])
        if j < cols and row[j]:
            j += 1
    if not echelon or j < cols:
        raise ValueError("hermite_solve needs a column echelon matrix")
    x: list[tuple[int, ...]] = []  # over F_p, residues are reduced only where read
    for row, res in zip(h.entries, b.entries):
        for c, xk in zip(row, x):
            if c:
                res = [u - c * v for u, v in zip(res, xk)]
        d = row[len(x)] if len(x) < cols else 0
        if not d and any(h.ring.normalize(v) for v in res):
            return None  # a row holding no pivot must be left with no residue
        if p is None and d and any(v % d for v in res):
            return None  # the pivot does not divide the residue
        if d:
            x.append(tuple(v // d if p is None else v * pow(d, -1, p) % p for v in res))
    return _matrix(h.ring, cols, b.cols, tuple(x))


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """Particular solution X of m @ X == b, or None if none exists."""
    if m.ring != b.ring:
        raise ValueError("ring mismatch in solve")
    if m.rows != b.rows:
        raise ValueError("row mismatch in solve")
    return smith_normal_form(m).solve(b)


@functools.lru_cache(maxsize=None)
def preimage_lattice(p: Matrix, q: Matrix) -> Matrix:
    """Generators of the lattice {x : p @ x lies in the column span of q}.

    [p | -q] is eliminated carrying only the first p.cols rows of v, and
    no u: the kernel columns of v (those past the rank), cut to those
    rows, project the kernel of [p | -q] onto the x block.  The
    projection is put in Hermite form once.  Hermite form is canonical
    for the lattice, so taking it on the whole kernel first could not
    change the answer.  The result is memoized per (p, q).  With q of no
    columns it is the kernel of p.
    """
    if p.ring != q.ring or p.rows != q.rows:
        raise ValueError("incompatible matrices in preimage_lattice")
    mod = p.ring.p
    if mod is None:
        a = [list(x) + [-y for y in z] for x, z in zip(p.entries, q.entries)]
    else:
        a = [list(x) + [-y % mod for y in z] for x, z in zip(p.entries, q.entries)]
    a, rank = _eliminate(mod, a, p.cols + q.cols, carry_u=False, v_rows=p.cols)
    kernel = tuple(tuple(row[rank:]) for row in a[p.rows:])
    return hermite_basis(_matrix(p.ring, p.cols, p.cols + q.cols - rank, kernel))
