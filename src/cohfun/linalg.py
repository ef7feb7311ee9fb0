"""Exact linear algebra over the integers and over prime fields.

Everything in the higher layers (module presentations, Hom groups, the
functor calculus) reduces to a handful of primitives implemented here:
Smith normal form with invertible transformation witnesses, exact
solving of linear systems, kernel bases, and preimage lattices.  All
arithmetic is arbitrary precision; Smith reduction is prone to
intermediate coefficient growth, so fixed-width integers would be a
correctness bug, not a performance tweak.

Conventions shared by the whole package:

* matrices are immutable values that carry their ring;
* entries over F_p are stored reduced to [0, p); entries over Z are
  stored as they are, never normalized;
* zero-sized matrices (0 x n, n x 0, 0 x 0) are ordinary values;
* flattening is row-major, so vec(A @ X @ B) == kron(A, B.T) @ vec(X).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


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

    def degree(self, x: int) -> int:
        """Euclidean size function; only compared, never used as a value."""
        if x == 0:
            raise ValueError("degree of zero is undefined")
        return 1 if self.p is not None else abs(x)

    def eucdiv(self, a: int, b: int) -> tuple[int, int]:
        """Division a = q*b + r with r == 0 or degree(r) < degree(b).

        Over the integers the remainder is symmetric (|r| <= |b|/2),
        which keeps pivoting coefficients small.
        """
        if b == 0:
            raise ZeroDivisionError("division by zero in base ring")
        if self.p is not None:
            return a * pow(b, -1, self.p) % self.p, 0
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q, r = q + 1, r - b
        return q, r

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


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix with entries in a BaseRing.

    ``entries`` is a row-major tuple of row tuples; the row and column
    counts are explicit so that 0 x n and n x 0 matrices are honest
    values (presentations of free modules need them).
    """

    ring: BaseRing
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

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
        return Matrix(ring, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(ring: BaseRing, n: int) -> "Matrix":
        return Matrix(
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
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        norm = self.ring.normalize
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(
                tuple(norm(a + b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        norm = self.ring.normalize
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(tuple(norm(-a) for a in row) for row in self.entries),
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ring,
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def col(self, j: int) -> "Matrix":
        return Matrix(self.ring, self.rows, 1, tuple((row[j],) for row in self.entries))

    def slice_rows(self, start: int, stop: int) -> "Matrix":
        return Matrix(self.ring, stop - start, self.cols, self.entries[start:stop])

    def slice_cols(self, start: int, stop: int) -> "Matrix":
        return Matrix(
            self.ring,
            self.rows,
            stop - start,
            tuple(row[start:stop] for row in self.entries),
        )

    def _same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def hstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats:
        if m.ring != ring or m.rows != rows:
            raise ValueError("hstack: incompatible matrices")
    return Matrix(
        ring,
        rows,
        sum(m.cols for m in mats),
        tuple(sum((m.entries[i] for m in mats), ()) for i in range(rows)),
    )


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    ring, cols = mats[0].ring, mats[0].cols
    for m in mats:
        if m.ring != ring or m.cols != cols:
            raise ValueError("vstack: incompatible matrices")
    return Matrix(ring, sum(m.rows for m in mats), cols, sum((m.entries for m in mats), ()))


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
                rows.append(tuple(x * y for x in arow for y in brow))
            else:
                rows.append(tuple(x * y % p for x in arow for y in brow))
    return Matrix(a.ring, a.rows * b.rows, a.cols * b.cols, tuple(rows))


def vec(m: Matrix) -> Matrix:
    """Row-major flattening of a matrix into a single column."""
    return Matrix(
        m.ring, m.rows * m.cols, 1, tuple((x,) for row in m.entries for x in row)
    )


def unvec(ring: BaseRing, column: Matrix, rows: int, cols: int) -> Matrix:
    if column.cols != 1 or column.rows != rows * cols:
        raise ValueError("unvec: wrong column length")
    flat = [row[0] for row in column.entries]
    return Matrix(
        ring, rows, cols, tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows))
    )


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition u @ m @ v == s with unimodular u, v.

    ``diag`` lists the nonzero diagonal entries d_1 | d_2 | ... in
    canonical form (positive over Z, 1 over a prime field).
    """

    s: Matrix
    u: Matrix
    v: Matrix
    diag: tuple[int, ...]


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


def _swap_rows(a: list, i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list, i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


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


def _row_scale(ring: BaseRing, a: list, i: int, c: int) -> None:
    norm = ring.normalize
    a[i] = [norm(c * x) for x in a[i]]


@functools.lru_cache(maxsize=None)
def smith_normal_form(m: Matrix) -> SnfResult:
    """Diagonalize m over its ring, returning witnesses u, v as well.

    Each stage picks a minimal-degree pivot and clears its row and
    column with single-shot unimodular 2x2 combines (gcd steps), which
    zero their target exactly instead of looping on remainders; that is
    what keeps intermediate entries from exploding.  The divisibility
    chain is repaired afterwards on the diagonal, where everything is
    small.
    """
    ring = m.ring
    R, C = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    limit = min(R, C)
    rank = 0
    for t in range(limit):
        piv = None
        best = None
        for i in range(t, R):
            arow = a[i]
            for j in range(t, C):
                x = arow[j]
                if x and (best is None or ring.degree(x) < best):
                    best = ring.degree(x)
                    piv = (i, j)
            if best == 1:
                break  # a unit pivot cannot be improved
        if piv is None:
            break
        rank = t + 1
        if piv[0] != t:
            _swap_rows(a, t, piv[0])
            _swap_rows(u, t, piv[0])
        if piv[1] != t:
            _swap_cols(a, t, piv[1])
            _swap_cols(v, t, piv[1])
        while True:
            for i in range(t + 1, R):
                b = a[i][t]
                if not b:
                    continue
                p0 = a[t][t]
                if ring.is_field or b % p0 == 0:
                    q, _ = ring.eucdiv(b, p0)
                    _row_addmul(ring, a, i, t, -q)
                    _row_addmul(ring, u, i, t, -q)
                else:
                    x, y, g = xgcd(p0, b)
                    _row_combine(a, t, i, x, y, -(b // g), p0 // g)
                    _row_combine(u, t, i, x, y, -(b // g), p0 // g)
            col_mixed = False
            for j in range(t + 1, C):
                b = a[t][j]
                if not b:
                    continue
                p0 = a[t][t]
                if ring.is_field or b % p0 == 0:
                    q, _ = ring.eucdiv(b, p0)
                    _col_addmul(ring, a, j, t, -q)
                    _col_addmul(ring, v, j, t, -q)
                else:
                    x, y, g = xgcd(p0, b)
                    _col_combine(a, t, j, x, y, -(b // g), p0 // g)
                    _col_combine(v, t, j, x, y, -(b // g), p0 // g)
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
                    _row_addmul(ring, u, i, j, 1)
                    x, y, g = xgcd(di, dj)
                    _col_combine(a, i, j, x, y, -(dj // g), di // g)
                    _col_combine(v, i, j, x, y, -(dj // g), di // g)
                    q = a[j][i] // a[i][i]
                    _row_addmul(ring, a, j, i, -q)
                    _row_addmul(ring, u, j, i, -q)

    for i in range(rank):
        x = a[i][i]
        if x:
            c = ring.canonical_scale(x)
            if c != 1:
                _row_scale(ring, a, i, c)
                _row_scale(ring, u, i, c)
    diag = tuple(a[i][i] for i in range(limit) if a[i][i])

    s = Matrix(ring, R, C, tuple(tuple(row) for row in a))
    return SnfResult(
        s=s,
        u=Matrix(ring, R, R, tuple(tuple(row) for row in u)),
        v=Matrix(ring, C, C, tuple(tuple(row) for row in v)),
        diag=diag,
    )


def hermite_basis(m: Matrix) -> Matrix:
    """Canonical column basis (Hermite form) of the lattice m's columns span.

    Lower-triangular column echelon with positive pivots and the other
    entries of each pivot row reduced into [0, pivot).  Canonical for
    the lattice itself, so callers get basis-independent, small output.
    """
    ring = m.ring
    n = m.rows
    cols = [
        [m.entries[i][j] for i in range(n)]
        for j in range(m.cols)
        if any(m.entries[i][j] for i in range(n))
    ]
    result: list[tuple[int, list[int]]] = []  # (pivot row, column)
    for i in range(n):
        holders = [c for c in cols if c[i] != 0]
        if not holders:
            continue
        acc = holders[0]
        cols.remove(acc)
        for c in holders[1:]:
            cols.remove(c)
            if ring.is_field:
                p = ring.p
                f = c[i] * pow(acc[i], -1, p) % p
                newc = [(cv - f * av) % p for av, cv in zip(acc, c)]
            else:
                x, y, g = xgcd(acc[i], c[i])
                newacc = [x * av + y * cv for av, cv in zip(acc, c)]
                newc = [
                    (acc[i] // g) * cv - (c[i] // g) * av for av, cv in zip(acc, c)
                ]
                acc = newacc
            if any(newc):
                cols.append(newc)
        scale = ring.canonical_scale(acc[i])
        if scale != 1:
            acc = [ring.normalize(scale * x) for x in acc]
        for _, prev in result:
            q = prev[i] // acc[i] if not ring.is_field else prev[i] * pow(acc[i], -1, ring.p) % ring.p
            if q:
                for k in range(n):
                    prev[k] = ring.normalize(prev[k] - q * acc[k])
        result.append((i, acc))
    return Matrix(
        ring,
        n,
        len(result),
        tuple(tuple(col[i] for _, col in result) for i in range(n)),
    )


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of {x : m @ x == 0}, one column per basis vector."""
    snf = smith_normal_form(m)
    r = len(snf.diag)
    basis = snf.v.slice_cols(r, m.cols)
    return hermite_basis(basis)


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """Particular solution X of m @ X == b, or None if none exists."""
    if m.ring != b.ring:
        raise ValueError("ring mismatch in solve")
    if m.rows != b.rows:
        raise ValueError("row mismatch in solve")
    snf = smith_normal_form(m)
    r = len(snf.diag)
    c = snf.u @ b
    out_cols = []
    for j in range(b.cols):
        y = [0] * m.cols
        for i in range(m.rows):
            ci = c.entries[i][j]
            if i < r:
                d = snf.diag[i]
                if m.ring.is_field:
                    y[i] = ci * pow(d, -1, m.ring.p) % m.ring.p
                else:
                    q, rem = divmod(ci, d)
                    if rem:
                        return None
                    y[i] = q
            elif ci:
                return None
        out_cols.append(y)
    ycols = Matrix(
        m.ring, m.cols, b.cols, tuple(tuple(out_cols[j][i] for j in range(b.cols)) for i in range(m.cols))
    )
    return snf.v @ ycols


def solve_linear(m: Matrix, b: Matrix) -> tuple[Matrix, Matrix] | None:
    """Solve m @ x == b for a single column b.

    Returns (particular solution, homogeneous basis) where the basis
    columns generate the full solution lattice of m @ x == 0, or None
    when b is not in the column span over the ring.
    """
    if b.cols != 1:
        raise ValueError("solve_linear expects a single column")
    x = solve_matrix(m, b)
    if x is None:
        return None
    return x, kernel_basis(m)


def preimage_lattice(p: Matrix, q: Matrix) -> Matrix:
    """Generators of the lattice {x : p @ x lies in the column span of q}.

    Computed by projecting the kernel of [p | -q] onto the x block.
    The columns generate (they need not be independent).
    """
    if p.ring != q.ring or p.rows != q.rows:
        raise ValueError("incompatible matrices in preimage_lattice")
    k = kernel_basis(hstack(p, -q))
    return hermite_basis(k.slice_rows(0, p.cols))


def express(gens: Matrix, rels: Matrix, target: Matrix) -> Matrix | None:
    """Coefficients c with gens @ c == target modulo the span of rels.

    Returns one choice of c (columns match target's), or None when the
    target is not in the generated subgroup.
    """
    if gens.rows != target.rows or rels.rows != target.rows:
        raise ValueError("incompatible matrices in express")
    z = solve_matrix(hstack(gens, rels), target)
    if z is None:
        return None
    return z.slice_rows(0, gens.cols)


def det(m: Matrix) -> int:
    """Exact determinant (Bareiss over Z, Gaussian elimination over F_p)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1 if m.ring.p is None else 1 % m.ring.p
    a = [list(row) for row in m.entries]
    if m.ring.is_field:
        p = m.ring.p
        sign = 1
        result = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] % p), None)
            if piv is None:
                return 0
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            result = result * a[k][k] % p
            inv = pow(a[k][k], -1, p)
            for i in range(k + 1, n):
                f = a[i][k] * inv % p
                if f:
                    for j in range(k, n):
                        a[i][j] = (a[i][j] - f * a[k][j]) % p
        return sign * result % p
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
