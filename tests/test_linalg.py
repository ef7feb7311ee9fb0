import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfun import linalg
from cohfun.linalg import (
    BaseRing,
    Matrix,
    hermite_basis,
    hermite_solve,
    hstack,
    kron,
    preimage_lattice,
    rank_and_divisor,
    smith_normal_form,
    solve_matrix,
    unvec,
    vec,
    vstack,
    xgcd,
)
from cohfun.modules import FpModule
from cohfun.oracle import det
import reference

Z = BaseRing.integers()
F5 = BaseRing.prime_field(5)


def rand_matrix(rng, ring, max_dim=6, lo=-9, hi=9):
    r, c = rng.randrange(0, max_dim + 1), rng.randrange(0, max_dim + 1)
    return Matrix.from_rows(
        ring, [[rng.randrange(lo, hi + 1) for _ in range(c)] for _ in range(r)], cols=c
    )


def smith_form(m, res):
    """The diagonal matrix of res.diag, of m's shape: what u @ m @ v must equal."""
    return Matrix.diagonal(m.ring, res.diag, m.rows, m.cols)


class TestRing:
    def test_prime_field_rejects_composites(self):
        with pytest.raises(ValueError):
            BaseRing.prime_field(6)
        with pytest.raises(ValueError):
            BaseRing.prime_field(1)
        BaseRing.prime_field(2)


class TestSmith:
    def test_diag_2_3(self):
        m = Matrix.from_rows(Z, [[2, 0], [0, 3]])
        res = smith_normal_form(m)
        assert res.diag == (1, 6)
        assert res.u @ m @ res.v == smith_form(m, res)

    @pytest.mark.parametrize(
        "ring, rows, cols, u, v, diag",
        [
            # the divisibility repair turns (2, 3) into (1, 6)
            (Z, [[2, 0], [0, 3]], 2, [[1, 1], [-3, -2]], [[-1, -3], [1, 2]], (1, 6)),
            # 3 is not a multiple of the pivot 2: a column gcd step
            (Z, [[2, 3], [4, 5]], 2, [[1, 0], [1, -1]], [[-1, -3], [1, 2]], (1, 2)),
            (
                Z,
                [[6, 4, 10], [3, 8, 2]],
                3,
                [[0, 1], [-1, -4]],
                [[1, 2, -4], [0, 0, 1], [-1, -3, 2]],
                (1, 18),
            ),
            (
                F5,
                [[2, 4], [3, 1], [1, 3]],
                2,
                [[3, 0, 0], [2, 0, 1], [1, 1, 0]],
                [[1, 3], [0, 1]],
                (1, 1),
            ),
            (Z, [], 3, [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ()),
        ],
    )
    def test_witnesses_pinned(self, ring, rows, cols, u, v, diag):
        m = Matrix.from_rows(ring, rows, cols=cols)
        res = smith_normal_form(m)
        assert (res.u.to_lists(), res.v.to_lists(), res.diag) == (u, v, diag)

    def test_empty(self):
        assert smith_normal_form(Matrix.zeros(Z, 0, 0)).diag == ()

    def test_identity(self):
        res = smith_normal_form(Matrix.identity(Z, 3))
        assert res.diag == (1, 1, 1)

    def test_zero_dims(self):
        for r, c in [(0, 4), (4, 0), (0, 0)]:
            m = Matrix.zeros(Z, r, c)
            res = smith_normal_form(m)
            assert res.diag == ()
            assert res.u @ m @ res.v == smith_form(m, res)

    def test_idempotent_on_smith_form(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rand_matrix(rng, Z)
            res = smith_normal_form(m)
            assert smith_normal_form(smith_form(m, res)).diag == res.diag

    def test_seeded_contract(self):
        rng = random.Random(0)
        for case in range(250):
            m = rand_matrix(rng, Z)
            res = smith_normal_form(m)
            assert res.u @ m @ res.v == smith_form(m, res), case
            assert all(b % a == 0 for a, b in zip(res.diag, res.diag[1:]))
            assert all(d > 0 for d in res.diag)
            assert abs(det(res.u)) == 1
            assert abs(det(res.v)) == 1

    def test_field_contract(self):
        rng = random.Random(1)
        for _ in range(150):
            m = rand_matrix(rng, F5, lo=0, hi=4)
            res = smith_normal_form(m)
            assert res.u @ m @ res.v == smith_form(m, res)
            assert all(d == 1 for d in res.diag)
            assert det(res.u) != 0 and det(res.v) != 0

    @given(
        st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=120, deadline=None)
    def test_contract_hypothesis(self, rows):
        m = Matrix.from_rows(Z, rows)
        res = smith_normal_form(m)
        assert res.u @ m @ res.v == smith_form(m, res)
        assert all(b % a == 0 for a, b in zip(res.diag, res.diag[1:]))


def kernel(m):
    """{x : m @ x == 0}, computed the way every kernel in the package is."""
    return preimage_lattice(m, Matrix.zeros(m.ring, m.rows, 0))


class TestSolve:
    def test_scalar_division(self):
        m = Matrix.from_rows(Z, [[2]])
        x = solve_matrix(m, Matrix.column(Z, [6]))
        assert x is not None
        assert x.entries == ((3,),)
        assert kernel(m).cols == 0

    def test_parity_obstruction(self):
        assert solve_matrix(Matrix.from_rows(Z, [[2]]), Matrix.column(Z, [1])) is None

    def test_underdetermined(self):
        m = Matrix.from_rows(Z, [[1, 1]])
        x = solve_matrix(m, Matrix.column(Z, [0]))
        assert x is not None
        assert (m @ x).is_zero
        basis = kernel(m)
        assert basis.cols == 1
        col = [basis.entries[i][0] for i in range(2)]
        assert sorted(col) == [-1, 1]

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_matrix(Matrix.from_rows(Z, [[2]]), Matrix.column(Z, [1, 2]))

    def test_seeded_solutions_verify(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rand_matrix(rng, Z, max_dim=4, lo=-4, hi=4)
            b = Matrix.from_rows(
                Z, [[rng.randrange(-4, 5)] for _ in range(m.rows)], cols=1
            )
            x = solve_matrix(m, b)
            if x is not None:
                assert m @ x == b
            assert (m @ kernel(m)).is_zero

    def test_solution_from_known_combination(self):
        # rigged to be solvable: b := m @ t for a random t
        rng = random.Random(13)
        for _ in range(200):
            m = rand_matrix(rng, Z, max_dim=4, lo=-4, hi=4)
            t = Matrix.from_rows(
                Z, [[rng.randrange(-3, 4)] for _ in range(m.cols)], cols=1
            )
            b = m @ t
            x = solve_matrix(m, b)
            assert x is not None
            assert m @ x == b

    def test_field_solving(self):
        m = Matrix.from_rows(F5, [[2]])
        x = solve_matrix(m, Matrix.column(F5, [1]))
        assert x is not None
        assert x.entries == ((3,),)

    def test_box_search_oracle_small(self):
        # exhaustive box search agrees with the solver on small systems;
        # the box radius is a Hadamard bound on a Cramer solution, so a
        # solvable system always has a witness inside the box
        rng = random.Random(17)
        for _ in range(120):
            r, c = rng.randrange(0, 3), rng.randrange(0, 3)
            m = Matrix.from_rows(
                Z, [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)], cols=c
            )
            b = Matrix.column(Z, [rng.randrange(-3, 4) for _ in range(r)])
            bound = 3 * (3 ** max(c - 1, 0)) * max(c, 1) + 1
            found = None
            for xs in itertools.product(range(-bound, bound + 1), repeat=c):
                if m @ Matrix.column(Z, list(xs)) == b:
                    found = xs
                    break
            x = solve_matrix(m, b)
            if found is not None:
                assert x is not None and m @ x == b
            else:
                assert x is None


def reference_solve(m, b):
    """solve_matrix as it read before the Smith form carried the solver."""
    if m.ring != b.ring:
        raise ValueError("ring mismatch in solve")
    if m.rows != b.rows:
        raise ValueError("row mismatch in solve")
    snf = smith_normal_form(m)
    r = len(snf.diag)
    c = snf.u @ b
    if any(any(row) for row in c.entries[r:]):
        return None
    y = []
    for d, row in zip(snf.diag, c.entries):
        if any(x % d for x in row):
            return None
        y.append(tuple(x // d for x in row))
    return snf.v.slice_cols(0, r) @ Matrix(m.ring, r, b.cols, tuple(y))


SOLVER_RINGS = [Z] + [BaseRing.prime_field(p) for p in (2, 3, 5, 7)]


class TestSolver:
    def check(self, m, b):
        snf = smith_normal_form(m)
        want = reference_solve(m, b)
        assert snf.solve(b) == want
        assert solve_matrix(m, b) == want
        assert snf.contains(b) == (want is not None)
        if want is not None:
            assert m @ want == b

    @pytest.mark.parametrize("ring", SOLVER_RINGS, ids=str)
    def test_random_systems_match_the_reference(self, ring):
        rng = random.Random(f"solver:{ring}")
        for _ in range(150):
            m = rand_matrix(rng, ring, max_dim=5, lo=-6, hi=6)
            k = rng.randrange(0, 4)
            solvable = rng.random() < 0.5  # else a random right-hand side
            rows = m.cols if solvable else m.rows
            b = Matrix.from_rows(
                ring, [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(rows)], cols=k
            )
            if solvable:
                b = m @ b
            self.check(m, b)

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_zero_sized_systems(self, ring):
        for rows, cols, k in [(0, 3, 1), (0, 3, 0), (3, 0, 1), (3, 0, 0), (0, 0, 2), (2, 2, 0)]:
            data = [[1 + i + j for j in range(cols)] for i in range(rows)]
            m = Matrix.from_rows(ring, data, cols=cols)
            self.check(m, Matrix.zeros(ring, rows, k))
        # n x 0: only the zero column lies in the span
        self.check(Matrix.zeros(ring, 2, 0), Matrix.column(ring, [0, 1]))
        assert not smith_normal_form(Matrix.zeros(ring, 2, 0)).contains(Matrix.column(ring, [0, 1]))

    def test_solve_errors_unchanged(self):
        m = Matrix.from_rows(Z, [[2]])
        for fn in (solve_matrix, reference_solve):
            with pytest.raises(ValueError, match="ring mismatch in solve"):
                fn(m, Matrix.column(F5, [1]))
            with pytest.raises(ValueError, match="row mismatch in solve"):
                fn(m, Matrix.column(Z, [1, 2]))

    @pytest.mark.parametrize("ring", SOLVER_RINGS, ids=str)
    def test_module_keeps_its_smith_form(self, ring):
        rng = random.Random(f"module-snf:{ring}")
        for _ in range(30):
            rels = rand_matrix(rng, ring, max_dim=4)
            module = FpModule(ring, rels.rows, rels)
            assert module.snf == smith_normal_form(rels)


HERMITE_RINGS = [Z] + [BaseRing.prime_field(p) for p in (2, 5, 7)]


class TestHermiteSolve:
    """Substitution against an echelon basis gives the unique solution, or None."""

    def check(self, h, b):
        x = hermite_solve(h, b)
        assert x == solve_matrix(h, b)
        if x is not None:
            assert h @ x == b
        return x is not None

    @pytest.mark.parametrize("ring", HERMITE_RINGS, ids=str)
    def test_hermite_and_preimage_outputs_match_solve_matrix(self, ring):
        rng = random.Random(f"hermite-solve:{ring}")
        verdicts = set()
        for case in range(200):
            m = rand_matrix(rng, ring, max_dim=5, lo=-6, hi=6)
            if case % 2:
                q = Matrix.from_rows(
                    ring, [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(m.rows)], cols=2
                )
                h = preimage_lattice(m, q)
            else:
                h = hermite_basis(m)
            k = rng.randrange(0, 4)
            inside = rng.random() < 0.5  # else a random right-hand side
            rows = h.cols if inside else h.rows
            b = Matrix.from_rows(
                ring, [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(rows)], cols=k
            )
            if inside:
                b = h @ b
            found = self.check(h, b)
            assert found or not inside
            verdicts.add(found)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("ring", HERMITE_RINGS, ids=str)
    def test_zero_sized_shapes(self, ring):
        # 0 x 0, n x 0, and the basis of a zero matrix, which has no columns
        for h in (Matrix.zeros(ring, 0, 0), Matrix.zeros(ring, 3, 0),
                  hermite_basis(Matrix.zeros(ring, 2, 4))):
            assert h.cols == 0
            for k in (0, 2):
                assert hermite_solve(h, Matrix.zeros(ring, h.rows, k)) == Matrix.zeros(ring, 0, k)
            if h.rows:
                assert not self.check(h, Matrix.column(ring, [1] + [0] * (h.rows - 1)))
        h = hermite_basis(Matrix.from_rows(ring, [[1, 2], [3, 4], [5, 6]]))
        assert self.check(h, Matrix.zeros(ring, 3, 0))

    def test_a_pivot_that_does_not_divide_the_target(self):
        assert not self.check(Matrix.from_rows(Z, [[2]]), Matrix.column(Z, [1]))
        # the second pivot, 2, meets 4 - 3 * 1 == 1 once the first is read
        h = Matrix.from_rows(Z, [[1, 0], [3, 2]])
        assert not self.check(h, Matrix.column(Z, [1, 4]))
        assert self.check(h, Matrix.column(Z, [1, 5]))

    def test_errors(self):
        h = Matrix.from_rows(Z, [[1, 0], [3, 2]])
        with pytest.raises(ValueError, match="ring or row mismatch"):
            hermite_solve(h, Matrix.column(F5, [1, 2]))
        with pytest.raises(ValueError, match="ring or row mismatch"):
            hermite_solve(h, Matrix.column(Z, [1, 2, 3]))
        # pivots out of order, a pivot above the previous one, a zero column
        for rows in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [2, 0]]):
            with pytest.raises(ValueError, match="column echelon"):
                hermite_solve(Matrix.from_rows(Z, rows), Matrix.column(Z, [1, 2]))


class TestLattices:
    def test_kernel_annihilates(self):
        rng = random.Random(3)
        for _ in range(150):
            m = rand_matrix(rng, Z, max_dim=5, lo=-5, hi=5)
            assert (m @ kernel(m)).is_zero

    def test_kernel_spans(self):
        # every ad-hoc kernel vector must be an integer combination
        m = Matrix.from_rows(Z, [[2, 4, 6]])
        k = kernel(m)
        for probe in ([2, -1, 0], [3, 0, -1], [-1, -1, 1]):
            assert solve_matrix(k, Matrix.column(Z, probe)) is not None

    def test_preimage_lattice(self):
        # {x : 4x in 6Z} == 3Z
        p = Matrix.from_rows(Z, [[4]])
        q = Matrix.from_rows(Z, [[6]])
        lat = preimage_lattice(p, q)
        assert lat.entries == ((3,),)

    def test_hermite_canonical(self):
        # two generating sets of one lattice give identical bases
        g1 = Matrix.from_rows(Z, [[2, 0], [0, 3]])
        g2 = Matrix.from_rows(Z, [[2, 2, 4], [3, 0, 3]])
        h1 = hermite_basis(g1)
        a = hermite_basis(Matrix.from_rows(Z, [[2, 4], [0, 6]]))
        assert hermite_basis(h1) == h1
        assert a.cols == 2

    def test_hermite_preserves_lattice(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rand_matrix(rng, Z, max_dim=4, lo=-4, hi=4)
            h = hermite_basis(m)
            # mutual membership of generators
            for j in range(m.cols):
                assert solve_matrix(h, m.col(j)) is not None
            for j in range(h.cols):
                assert solve_matrix(m, h.col(j)) is not None


def draw_matrix(data, ring, rows, cols):
    entries = st.integers(min_value=-9, max_value=9)
    return Matrix.from_rows(
        ring, [[data.draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def draw_unimodular(data, ring, n):
    """A product of elementary column operations on I_n: swaps, unit scalings, additions."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(min_value=0, max_value=8)) if n else 0):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(min_value=-3, max_value=3))
        for row in u:
            if i != j and k == 0:
                row[i], row[j] = row[j], row[i]
            elif i != j:
                row[i] += k * row[j]
            elif ring.is_unit(k):
                row[i] *= k
    return Matrix.from_rows(ring, u, cols=n)


def two_pass_preimage(p, q):
    """The reference definition: Hermite form of the whole kernel, then of its projection.

    The kernel of [p | -q] is read off the Smith witness v: its columns
    past the rank.
    """
    m = hstack(p, -q)
    snf = smith_normal_form(m)
    k = hermite_basis(snf.v.slice_cols(len(snf.diag), m.cols))
    return hermite_basis(k.slice_rows(0, p.cols))


class TestOneHermitePass:
    @given(st.sampled_from(SOLVER_RINGS), st.integers(0, 5), st.integers(0, 6),
           st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_preimage_lattice_equals_the_two_pass_definition(self, ring, rows, c1, c2, data):
        p, q = draw_matrix(data, ring, rows, c1), draw_matrix(data, ring, rows, c2)
        assert preimage_lattice(p, q) == two_pass_preimage(p, q)

    @given(st.sampled_from(SOLVER_RINGS), st.integers(0, 5), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hermite_form_ignores_column_operations(self, ring, rows, cols, data):
        m = draw_matrix(data, ring, rows, cols)
        assert hermite_basis(m @ draw_unimodular(data, ring, cols)) == hermite_basis(m)

    @pytest.mark.parametrize("ring", [Z, F5], ids=["Z", "F5"])
    def test_preimage_lattice_takes_one_hermite_form(self, ring, monkeypatch):
        preimage_lattice.cache_clear()  # a memoized answer would take none
        calls = []
        real = linalg.hermite_basis
        monkeypatch.setattr(linalg, "hermite_basis", lambda m: calls.append(m) or real(m))
        p = Matrix.from_rows(ring, [[4, 2, 1], [0, 6, 3]])
        q = Matrix.from_rows(ring, [[6, 0], [3, 9]])
        preimage_lattice(p, q)
        assert len(calls) == 1


def draw_sparse_matrix(data, ring, rows, cols):
    """Entries up to 60 in size, about a third of them zero: gcd steps and skipped rows both occur."""
    entries = st.one_of(st.just(0), st.integers(min_value=-60, max_value=60))
    return Matrix.from_rows(
        ring, [[data.draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


class TestEliminationMatchesTheReference:
    """The elimination that carries only the witnesses read builds what the full one built.

    The reference is the full bordered elimination, kept in
    ``tests/reference.py``; every comparison is of whole matrices, so
    entries, shapes and rings must all agree.
    """

    @given(st.sampled_from(SOLVER_RINGS), st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_smith_form_and_hermite_basis(self, ring, rows, cols, data):
        m = draw_sparse_matrix(data, ring, rows, cols)
        new, old = smith_normal_form(m), reference.smith_normal_form(m)
        assert (new.u, new.v, new.diag) == (old.u, old.v, old.diag)
        assert hermite_basis(m) == reference.hermite_basis(m)

    @given(st.sampled_from(SOLVER_RINGS), st.integers(0, 5), st.integers(0, 6),
           st.integers(0, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_preimage_lattice_and_its_hermite_input(self, ring, rows, c1, c2, data):
        p, q = draw_sparse_matrix(data, ring, rows, c1), draw_sparse_matrix(data, ring, rows, c2)
        inputs = []
        real = linalg.hermite_basis
        linalg.hermite_basis = lambda m: inputs.append(m) or real(m)
        try:
            got = preimage_lattice.__wrapped__(p, q)  # past the memo
        finally:
            linalg.hermite_basis = real
        assert got == reference.preimage_lattice(p, q)
        # the raw kernel block of the full Smith witness v
        snf = reference.smith_normal_form(hstack(p, -q))
        assert inputs == [snf.v.slice_rows(0, p.cols).slice_cols(len(snf.diag), snf.v.cols)]

    def test_preimage_lattice_is_memoized(self):
        p = Matrix.from_rows(Z, [[4, 2, 1], [0, 6, 3]])
        q = Matrix.from_rows(Z, [[6, 0], [3, 9]])
        first = preimage_lattice(p, q)
        assert preimage_lattice(Matrix.from_rows(Z, p.entries), q) is first


class TestRankAndDivisor:
    """Rank and product of the Smith diagonal, from the elimination without witnesses."""

    @given(st.sampled_from(SOLVER_RINGS), st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_smith_form(self, ring, rows, cols, data):
        m = draw_sparse_matrix(data, ring, rows, cols)
        diag = smith_normal_form(m).diag
        assert rank_and_divisor(m) == (len(diag), math.prod(diag))

    @pytest.mark.parametrize("ring", SOLVER_RINGS, ids=str)
    def test_empty_and_zero_matrices(self, ring):
        for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
            assert rank_and_divisor(Matrix.zeros(ring, rows, cols)) == (0, 1)

    def test_a_diagonal_off_the_divisibility_chain(self):
        # diag(2, 3) is its own elimination result; its Smith form is diag(1, 6)
        m = Matrix.from_rows(Z, [[2, 0], [0, -3]])
        assert rank_and_divisor(m) == (2, 6)
        assert rank_and_divisor(Matrix.from_rows(F5, [[2, 0], [0, 3]])) == (2, 1)


def full_membership(snf, b):
    """The whole test: u @ b vanishes below the rank and d_i divides its row i."""
    c = snf.u @ b
    r = len(snf.diag)
    return not any(any(row) for row in c.entries[r:]) and all(
        x % d == 0 for d, row in zip(snf.diag, c.entries) for x in row
    )


class TestMembership:
    @pytest.mark.parametrize("ring", SOLVER_RINGS, ids=str)
    def test_contains_agrees_with_the_full_test(self, ring):
        rng = random.Random(f"contains:{ring}")
        seen = {"no columns": 0, "spans everything": 0, "product": 0}
        for _ in range(300):
            m = rand_matrix(rng, ring, max_dim=4, lo=-3, hi=3)
            snf = smith_normal_form(m)
            k = rng.randrange(0, 3)
            b = Matrix.from_rows(
                ring, [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(m.rows)], cols=k
            )
            if rng.random() < 0.3:
                b = m @ Matrix.from_rows(
                    ring, [[rng.randrange(-2, 3) for _ in range(k)] for _ in range(m.cols)], cols=k
                )
            spans = len(snf.diag) == m.rows and set(snf.diag) <= {1}
            seen["no columns" if not k else "spans everything" if spans else "product"] += 1
            assert snf.contains(b) == full_membership(snf, b)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_mismatch_raises_on_every_path(self, ring):
        spanning = smith_normal_form(Matrix.identity(ring, 2))
        degenerate = smith_normal_form(Matrix.from_rows(ring, [[2, 0], [0, 0]]))
        for snf in (spanning, degenerate):
            for cols in (0, 1):
                for rows in (1, 3):
                    with pytest.raises(ValueError):
                        snf.contains(Matrix.zeros(ring, rows, cols))
            with pytest.raises(ValueError):
                snf.contains(Matrix.zeros(F5 if ring == Z else Z, 2, 0))


class TestMatrixHash:
    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    def test_equal_matrices_hash_equally(self, ring):
        rng = random.Random(f"hash:{ring}")
        for _ in range(100):
            a = rand_matrix(rng, ring, max_dim=4)
            built = Matrix(ring, a.rows, a.cols, a.entries)
            derived = (a - Matrix.zeros(ring, a.rows, a.cols)).transpose().transpose()
            assert a == built == derived
            assert hash(a) == hash(built) == hash(derived)
            assert hash(a) == hash((a.ring, a.rows, a.cols, a.entries))

    def test_cached_hash_is_neither_compared_nor_printed(self):
        a = Matrix.from_rows(Z, [[1, 2], [3, 4]])
        b = Matrix.from_rows(Z, [[1, 2], [3, 4]])
        hash(a)  # a holds its hash now, b does not
        assert a == b and not a != b
        assert "_hash" not in repr(a) and repr(a) == repr(b)
        assert Matrix.from_rows(Z, [[1, 2], [3, 5]]) != a
        (spec,) = [f for f in dataclasses.fields(Matrix) if f.name == "_hash"]
        assert not (spec.init or spec.compare or spec.repr)


def assert_well_formed(m):
    """m holds what the checking constructor would make of its own fields."""
    assert len(m.entries) == m.rows
    assert all(len(row) == m.cols for row in m.entries)
    if m.ring.p is not None:
        assert all(0 <= x < m.ring.p for row in m.entries for x in row)
    assert m == Matrix(m.ring, m.rows, m.cols, m.entries)


class TestInternalResults:
    """Results that linalg builds without the constructor's check are still valid matrices."""

    @given(st.sampled_from(SOLVER_RINGS), st.integers(0, 5), st.integers(0, 6),
           st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_operation_builds_a_well_formed_matrix(self, ring, rows, cols, k, data):
        a, b = draw_matrix(data, ring, rows, cols), draw_matrix(data, ring, rows, cols)
        c = draw_matrix(data, ring, cols, k)
        r0 = data.draw(st.integers(0, rows))
        c0 = data.draw(st.integers(0, cols))
        snf = smith_normal_form(a)
        results = [
            a @ c, -a, a - b, a.transpose(),
            a.slice_rows(r0, data.draw(st.integers(r0, rows))),
            a.slice_cols(c0, data.draw(st.integers(c0, cols))),
            hstack(a, b), vstack(a, b), kron(a, c), vec(a), unvec(vec(a), rows, cols),
            snf.u, snf.v, hermite_basis(a), snf.solve(a @ c),
            Matrix.zeros(ring, rows, cols), Matrix.identity(ring, cols),
        ]
        results += [a.col(j) for j in range(cols)]
        for m in results:
            assert_well_formed(m)
        assert unvec(vec(a), rows, cols) == a
        assert a - a == Matrix.zeros(ring, rows, cols)
        assert a - b == reference.add(a, -b)


class TestKron:
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_vec_identity(self, m_, n_, p_, data):
        draw = lambda r, c: Matrix.from_rows(
            Z,
            [[data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(c)] for _ in range(r)],
            cols=c,
        )
        a = draw(m_, n_)
        x = draw(n_, p_)
        b = draw(p_, m_)
        lhs = vec(a @ x @ b)
        rhs = kron(a, b.transpose()) @ vec(x)
        assert lhs == rhs

    def test_unvec_roundtrip(self):
        m = Matrix.from_rows(Z, [[1, 2, 3], [4, 5, 6]])
        assert unvec(vec(m), 2, 3) == m


class TestDet:
    def test_known(self):
        assert det(Matrix.from_rows(Z, [[2, 1], [1, 1]])) == 1
        assert det(Matrix.from_rows(Z, [[2, 0], [0, 3]])) == 6
        assert det(Matrix.identity(Z, 0)) == 1

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(50):
            a = Matrix.from_rows(Z, [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)])
            b = Matrix.from_rows(Z, [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)])
            assert det(a @ b) == det(a) * det(b)

    def test_field(self):
        assert det(Matrix.from_rows(F5, [[2, 0], [0, 3]])) == 1  # 6 mod 5

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_field_matches_permutation_expansion(self, p):
        ring = BaseRing.prime_field(p)
        rng = random.Random(p)
        for _ in range(60):
            n = rng.randrange(0, 5)
            rows = [[rng.choice([0, 0, rng.randrange(p)]) for _ in range(n)] for _ in range(n)]
            want = 0
            for perm in itertools.permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                term = (-1) ** inversions
                for i in range(n):
                    term *= rows[i][perm[i]]
                want += term
            assert det(Matrix.from_rows(ring, rows, cols=n)) == want % p


def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            x, y, g = xgcd(a, b)
            assert x * a + y * b == g
            assert g >= 0
            if a or b:
                assert a % g == 0 and b % g == 0


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix.from_rows(Z, [[1, 2], [3]])
    with pytest.raises(ValueError):
        hstack(Matrix.zeros(Z, 2, 1), Matrix.zeros(Z, 3, 1))


class TestStorage:
    def test_field_entries_reduced_on_construction(self):
        m = Matrix.from_rows(F5, [[-1, 7, 5], [1, 2, 3]])
        assert m.entries == ((4, 2, 0), (1, 2, 3))

    def test_integer_entries_stored_unreduced(self):
        m = Matrix.from_rows(Z, [[-1, 7, 5], [10 ** 30, -(10 ** 30), 0]])
        assert m.entries == ((-1, 7, 5), (10 ** 30, -(10 ** 30), 0))

    def test_ragged_rows_and_negative_dimensions_raise(self):
        for ring in (Z, F5):
            with pytest.raises(ValueError):
                Matrix(ring, 2, 2, ((1, 2), (3,)))
            with pytest.raises(ValueError):
                Matrix(ring, 2, 2, ((1, 2), (3, 4, 5)))
            with pytest.raises(ValueError):
                Matrix(ring, -1, 0, ())
            with pytest.raises(ValueError):
                Matrix(ring, 0, -1, ())
            with pytest.raises(ValueError):
                Matrix(ring, 2, 1, ((1,),))
            for make in (lambda: Matrix.zeros(ring, -1, 2), lambda: Matrix.zeros(ring, 2, -1),
                         lambda: Matrix.identity(ring, -1)):
                with pytest.raises(ValueError):
                    make()

    def test_empty_rows_allowed(self):
        for ring in (Z, F5):
            assert Matrix(ring, 3, 0, ((), (), ())).entries == ((), (), ())

    @pytest.mark.parametrize("ring", [Z, F5], ids=str)
    @pytest.mark.parametrize(
        "take",
        [
            lambda m: m.slice_rows(0, m.rows + 1),
            lambda m: m.slice_rows(-1, 1),
            lambda m: m.slice_cols(0, m.cols + 1),
            lambda m: m.col(m.cols),
        ],
        ids=["rows-past-end", "rows-from-minus-one", "cols-past-end", "col-past-end"],
    )
    def test_out_of_range_bounds_raise(self, ring, take):
        with pytest.raises(ValueError):
            take(Matrix.from_rows(ring, [[1, 2, 3], [4, 5, 6]]))

    def test_field_products_stay_reduced(self):
        rng = random.Random(11)
        for _ in range(60):
            a = rand_matrix(rng, F5, max_dim=4, lo=-20, hi=20)
            cols = rng.randrange(0, 5)
            b = Matrix.from_rows(
                F5, [[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(a.cols)], cols=cols
            )
            for m in (a @ b, kron(a, b), -a, a - a):
                assert all(0 <= x < 5 for row in m.entries for x in row)
            lifted = Matrix.from_rows(Z, a.entries, cols=a.cols) @ Matrix.from_rows(
                Z, b.entries, cols=b.cols
            )
            assert (a @ b).entries == tuple(
                tuple(x % 5 for x in row) for row in lifted.entries
            )

    def test_integer_products_unreduced(self):
        a = Matrix.from_rows(Z, [[-3, 7]])
        b = Matrix.from_rows(Z, [[5], [-9]])
        assert (a @ b).entries == ((-78,),)
        assert kron(a, b).entries == ((-15, 35), (27, -63))
