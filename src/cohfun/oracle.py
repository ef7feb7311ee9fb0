"""Independent brute-force verification layer.

Nothing here trusts the Hom-group machinery it is checking: finite
modules are enumerated element by element, in the box of coordinate
moduli read off determinantal divisors (gcds of minors), Hom sets by
assigning generator images one at a time and pruning each partial
assignment as soon as a relation's generators all have images, and the
brute force returns group types (rank, invariant factors) read off its
counts of solutions of p^j * x == 0.  Hom(a, b) is the value at b of
the functor presented by a -> 0.  The same divisors, from the
oracle's own Bareiss minors, decide rank, solvability and whether a
kernel basis generates the kernel.  Exactness is decided from group
types: once g f == 0, A -> B -> C is exact at B iff coker f and im g
have the same free rank and torsion order, read off Smith eliminations
without witnesses.  Monomorphisms, isomorphisms, left exactness, and
functor sequences pointwise on a probe battery all reduce to it; the
pointwise check decides each distinct cyclic summand of the probes once.

Random instance generation is seeded and splits its stream per case
index, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass

from .linalg import (
    BaseRing,
    Matrix,
    block_diag,
    hermite_solve,
    hstack,
    preimage_lattice,
    rank_and_divisor,
    smith_normal_form,
    solve_matrix,
    vstack,
)
from .modules import (
    FpModule,
    ModMorphism,
    canonical_form,
    cokernel_mor,
    compose_mor,
    direct_sum,
    hom_group,
    identity_mor,
    kernel_mor,
    render_group,
    zero_mor,
)
from .functors import (
    CoherentFunctor,
    NatMorphism,
    coker_nat,
    compose_nat,
    evaluate,
    evaluate_mor,
    evaluate_nat,
    four_term,
    identity_nat,
    injective_resolution,
    inj_stabilize,
    is_inj_stable,
    is_injective_functor,
    is_proj_stable,
    is_representable,
    ker_nat,
    l0_functor,
    nat_group,
    nat_lift,
    proj_stabilize,
    r0_functor,
    w_mor,
    w_of,
    yoneda_embed,
    yoneda_mor,
)
from .formats import instance_payload, probes_from_spec

DEFAULT_ENUM_CAP = 4096


@dataclass(frozen=True)
class ProbeBattery:
    """The modules every pointwise check is evaluated at."""

    probes: tuple[FpModule, ...]

    def __post_init__(self) -> None:
        if not self.probes:
            raise ValueError("probe battery must be nonempty")
        ring = self.probes[0].ring
        if any(p.ring != ring for p in self.probes):
            raise ValueError("probe battery mixes rings")

    @property
    def ring(self) -> BaseRing:
        return self.probes[0].ring


@functools.cache
def default_battery(ring: BaseRing) -> ProbeBattery:
    """The standard probes of ``ring``, built once per ring from the spec the README names."""
    spec = "Z, Z^2, Z^3" if ring.is_field else "Z, Z/2, Z/3, Z/4, Z/6, Z+Z/2, Z/8, Z/9"
    return ProbeBattery(probes=probes_from_spec(ring, spec))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over many cases: it passed when no case failed."""

    name: str
    cases: int
    failures: tuple[dict, ...] = ()
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def note(self) -> str:
        return "no cases" if self.cases == 0 else ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.note}]" if self.note else ""
        return f"{status} {self.name} (cases={self.cases}){extra}"


# ---------------------------------------------------------------------------
# element-level enumeration


def _moduli(module: FpModule, cap: int = DEFAULT_ENUM_CAP) -> tuple[int, ...]:
    """Coordinate moduli of a finite module (or F_p vector space).

    Its elements are the coordinate tuples in the box of these moduli.
    They are the invariant factors D_k / D_(k-1), where D_k is the gcd
    of the k x k minors of the relations (Smith's determinantal
    divisors), so no Smith form is computed; over F_p those are 1, and
    each free coordinate has modulus p.
    """
    ring = module.ring
    divisors = _divisors(module.rels)
    free = module.gens - (len(divisors) - 1)
    if free and not ring.is_field:
        raise ValueError(f"cannot enumerate an infinite module (free rank {free})")
    moduli = [d // prev for prev, d in zip(divisors, divisors[1:])] + [ring.p] * free
    order = math.prod(moduli)
    if order > cap:
        raise ValueError(f"module order {order} exceeds enumeration cap {cap}")
    return tuple(moduli)


def _combine(coeffs, parts, moduli) -> tuple[int, ...]:
    """Sum of c_k * part_k, reduced modulo each coordinate modulus."""
    return tuple(
        sum(c * z[t] for c, z in zip(coeffs, parts)) % m for t, m in enumerate(moduli)
    )


def _enum_homs(src: FpModule, moduli: tuple[int, ...], cap: int) -> list[tuple]:
    """All morphisms from src to the module with these moduli.

    A morphism is one coordinate tuple per generator.  Generator images
    are assigned one at a time, and each relation is tested as soon as
    its last nonzero generator has an image.
    """
    n = src.gens
    order = math.prod(moduli)
    if order ** n > cap:
        raise ValueError(f"Hom enumeration size {order}^{n} exceeds cap {cap}")
    elements = list(itertools.product(*(range(m) for m in moduli)))
    due = [[] for _ in range(n)]  # relation columns, by last nonzero generator
    for j in range(src.rels.cols):
        col = [src.rels.entries[i][j] for i in range(n)]
        last = max((i for i, c in enumerate(col) if c), default=None)
        if last is not None:
            due[last].append(col[: last + 1])
    partial = [()]
    for cols in due:
        partial = [
            images
            for prefix in partial
            for images in (prefix + (z,) for z in elements)
            if not any(any(_combine(col, images, moduli)) for col in cols)
        ]
    return partial


def _group_invariants(n: int, killed) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a finite group of order n.

    ``killed(c)`` counts the elements z with c * z == 0.  For each prime
    p, log_p killed(p^j) - log_p killed(p^(j-1)) is the number of cyclic
    p-parts of order at least p^j, and the k-th largest invariant factor
    takes p to the power of the number of those counts that are at least k.
    """
    largest_first: list[int] = []
    rest = n
    while rest > 1:
        p = next(q for q in itertools.count(2) if rest % q == 0)
        while rest % p == 0:
            rest //= p
        logs = [0]
        while len(logs) < 2 or logs[-1] != logs[-2]:
            count, e = killed(p ** len(logs)), 0
            while p ** e < count:
                e += 1
            if p ** e != count:
                raise AssertionError("non-group count in invariant recovery")
            logs.append(e)
        at_least = [b - a for a, b in zip(logs, logs[1:])]
        largest_first += [1] * (at_least[0] - len(largest_first))
        for k in range(at_least[0]):
            largest_first[k] *= p ** sum(c > k for c in at_least)
    return tuple(reversed(largest_first))


def brute_hom(
    a: FpModule, b: FpModule, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, tuple[int, ...]]:
    """The type of Hom(a, b): brute_eval of Hom(a, -), the functor presented by a -> 0."""
    return brute_eval(yoneda_embed(a), b, cap)


def brute_eval(
    f: CoherentFunctor, a: FpModule, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, tuple[int, ...]]:
    """The group type (rank, invariant factors) of F(a), by literal enumeration.

    Enumerates Hom(X, a) and Hom(Y, a), forms the precomposition image,
    and reads the quotient's type off how many elements each p^j sends
    into the image.  The result is the tuple ``canonical_form`` gives
    evaluate(f, a), ``(dim, ())`` over F_p, but shares none of its
    machinery.
    """
    moduli = _moduli(a, cap)
    x, y = f.pres.source, f.pres.target
    homs_x = [tuple(v for z in h for v in z) for h in _enum_homs(x, moduli, cap)]
    homs_y = _enum_homs(y, moduli, cap)
    flat_moduli = moduli * x.gens

    fcols = [
        [f.pres.mat.entries[j][i] for j in range(y.gens)] for i in range(x.gens)
    ]

    def precompose(h: tuple) -> tuple:
        return tuple(v for col in fcols for v in _combine(col, h, moduli))

    image = {precompose(h) for h in homs_y}

    def killed(c):
        # c kills the coset of z exactly when c * z lies in the image,
        # and each coset holds |image| elements z
        hits = sum(tuple(c * p % m for p, m in zip(z, flat_moduli)) in image for z in homs_x)
        return hits // len(image)

    factors = _group_invariants(len(homs_x) // len(image), killed)
    return (len(factors), ()) if f.ring.is_field else (0, factors)


# ---------------------------------------------------------------------------
# pointwise exactness


def _module_type(m: FpModule) -> tuple[int, int]:
    """Free rank and torsion order of m, from its Smith form."""
    return m.rank, math.prod(m.snf.diag)


def _types(f: ModMorphism) -> tuple[tuple[int, int], tuple[int, int]]:
    """Free rank and torsion order of coker f and of im f, from one elimination.

    With R the relations of C = f.target and L, L' the lattices of R
    and [F | R], coker f is Z^n / L' and im f is L' / L.  The free rank
    of im f is rank L' - rank L, and its torsion (L' cap QL) / L has
    order d(R) * d(U @ F) / d([F | R]), where d(M) is the product of M's
    Smith diagonal and U, the rows of C's Smith witness u past the rank,
    maps C onto its free quotient: the order follows from the
    saturations of L, L' and U L' in 0 -> L' cap QL -> L' -> U L' -> 0.
    Over F_p every d is 1, and for a finite C, U has no rows.
    """
    c = f.target
    snf = c.snf
    rank, joined = rank_and_divisor(hstack(f.mat, c.rels))
    order = math.prod(snf.diag)
    if not c.ring.is_field and len(snf.diag) < c.gens:
        order *= rank_and_divisor(snf.u.slice_rows(len(snf.diag), c.gens) @ f.mat)[1]
    if order % joined:
        raise AssertionError("image torsion order is not an integer")
    return (c.gens - rank, joined), (rank - len(snf.diag), order // joined)


def _composes_to_zero(f: ModMorphism, g: ModMorphism) -> bool:
    return g.target.snf.contains(g.mat @ f.mat)


def _exact_between(f: ModMorphism, g: ModMorphism) -> bool:
    """A -f-> B -g-> C is exact at B.

    Given g f == 0, coker f maps onto im g with kernel ker g / im f.
    That kernel is torsion when the free ranks agree, and its order is
    then the quotient of the torsion orders, so it vanishes exactly when
    coker f and im g have the same type.
    """
    return _composes_to_zero(f, g) and _types(f)[0] == _types(g)[1]


def _is_mono(phi: ModMorphism) -> bool:
    """phi is mono: its image has the type of its source."""
    return _types(phi)[1] == _module_type(phi.source)


def module_sequence_exact(mors: list[ModMorphism]) -> bool:
    """Exactness of 0 -> M_0 -> ... -> M_n -> 0 in the base category.

    At each M_i the cokernel of the incoming map (M_0 itself at the left
    end) must have the type of the image of the outgoing one (zero at
    the right end), once every composite vanishes.
    """
    if not all(_composes_to_zero(f, g) for f, g in zip(mors, mors[1:])):
        return False
    coker = _module_type(mors[0].source)
    for f in mors:
        next_coker, image = _types(f)
        if image != coker:
            return False
        coker = next_coker
    return coker == (0, 1)


def check_exact(maps: list[NatMorphism], battery: ProbeBattery) -> CheckReport:
    """Pointwise exactness of 0 -> F_0 -> ... -> F_n -> 0, on every probe.

    Coherent functors are additive, so the complex at a probe is the
    direct sum of the complexes at the cyclic summands of its canonical
    form, and it is exact exactly when each of those is.  Each distinct
    summand of the battery is decided once, and a probe fails when one
    of its summands does.
    """
    start = time.perf_counter()
    for first, second in zip(maps, maps[1:]):
        if first.target != second.source:
            raise ValueError("complex maps are not composable")
    ring = battery.ring
    verdicts: dict[int, bool] = {}  # per summand: 0 for the ring, d for Z/d

    def exact_at(probe: FpModule) -> bool:
        rank, factors = canonical_form(probe)
        for d in [0] * (rank > 0) + list(factors):
            if d not in verdicts:
                summand = FpModule.free(ring, 1) if d == 0 else FpModule.cyclic(ring, d)
                verdicts[d] = module_sequence_exact([evaluate_nat(m, summand) for m in maps])
            if not verdicts[d]:
                return False
        return True

    failures = [
        {"probe": f"probe[{pi}]={probe.describe()}", "instance": instance_payload(list(maps))}
        for pi, probe in enumerate(battery.probes)
        if not exact_at(probe)
    ]
    return CheckReport(
        name="exactness",
        cases=len(battery.probes),
        failures=tuple(failures),
        seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# seeded random generation


@dataclass(frozen=True)
class Bounds:
    gens: int = 4
    rels: int = 4
    entry: int = 4


def _stream(seed, *tags) -> random.Random:
    return random.Random(":".join(["cohfun", str(seed)] + [str(t) for t in tags]))


def random_module(rng: random.Random, ring: BaseRing, bounds: Bounds) -> FpModule:
    gens = rng.randrange(0, bounds.gens + 1)
    rels = rng.randrange(0, bounds.rels + 1)
    data = [
        [rng.randrange(-bounds.entry, bounds.entry + 1) for _ in range(rels)]
        for _ in range(gens)
    ]
    return FpModule(ring, gens, Matrix.from_rows(ring, data, cols=rels))


def random_morphism(
    rng: random.Random, a: FpModule, b: FpModule, bounds: Bounds
) -> ModMorphism:
    h = hom_group(a, b)
    coeffs = [rng.randrange(-bounds.entry, bounds.entry + 1) for _ in range(h.group.gens)]
    return h.from_coords(Matrix.column(a.ring, coeffs))


def random_functor(rng: random.Random, ring: BaseRing, bounds: Bounds) -> CoherentFunctor:
    a = random_module(rng, ring, bounds)
    b = random_module(rng, ring, bounds)
    return CoherentFunctor(random_morphism(rng, a, b, bounds))


def random_nat(
    rng: random.Random, f: CoherentFunctor, g: CoherentFunctor, bounds: Bounds
) -> NatMorphism:
    ng = nat_group(f, g)
    coeffs = [rng.randrange(-bounds.entry, bounds.entry + 1) for _ in range(ng.group.gens)]
    return ng.from_coords(Matrix.column(f.ring, coeffs))


def random_ses(
    rng: random.Random, ring: BaseRing, bounds: Bounds
) -> tuple[NatMorphism, NatMorphism]:
    """The maps (incl, proj) of 0 -> K -> G -> Q -> 0, with Q the cokernel of a random F -> G."""
    f = random_functor(rng, ring, bounds)
    g = random_functor(rng, ring, bounds)
    alpha = random_nat(rng, f, g, bounds)
    _, proj = coker_nat(alpha)
    _, incl = ker_nat(proj)
    return incl, proj


def random_instance(kind: str, seed: int, ring: BaseRing | None = None):
    """Deterministic seeded instance of the requested kind."""
    ring = ring or BaseRing.integers()
    bounds = Bounds()
    rng = _stream(seed, kind)
    if kind == "module":
        return random_module(rng, ring, bounds)
    if kind == "morphism":
        return random_functor(rng, ring, bounds).pres
    if kind == "functor":
        return random_functor(rng, ring, bounds)
    if kind == "nat":
        f = random_functor(rng, ring, bounds)
        g = random_functor(rng, ring, bounds)
        return random_nat(rng, f, g, bounds)
    if kind == "ses":
        return random_ses(rng, ring, bounds)
    raise ValueError(f"unknown instance kind {kind!r}")


@functools.lru_cache(maxsize=None)
def _divisor_chains(max_order: int) -> tuple[tuple[int, ...], ...]:
    """Chains d_1 | d_2 | ... of 1 to 3 entries >= 2 with product <= max_order.

    Shorter chains come first, and chains of one length are in
    lexicographic order, so ``rng.choice`` over the table is stable.
    """

    def extend(chain: tuple[int, ...], order: int, length: int):
        if len(chain) == length:
            yield chain
            return
        step = chain[-1] if chain else 1
        d = max(step, 2)
        while order * d <= max_order:
            yield from extend(chain + (d,), order * d, length)
            d += step

    return tuple(c for length in (1, 2, 3) for c in extend((), 1, length))


def random_finite_module(
    rng: random.Random, ring: BaseRing, max_order: int = 36
) -> FpModule:
    """A random finite module of bounded order with a scrambled presentation."""
    chain = list(rng.choice(_divisor_chains(max_order)))
    n = len(chain)
    rows = [list(r) for r in Matrix.diagonal(ring, chain).entries]

    def scramble(vectors: list[list[int]]) -> list[list[int]]:
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(-2, 3)
                vectors[i] = [x + c * y for x, y in zip(vectors[i], vectors[j])]
        return vectors

    cols = scramble([list(c) for c in zip(*scramble(rows))])
    scrambled = Matrix.from_rows(ring, [list(r) for r in zip(*cols)], cols=n)
    return FpModule(ring, n, scrambled)


# ---------------------------------------------------------------------------
# the named checks: one case each, drawn from its own seeded stream


def _run(name: str, cases: int, body) -> CheckReport:
    """Run a per-case body; a returned dict is a failure payload.

    An ``Exception`` raised by the body fails its case with an
    ``error`` payload, so the later cases and reports still run.
    """
    start = time.perf_counter()
    failures = []
    for idx in range(cases):
        try:
            payload = body(idx)
        except Exception as exc:
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        if payload is not None:
            payload["case"] = idx
            failures.append(payload)
    return CheckReport(
        name=name, cases=cases, failures=tuple(failures), seconds=time.perf_counter() - start
    )


def _bareiss(rows) -> int:
    """Integer determinant of a square list of rows, by fraction-free elimination."""
    n = len(rows)
    a = [list(row) for row in rows]
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
    return sign * a[n - 1][n - 1] if n else 1


def det(m: Matrix) -> int:
    """Exact determinant: Bareiss on the stored integers, reduced into the ring.

    Over F_p the stored entries are representatives, and the integer
    determinant reduced mod p is the field's determinant.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return m.ring.normalize(_bareiss(m.entries))


def _minors(m: Matrix, k: int) -> list[int]:
    """Every k x k minor of m, reduced into the ring; the one 0 x 0 minor is 1."""
    return [
        m.ring.normalize(_bareiss([[m.entries[i][j] for j in cols] for i in rows]))
        for rows in itertools.combinations(range(m.rows), k)
        for cols in itertools.combinations(range(m.cols), k)
    ]


def _divisors(m: Matrix) -> list[int]:
    """Smith's determinantal divisors [D_0 = 1, D_1, ..., D_rank] of m.

    D_k is the gcd of the k x k minors.  The list stops before the first
    zero D_k, since every larger minor vanishes with it (Laplace
    expansion), so its length is rank + 1.  Over F_p a nonzero D_k is a
    unit, written 1.
    """
    divisors = [1]
    for k in range(1, min(m.rows, m.cols) + 1):
        d = math.gcd(*_minors(m, k))
        if not d:
            break
        divisors.append(1 if m.ring.is_field else d)
    return divisors


def _generates_kernel(m: Matrix, k: Matrix) -> bool:
    """True when the columns of k generate {x : m @ x == 0}, read from minors.

    k must lie in the kernel, have as many columns as the kernel's rank,
    and have maximal minors whose gcd is a unit.  The last condition
    makes the columns independent and their span saturated, and a
    saturated sublattice of full rank is the whole kernel (Smith's
    determinantal divisors).
    """
    if not (m @ k).is_zero or k.cols != m.cols - (len(_divisors(m)) - 1):
        return False
    return m.ring.is_unit(math.gcd(*_minors(k, k.cols)))


def case_snf_contract(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    r, c = rng.randrange(0, 7), rng.randrange(0, 7)
    m = Matrix.from_rows(
        ring,
        [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)],
        cols=c,
    )
    res = smith_normal_form(m)
    s = Matrix.diagonal(ring, res.diag, m.rows, m.cols)
    ok = (res.u @ m @ res.v) == s
    if ring.is_field:
        ok = ok and all(d == 1 for d in res.diag)
        ok = ok and det(res.u) != 0 and det(res.v) != 0
    else:
        ok = ok and all(b % a == 0 for a, b in zip(res.diag, res.diag[1:]))
        ok = ok and all(d > 0 for d in res.diag)
        ok = ok and abs(det(res.u)) == 1 and abs(det(res.v)) == 1
    ok = ok and smith_normal_form(s).diag == res.diag
    if not ok:
        return {"matrix": m.to_lists()}
    return None


def _solvable(m: Matrix, b: Matrix) -> bool:
    """Whether m @ x == b has a solution, read from determinantal divisors.

    It has one exactly when adjoining b to m keeps the span of the
    columns.  Over F_p, where every D_k is 1, that is equal rank.  Over
    Z the lattice L of m lies in the lattice L' of [m | b], and D_rank
    depends only on the lattice (Cauchy-Binet), so at equal rank
    D_rank(L) / D_rank(L') = [L' : L], and equal divisors mean L == L'.
    """
    joined = Matrix.from_rows(
        m.ring, [row + col for row, col in zip(m.entries, b.entries)], cols=m.cols + 1
    )
    return _divisors(joined) == _divisors(m)


def case_solve_oracle(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    """solve_matrix against determinantal divisors, and the kernel by minors.

    The kernel is ``preimage_lattice(m, 0)``, the path every kernel in
    the package takes.
    """
    r, c = rng.randrange(0, 4), rng.randrange(0, 4)
    m = Matrix.from_rows(
        ring,
        [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)],
        cols=c,
    )
    b = Matrix.column(ring, [rng.randrange(-3, 4) for _ in range(r)])
    x = solve_matrix(m, b)
    if (x is not None) != _solvable(m, b):
        return {"matrix": m.to_lists(), "b": b.to_lists()}
    if x is not None and m @ x != b:
        return {"matrix": m.to_lists(), "b": b.to_lists(), "x": x.to_lists()}
    basis = preimage_lattice(m, Matrix.zeros(ring, r, 0))
    if not _generates_kernel(m, basis):
        return {"matrix": m.to_lists(), "basis": basis.to_lists()}
    return None


def case_hom_oracle(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    a = random_finite_module(rng, ring)
    b = random_finite_module(rng, ring)
    lhs = canonical_form(hom_group(a, b).group)
    rhs = brute_hom(a, b, cap=50000)
    if lhs != rhs:
        return {
            "instance": instance_payload([a, b]),
            "hom_group": list(lhs[1]),
            "brute": list(rhs[1]),
        }
    return None


def case_brute_eval_agreement(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds(gens=2, rels=2, entry=3))
    probe = battery.probes[rng.randrange(len(battery.probes))]
    try:
        want = brute_eval(f, probe, cap=DEFAULT_ENUM_CAP)
    except ValueError:
        return None  # oversized draw; outside the oracle's stated domain
    got = evaluate(f, probe)
    if want != canonical_form(got):
        return {
            "instance": instance_payload(f),
            "probe": probe.describe(),
            "evaluate": got.describe(),
            "brute": render_group(ring, *want),
        }
    return None


def case_yoneda(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    bounds = Bounds()
    x = random_module(rng, ring, bounds)
    f = random_functor(rng, ring, bounds)
    lhs = nat_group(yoneda_embed(x), f).group
    rhs = evaluate(f, x)
    if canonical_form(lhs) != canonical_form(rhs):
        return {
            "instance": instance_payload([x, f]),
            "nat": lhs.describe(),
            "value": rhs.describe(),
        }
    return None


def case_coyoneda(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    bounds = Bounds()
    f = random_functor(rng, ring, bounds)
    x = random_module(rng, ring, bounds)
    lhs = nat_group(f, yoneda_embed(x)).group
    wf, _ = w_of(f)
    rhs = hom_group(x, wf).group
    if canonical_form(lhs) != canonical_form(rhs):
        return {
            "instance": instance_payload([f, x]),
            "nat": lhs.describe(),
            "hom": rhs.describe(),
        }
    return None


def _theta(alpha: NatMorphism) -> ModMorphism:
    f = alpha.source
    wf, kf = w_of(f)
    coeff = hermite_solve(kf.mat, alpha.a.mat)
    return ModMorphism(alpha.a.source, wf, coeff)


def case_representable_values(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    """Nat(F, (A,-)) matches (A,-) evaluated at w(F), naturally in both slots."""
    bounds = Bounds(gens=3, rels=3, entry=3)
    f = random_functor(rng, ring, bounds)
    a = random_module(rng, ring, bounds)
    g = yoneda_embed(a)
    wf, _ = w_of(f)
    lhs = nat_group(f, g)
    if canonical_form(lhs.group) != canonical_form(evaluate(g, wf)):
        return {"instance": instance_payload([f, a])}
    # naturality in the first slot: precompose with a random beta
    f2 = random_functor(rng, ring, bounds)
    beta = random_nat(rng, f2, f, bounds)
    for gamma in lhs.reps:
        left = _theta(compose_nat(gamma, beta))
        right = compose_mor(w_mor(beta), _theta(gamma))
        if left != right:
            return {"instance": instance_payload([f, f2, a])}
    # naturality in the second slot: postcompose with Hom of m
    a2 = random_module(rng, ring, bounds)
    m = random_morphism(rng, a2, a, bounds)
    gmor = yoneda_mor(m)  # (A,-) -> (A2,-)
    for gamma in lhs.reps:
        left = _theta(compose_nat(gmor, gamma))
        right = compose_mor(_theta(gamma), m)
        if left != right:
            return {"instance": instance_payload([f, a, m])}
    return None


def case_adjunction(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    bounds = Bounds()
    f = random_functor(rng, ring, bounds)
    a = random_module(rng, ring, bounds)
    g = yoneda_embed(a)
    r0, _ = r0_functor(f)
    lhs = nat_group(f, g).group
    rhs = nat_group(r0, g).group
    if canonical_form(lhs) != canonical_form(rhs):
        return {"instance": instance_payload([f, a])}
    return None


def case_four_term(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds())
    ft = four_term(f)
    if not w_of(ft.f0)[0].is_zero or not w_of(ft.f1)[0].is_zero:
        return {"instance": instance_payload(f), "reason": "w(F0) or w(F1) nonzero"}
    rep = check_exact([ft.iota, ft.phi, ft.rho], battery)
    if not rep.passed:
        return {"instance": instance_payload(f), "reason": "exactness"}
    return None


def case_w_exactness(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    incl, proj = random_ses(rng, ring, Bounds(gens=3, rels=3, entry=3))
    wq = w_mor(proj)  # w(quot) -> w(mid)
    wi = w_mor(incl)  # w(mid) -> w(sub)
    if not module_sequence_exact([wq, wi]):
        return {"instance": instance_payload([incl, proj])}
    return None


def case_w_presentation_independence(
    rng: random.Random, ring: BaseRing, battery: ProbeBattery
):
    """Presentations of the same functor give kernels equal up to isomorphism.

    Two moves produce honestly equal functors: block sum with an
    identity (padding both X and Y), and stacking redundant target
    coordinates s∘f on top of f.
    """
    bounds = Bounds(gens=3, rels=3, entry=3)
    f = random_functor(rng, ring, bounds)
    wf, _ = w_of(f)
    w_pad = random_module(rng, ring, bounds)
    sx = direct_sum(f.source_module, w_pad)
    sy = direct_sum(f.target_module, w_pad)
    padded = CoherentFunctor(
        ModMorphism(sx, sy, block_diag(f.pres.mat, Matrix.identity(ring, w_pad.gens)))
    )
    got, _ = w_of(padded)
    if canonical_form(got) != canonical_form(wf):
        return {"instance": instance_payload(f), "move": "block-identity"}
    s = random_morphism(rng, f.target_module, random_module(rng, ring, bounds), bounds)
    sy2 = direct_sum(f.target_module, s.target)
    stacked = CoherentFunctor(
        ModMorphism(
            f.source_module, sy2, vstack(f.pres.mat, compose_mor(s, f.pres).mat)
        )
    )
    got2, _ = w_of(stacked)
    if canonical_form(got2) != canonical_form(wf):
        return {"instance": instance_payload(f), "move": "redundant-rows"}
    return None


def case_vanishing(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds())
    wf, _ = w_of(f)
    stable = is_inj_stable(f)
    if stable != wf.is_zero:
        return {"instance": instance_payload(f), "reason": "w-vs-stable"}
    if stable != _is_mono(f.pres):
        return {"instance": instance_payload(f), "reason": "mono-vs-stable"}
    if stable:
        st = inj_stabilize(f)
        for probe in battery.probes[:4]:
            if canonical_form(evaluate(st, probe)) != canonical_form(evaluate(f, probe)):
                return {"instance": instance_payload(f), "reason": "stabilization-changed-F"}
    return None


def _canonical_epi(f: CoherentFunctor) -> NatMorphism:
    """The presentation epimorphism (X, -) -> F."""
    x = f.source_module
    return NatMorphism(
        source=yoneda_embed(x),
        target=f,
        a=identity_mor(x),
        b=zero_mor(f.target_module, FpModule.zero(f.ring)),
    )


def case_representables_projective(
    rng: random.Random, ring: BaseRing, battery: ProbeBattery
):
    bounds = Bounds(gens=3, rels=3, entry=3)
    f = random_functor(rng, ring, bounds)
    g = random_functor(rng, ring, bounds)
    alpha = random_nat(rng, f, g, bounds)
    quot, proj = coker_nat(alpha)  # epi G -> quot
    x = random_module(rng, ring, bounds)
    y = yoneda_embed(x)
    gamma = random_nat(rng, y, quot, bounds)
    # lift gamma through proj: solve in the Nat groups
    ng_mid = nat_group(y, g)
    coeff = nat_lift(ng_mid, nat_group(y, quot), gamma, post=proj)
    if coeff is None:
        return {"instance": instance_payload([y, quot]), "reason": "no lift"}
    lifted = ng_mid.from_coords(coeff)
    if compose_nat(proj, lifted) != gamma:
        return {"instance": instance_payload([y, quot]), "reason": "bad lift"}
    return None


def _splits_off_presentation(f: CoherentFunctor) -> bool:
    """Projectivity via the canonical epi (X,-) -> F admitting a section."""
    epi = _canonical_epi(f)
    section = nat_lift(nat_group(f, epi.source), nat_group(f, f), identity_nat(f), post=epi)
    return section is not None


def _random_module_ses(rng, ring: BaseRing, bounds: Bounds):
    a = random_module(rng, ring, bounds)
    b = random_module(rng, ring, bounds)
    phi = random_morphism(rng, a, b, bounds)
    _, proj = cokernel_mor(phi)
    _, incl = kernel_mor(proj)
    return incl, proj


def case_equivalence(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    """representable == projective(split test); representables are left exact."""
    bounds = Bounds(gens=3, rels=3, entry=3)
    f = random_functor(rng, ring, bounds)
    rep = is_representable(f)
    if rep != _splits_off_presentation(f):
        return {"instance": instance_payload(f), "reason": "representable-vs-projective"}
    if rep:
        for k in range(3):
            incl, proj = _random_module_ses(rng, ring, bounds)
            fi = evaluate_mor(f, incl)
            fp = evaluate_mor(f, proj)
            if not _is_mono(fi):
                return {"instance": instance_payload(f), "reason": "not left exact (mono)"}
            if not _exact_between(fi, fp):
                return {"instance": instance_payload(f), "reason": "not left exact (middle)"}
    return None


def case_functoriality(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    bounds = Bounds(gens=3, rels=3, entry=3)
    f = random_functor(rng, ring, bounds)
    a = random_module(rng, ring, bounds)
    b = random_module(rng, ring, bounds)
    c = random_module(rng, ring, bounds)
    phi = random_morphism(rng, a, b, bounds)
    psi = random_morphism(rng, b, c, bounds)
    lhs = evaluate_mor(f, compose_mor(psi, phi))
    rhs = compose_mor(evaluate_mor(f, psi), evaluate_mor(f, phi))
    if lhs != rhs:
        return {"instance": instance_payload([f, phi, psi]), "reason": "evaluate_mor"}
    if evaluate_mor(f, identity_mor(a)) != identity_mor(evaluate(f, a)):
        return {"instance": instance_payload([f, a]), "reason": "evaluate_mor id"}
    g = random_functor(rng, ring, bounds)
    h = random_functor(rng, ring, bounds)
    al = random_nat(rng, f, g, bounds)
    be = random_nat(rng, g, h, bounds)
    lhsw = w_mor(compose_nat(be, al))
    rhsw = compose_mor(w_mor(al), w_mor(be))
    if lhsw != rhsw:
        return {"instance": instance_payload([f, g, h]), "reason": "w_mor"}
    # unit is natural in F
    _, unit_f = r0_functor(f)
    _, unit_g = r0_functor(g)
    r0_alpha = yoneda_mor(w_mor(al))
    if compose_nat(r0_alpha, unit_f) != compose_nat(unit_g, al):
        return {"instance": instance_payload([f, g]), "reason": "unit naturality"}
    return None


def case_stabilization(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds(gens=3, rels=3, entry=3))
    l0, counit = l0_functor(f)
    for n in (1, 2, 3):
        free = FpModule.free(ring, n)
        comp = evaluate_nat(counit, free)
        if not module_sequence_exact([comp]):
            return {"instance": instance_payload(f), "reason": f"counit not iso at rank {n}"}
        if not evaluate(proj_stabilize(f), free).is_zero:
            return {"instance": instance_payload(f), "reason": f"stabilization alive at rank {n}"}
    one = FpModule.free(ring, 1)
    if is_proj_stable(f) != evaluate(f, one).is_zero:
        return {"instance": instance_payload(f), "reason": "is_proj_stable mismatch"}
    return None


def case_resolutions(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds())
    res = injective_resolution(f)
    for term in res.terms:
        if not is_injective_functor(term):
            return {"instance": instance_payload(f), "reason": "term not injective"}
    rep = check_exact(list(res.maps), battery)
    if not rep.passed:
        return {"instance": instance_payload(f), "reason": "resolution not exact"}
    return None


def case_semisimple_collapse(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds())
    if not is_representable(f):
        return {"instance": instance_payload(f), "reason": "not representable"}
    _, unit = r0_functor(f)
    for probe in battery.probes:
        if not module_sequence_exact([evaluate_nat(unit, probe)]):
            return {"instance": instance_payload(f), "reason": f"unit not iso at {probe.describe()}"}
    return None


def verify_theorems(
    battery: ProbeBattery | None = None,
    ring: BaseRing | None = None,
    seed: int = 0,
    cases: int = 100,
) -> list[CheckReport]:
    """Run the full invariant suite; all-pass is the acceptance gate.

    Each entry is (report name, stream tag, case function, case count).
    Case ``idx`` of a report draws from the stream ``(seed, tag, idx)``,
    so the tag fixes which instances the report sees.
    """
    ring = ring or (battery.ring if battery else BaseRing.integers())
    battery = battery or default_battery(ring)
    half = max(1, cases // 2) if cases else 0
    heavy = max(1, cases // 4) if cases else 0
    if ring.is_field:
        z_only = []
        field_only = [("semisimple-collapse", "semisimple", case_semisimple_collapse, cases)]
    else:
        z_only = [
            ("hom-oracle", "homoracle", case_hom_oracle, cases),
            ("brute-eval-agreement", "bruteeval", case_brute_eval_agreement, 3 * cases),
        ]
        field_only = []
    suite = [
        ("snf-contract", "snf", case_snf_contract, 10 * cases),
        ("solve-oracle", "solve", case_solve_oracle, 2 * cases),
        *z_only,
        ("yoneda", "yoneda", case_yoneda, cases),
        ("coyoneda", "coyoneda", case_coyoneda, cases),
        ("representable-values", "ref-values", case_representable_values, half),
        ("adjunction", "adjunction", case_adjunction, cases),
        ("four-term", "fourterm", case_four_term, heavy),
        ("w-exactness", "wexact", case_w_exactness, heavy),
        ("w-presentation-independence", "wpres", case_w_presentation_independence, cases),
        ("vanishing", "vanishing", case_vanishing, cases),
        ("representables-projective", "projective", case_representables_projective, heavy),
        ("equivalence", "equivalence", case_equivalence, heavy),
        ("functoriality", "functorial", case_functoriality, heavy),
        ("stabilization", "stabilize", case_stabilization, heavy),
        ("resolutions", "resolve", case_resolutions, heavy),
        *field_only,
    ]
    return [
        _run(name, count, lambda idx: case(_stream(seed, tag, idx), ring, battery))
        for name, tag, case, count in suite
    ]
