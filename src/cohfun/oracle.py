"""Independent brute-force verification layer.

Nothing here trusts the Hom-group machinery it is checking: finite
modules are enumerated element by element, Hom sets by assigning
generator images one at a time and pruning each partial assignment as
soon as a relation's generators all have images, and group types are
recovered by counting solutions of p^j * x == 0.  Hom(a, b) is the
value at b of the functor presented by a -> 0.  Exactness of functor
sequences is decided pointwise on a probe battery with exact two-sided
subgroup membership.

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
    express,
    hstack,
    preimage_lattice,
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
    is_iso,
    is_mono,
    kernel_mor,
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
    zero_nat,
)
from .formats import instance_payload

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


def default_battery(ring: BaseRing) -> ProbeBattery:
    if ring.is_field:
        probes = tuple(FpModule.free(ring, n) for n in (1, 2, 3))
    else:
        z_sum_c2 = FpModule(ring, 2, Matrix.from_rows(ring, [[0], [2]]))
        probes = (
            FpModule.free(ring, 1),
            FpModule.cyclic(ring, 2),
            FpModule.cyclic(ring, 3),
            FpModule.cyclic(ring, 4),
            FpModule.cyclic(ring, 6),
            z_sum_c2,
            FpModule.cyclic(ring, 8),
            FpModule.cyclic(ring, 9),
        )
    return ProbeBattery(probes=probes)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over many cases."""

    name: str
    passed: bool
    cases: int
    failures: tuple[dict, ...] = ()
    seconds: float = 0.0
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.note}]" if self.note else ""
        return f"{status} {self.name} (cases={self.cases}){extra}"


# ---------------------------------------------------------------------------
# element-level enumeration


def _moduli(module: FpModule, cap: int = DEFAULT_ENUM_CAP) -> tuple[int, ...]:
    """Coordinate moduli of a finite module (or F_p vector space).

    Its elements are the coordinate tuples in the box of these moduli.
    """
    ring = module.ring
    snf = smith_normal_form(module.rels)
    if ring.is_field:
        moduli = [1] * len(snf.diag) + [ring.p] * (module.gens - len(snf.diag))
    else:
        if module.rank:
            raise ValueError(
                f"cannot enumerate an infinite module (free rank {module.rank})"
            )
        moduli = list(snf.diag)
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
    """Invariant factors of a finite group of order n.

    ``killed(c)`` counts the elements z with c * z == 0.  Determined
    purely by counting solutions of p^j * x == 0, prime by prime, so the
    answer owes nothing to Smith normal form.
    """
    if n <= 1:
        return ()
    factors_by_prime: dict[int, list[int]] = {}
    rest = n
    p = 2
    primes = []
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    for p in primes:
        lam = [0]
        j = 1
        while True:
            cnt = killed(p ** j)
            e = 0
            while p ** e < cnt:
                e += 1
            if p ** e != cnt:
                raise AssertionError("non-group count in invariant recovery")
            lam.append(e)
            if len(lam) > 2 and lam[-1] == lam[-2]:
                break
            j += 1
        mu = [lam[i] - lam[i - 1] for i in range(1, len(lam))]
        exps = []
        for i, m_geq in enumerate(mu):
            nxt = mu[i + 1] if i + 1 < len(mu) else 0
            exps.extend([i + 1] * (m_geq - nxt))
        factors_by_prime[p] = sorted(exps, reverse=True)
    width = max(len(v) for v in factors_by_prime.values())
    invariants = []
    for k in range(width):
        d = 1
        for p, exps in factors_by_prime.items():
            if k < len(exps):
                d *= p ** exps[k]
        invariants.append(d)
    return tuple(reversed(invariants))


def _type_module(ring: BaseRing, order: int, factors: tuple[int, ...]) -> FpModule:
    if ring.is_field:
        dim = 0
        while ring.p ** dim < order:
            dim += 1
        return FpModule.free(ring, dim)
    return FpModule(ring, len(factors), Matrix.diagonal(ring, list(factors)))


def brute_hom(a: FpModule, b: FpModule, cap: int = DEFAULT_ENUM_CAP) -> FpModule:
    """Hom(a, b), as brute_eval of Hom(a, -), the functor presented by a -> 0."""
    zero = FpModule.zero(a.ring)
    hom_a = CoherentFunctor(ModMorphism(a, zero, Matrix.zeros(a.ring, 0, a.gens)))
    return brute_eval(hom_a, b, cap)


def brute_eval(f: CoherentFunctor, a: FpModule, cap: int = DEFAULT_ENUM_CAP) -> FpModule:
    """F(a) by literal enumeration and an explicit set quotient.

    Enumerates Hom(X, a) and Hom(Y, a), forms the precomposition image,
    and reads the quotient's type off how many elements each p^j sends
    into the image; the result agrees with evaluate(f, a) up to
    isomorphism but shares none of its machinery.
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
    order = len(homs_x) // len(image)

    def killed(c):
        # c kills the coset of z exactly when c * z lies in the image,
        # and each coset holds |image| elements z
        hits = sum(tuple(c * p % m for p, m in zip(z, flat_moduli)) in image for z in homs_x)
        return hits // len(image)

    return _type_module(f.ring, order, _group_invariants(order, killed))


# ---------------------------------------------------------------------------
# pointwise exactness


def _exact_at(
    mid: FpModule, incoming: Matrix, outgoing: Matrix, next_rels: Matrix
) -> bool:
    """image == kernel inside mid, by two-sided generator membership."""
    if not smith_normal_form(next_rels).contains(outgoing @ incoming):
        return False
    kernel = preimage_lattice(outgoing, next_rels)
    return smith_normal_form(hstack(incoming, mid.rels)).contains(kernel)


def check_exact(maps: list[NatMorphism], battery: ProbeBattery) -> CheckReport:
    """Pointwise exactness at every interior position, on every probe."""
    start = time.perf_counter()
    for first, second in zip(maps, maps[1:]):
        if first.target != second.source:
            raise ValueError("complex maps are not composable")
    failures = []
    for pi, probe in enumerate(battery.probes):
        comps = [evaluate_nat(m, probe) for m in maps]
        for pos in range(len(maps) - 1):
            mid = comps[pos].target
            if not _exact_at(
                mid, comps[pos].mat, comps[pos + 1].mat, comps[pos + 1].target.rels
            ):
                failures.append(
                    {
                        "probe": f"probe[{pi}]={probe.describe()}",
                        "position": pos,
                        "instance": instance_payload(list(maps)),
                    }
                )
    return CheckReport(
        name="exactness",
        passed=not failures,
        cases=len(battery.probes),
        failures=tuple(failures),
        seconds=time.perf_counter() - start,
    )


def padded_complex(maps: list[NatMorphism]) -> list[NatMorphism]:
    """Close a complex with zero functors so ends are checked too."""
    ring = maps[0].source.ring
    z = yoneda_embed(FpModule.zero(ring))
    return [zero_nat(z, maps[0].source)] + list(maps) + [zero_nat(maps[-1].target, z)]


def module_sequence_exact(mors: list[ModMorphism]) -> bool:
    """Exactness of a sequence in the base category, padded with zero at both ends."""
    zero = FpModule.zero(mors[0].source.ring)
    seq = [zero_mor(zero, mors[0].source), *mors, zero_mor(mors[-1].target, zero)]
    for first, second in zip(seq, seq[1:]):
        if not _exact_at(first.target, first.mat, second.mat, second.target.rels):
            return False
    return True


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
    """Run a per-case body; a returned dict is a failure payload."""
    start = time.perf_counter()
    failures = []
    for idx in range(cases):
        payload = body(idx)
        if payload is not None:
            payload["case"] = idx
            failures.append(payload)
    note = "no cases" if cases == 0 else ""
    return CheckReport(
        name=name,
        passed=not failures,
        cases=cases,
        failures=tuple(failures),
        seconds=time.perf_counter() - start,
        note=note,
    )


def det(m: Matrix) -> int:
    """Exact determinant: Bareiss on the stored integers, reduced into the ring.

    Over F_p the stored entries are representatives, and the integer
    determinant reduced mod p is the field's determinant.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return m.ring.normalize(1)
    a = [list(row) for row in m.entries]
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
    return m.ring.normalize(sign * a[n - 1][n - 1])


def _minors(m: Matrix, k: int) -> list[int]:
    """Every k x k minor of m; the one 0 x 0 minor is 1."""
    return [
        det(Matrix.from_rows(m.ring, [[m.entries[i][j] for j in cols] for i in rows], cols=k))
        for rows in itertools.combinations(range(m.rows), k)
        for cols in itertools.combinations(range(m.cols), k)
    ]


def _rank(m: Matrix) -> int:
    """The largest k for which m has a nonzero k x k minor."""
    return next(k for k in range(min(m.rows, m.cols), -1, -1) if any(_minors(m, k)))


def _generates_kernel(m: Matrix, k: Matrix) -> bool:
    """True when the columns of k generate {x : m @ x == 0}, read from minors.

    k must lie in the kernel, have as many columns as the kernel's rank,
    and have maximal minors whose gcd is a unit.  The last condition
    makes the columns independent and their span saturated, and a
    saturated sublattice of full rank is the whole kernel (Smith's
    determinantal divisors).
    """
    if not (m @ k).is_zero or k.cols != m.cols - _rank(m):
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


def _lattice_contains(columns: list[list[int]], b: list[int]) -> bool:
    """Membership of b in the integer column lattice, by greedy reduction.

    Independent of the Smith machinery: plain column echelon with gcd
    steps, then division against the pivots.
    """

    def xgcd(a, b):
        x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
        while ng:
            q = g // ng
            x, nx = nx, x - q * nx
            y, ny = ny, y - q * ny
            g, ng = ng, g - q * ng
        return x, y, g

    cols = [c[:] for c in columns if any(c)]
    n = len(b)
    # echelonize: pivot per row index
    pivots: dict[int, list[int]] = {}
    for vec in cols:
        v = vec[:]
        for i in range(n):
            if not v[i]:
                continue
            if i not in pivots:
                pivots[i] = v
                v = None
                break
            w = pivots[i]
            x, y, g = xgcd(w[i], v[i])
            neww = [x * a + y * c2 for a, c2 in zip(w, v)]
            newv = [(w[i] // g) * c2 - (v[i] // g) * a for a, c2 in zip(w, v)]
            pivots[i] = neww
            v = newv
        # fully reduced vectors vanish
    r = b[:]
    for i in range(n):
        if r[i]:
            if i not in pivots:
                return False
            q, rem = divmod(r[i], pivots[i][i])
            if rem:
                return False
            r = [a - q * c2 for a, c2 in zip(r, pivots[i])]
    return all(x == 0 for x in r)


def _solvable(m: Matrix, b: Matrix) -> bool:
    """Whether m @ x == b has a solution, read from lattice membership.

    Over F_p the lattice also holds p * e_1, ..., p * e_r, so that
    membership is solvability modulo p.
    """
    r = m.rows
    cols = [[m.entries[i][j] for i in range(r)] for j in range(m.cols)]
    if m.ring.is_field:
        cols += [[m.ring.p * (i == k) for i in range(r)] for k in range(r)]
    return _lattice_contains(cols, [row[0] for row in b.entries])


def case_solve_oracle(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    """solve_matrix against lattice membership, and the kernel by minors.

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
    rhs = canonical_form(brute_hom(a, b, cap=50000))
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
    if canonical_form(want) != canonical_form(got):
        return {
            "instance": instance_payload(f),
            "probe": probe.describe(),
            "evaluate": got.describe(),
            "brute": want.describe(),
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
    coeff = express(kf.mat, f.source_module.rels, alpha.a.mat)
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
    rep = check_exact(padded_complex([ft.iota, ft.phi, ft.rho]), battery)
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
    sx, _, _, _, _ = direct_sum(f.source_module, w_pad)
    sy, _, _, _, _ = direct_sum(f.target_module, w_pad)
    padded = CoherentFunctor(
        ModMorphism(sx, sy, block_diag(f.pres.mat, Matrix.identity(ring, w_pad.gens)))
    )
    got, _ = w_of(padded)
    if canonical_form(got) != canonical_form(wf):
        return {"instance": instance_payload(f), "move": "block-identity"}
    s = random_morphism(rng, f.target_module, random_module(rng, ring, bounds), bounds)
    sy2, _, _, _, _ = direct_sum(f.target_module, s.target)
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
    if stable != is_mono(f.pres):
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
            if not is_mono(fi):
                return {"instance": instance_payload(f), "reason": "not left exact (mono)"}
            if not _exact_at(fi.target, fi.mat, fp.mat, fp.target.rels):
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
        if not is_iso(comp):
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
    rep = check_exact(padded_complex(list(res.maps)), battery)
    if not rep.passed:
        return {"instance": instance_payload(f), "reason": "resolution not exact"}
    return None


def case_semisimple_collapse(rng: random.Random, ring: BaseRing, battery: ProbeBattery):
    f = random_functor(rng, ring, Bounds())
    if not is_representable(f):
        return {"instance": instance_payload(f), "reason": "not representable"}
    _, unit = r0_functor(f)
    for probe in battery.probes:
        if not is_iso(evaluate_nat(unit, probe)):
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
