"""Groebner layer: reduced bases, normal forms, quotient ring queries."""

import itertools
import random
from collections import Counter

import pytest
import sympy

from semidual.polyring import PolyRing, PrimeField, mono_div, mono_lcm, mono_mul
from semidual.groebner import (
    GradedRing,
    IncrementalSpan,
    ModuleGB,
    RelativeTracker,
    _Engine,
    buchberger,
    ideal_dimension,
    radical_membership,
    relative_kernel,
    vec_lead,
)

from helpers_random import (
    block_diagonal,
    by_components,
    random_block,
    seed_only_block,
)

F = PrimeField(101)


def _sympy_gb(gens, names, p=101):
    syms = sympy.symbols(names)
    basis = sympy.groebner(gens, *syms, modulus=p, order="grevlex")
    out = set()
    for g in basis.exprs:
        poly = sympy.Poly(g, *syms, modulus=p)
        out.add(tuple(sorted(
            (m, int(c) % p) for m, c in zip(poly.monoms(), poly.coeffs()))))
    return out


def _our_gb_set(G):
    return {tuple(sorted((e, c) for e, c in g.terms)) for g in G.gens}


def test_buchberger_matches_sympy():
    sx, sy, sz = sympy.symbols("x y z")
    scases = [
        [sx * sx + sy, sx * sy],
        [sx**3 - sy, sy**2 - sx],
        [sx * sx, sx * sy, sy * sy],
        [sx + sy, sx - sy],
        [sx**2 * sy + 2 * sz**3, sx * sy * sz - sy**3, sx**2 - sy * sz + sz**2],
        [sx**3 + sy * sz**2 - sx * sz**2, sy**3 - 2 * sx**2 * sz],
    ]
    for p in (2, 3, 101):
        S = PolyRing(PrimeField(p), ("x", "y", "z"))
        x, y, z = S.variable(0), S.variable(1), S.variable(2)
        cases = [
            [x * x + y, x * y],
            [x**3 - y, y**2 - x],
            [x * x, x * y, y * y],
            [x + y, x - y],
            [x**2 * y + 2 * z**3, x * y * z - y**3, x**2 - y * z + z**2],
            [x**3 + y * z**2 - x * z**2, y**3 - 2 * x**2 * z],
        ]
        for ours, theirs in zip(cases, scases):
            G = buchberger(ours)
            assert _our_gb_set(G) == _sympy_gb(theirs, "x y z", p), (p, ours)


# ---------------------------------------------------------------------------
# The module engine: every saturated basis passes Buchberger's criterion.

def _random_column(rng, ring, rank):
    """A nonzero vector of S^rank whose entries are homogeneous of one
    degree, 1 or 2, with a few terms each; graded input keeps every run
    small."""
    p = ring.field.p
    monos = ring.monomials_of_wdeg(rng.randrange(1, 3))
    while True:
        v = {}
        for row in range(rank):
            for e in rng.sample(monos, rng.randrange(min(3, len(monos) + 1))):
                v[(row, e)] = rng.randrange(1, p)
        if v:
            return v


def _combine(coeffs, columns, p):
    """sum_j coeffs_j * columns_j for coeffs a vector over the columns."""
    out = {}
    for (j, e), c in coeffs.items():
        for (r, f), d in columns[j].items():
            k = (r, mono_mul(e, f))
            out[k] = (out.get(k, 0) + c * d) % p
    return {k: c for k, c in out.items() if c}


def _assert_buchberger_criterion(ring, basis):
    """Every same-row S-vector of the basis reduces to zero against it."""
    p = ring.field.p
    okey = ring.order.key
    eng = _Engine(ring)
    eng.seed_reduced(basis)
    leads = [vec_lead(v, okey) for v in basis]
    for i, j in itertools.combinations(range(len(basis)), 2):
        ((ri, ei), ci), ((rj, ej), cj) = leads[i], leads[j]
        if ri != rj:
            continue
        lcm = mono_lcm(ei, ej)
        s = {}
        for g, e, c, sign in ((basis[i], ei, ci, 1), (basis[j], ej, cj, -1)):
            shift = mono_div(lcm, e)
            scale = sign * pow(c, p - 2, p)
            for (r, f), d in g.items():
                k = (r, mono_mul(f, shift))
                s[k] = (s.get(k, 0) + scale * d) % p
        s = {k: c for k, c in s.items() if c}
        assert not eng.reduce_full(s), (i, j)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_module_engine_bases_pass_buchberger_criterion(p):
    """Seeded random multi-row modules through each engine front end.  A
    pair dropped by mistake leaves a basis that fails the criterion, so
    this guards the engine's pair bookkeeping."""
    rng = random.Random(7000 + p)
    for nvars, rank in ((2, 2), (3, 2), (2, 3), (3, 3)) * 10:
        ring = PolyRing(PrimeField(p), ("x", "y", "z")[:nvars])
        cols = [_random_column(rng, ring, rank) for _ in range(rank + 2)]
        basis = RelativeTracker(ring, cols, (), rank)._eng.reduced_basis()
        _assert_buchberger_criterion(ring, basis)
        leads = [vec_lead(v, ring.order.key)[0] for v in basis]
        assert leads == sorted(leads, key=lambda l: (-l[0],
                                                     ring.order.key(l[1])))
        for s in relative_kernel(ring, cols, (), rank):
            assert not _combine(s, cols, p)

        seed = ModuleGB(ring, [_random_column(rng, ring, rank)
                               for _ in range(2)], rank).basis
        tracker = RelativeTracker(ring, cols, seed, rank)
        _assert_buchberger_criterion(ring, tracker._eng.basis)
        seed_span = ModuleGB.from_reduced(ring, seed, rank)
        kernel = relative_kernel(ring, cols, seed, rank)
        assert kernel
        for a in kernel:
            assert seed_span.contains(_combine(a, cols, p))

        span = IncrementalSpan(ring, cols[:2], reduced_seed=seed)
        for v in cols[2:]:
            span.add(v)
        _assert_buchberger_criterion(ring, span._eng.basis)
        assert all(span.contains(v) for v in cols + seed)


def test_tracked_syzygy_with_main_block_term_is_an_internal_fault():
    """Position-over-term leads put a syzygy's lead in a tracking row only
    when it has no main-block term; a broken lead must not pass silently."""
    S = PolyRing(F, ("x", "y"))
    zero = S._zero_exps
    tracked = RelativeTracker(S, [{(0, (1, 0)): 1}], (), 1)
    tracked._eng.basis = [{(0, (1, 0)): 1, (1, zero): 1}]
    tracked._eng.leads = [(1, zero)]
    with pytest.raises(RuntimeError, match="main block"):
        tracked.kernel_vectors()


def test_semigroup_reduced_basis_frozen():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    R = GradedRing(S, [y * y - x * z, x**3 - y * z, x * x * y - z * z])
    got = sorted(str(g) for g in R.ideal.gens)
    assert got == ["x^2*y + 100*z^2", "x^3 + 100*y*z", "y^2 + 100*x*z"]
    assert R.dimension == 1
    # x^3 = yz in the quotient
    assert R.nf(x**3) == R.nf(y * z)
    assert R.nf(y * y) == R.nf(x * z)
    assert not R.nf(x * z).is_zero


def test_graded_ring_rejects_bad_ideals():
    S = PolyRing(F, ("x", "y"))
    x, y = S.variable(0), S.variable(1)
    with pytest.raises(ValueError):
        GradedRing(S, [x + 1])          # inhomogeneous
    with pytest.raises(ValueError):
        GradedRing(S, [S.constant(3)])  # unit ideal


def test_std_monomials_count_graded_pieces():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    R = GradedRing(S, [y * y - x * z, x**3 - y * z, x * x * y - z * z])
    # dimensions of the semigroup ring k[t^3,t^4,t^5]: one for each
    # element of the numerical semigroup <3,4,5>
    semigroup = {0}
    for a in range(9):
        for b in range(9):
            for c in range(9):
                semigroup.add(3 * a + 4 * b + 5 * c)
    for d in range(0, 13):
        assert len(R.std_monomials(d)) == (1 if d in semigroup else 0), d


def test_units_and_nzds():
    S = PolyRing(F, ("x", "y"))
    x, y = S.variable(0), S.variable(1)
    R = GradedRing(S, [x * x])
    g = R.zerodivisor_witness(x)     # x * x = 0
    assert not R.ideal.contains(g) and R.ideal.contains(g * x)
    assert R.zerodivisor_witness(y) is None
    colon = R.colon_by(x)
    assert any(not R.ideal.contains(g) for g in colon.gens)


def test_semigroup_ring_is_domain():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    R = GradedRing(S, [y * y - x * z, x**3 - y * z, x * x * y - z * z])
    for f in (x, y, z, x * y - z, y + x * x):
        assert R.zerodivisor_witness(f) is None, f


def test_quotient_by_extends_ideal():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    R = GradedRing(S, [y * y - x * z, x**3 - y * z, x * x * y - z * z])
    R1 = R.quotient_by(x)
    assert R1.nf(x).is_zero
    assert R1.nf(y * z).is_zero     # x^3 - yz collapses
    assert not R1.nf(y).is_zero
    assert R1.dimension == 0
    with pytest.raises(ValueError):
        R.quotient_by(x + S.one())  # inhomogeneous


def test_radical_membership():
    S = PolyRing(F, ("x", "y"))
    x, y = S.variable(0), S.variable(1)
    G = buchberger([x * x, y])
    assert radical_membership(x, G)          # x^2 in I
    assert radical_membership(y, G)
    assert radical_membership(x + y, G)
    assert not radical_membership(x + 1, G)
    assert radical_membership(S.zero(), G)


def test_ideal_dimension():
    S = PolyRing(F, ("x", "y", "z"))
    x, y, z = (S.variable(i) for i in range(3))
    assert ideal_dimension(buchberger([x], ring=S)) == 2
    assert ideal_dimension(buchberger([x, y], ring=S)) == 1
    assert ideal_dimension(buchberger([x, y, z], ring=S)) == 0
    assert ideal_dimension(buchberger([], ring=S)) == 3


def _block_ring(name):
    if name == "semigroup":
        S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
        x, y, z = (S.variable(i) for i in range(3))
        return GradedRing(S, [y * y - x * z, x**3 - y * z, x * x * y - z * z])
    S = PolyRing(F, ("x", "y"))
    x = S.variable(0)
    return GradedRing(S, [x * x] if name == "hypersurface" else [])


def _as_multiset(vectors):
    return Counter(frozenset(v.items()) for v in vectors)


@pytest.mark.parametrize("ring_name", ["poly", "hypersurface", "semigroup"])
@pytest.mark.parametrize("case", range(3))
def test_relative_kernel_by_blocks_matches_one_tracker(ring_name, case):
    """Block-diagonal input with two identical copies, a seed-only block,
    a zero column and interleaved rows: one tracked run over everything
    gives the kernel vectors of the row blocks solved one at a time, which
    is what lets syzygies solve one component at a time."""
    rng = random.Random(f"{ring_name}-{case}")
    R = _block_ring(ring_name)
    templates = [random_block(R, rng) for _ in range(rng.randint(1, 3))]
    blocks = templates + [templates[0], seed_only_block(R, rng)]
    rng.shuffle(blocks)
    seed, cols, rdegs, zero_col = block_diagonal(blocks, rng)
    amb = R.ambient

    def solve(bcols, bseed, idx):
        return [{(idx[t], e): c for (t, e), c in u.items()}
                for u in relative_kernel(amb, bcols, bseed, len(rdegs))]
    want = [u for kern in by_components(cols, seed, solve) for u in kern]
    got = relative_kernel(amb, cols, seed, len(rdegs))
    assert _as_multiset(got) == _as_multiset(want)
    assert {(zero_col, amb._zero_exps): 1} in got


def test_relative_kernel_of_zero_columns_keeps_their_unit_vectors():
    S = PolyRing(F, ("x", "y"))
    zero = S._zero_exps
    cols = [{(0, (1, 0)): 1}, {}, {(1, (0, 1)): 1}]
    got = relative_kernel(S, cols, (), 2)
    assert got == [{(1, zero): 1}]
    assert relative_kernel(S, [{}], (), 1) == [{(0, zero): 1}]
