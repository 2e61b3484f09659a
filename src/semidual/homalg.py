"""Resolutions, Ext, depth, dimension and Hilbert series.

Free resolutions are built by iterated syzygy computations.  Because every
stage's columns are thinned to a minimal generating set first, the boundary
matrices automatically have all entries in the maximal ideal, i.e. the
resolutions are minimal; Betti numbers can be read off the ranks.

Two depth computations are provided on purpose: one through Ext against the
residue field, one through Koszul homology.  They share no code beyond the
Groebner engine, so their agreement is a meaningful runtime cross-check.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .polyring import (
    intpoly_add,
    intpoly_shift,
    intpoly_sub,
    mono_divides,
)
from .groebner import GradedRing
from .fpmod import (
    FPModule,
    ModuleHom,
    RingMatrix,
    TruncationError,
    annihilator,
    cokernel,
    column_degree,
    free_module,
    homology_at,
    homology_is_zero,
    is_injective,
    kernel,
    power_scalar_hom,
    power_with_twists,
    quotient_by_element,
    residue_field_module,
    is_nzd_on,
    syzygies,
    zero_hom,
)
from .groebner import component_blocks, ideal_dimension, solve_blocks

__all__ = [
    "TruncationError",
    "Resolution",
    "free_resolution",
    "k_resolution",
    "projective_dimension",
    "ChainComplex",
    "resolution_complex",
    "ext_module",
    "first_nonvanishing_ext",
    "ext_is_zero",
    "depth",
    "depth_koszul",
    "DepthResult",
    "depth_with_witness",
    "koszul_boundary",
    "module_dimension",
    "homogeneous_candidates",
    "regular_sequence_search",
    "base_change_matrix",
    "base_change_module",
    "hilbert_numerator_module",
    "hilbert_coefficients",
    "monomial_quotient_numerator",
]


# ---------------------------------------------------------------------------
# Free resolutions.

class Resolution:
    """A minimal graded free resolution, extended lazily.

    maps[i] is the boundary F_{i+1} -> F_i; F_0 covers the minimal
    presentation of the module.  complete means the next syzygy module
    vanished, so the projective dimension equals len(maps).  It keeps no
    pointer to the module it resolves, which caches it."""

    __slots__ = ("ring", "f0", "maps", "complete")

    def __init__(self, module: FPModule):
        self.ring = module.ring
        Mm = module.minimal()[0]
        self.f0 = Mm.gen_degrees
        rel = Mm.relations
        if rel.ncols == 0:
            self.maps = []
            self.complete = True
        else:
            self.maps = [rel]
            self.complete = False

    def ensure(self, length: int):
        """Extend until len(maps) >= length or the resolution terminates."""
        while not self.complete and len(self.maps) < length:
            nxt = syzygies(self.maps[-1])
            if not nxt.ncols:
                self.complete = True
            else:
                self.maps.append(nxt)
        return self

    def degrees(self, i: int):
        """Generator degrees of F_i; requires ensure(i) to have run."""
        if i == 0:
            return self.f0
        if i <= len(self.maps):
            return self.maps[i - 1].col_degrees
        if self.complete:
            return ()
        raise ValueError(f"resolution not extended to stage {i}")

    def betti(self, i: int) -> int:
        return len(self.degrees(i))

    def known_length(self) -> int:
        return len(self.maps)


def free_resolution(M: FPModule, length: int) -> Resolution:
    """The cached minimal free resolution of M, extended to the requested
    length (or to its finite end)."""
    if M._resolution is None:
        M._resolution = Resolution(M)
    return M._resolution.ensure(length)


def k_resolution(R: GradedRing, length: int) -> Resolution:
    """The cached resolution of the residue field, shared per ring."""
    if R._kres is None:
        R._kres = Resolution(residue_field_module(R))
    return R._kres.ensure(length)


def projective_dimension(M: FPModule, bound: int) -> int:
    """Exact projective dimension, certified by a terminating minimal
    resolution; raises TruncationError if it runs past the bound."""
    res = free_resolution(M, bound + 1)
    if res.complete:
        return len(res.maps)
    raise TruncationError(
        f"projective dimension exceeds the resource bound {bound}",
        bound=bound)


# ---------------------------------------------------------------------------
# Chain complexes.

class ChainComplex:
    """modules[0..L] with boundaries maps[i]: modules[i] -> modules[i-1]."""

    def __init__(self, modules, maps):
        self.modules = list(modules)
        self.maps = list(maps)
        if len(self.maps) != max(len(self.modules) - 1, 0):
            raise ValueError("one boundary map per adjacent pair required")
        for i, d in enumerate(self.maps, start=1):
            if d.source != self.modules[i] or d.target != self.modules[i - 1]:
                raise ValueError(f"boundary {i} does not match its modules")
        for i in range(1, len(self.maps)):
            comp = self.maps[i - 1].compose(self.maps[i])
            if not comp.is_zero_hom():
                raise ValueError(f"d_{i} . d_{i + 1} is not zero")

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def homology(self, i: int) -> FPModule:
        L = self.length
        if i < 0 or i > L:
            return FPModule(self.modules[0].ring, ())
        if i == 0:
            if L == 0:
                return self.modules[0]
            return cokernel(self.maps[0])
        if i == L:
            return kernel(self.maps[L - 1])[0]
        return homology_at(self.maps[i], self.maps[i - 1])

    def is_exact_at(self, i: int) -> bool:
        L = self.length
        if i <= 0 or i > L:
            raise ValueError("interior exactness only")
        if i == L:
            return is_injective(self.maps[L - 1])
        return homology_is_zero(self.maps[i], self.maps[i - 1])


def resolution_complex(res: Resolution, length: int) -> ChainComplex:
    """The free complex F_length -> ... -> F_0 underlying a resolution."""
    res.ensure(length)
    R = res.ring
    top = min(length, len(res.maps))
    mods = [free_module(R, res.degrees(i)) for i in range(top + 1)]
    maps = [ModuleHom(mods[i], mods[i - 1], res.maps[i - 1])
            for i in range(1, top + 1)]
    return ChainComplex(mods, maps)


# ---------------------------------------------------------------------------
# Ext.

def _ext_boundaries(N: FPModule, t_in, t_out, degrees):
    """(Hom(d_in, N), Hom(d_out, N)) around the free module F of the given
    degrees, for boundaries d_in out of F and d_out into F, taken as their
    duals t_in = d_in.dual() and t_out = d_out.dual().  Both maps share
    the power Hom(F, N) of N.  The first is None when t_in is; the second
    is the zero map into the zero module when t_out is None."""
    h_in = None if t_in is None else power_scalar_hom(N, t_in)
    p = power_with_twists(N, degrees) if h_in is None else h_in.target
    if t_out is None:
        return h_in, zero_hom(p, FPModule(N.ring, ()))
    return h_in, power_scalar_hom(N, t_out, source=p)


def _boundaries_at(res: Resolution, i: int):
    """(d_i, d_{i+1}) of a resolution extended to i + 1, None where the
    boundary does not exist."""
    return (res.maps[i - 1] if i else None,
            res.maps[i] if i < len(res.maps) else None)


def ext_module(M: FPModule, N: FPModule, i: int) -> FPModule:
    """Ext^i(M, N) as a presented module, via Hom of the minimal resolution
    of M into N, assembled in full."""
    if i < 0:
        raise ValueError("negative Ext index")
    res = free_resolution(M, i + 1)
    if res.betti(i) == 0 or N.ngens == 0:
        return FPModule(M.ring, ())
    h_in, h_out = _ext_boundaries(
        N, *(None if d is None else d.dual() for d in _boundaries_at(res, i)),
        res.degrees(i))
    if h_in is None:
        return kernel(h_out)[0]
    return homology_at(h_in, h_out)


def first_nonvanishing_ext(M: FPModule, N: FPModule, lo: int, hi: int):
    """The first i in lo..hi with Ext^i(M, N) != 0, or None.

    Each index is decided by _ext_vanishes on the cached resolution of M,
    by membership checks only.  The verdicts are memoised on N, keyed by
    M's resolution; only the booleans are kept, never the maps."""
    return _first_nonvanishing(free_resolution(M, 0), N, lo, hi)


def _first_nonvanishing(res: Resolution, N: FPModule, lo: int, hi: int):
    """first_nonvanishing_ext for the module that res resolves."""
    if N._ext is None:
        N._ext = {}
    memo = N._ext.setdefault(res, {})
    for i in range(lo, hi + 1):
        if i not in memo:
            memo[i] = _ext_vanishes(res, N, i)
        if not memo[i]:
            return i
    return None


def _ext_vanishes(res: Resolution, N: FPModule, i: int) -> bool:
    """Ext^i(M, N) = 0 for the module M that res resolves, decided one
    connected component of F_{i+1} -> F_i -> F_{i-1} at a time.

    The nodes are the bases of the three free modules, linked by each
    nonzero entry of d_i and d_{i+1}.  Hom(F_*, N) around i is the direct
    sum of the components' subcomplexes, and it is exact at i exactly when
    each summand is.  component_blocks finds the components that touch
    F_i: the rows of d_i and the columns of d_{i+1} are vectors over F_i,
    and one unit vector per basis element of F_i puts each of them in a
    block; an unsplit complex is one block with a key of the same form.  A
    block's key holds its renumbered entries only, so blocks with equal
    keys are one subcomplex up to a twist, which keeps exactness.  Each
    distinct key is decided once per target, on its own small Hom maps, up
    to the first that fails, and kept in N._exact for every later index and
    source; a component with no part in F_{i-1} is decided by
    injectivity."""
    res.ensure(i + 1)
    degs = res.degrees(i)
    if not degs or N.ngens == 0:
        return True
    d_in, d_out = _boundaries_at(res, i)
    t_in = None if d_in is None else d_in.dual()
    R = N.ring
    amb = R.ambient
    nodes = range(len(degs))
    families = ([v for v in t_in.cols if v] if t_in else [],
                d_out.cols if d_out else [],
                [{(j, amb._zero_exps): 1} for j in nodes])
    blocks = component_blocks(families)

    def component(_n, idx, rows, cols, _units):
        f = [degs[j] for j in idx]
        sub_in = sub_out = None
        if rows:
            # the rows of d_i in a block are the columns of its dual; each
            # has an entry, whose degree fixes the column's degree
            sub_in = RingMatrix(
                R, rows, [-d for d in f],
                [amb.wdeg(e) - f[j] for j, e in map(next, map(iter, rows))],
                normal=True)
        if cols:
            sub_out = RingMatrix(R, cols, f,
                                 [column_degree(amb, v, f) for v in cols],
                                 normal=True).dual()
        h_in, h_out = _ext_boundaries(N, sub_in, sub_out, f)
        if h_in is None:
            return is_injective(h_out)
        return homology_is_zero(h_in, h_out)
    if N._exact is None:
        N._exact = {}
    return all(ok for ok, _ in solve_blocks(blocks, component, N._exact))


def ext_is_zero(M: FPModule, N: FPModule, i: int) -> bool:
    """Vanishing of Ext^i(M, N), by membership checks only."""
    return first_nonvanishing_ext(M, N, i, i) is None


# ---------------------------------------------------------------------------
# Depth, two ways.

def depth(M: FPModule) -> int:
    """depth M = min { i : Ext^i(k, M) != 0 }."""
    if M.is_zero_module():
        raise ValueError("the zero module has no depth")
    R = M.ring
    i = _first_nonvanishing(k_resolution(R, 0), M, 0, R.ambient.nvars)
    if i is None:
        raise RuntimeError("Ext(k, M) vanished through the variable count")
    return i


def koszul_boundary(M: FPModule, i: int) -> ModuleHom:
    """Boundary K_i(x; M) -> K_{i-1}(x; M) of the Koszul complex on the
    variables, with the usual alternating signs."""
    R = M.ring
    amb = R.ambient
    n = amb.nvars
    subsets = list(itertools.combinations(range(n), i))
    prev = list(itertools.combinations(range(n), i - 1))
    prev_index = {s: t for t, s in enumerate(prev)}
    wsum = lambda s: sum(amb.weights[j] for j in s)
    var = [amb.variable(j).terms[0][0] for j in range(n)]
    # the boundary on the free Koszul complex, then (x) 1_M
    cols = [{(prev_index[s[:pos] + s[pos + 1:]], var[j]):
             1 if pos % 2 == 0 else -1 for pos, j in enumerate(s)}
            for s in subsets]
    free = RingMatrix(R, cols, [wsum(s) for s in prev],
                      [wsum(s) for s in subsets])
    return power_scalar_hom(M, free)


def depth_koszul(M: FPModule) -> int:
    """depth M = nvars - top nonvanishing Koszul homology degree.  Fully
    independent of the Ext route above."""
    if M.is_zero_module():
        raise ValueError("the zero module has no depth")
    n = M.ring.ambient.nvars
    if n == 0:
        return 0
    boundaries = {}

    def bd(i):
        if i not in boundaries:
            boundaries[i] = koszul_boundary(M, i)
        return boundaries[i]

    for i in range(n, 0, -1):
        if i == n:
            nonzero = not is_injective(bd(n))
        else:
            nonzero = not homology_is_zero(bd(i + 1), bd(i))
        if nonzero:
            return n - i
    return n  # only H_0 = M/mM survives


# ---------------------------------------------------------------------------
# Dimension and regular sequences.

def module_dimension(M: FPModule) -> int:
    """Krull dimension of the support, read from the annihilator; -1 for the
    zero module."""
    return ideal_dimension(annihilator(M))


def homogeneous_candidates(amb, classes, rng, tries: int):
    """Homogeneous candidates of the ambient ring, drawn lazily class by
    class.  Each class is a list of exponent tuples of one degree: its
    monomials come first, then, when it holds two or more, `tries`
    combinations of them with coefficients drawn from rng in the class's
    order, the zero ones skipped.  A consumer that stops early draws
    nothing more, so a seeded search is reproducible."""
    p = amb.field.p
    for monos in classes:
        for e in monos:
            yield amb.monomial(e)
        if len(monos) > 1:
            for _ in range(tries):
                f = amb.from_dict({e: rng.randrange(p) for e in monos})
                if not f.is_zero:
                    yield f


def regular_sequence_search(M: FPModule, degree_bound: int = 4,
                            seed: int = 0, length=None):
    """Greedy M-regular sequence of homogeneous elements, stopping at the
    given length or, without one, when no candidate is regular.

    Each step scans homogeneous_candidates over the standard monomials of
    degrees 1..degree_bound, plus 64 random combinations per degree, with
    one seeded rng for the whole search, so runs are reproducible.  Returns
    (sequence, final quotient)."""
    R = M.ring
    rng = random.Random(seed)
    seq = []
    current = M
    while len(seq) != length and not current.is_zero_module():
        classes = (R.std_monomials(d) for d in range(1, degree_bound + 1))
        cands = homogeneous_candidates(R.ambient, classes, rng, 64)
        found = next((f for f in cands if is_nzd_on(current, f)), None)
        if found is None:
            break
        seq.append(found)
        current = quotient_by_element(current, found)
    return seq, current


# ---------------------------------------------------------------------------
# Base change along a quotient of the same ambient ring.

def base_change_matrix(mat: RingMatrix, R2: GradedRing) -> RingMatrix:
    if R2.ambient != mat.ring.ambient:
        raise ValueError("base change must keep the ambient ring")
    return RingMatrix(R2, mat.cols, mat.row_degrees, mat.col_degrees)


def base_change_module(M: FPModule, R2: GradedRing) -> FPModule:
    """M tensored down to a further quotient: same presentation, new ring."""
    return FPModule(R2, M.gen_degrees, base_change_matrix(M.relations, R2))


# ---------------------------------------------------------------------------
# Hilbert series.  The graded pieces of a presented module are counted by the
# standard monomials of its initial module, one monomial ideal per row.

def _minimalize_monomials(mons):
    out = []
    for m in sorted(mons, key=sum):
        if not any(mono_divides(q, m) for q in out):
            out.append(m)
    return out


def monomial_quotient_numerator(mons, weights) -> dict:
    """Hilbert numerator of S/(monomial ideal), over the shared denominator
    prod (1 - t^w).  Recursion: splitting off one generator m gives
    N(J + m) = N(J) - t^|m| N(J : m)."""
    mons = _minimalize_monomials(mons)
    if not mons:
        return {0: 1}
    piv = mons[-1]
    rest = mons[:-1]
    colon = [tuple(max(a - b, 0) for a, b in zip(m, piv)) for m in rest]
    d = sum(w * e for w, e in zip(weights, piv))
    return intpoly_sub(
        monomial_quotient_numerator(rest, weights),
        intpoly_shift(monomial_quotient_numerator(colon, weights), d))


def hilbert_numerator_module(M: FPModule) -> dict:
    """Numerator of the Hilbert series of M over prod (1 - t^{w_i})."""
    weights = M.ring.ambient.weights
    by_row = M.relgb.lead_exps_by_row()
    out: dict = {}
    for i, g in enumerate(M.gen_degrees):
        piece = monomial_quotient_numerator(by_row.get(i, []), weights)
        out = intpoly_add(out, intpoly_shift(piece, g))
    return out


def hilbert_coefficients(numer: dict, weights, lo: int, hi: int):
    """Coefficients of numer / prod (1 - t^w) in degrees lo..hi inclusive."""
    if hi < lo:
        return []
    start = min([lo] + list(numer)) if numer else lo
    size = hi - start + 1
    arr = [0] * size
    for d, c in numer.items():
        if d <= hi:
            arr[d - start] += c
    for w in weights:
        for idx in range(w, size):
            arr[idx] += arr[idx - w]
    return arr[lo - start:]


# ---------------------------------------------------------------------------
# Depth with a witness.

class DepthResult(NamedTuple):
    value: int
    witness: list
    method: str


def depth_with_witness(M: FPModule, degree_bound: int = 4, seed: int = 0,
                       method: str = "ext_k") -> DepthResult:
    """Depth plus a maximal regular sequence realizing it.

    The value comes from the chosen method (Ext against the residue field, or
    the Koszul complex); the witness from the seeded greedy search, stopped
    at that length.  A shorter witness means the search's degree bound was
    too small, which is an error here, never a silent downgrade.  The
    witness is maximal when the quotient it leaves has depth zero; if not,
    the depth and the search disagree and that raises."""
    value = depth(M) if method == "ext_k" else depth_koszul(M)
    seq, rest = regular_sequence_search(M, degree_bound=degree_bound,
                                        seed=seed, length=value)
    if len(seq) != value:
        raise TruncationError(
            f"regular sequence search found length {len(seq)} but depth is "
            f"{value}; raise the degree bound ({degree_bound})",
            bound=degree_bound)
    left = depth(rest)
    if left:
        raise RuntimeError(
            f"a regular sequence of length {value} leaves depth {left}, "
            f"so the depth is not {value}")
    return DepthResult(value, seq, method)
