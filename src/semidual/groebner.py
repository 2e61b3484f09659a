"""Buchberger engine for ideals and submodules of free modules, plus the
graded quotient rings built on top of it.

Free-module elements are dicts {(row, exps): coeff} ordered position-over-term
(lower row index wins, ties by the ring's monomial order).  Syzygies are
computed by the elimination method: augment each input column with a unit in a
tracking block of rows that every main-block monomial dominates, take a
Groebner basis of the augmented module, and read off the elements supported
entirely in the tracking block.

Pair pruning uses the Gebauer-Moller lcm criteria, which are valid for
modules; the coprime-lead criterion is applied only in the rank-one untracked
(pure ideal) case, where it is sound.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter

from .polyring import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = [
    "InternalError",
    "GroebnerBasis",
    "GradedRing",
    "buchberger",
    "ideal_dimension",
    "radical_membership",
    "ideal_colon_element",
    "ModuleGB",
    "RelativeTracker",
    "IncrementalSpan",
    "relative_kernel",
    "component_blocks",
    "key_columns",
    "vec_from_poly",
    "vec_scale",
    "vec_lead",
]


class InternalError(RuntimeError):
    """An invariant of the computation itself broke: a fault in this
    package, never a verdict about the input."""


# ---------------------------------------------------------------------------
# Free-module vectors.

def vec_from_poly(f: Polynomial) -> dict:
    return {(0, e): c for e, c in f.terms}


def vec_to_poly(v: dict, ring: PolyRing) -> Polynomial:
    return ring.from_dict({e: c for (r, e), c in v.items() if r == 0})


def vec_scale(v: dict, c: int, p: int) -> dict:
    c %= p
    if c == 0:
        return {}
    return {k: c0 * c % p for k, c0 in v.items()}


def vec_lead(v: dict, okey):
    """((row, exps), coeff) of the position-over-term leading term."""
    it = iter(v)
    best = next(it)
    best_key = None
    for k in it:
        if k[0] < best[0]:
            best, best_key = k, None
        elif k[0] == best[0]:
            if best_key is None:
                best_key = okey(best[1])
            key = okey(k[1])
            if key > best_key:
                best, best_key = k, key
    return best, v[best]


class _Engine:
    """Incremental Buchberger over a free module S^r (rows may include a
    low-priority tracking block; the engine is agnostic)."""

    __slots__ = (
        "ring", "p", "okey", "use_product",
        "basis", "leads", "by_row", "pairs", "heap",
    )

    def __init__(self, ring: PolyRing, use_product: bool = False):
        self.ring = ring
        self.p = ring.field.p
        self.okey = ring.order.keys.__getitem__
        self.use_product = use_product
        self.basis = []   # monic vectors
        self.leads = []   # (row, exps)
        self.by_row = {}  # row -> list of (lead exps, basis index)
        self.pairs = {}   # row -> {(i, j): lcm exps}, alive pairs
        self.heap = []    # (deg lcm, okey lcm, i, j) lazy-deleted

    # -- reduction ----------------------------------------------------------

    def reduce_full(self, v: dict) -> dict:
        """Full normal form of v against the current basis."""
        work = dict(v)
        rem = {}
        p = self.p
        while work:
            (row, exps), c = vec_lead(work, self.okey)
            hit = None
            for lexps, idx in self.by_row.get(row, ()):
                if mono_divides(lexps, exps):
                    hit = (lexps, idx)
                    break
            if hit is None:
                rem[(row, exps)] = c
                del work[(row, exps)]
                continue
            shift = mono_div(exps, hit[0])
            g = self.basis[hit[1]]
            for (r2, e2), c2 in g.items():
                k = (r2, mono_mul(e2, shift))
                nc = (work.get(k, 0) - c * c2) % p
                if nc:
                    work[k] = nc
                else:
                    work.pop(k, None)
        return rem

    # -- basis growth -------------------------------------------------------

    def _push_pair(self, row, i, j, lcm):
        self.pairs.setdefault(row, {})[(i, j)] = lcm
        heapq.heappush(self.heap, (mono_degree(lcm), self.okey(lcm), i, j))

    def _append(self, v: dict):
        (row, exps), c = vec_lead(v, self.okey)
        if c != 1:
            v = vec_scale(v, pow(c, self.p - 2, self.p), self.p)
        t = len(self.basis)
        # candidate new pairs against same-row leads
        cand = {}
        for lexps, i in self.by_row.get(row, ()):
            cand[i] = mono_lcm(lexps, exps)
        order = sorted(cand.items())
        keep = []
        for i, li in order:
            for j, lj in order:
                if j != i and mono_divides(lj, li) and (lj != li or j < i):
                    break
            else:
                keep.append(i)
        if self.use_product:
            keep = [
                i for i in keep
                if cand[i] != mono_mul(self.leads[i][1], exps)
            ]
        # prune alive older pairs via the new lead; pairs never cross rows
        alive = self.pairs.get(row, {})
        for (i, j), l in list(alive.items()):
            if (
                mono_divides(exps, l)
                and mono_lcm(self.leads[i][1], exps) != l
                and mono_lcm(self.leads[j][1], exps) != l
            ):
                del alive[(i, j)]
        self.basis.append(v)
        self.leads.append((row, exps))
        self.by_row.setdefault(row, []).append((exps, t))
        for i in keep:
            self._push_pair(row, i, t, cand[i])

    def seed_reduced(self, vectors):
        """Install an already-reduced basis without queueing its internal
        S-pairs.  Sound: those pairs reduce to zero inside the seed, so the
        Buchberger criterion discards them for free; and because the seed
        carries no tracking coordinates, skipping them loses no tracked
        kernel element either."""
        for v in vectors:
            (row, exps), c = vec_lead(v, self.okey)
            if c != 1:
                v = vec_scale(v, pow(c, self.p - 2, self.p), self.p)
            t = len(self.basis)
            self.basis.append(dict(v))
            self.leads.append((row, exps))
            self.by_row.setdefault(row, []).append((exps, t))

    def add_generators(self, vectors):
        for v in vectors:
            h = self.reduce_full(v)
            if h:
                self._append(h)

    def saturate(self):
        while self.heap:
            _, _, i, j = heapq.heappop(self.heap)
            lcm = self.pairs[self.leads[i][0]].pop((i, j), None)
            if lcm is None:
                continue
            gi, gj = self.basis[i], self.basis[j]
            si = mono_div(lcm, self.leads[i][1])
            sj = mono_div(lcm, self.leads[j][1])
            p = self.p
            s = {}
            for (r, e), c in gi.items():
                s[(r, mono_mul(e, si))] = c
            for (r, e), c in gj.items():
                k = (r, mono_mul(e, sj))
                nc = (s.get(k, 0) - c) % p
                if nc:
                    s[k] = nc
                else:
                    s.pop(k, None)
            h = self.reduce_full(s)
            if h:
                self._append(h)

    def add_and_saturate(self, v: dict) -> bool:
        """Add one vector; True if it was not already in the span."""
        h = self.reduce_full(v)
        if not h:
            return False
        self._append(h)
        self.saturate()
        return True

    # -- canonical output ---------------------------------------------------

    def reduced_basis(self):
        """Reduced basis: minimal leads, fully interreduced, monic, sorted.

        A minimal lead never divides a strictly smaller monomial, so with all
        kept elements loaded into one engine it is enough to normal-form each
        element's tail.  The output comes in increasing lead order.
        """
        order = sorted(
            range(len(self.basis)),
            key=lambda i: (-self.leads[i][0], self.okey(self.leads[i][1])),
        )
        kept = []
        kept_leads = []
        for i in order:
            row, exps = self.leads[i]
            if any(r == row and mono_divides(le, exps) for r, le in kept_leads):
                continue
            kept.append(i)
            kept_leads.append((row, exps))
        shared = _Engine(self.ring)
        for j in kept:
            t = len(shared.basis)
            shared.basis.append(self.basis[j])
            shared.leads.append(self.leads[j])
            shared.by_row.setdefault(self.leads[j][0], []).append(
                (self.leads[j][1], t)
            )
        final = []
        for j in kept:
            g = self.basis[j]
            lead = self.leads[j]
            tail = dict(g)
            del tail[lead]
            h = shared.reduce_full(tail)
            h[lead] = 1  # basis vectors are monic
            final.append(h)
        return final


# ---------------------------------------------------------------------------
# Module-level public wrappers.

class ModuleGB:
    """Reduced Groebner basis of the submodule of S^rank generated by the
    given column vectors; supports normal forms and membership."""

    __slots__ = ("ring", "rank", "basis", "_engine")

    def __init__(self, ring: PolyRing, vectors, rank: int, reduced_seed=()):
        eng = _Engine(ring, use_product=False)
        eng.seed_reduced(reduced_seed)
        eng.add_generators(vectors)
        eng.saturate()
        self.ring, self.rank, self.basis = ring, rank, eng.reduced_basis()
        self._engine = None

    @classmethod
    def from_reduced(cls, ring: PolyRing, basis, rank: int) -> "ModuleGB":
        """Wrap vectors already known to form a reduced basis, e.g. the block
        union of reduced bases living in disjoint row blocks."""
        self = object.__new__(cls)
        self.ring, self.rank, self.basis = ring, rank, list(basis)
        self._engine = None
        return self

    def _reducer(self) -> _Engine:
        """The basis in an engine, built on first use: most only seed runs."""
        if self._engine is None:
            self._engine = _Engine(self.ring)
            self._engine.seed_reduced(self.basis)
        return self._engine

    def nf(self, v: dict) -> dict:
        return self._reducer().reduce_full(v)

    def contains(self, v: dict) -> bool:
        return not self.nf(v)

    def lead_exps_by_row(self) -> dict:
        """row -> list of leading exponent tuples, for standard-monomial
        enumeration in quotient presentations."""
        return {row: [exps for exps, _ in leads]
                for row, leads in self._reducer().by_row.items()}


class IncrementalSpan:
    """Membership oracle for a growing submodule of a free module.  Feeding
    candidates in weakly increasing degree makes the kept ones a minimal
    generating set modulo whatever the span was seeded with.

    reduced_seed vectors must already form a reduced basis (e.g. a cached
    relation basis); they are installed without mutual S-pairs."""

    __slots__ = ("_eng",)

    def __init__(self, ring: PolyRing, vectors=(), reduced_seed=()):
        self._eng = _Engine(ring)
        self._eng.seed_reduced(reduced_seed)
        self._eng.add_generators(vectors)
        self._eng.saturate()

    def add(self, v: dict) -> bool:
        """True if v was not already in the span."""
        return self._eng.add_and_saturate(v)

    def contains(self, v: dict) -> bool:
        return not self._eng.reduce_full(v)


class RelativeTracker:
    """Tracked Groebner run relative to a pre-reduced seed basis.

    Tracking coefficients are recorded on the given columns only; the seed
    vectors act as reducers and pair partners but never pair among themselves.
    This turns 'kernel of a map into coker(seed)' from a full syzygy run over
    every relation column into one over just the map columns, which is the
    difference between minutes and milliseconds on large direct sums.

    The basis is kept saturated, not interreduced; the callers thin
    generator lists themselves."""

    __slots__ = ("ring", "rank", "ncols", "_eng")

    def __init__(self, ring: PolyRing, columns, seed, rank: int):
        self.ring = ring
        self.rank = rank
        self.ncols = len(columns)
        eng = _Engine(ring, use_product=False)
        eng.seed_reduced(seed)
        aug = []
        for j, col in enumerate(columns):
            v = dict(col)
            v[(rank + j, ring._zero_exps)] = 1
            aug.append(v)
        eng.add_generators(aug)
        eng.saturate()
        self._eng = eng

    def kernel_vectors(self):
        """Vectors in S^ncols whose pairing with the columns lands in the seed
        span: the basis elements with no term left in the main block."""
        out = []
        for v, (row, _) in zip(self._eng.basis, self._eng.leads):
            if row >= self.rank:
                if any(r < self.rank for (r, _) in v):
                    raise InternalError(
                        f"kernel vector led by tracking row {row} has a "
                        f"term in the main block (rank {self.rank})")
                out.append({(r - self.rank, e): c for (r, e), c in v.items()})
        return out

    def reduce_with_rep(self, v: dict):
        """(main remainder, column -> Polynomial coefficient) for v reduced
        modulo the columns and the seed span."""
        rem = self._eng.reduce_full(dict(v))
        main = {}
        repc: dict = {}
        for (r, e), c in rem.items():
            if r < self.rank:
                main[(r, e)] = c
            else:
                repc.setdefault(r - self.rank, {})[e] = -c % self.ring.field.p
        rep = {j: self.ring.from_dict(d) for j, d in repc.items()}
        return main, rep


def relative_kernel(ring: PolyRing, columns, seed, rank: int):
    """Coefficient vectors a over the columns with sum a_j * column_j in the
    span of the seed (an already-reduced basis)."""
    return RelativeTracker(ring, columns, seed, rank).kernel_vectors()


def component_blocks(vecs):
    """One (key, indices) per connected component of the columns vecs, in
    order of first column: two columns are linked when they share a row,
    and indices are the component's columns.  A zero column touches no row,
    so it is a component of its own.

    key is (nrows, term counts, rows, exponents, coefficients): the
    component's columns in order, as flat tuples that builtins fill, with
    its nrows rows renumbered 0..nrows-1 in increasing order so that
    position-over-term order is kept.  Components with equal keys are
    copies of one another, and key_columns gives their columns back.

    Pairs never cross rows and a reducer only touches rows of its own
    component, so an engine run over one component takes the same steps in
    the same relative order as a run over all the columns does in it."""
    parent = {}

    def find(r):
        root = r
        while parent[root] != root:
            root = parent[root]
        while r != root:
            parent[r], r = root, parent[r]
        return root

    for v in vecs:
        root = None
        for r, _ in v:
            q = find(r) if r in parent else parent.setdefault(r, r)
            if root is None:
                root = q
            elif q != root:
                parent[q] = root
    blocks = {}
    for j, v in enumerate(vecs):
        # a zero column gets a root no row has
        root = find(next(iter(v))[0]) if v else -1 - j
        blocks.setdefault(root, []).append(j)
    new = {}  # row -> its index in its component
    size = {}
    for r in sorted(parent):
        b = find(r)
        new[r] = size[b] = size.get(b, 0)
        size[b] += 1
    out = []
    for b, idx in blocks.items():
        cols = [vecs[j] for j in idx]
        terms = list(itertools.chain.from_iterable(cols))
        out.append(((size.get(b, 0), tuple(map(len, cols)),
                     tuple(map(new.__getitem__, map(itemgetter(0), terms))),
                     tuple(map(itemgetter(1), terms)),
                     tuple(itertools.chain.from_iterable(
                         map(dict.values, cols)))), idx))
    return out


def key_columns(key):
    """The columns of a component_blocks key, as fresh dicts."""
    _, lens, rows, exps, coeffs = key
    items = zip(zip(rows, exps), coeffs)
    return [dict(itertools.islice(items, n)) for n in lens]


# ---------------------------------------------------------------------------
# Ideal-level interface.

class GroebnerBasis:
    """A reduced Groebner basis of an ideal, tagged with its order."""

    __slots__ = ("ring", "order", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens, order: MonomialOrder, _reduced=False):
        self.ring = ring
        self.order = order
        if not _reduced:
            raise ValueError("construct via buchberger()")
        self.gens = tuple(gens)
        self._gb = _Engine(ring)
        self._gb.seed_reduced(vec_from_poly(g) for g in self.gens)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def leading_monomials(self):
        return tuple(g.leading()[1] for g in self.gens)

    def nf(self, f: Polynomial) -> Polynomial:
        if f.is_zero or not self.gens:
            return f
        rem = self._gb.reduce_full(vec_from_poly(f))
        return vec_to_poly(rem, self.ring)

    def contains(self, f: Polynomial) -> bool:
        return self.nf(f).is_zero

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.order, self.gens))

    def __repr__(self):
        return f"GroebnerBasis({len(self.gens)} gens over {self.ring!r})"


def buchberger(gens, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`, under the
    ring's order."""
    gens = [g for g in gens if not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("empty generator list needs an explicit ring")
        ring = gens[0].ring
    eng = _Engine(ring, use_product=True)
    eng.add_generators(vec_from_poly(g) for g in gens)
    eng.saturate()
    basis = [vec_to_poly(v, ring) for v in eng.reduced_basis()]
    return GroebnerBasis(ring, basis, ring.order, _reduced=True)


def ideal_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of S/I from the initial ideal: the maximum size of a
    variable subset meeting the support of no leading monomial."""
    n = G.ring.nvars
    leads = [tuple(i for i, e in enumerate(exps) if e)
             for exps in G.leading_monomials()]
    if any(not s for s in leads):
        return -1  # unit ideal
    best = -1
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            sset = set(subset)
            if all(not set(s) <= sset for s in leads):
                return size
    return best


def radical_membership(f: Polynomial, G: GroebnerBasis) -> bool:
    """Membership f in rad(I), by adjoining an inverse variable: f lies in the
    radical iff 1 lies in I + (1 - t*f) in S[t]."""
    if f.is_zero:
        return True
    ring = G.ring
    tname = "t"
    while tname in ring.names:
        tname += "_"
    ext = PolyRing(ring.field, ring.names + (tname,),
                   ring.weights + (1,), MonomialOrder("degrevlex"))

    def up(g):
        return ext.from_dict({e + (0,): c for e, c in g.terms})

    t = ext.variable(ext.nvars - 1)
    gens = [up(g) for g in G.gens]
    gens.append(ext.one() - t * up(f))
    gb = buchberger(gens, ring=ext)
    return gb.contains(ext.one())


def ideal_colon_element(G: GroebnerBasis, f: Polynomial) -> GroebnerBasis:
    """The ideal quotient (I : f) = {a : a*f in I}, via syzygies of [f | gens]."""
    ring = G.ring
    if f.is_zero:
        # (I : 0) = whole ring
        return buchberger([ring.one()], ring=ring)
    cols = [vec_from_poly(f)] + [vec_from_poly(g) for g in G.gens]
    syz = relative_kernel(ring, cols, (), 1)
    quot = []
    for s in syz:
        a = ring.from_dict({e: c for (j, e), c in s.items() if j == 0})
        if not a.is_zero:
            quot.append(a)
    if not quot:
        return buchberger([], ring=ring)
    return buchberger(quot, ring=ring)


# ---------------------------------------------------------------------------
# Graded quotient rings.

class GradedRing:
    """A graded quotient R = S/I of a weighted polynomial ring by a
    homogeneous ideal, presented by a reduced Groebner basis.  Plays the role
    of a local ring with maximal ideal generated by the variables."""

    __slots__ = ("ambient", "ideal", "_dim", "_std_cache", "_kres", "_syz",
                 "name")

    def __init__(self, ambient: PolyRing, ideal_gens, name: str = "R"):
        self.ambient = ambient
        if isinstance(ideal_gens, GroebnerBasis) and ideal_gens.ring == ambient:
            gens = list(ideal_gens.gens)
            self.ideal = ideal_gens
        else:
            gens = [g for g in ideal_gens if not g.is_zero]
            self.ideal = buchberger(gens, ring=ambient)
        for g in gens:
            if not g.is_homogeneous():
                raise ValueError(
                    f"defining ideal generator {g} is not homogeneous for "
                    f"weights {ambient.weights}")
        if any(g.wdeg() == 0 for g in self.ideal.gens):
            raise ValueError("defining ideal is the unit ideal")
        self._dim = None
        self._std_cache = {}
        self._kres = None
        self._syz = {}
        self.name = name

    @property
    def field(self):
        return self.ambient.field

    @property
    def order(self):
        return self.ambient.order

    def nf(self, f: Polynomial) -> Polynomial:
        return self.ideal.nf(f)

    @property
    def dimension(self) -> int:
        if self._dim is None:
            self._dim = ideal_dimension(self.ideal)
        return self._dim

    def std_monomials(self, d: int):
        """Exponent tuples of weighted degree d that avoid the initial ideal:
        a k-basis of the degree-d piece of R."""
        if d not in self._std_cache:
            leads = self.ideal.leading_monomials()
            out = [
                e for e in self.ambient.monomials_of_wdeg(d)
                if not any(mono_divides(l, e) for l in leads)
            ]
            self._std_cache[d] = out
        return self._std_cache[d]

    def colon_by(self, f: Polynomial) -> GroebnerBasis:
        return ideal_colon_element(self.ideal, f)

    def zerodivisor_witness(self, f: Polynomial):
        """None when f is a nonzerodivisor on R, that is (I : f) = I; else
        a generator g of (I : f) outside I, so g*f = 0 and g != 0 in R."""
        colon = self.colon_by(self.nf(f))
        return next((g for g in colon.gens if not self.ideal.contains(g)),
                    None)

    def quotient_by(self, x: Polynomial) -> "GradedRing":
        """The ring R/(x) for homogeneous x, as a graded quotient of the same
        ambient ring."""
        x = self.nf(x)
        if not x.is_homogeneous():
            raise ValueError("can only divide by a homogeneous element")
        gens = list(self.ideal.gens) + [x]
        return GradedRing(self.ambient, gens, name=f"{self.name}/({x})")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedRing)
            and self.ambient == other.ambient
            and self.ideal.gens == other.ideal.gens
        )

    def __hash__(self):
        return hash((self.ambient, self.ideal.gens))

    def __repr__(self):
        if self.ideal.is_zero_ideal:
            return f"GradedRing({self.ambient!r})"
        return f"GradedRing({self.ambient!r} / {len(self.ideal.gens)} gens)"

    def describe(self) -> dict:
        return {
            "char": self.field.p,
            "vars": list(self.ambient.names),
            "weights": list(self.ambient.weights),
            "ideal": [str(g) for g in self.ideal.gens],
        }
