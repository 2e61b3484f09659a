"""Finitely presented graded modules over graded quotient rings.

A module is a cokernel presentation: a tuple of generator degrees and a graded
relation matrix.  All vector computations happen in the ambient polynomial
ring; the defining ideal enters through inflation columns I*e_i appended to
every Groebner run, so normal forms are reduced modulo relations and modulo
the ideal at once.

Presentations are not assumed minimal.  minimal() prunes unit entries from the
relation matrix and then discards redundant relation columns in increasing
degree; feeding minimally generating columns into iterated syzygy runs is what
makes resolutions come out minimal without any extra work.
"""

from __future__ import annotations

import random

from .polyring import Polynomial, mono_divides, mono_mul
from .groebner import (
    GradedRing,
    GroebnerBasis,
    IncrementalSpan,
    ModuleGB,
    RelativeTracker,
    buchberger,
    key_columns,
    relative_kernel,
)
from .linalg import is_invertible, nullspace

__all__ = [
    "TruncationError",
    "RingMatrix",
    "block_matrix",
    "FPModule",
    "ModuleHom",
    "HomModule",
    "free_module",
    "residue_field_module",
    "direct_sum",
    "power_with_twists",
    "power_scalar_hom",
    "tensor_product",
    "kernel",
    "kernel_columns",
    "submodule",
    "kernel_generators",
    "syzygies",
    "minimal_generators",
    "unit_pivots",
    "cokernel",
    "image",
    "homology_at",
    "homology_is_zero",
    "is_injective",
    "is_surjective",
    "hom_is_isomorphism",
    "is_isomorphic",
    "annihilator",
    "quotient_by_element",
    "kernel_of_scalar",
    "is_nzd_on",
    "degree_zero_hom_space",
    "scalar_hom",
    "identity_hom",
    "zero_hom",
    "tuple_to_vec",
    "column_degree",
    "inflation_vectors",
    "min_generate_columns",
    "in_span",
]


class TruncationError(RuntimeError):
    """A computation hit its configured resource bound before reaching a
    certified answer.  Callers must treat this as 'unknown', never as a
    verified result."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


# ---------------------------------------------------------------------------
# Column vectors: {(row, exps): coeff}, the Groebner engine's format.  Dense
# columns (tuples of ambient polynomials, one per row) appear only at the
# interfaces that take or print them.

def tuple_to_vec(col) -> dict:
    v = {}
    for i, f in enumerate(col):
        for e, c in f.terms:
            v[(i, e)] = c
    return v


def column_degree(amb, v: dict, row_degrees):
    """Common weighted degree of a homogeneous column vector; None if zero."""
    degs = {amb.wdeg(e) + row_degrees[i] for i, e in v}
    if len(degs) > 1:
        raise ValueError("column is not homogeneous")
    return degs.pop() if degs else None


def inflation_vectors(ring: GradedRing, rank: int):
    """The columns g*e_i for every defining-ideal generator g and row i; these
    make Groebner runs over the ambient ring compute quotient-ring answers."""
    out = []
    for i in range(rank):
        for g in ring.ideal.gens:
            out.append({(i, e): c for e, c in g.terms})
    return out


def min_generate_columns(ring: GradedRing, cols, row_degrees,
                         reduced_seed=None):
    """Greedy minimal generation: feed homogeneous column vectors in
    increasing degree into a span seeded with the inflation columns, keep
    the ones that enlarge it.  Returns [(original index, column, degree)].

    When the caller already holds a reduced basis of the modulo-part (a
    cached relgb, say), passing it as reduced_seed skips re-saturating it.
    """
    if reduced_seed is None:
        reduced_seed = inflation_vectors(ring, len(row_degrees))
    span = IncrementalSpan(ring.ambient, reduced_seed=reduced_seed)
    return _enlarging_columns(span, ring.ambient, cols, row_degrees)


def _enlarging_columns(span, amb, cols, row_degrees):
    """Feed the nonzero columns into span in increasing degree, ties by
    index, and keep the ones that enlarge it, as [(original index,
    column, degree)]; span ends as the saturated span of all of them."""
    staged = []
    for j, v in enumerate(cols):
        d = column_degree(amb, v, row_degrees)
        if d is not None:
            staged.append((d, j, v))
    staged.sort(key=lambda t: (t[0], t[1]))
    return [(j, v, d) for d, j, v in staged if span.add(v)]


def in_span(amb, seed, gens, vecs) -> bool:
    """True when every vector of vecs lies in the span of gens and of the
    reduced basis seed."""
    span = IncrementalSpan(amb, gens, reduced_seed=seed)
    return all(span.contains(u) for u in vecs)


# ---------------------------------------------------------------------------
# Graded matrices.

class RingMatrix:
    """Matrix over a graded quotient ring with degree-labelled rows and
    columns; entry (i, j) is zero or homogeneous of degree
    col_degrees[j] - row_degrees[i].

    Stored by columns: cols[j] is column j as a {(row, exps): coeff}
    vector holding the nonzero entries only, each in normal form modulo
    the defining ideal, rows ascending and each entry's terms in the ring
    order.  The vectors are shared with callers, who must not mutate
    them.  normal=True keeps columns already so stored and checked."""

    __slots__ = ("ring", "cols", "row_degrees", "col_degrees")

    def __init__(self, ring: GradedRing, cols, row_degrees, col_degrees,
                 normal=False):
        self.ring = ring
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)
        cols = tuple(cols)
        if len(cols) != len(self.col_degrees):
            raise ValueError("column count does not match column degrees")
        if normal:
            self.cols = cols
            return
        amb = ring.ambient
        nrows = len(self.row_degrees)
        checked = {}  # entry terms -> (normal form, degree), per build
        out = []
        for j, v in enumerate(cols):
            by_row = {}
            for (i, e), c in v.items():
                by_row.setdefault(i, {})[e] = c
            col = {}
            for i in sorted(by_row):
                if not 0 <= i < nrows:
                    raise ValueError(f"row {i} of column {j} is out of range")
                terms = by_row[i]
                key = tuple(terms.items())
                hit = checked.get(key)
                if hit is None:
                    f = ring.nf(amb.from_dict(terms))
                    hit = checked[key] = (f, f.homogeneous_degree())
                f, d = hit
                if d is None:
                    continue
                want = self.col_degrees[j] - self.row_degrees[i]
                if d != want:
                    raise ValueError(
                        f"entry ({i},{j}) = {f} has degree {d}, expected {want}")
                for e, c in f.terms:
                    col[(i, e)] = c
            out.append(col)
        self.cols = tuple(out)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, ring: GradedRing, rows, row_degrees,
                  col_degrees) -> "RingMatrix":
        """The matrix with the given dense rows of ambient polynomials."""
        row_degrees = tuple(row_degrees)
        col_degrees = tuple(col_degrees)
        rows = [tuple(r) for r in rows]
        if len(rows) != len(row_degrees):
            raise ValueError("row count does not match row degrees")
        if any(len(r) != len(col_degrees) for r in rows):
            raise ValueError("ragged matrix")
        cols = [{} for _ in col_degrees]
        for i, row in enumerate(rows):
            for j, f in enumerate(row):
                for e, c in f.terms:
                    cols[j][(i, e)] = c
        return cls(ring, cols, row_degrees, col_degrees)

    @classmethod
    def from_columns(cls, ring: GradedRing, cols, row_degrees,
                     col_degrees=None) -> "RingMatrix":
        """The matrix with the given dense columns; their degrees are read
        off the columns when not given."""
        row_degrees = tuple(row_degrees)
        cols = [tuple(c) for c in cols]
        if any(len(c) != len(row_degrees) for c in cols):
            raise ValueError("column length does not match row degrees")
        vecs = [tuple_to_vec(c) for c in cols]
        if col_degrees is None:
            col_degrees = [column_degree(ring.ambient, v, row_degrees)
                           for v in vecs]
            if None in col_degrees:
                raise ValueError("cannot infer the degree of a zero column")
        return cls(ring, vecs, row_degrees, col_degrees)

    @classmethod
    def identity(cls, ring: GradedRing, degrees) -> "RingMatrix":
        zero = ring.ambient._zero_exps
        degrees = tuple(degrees)
        return cls(ring, [{(i, zero): 1} for i in range(len(degrees))],
                   degrees, degrees)

    @classmethod
    def zero(cls, ring: GradedRing, row_degrees, col_degrees) -> "RingMatrix":
        col_degrees = tuple(col_degrees)
        return cls(ring, [{} for _ in col_degrees], row_degrees, col_degrees)

    # -- shape and views ------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_degrees)

    @property
    def ncols(self) -> int:
        return len(self.col_degrees)

    def col_vec(self, j: int) -> dict:
        return self.cols[j]

    def dual(self) -> "RingMatrix":
        """The transpose with negated degrees: Hom(d, R) for the map d
        between free modules that self presents.  Column i is row i of
        self, {(j, exps): coeff}, filled in column order, so it is stored
        as the normalising constructor would store it."""
        rows = [{} for _ in self.row_degrees]
        for j, v in enumerate(self.cols):
            for (i, e), c in v.items():
                rows[i][(j, e)] = c
        return RingMatrix(self.ring, rows, [-d for d in self.col_degrees],
                          [-d for d in self.row_degrees], normal=True)

    def _entry_polys(self, v: dict) -> dict:
        """{row: polynomial} for the nonzero entries of a stored column."""
        terms = {}
        for (i, e), c in v.items():
            terms.setdefault(i, []).append((e, c))
        amb = self.ring.ambient
        return {i: Polynomial(amb, tuple(t)) for i, t in terms.items()}

    def column(self, j: int):
        """Column j as a dense tuple of ambient polynomials."""
        zero = self.ring.ambient.zero()
        polys = self._entry_polys(self.cols[j])
        return tuple(polys.get(i, zero) for i in range(self.nrows))

    @property
    def entries(self):
        """Dense rows of ambient polynomials, built on each access; for
        printing and small eliminations only."""
        zero = self.ring.ambient.zero()
        rows = [[zero] * self.ncols for _ in self.row_degrees]
        for j, v in enumerate(self.cols):
            for i, f in self._entry_polys(v).items():
                rows[i][j] = f
        return tuple(map(tuple, rows))

    # -- arithmetic ---------------------------------------------------------

    def apply_vec(self, v: dict) -> dict:
        """The product with a column vector, as an ambient vector not yet
        reduced modulo the defining ideal."""
        p = self.ring.field.p
        out = {}
        for (a, e2), c2 in v.items():
            for (i, e1), c1 in self.cols[a].items():
                k = (i, mono_mul(e1, e2))
                c = (out.get(k, 0) + c1 * c2) % p
                if c:
                    out[k] = c
                else:
                    del out[k]
        return out

    def mul(self, other: "RingMatrix") -> "RingMatrix":
        """Matrix product; the degree ledgers must compose up to a uniform
        shift, which the product's column degrees absorb."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        offset = 0
        if self.ncols:
            offs = {c - r for c, r in zip(self.col_degrees, other.row_degrees)}
            if len(offs) != 1:
                raise ValueError("degree ledgers do not compose")
            offset = offs.pop()
        return RingMatrix(self.ring, [self.apply_vec(v) for v in other.cols],
                          self.row_degrees,
                          tuple(d + offset for d in other.col_degrees))

    def add(self, other: "RingMatrix") -> "RingMatrix":
        if (self.row_degrees, self.col_degrees) != (
                other.row_degrees, other.col_degrees):
            raise ValueError("degree ledgers differ in matrix sum")
        p = self.ring.field.p
        cols = []
        for v, w in zip(self.cols, other.cols):
            s = dict(v)
            for k, c in w.items():
                c = (s.get(k, 0) + c) % p
                if c:
                    s[k] = c
                else:
                    del s[k]
            cols.append(s)
        return RingMatrix(self.ring, cols, self.row_degrees, self.col_degrees)

    def sub(self, other: "RingMatrix") -> "RingMatrix":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "RingMatrix":
        p = self.ring.field.p
        cols = [{k: c0 * c % p for k, c0 in v.items()} for v in self.cols]
        return RingMatrix(self.ring, cols, self.row_degrees, self.col_degrees)

    def twist(self, d: int) -> "RingMatrix":
        return RingMatrix(self.ring, self.cols,
                          tuple(r - d for r in self.row_degrees),
                          tuple(c - d for c in self.col_degrees), normal=True)

    def stack_cols(self, other: "RingMatrix") -> "RingMatrix":
        """[self | other]; row degrees must agree."""
        if self.row_degrees != other.row_degrees:
            raise ValueError("row degrees differ")
        return RingMatrix(self.ring, self.cols + other.cols, self.row_degrees,
                          self.col_degrees + other.col_degrees)

    # -- queries --------------------------------------------------------

    @property
    def is_zero_matrix(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.row_degrees == other.row_degrees
            and self.col_degrees == other.col_degrees
            and self.cols == other.cols
        )

    def __hash__(self):
        # the storage order is canonical, so equal matrices hash alike
        return hash((self.ring, self.row_degrees, self.col_degrees,
                     tuple(tuple(v.items()) for v in self.cols)))

    def to_rows_str(self):
        return [[str(f) for f in row] for row in self.entries]

    def __str__(self):
        if not self.nrows:
            return "[]"
        return "[" + "; ".join(
            ", ".join(str(f) for f in row) for row in self.entries) + "]"

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols} over {self.ring.name})"


def block_matrix(ring: GradedRing, placed, row_degrees,
                 col_degrees) -> RingMatrix:
    """The matrix whose columns are given by placed = [(v, stride,
    offset)]: column vector v with row i moved to row i*stride + offset.
    T (x) 1_n is [(column j of T, n, b) for each j, then b < n], as
    power_scalar_hom places it, and a block diagonal puts each block's
    columns at its row offset.  The cost grows with the number of nonzeros
    placed, not with the size of the result.  Each v is stored as
    RingMatrix columns are, which placing keeps, so each entry's degree is
    read once per v and only checked."""
    amb = ring.ambient
    cols, degs = [], {}  # id(v) -> {row: entry degree}; placed keeps v alive
    for j, ((v, s, o), cdeg) in enumerate(
            zip(placed, col_degrees, strict=True)):
        if id(v) not in degs:
            degs[id(v)] = {i: amb.wdeg(e) for i, e in v}
        for i, d in degs[id(v)].items():
            r = i * s + o
            if not 0 <= r < len(row_degrees):
                raise ValueError(f"row {r} of column {j} is out of range")
            want = cdeg - row_degrees[r]
            if d != want:
                f = amb.from_dict({e: c for (q, e), c in v.items() if q == i})
                raise ValueError(
                    f"entry ({r},{j}) = {f} has degree {d}, expected {want}")
        cols.append({(i * s + o, e): c for (i, e), c in v.items()})
    return RingMatrix(ring, cols, row_degrees, col_degrees, normal=True)


def unit_pivots(R: GradedRing, rows):
    """Gauss-Jordan elimination on unit pivots by row operations, for the
    dense rows of a graded matrix over R.

    The next pivot is the first entry with a nonzero constant term,
    scanning the rows not yet pivoted and then the columns not yet
    pivoted in input order; such an entry is a nonzero scalar, since the
    entries are homogeneous.  Its row is scaled to make the pivot 1 and
    its column is cleared in every other row.  Returns (pivots, W, L):
    the (row, column) pivots in input indices, the reduced rows W and the
    row-operation matrix L, with W = L.rows.  Column j of W is the unit
    vector e_i for each pivot (i, j), and on the rows and columns left
    unpivoted W holds the Schur complement of the pivots, which has no
    unit entry."""
    amb = R.ambient
    one, zero = amb.one(), amb.zero()
    W = [list(r) for r in rows]
    L = [[one if i == j else zero for j in range(len(W))]
         for i in range(len(W))]
    free_rows = list(range(len(W)))
    free_cols = list(range(len(W[0]) if W else 0))
    pivots = []
    while True:
        hit = next(((i, j) for i in free_rows for j in free_cols
                    if W[i][j].constant_coefficient()), None)
        if hit is None:
            return pivots, W, L
        i, j = hit
        pivots.append(hit)
        free_rows.remove(i)
        free_cols.remove(j)
        cinv = R.field.inv(W[i][j].constant_coefficient())
        W[i] = [f * cinv for f in W[i]]
        L[i] = [f * cinv for f in L[i]]
        for r, row in enumerate(W):
            f = row[j]
            if r == i or f.is_zero:
                continue
            W[r] = [a if b.is_zero else R.nf(a - f * b)
                    for a, b in zip(row, W[i])]
            L[r] = [a if b.is_zero else R.nf(a - f * b)
                    for a, b in zip(L[r], L[i])]


# ---------------------------------------------------------------------------
# Modules.

class FPModule:
    """coker(relations) with the given generator degrees.

    _ext holds Ext vanishing verdicts into this module, per resolution of
    the source and per index, and _exact the exactness of Hom into this
    module per component key (see homalg.first_nonvanishing_ext).  No
    cache of a module points back at it."""

    __slots__ = ("ring", "gen_degrees", "relations",
                 "_relgb", "_min", "_ann", "_resolution", "_ext", "_exact")

    def __init__(self, ring: GradedRing, gen_degrees, relations=None):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        if relations is None:
            relations = RingMatrix.zero(ring, self.gen_degrees, ())
        if relations.row_degrees != self.gen_degrees:
            raise ValueError("relation rows do not match generator degrees")
        if relations.ring != ring:
            raise ValueError("relations live over a different ring")
        self.relations = relations
        self._relgb = None
        self._min = None
        self._ann = None
        self._resolution = None
        self._ext = None
        self._exact = None

    @property
    def ngens(self) -> int:
        return len(self.gen_degrees)

    @property
    def relgb(self) -> ModuleGB:
        """Reduced basis of the relation submodule, inflation included."""
        if self._relgb is None:
            infl = inflation_vectors(self.ring, self.ngens)
            if self.relations.ncols == 0:
                # the inflation block is already a reduced basis
                self._relgb = ModuleGB.from_reduced(
                    self.ring.ambient, infl, self.ngens)
            else:
                vecs = [self.relations.col_vec(j)
                        for j in range(self.relations.ncols)]
                self._relgb = ModuleGB(self.ring.ambient, vecs, self.ngens,
                                       reduced_seed=infl)
        return self._relgb

    # -- element normal forms -------------------------------------------

    def contains_zero(self, col) -> bool:
        """True when the dense column is zero in the module."""
        return self.relgb.contains(tuple_to_vec(col))

    def is_zero_module(self) -> bool:
        zero = self.ring.ambient._zero_exps
        return all(self.relgb.contains({(i, zero): 1})
                   for i in range(self.ngens))

    # -- graded pieces ----------------------------------------------------

    def std_module_monomials(self, d: int):
        """(row, exps) pairs forming a k-basis of the degree-d piece, read off
        the initial module of the relations."""
        by_row = self.relgb.lead_exps_by_row()
        out = []
        for i, g in enumerate(self.gen_degrees):
            leads = by_row.get(i, ())
            for e in self.ring.ambient.monomials_of_wdeg(d - g):
                if not any(mono_divides(l, e) for l in leads):
                    out.append((i, e))
        return out

    def graded_piece_dim(self, d: int) -> int:
        return len(self.std_module_monomials(d))

    # -- constructions ------------------------------------------------------

    def twist(self, d: int) -> "FPModule":
        out = FPModule(self.ring,
                       tuple(g - d for g in self.gen_degrees),
                       self.relations.twist(d))
        out._relgb = self._relgb  # relation vectors are degree-blind
        return out

    def minimal(self):
        """(N, proj, inj): a minimal presentation with mutually inverse
        degree-zero maps to and from self.  Unit entries in the relation
        matrix are eliminated by unit_pivots, which drops each pivot's
        generator; the relations left on the surviving generators are then
        thinned to a minimal generating set in increasing degree.  The
        span that thins them holds the inflation and the kept relations,
        so its reduced basis is N's relgb, which is stored at once; with
        no relation kept, relgb stays the inflation block.

        _min keeps N and the two matrices only, and the maps are rebuilt
        per call, so that no cached object points back at self."""
        if self._min is None:
            R = self.ring
            amb = R.ambient
            pivots, W, L = unit_pivots(R, self.relations.entries)
            pivot_rows = {i for i, _ in pivots}
            pivot_cols = {j for _, j in pivots}
            surviving = [i for i in range(self.ngens) if i not in pivot_rows]
            gens = tuple(self.gen_degrees[i] for i in surviving)
            cols = [tuple_to_vec([W[i][j] for i in surviving])
                    for j in range(self.relations.ncols)
                    if j not in pivot_cols]
            span = IncrementalSpan(
                amb, reduced_seed=inflation_vectors(R, len(gens)))
            kept = _enlarging_columns(span, amb, cols, gens)
            N = FPModule(R, gens, RingMatrix(R, [v for _, v, _ in kept],
                                             gens, [d for _, _, d in kept]))
            if kept:
                N._relgb = ModuleGB.from_reduced(
                    amb, span.reduced_basis(), len(gens))
            zero = amb._zero_exps
            self._min = (
                N,
                RingMatrix.from_rows(R, [L[i] for i in surviving], gens,
                                     self.gen_degrees),
                RingMatrix(R, [{(o, zero): 1} for o in surviving],
                           self.gen_degrees, gens))
        N, proj, inj = self._min
        return N, ModuleHom(self, N, proj), ModuleHom(N, self, inj)

    def describe(self) -> dict:
        return {
            "gens": list(self.gen_degrees),
            "relations": self.relations.to_rows_str(),
            "relation_degrees": list(self.relations.col_degrees),
        }

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FPModule)
            and self.ring == other.ring
            and self.gen_degrees == other.gen_degrees
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.ring, self.gen_degrees, self.relations))

    def __repr__(self):
        return (f"FPModule({self.ngens} gens, "
                f"{self.relations.ncols} relations over {self.ring.name})")


def free_module(ring: GradedRing, degrees) -> FPModule:
    return FPModule(ring, tuple(degrees))


def residue_field_module(ring: GradedRing) -> FPModule:
    """R/m as a module: one generator killed by every variable."""
    amb = ring.ambient
    cols = [(amb.variable(i),) for i in range(amb.nvars)]
    rel = RingMatrix.from_columns(ring, cols, (0,), amb.weights)
    return FPModule(ring, (0,), rel)


def direct_sum(modules) -> FPModule:
    """Block-diagonal sum.  The relation basis of the sum is the union of the
    blocks' reduced bases shifted into disjoint row blocks, so no new Groebner
    computation is needed."""
    modules = list(modules)
    if not modules:
        raise ValueError("empty direct sum")
    R = modules[0].ring
    if any(m.ring != R for m in modules):
        raise ValueError("summands live over different rings")
    gens = tuple(g for m in modules for g in m.gen_degrees)
    placed = []
    cdegs = []
    basis = []
    offset = 0
    for m in modules:
        placed += [(v, 1, offset) for v in m.relations.cols]
        cdegs += m.relations.col_degrees
        for v in m.relgb.basis:
            basis.append({(r + offset, e): c for (r, e), c in v.items()})
        offset += m.ngens
    out = FPModule(R, gens, block_matrix(R, placed, gens, cdegs))
    out._relgb = ModuleGB.from_reduced(R.ambient, basis, len(gens))
    return out


def power_with_twists(W: FPModule, twists) -> FPModule:
    """Direct sum of copies of W twisted by the given degrees."""
    W.relgb  # force once so every twist shares it
    twisted = {d: W.twist(d) for d in set(twists)}
    return direct_sum([twisted[d] for d in twists])


def power_scalar_hom(N: FPModule, T: RingMatrix, source=None,
                     target=None) -> ModuleHom:
    """T (x) 1_N: the map between direct sums of twisted copies of N whose
    block (r, j) is multiplication by T[r][j].  Copy j of the source is N
    twisted so that its generators sit col_degrees[j] above N's own, and
    copy r of the target likewise by row_degrees[r], which makes the map
    degree-correct whenever T is.  Hom(d, N) for a map d between free
    modules is power_scalar_hom(N, d.dual()).  source and target, when
    given, are those powers of N already built."""
    if T.ring != N.ring:
        raise ValueError("scalar matrix and module live over different "
                         "rings")
    if source is None:
        source = power_with_twists(N, [-d for d in T.col_degrees])
    if target is None:
        target = power_with_twists(N, [-d for d in T.row_degrees])
    n = N.ngens
    mat = block_matrix(N.ring, [(v, n, b) for v in T.cols for b in range(n)],
                       target.gen_degrees, source.gen_degrees)
    return ModuleHom(source, target, mat)


def tensor_product(M: FPModule, N: FPModule) -> FPModule:
    """M (x) N: generator (i, a) at flat index i*ngens(N) + a."""
    if M.ring != N.ring:
        raise ValueError("tensor factors live over different rings")
    nN = N.ngens
    gens = tuple(g + h for g in M.gen_degrees for h in N.gen_degrees)
    # relations of M (x) 1_N, then 1_M (x) relations of N
    placed = [(v, nN, a) for v in M.relations.cols for a in range(nN)]
    cdegs = [d + h for d in M.relations.col_degrees for h in N.gen_degrees]
    placed += [(v, 1, i * nN) for v in N.relations.cols
               for i in range(M.ngens)]
    cdegs += [d + g for d in N.relations.col_degrees for g in M.gen_degrees]
    return FPModule(M.ring, gens, block_matrix(M.ring, placed, gens, cdegs))


# ---------------------------------------------------------------------------
# Homomorphisms.

class ModuleHom:
    """A homogeneous map between presented modules.  shift d means the map
    raises degrees by d: the matrix's column ledger is the source generator
    degrees plus d."""

    __slots__ = ("source", "target", "matrix", "shift")

    def __init__(self, source: FPModule, target: FPModule,
                 matrix: RingMatrix, shift: int = 0):
        want_cols = tuple(g + shift for g in source.gen_degrees)
        if matrix.row_degrees != target.gen_degrees:
            raise ValueError("matrix rows do not match target generators")
        if matrix.col_degrees != want_cols:
            raise ValueError("matrix columns do not match source generators")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.shift = shift

    @classmethod
    def from_entries(cls, source: FPModule, target: FPModule,
                     entries) -> "ModuleHom":
        mat = RingMatrix.from_rows(source.ring, entries, target.gen_degrees,
                                   source.gen_degrees)
        return cls(source, target, mat)

    def well_defined(self) -> bool:
        """Every source relation must land in the target relation span."""
        return all(self.target.relgb.contains(self.matrix.apply_vec(v))
                   for v in self.source.relations.cols)

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("homs do not compose")
        return ModuleHom(other.source, self.target,
                         self.matrix.mul(other.matrix),
                         self.shift + other.shift)

    def is_zero_hom(self) -> bool:
        return all(self.target.relgb.contains(self.matrix.col_vec(j))
                   for j in range(self.matrix.ncols))

    def equals(self, other: "ModuleHom") -> bool:
        """Equality as maps: the difference vanishes into target relations."""
        if (self.source != other.source or self.target != other.target
                or self.shift != other.shift):
            return False
        return all(
            self.target.relgb.contains(
                self.matrix.sub(other.matrix).col_vec(j))
            for j in range(self.matrix.ncols))

    def __repr__(self):
        return (f"ModuleHom({self.source!r} -> {self.target!r}, "
                f"shift={self.shift})")


def identity_hom(M: FPModule) -> ModuleHom:
    return ModuleHom(M, M, RingMatrix.identity(M.ring, M.gen_degrees))


def zero_hom(M: FPModule, N: FPModule) -> ModuleHom:
    return ModuleHom(M, N, RingMatrix.zero(N.ring, N.gen_degrees,
                                           M.gen_degrees))


def scalar_hom(M: FPModule, f: Polynomial) -> ModuleHom:
    """Multiplication by a homogeneous ring element."""
    f = M.ring.nf(f)
    d = f.homogeneous_degree()
    if d is None:
        d = 0
    cols = [{(j, e): c for e, c in f.terms} for j in range(M.ngens)]
    mat = RingMatrix(M.ring, cols, M.gen_degrees,
                     tuple(g + d for g in M.gen_degrees), normal=True)
    return ModuleHom(M, M, mat, d)


# ---------------------------------------------------------------------------
# Kernels, cokernels, homology.

def kernel_generators(phi: ModuleHom):
    """Column vectors over the source free cover generating the kernel,
    including redundant ones: the coefficient vectors whose pairing with
    the matrix columns lands in the target's relation span."""
    M, N = phi.source, phi.target
    amb = M.ring.ambient
    if N.ngens == 0:
        return [{(i, amb._zero_exps): 1} for i in range(M.ngens)]
    return [u for u in relative_kernel(amb, phi.matrix.cols, N.relgb.basis,
                                       N.ngens) if u]


def syzygies(mat: RingMatrix, blocks) -> RingMatrix:
    """Minimal generators of the kernel of the free-module map given by mat,
    as a matrix whose columns are the syzygies; zero columns when the map is
    injective.

    Solved one connected component of mat's support at a time: blocks is
    component_blocks(mat.cols).  A distinct key is solved once per ring and
    kept in R._syz, as its syzygies ((degree, column), ...) over the
    component's columns, with degrees relative to its first column.  The
    syzygies are sorted by degree, then by component.  That is the order of
    min_generate_columns over the kernel of the whole matrix, stably sorted
    by the same, and by the component argument its choice as well."""
    R = mat.ring
    degs = mat.col_degrees
    out = []
    for b, (key, idx) in enumerate(blocks):
        shift = degs[idx[0]]
        kept = R._syz.get(key)
        if kept is None:
            kept = R._syz[key] = _component_syzygies(
                R, key, [degs[j] - shift for j in idx])
        out += [(d + shift, b, {(idx[r], e): c for (r, e), c in v.items()})
                for d, v in kept]
    out.sort(key=lambda c: c[:2])
    return RingMatrix(R, [v for _, _, v in out], degs,
                      [d for d, _, _ in out], normal=True)


def _component_syzygies(R: GradedRing, key, degrees):
    """((degree, column), ...) for the component with this key, whose
    columns have the given degrees: the minimal generators among the
    nonzero kernel vectors of its columns, in the storage of RingMatrix."""
    cols = key_columns(key)
    raw = [u for u in relative_kernel(R.ambient, cols,
                                      inflation_vectors(R, key[0]), key[0])
           if u]
    kept = min_generate_columns(R, raw, degrees)
    mat = RingMatrix(R, [v for _, v, _ in kept], degrees,
                     [d for _, _, d in kept])
    return tuple(zip(mat.col_degrees, mat.cols))


def minimal_generators(M: FPModule):
    """(count, minimized): the size of a minimal generating set, which equals
    the vector-space dimension of M/mM, together with a minimal
    presentation."""
    N, _, _ = M.minimal()
    return N.ngens, N


def is_injective(phi: ModuleHom) -> bool:
    return all(phi.source.relgb.contains(u) for u in kernel_generators(phi))


def is_surjective(phi: ModuleHom) -> bool:
    N = phi.target
    zero = N.ring.ambient._zero_exps
    return in_span(N.ring.ambient, N.relgb.basis, phi.matrix.cols,
                   [{(i, zero): 1} for i in range(N.ngens)])


def kernel_columns(phi: ModuleHom):
    """(columns, degrees): minimal generators of the kernel of phi, as
    vectors over the source's free cover in increasing degree.  Greedy
    generation modulo the source's relations keeps a minimal set, by
    graded Nakayama."""
    M = phi.source
    kept = min_generate_columns(M.ring, kernel_generators(phi),
                                M.gen_degrees, reduced_seed=M.relgb.basis)
    return [v for _, v, _ in kept], tuple(d for _, _, d in kept)


def submodule(M: FPModule, cols, degrees):
    """(K, incl): the submodule of M generated by the columns, of the
    given degrees, with its inclusion into M.  Its relations are the
    syzygies of the columns modulo M's relations, minimally generated."""
    R = M.ring
    rel_raw = [w for w in relative_kernel(R.ambient, cols, M.relgb.basis,
                                          M.ngens) if w]
    rel_kept = min_generate_columns(R, rel_raw, degrees)
    rel = RingMatrix(R, [v for _, v, _ in rel_kept], degrees,
                     [d for _, _, d in rel_kept])
    K = FPModule(R, degrees, rel)
    return K, ModuleHom(K, M, RingMatrix(R, cols, M.gen_degrees, degrees))


def kernel(phi: ModuleHom):
    """(K, incl) with K the kernel of phi and incl its inclusion into the
    source.  Generators and relations are both minimally generated, so
    iterating this produces minimal resolutions."""
    M = phi.source
    if phi.target.ngens == 0:
        K = FPModule(M.ring, M.gen_degrees, M.relations)
        return K, ModuleHom(K, M, RingMatrix.identity(M.ring, M.gen_degrees))
    return submodule(M, *kernel_columns(phi))


def cokernel(phi: ModuleHom) -> FPModule:
    N = phi.target
    rel = phi.matrix if N.relations.ncols == 0 else \
        phi.matrix.stack_cols(N.relations)
    return FPModule(N.ring, N.gen_degrees, rel)


def image(phi: ModuleHom):
    """(Im, incl, onto): the image presented as source/kernel, its inclusion
    into the target and the projection from the source."""
    K, kincl = kernel(phi)
    M = phi.source
    rel = kincl.matrix if M.relations.ncols == 0 else \
        kincl.matrix.stack_cols(M.relations)
    im = FPModule(M.ring, M.gen_degrees, rel)
    incl = ModuleHom(im, phi.target, phi.matrix, phi.shift)
    onto = ModuleHom(M, im, RingMatrix.identity(M.ring, M.gen_degrees))
    return im, incl, onto


def homology_at(into: ModuleHom, outof: ModuleHom) -> FPModule:
    """ker(outof)/im(into) for a pair with outof . into = 0; raises if the
    image does not land in the kernel."""
    B = into.target
    if outof.source != B:
        raise ValueError("maps are not consecutive")
    K, incl = kernel(outof)
    amb = B.ring.ambient
    tracked = RelativeTracker(amb, incl.matrix.cols, B.relgb.basis, B.ngens)
    cols2 = []
    degs2 = []
    for v in into.matrix.cols:
        main, rep = tracked.reduce_with_rep(v)
        if main:
            raise ValueError("not a complex: image escapes the kernel")
        col = tuple_to_vec(B.ring.nf(rep.get(t, amb.zero()))
                           for t in range(incl.matrix.ncols))
        d = column_degree(amb, col, K.gen_degrees)
        if d is not None:
            cols2.append(col)
            degs2.append(d)
    if not cols2:
        return FPModule(B.ring, K.gen_degrees, K.relations)
    rel = RingMatrix(B.ring, cols2, K.gen_degrees, degs2)
    if K.relations.ncols:
        rel = rel.stack_cols(K.relations)
    return FPModule(B.ring, K.gen_degrees, rel)


def homology_is_zero(into: ModuleHom, outof: ModuleHom) -> bool:
    """Exactness test at the middle module, by membership only."""
    B = into.target
    if outof.source != B:
        raise ValueError("maps are not consecutive")
    return in_span(B.ring.ambient, B.relgb.basis, into.matrix.cols,
                   kernel_generators(outof))


# ---------------------------------------------------------------------------
# Hom modules.

class HomModule:
    """Hom_R(M, N) as a submodule of Hom(F0, N), F0 the free cover of M.
    An element of Hom(F0, N) is a block vector with one copy of N per
    generator of M; composing with the presentation of M maps it into one
    copy of N per relation of M, and Hom(M, N) is the kernel.

    The kernel's generators (gen_cols, of degrees gen_degrees, in
    Hom(F0, N)'s coordinates; minimal unless M is free and N is not
    minimally presented) are found on construction.  The presentation
    (module, and inclusion into Hom(F0, N)) is built on first access."""

    __slots__ = ("source", "target", "gen_cols", "gen_degrees", "_p0",
                 "_module", "_inclusion", "_tracked")

    def __init__(self, M: FPModule, N: FPModule):
        self.source = M
        self.target = N
        R = M.ring
        if N.ring != R:
            raise ValueError("hom between modules over different rings")
        self._module = self._inclusion = self._tracked = None
        self._p0 = p0 = (power_with_twists(N, M.gen_degrees) if M.ngens
                         else FPModule(R, ()))
        rel = M.relations
        if not M.ngens or rel.ncols == 0 or N.ngens == 0:
            self._module, self._inclusion = p0, identity_hom(p0)
            self.gen_cols = list(self._inclusion.matrix.cols)
            self.gen_degrees = p0.gen_degrees
            return
        # Hom(rel, N): an element of Hom(F0, N) composed with each relation
        self.gen_cols, self.gen_degrees = kernel_columns(
            power_scalar_hom(N, rel.dual(), source=p0))

    @property
    def module(self) -> FPModule:
        if self._module is None:
            self._module, self._inclusion = submodule(
                self._p0, self.gen_cols, self.gen_degrees)
        return self._module

    @property
    def inclusion(self) -> ModuleHom:
        self.module
        return self._inclusion

    def generator_hom(self, t: int) -> ModuleHom:
        """The homomorphism M -> N carried by generator t; its shift is the
        generator's degree."""
        M, N = self.source, self.target
        d = self.gen_degrees[t]
        cols = [{} for _ in range(M.ngens)]
        for (r, e), c in self.gen_cols[t].items():
            j, a = divmod(r, N.ngens)
            cols[j][(a, e)] = c
        mat = RingMatrix(M.ring, cols, N.gen_degrees,
                         tuple(g + d for g in M.gen_degrees))
        return ModuleHom(M, N, mat, d)

    def _vector(self, phi: ModuleHom) -> dict:
        """phi: M -> N as an element of Hom(F0, N)."""
        M, N = self.source, self.target
        if phi.source != M or phi.target != N:
            raise ValueError("hom does not belong to this Hom module")
        nN = N.ngens
        return {(j * nN + a, e): c for j, col in enumerate(phi.matrix.cols)
                for (a, e), c in col.items()}

    def homothety(self):
        """(identity generates, Ann M) for H = End(M): what decides that
        R -> End(M), r -> r*1, is onto and one-to-one.  One tracked run of
        the identity, the diagonal (e_1, ..., e_n) of Hom(F0, M), over
        Hom(F0, M)'s relation basis answers both: the identity generates
        when every generator of H reduces to zero outside the tracking
        rows, and Ann M is read off the run's kernel, as annihilator
        finds it.  Ann M is kept on M.  Needs no presentation of H."""
        M = self.source
        if self.target != M:
            raise ValueError("the homothety needs Hom(M, M)")
        run, M._ann = _diagonal_run(M, self._p0.relgb.basis)
        generates = all(not run.reduce_with_rep(v)[0] for v in self.gen_cols)
        return generates, M._ann

    def coordinates_of(self, phi: ModuleHom):
        """Express a hom M -> N in the generators; requires phi to be well
        defined (membership is checked exactly)."""
        v = self._vector(phi)
        amb = self.source.ring.ambient
        cols = self.inclusion.matrix.cols
        if self._tracked is None:
            self._tracked = RelativeTracker(
                amb, cols, self._p0.relgb.basis, self._p0.ngens)
        main, rep = self._tracked.reduce_with_rep(v)
        if main:
            raise ValueError("map is not in the hom module")
        return [self.source.ring.nf(rep.get(t, amb.zero()))
                for t in range(len(cols))]


# ---------------------------------------------------------------------------
# Annihilators and scalars.

def annihilator(M: FPModule) -> GroebnerBasis:
    """Ann(M) as an ideal of the ambient ring; it always contains the
    defining ideal.  It is the annihilator of the diagonal element
    (e_1, ..., e_n) of M^n: one kernel over n shifted copies of M's
    relation basis, then one reduced basis of the ideal."""
    if M._ann is None:
        n = M.ngens
        seed = [{(i * n + r, e): c for (r, e), c in v.items()}
                for i in range(n) for v in M.relgb.basis]
        M._ann = _diagonal_run(M, seed)[1]
    return M._ann


def _diagonal_run(M: FPModule, seed):
    """(run, Ann M): the tracked run of the diagonal (e_1, ..., e_n) of
    M^n over seed, a reduced basis of M^n's relations (n shifted copies
    of M's), and the reduced basis of the ideal its kernel holds."""
    amb = M.ring.ambient
    n = M.ngens
    zero = amb._zero_exps
    diagonal = {(i * n + i, zero): 1 for i in range(n)}
    run = RelativeTracker(amb, [diagonal], seed, n * n)
    return run, buchberger([amb.from_dict({e: c for (_, e), c in u.items()})
                            for u in run.kernel_vectors()], ring=amb)


def quotient_by_element(M: FPModule, x: Polynomial) -> FPModule:
    """M/xM over the same ring."""
    x = M.ring.nf(x)
    d = x.homogeneous_degree()
    if d is None:
        return M
    extra = scalar_hom(M, x).matrix
    rel = extra if M.relations.ncols == 0 else extra.stack_cols(M.relations)
    return FPModule(M.ring, M.gen_degrees, rel)


def kernel_of_scalar(M: FPModule, x: Polynomial):
    return kernel(scalar_hom(M, x))


def is_nzd_on(M: FPModule, x: Polynomial) -> bool:
    """True if x acts injectively on M."""
    return is_injective(scalar_hom(M, x))


# ---------------------------------------------------------------------------
# Isomorphism testing.

def hom_is_isomorphism(phi: ModuleHom) -> bool:
    """Exact check: well defined, surjective, injective."""
    return phi.well_defined() and is_surjective(phi) and is_injective(phi)


def degree_zero_hom_space(M: FPModule, N: FPModule):
    """Basis of Hom(M, N)_0 as a list of entry matrices.  Solved by linear
    algebra over the coefficient field: unknowns are the coefficients of each
    entry on the standard monomials of its degree, constraints say each source
    relation maps into the target relation span."""
    R = M.ring
    amb = R.ambient
    p = R.field.p
    unknowns = []  # (target row a, source col j, exps)
    for a in range(N.ngens):
        for j in range(M.ngens):
            d = M.gen_degrees[j] - N.gen_degrees[a]
            for e in R.std_monomials(d):
                unknowns.append((a, j, e))
    if not unknowns:
        return []
    coord_index = {}
    cols_per_unknown = []
    rel = M.relations.entries
    for (a, j, e) in unknowns:
        contrib = {}
        for r in range(M.relations.ncols):
            f = rel[j][r]
            if f.is_zero:
                continue
            vec = {(a, ee): c for ee, c in f.scale_mono(1, e).terms}
            red = N.relgb.nf(vec)
            for key, c in red.items():
                contrib[(r, key)] = (contrib.get((r, key), 0) + c) % p
        cols_per_unknown.append(contrib)
        for key in contrib:
            if key not in coord_index:
                coord_index[key] = len(coord_index)
    nrows = len(coord_index)
    if nrows == 0:
        sol_basis = [[1 if t == s else 0 for t in range(len(unknowns))]
                     for s in range(len(unknowns))]
    else:
        mat = [[0] * len(unknowns) for _ in range(nrows)]
        for u, contrib in enumerate(cols_per_unknown):
            for key, c in contrib.items():
                mat[coord_index[key]][u] = c
        sol_basis = nullspace(mat, p)
    out = []
    for sol in sol_basis:
        entries = [[{} for _ in range(M.ngens)] for _ in range(N.ngens)]
        for coeff, (a, j, e) in zip(sol, unknowns):
            if coeff:
                entries[a][j][e] = coeff
        out.append([[amb.from_dict(d) for d in row] for row in entries])
    return out


def is_isomorphic(M: FPModule, N: FPModule):
    """(flag, witness).  Minimal Betti degrees must match; a degree-zero map
    with invertible scalar part is then surjective by the graded Nakayama
    argument, and injectivity is certified by an exact kernel computation.
    The scalar-part search is randomized but seeded, so runs reproduce; if
    none of its candidates works it raises TruncationError rather than
    claim the modules are not isomorphic."""
    if M.ring != N.ring:
        return False, None
    Mm, projM, injM = M.minimal()
    Nm, projN, injN = N.minimal()
    if sorted(Mm.gen_degrees) != sorted(Nm.gen_degrees):
        return False, None
    if Mm.ngens == 0:
        return True, zero_hom(M, N)
    basis = degree_zero_hom_space(Mm, Nm)
    if not basis:
        return False, None
    p = M.ring.field.p
    rng = random.Random(0)
    units = min(len(basis), 8)
    candidates = [[int(t == s) for t in range(len(basis))]
                  for s in range(units)]
    for _ in range(64):
        candidates.append([rng.randrange(p) for _ in range(len(basis))])
    amb = M.ring.ambient
    for lam in candidates:
        entries = []
        const = []
        for a in range(Nm.ngens):
            row = []
            crow = []
            for j in range(Mm.ngens):
                f = amb.zero()
                for c, B in zip(lam, basis):
                    if c:
                        f = f + B[a][j] * c
                row.append(f)
                crow.append(f.constant_coefficient())
            entries.append(row)
            const.append(crow)
        if not is_invertible(const, p):
            continue
        phi = ModuleHom.from_entries(Mm, Nm, entries)
        if not is_surjective(phi):
            continue
        if not is_injective(phi):
            return False, None
        witness = injN.compose(phi).compose(projM)
        return True, witness
    raise TruncationError(
        f"isomorphism search exhausted its {len(candidates)} candidate "
        f"degree-zero maps ({units} unit, 64 random) without "
        f"an invertible one", bound=len(candidates))
