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

from .polyring import Polynomial, mono_divides
from .groebner import (
    GradedRing,
    GroebnerBasis,
    IncrementalSpan,
    ModuleGB,
    RelativeTracker,
    buchberger,
    ideal_intersection,
    relative_kernel,
)
from .linalg import is_invertible, matrix_rank, nullspace

__all__ = [
    "RingMatrix",
    "FPModule",
    "ModuleHom",
    "HomModule",
    "free_module",
    "residue_field_module",
    "direct_sum",
    "power_with_twists",
    "tensor_product",
    "kernel",
    "kernel_generators",
    "syzygies",
    "minimal_generators",
    "invert_unit_matrix",
    "summand_analysis",
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
    "vec_to_tuple",
    "column_degree",
    "inflation_vectors",
    "min_generate_columns",
]


# ---------------------------------------------------------------------------
# Column vectors: tuples of ambient polynomials, one per module generator.

def tuple_to_vec(col) -> dict:
    v = {}
    for i, f in enumerate(col):
        for e, c in f.terms:
            v[(i, e)] = c
    return v


def vec_to_tuple(v: dict, ring, rank: int):
    rows = [{} for _ in range(rank)]
    for (r, e), c in v.items():
        rows[r][e] = c
    zero = ring.zero()
    return tuple(ring.from_dict(d) if d else zero for d in rows)


def column_degree(col, row_degrees):
    """Common weighted degree of a homogeneous column; None if zero."""
    deg = None
    for f, r in zip(col, row_degrees):
        if f.is_zero:
            continue
        d = f.homogeneous_degree() + r
        if deg is None:
            deg = d
        elif deg != d:
            raise ValueError("column is not homogeneous")
    return deg


def inflation_vectors(ring: GradedRing, rank: int):
    """The columns g*e_i for every defining-ideal generator g and row i; these
    make Groebner runs over the ambient ring compute quotient-ring answers."""
    out = []
    for i in range(rank):
        for g in ring.ideal.gens:
            out.append({(i, e): c for e, c in g.terms})
    return out


def min_generate_columns(ring: GradedRing, cols, row_degrees, extra=(),
                         reduced_seed=None):
    """Greedy minimal generation: feed homogeneous columns in increasing
    degree into a span seeded with the inflation columns (and `extra`), keep
    the ones that enlarge it.  Returns [(original index, column, degree)].

    When the caller already holds a reduced basis of the modulo-part (a
    cached relgb, say), passing it as reduced_seed skips re-saturating it.
    """
    if reduced_seed is None:
        reduced_seed = inflation_vectors(ring, len(row_degrees))
    span = IncrementalSpan(ring.ambient, extra, reduced_seed=reduced_seed)
    staged = []
    for j, col in enumerate(cols):
        d = column_degree(col, row_degrees)
        if d is not None:
            staged.append((d, j, col))
    staged.sort(key=lambda t: (t[0], t[1]))
    kept = []
    for d, j, col in staged:
        if span.add(tuple_to_vec(col)):
            kept.append((j, col, d))
    return kept


# ---------------------------------------------------------------------------
# Graded matrices.

class RingMatrix:
    """Matrix over a graded quotient ring with degree-labelled rows and
    columns; entry (i, j) is zero or homogeneous of degree
    col_degrees[j] - row_degrees[i].  Entries are stored in normal form
    modulo the defining ideal."""

    __slots__ = ("ring", "entries", "row_degrees", "col_degrees")

    def __init__(self, ring: GradedRing, entries, row_degrees, col_degrees):
        self.ring = ring
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)
        rows = []
        for i, row in enumerate(entries):
            row = tuple(f if f.is_zero else ring.nf(f) for f in row)
            if len(row) != len(self.col_degrees):
                raise ValueError("ragged matrix")
            for j, f in enumerate(row):
                if f.is_zero:
                    continue
                d = f.homogeneous_degree()
                want = self.col_degrees[j] - self.row_degrees[i]
                if d != want:
                    raise ValueError(
                        f"entry ({i},{j}) = {f} has degree {d}, expected {want}")
            rows.append(row)
        if len(rows) != len(self.row_degrees):
            raise ValueError("row count does not match row degrees")
        self.entries = tuple(rows)

    # -- construction ---------------------------------------------------

    @classmethod
    def identity(cls, ring: GradedRing, degrees) -> "RingMatrix":
        degrees = tuple(degrees)
        n = len(degrees)
        one = ring.ambient.one()
        zero = ring.ambient.zero()
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(ring, rows, degrees, degrees)

    @classmethod
    def zero(cls, ring: GradedRing, row_degrees, col_degrees) -> "RingMatrix":
        z = ring.ambient.zero()
        rows = [[z] * len(tuple(col_degrees)) for _ in tuple(row_degrees)]
        return cls(ring, rows, row_degrees, col_degrees)

    @classmethod
    def from_columns(cls, ring: GradedRing, cols, row_degrees,
                     col_degrees=None) -> "RingMatrix":
        row_degrees = tuple(row_degrees)
        cols = [tuple(c) for c in cols]
        if col_degrees is None:
            degs = []
            for c in cols:
                d = column_degree(c, row_degrees)
                if d is None:
                    raise ValueError("cannot infer the degree of a zero column")
                degs.append(d)
            col_degrees = degs
        rows = [[c[i] for c in cols] for i in range(len(row_degrees))]
        return cls(ring, rows, row_degrees, col_degrees)

    # -- shape ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_degrees)

    @property
    def ncols(self) -> int:
        return len(self.col_degrees)

    def column(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def col_vec(self, j: int) -> dict:
        return tuple_to_vec(self.column(j))

    # -- arithmetic ---------------------------------------------------------

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
        z = self.ring.ambient.zero()
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for a in range(self.ncols):
                    f, g = self.entries[i][a], other.entries[a][j]
                    if f and g:
                        acc = acc + f * g
                row.append(acc)
            rows.append(row)
        return RingMatrix(self.ring, rows, self.row_degrees,
                          tuple(d + offset for d in other.col_degrees))

    def add(self, other: "RingMatrix") -> "RingMatrix":
        if (self.row_degrees, self.col_degrees) != (
                other.row_degrees, other.col_degrees):
            raise ValueError("degree ledgers differ in matrix sum")
        rows = [[a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)]
        return RingMatrix(self.ring, rows, self.row_degrees, self.col_degrees)

    def sub(self, other: "RingMatrix") -> "RingMatrix":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "RingMatrix":
        rows = [[f * c for f in row] for row in self.entries]
        return RingMatrix(self.ring, rows, self.row_degrees, self.col_degrees)

    def transpose(self) -> "RingMatrix":
        rows = [[self.entries[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        return RingMatrix(
            self.ring, rows,
            tuple(-d for d in self.col_degrees),
            tuple(-d for d in self.row_degrees),
        )

    def twist(self, d: int) -> "RingMatrix":
        return RingMatrix(self.ring, self.entries,
                          tuple(r - d for r in self.row_degrees),
                          tuple(c - d for c in self.col_degrees))

    def stack_cols(self, other: "RingMatrix") -> "RingMatrix":
        """[self | other]; row degrees must agree."""
        if self.row_degrees != other.row_degrees:
            raise ValueError("row degrees differ")
        rows = [r1 + r2 for r1, r2 in zip(self.entries, other.entries)]
        return RingMatrix(self.ring, rows, self.row_degrees,
                          self.col_degrees + other.col_degrees)

    # -- queries --------------------------------------------------------

    def constant_part(self):
        """Scalar matrix of degree-zero parts; nonzero exactly where the row
        and column degrees coincide, since entries are homogeneous."""
        return [[f.constant_coefficient() for f in row] for row in self.entries]

    @property
    def is_zero_matrix(self) -> bool:
        return all(f.is_zero for row in self.entries for f in row)

    def entries_in_maximal_ideal(self) -> bool:
        """True when no entry has a unit part; the defining property of a
        minimal presentation matrix."""
        return all(f.constant_coefficient() == 0
                   for row in self.entries for f in row)

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.row_degrees == other.row_degrees
            and self.col_degrees == other.col_degrees
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.row_degrees, self.col_degrees,
                     self.entries))

    def to_rows_str(self):
        return [[str(f) for f in row] for row in self.entries]

    def __str__(self):
        if not self.entries:
            return "[]"
        return "[" + "; ".join(
            ", ".join(str(f) for f in row) for row in self.entries) + "]"

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols} over {self.ring.name})"


# ---------------------------------------------------------------------------
# Modules.

class FPModule:
    """coker(relations) with the given generator degrees.

    _ext holds Ext vanishing verdicts into this module, per resolution of
    the source and per index (see homalg.first_nonvanishing_ext)."""

    __slots__ = ("ring", "gen_degrees", "relations",
                 "_relgb", "_min", "_ann", "_resolution", "_ext")

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

    def nf_vec(self, v: dict) -> dict:
        return self.relgb.nf(v)

    def nf(self, col):
        """Canonical representative of a column vector."""
        return vec_to_tuple(self.nf_vec(tuple_to_vec(col)),
                            self.ring.ambient, self.ngens)

    def contains_zero(self, col) -> bool:
        return self.relgb.contains(tuple_to_vec(col))

    def generator(self, i: int):
        amb = self.ring.ambient
        return tuple(amb.one() if j == i else amb.zero()
                     for j in range(self.ngens))

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
        matrix are eliminated lowest generator first; the surviving columns
        are then thinned to a minimal generating set in increasing degree."""
        if self._min is not None:
            return self._min
        R = self.ring
        amb = R.ambient
        field = R.field
        gens = list(self.gen_degrees)
        surviving = list(range(len(gens)))
        cols = [list(c) for c in self.relations.columns()]
        cdegs = list(self.relations.col_degrees)
        # proj maps original generators into the current ones
        proj = [[amb.one() if i == j else amb.zero()
                 for j in range(len(gens))] for i in range(len(gens))]
        while True:
            hit = None
            for i in range(len(gens)):
                for j, col in enumerate(cols):
                    if cdegs[j] == gens[i] and col[i]:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                break
            i, j = hit
            c = cols[j][i].constant_coefficient()
            cinv = field.inv(c)
            pivot = cols[j]
            for jj, col in enumerate(cols):
                if jj == j or col[i].is_zero:
                    continue
                f = col[i] * cinv
                cols[jj] = [R.nf(a - f * b) for a, b in zip(col, pivot)]
            for o in range(len(proj[i])):
                fi = proj[i][o]
                if fi.is_zero:
                    continue
                for kk in range(len(gens)):
                    if kk == i or pivot[kk].is_zero:
                        continue
                    proj[kk][o] = R.nf(proj[kk][o] - fi * cinv * pivot[kk])
            del proj[i]
            del gens[i]
            del surviving[i]
            del cols[j]
            del cdegs[j]
            for col in cols:
                del col[i]
            keep = [jj for jj, col in enumerate(cols) if any(col)]
            cols = [cols[jj] for jj in keep]
            cdegs = [cdegs[jj] for jj in keep]
        kept = min_generate_columns(R, cols, gens)
        rel = RingMatrix.from_columns(R, [c for _, c, _ in kept], gens,
                                      [d for _, _, d in kept])
        N = FPModule(R, tuple(gens), rel)
        proj_hom = ModuleHom(
            self, N,
            RingMatrix(R, proj, tuple(gens), self.gen_degrees))
        inj_rows = [[amb.one() if surviving[t] == o else amb.zero()
                     for t in range(len(gens))]
                    for o in range(self.ngens)]
        inj_hom = ModuleHom(
            N, self,
            RingMatrix(R, inj_rows, self.gen_degrees, tuple(gens)))
        self._min = (N, proj_hom, inj_hom)
        return self._min

    def minimal_gen_degrees(self):
        return self.minimal()[0].gen_degrees

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
    amb = R.ambient
    gens = tuple(g for m in modules for g in m.gen_degrees)
    total = len(gens)
    cols = []
    cdegs = []
    basis = []
    offset = 0
    for m in modules:
        for j in range(m.relations.ncols):
            col = m.relations.column(j)
            big = [amb.zero()] * total
            big[offset:offset + m.ngens] = list(col)
            cols.append(tuple(big))
            cdegs.append(m.relations.col_degrees[j])
        for v in m.relgb.basis:
            basis.append({(r + offset, e): c for (r, e), c in v.items()})
        offset += m.ngens
    rel = RingMatrix.from_columns(R, cols, gens, cdegs)
    out = FPModule(R, gens, rel)
    out._relgb = ModuleGB.from_reduced(amb, basis, total)
    return out


def power_with_twists(W: FPModule, twists) -> FPModule:
    """Direct sum of copies of W twisted by the given degrees."""
    W.relgb  # force once so every twist shares it
    return direct_sum([W.twist(d) for d in twists])


def tensor_product(M: FPModule, N: FPModule) -> FPModule:
    """M (x) N: generator (i, a) at flat index i*ngens(N) + a."""
    if M.ring != N.ring:
        raise ValueError("tensor factors live over different rings")
    R = M.ring
    amb = R.ambient
    nN = N.ngens
    gens = tuple(g + h for g in M.gen_degrees for h in N.gen_degrees)
    cols = []
    cdegs = []
    z = [amb.zero()] * len(gens)
    for j in range(M.relations.ncols):
        r = M.relations.column(j)
        d = M.relations.col_degrees[j]
        for a in range(nN):
            col = list(z)
            for i in range(M.ngens):
                if r[i]:
                    col[i * nN + a] = r[i]
            cols.append(tuple(col))
            cdegs.append(d + N.gen_degrees[a])
    for j in range(N.relations.ncols):
        s = N.relations.column(j)
        d = N.relations.col_degrees[j]
        for i in range(M.ngens):
            col = list(z)
            for a in range(nN):
                if s[a]:
                    col[i * nN + a] = s[a]
            cols.append(tuple(col))
            cdegs.append(d + M.gen_degrees[i])
    rel = RingMatrix.from_columns(R, cols, gens, cdegs)
    return FPModule(R, gens, rel)


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
    def from_entries(cls, source: FPModule, target: FPModule, entries,
                     shift: int = 0) -> "ModuleHom":
        mat = RingMatrix(source.ring, entries, target.gen_degrees,
                         tuple(g + shift for g in source.gen_degrees))
        return cls(source, target, mat, shift)

    def apply(self, col):
        """Image of a source column vector, in target normal form."""
        R = self.source.ring
        acc = [R.ambient.zero()] * self.target.ngens
        for j, f in enumerate(col):
            if f.is_zero:
                continue
            for i in range(self.target.ngens):
                g = self.matrix.entries[i][j]
                if g:
                    acc[i] = acc[i] + f * g
        return self.target.nf(tuple(acc))

    def well_defined(self) -> bool:
        """Every source relation must land in the target relation span."""
        rel = self.source.relations
        for j in range(rel.ncols):
            img = self.matrix.mul(RingMatrix.from_columns(
                self.source.ring, [rel.column(j)], rel.row_degrees,
                [rel.col_degrees[j]]))
            if not self.target.relgb.contains(img.col_vec(0)):
                return False
        return True

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


def zero_hom(M: FPModule, N: FPModule, shift: int = 0) -> ModuleHom:
    mat = RingMatrix.zero(N.ring, N.gen_degrees,
                          tuple(g + shift for g in M.gen_degrees))
    return ModuleHom(M, N, mat, shift)


def scalar_hom(M: FPModule, f: Polynomial) -> ModuleHom:
    """Multiplication by a homogeneous ring element."""
    f = M.ring.nf(f)
    d = f.homogeneous_degree()
    if d is None:
        d = 0
    amb = M.ring.ambient
    n = M.ngens
    rows = [[f if i == j else amb.zero() for j in range(n)] for i in range(n)]
    mat = RingMatrix(M.ring, rows, M.gen_degrees,
                     tuple(g + d for g in M.gen_degrees))
    return ModuleHom(M, M, mat, d)


# ---------------------------------------------------------------------------
# Kernels, cokernels, homology.

def kernel_generators(phi: ModuleHom):
    """Columns over the source free cover generating the kernel, including
    redundant ones: the coefficient vectors whose pairing with the matrix
    columns lands in the target's relation span."""
    M, N = phi.source, phi.target
    amb = M.ring.ambient
    m = M.ngens
    if N.ngens == 0:
        return [M.generator(i) for i in range(m)]
    cols = [phi.matrix.col_vec(j) for j in range(m)]
    out = []
    for u in relative_kernel(amb, cols, N.relgb.basis, N.ngens):
        if u:
            out.append(vec_to_tuple(u, amb, m))
    return out


def syzygies(mat: RingMatrix) -> RingMatrix:
    """Minimal generators of the kernel of the free-module map given by mat,
    as a matrix whose columns are the syzygies; zero columns when the map is
    injective."""
    R = mat.ring
    amb = R.ambient
    cols = [mat.col_vec(j) for j in range(mat.ncols)]
    raw = []
    for u in relative_kernel(amb, cols, inflation_vectors(R, mat.nrows),
                             mat.nrows):
        if u:
            raw.append(vec_to_tuple(u, amb, mat.ncols))
    kept = min_generate_columns(R, raw, mat.col_degrees)
    return RingMatrix.from_columns(R, [c for _, c, _ in kept],
                                   mat.col_degrees, [d for _, _, d in kept])


def minimal_generators(M: FPModule):
    """(count, minimized): the size of a minimal generating set, which equals
    the vector-space dimension of M/mM, together with a minimal
    presentation."""
    N, _, _ = M.minimal()
    return N.ngens, N


def is_injective(phi: ModuleHom) -> bool:
    return all(phi.source.relgb.contains(tuple_to_vec(u))
               for u in kernel_generators(phi))


def is_surjective(phi: ModuleHom) -> bool:
    N = phi.target
    vecs = [phi.matrix.col_vec(j) for j in range(phi.matrix.ncols)]
    span = IncrementalSpan(N.ring.ambient, vecs, reduced_seed=N.relgb.basis)
    zero = N.ring.ambient._zero_exps
    return all(span.contains({(i, zero): 1}) for i in range(N.ngens))


def kernel(phi: ModuleHom):
    """(K, incl) with K the kernel of phi and incl its inclusion into the
    source.  Generators and relations are both minimally generated, so
    iterating this produces minimal resolutions."""
    M = phi.source
    R = M.ring
    amb = R.ambient
    if phi.target.ngens == 0:
        K = FPModule(R, M.gen_degrees, M.relations)
        return K, ModuleHom(K, M, RingMatrix.identity(R, M.gen_degrees))
    raw = kernel_generators(phi)
    kept = min_generate_columns(R, raw, M.gen_degrees,
                                reduced_seed=M.relgb.basis)
    if not kept:
        K = FPModule(R, ())
        return K, ModuleHom(K, M, RingMatrix.zero(R, M.gen_degrees, ()))
    gen_cols = [c for _, c, _ in kept]
    gdegs = [d for _, _, d in kept]
    rel_raw = []
    for w in relative_kernel(amb, [tuple_to_vec(c) for c in gen_cols],
                             M.relgb.basis, M.ngens):
        if w:
            rel_raw.append(vec_to_tuple(w, amb, len(gen_cols)))
    rel_kept = min_generate_columns(R, rel_raw, gdegs)
    rel = RingMatrix.from_columns(R, [c for _, c, _ in rel_kept], gdegs,
                                  [d for _, _, d in rel_kept])
    K = FPModule(R, tuple(gdegs), rel)
    incl = ModuleHom(K, M, RingMatrix.from_columns(
        R, gen_cols, M.gen_degrees, gdegs))
    return K, incl


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
    cols = [incl.matrix.col_vec(j) for j in range(incl.matrix.ncols)]
    ncols_incl = len(cols)
    tracked = RelativeTracker(B.ring.ambient, cols, B.relgb.basis, B.ngens)
    lifted = []
    for j in range(into.matrix.ncols):
        main, rep = tracked.reduce_with_rep(into.matrix.col_vec(j))
        if main:
            raise ValueError("not a complex: image escapes the kernel")
        col = tuple(B.ring.nf(rep.get(t, B.ring.ambient.zero()))
                    for t in range(ncols_incl))
        lifted.append(col)
    cols2 = []
    degs2 = []
    for col in lifted:
        d = column_degree(col, K.gen_degrees)
        if d is None:
            continue
        cols2.append(col)
        degs2.append(d)
    if not cols2:
        return FPModule(B.ring, K.gen_degrees, K.relations)
    rel = RingMatrix.from_columns(B.ring, cols2, K.gen_degrees, degs2)
    if K.relations.ncols:
        rel = rel.stack_cols(K.relations)
    return FPModule(B.ring, K.gen_degrees, rel)


def homology_is_zero(into: ModuleHom, outof: ModuleHom) -> bool:
    """Exactness test at the middle module, by membership only."""
    B = into.target
    if outof.source != B:
        raise ValueError("maps are not consecutive")
    vecs = [into.matrix.col_vec(j) for j in range(into.matrix.ncols)]
    span = IncrementalSpan(B.ring.ambient, vecs, reduced_seed=B.relgb.basis)
    return all(span.contains(tuple_to_vec(u))
               for u in kernel_generators(outof))


# ---------------------------------------------------------------------------
# Hom modules.

class HomModule:
    """Hom_R(M, N) as a presented module.  An element of Hom(F0, N), F0 the
    free cover of M, is a block vector with one copy of N per generator of M;
    composing with the presentation of M maps it into one copy of N per
    relation of M, and Hom(M, N) is the kernel."""

    __slots__ = ("source", "target", "module", "inclusion", "_p0", "_tracked")

    def __init__(self, M: FPModule, N: FPModule):
        self.source = M
        self.target = N
        R = M.ring
        if N.ring != R:
            raise ValueError("hom between modules over different rings")
        if M.ngens == 0:
            z = FPModule(R, ())
            self.module = z
            self.inclusion = identity_hom(z)
            self._p0 = z
            self._tracked = None
            return
        p0 = power_with_twists(N, M.gen_degrees)
        rel = M.relations
        if rel.ncols == 0 or N.ngens == 0:
            self.module = p0
            self.inclusion = identity_hom(p0)
            self._p0 = p0
            self._tracked = None
            return
        p1 = power_with_twists(N, list(rel.col_degrees))
        amb = R.ambient
        nN = N.ngens
        z = amb.zero()
        rows = []
        for r in range(rel.ncols):
            for a in range(nN):
                row = []
                for i in range(M.ngens):
                    f = rel.entries[i][r]
                    for b in range(nN):
                        row.append(f if a == b else z)
                rows.append(row)
        big = RingMatrix(R, rows, p1.gen_degrees, p0.gen_degrees)
        psi = ModuleHom(p0, p1, big)
        self.module, self.inclusion = kernel(psi)
        self._p0 = p0
        self._tracked = None

    @property
    def gen_degrees(self):
        return self.module.gen_degrees

    def generator_hom(self, t: int) -> ModuleHom:
        """The homomorphism M -> N carried by generator t; its shift is the
        generator's degree."""
        M, N = self.source, self.target
        nN = N.ngens
        d = self.module.gen_degrees[t]
        entries = [[self.inclusion.matrix.entries[j * nN + a][t]
                    for j in range(M.ngens)] for a in range(nN)]
        return ModuleHom.from_entries(M, N, entries, shift=d)

    def coordinates_of(self, phi: ModuleHom):
        """Express a hom M -> N in the generators; requires phi to be well
        defined (membership is checked exactly)."""
        M, N = self.source, self.target
        if phi.source != M or phi.target != N:
            raise ValueError("hom does not belong to this Hom module")
        amb = M.ring.ambient
        nN = N.ngens
        v = {}
        for j in range(M.ngens):
            for a in range(nN):
                f = phi.matrix.entries[a][j]
                for e, c in f.terms:
                    v[(j * nN + a, e)] = c
        if self._tracked is None:
            cols = [self.inclusion.matrix.col_vec(j)
                    for j in range(self.inclusion.matrix.ncols)]
            self._tracked = (
                RelativeTracker(amb, cols, self._p0.relgb.basis,
                                self._p0.ngens),
                len(cols))
        tracked, n0 = self._tracked
        main, rep = tracked.reduce_with_rep(v)
        if main:
            raise ValueError("map is not in the hom module")
        return [M.ring.nf(rep.get(t, amb.zero())) for t in range(n0)]


# ---------------------------------------------------------------------------
# Annihilators and scalars.

def annihilator(M: FPModule) -> GroebnerBasis:
    """Ann(M) as an ideal of the ambient ring; it always contains the
    defining ideal.  Computed per generator as a colon and intersected."""
    if M._ann is not None:
        return M._ann
    R = M.ring
    amb = R.ambient
    if M.ngens == 0:
        M._ann = buchberger([amb.one()], ring=amb)
        return M._ann
    zero = amb._zero_exps
    result = None
    for i in range(M.ngens):
        gens = []
        for s in relative_kernel(amb, [{(i, zero): 1}], M.relgb.basis,
                                 M.ngens):
            f = amb.from_dict({e: c for (j, e), c in s.items() if j == 0})
            if not f.is_zero:
                gens.append(f)
        colon = buchberger(gens, ring=amb)
        result = colon if result is None else ideal_intersection(result, colon)
        if result.is_zero_ideal:
            break
    M._ann = result
    return result


def quotient_by_element(M: FPModule, x: Polynomial) -> FPModule:
    """M/xM over the same ring."""
    x = M.ring.nf(x)
    d = x.homogeneous_degree()
    if d is None:
        return M
    amb = M.ring.ambient
    cols = []
    for i in range(M.ngens):
        cols.append(tuple(x if j == i else amb.zero()
                          for j in range(M.ngens)))
    extra = RingMatrix.from_columns(M.ring, cols, M.gen_degrees,
                                    [g + d for g in M.gen_degrees])
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
    rows = []  # one row per (constraint coordinate), built transposed below
    cols_per_unknown = []
    for (a, j, e) in unknowns:
        contrib = {}
        for r in range(M.relations.ncols):
            f = M.relations.entries[j][r]
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


def invert_unit_matrix(mat: RingMatrix) -> RingMatrix:
    """Exact inverse of a square graded matrix whose scalar part is
    invertible over the field.

    Gauss-Jordan elimination; pivots are always degree-zero units (after each
    clearing pass the remaining scalar block is a Schur complement of an
    invertible matrix), so no divisions by nonunits ever arise.  Raises
    ValueError when the scalar part is singular."""
    R = mat.ring
    n = mat.nrows
    if mat.ncols != n:
        raise ValueError("only square matrices can be inverted")
    p = R.field.p
    amb = R.ambient
    a = [[R.nf(f) for f in row] for row in mat.entries]
    b = [[amb.one() if i == j else amb.zero() for j in range(n)]
         for i in range(n)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            c = a[i][k].constant_coefficient()
            if c:
                piv = i
                break
        if piv is None:
            raise ValueError("scalar part of the matrix is not invertible")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            b[k], b[piv] = b[piv], b[k]
        c = a[k][k].constant_coefficient()
        inv = pow(c, p - 2, p)
        a[k] = [R.nf(f * inv) for f in a[k]]
        b[k] = [R.nf(f * inv) for f in b[k]]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if f.is_zero:
                continue
            a[i] = [R.nf(g - f * h) for g, h in zip(a[i], a[k])]
            b[i] = [R.nf(g - f * h) for g, h in zip(b[i], b[k])]
    out = RingMatrix(R, b, mat.col_degrees, mat.row_degrees)
    if mat.mul(out) != RingMatrix.identity(R, mat.row_degrees):
        raise ValueError("matrix is not invertible over the ring")
    return out


def summand_analysis(e: ModuleHom):
    """Split an idempotent endomorphism of a graded free module into
    complementary free summands, with exact matrix witnesses.

    Returns (p, q, witnesses) where p is the scalar rank of e and q = n - p.
    The witness maps u: F_J -> F, r: F -> F_J, v: F_J' -> F, w: F -> F_J'
    satisfy r.u = 1, w.v = 1, r.v = 0, w.u = 0, u.r = e and v.w = 1 - e, which
    together exhibit F = im(e) (+) im(1-e) with im(e) free on the J columns.
    The two summands are additionally confirmed at the module level through
    is_isomorphic."""
    P = e.source
    if e.target != P or e.shift != 0:
        raise ValueError("summand analysis needs a degree-zero endomorphism")
    if P.relations.ncols:
        raise ValueError("summand analysis expects a free module")
    R = P.ring
    p_char = R.field.p
    if e.matrix.mul(e.matrix) != e.matrix:
        raise ValueError("endomorphism is not idempotent")
    n = P.ngens
    degs = P.gen_degrees
    e0 = e.matrix.constant_part()
    one_minus = RingMatrix.identity(R, degs).sub(e.matrix)
    c0 = one_minus.constant_part()

    def greedy_columns(scalar):
        chosen = []
        rank = 0
        for j in range(n):
            cand = chosen + [j]
            sub = [[scalar[i][jj] for jj in cand] for i in range(n)]
            if matrix_rank(sub, p_char) > rank:
                chosen.append(j)
                rank += 1
        return chosen

    img_cols = greedy_columns(e0)
    com_cols = greedy_columns(c0)
    p = len(img_cols)
    q = len(com_cols)
    if p + q != n:
        raise ValueError("endomorphism is not idempotent")
    gcols = [e.matrix.column(j) for j in img_cols]
    gcols += [one_minus.column(j) for j in com_cols]
    gdegs = [degs[j] for j in img_cols] + [degs[j] for j in com_cols]
    G = RingMatrix.from_columns(R, gcols, degs, gdegs)
    Ginv = invert_unit_matrix(G)
    u = RingMatrix.from_columns(R, gcols[:p], degs, gdegs[:p])
    v = RingMatrix.from_columns(R, gcols[p:], degs, gdegs[p:])
    r = RingMatrix(R, Ginv.entries[:p], Ginv.row_degrees[:p],
                   Ginv.col_degrees)
    w = RingMatrix(R, Ginv.entries[p:], Ginv.row_degrees[p:],
                   Ginv.col_degrees)
    checks = (
        r.mul(u) == RingMatrix.identity(R, tuple(gdegs[:p])),
        w.mul(v) == RingMatrix.identity(R, tuple(gdegs[p:])),
        r.mul(v).is_zero_matrix,
        w.mul(u).is_zero_matrix,
        u.mul(r) == e.matrix,
        v.mul(w) == one_minus,
    )
    if not all(checks):
        raise RuntimeError("summand witnesses failed their exact identities")
    im_mod = image(e)[0]
    ok_im, iso_im = is_isomorphic(im_mod, free_module(R, tuple(gdegs[:p])))
    com_mod = image(ModuleHom(P, P, one_minus))[0]
    ok_com, iso_com = is_isomorphic(com_mod, free_module(R, tuple(gdegs[p:])))
    if not (ok_im and ok_com):
        raise RuntimeError("summand modules failed the isomorphism check")
    return p, q, {
        "into_image": u,
        "image_retraction": r,
        "into_complement": v,
        "complement_retraction": w,
        "image_columns": tuple(img_cols),
        "complement_columns": tuple(com_cols),
        "image_iso": iso_im,
        "complement_iso": iso_com,
    }


def is_isomorphic(M: FPModule, N: FPModule, seed: int = 0):
    """(flag, witness).  Minimal Betti degrees must match; a degree-zero map
    with invertible scalar part is then surjective by the graded Nakayama
    argument, and injectivity is certified by an exact kernel computation.
    The scalar-part search is randomized but seeded, so runs reproduce."""
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
    rng = random.Random(seed)
    candidates = []
    for s in range(min(len(basis), 8)):
        candidates.append([1 if t == s else 0 for t in range(len(basis))])
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
    return False, None
