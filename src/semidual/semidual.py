"""Semidualizing module verification and the depth identity pipeline.

A module C over a graded quotient ring earns a certificate when its
endomorphisms are exactly the ring scalars and its self-extensions vanish
up to a configured bound.  On top of a certified C this module splits
surjections between direct sums of copies of C with exact matrix
witnesses, resolves test modules by copies of C, transfers the
certificate along nonzerodivisor quotients, and confirms the depth
identity

    C-dim Y = depth C - depth Y

with every intermediate fact re-verified computationally rather than
quoted.  Functions either return a report carrying witnesses or raise
with a concrete counterexample; nothing is sampled where an exact
decision is affordable.
"""

import random

from .polyring import Polynomial
from .groebner import GradedRing, InternalError, radical_membership
from .fpmod import (
    FPModule,
    HomModule,
    ModuleHom,
    RingMatrix,
    annihilator,
    free_module,
    hom_is_isomorphism,
    homology_is_zero,
    identity_hom,
    image,
    is_injective,
    is_isomorphic,
    is_nzd_on,
    is_surjective,
    kernel_of_scalar,
    power_scalar_hom,
    power_with_twists,
    quotient_by_element,
    scalar_hom,
    tensor_product,
    unit_pivots,
)
from .homalg import (
    ChainComplex,
    TruncationError,
    base_change_module,
    depth,
    depth_with_witness,
    ext_module,
    first_nonvanishing_ext,
    free_resolution,
    homogeneous_candidates,
    module_dimension,
    projective_dimension,
    resolution_complex,
)

__all__ = [
    "VerificationError",
    "SemidualizingCertificate",
    "CResolution",
    "ABReport",
    "default_ext_bound",
    "check_semidualizing",
    "split_surjection",
    "bass_class_check",
    "evaluation_hom",
    "hom_left_exactness",
    "c_resolution",
    "c_dimension",
    "reduce_by_nzd",
    "verify_ab",
    "corollary_suite",
]


class VerificationError(RuntimeError):
    """An exact re-verification failed; the message carries the witness."""


def default_ext_bound(ring: GradedRing) -> int:
    """Truncation bound for Ext vanishing and resolution length searches:
    twice the ambient variable count plus two."""
    return 2 * ring.ambient.nvars + 2


# ---------------------------------------------------------------------------
# The certificate.

class SemidualizingCertificate:
    """Outcome of the two-condition check on a candidate module C.

    Condition (i), that the scalar action gives an isomorphism onto
    End(C), is decided exactly: the identity endomorphism must generate
    the End module (surjectivity) and the annihilator must reduce to the
    defining ideal (injectivity).  Both are decided inside Hom(F0, C),
    F0 the free cover of C, where End(C) is found as a kernel with
    minimal generators; end_minimal_generators is their count, and
    End(C)'s own presentation is never built.  Condition (ii) is
    Ext^i(C, C) = 0 for 1 <= i <= ext_bound; the verdict says
    "verified_up_to_bound" rather than pretending to cover all i."""

    __slots__ = (
        "ring", "module", "end_minimal_generators", "identity_generates",
        "faithful", "annihilator_excess", "ext_bound", "ext_checked",
        "first_nonzero_ext", "ext_witness", "verdict",
    )

    def __init__(self, ring, module, end_minimal_generators,
                 identity_generates, faithful, annihilator_excess,
                 ext_bound, ext_checked, first_nonzero_ext, ext_witness,
                 verdict):
        self.ring = ring
        self.module = module
        self.end_minimal_generators = end_minimal_generators
        self.identity_generates = identity_generates
        self.faithful = faithful
        self.annihilator_excess = annihilator_excess
        self.ext_bound = ext_bound
        self.ext_checked = ext_checked
        self.first_nonzero_ext = first_nonzero_ext
        self.ext_witness = ext_witness
        self.verdict = verdict

    @property
    def condition_i(self) -> bool:
        return self.identity_generates and self.faithful

    @property
    def passed(self) -> bool:
        return self.verdict == "verified_up_to_bound"

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.describe(),
            "module": self.module.describe(),
            "condition_i": {
                "end_minimal_generators": self.end_minimal_generators,
                "identity_generates": self.identity_generates,
                "faithful": self.faithful,
                "annihilator_excess": self.annihilator_excess,
                "holds": self.condition_i,
            },
            "condition_ii": {
                "ext_bound": self.ext_bound,
                "checked": self.ext_checked,
                "first_nonzero_ext": self.first_nonzero_ext,
                "witness": self.ext_witness,
            },
            "verdict": self.verdict,
        }

    def __repr__(self):
        return f"SemidualizingCertificate({self.verdict})"


def _first_generator_witness(E: FPModule) -> str:
    """A nonzero minimal generator of E, written in the coordinates of
    E's own presentation."""
    Em, _, inj = E.minimal()
    d = Em.gen_degrees[0]
    col = [str(f) for f in inj.matrix.column(0)]
    return f"generator of degree {d} with coordinates [{', '.join(col)}]"


def check_semidualizing(C: FPModule, ext_bound=None) -> SemidualizingCertificate:
    """Certify (or refute) that C is semidualizing, up to the Ext bound.

    Condition (i) runs first and is exact; when it fails the Ext loop is
    skipped and the certificate says so.  Condition (ii) stops at the
    first nonvanishing index and records a nonzero generator of the
    offending Ext module as the witness."""
    R = C.ring
    if ext_bound is None:
        ext_bound = default_ext_bound(R)
    if ext_bound < 1:
        raise ValueError("ext_bound must be at least 1")
    Cm = C.minimal()[0]
    if Cm.ngens == 0:  # graded Nakayama: C = 0 iff C/mC = 0
        raise ValueError("the zero module cannot be semidualizing")

    # Condition (i).  Surjectivity of the scalar map is "the identity
    # generates End(C)"; injectivity is "ann C = 0 in R".
    H = HomModule(Cm, Cm)
    end_count = len(H.gen_cols)
    identity_generates = H.generated_by(identity_hom(Cm))
    ann = annihilator(Cm)
    excess = next((str(g) for g in ann.gens if not R.ideal.contains(g)), None)
    faithful = excess is None

    if not (identity_generates and faithful):
        return SemidualizingCertificate(
            R, C, end_count, identity_generates, faithful, excess,
            ext_bound, False, None, None, "failed")

    first_bad = first_nonvanishing_ext(Cm, Cm, 1, ext_bound)
    witness = None
    if first_bad is not None:
        witness = _first_generator_witness(ext_module(Cm, Cm, first_bad))
    verdict = "verified_up_to_bound" if first_bad is None else "failed"
    return SemidualizingCertificate(
        R, C, end_count, identity_generates, faithful, excess,
        ext_bound, True, first_bad, witness, verdict)


def split_surjection(T: RingMatrix, C=None):
    """Split a surjection between direct sums of copies of a certified
    module, presented by the scalar matrix T (q rows, n columns).

    unit_pivots reduces T by row operations, L.T = W.  The map is
    onto iff it finds a unit pivot in every row, that is iff the
    constant part of T has rank q.  For each pivot (i, j) the section S
    has row L[i] in row j; each free column k gives the complement
    column e_k - sum W[i][k].e_j of U, and V projects onto the free
    columns.  Together they exhibit the kernel as a free complement:

        T.S = 1,  V.U = 1,  S.T + U.V = 1,  T.U = 0,  V.S = 0.

    Every identity is re-verified by exact multiplication before
    returning.  They are the proof that the kernel is a free summand:
    e = S.T is idempotent, since e.e = S(T.S)T = e, its image is im S,
    free of rank q, and the image of 1 - e = U.V is im U, free of rank
    n - q.  When the module C is supplied the whole decomposition is
    additionally replayed on the actual direct sums of copies of C.

    Returns (S, witnesses) where witnesses is a dict of matrices, the
    pivots as (row, column) of T, and the check results."""
    R = T.ring
    if C is not None and C.ring != R:
        raise ValueError("split between a matrix and a module over "
                         "different rings")
    q, n = T.nrows, T.ncols
    pivots, W, L = unit_pivots(R, T.entries)
    if len(pivots) < q:
        raise ValueError(
            f"not surjective: the constant part of the {q}x{n} matrix has "
            f"rank below {q}")

    one, zero = R.ambient.one(), R.ambient.zero()
    pivot_cols = {j for _, j in pivots}
    free = [k for k in range(n) if k not in pivot_cols]
    fdeg = tuple(T.col_degrees[k] for k in free)
    srows = [[zero] * q for _ in range(n)]
    urows = [[one if c == k else zero for k in free] for c in range(n)]
    for i, j in pivots:
        srows[j] = L[i]
        urows[j] = [-W[i][k] for k in free]
    S = RingMatrix.from_rows(R, srows, T.col_degrees, T.row_degrees)
    U = RingMatrix.from_rows(R, urows, T.col_degrees, fdeg)
    V = RingMatrix.from_rows(
        R, [[one if c == k else zero for c in range(n)] for k in free],
        fdeg, T.col_degrees)

    e = S.mul(T)
    identities = {
        "section": T.mul(S) == RingMatrix.identity(R, T.row_degrees),
        "complement_retraction": V.mul(U) == RingMatrix.identity(R, fdeg),
        "resolution_of_identity":
            e.add(U.mul(V)) == RingMatrix.identity(R, T.col_degrees),
        "lands_in_kernel": T.mul(U).is_zero_matrix,
        "kernel_misses_section": V.mul(S).is_zero_matrix,
    }
    if not all(identities.values()):
        bad = [k for k, v in identities.items() if not v]
        raise InternalError(
            f"splitting identities failed: {', '.join(bad)}")

    witnesses = {
        "complement_inclusion": U,
        "complement_retraction": V,
        "pivots": pivots,
        "identities": identities,
        "q": q,
        "p": n - q,
        "power_check": None,
    }

    if C is not None:
        pi = power_scalar_hom(C, T)
        sig = power_scalar_hom(C, S)
        onto = is_surjective(pi)
        splits = pi.compose(sig).equals(identity_hom(pi.target))
        e_pow = sig.compose(pi)
        Im = image(e_pow)[0]
        img_iso = hom_is_isomorphism(ModuleHom(Im, pi.target, pi.matrix))
        one_minus = ModuleHom(
            e_pow.source, e_pow.source,
            RingMatrix.identity(R, e_pow.source.gen_degrees).sub(
                e_pow.matrix))
        if free:
            v_pow = power_scalar_hom(C, V)
            Co = image(one_minus)[0]
            co_iso = hom_is_isomorphism(
                ModuleHom(Co, v_pow.target, v_pow.matrix))
        else:
            # rank-0 complement: S.T = 1 exactly, so 1 - e_pow vanishes
            co_iso = True
        power = {
            "surjective": onto,
            "section_splits": splits,
            "image_is_power": img_iso,
            "complement_is_power": co_iso,
        }
        if not all(power.values()):
            bad = [k for k, v in power.items() if not v]
            raise VerificationError(
                f"module-level splitting check failed: {', '.join(bad)}")
        witnesses["power_check"] = power

    return S, witnesses


# ---------------------------------------------------------------------------
# Evaluation and the class of modules C resolves.

def evaluation_hom(C: FPModule, Y: FPModule, H=None) -> ModuleHom:
    """The natural map C (x) Hom(C, Y) -> Y sending c (x) psi to psi(c)."""
    if H is None:
        H = HomModule(C, Y)
    Tm = tensor_product(C, H.module)
    gens_h = [H.generator_hom(t).matrix for t in range(H.module.ngens)]
    # generator (i, t) of the tensor product goes to psi_t(e_i)
    cols = [g.cols[i] for i in range(C.ngens) for g in gens_h]
    mat = RingMatrix(C.ring, cols, Y.gen_degrees, Tm.gen_degrees)
    return ModuleHom(Tm, Y, mat)


def bass_class_check(C: FPModule, Y: FPModule, ext_bound=None, H=None):
    """Does C resolve Y?  True iff Ext^i(C, Y) vanishes for 1 <= i <=
    ext_bound and the evaluation map C (x) Hom(C, Y) -> Y is an
    isomorphism, both checked on explicit constructions.

    Returns (holds, info) where info records the bound, the first
    nonvanishing Ext index if any, and the evaluation verdict."""
    R = C.ring
    if ext_bound is None:
        ext_bound = default_ext_bound(R)
    first_bad = first_nonvanishing_ext(C, Y, 1, ext_bound)
    H = H if H is not None else HomModule(C, Y)
    ev = evaluation_hom(C, Y, H)
    ev_iso = hom_is_isomorphism(ev)
    holds = first_bad is None and ev_iso
    info = {
        "ext_bound": ext_bound,
        "ext_vanishing": first_bad is None,
        "first_nonzero_ext": first_bad,
        "evaluation_is_isomorphism": ev_iso,
        "holds": holds,
    }
    return holds, info


def hom_left_exactness(C: FPModule, M: FPModule, x: Polynomial) -> dict:
    """Check exactness of 0 -> Hom(C, K) -> Hom(C, M) -x-> Hom(C, M)
    where K is the kernel of multiplication by x on M.

    The induced inclusion is built generator by generator and verified
    to be injective with image exactly the kernel of x on Hom(C, M)."""
    R = M.ring
    x = R.nf(x)
    if x.is_zero:
        raise ValueError("need a nonzero ring element")
    K, incl = kernel_of_scalar(M, x)
    HK = HomModule(C, K)
    HM = HomModule(C, M)
    cols = []
    for t in range(HK.module.ngens):
        pushed = incl.compose(HK.generator_hom(t))
        cols.append(tuple(HM.coordinates_of(pushed)))
    mat = RingMatrix.from_columns(R, cols, HM.module.gen_degrees,
                                  HK.module.gen_degrees)
    induced = ModuleHom(HK.module, HM.module, mat)
    xhom = scalar_hom(HM.module, x)
    report = {
        "composition_zero": xhom.compose(induced).is_zero_hom(),
        "injective": is_injective(induced),
        "kernel_matches": homology_is_zero(induced, xhom),
    }
    report["holds"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# Resolutions by copies of C.

class CResolution:
    """A finite resolution of Y by direct sums of twisted copies of C.

    base holds the underlying free complex (the matrices read over the
    ring); complex holds the same matrices acting on direct sums of
    copies of C; augmentation maps the zeroth stage onto Y.  Both
    readings are exactness-checked on construction by c_resolution."""

    __slots__ = ("C", "Y", "length", "base", "complex", "augmentation",
                 "checks")

    def __init__(self, C, Y, length, base, cplx, augmentation, checks):
        self.C = C
        self.Y = Y
        self.length = length
        self.base = base
        self.complex = cplx
        self.augmentation = augmentation
        self.checks = checks

    def copies(self, i: int) -> int:
        return self.base.modules[i].ngens

    def twists(self, i: int):
        return self.base.modules[i].gen_degrees

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "copies": [self.copies(i) for i in range(self.length + 1)],
            "twists": [list(self.twists(i)) for i in range(self.length + 1)],
            "matrices": [m.matrix.to_rows_str() for m in self.base.maps],
            "checks": self.checks,
        }

    def __repr__(self):
        return f"CResolution(length={self.length})"


def c_resolution(H: HomModule, max_length=None) -> CResolution:
    """Resolve Y by direct sums of copies of C, where H = Hom(C, Y), and
    verify the result.

    The matrices come from the minimal free resolution of Hom(C, Y).
    Read over the ring they must stay a resolution of Hom(C, Y); read on
    copies of C they must form an exact complex with the evaluation-built
    augmentation onto Y.  Both directions are checked degree by degree
    and any failure is a hard error."""
    C, Y = H.source, H.target
    R = C.ring
    if max_length is None:
        max_length = default_ext_bound(R)
    h = H.module
    try:
        length = projective_dimension(h, max_length)
    except TruncationError:
        raise TruncationError(
            f"no finite C-dimension detected up to bound {max_length}",
            bound=max_length)
    res = free_resolution(h, length)
    hm = h.minimal()[0]
    base = resolution_complex(res, length)

    powers = [power_with_twists(C, [-d for d in res.degrees(i)])
              for i in range(length + 1)]
    cmaps = [power_scalar_hom(C, res.maps[i], powers[i + 1], powers[i])
             for i in range(length)]
    cplx = ChainComplex(powers, cmaps)

    # Augmentation: generator t of the minimal Hom presentation carries a
    # homomorphism C -> Y; its column block is that map's matrix.  With
    # psi_s the map of generator s of h, column (t, a) is
    # sum_s inj[s][t] * psi_s(e_a).
    inj = h.minimal()[2].matrix
    gens_h = [H.generator_hom(s).matrix for s in range(h.ngens)]
    at = [RingMatrix(R, [g.cols[a] for g in gens_h], Y.gen_degrees,
                     [g.col_degrees[a] for g in gens_h])
          for a in range(C.ngens)]
    cols = [at[a].apply_vec(v) for v in inj.cols for a in range(C.ngens)]
    aug = ModuleHom(powers[0], Y, RingMatrix(
        R, cols, Y.gen_degrees, powers[0].gen_degrees))

    checks = {"ring_side": {}, "module_side": {}}

    ok, _ = is_isomorphic(base.homology(0), hm)
    checks["ring_side"]["cokernel_is_hom"] = ok
    if not ok:
        raise VerificationError(
            "free complex does not present Hom(C, Y) at stage 0")
    for i in range(1, length + 1):
        ok = base.is_exact_at(i)
        checks["ring_side"][f"exact_at_{i}"] = ok
        if not ok:
            raise VerificationError(
                f"free complex fails exactness at stage {i}")

    if not aug.well_defined():
        raise VerificationError("augmentation is not well defined")
    if length == 0:
        ok = hom_is_isomorphism(aug)
        checks["module_side"]["augmentation_iso"] = ok
        if not ok:
            raise VerificationError(
                "length-0 case: the evaluation augmentation is not an "
                "isomorphism onto Y")
    else:
        ok = is_surjective(aug)
        checks["module_side"]["augmentation_onto"] = ok
        if not ok:
            raise VerificationError("augmentation does not cover Y")
        ok = aug.compose(cmaps[0]).is_zero_hom()
        checks["module_side"]["complex_at_0"] = ok
        if not ok:
            raise VerificationError(
                "first boundary does not land in the augmentation kernel")
        ok = homology_is_zero(cmaps[0], aug)
        checks["module_side"]["exact_at_0"] = ok
        if not ok:
            raise VerificationError(
                "augmentation kernel exceeds the first boundary image")
        for i in range(1, length + 1):
            ok = cplx.is_exact_at(i)
            checks["module_side"][f"exact_at_{i}"] = ok
            if not ok:
                raise VerificationError(
                    f"complex of copies of C fails exactness at stage {i}")

    return CResolution(C, Y, length, base, cplx, aug, checks)


def c_dimension(C: FPModule, Y: FPModule, bound=None) -> int:
    """Length of the finite resolution of Y by copies of C, equal to the
    projective dimension of Hom(C, Y).  Raises TruncationError with the
    bound when no finite value is detected."""
    R = C.ring
    if bound is None:
        bound = default_ext_bound(R)
    H = HomModule(C, Y)
    try:
        return projective_dimension(H.module, bound)
    except TruncationError:
        raise TruncationError(
            f"no finite C-dimension detected up to bound {bound}",
            bound=bound)


# ---------------------------------------------------------------------------
# Nonzerodivisor reduction.

def reduce_by_nzd(ring: GradedRing, C: FPModule, x: Polynomial,
                  ext_bound=None):
    """Pass the certificate down a quotient by a nonzerodivisor.

    x must be homogeneous of positive degree and a nonzerodivisor both on
    the ring and on C; both facts are decided by colon computations and a
    failure raises with the witness.  Returns (R', C/xC over R', new
    certificate), where the certificate is recomputed from scratch over
    the quotient."""
    if C.ring != ring:
        raise ValueError("reduce of a module over a different ring")
    x = ring.nf(x)
    d = x.homogeneous_degree()
    if d is None or d <= 0:
        raise ValueError("need a homogeneous element of positive degree")
    g = ring.zerodivisor_witness(x)
    if g is not None:
        raise ValueError(
            f"{x} is a zerodivisor on the ring: ({x}) kills {g}, which is "
            "nonzero in the quotient")
    K, incl = kernel_of_scalar(C, x)
    if not K.is_zero_module():
        Km, _, kinj = K.minimal()
        col = incl.compose(kinj).matrix
        witness = [str(f) for f in col.column(0)]
        raise ValueError(
            f"{x} is a zerodivisor on the module: it kills the element "
            f"[{', '.join(witness)}]")
    R2 = ring.quotient_by(x)
    C2 = base_change_module(quotient_by_element(C, x), R2).minimal()[0]
    cert = check_semidualizing(C2, ext_bound)
    return R2, C2, cert


# ---------------------------------------------------------------------------
# The depth identity, replayed end to end.

class ABReport:
    """Everything verify_ab measured and checked, with witnesses.

    passed is the depth identity c_dim = depth C - depth Y.  c_dim is the
    length of the C-resolution, which is built from the minimal free
    resolution of Hom(C, Y), so it equals pd_hom = pd Hom(C, Y) by
    construction; what is verified is the exactness of that resolution,
    over the ring and on copies of C.  All machinery failures (a
    zerodivisor where a nonzerodivisor was claimed, an inexact
    C-resolution, a pd jump along the reduction, a nonzero final depth)
    raise instead of reporting."""

    __slots__ = (
        "ring", "C", "Y", "certificate", "bass", "resolution", "c_dim",
        "depth_C", "depth_Y", "pd_hom", "identity_holds", "reduction",
        "final_depth_zero", "ext_bound",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def passed(self) -> bool:
        return self.identity_holds

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.describe(),
            "C": self.C.describe(),
            "Y": self.Y.describe(),
            "certificate": self.certificate.to_json_dict(),
            "c_dim": self.c_dim,
            "depth_C": self.depth_C.value,
            "depth_Y": self.depth_Y.value,
            "pd_hom": self.pd_hom,
            "ab_identity": self.identity_holds,
            "ext_bound": self.ext_bound,
            "witnesses": {
                "regular_sequence": [str(f) for f in self.depth_Y.witness],
                "splitting_matrices": [],
            },
        }

    def __repr__(self):
        return (f"ABReport(c_dim={self.c_dim}, depth_C={self.depth_C.value}, "
                f"depth_Y={self.depth_Y.value}, passed={self.passed})")


def verify_ab(C: FPModule, Y: FPModule, ext_bound=None, pd_bound=None,
              degree_bound: int = 4, seed: int = 0) -> ABReport:
    """Verify the depth identity for Y against a certified C.

    Pipeline: certify C; check that C resolves Y (Ext vanishing plus the
    evaluation isomorphism); build and verify the resolution of Y by
    copies of C; measure both depths with explicit maximal regular
    sequences; then replay the reduction argument along the regular
    sequence on Y, confirming at every step that the element is a
    nonzerodivisor in the ring and on Hom(C, Y), that the projective
    dimension of the reduced Hom module is unchanged, and that the final
    quotient of Y has depth zero.  The C-resolution has the length of
    the minimal free resolution of Hom(C, Y), so c_dim = pd Hom(C, Y)
    holds by construction once its exactness checks pass.  The depth
    identity

        c_dim = depth C - depth Y

    is reported; everything else raises on failure."""
    R = C.ring
    if ext_bound is None:
        ext_bound = default_ext_bound(R)
    if pd_bound is None:
        pd_bound = default_ext_bound(R)
    if Y.is_zero_module():
        raise ValueError("the zero module has no depth; refusing to verify")

    cert = check_semidualizing(C, ext_bound)
    if not cert.passed:
        raise VerificationError(
            f"module is not certified semidualizing: verdict {cert.verdict}")
    H = HomModule(C, Y)
    ok, bass = bass_class_check(C, Y, ext_bound, H)
    if not ok:
        if not bass["ext_vanishing"]:
            raise VerificationError(
                f"Ext^{bass['first_nonzero_ext']}(C, Y) does not vanish; "
                "C does not resolve Y")
        raise VerificationError(
            "evaluation map C (x) Hom(C, Y) -> Y is not an isomorphism")

    resolution = c_resolution(H, pd_bound)
    cdim = pd_hom = resolution.length
    depth_C = depth_with_witness(C, degree_bound=degree_bound, seed=seed)
    depth_Y = depth_with_witness(Y, degree_bound=degree_bound, seed=seed)
    identity_holds = cdim == depth_C.value - depth_Y.value

    # Reduction replay along the maximal regular sequence on Y.
    cur_ring = R
    cur_Y = Y
    cur_h = H.module.minimal()[0]
    pd_cur = pd_hom
    steps = []
    for x in depth_Y.witness:
        if not is_nzd_on(cur_Y, x):
            raise VerificationError(
                f"replay: {x} is a zerodivisor on the reduced test module")
        g = cur_ring.zerodivisor_witness(x)
        if g is not None:
            raise VerificationError(
                f"replay: {x} is a zerodivisor in the ring, witness {g}")
        if not is_nzd_on(cur_h, x):
            raise VerificationError(
                f"replay: {x} is a zerodivisor on Hom(C, Y); the transfer "
                "property failed")
        next_ring = cur_ring.quotient_by(x)
        cur_Y = base_change_module(
            quotient_by_element(cur_Y, x), next_ring).minimal()[0]
        cur_h = base_change_module(
            quotient_by_element(cur_h, x), next_ring).minimal()[0]
        pd_next = projective_dimension(cur_h, pd_bound)
        steps.append({
            "element": str(x),
            "ring_nzd": True,
            "hom_nzd": True,
            "pd_before": pd_cur,
            "pd_after": pd_next,
        })
        if pd_next != pd_cur:
            raise VerificationError(
                f"replay: projective dimension moved from {pd_cur} to "
                f"{pd_next} when cutting by {x}")
        pd_cur = pd_next
        cur_ring = next_ring
    final_depth = depth(cur_Y)
    if final_depth != 0:
        raise VerificationError(
            f"replay: expected depth 0 after the full sequence, got "
            f"{final_depth}")

    return ABReport(
        ring=R, C=C, Y=Y, certificate=cert, bass=bass,
        resolution=resolution, c_dim=cdim, depth_C=depth_C,
        depth_Y=depth_Y, pd_hom=pd_hom, identity_holds=identity_holds,
        reduction=steps, final_depth_zero=True,
        ext_bound=ext_bound)


# ---------------------------------------------------------------------------
# Consequence checks.

def _mutual_radical(R: GradedRing, A, B) -> bool:
    """V(A) == V(B), by radical membership of each generator set in the
    other ideal."""
    return (all(radical_membership(g, B) for g in A.gens)
            and all(radical_membership(g, A) for g in B.gens))


def corollary_suite(C: FPModule, Y=None, seed: int = 0) -> dict:
    """Verify the consequence identities of a certified C, reported
    pass/fail per item and never raising.

    Ring side: C is faithful, its support is the whole spectrum, and its
    dimension and depth agree with the ring's.  With a test module Y:
    support, dimension and depth agree between Y and Hom(C, Y), and
    multiplication by a sampled homogeneous element is injective on Y
    exactly when it is on Hom(C, Y).  Sampling covers every monomial of
    exponent sum at most 3 plus 64 seeded random combinations within each
    degree class."""
    R = C.ring
    report = {}
    ann_c = annihilator(C)
    report["faithful"] = all(R.ideal.contains(g) for g in ann_c.gens)
    report["support_is_spectrum"] = _mutual_radical(R, ann_c, R.ideal)
    dim_c, dim_r = module_dimension(C), R.dimension
    report["dim_C"] = dim_c
    report["dim_ring"] = dim_r
    report["dim_equal"] = dim_c == dim_r
    depth_c, depth_r = depth(C), depth(free_module(R, (0,)))
    report["depth_C"] = depth_c
    report["depth_ring"] = depth_r
    report["depth_equal"] = depth_c == depth_r

    if Y is not None:
        if Y.is_zero_module():
            report["Y"] = {"is_zero": True}
        else:
            hm = HomModule(C, Y).module.minimal()[0]
            sub = {}
            sub["supp_equal"] = _mutual_radical(
                R, annihilator(Y), annihilator(hm))
            sub["dim_Y"] = module_dimension(Y)
            sub["dim_hom"] = module_dimension(hm)
            sub["dim_equal"] = sub["dim_Y"] == sub["dim_hom"]
            sub["depth_Y"] = depth(Y)
            sub["depth_hom"] = depth(hm)
            sub["depth_equal"] = sub["depth_Y"] == sub["depth_hom"]
            sub["nzd_transfer"] = _nzd_transfer_sample(R, Y, hm, seed)
            report["Y"] = sub

    flat = [v for k, v in report.items() if isinstance(v, bool)]
    if isinstance(report.get("Y"), dict) and "is_zero" not in report["Y"]:
        flat += [v for k, v in report["Y"].items() if isinstance(v, bool)]
        flat.append(report["Y"]["nzd_transfer"]["all_agree"])
    report["all_pass"] = all(flat)
    return report


def _nzd_transfer_sample(R, Y, hm, seed):
    """Sample homogeneous elements and compare zerodivisor behavior on Y
    and on the Hom module; disagreements are collected verbatim."""
    amb = R.ambient
    classes = {}
    for e in _exponents_up_to(amb.nvars, 3):
        classes.setdefault(amb.wdeg(e), []).append(e)
    samples = 0
    mismatches = []
    for f in homogeneous_candidates(
            amb, (classes[d] for d in sorted(classes)),
            random.Random(seed), 64):
        fn = R.nf(f)
        if fn.is_zero:
            continue
        samples += 1
        if is_nzd_on(Y, fn) != is_nzd_on(hm, fn):
            mismatches.append(str(fn))
    return {
        "samples": samples,
        "degree_classes": len(classes),
        "mismatches": mismatches,
        "all_agree": not mismatches,
    }


def _exponents_up_to(nvars: int, cap: int):
    """Nonzero exponent tuples with coordinate sum at most cap."""
    out = []

    def rec(i, rem, acc):
        if i == nvars:
            if any(acc):
                out.append(tuple(acc))
            return
        for v in range(rem + 1):
            rec(i + 1, rem - v, acc + [v])

    rec(0, cap, [])
    return out
