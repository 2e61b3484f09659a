"""Finitely presented graded modules: kernels, Hom, tensor, minimality."""

import random

import pytest

from semidual import fpmod, groebner
from semidual.polyring import PolyRing, PrimeField, mono_mul
from semidual.groebner import (
    GradedRing,
    IncrementalSpan,
    ModuleGB,
    buchberger,
    relative_kernel,
)
from semidual.fpmod import (
    FPModule,
    HomModule,
    ModuleHom,
    RingMatrix,
    TruncationError,
    annihilator,
    cokernel,
    direct_sum,
    free_module,
    homology_at,
    homology_is_zero,
    identity_hom,
    is_injective,
    is_isomorphic,
    is_nzd_on,
    is_surjective,
    kernel,
    kernel_of_scalar,
    minimal_generators,
    power_scalar_hom,
    power_with_twists,
    quotient_by_element,
    residue_field_module,
    tensor_product,
    tuple_to_vec,
)
from semidual.homalg import ext_module
from semidual.semidual import check_semidualizing

from helpers_random import (
    block_diagonal,
    by_components,
    random_block,
    random_module,
    seed_only_block,
)

F = PrimeField(101)


@pytest.fixture(scope="module")
def plane():
    S = PolyRing(F, ("x", "y"))
    return S, GradedRing(S, [], name="R")


def test_koszul_kernel(plane):
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    phi = ModuleHom.from_entries(
        free_module(R, (1, 1)), free_module(R, (0,)), [[x, y]])
    K, incl = kernel(phi)
    assert K.gen_degrees == (2,) and K.relations.ncols == 0
    col = [str(f) for f in incl.matrix.column(0)]
    assert col in (["y", "100*x"], ["100*y", "x"])
    assert is_injective(incl)
    assert not is_surjective(phi.compose(incl))  # composite is zero


def test_residue_field(plane):
    S, R = plane
    k = residue_field_module(R)
    assert sorted(str(g) for g in annihilator(k).gens) == ["x", "y"]
    assert k.graded_piece_dim(0) == 1
    assert k.graded_piece_dim(1) == 0


def test_minimal_prunes_unit_entries(plane):
    S, R = plane
    x = S.variable(0)
    rel = RingMatrix.from_columns(R, [(x, S.constant(100))], (0, 1), [1])
    M = FPModule(R, (0, 1), rel)
    Mm, proj, inj = M.minimal()
    assert Mm.gen_degrees == (0,) and Mm.relations.ncols == 0
    assert proj.well_defined() and inj.well_defined()
    assert proj.compose(inj).equals(identity_hom(Mm))


def test_hom_and_tensor_of_residue_field(plane):
    S, R = plane
    k = residue_field_module(R)
    H = HomModule(k, k)
    assert H.module.minimal()[0].gen_degrees == (0,)
    coords = H.coordinates_of(identity_hom(k))
    assert len(coords) == H.module.ngens
    assert H.generator_hom(0).well_defined()
    T = tensor_product(k, k)
    assert T.minimal()[0].gen_degrees == (0,)
    assert T.graded_piece_dim(0) == 1 and T.graded_piece_dim(1) == 0


def test_isomorphism_detection(plane):
    S, R = plane
    k = residue_field_module(R)
    ok, wit = is_isomorphic(k, k)
    assert ok and wit.well_defined()
    assert not is_isomorphic(free_module(R, (0,)), k)[0]
    assert is_isomorphic(free_module(R, (0, 1)), free_module(R, (1, 0)))[0]


def test_isomorphism_search_that_runs_out_is_a_resource_bound(
        monkeypatch, plane):
    S, R = plane
    M = free_module(R, (0, 1))
    N = free_module(R, (1, 0))
    monkeypatch.setattr(fpmod, "is_invertible", lambda mat, p: False)
    with pytest.raises(TruncationError, match="exhausted its") as err:
        is_isomorphic(M, N)
    # Hom_0(M, N) has dimension 4: the two identities, x and y
    assert err.value.bound == 4 + 64
    assert "68 candidate degree-zero maps (4 unit, 64 random)" in str(err.value)
    # the proven negatives need no search and still answer False
    assert is_isomorphic(free_module(R, (0,)), N) == (False, None)


def test_koszul_complex_exactness(plane):
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    F1 = free_module(R, (1, 1))
    d1 = ModuleHom.from_entries(F1, free_module(R, (0,)), [[x, y]])
    d2 = ModuleHom.from_entries(free_module(R, (2,)), F1, [[y], [-x]])
    assert homology_is_zero(d2, d1)
    assert homology_at(d2, d1).is_zero_module()
    okk, _ = is_isomorphic(cokernel(d1), residue_field_module(R))
    assert okk


@pytest.fixture(scope="module")
def omega():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    I = [y * y - x * z, x**3 - y * z, x * x * y - z * z]
    R = GradedRing(S, I, name="R")
    wrel = RingMatrix.from_columns(
        R, [(z, x * x), (y, z), (-x, -y)], (1, 0), [6, 5, 4])
    return S, R, FPModule(R, (1, 0), wrel)


def test_omega_graded_pieces(omega):
    S, R, W = omega
    # frozen from an independent Hilbert series expansion
    assert [W.graded_piece_dim(d) for d in range(9)] == \
        [1, 1, 0, 1, 1, 1, 1, 1, 1]
    assert W.minimal()[0].gen_degrees in ((1, 0), (0, 1))


def test_omega_is_faithful(omega):
    S, R, W = omega
    annW = annihilator(W)
    assert all(R.ideal.contains(g) for g in annW.gens)


def test_omega_endomorphisms_are_scalars(omega):
    S, R, W = omega
    E = HomModule(W, W)
    Em = E.module.minimal()[0]
    assert Em.gen_degrees == (0,)
    okE, _ = is_isomorphic(E.module, free_module(R, (0,)))
    assert okE


def test_omega_scalar_action(omega):
    S, R, W = omega
    x, y = S.variable(0), S.variable(1)
    assert is_nzd_on(W, x)
    K0, _ = kernel_of_scalar(W, x)
    assert K0.is_zero_module()
    W1 = quotient_by_element(W, x)
    assert not W1.is_zero_module()
    assert not is_nzd_on(W1, y)     # maximal ideal is nilpotent there


def test_matrix_entries_and_seeded_basis_are_reduced(omega):
    S, R, W = omega
    x, y, z = (S.variable(i) for i in range(3))
    yy = y * y
    assert R.nf(yy) != yy
    M = RingMatrix.from_rows(R, [[yy, S.zero()], [S.zero(), x]], (0, 0),
                             (8, 3))
    assert M.entries[0][0] == R.nf(yy)
    assert M.entries[0][1].is_zero and M.entries[1][0].is_zero
    assert M.entries[1][1] == x
    gb = ModuleGB.from_reduced(S, W.relgb.basis, W.ngens)
    assert gb.contains(tuple_to_vec((z, x * x)))  # a relation column
    for d in range(9):
        for e in S.monomials_of_wdeg(d):
            for i in range(W.ngens):
                assert gb.nf({(i, e): 1}) == W.relgb.nf({(i, e): 1})


def test_power_with_twists(omega):
    S, R, W = omega
    W2 = power_with_twists(W, [0, -3])
    assert W2.gen_degrees == (1, 0, 4, 3)
    assert W2.graded_piece_dim(0) == 1


# ---------------------------------------------------------------------------
# Sparse storage and the block builder, against dense matrices by hand.

def dense(mat):
    return [list(row) for row in mat.entries]


def reduced(R, rows):
    return [[R.nf(f) for f in row] for row in rows]


def test_direct_sum_relations_are_block_diagonal(plane, omega):
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    z0 = S.zero()
    k = residue_field_module(R)
    D = direct_sum([k, k.twist(1)])
    assert D.gen_degrees == (0, -1)
    assert D.relations.col_degrees == (1, 1, 0, 0)
    assert dense(D.relations) == [[x, y, z0, z0], [z0, z0, x, y]]
    S3, R3, W = omega
    x, y, z = (S3.variable(i) for i in range(3))
    z0 = S3.zero()
    D = direct_sum([W, W])
    assert dense(D.relations) == reduced(R3, [
        [z, y, -x, z0, z0, z0],
        [x * x, z, -y, z0, z0, z0],
        [z0, z0, z0, z, y, -x],
        [z0, z0, z0, x * x, z, -y]])


def test_tensor_product_relation_blocks(plane, omega):
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    k = residue_field_module(R)
    assert dense(tensor_product(k, k).relations) == [[x, y, x, y]]
    S3, R3, W = omega
    x, y, z = (S3.variable(i) for i in range(3))
    z0 = S3.zero()
    # relations of W (x) 1_W, then 1_W (x) relations of W
    T = tensor_product(W, W)
    assert T.gen_degrees == (2, 1, 1, 0)
    assert T.relations.col_degrees == (7, 6, 6, 5, 5, 4) * 2
    assert dense(T.relations) == reduced(R3, [
        [z, z0, y, z0, -x, z0, z, z0, y, z0, -x, z0],
        [z0, z, z0, y, z0, -x, x * x, z0, z, z0, -y, z0],
        [x * x, z0, z, z0, -y, z0, z0, z, z0, y, z0, -x],
        [z0, x * x, z0, z, z0, -y, z0, x * x, z0, z, z0, -y]])


def test_hom_module_composes_with_each_relation(monkeypatch, plane, omega):
    seen = []
    real = fpmod.kernel_columns
    monkeypatch.setattr(fpmod, "kernel_columns",
                        lambda phi: seen.append(phi) or real(phi))
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    k = residue_field_module(R)
    HomModule(k, k)
    assert dense(seen[-1].matrix) == [[x], [y]]
    S3, R3, W = omega
    x, y, z = (S3.variable(i) for i in range(3))
    z0 = S3.zero()
    HomModule(W, W)
    # the transposed relation matrix of W, (x) 1_W
    assert dense(seen[-1].matrix) == reduced(R3, [
        [z, z0, x * x, z0],
        [z0, z, z0, x * x],
        [y, z0, z, z0],
        [z0, y, z0, z],
        [-x, z0, -y, z0],
        [z0, -x, z0, -y]])


def test_matrix_equality_and_hash_do_not_depend_on_the_build(omega):
    S, R, W = omega
    x, y, z = (S.variable(i) for i in range(3))
    yy = y * y      # reduces to x*z
    by_cols = RingMatrix.from_columns(
        R, [(z, x * x), (y, z), (-x, -y), (S.zero(), yy)], (1, 0),
        [6, 5, 4, 8])
    by_rows = RingMatrix.from_rows(
        R, [[z, y, -x, S.zero()], [x * x, z, -y, yy]], (1, 0), (6, 5, 4, 8))

    def vec(*entries):  # rows listed last first, terms as given
        return {(i, e): c for i, f in reversed(entries) for e, c in f.terms}

    sparse = RingMatrix(
        R, [vec((0, z), (1, x * x)), vec((0, y), (1, z)),
            vec((0, -x), (1, -y)), vec((1, x * z))],
        (1, 0), (6, 5, 4, 8))
    assert by_cols == by_rows == sparse
    assert hash(by_cols) == hash(by_rows) == hash(sparse)
    assert by_cols == W.relations.stack_cols(
        RingMatrix.from_columns(R, [(S.zero(), x * z)], (1, 0), [8]))
    assert by_cols.entries[1][3] == x * z


def test_block_matrix_equals_the_normal_forming_build(all_corpus):
    """block_matrix keeps the placed columns as given; they must equal,
    storage order included, what __init__ builds from the same vectors."""
    for corp in all_corpus:
        R = corp.ring
        for rel in (corp.C.relations, corp.k.relations):
            twists = (0, 2)
            n = len(twists)
            placed = [(v, n, b) for v in rel.dual().cols for b in range(n)]
            rdegs = [t - d for d in rel.col_degrees for t in twists]
            cdegs = [t - d for d in rel.row_degrees for t in twists]
            got = fpmod.block_matrix(R, placed, rdegs, cdegs)
            want = RingMatrix(
                R, [{(i * s + o, e): c for (i, e), c in v.items()}
                    for v, s, o in placed], rdegs, cdegs)
            assert got == want, corp.name
            assert [list(v.items()) for v in got.cols] == \
                [list(v.items()) for v in want.cols]


def test_wrong_degree_entry_is_rejected(omega):
    S, R, W = omega
    x = S.variable(0)
    msg = r"entry \(1,0\) = x has degree 3, expected 4"
    with pytest.raises(ValueError, match=msg):
        RingMatrix.from_rows(R, [[S.zero()], [x]], (1, 0), (4,))
    with pytest.raises(ValueError, match=msg):
        RingMatrix(R, [{(1, (1, 0, 0)): 1}], (1, 0), (4,))
    with pytest.raises(ValueError, match=msg):
        fpmod.block_matrix(R, [({(0, (1, 0, 0)): 1}, 1, 1)], (1, 0), (4,))


def _one_span_pass(R, cols, row_degrees, reduced_seed):
    """min_generate_columns as one span over every column."""
    if reduced_seed is None:
        reduced_seed = fpmod.inflation_vectors(R, len(row_degrees))
    span = IncrementalSpan(R.ambient, reduced_seed=reduced_seed)
    staged = sorted((d, j, v) for j, v in enumerate(cols) for d in
                    [fpmod.column_degree(R.ambient, v, row_degrees)]
                    if d is not None)
    return [(j, v, d) for d, j, v in staged if span.add(v)]


def test_min_generate_columns_by_blocks_matches_one_span(all_corpus):
    """Block-diagonal columns with two identical copies, a seed-only block,
    a zero column and interleaved rows: one span over everything keeps
    what deciding each row block on its own keeps, which is what lets
    syzygies choose one component at a time."""
    for corp in all_corpus:
        R = corp.ring
        for case in range(3):
            rng = random.Random(f"{corp.name}-{case}")
            templates = [random_block(R, rng)
                         for _ in range(rng.randint(1, 3))]
            blocks = templates + [templates[0], seed_only_block(R, rng)]
            rng.shuffle(blocks)
            seed, cols, rdegs, _ = block_diagonal(blocks, rng)
            for whole_seed in (seed, None):
                def solve(bcols, bseed, idx):
                    kept = fpmod.min_generate_columns(
                        R, bcols, rdegs, bseed if whole_seed else None)
                    return [(idx[t], v, d) for t, v, d in kept]
                want = sorted((t for kept in by_components(cols, seed, solve)
                               for t in kept), key=lambda t: (t[2], t[0]))
                got = fpmod.min_generate_columns(R, cols, rdegs, whole_seed)
                assert got == want, (corp.name, case)
                assert len(got) < sum(1 for v in cols if v)


def test_min_generate_columns_skips_zero_extra_vectors(plane):
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    cols = [tuple_to_vec((x, S.zero())), {}, tuple_to_vec((S.zero(), y)),
            tuple_to_vec((x * y, S.zero()))]
    want = fpmod.min_generate_columns(R, cols, (0, 0))
    assert [j for j, _, _ in want] == [0, 2]
    assert want == _one_span_pass(R, cols, (0, 0), None)


# -- membership over block-diagonal input ------------------------------

def _one_span(amb, seed, gens, vecs):
    """in_span as one span over everything."""
    span = IncrementalSpan(amb, gens, reduced_seed=seed)
    return all(span.contains(u) for u in vecs)


def _module_on(R, seed, rdegs):
    """The module on generators of degrees rdegs related by seed."""
    cdegs = [fpmod.column_degree(R.ambient, v, rdegs) for v in seed]
    return FPModule(R, rdegs, RingMatrix(R, seed, rdegs, cdegs))


def _hom_onto(R, cols, target):
    """The map from a free module to target given by the columns; a zero
    column gets degree 0."""
    cdegs = [fpmod.column_degree(R.ambient, v, target.gen_degrees)
             for v in cols]
    cdegs = [0 if d is None else d for d in cdegs]
    mat = RingMatrix(R, cols, target.gen_degrees, cdegs)
    return ModuleHom(free_module(R, cdegs), target, mat)


def _exact_pair(R, seed, cols, rdegs):
    """(into, outof), exact at the middle: outof is given by the columns
    and into is the inclusion of its kernel."""
    outof = _hom_onto(R, cols, _module_on(R, seed, rdegs))
    return kernel(outof)[1], outof


def _onto_block(R, rng):
    """A random block whose columns include every unit vector."""
    seed, cols, rdegs = random_block(R, rng)
    zero = R.ambient._zero_exps
    return seed, cols + [{(i, zero): 1} for i in range(len(rdegs))], rdegs


def _append_block(placed, block):
    """block_diagonal's output with one more block whose rows and columns
    come after all others, so that its block is decided last."""
    seed, cols, rdegs, zero_col = placed
    bseed, bcols, brdegs = block
    off = len(rdegs)

    def move(v):
        return {(r + off, e): c for (r, e), c in v.items()}

    return (seed + [move(v) for v in bseed], cols + [move(v) for v in bcols],
            rdegs + brdegs, zero_col)


def _times_x_from(R, into, start):
    """into with each column that lives in rows >= start multiplied by the
    first variable, so that its image there is no longer all of the
    kernel."""
    amb = R.ambient
    x = amb.variable(0).terms[0][0]
    cols, cdegs = [], []
    for v, d in zip(into.matrix.cols, into.matrix.col_degrees):
        if min(r for r, _ in v) >= start:
            v = {(r, mono_mul(e, x)): c for (r, e), c in v.items()}
            d += amb.wdeg(x)
        cols.append(v)
        cdegs.append(d)
    F = into.target
    mat = RingMatrix(R, cols, F.gen_degrees, cdegs)
    return ModuleHom(free_module(R, cdegs), F, mat)


def test_is_surjective_by_blocks_matches_one_span(all_corpus):
    """Onto blocks with a copy and a zero column are onto; one block that
    is not, decided last, makes the verdict False."""
    for corp in all_corpus:
        R = corp.ring
        amb = R.ambient
        for case in range(2):
            rng = random.Random(f"onto-{corp.name}-{case}")
            onto = [_onto_block(R, rng) for _ in range(2)]
            placed = block_diagonal(onto + [onto[0]], rng)
            for last in (None, random_block(R, rng)):
                seed, cols, rdegs, _ = (placed if last is None
                                        else _append_block(placed, last))
                phi = _hom_onto(R, cols, _module_on(R, seed, rdegs))
                units = [{(i, amb._zero_exps): 1} for i in range(len(rdegs))]
                want = _one_span(amb, phi.target.relgb.basis,
                                 phi.matrix.cols, units)
                assert is_surjective(phi) == want == (last is None), \
                    (corp.name, case)


def test_homology_is_zero_by_blocks_matches_one_span(all_corpus):
    """A kernel inclusion is exact across blocks with a copy and a zero
    column; shrinking its image in the block decided last is not."""
    for corp in all_corpus:
        R = corp.ring
        amb = R.ambient
        for case in range(2):
            rng = random.Random(f"exact-{corp.name}-{case}")
            blocks = [random_block(R, rng) for _ in range(2)]
            placed = block_diagonal(blocks + [blocks[0]], rng)
            for last in (None, random_block(R, rng)):
                seed, cols, rdegs, _ = (placed if last is None
                                        else _append_block(placed, last))
                into, outof = _exact_pair(R, seed, cols, rdegs)
                if last is not None:
                    into = _times_x_from(R, into, len(placed[1]))
                want = _one_span(amb, into.target.relgb.basis,
                                 into.matrix.cols,
                                 fpmod.kernel_generators(outof))
                assert homology_is_zero(into, outof) == want == \
                    (last is None), (corp.name, case)


def test_membership_in_one_block_takes_the_unsplit_path(monkeypatch, plane):
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    F1 = free_module(R, (1, 1))
    d1 = ModuleHom.from_entries(F1, free_module(R, (0,)), [[x, y]])
    d2 = ModuleHom.from_entries(free_module(R, (2,)), F1, [[y], [-x]])
    built = []

    class Counted(IncrementalSpan):
        def __init__(self, *args, **kw):
            built.append(args)
            super().__init__(*args, **kw)

    monkeypatch.setattr(fpmod, "IncrementalSpan", Counted)
    assert homology_is_zero(d2, d1)
    assert not is_surjective(d1)
    assert [args[1] for args in built] == [d2.matrix.cols, d1.matrix.cols]
    assert built[0][1] is d2.matrix.cols and built[1][1] is d1.matrix.cols


def _intersection(G1, G2):
    """I1 cap I2, as the coefficients on the diagonal column among the
    syzygies of [(1, 1) | I1 in row 0 | I2 in row 1]."""
    ring = G1.ring
    zero = ring._zero_exps
    cols = [{(0, zero): 1, (1, zero): 1}]
    cols += [{(0, e): c for e, c in g.terms} for g in G1.gens]
    cols += [{(1, e): c for e, c in g.terms} for g in G2.gens]
    gens = [ring.from_dict({e: c for (j, e), c in s.items() if j == 0})
            for s in relative_kernel(ring, cols, (), 2)]
    return buchberger(gens, ring=ring)


def _annihilator_by_colons(M):
    """The intersection over the generators e_i of the colons
    (relations : e_i), each read off the syzygies of e_i."""
    amb = M.ring.ambient
    result = None
    for i in range(M.ngens):
        gens = [amb.from_dict({e: c for (_, e), c in s.items()})
                for s in relative_kernel(amb, [{(i, amb._zero_exps): 1}],
                                         M.relgb.basis, M.ngens)]
        colon = buchberger(gens, ring=amb)
        result = colon if result is None else _intersection(result, colon)
    return result


def test_annihilator_is_the_intersection_of_the_generator_colons(
        all_corpus, semigroup):
    """Ann M as one diagonal kernel equals the per-generator colons
    intersected, as reduced bases, over the corpus rings and F3[x,y]/(xy)
    on seeded modules with one to three generators, and over the
    semigroup ring on omega (x) omega (four generators) and Ext^2(k, k)
    (six generators)."""
    S3 = PolyRing(PrimeField(3), ("x", "y"))
    x, y = S3.variable(0), S3.variable(1)
    rings = [case.ring for case in all_corpus]
    rings.append(GradedRing(S3, [x * y]))
    modules = []
    for r, R in enumerate(rings):
        rng = random.Random(800 + r)
        modules += [random_module(R, rng, max_gens=3) for _ in range(8)]
    k = residue_field_module(semigroup.ring)
    modules += [tensor_product(semigroup.C, semigroup.C).minimal()[0],
                ext_module(k, k, 2).minimal()[0]]
    for M in modules:
        assert annihilator(M).gens == _annihilator_by_colons(M).gens
    assert {M.ngens for M in modules} == {1, 2, 3, 4, 6}


def test_hom_generators_alone_solve_no_relations(all_corpus):
    """HomModule finds minimal generators of Hom(C, C) on construction;
    counting them and testing whether the identity generates leaves the
    presentation unbuilt, and the count is that of the presented module.
    A free C presents Hom(C, C) as Hom(F0, C) itself, with no relation
    step to defer."""
    for case in all_corpus:
        C = case.C.minimal()[0]
        H = HomModule(C, C)
        assert H.homothety()[0]
        count = len(H.gen_cols)
        assert (H._module is None) == bool(C.relations.ncols)
        assert count == minimal_generators(H.module)[0] == 1


def _fresh(M):
    """M's presentation in a new object, with no memo filled."""
    return FPModule(M.ring, M.gen_degrees, M.relations)


def _items(basis):
    return [list(v.items()) for v in basis]


def _f3_quotient():
    S3 = PolyRing(PrimeField(3), ("x", "y"))
    x, y = S3.variable(0), S3.variable(1)
    return GradedRing(S3, [x * y], name="R")


def test_minimal_keeps_the_relation_basis_of_its_span(all_corpus, semigroup):
    """minimal() stores the reduced basis of the span that thinned the
    relations as N's relgb: list for list and dict for dict, it is what a
    fresh ModuleGB of N's relations and inflation gives.  A module that
    minimalises to a free module keeps the inflation block as its relgb,
    in the inflation's own order."""
    rings = [case.ring for case in all_corpus] + [_f3_quotient()]
    checked = 0
    for r, R in enumerate(rings):
        rng = random.Random(1900 + r)
        for _ in range(8):
            N = random_module(R, rng, max_gens=3).minimal()[0]
            if not N.relations.ncols:
                continue
            assert N._relgb is not None
            infl = fpmod.inflation_vectors(R, N.ngens)
            vecs = [N.relations.col_vec(j) for j in range(N.relations.ncols)]
            want = ModuleGB(R.ambient, vecs, N.ngens, reduced_seed=infl)
            assert _items(N.relgb.basis) == _items(want.basis)
            checked += 1
    assert checked == 29
    R = semigroup.ring
    x = semigroup.amb.variable(0)
    M = FPModule(R, (0, 3), RingMatrix.from_columns(
        R, [(x, R.ambient.one())], (0, 3), (3,)))
    N = M.minimal()[0]
    assert N.gen_degrees == (0,) and N.relations.ncols == 0
    assert N._relgb is None
    assert _items(N.relgb.basis) == _items(fpmod.inflation_vectors(R, 1))
    assert len(N.relgb.basis) == 3


def _homothety_candidates(all_corpus):
    """Seeded candidates over the corpus rings and F3[x,y]/(xy), minimal:
    random modules, the free module of rank two and the ring's own C."""
    cases = [(case.ring, case.C) for case in all_corpus]
    R3 = _f3_quotient()
    cases.append((R3, free_module(R3, (0,))))
    out = []
    for r, (R, C) in enumerate(cases):
        rng = random.Random(2000 + r)
        out += [random_module(R, rng, max_gens=3) for _ in range(6)]
        out += [free_module(R, (0, 0)), C]
    return [M.minimal()[0] for M in out]


def test_homothety_matches_membership_and_the_annihilator(all_corpus):
    """H.homothety() for H = End(C) answers what in_span of the identity
    and annihilator answer on fresh copies, and keeps Ann C on C."""
    seen = set()
    for C in _homothety_candidates(all_corpus):
        H = HomModule(C, C)
        generates, ann = H.homothety()
        assert C._ann is ann and annihilator(C) is ann
        F = _fresh(C)
        G = HomModule(F, F)
        want = fpmod.in_span(C.ring.ambient, G._p0.relgb.basis,
                             [G._vector(identity_hom(F))], G.gen_cols)
        assert generates == want
        assert ann.gens == annihilator(_fresh(C)).gens
        faithful = all(C.ring.ideal.contains(g) for g in ann.gens)
        seen.add((generates, faithful))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_homothety_needs_an_end_module(poly_xy):
    with pytest.raises(ValueError, match=r"the homothety needs Hom\(M, M\)"):
        HomModule(poly_xy.k, poly_xy.C).homothety()


def test_condition_i_is_one_diagonal_run(monkeypatch, semigroup):
    """check_semidualizing on a non-free candidate decides condition (i)
    with one tracked run of the diagonal, and builds no span of the
    identity apart from it."""
    runs, spans = [], []

    class Tracked(groebner.RelativeTracker):
        def __init__(self, ring, columns, seed, rank):
            runs.append(list(columns))
            super().__init__(ring, columns, seed, rank)

    class Span(IncrementalSpan):
        def __init__(self, ring, vectors=(), reduced_seed=()):
            spans.append(list(vectors))
            super().__init__(ring, vectors, reduced_seed)

    monkeypatch.setattr(groebner, "RelativeTracker", Tracked)
    monkeypatch.setattr(fpmod, "RelativeTracker", Tracked)
    monkeypatch.setattr(fpmod, "IncrementalSpan", Span)
    zero = semigroup.amb._zero_exps
    for C, passed in [(semigroup.C, True),
                      (quotient_by_element(semigroup.C, semigroup.nzd),
                       False)]:
        runs.clear()
        spans.clear()
        C = _fresh(C)
        Cm = C.minimal()[0]
        n = Cm.ngens
        assert n > 1 and Cm.relations.ncols
        cert = check_semidualizing(C, 2)
        assert cert.passed == passed
        diagonal = {(i * n + i, zero): 1 for i in range(n)}
        assert sum(cols == [diagonal] for cols in runs) == 1
        assert not any(diagonal in gens for gens in spans)


def test_power_scalar_hom_rejects_a_matrix_over_another_ring(poly_xy):
    """T over F101[x,y] and N over F7[t]: the guard raises before
    block_matrix can move T's vectors onto N's ring."""
    S7 = PolyRing(PrimeField(7), ("t",))
    R7 = GradedRing(S7, [], name="R")
    x = poly_xy.amb.variable(0)
    T = RingMatrix.from_columns(poly_xy.ring, [(x,)], (0,), (1,))
    with pytest.raises(ValueError, match="scalar matrix and module live "
                                         "over different rings"):
        power_scalar_hom(free_module(R7, (0,)), T)
