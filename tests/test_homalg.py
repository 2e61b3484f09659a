"""Resolutions, Ext, depth, dimension, Hilbert series."""

import gc
import hashlib
import itertools
import os
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import semidual
from semidual import fpmod, homalg
from semidual.cli import build_environment
from semidual.polyring import PolyRing, PrimeField, intpoly_add
from semidual.groebner import GradedRing
from semidual.fpmod import (
    FPModule,
    HomModule,
    ModuleHom,
    RingMatrix,
    direct_sum,
    free_module,
    image,
    inflation_vectors,
    is_isomorphic,
    kernel,
    kernel_columns,
    min_generate_columns,
    power_scalar_hom,
    quotient_by_element,
    residue_field_module,
)
from semidual.groebner import RelativeTracker, component_blocks
from semidual.homalg import (
    TruncationError,
    base_change_module,
    depth,
    depth_koszul,
    depth_with_witness,
    ext_is_zero,
    ext_module,
    first_nonvanishing_ext,
    free_resolution,
    hilbert_coefficients,
    hilbert_numerator_module,
    k_resolution,
    module_dimension,
    projective_dimension,
    regular_sequence_search,
    resolution_complex,
)
from semidual.semidual import check_semidualizing
from semidual.session import parse_session

from conftest import (
    make_hypersurface,
    make_poly_x,
    make_poly_xy,
    make_semigroup,
)
from helpers_random import components, random_module

F = PrimeField(101)


@pytest.fixture(scope="module")
def plane():
    S = PolyRing(F, ("x", "y"))
    return S, GradedRing(S, [], name="R")


@pytest.fixture(scope="module")
def curve():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    I = [y * y - x * z, x**3 - y * z, x * x * y - z * z]
    R = GradedRing(S, I, name="R")
    wrel = RingMatrix.from_columns(
        R, [(z, x * x), (y, z), (-x, -y)], (1, 0), [6, 5, 4])
    return S, R, FPModule(R, (1, 0), wrel)


def _no_unit_entries(res):
    """Minimality: no boundary entry of the resolution has a unit part,
    that is, no stored term has the zero exponent tuple."""
    return all(any(e) for m in res.maps for v in m.cols for _, e in v)


def test_koszul_resolution_of_k(plane):
    S, R = plane
    k = residue_field_module(R)
    res = free_resolution(k, 5)
    assert [res.betti(i) for i in range(3)] == [1, 2, 1]
    assert res.complete and _no_unit_entries(res)
    assert projective_dimension(k, 5) == 2
    cx = resolution_complex(res, 2)
    assert cx.homology(1).is_zero_module()


def test_ext_against_k(plane):
    S, R = plane
    k = residue_field_module(R)
    # m kills Ext^i(k, k), so its dimension is its generator count
    assert [ext_module(k, k, i).minimal()[0].ngens
            for i in range(4)] == [1, 2, 1, 0]


def test_depth_and_dimension_regular_case(plane):
    S, R = plane
    k = residue_field_module(R)
    Rm = free_module(R, (0,))
    assert depth(k) == 0 and depth_koszul(k) == 0
    assert depth(Rm) == 2 and depth_koszul(Rm) == 2
    assert module_dimension(k) == 0
    assert module_dimension(Rm) == 2
    seq, last = regular_sequence_search(Rm)
    assert len(seq) == 2 and not last.is_zero_module()


def test_depth_witness_agrees(plane):
    S, R = plane
    r = depth_with_witness(free_module(R, (0,)))
    assert r.value == 2 and len(r.witness) == 2
    assert r.method == "ext_k"
    rk = depth_with_witness(free_module(R, (0,)), method="koszul")
    assert rk.value == 2


def test_hilbert_series_of_plane_modules(plane):
    S, R = plane
    k = residue_field_module(R)
    assert hilbert_coefficients(
        hilbert_numerator_module(k), S.weights, 0, 4) == [1, 0, 0, 0, 0]
    assert hilbert_coefficients(
        hilbert_numerator_module(free_module(R, (0,))),
        S.weights, 0, 4) == [1, 2, 3, 4, 5]


def test_ext_k_against_ring_is_twisted_k(plane):
    # grade-sensitive oracle: Ext^2(k, R) = k(2) over two variables
    S, R = plane
    k = residue_field_module(R)
    Rm = free_module(R, (0,))
    assert ext_is_zero(k, Rm, 0)
    assert ext_is_zero(k, Rm, 1)
    E2 = ext_module(k, Rm, 2).minimal()[0]
    assert E2.gen_degrees == (-2,)
    ok, _ = is_isomorphic(E2, residue_field_module(R).twist(2))
    assert ok


def test_semigroup_k_resolution_frozen_betti(curve):
    S, R, W = curve
    kres = k_resolution(R, 4)
    assert [kres.betti(i) for i in range(5)] == [1, 3, 6, 12, 24]
    assert _no_unit_entries(kres)
    with pytest.raises(TruncationError):
        projective_dimension(residue_field_module(R), 4)


def test_semigroup_depth_dim(curve):
    S, R, W = curve
    Rm = free_module(R, (0,))
    assert depth(Rm) == 1 and depth_koszul(Rm) == 1
    assert module_dimension(Rm) == 1
    assert depth(W) == 1 and depth_koszul(W) == 1
    assert module_dimension(W) == 1
    k = residue_field_module(R)
    assert [ext_module(W, k, i).minimal()[0].ngens
            for i in range(2)] == [2, 3]
    seq, _ = regular_sequence_search(Rm)
    assert [str(f) for f in seq] == ["x"]


def test_omega_hilbert_series_matches_pieces(curve):
    S, R, W = curve
    coeffs = hilbert_coefficients(
        hilbert_numerator_module(W), S.weights, 0, 8)
    assert coeffs == [W.graded_piece_dim(d) for d in range(9)]
    assert coeffs == [1, 1, 0, 1, 1, 1, 1, 1, 1]


def test_artinian_reduction(curve):
    S, R, W = curve
    x = S.variable(0)
    R1 = R.quotient_by(x)
    kres1 = k_resolution(R1, 5)
    assert [kres1.betti(i) for i in range(6)] == [1, 2, 4, 8, 16, 32]
    assert depth(free_module(R1, (0,))) == 0
    assert depth_koszul(free_module(R1, (0,))) == 0
    W1 = base_change_module(W, R1)
    assert not W1.is_zero_module()
    assert depth(W1) == 0 and depth_koszul(W1) == 0
    assert module_dimension(W1) == 0


# ---------------------------------------------------------------------------
# The Ext walker and its memo.

def _walker_cases():
    """(label, M, N, lo, hi) on freshly declared modules.  Each call
    declares new objects, so no memoised verdict carries over."""
    xy = make_poly_xy()
    hs = make_hypersurface()
    hs_x = quotient_by_element(hs.C, hs.amb.variable(0))
    sg = make_semigroup()
    return [
        ("poly-xy Ext(k, R)", xy.k, xy.C, 0, 3),
        ("poly-xy Ext(k, k)", xy.k, xy.k, 0, 2),
        ("hypersurface Ext(k, R)", hs.k, hs.C, 0, 2),
        ("hypersurface Ext(R/x, R)", hs_x, hs.C, 1, 3),
        ("hypersurface Ext(R/x, R/x)", hs_x, hs_x, 1, 3),
        ("semigroup Ext(omega, omega)", sg.C, sg.C, 1, 2),
        ("semigroup Ext(k, omega)", sg.k, sg.C, 0, 1),
    ]


def test_walker_matches_per_index_ext_modules():
    walked = _walker_cases()
    fresh = _walker_cases()
    firsts = {}
    for (label, M, N, lo, hi), (_, M2, N2, _, _) in zip(walked, fresh):
        want = [ext_module(M2, N2, i).is_zero_module()
                for i in range(lo, hi + 1)]
        first = next((i for i, z in zip(range(lo, hi + 1), want) if not z),
                     None)
        firsts[label] = first
        assert first_nonvanishing_ext(M, N, lo, hi) == first, label
        # the verdicts memoised by that walk, then one index at a time
        assert [ext_is_zero(M, N, i) for i in range(lo, hi + 1)] == want, \
            label
    assert firsts == {
        "poly-xy Ext(k, R)": 2,
        "poly-xy Ext(k, k)": 0,
        "hypersurface Ext(k, R)": 1,
        "hypersurface Ext(R/x, R)": None,
        "hypersurface Ext(R/x, R/x)": 1,
        "semigroup Ext(omega, omega)": None,
        "semigroup Ext(k, omega)": 1,
    }


def _components(d_in, d_out, nmid):
    """The connected components of F_{i+1} -> F_i -> F_{i-1} that touch
    F_i, found by a search of their own: nodes ("in", r), ("mid", j) and
    ("out", k), linked by each nonzero entry.  Each component comes as
    (key, sizes): key holds its entries with every part's nodes renumbered
    in increasing order, sizes its node count in each part."""
    edges = []  # (node, node, exps, coeff), one per term of an entry
    for c, v in enumerate(d_in.cols):
        edges += [(("in", r), ("mid", c), e, coef)
                  for (r, e), coef in v.items()]
    for c, v in enumerate(d_out.cols if d_out is not None else ()):
        edges += [(("mid", r), ("out", c), e, coef)
                  for (r, e), coef in v.items()]
    links = {("mid", j): set() for j in range(nmid)}
    for a, b, _, _ in edges:
        links.setdefault(a, set()).add(b)
        links.setdefault(b, set()).add(a)
    seen, out = set(), []
    for j in range(nmid):
        if ("mid", j) in seen:
            continue
        comp, todo = set(), [("mid", j)]
        while todo:
            node = todo.pop()
            if node not in comp:
                comp.add(node)
                todo += links[node]
        seen |= comp
        kinds = ("in", "mid", "out")
        pos = {node: t for kind in kinds for t, node in enumerate(
            sorted(n for n in comp if n[0] == kind))}
        key = sorted((a[0], pos[a], pos[b], e, coef)
                     for a, b, e, coef in edges if a in comp)
        sizes = tuple(sum(n[0] == kind for n in comp) for kind in kinds)
        out.append((tuple(key), sizes))
    return out


def test_walk_decides_each_distinct_component_once(monkeypatch):
    """The Ext(omega, omega) walk over the semigroup ring runs
    homology_is_zero once per distinct component of d_i and d_{i+1} over
    all the indices it walks, since a verdict is kept on the target for
    later indices, and builds no power of omega with more copies than the
    largest component has nodes in one free module, far fewer than the
    Betti numbers.  Powers are counted both where homalg builds them and
    where fpmod.power_scalar_hom does."""
    decided, copies = [], []
    real_exact, real_power = homalg.homology_is_zero, \
        fpmod.power_with_twists

    def spy_exact(into, outof):
        decided.append(into)
        return real_exact(into, outof)

    def spy_power(W, twists):
        copies.append(len(twists))
        return real_power(W, twists)

    monkeypatch.setattr(homalg, "homology_is_zero", spy_exact)
    monkeypatch.setattr(homalg, "power_with_twists", spy_power)
    monkeypatch.setattr(fpmod, "power_with_twists", spy_power)
    sg = make_semigroup()
    top = 6
    assert first_nonvanishing_ext(sg.C, sg.C, 1, top) is None
    res = free_resolution(sg.C, top + 1)
    keys, largest = set(), 0
    for i in range(1, top + 1):
        d_out = res.maps[i] if i < len(res.maps) else None
        comps = _components(res.maps[i - 1], d_out, res.betti(i))
        keys |= {key for key, _ in comps}
        largest = max(largest, *(max(sizes) for _, sizes in comps))
        if i > 3:
            assert len({key for key, _ in comps}) < len(comps)
    assert len(decided) == len(keys) == 5
    assert max(copies) <= largest < res.betti(top)


def test_walker_matches_assembled_ext_on_random_modules(monkeypatch,
                                                         all_corpus):
    """On seeded modules over the corpus rings and F3[x,y]/(xy), the
    walker's first nonvanishing index and each index's verdict agree with
    the assembled Ext module's minimal generator count, walking from 0
    and from 1.  M is a random module, C or k, or a sum of two copies of
    one, so components repeat; N is the ring's C (omega over the
    semigroup ring), a random module or a direct sum, so N splits too."""
    S3 = PolyRing(PrimeField(3), ("x", "y"))
    x, y = S3.variable(0), S3.variable(1)
    cases = [(case.ring, case.C) for case in all_corpus]
    R3 = GradedRing(S3, [x * y], name="R")
    cases.append((R3, free_module(R3, (0,))))
    splits = []
    real_blocks = homalg.component_blocks

    def spy_blocks(families):
        blocks = real_blocks(families)
        splits.append(len({key for key, _ in blocks}) < len(blocks))
        return blocks

    monkeypatch.setattr(homalg, "component_blocks", spy_blocks)
    top = 3
    firsts = []
    for r, (R, C) in enumerate(cases):
        rng = random.Random(900 + r)
        k = residue_field_module(R)
        for _ in range(2):
            M = random_module(R, rng)
            N1 = random_module(R, rng)
            for M, N in [(M, C), (direct_sum([M, M]), N1),
                         (M, direct_sum([C, N1])),
                         (direct_sum([M, M]), direct_sum([N1, N1])),
                         (direct_sum([k, k]), direct_sum([C, C])),
                         (direct_sum([k, k]), N1),
                         (direct_sum([C, C]), C)]:
                want = [ext_module(M, N, i).minimal()[0].ngens == 0
                        for i in range(top + 1)]
                first = next((i for i, z in enumerate(want) if not z), None)
                first1 = next((i for i, z in enumerate(want)
                               if i and not z), None)
                firsts += [first, first1]
                assert first_nonvanishing_ext(M, N, 1, top) == first1
                assert first_nonvanishing_ext(M, N, 0, top) == first
                assert [ext_is_zero(M, N, i)
                        for i in range(top + 1)] == want
    assert any(splits)
    assert set(firsts) == {None, 0, 1, 2}


def test_second_certificate_builds_no_hom_map(monkeypatch):
    """The Ext walk's Hom maps are counted where homalg calls the builder,
    so HomModule's own calls inside fpmod are not."""
    built = []
    real = homalg.power_scalar_hom

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homalg, "power_scalar_hom", counting)
    omega = make_semigroup().C
    first = check_semidualizing(omega, ext_bound=3)
    n_first = len(built)
    second = check_semidualizing(omega, ext_bound=3)
    assert first.passed and n_first > 0
    assert len(built) == n_first
    assert second.to_json_dict() == first.to_json_dict()


# depth_with_witness on every module and ring of the bundled corpus,
# pinned from the search before it stopped at the known depth.
CORPUS_WITNESSES = {
    ("poly-x", "C"): ["x"],
    ("poly-x", "k"): [],
    ("poly-x", "R"): ["x"],
    ("poly-xy", "C"): ["x", "y"],
    ("poly-xy", "k"): [],
    ("poly-xy", "Cx"): ["y"],
    ("poly-xy", "R"): ["x", "y"],
    ("hypersurface-x2", "C"): ["y"],
    ("hypersurface-x2", "k"): [],
    ("hypersurface-x2", "Cy"): [],
    ("hypersurface-x2", "R"): ["y"],
    ("semigroup-345", "omega"): ["x"],
    ("semigroup-345", "Yx"): [],
    ("semigroup-345", "k"): [],
    ("semigroup-345", "R"): ["x"],
}


def _corpus_modules():
    corpus = os.path.join(os.path.dirname(semidual.__file__), "corpus")
    out = {}
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname)) as f:
            spec = parse_session(f.read())
        for entry in spec.corpus_entries():
            env = build_environment(entry.statements)
            for name, M in env.modules.items():
                out[entry.name, name] = M
            for name, R in env.rings.items():
                out[entry.name, name] = free_module(R, (0,))
    return out


def test_corpus_resolutions_keep_their_pinned_digest():
    """The minimal free resolutions to length 10 of every module of the
    bundled corpus, hashed as scripts/output_digests.py hashes them: in
    file, entry and declaration order, per module its name and the degrees
    of F_0, and per boundary its row and column degrees and its columns as
    stored, each column's dict in its own order."""
    corpus = os.path.join(os.path.dirname(semidual.__file__), "corpus")
    h = hashlib.sha256()
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname)) as f:
            spec = parse_session(f.read())
        for entry in spec.corpus_entries():
            env = build_environment(entry.statements)
            for name, M in env.modules.items():
                res = free_resolution(M, 10)
                h.update(repr((entry.name, name, res.f0)).encode())
                for d in res.maps:
                    h.update(repr((d.row_degrees, d.col_degrees,
                                   [list(v.items()) for v in d.cols]))
                             .encode())
    assert h.hexdigest() == (
        "0bc47e6f3ea8409e8ccd7777da3d2f37b4f5d3ceb0fb06f89a53935c16d80d26")


def test_depth_witness_on_corpus_modules():
    mods = _corpus_modules()
    assert set(mods) == set(CORPUS_WITNESSES)
    for key, M in mods.items():
        r = depth_with_witness(M)
        assert [str(f) for f in r.witness] == CORPUS_WITNESSES[key], key
        assert r.value == len(r.witness)


def test_depth_witness_rejects_a_depth_too_low(monkeypatch):
    M = make_poly_xy().C
    real = homalg.depth
    monkeypatch.setattr(
        homalg, "depth", lambda N: real(N) - 1 if N is M else real(N))
    with pytest.raises(RuntimeError, match="leaves depth 1"):
        depth_with_witness(M)


def test_block_maps_match_dense_matrices(plane, curve):
    """Hom(d, N), the Koszul boundary and a scalar map on copies of a
    module, each against T (x) 1 written out by hand."""
    dense = lambda m: [list(row) for row in m.entries]
    S, R = plane
    x, y = S.variable(0), S.variable(1)
    z0 = S.zero()
    d = RingMatrix.from_rows(R, [[x, y]], (0,), (1, 1))
    t = power_scalar_hom(free_module(R, (0, 0)), d.dual())
    assert dense(t.matrix) == [[x, z0], [z0, x], [y, z0], [z0, y]]
    k = residue_field_module(R)
    assert dense(homalg.koszul_boundary(k, 2).matrix) == [[-y], [x]]
    S3, R3, W = curve
    x, y, z = (S3.variable(i) for i in range(3))
    z0 = S3.zero()
    t = power_scalar_hom(W, W.relations.dual())
    assert dense(t.matrix) == [[R3.nf(f) for f in row] for row in [
        [z, z0, x * x, z0],
        [z0, z, z0, x * x],
        [y, z0, z, z0],
        [z0, y, z0, z],
        [-x, z0, -y, z0],
        [z0, -x, z0, -y]]]
    assert dense(homalg.koszul_boundary(W, 2).matrix) == [
        [-y, z0, -z, z0, z0, z0],
        [z0, -y, z0, -z, z0, z0],
        [x, z0, z0, z0, -z, z0],
        [z0, x, z0, z0, z0, -z],
        [z0, z0, x, z0, y, z0],
        [z0, z0, z0, x, z0, y]]
    tmat = RingMatrix.from_rows(R3, [[x, y], [z0, x]], (0, 1), (3, 4))
    assert dense(power_scalar_hom(W, tmat).matrix) == [
        [x, z0, y, z0],
        [z0, x, z0, y],
        [z0, z0, x, z0],
        [z0, z0, z0, x]]


# Reference placements of T (x) 1_N, each written out by hand: Hom(d, N)
# from the rows of d, and the Koszul boundary on the free complex (x) 1_M.

def _rows(mat):
    """The rows of mat as vectors indexed by column."""
    rows = [{} for _ in mat.row_degrees]
    for j, v in enumerate(mat.cols):
        for (i, e), c in v.items():
            rows[i][(j, e)] = c
    return rows


def _ref_hom_into(N, dmat, p_prev=None):
    """Hom(d, N): block (column j, row r) is multiplication by d[r][j]."""
    if p_prev is None:
        p_prev = fpmod.power_with_twists(N, dmat.row_degrees)
    p_next = fpmod.power_with_twists(N, dmat.col_degrees)
    nN = N.ngens
    mat = fpmod.block_matrix(N.ring, [(v, nN, b) for v in _rows(dmat)
                                      for b in range(nN)],
                             p_next.gen_degrees, p_prev.gen_degrees)
    return ModuleHom(p_prev, p_next, mat)


def _ref_koszul(M, i):
    R = M.ring
    amb = R.ambient
    n = amb.nvars
    subsets = list(itertools.combinations(range(n), i))
    prev = list(itertools.combinations(range(n), i - 1))
    prev_index = {s: t for t, s in enumerate(prev)}
    wsum = lambda s: sum(amb.weights[j] for j in s)
    src = fpmod.power_with_twists(M, [-wsum(s) for s in subsets])
    tgt = fpmod.power_with_twists(M, [-wsum(s) for s in prev])
    var = [amb.variable(j).terms[0][0] for j in range(n)]
    cols = [{(prev_index[s[:pos] + s[pos + 1:]], var[j]):
             1 if pos % 2 == 0 else -1 for pos, j in enumerate(s)}
            for s in subsets]
    free = RingMatrix(R, cols, [wsum(s) for s in prev],
                      [wsum(s) for s in subsets])
    nM = M.ngens
    mat = fpmod.block_matrix(R, [(v, nM, a) for v in free.cols
                                 for a in range(nM)],
                             tgt.gen_degrees, src.gen_degrees)
    return ModuleHom(src, tgt, mat)


def _same_hom(got, want):
    storage = lambda m: [list(v.items()) for v in m.matrix.cols]
    return (storage(got) == storage(want) and got.source == want.source
            and got.target == want.target)


def test_power_scalar_hom_matches_reference_placements():
    """On every pair of modules of one corpus entry, the builder gives the
    reference Hom(d, N) for each boundary d of the resolution up to 4,
    alone and chained onto the previous map's target as the Ext walk
    chains them, and HomModule's kernel is that of the reference
    Hom(relations, N).  Every Koszul boundary matches the reference too,
    and dual() is an involution stored as the normalising constructor
    stores the transposed entries."""
    by_entry = {}
    for (entry, _name), M in _corpus_modules().items():
        by_entry.setdefault(entry, []).append(M)
    maps = 0
    for mods in by_entry.values():
        for M in mods:
            R = M.ring
            res = free_resolution(M, 4)
            ds = res.maps[:4]
            for d in ds + [M.relations]:
                dual = d.dual()
                assert dual.dual() == d
                want = RingMatrix.from_rows(
                    R, [d.column(j) for j in range(d.ncols)],
                    [-g for g in d.col_degrees], [-g for g in d.row_degrees])
                assert dual == want
                assert [list(v.items()) for v in dual.cols] == \
                    [list(v.items()) for v in want.cols]
            for i in range(1, R.ambient.nvars + 1):
                assert _same_hom(homalg.koszul_boundary(M, i),
                                 _ref_koszul(M, i))
                maps += 1
            for N in mods:
                prev = None
                for d in ds:
                    want = _ref_hom_into(N, d, prev and prev.target)
                    assert _same_hom(power_scalar_hom(N, d.dual()),
                                     _ref_hom_into(N, d))
                    assert _same_hom(power_scalar_hom(
                        N, d.dual(), source=prev and prev.target), want)
                    prev = want
                    maps += 1
                rel = M.relations
                if M.ngens and rel.ncols and N.ngens:
                    H = HomModule(M, N)
                    assert (H.gen_cols, H.gen_degrees) == kernel_columns(
                        _ref_hom_into(N, rel))
                    maps += 1
    assert maps == 145


def test_walk_from_index_zero_matches_assembled_ext(all_corpus):
    """From index 0 the walk reads d_1's components by rows, plus the
    generators of F_0 that no relation touches.  Over the corpus rings its
    first nonvanishing index through 2 agrees with the assembled Ext
    modules, built on fresh copies, for M + R(-1), which gives d_1 a zero
    row, k + R(-2), a free module of rank 2 and a random M, each into C,
    a random module and k."""
    def fresh(M):
        return FPModule(M.ring, M.gen_degrees, M.relations)

    checked = 0
    for r, case in enumerate(all_corpus):
        R = case.ring
        rng = random.Random(1600 + r)
        k = residue_field_module(R)
        M = random_module(R, rng)
        targets = [fresh(case.C), random_module(R, rng), fresh(k)]
        for A in (direct_sum([M, free_module(R, (1,))]),
                  direct_sum([k, free_module(R, (2,))]),
                  free_module(R, (0, 0)), M):
            for B in targets:
                want = [ext_module(fresh(A), fresh(B), i).is_zero_module()
                        for i in range(3)]
                first = next((i for i, z in enumerate(want) if not z), None)
                assert first_nonvanishing_ext(A, B, 0, 2) == first
                checked += 1
    assert checked == 48


def _hilbert_rings():
    """The corpus rings and F3[x,y]/(xy)."""
    S3 = PolyRing(PrimeField(3), ("x", "y"))
    x, y = S3.variable(0), S3.variable(1)
    return [make().ring for make in (make_poly_x, make_poly_xy,
                                     make_hypersurface, make_semigroup)] + \
        [GradedRing(S3, [x * y], name="R")]


HILBERT_RINGS = _hilbert_rings()


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.sampled_from(range(len(HILBERT_RINGS))),
       st.integers(0, 2**32 - 1))
def test_hilbert_series_is_additive_along_a_presentation(r, seed):
    """For F1 -> F0 -> M -> 0 with phi the presentation of M, image and
    kernel of phi split the Hilbert series: H(F0) = H(Im) + H(M) and
    H(F1) = H(K) + H(Im)."""
    R = HILBERT_RINGS[r]
    M = random_module(R, random.Random(seed))
    F0 = free_module(R, M.gen_degrees)
    F1 = free_module(R, M.relations.col_degrees)
    phi = ModuleHom(F1, F0, M.relations)
    Im, K = image(phi)[0], kernel(phi)[0]
    H = hilbert_numerator_module
    assert H(F0) == intpoly_add(H(Im), H(M))
    assert H(F1) == intpoly_add(H(K), H(Im))


def _whole_syzygies(mat):
    """The reference for fpmod.syzygies: one tracked run and one greedy
    minimal generation over the whole matrix, and no memo, with the kept
    columns stably sorted by degree and then by the component of mat that
    holds their support."""
    R = mat.ring
    raw = [u for u in RelativeTracker(R.ambient, mat.cols,
                                      inflation_vectors(R, mat.nrows),
                                      mat.nrows).kernel_vectors() if u]
    kept = min_generate_columns(R, raw, mat.col_degrees)
    comp = components(mat.cols)

    def place(kept_column):
        _, v, d = kept_column
        (own,) = {comp[j] for j, _ in v}
        return d, own
    kept.sort(key=place)
    return RingMatrix(R, [v for _, v, _ in kept], mat.col_degrees,
                      [d for _, _, d in kept])


def _storage(mat):
    return (mat.row_degrees, mat.col_degrees,
            [list(v.items()) for v in mat.cols])


def test_syzygies_by_component_match_the_whole_matrix(all_corpus):
    """Every boundary of the resolution to length 8 of every corpus module,
    and of seeded random modules, is stored exactly as the whole-matrix
    syzygies of the one before it: degrees, column order and the order of
    each column's dict.  The random modules come with a copy of themselves,
    so components repeat, and with a free summand, so an unsplit d_1 has a
    zero row; one matrix also gets a zero column, a component of its
    own."""
    S3 = PolyRing(PrimeField(3), ("x", "y"))
    x, y = S3.variable(0), S3.variable(1)
    rings = [case.ring for case in all_corpus]
    rings.append(GradedRing(S3, [x * y], name="R"))
    modules = list(_corpus_modules().values())
    for r, R in enumerate(rings):
        rng = random.Random(1400 + r)
        for _ in range(3):
            M = random_module(R, rng)
            modules += [M, direct_sum([M, M]),
                        direct_sum([M, free_module(R, (1,))])]
    compared = 0
    for M in modules:
        res = free_resolution(M, 8)
        for d, syz in zip(res.maps, res.maps[1:]):
            assert _storage(syz) == _storage(_whole_syzygies(d))
            compared += 1
        if res.complete and res.maps:
            assert fpmod.syzygies(res.maps[-1], res.blocks[-1]).ncols == 0
            assert _whole_syzygies(res.maps[-1]).ncols == 0
    assert compared > 50
    d = modules[-1].minimal()[0].relations
    d = d.stack_cols(RingMatrix.zero(d.ring, d.row_degrees, (5,)))
    assert _storage(fpmod.syzygies(d, component_blocks(d.cols))) == \
        _storage(_whole_syzygies(d))


def test_resolving_a_twist_of_omega_solves_no_new_component(monkeypatch):
    """Omega's resolution solves each distinct component of its boundaries
    once, far fewer than there are components; a twist of omega over the
    same ring then solves none, and its boundaries are omega's, shifted."""
    solved = []
    real = fpmod._component_syzygies

    def spy(R, key, degrees):
        solved.append(key)
        return real(R, key, degrees)

    monkeypatch.setattr(fpmod, "_component_syzygies", spy)
    omega = make_semigroup().C
    res = free_resolution(omega, 8)
    components = sum(len(component_blocks(d.cols)) for d in res.maps[:-1])
    n = len(solved)
    assert n == len(set(solved)) and 0 < n < components // 4
    twisted = free_resolution(omega.twist(3), 8)
    assert len(solved) == n
    assert len(twisted.maps) == len(res.maps)
    for d, e in zip(res.maps, twisted.maps):
        assert [list(v.items()) for v in e.cols] == \
            [list(v.items()) for v in d.cols]
        assert e.col_degrees == tuple(g - 3 for g in d.col_degrees)


class _Referable(FPModule):
    """A module that takes weak references."""
    __slots__ = ("__weakref__",)


def test_a_module_is_freed_with_its_last_reference():
    """No cache points back at its module: with the cycle collector off,
    a module is freed when its last reference goes, after its minimal
    presentation, its resolution, Ext into itself and its depth were
    computed and cached on it and on its ring."""
    omega = make_semigroup().C
    gc.disable()
    try:
        M = _Referable(omega.ring, omega.gen_degrees, omega.relations)
        ref = weakref.ref(M)
        M.minimal()
        free_resolution(M, 3)
        assert first_nonvanishing_ext(M, M, 1, 3) is None
        assert depth(M) == 1
        del M
        assert ref() is None
    finally:
        gc.enable()


def test_depth_walks_the_ring_s_one_k_resolution(monkeypatch):
    """Without a pointer from the resolution back to k, every depth over a
    ring still walks the one resolution of k cached on the ring."""
    built = []
    real = homalg.Resolution

    def spy(M):
        built.append(M)
        return real(M)

    monkeypatch.setattr(homalg, "Resolution", spy)
    sg = make_semigroup()
    for M in (sg.C, sg.C.twist(2), free_module(sg.ring, (0,)), sg.k):
        depth(M)
    assert len(built) == 1 and built[0].ngens == 1
    assert k_resolution(sg.ring, 0).maps[0] == built[0].relations


def _small_characteristic_rings():
    """Rings over F_2 and F_3: planes, a hypersurface, two lines meeting
    a plane's axis (not Cohen-Macaulay), and the semigroup ring
    k[t^3, t^4, t^5]."""
    out = []
    for p in (2, 3):
        S = PolyRing(PrimeField(p), ("x", "y"))
        x, y = S.variable(0), S.variable(1)
        out += [GradedRing(S, [], name="R"), GradedRing(S, [x * y], name="R")]
        S = PolyRing(PrimeField(p), ("x", "y", "z"))
        x, y, z = (S.variable(i) for i in range(3))
        out.append(GradedRing(S, [x * z, y * z], name="R"))
        S = PolyRing(PrimeField(p), ("x", "y", "z"), weights=(3, 4, 5))
        x, y, z = (S.variable(i) for i in range(3))
        out.append(GradedRing(
            S, [y * y - x * z, x**3 - y * z, x * x * y - z * z], name="R"))
    return out


SMALL_CHARACTERISTIC_RINGS = _small_characteristic_rings()


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.sampled_from(range(len(SMALL_CHARACTERISTIC_RINGS))),
       st.integers(0, 2**32 - 1), st.sampled_from(("M", "M+M", "M+k")))
def test_depth_is_koszul_depth_in_small_characteristic(r, seed, shape):
    """depth (the Ext walk against the residue field, with its verdicts
    kept per component on the module and the ring's one k-resolution)
    equals depth_koszul over F_2 and F_3, on random modules, a module
    plus a copy of itself, and a module plus k."""
    R = SMALL_CHARACTERISTIC_RINGS[r]
    M = random_module(R, random.Random(seed))
    if shape == "M+M":
        M = direct_sum([M, M])
    elif shape == "M+k":
        M = direct_sum([M, residue_field_module(R)])
    assert depth(M) == depth_koszul(M)
