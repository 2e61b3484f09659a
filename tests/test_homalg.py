"""Resolutions, Ext, depth, dimension, Hilbert series."""

import os

import pytest

import semidual
from semidual import homalg
from semidual.cli import build_environment
from semidual.polyring import PolyRing, PrimeField
from semidual.groebner import GradedRing
from semidual.fpmod import (
    FPModule,
    RingMatrix,
    free_module,
    is_isomorphic,
    quotient_by_element,
    residue_field_module,
)
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
from semidual.semidual import check_semidualizing, power_scalar_hom
from semidual.session import parse_session

from conftest import make_hypersurface, make_poly_xy, make_semigroup

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
    """Minimality: no boundary entry of the resolution has a unit part."""
    return all(not any(map(any, m.constant_part())) for m in res.maps)


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


def test_walk_passes_the_shared_hom_module_along(monkeypatch):
    pairs = []
    real = homalg.homology_is_zero

    def spy(into, outof):
        pairs.append((into, outof))
        return real(into, outof)

    monkeypatch.setattr(homalg, "homology_is_zero", spy)
    sg = make_semigroup()
    assert first_nonvanishing_ext(sg.C, sg.C, 1, 3) is None
    assert len(pairs) == 3
    for t_in, t_next in pairs:
        assert t_in.target is t_next.source
    for (_, t_prev), (t_in, _) in zip(pairs, pairs[1:]):
        assert t_in is t_prev


def test_second_certificate_builds_no_hom_map(monkeypatch):
    built = []
    real = homalg._hom_into

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(homalg, "_hom_into", counting)
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
    t = homalg._hom_into(free_module(R, (0, 0)), d)
    assert dense(t.matrix) == [[x, z0], [z0, x], [y, z0], [z0, y]]
    k = residue_field_module(R)
    assert dense(homalg.koszul_boundary(k, 2).matrix) == [[-y], [x]]
    S3, R3, W = curve
    x, y, z = (S3.variable(i) for i in range(3))
    z0 = S3.zero()
    t = homalg._hom_into(W, W.relations)
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
