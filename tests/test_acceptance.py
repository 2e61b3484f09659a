"""Acceptance suite.  One test per pinned criterion; each line of
`pytest -v` on this file is one criterion's pass/fail verdict.

Every numeric expectation is checked with exact equality (these are
finite-field computations, nothing is approximate) and each criterion
carries its own wall-clock budget.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers_random import random_homogeneous, random_module, random_surjection
from semidual.fpmod import (
    HomModule,
    annihilator,
    direct_sum,
    free_module,
    is_nzd_on,
    minimal_generators,
    quotient_by_element,
)
from semidual.groebner import radical_membership
from semidual.homalg import TruncationError, depth, depth_koszul, \
    module_dimension
from semidual.semidual import (
    bass_class_check,
    c_dimension,
    c_resolution,
    check_semidualizing,
    corollary_suite,
    default_ext_bound,
    hom_left_exactness,
    reduce_by_nzd,
    split_surjection,
    verify_ab,
)

DATA = Path(__file__).parent / "data"


def _clean_env():
    env = dict(os.environ)
    env.pop("SEMIDUAL_EXT_BOUND", None)
    return env


def _is_identity(mat):
    one = mat.ring.ambient.one()
    for i in range(len(mat.row_degrees)):
        for j in range(len(mat.col_degrees)):
            e = mat.entries[i][j]
            if not ((e - one).is_zero if i == j else e.is_zero):
                return False
    return True


def _mutual_radical(A, B):
    return (all(B.contains(g) or radical_membership(g, B) for g in A.gens)
            and all(A.contains(g) or radical_membership(g, A) for g in B.gens))


def test_criterion_1(poly_xy):
    # Free rank one over the plane against the residue field: the full
    # pipeline, and it has to be fast.
    t0 = time.perf_counter()
    C, k = poly_xy.C, poly_xy.k
    cert = check_semidualizing(C)
    assert cert.passed
    assert c_dimension(C, k) == 2
    assert depth(C) == 2
    assert depth(k) == 0
    rep = verify_ab(C, k)
    assert rep.passed
    assert rep.c_dim == 2
    assert rep.depth_C.value == 2 and rep.depth_Y.value == 0
    assert rep.c_dim == rep.depth_C.value - rep.depth_Y.value
    assert rep.pd_hom == 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2(semigroup):
    # The canonical module of the weight 3,4,5 semigroup curve.
    t0 = time.perf_counter()
    W, R = semigroup.C, semigroup.ring
    assert minimal_generators(W)[0] == 2
    cert = check_semidualizing(W, ext_bound=8)
    assert cert.passed and cert.ext_bound == 8
    assert cert.ext_checked and cert.first_nonzero_ext is None
    assert depth(W) == 1
    assert depth(free_module(R, (0,))) == 1
    assert module_dimension(W) == 1
    suite = corollary_suite(W)
    assert suite["all_pass"]
    assert suite["dim_C"] == suite["dim_ring"] == 1
    assert suite["depth_C"] == suite["depth_ring"] == 1
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3(semigroup, omega_mod_x):
    # The canonical module against its own hypersurface section.
    t0 = time.perf_counter()
    W, Y = semigroup.C, omega_mod_x
    holds, info = bass_class_check(W, Y, ext_bound=8)
    assert holds and info["first_nonzero_ext"] is None
    res = c_resolution(HomModule(W, Y))
    assert res.length == 1
    assert all(res.checks.values())
    rep = verify_ab(W, Y, ext_bound=8)
    assert rep.passed
    assert rep.c_dim == 1
    assert rep.depth_C.value == 1 and rep.depth_Y.value == 0
    assert rep.c_dim == rep.depth_C.value - rep.depth_Y.value
    assert rep.pd_hom == 1
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4(all_corpus):
    # Seeded random split surjections over every corpus ring: the section
    # composes to the exact identity and the kernel summand fills out the
    # rank.
    t0 = time.perf_counter()
    for corp in all_corpus:
        rng = random.Random(40)
        for i in range(50):
            T = random_surjection(corp.ring, rng)
            sec, wit = split_surjection(T)
            assert _is_identity(T.mul(sec)), (corp.name, i)
            assert wit["p"] + wit["q"] == len(T.col_degrees), (corp.name, i)
            assert all(wit["identities"].values()), (corp.name, i)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5(all_corpus):
    # Random module and element pairs: applying Hom(C, -) preserves left
    # exactness, zerodivisor behavior, support and dimension.
    t0 = time.perf_counter()
    failures = []
    for corp in all_corpus:
        R, C = corp.ring, corp.C
        degrees = [d for d in range(1, 6) if R.std_monomials(d)][:3]
        rng = random.Random(50)
        for i in range(20):
            M = random_module(R, rng)
            x = None
            while x is None or R.nf(x).is_zero:
                x = random_homogeneous(R, rng.choice(degrees), rng)
            x = R.nf(x)
            tag = (corp.name, i, str(x))
            if not hom_left_exactness(C, M, x)["holds"]:
                failures.append(("exactness",) + tag)
            hm = HomModule(C, M).module.minimal()[0]
            if is_nzd_on(M, x) != is_nzd_on(hm, x):
                failures.append(("nzd-transfer",) + tag)
            if not _mutual_radical(annihilator(M), annihilator(hm)):
                failures.append(("support",) + tag)
            if module_dimension(M) != module_dimension(hm):
                failures.append(("dimension",) + tag)
    assert failures == []
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6(all_corpus):
    # Certificates survive cutting down by a nonzerodivisor, at the same
    # Ext bound, over every corpus ring.
    t0 = time.perf_counter()
    for corp in all_corpus:
        B = default_ext_bound(corp.ring)
        R2, C2, cert = reduce_by_nzd(corp.ring, corp.C, corp.nzd,
                                     ext_bound=B)
        assert cert.passed, corp.name
        assert cert.ext_bound == B, corp.name
        assert R2.dimension == corp.ring.dimension - 1, corp.name
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7(all_corpus):
    # Depth via Ext against the residue field agrees with depth via the
    # Koszul complex, on the corpus modules and on random ones.
    t0 = time.perf_counter()
    for corp in all_corpus:
        mods = [corp.C, corp.k]
        if corp.name != "poly-x":
            mods.append(quotient_by_element(corp.C, corp.nzd))
        rng = random.Random(70)
        mods += [random_module(corp.ring, rng) for _ in range(20)]
        for i, M in enumerate(mods):
            assert depth(M) == depth_koszul(M), (corp.name, i)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8(poly_xy, hypersurface):
    # Negative controls: a rank-two free module is not semidualizing, and
    # over the hypersurface the residue field has no finite C-dimension,
    # which the command line reports as a resource bound, exit code 3.
    t0 = time.perf_counter()
    D = direct_sum([poly_xy.C, poly_xy.C])
    cert = check_semidualizing(D)
    assert not cert.passed
    assert not cert.condition_i
    assert cert.end_minimal_generators == 4
    assert not cert.identity_generates

    with pytest.raises(TruncationError):
        c_dimension(hypersurface.C, hypersurface.k, bound=6)

    proc = subprocess.run(
        [sys.executable, "-m", "semidual.cli", "run",
         str(DATA / "truncation.sd")],
        capture_output=True, text=True, env=_clean_env())
    assert proc.returncode == 3
    assert "no finite C-dimension" in proc.stderr
    assert time.perf_counter() - t0 < 10.0


def test_criterion_9():
    # Byte-identical corpus reports across consecutive runs.
    cmd = [sys.executable, "-m", "semidual.cli", "corpus", "--json"]
    first = subprocess.run(cmd, capture_output=True, env=_clean_env())
    second = subprocess.run(cmd, capture_output=True, env=_clean_env())
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    summary = json.loads(first.stdout)
    assert summary["all_passed"] is True
    assert [e["name"] for e in summary["entries"]] == [
        "poly-x", "poly-xy", "hypersurface-x2", "semigroup-345"]
