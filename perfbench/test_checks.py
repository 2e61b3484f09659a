"""Tests of the benchmark's own correctness checks, on small inputs.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check must pass on the program's real output and fail once that
output is made wrong.
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402
from semidual import cli  # noqa: E402


def batch_of(text, meta):
    return W.Batch([W.session_group(text, meta)])


def poly_x_source():
    return [s for s in W.corpus_sources() if s[0] == "01-poly-x.sd"]


def test_corpus_check_passes_and_catches_a_wrong_expectation():
    sources = poly_x_source()
    batch = W.corpus_batch(sources)
    W.check_corpus(W.run_round(batch), batch)

    name, text = sources[0]
    wrong = text.replace("expect depth(R).depth = 1",
                         "expect depth(R).depth = 2")
    assert wrong != text
    batch = W.corpus_batch([(name, wrong)])
    with pytest.raises(W.CheckError, match="depth"):
        W.check_corpus(W.run_round(batch), batch)


def test_corpus_check_counts_every_expect_line():
    sources = poly_x_source()
    batch = W.corpus_batch(sources)
    results = W.run_round(batch)
    batch.expect_lines += 1
    with pytest.raises(W.CheckError, match="expectations"):
        W.check_corpus(results, batch)


AB_TEXT = """
ring A { char 101; vars x y; }
module CA over A { gens deg 0; }
module M over A { gens deg 0; rels { [x]; [y^2]; } }
module N over A { gens deg 0 deg 1; rels { [y, 0]; } }
run verify-ab(CA, M);
run verify-ab(CA, N);
"""


def ab_results():
    batch = batch_of(AB_TEXT, [(W.F101_XY, "M"), (W.F101_XY, "N")])
    return batch, W.run_round(batch)


def test_ab_regular_check_passes_and_catches_pd_off_by_one():
    batch, results = ab_results()
    W.check_round("random", results, batch)
    assert [r[1]["c_dim"] for r in results] == [2, 1]

    for field in ("c_dim", "pd_hom"):
        bad = copy.deepcopy(results)
        bad[0][1][field] += 1
        with pytest.raises(W.CheckError, match="pd M = 2"):
            W.check_round("random", bad, batch)


def test_ab_regular_check_catches_a_wrong_depth():
    batch, results = ab_results()
    bad = copy.deepcopy(results)
    bad[1][1]["depth_Y"] += 1
    with pytest.raises(W.CheckError, match="Koszul depth"):
        W.check_round("random", bad, batch)


SCREEN_TEXT = """
ring Rxy { char 101; vars x y; }
module F over Rxy { gens deg 0 deg 0; rels { [1, 3]; } }
module Q over Rxy { gens deg 0; rels { [x]; } }
module T over Rxy { gens deg 0 deg 1; rels { [y, 0]; } }
run check-semidualizing(F);
run check-semidualizing(Q);
run check-semidualizing(T);
"""


def screen_results():
    meta = [(W.POLY_XY, "F"), (W.POLY_XY, "Q"), (W.POLY_XY, "T")]
    batch = batch_of(SCREEN_TEXT, meta)
    return batch, W.run_round(batch)


def test_screen_check_passes_and_catches_a_non_free_pass():
    batch, results = screen_results()
    W.check_round("random", results, batch)
    assert [r[1]["verdict"] for r in results] == [
        "verified_up_to_bound", "failed", "failed"]

    for k in (1, 2):
        bad = copy.deepcopy(results)
        op, report, _, err = bad[k]
        report["verdict"] = "verified_up_to_bound"
        bad[k] = (op, report, cli.EXIT_OK, err)
        with pytest.raises(W.CheckError, match="not free of rank one"):
            W.check_round("random", bad, batch)


def test_screen_check_replays_annihilator_witnesses():
    batch, results = screen_results()
    assert results[1][1]["condition_i"]["annihilator_excess"] == "x"
    for witness, reason in (("y", "does not kill"), ("0", "in the ideal")):
        bad = copy.deepcopy(results)
        bad[1][1]["condition_i"]["annihilator_excess"] = witness
        with pytest.raises(W.CheckError, match=reason):
            W.check_round("random", bad, batch)


def test_inputs_follow_the_seed():
    assert W.screen_text(3) == W.screen_text(3)
    assert W.screen_text(3)[0] != W.screen_text(4)[0]
    assert W.ab_regular_text(3)[0] != W.ab_regular_text(4)[0]
    assert W.make_batch("random", 3).nops == W.make_batch("random", 4).nops


def test_tracer_counts_and_restores():
    original = cli.run_command
    batch = W.corpus_batch(poly_x_source())
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_command is not original
        results = W.run_round(batch)
    finally:
        tracer.uninstall()
    assert cli.run_command is original
    counts, times = tracer.period()
    assert counts["cli.command_calls"] == len(results)
    assert counts["semidual.check_semidualizing_calls"] >= 1
    assert counts["polyring.mul_calls"] > 0
    assert 0 < times["cli.check-semidualizing_s"] <= times["cli.command_s"]
    W.check_corpus(results, batch)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
