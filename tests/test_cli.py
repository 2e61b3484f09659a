"""Command line behaviour: subcommands, output formats, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

import semidual.semidual
from semidual.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFICATION,
    main,
)

DATA = Path(__file__).parent / "data"


def _write(tmp_path, text, name="session.sd"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASIC = """\
ring R {
    char 101;
    vars x y;
}

module k over R {
    gens deg 0;
    rels { [x]; [y]; }
}

run depth(k);
"""


def test_run_text_output(tmp_path, capsys):
    code = main(["run", _write(tmp_path, BASIC)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "depth: 0" in out
    assert "method: ext_k" in out


def test_run_json_output(tmp_path, capsys):
    path = _write(tmp_path, "ring R { char 101; vars x y; }\n"
                            "run gb(R) { format json; }\n")
    code = main(["run", path])
    assert code == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"ring": "R", "basis": [], "size": 0, "dimension": 2}


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/nope.sd"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_run_syntax_error_position(capsys):
    code = main(["run", str(DATA / "bad_syntax.sd")])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "8:17" in err
    assert "expected ',' or ']'" in err


def test_run_undefined_name(tmp_path, capsys):
    path = _write(tmp_path, "module M over S { gens deg 0; }\n")
    assert main(["run", path]) == EXIT_INPUT
    assert "undefined ring 'S'" in capsys.readouterr().err


def test_ring_ideal_undefined_name_prints_its_position_once(tmp_path,
                                                            capsys):
    path = _write(tmp_path, "ring R { char 101; vars x; ideal { q; } }\n")
    assert main(["run", path]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"semidual: input error: {path}: 1:1: undefined name 'q'\n")


def test_run_semantic_degree_mismatch(tmp_path, capsys):
    path = _write(tmp_path,
                  "ring R { char 101; vars x y; }\n"
                  "module M over R { gens deg 0 deg 0; rels { [x, x^2]; } }\n")
    assert main(["run", path]) == EXIT_INPUT
    assert "degree mismatch" in capsys.readouterr().err


def test_run_truncation_exit_code(capsys):
    code = main(["run", str(DATA / "truncation.sd")])
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert "no finite C-dimension" in err


def test_run_failed_certificate_exit_code(capsys):
    code = main(["run", str(DATA / "failed_cert.sd")])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFICATION
    rep = json.loads(out)
    assert rep["verdict"] == "failed"
    assert rep["condition_i"]["end_minimal_generators"] == 4


def test_ext_bound_env_and_config(tmp_path, capsys, monkeypatch):
    session = ("ring R { char 101; vars x; }\n"
               "run check-semidualizing(R) { format json; }\n")
    path = _write(tmp_path, session)

    monkeypatch.delenv("SEMIDUAL_EXT_BOUND", raising=False)
    assert main(["run", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[
        "condition_ii"]["ext_bound"] == 4   # default 2*vars + 2

    monkeypatch.setenv("SEMIDUAL_EXT_BOUND", "3")
    assert main(["run", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[
        "condition_ii"]["ext_bound"] == 3   # env overrides the default

    path2 = _write(tmp_path,
                   "ring R { char 101; vars x; }\n"
                   "run check-semidualizing(R) "
                   "{ ext_bound 5; format json; }\n",
                   name="explicit.sd")
    assert main(["run", path2]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[
        "condition_ii"]["ext_bound"] == 5   # config overrides the env

    monkeypatch.setenv("SEMIDUAL_EXT_BOUND", "junk")
    assert main(["run", path]) == EXIT_INPUT


def test_split_session(tmp_path, capsys):
    session = ("ring R { char 101; vars x y; }\n"
               "module C over R { gens deg 0; }\n"
               "matrix T over R {\n"
               "    rowdegs 0;\n"
               "    coldegs 0 1;\n"
               "    cols { [1]; [x]; }\n"
               "}\n"
               "run split(T, C) { format json; }\n")
    assert main(["run", _write(tmp_path, session)]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["section"] == [["1"], ["0"]]
    assert rep["image_rank"] == 1 and rep["complement_rank"] == 1
    assert all(rep["identities"].values())
    assert all(rep["power_check"].values())


def test_split_square_matrix_has_zero_complement(tmp_path, capsys):
    # an invertible T leaves a complement of rank 0, an empty sum of copies
    session = ("ring R { char 101; vars x y; }\n"
               "module C over R { gens deg 0; }\n"
               "matrix T over R {\n"
               "    rowdegs 0;\n"
               "    coldegs 0;\n"
               "    cols { [1]; }\n"
               "}\n"
               "run split(T, C) { format json; }\n")
    assert main(["run", _write(tmp_path, session)]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["section"] == [["1"]]
    assert rep["image_rank"] == 1 and rep["complement_rank"] == 0
    assert all(rep["identities"].values())
    assert rep["power_check"] == {
        "surjective": True, "section_splits": True,
        "image_is_power": True, "complement_is_power": True}


def test_split_without_module_omits_power_check(tmp_path, capsys):
    session = ("ring R { char 101; vars x y; }\n"
               "matrix T over R {\n"
               "    rowdegs 0;\n"
               "    coldegs 0 1;\n"
               "    cols { [1]; [x]; }\n"
               "}\n")
    path = _write(tmp_path, session + "run split(T) { format json; }\n")
    assert main(["run", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["image_rank"] == 1 and "power_check" not in rep
    path = _write(tmp_path, session + "run split(T) { format text; }\n")
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "image_rank" in out and "power_check" not in out


MIXED_RINGS = """\
ring P { char 101; vars x y; }
ring Q { char 101; vars x y; ideal { x*y; } }
module C over P { gens deg 0; }
module k over P { gens deg 0; rels { [x]; [y]; } }
module CQ over Q { gens deg 0; }
module kQ over Q { gens deg 0; rels { [x]; [y]; } }
matrix T over P { rowdegs 0; coldegs 0 1; cols { [1]; [x]; } }
"""


@pytest.mark.parametrize("command, message", [
    ("split(T, CQ)", "split between a matrix and a module over different "
                     "rings"),
    ("ext(k, kQ, 1)", "ext between modules over different rings"),
    ("reduce(Q, C, x + y)", "reduce of a module over a different ring"),
])
def test_commands_reject_mixed_rings(tmp_path, capsys, command, message):
    """P and Q = P/(xy) share their polynomial ring, so every input is
    well formed; only the rings of the arguments disagree."""
    path = _write(tmp_path, MIXED_RINGS + f"run {command};\n")
    assert main(["run", path]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"semidual: input error: {path}: {message}\n"


@pytest.fixture
def broken_split(monkeypatch):
    """unit_pivots hands split_surjection zero row operations, so its
    section identity fails."""
    real = semidual.semidual.unit_pivots

    def broken(R, rows):
        pivots, W, L = real(R, rows)
        return pivots, W, [[R.ambient.zero()] * len(row) for row in L]

    monkeypatch.setattr(semidual.semidual, "unit_pivots", broken)


def test_run_internal_fault_exit_code(tmp_path, capsys, broken_split):
    """A broken invariant exits 4, apart from a failed verdict (1)."""
    session = ("ring R { char 101; vars x y; }\n"
               "matrix T over R {\n"
               "    rowdegs 0;\n"
               "    coldegs 0 1;\n"
               "    cols { [1]; [x]; }\n"
               "}\n"
               "run split(T);\n")
    assert main(["run", _write(tmp_path, session)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: splitting identities failed: section" in err


def test_corpus_internal_fault_exit_code(tmp_path, capsys, monkeypatch,
                                        broken_split):
    """An internal fault in a corpus check exits 4, not 1, and the JSON
    summary records it as a failed check like any other error.  The same
    entry passes once unit_pivots is whole again."""
    _write(tmp_path, 'corpus "split-fault" {\n'
           "    ring R { char 101; vars x y; }\n"
           "    matrix T over R {\n"
           "        rowdegs 0;\n"
           "        coldegs 0 1;\n"
           "        cols { [1]; [x]; }\n"
           "    }\n"
           "    config { seed 0; }\n"
           '    expect split(T).image_rank = 1 via "one unit pivot";\n'
           "}\n", name="fault.sd")
    assert main(["corpus", "--dir", str(tmp_path), "--json"]) == EXIT_INTERNAL
    summary = json.loads(capsys.readouterr().out)
    assert summary["all_passed"] is False
    [check] = summary["entries"][0]["checks"]
    assert check["pass"] is False
    assert check["error"].startswith("splitting identities failed: section")
    monkeypatch.undo()
    assert main(["corpus", "--dir", str(tmp_path), "--json"]) == EXIT_OK
    capsys.readouterr()


def test_fmt_canonical_and_idempotent(tmp_path, capsys):
    assert main(["fmt", str(DATA / "example.sd")]) == EXIT_OK
    once = capsys.readouterr().out
    p = tmp_path / "canon.sd"
    p.write_text(once)
    assert main(["fmt", str(p)]) == EXIT_OK
    assert capsys.readouterr().out == once
    assert main(["fmt", str(DATA / "bad_syntax.sd")]) == EXIT_INPUT
    capsys.readouterr()


def test_corpus_filter_no_match(capsys):
    assert main(["corpus", "--filter", "no-such-entry"]) == EXIT_OK
    assert "0 entries" in capsys.readouterr().out


def test_corpus_single_entry(capsys):
    assert main(["corpus", "--filter", "poly-x"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS poly-x" in out
    assert "all passed" in out


def test_corpus_json_deterministic(capsys):
    assert main(["corpus", "--filter", "poly-x", "--json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["corpus", "--filter", "poly-x", "--json"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    summary = json.loads(first)
    assert summary["all_passed"] is True
    assert summary["entries"][0]["name"] == "poly-x"
    assert summary["entries"][0]["config"] == {"seed": 0, "ext_bound": 4}


def test_corpus_json_is_byte_identical_to_the_pinned_digest(monkeypatch,
                                                            capsys):
    # The full bundled corpus report, as pinned across every refactor.
    monkeypatch.delenv("SEMIDUAL_EXT_BOUND", raising=False)
    assert main(["corpus", "--json"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == (
        "77d61c3c0e4c874b724e704e40c1169a77d1fc9fdb66f5fb75f9dea6ab8e8511")


def test_corpus_wrong_expectation_fixture(capsys):
    code = main(["corpus", "--dir", str(DATA / "wrong_expect"), "--json"])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFICATION
    assert summary["all_passed"] is False
    checks = summary["entries"][0]["checks"]
    failing = [c for c in checks if not c["pass"]]
    assert len(failing) == 1
    assert failing[0]["expect"] == "depth(R).depth"
    assert failing[0]["expected"] == 2 and failing[0]["actual"] == 1


def test_corpus_bad_dir(capsys):
    assert main(["corpus", "--dir", "/nonexistent"]) == EXIT_INPUT
    capsys.readouterr()


def test_run_rejects_corpus_blocks(tmp_path, capsys):
    path = _write(tmp_path, 'corpus "c" { config { seed 0; } }\n')
    assert main(["run", path]) == EXIT_INPUT
    assert "semidual corpus" in capsys.readouterr().err


def test_unknown_command(tmp_path, capsys):
    path = _write(tmp_path, "ring R { char 101; vars x; }\nrun bogus(R);\n")
    assert main(["run", path]) == EXIT_INPUT
    assert "unknown command" in capsys.readouterr().err
