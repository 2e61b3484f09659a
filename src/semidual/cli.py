"""Command line driver.

Three subcommands:

    semidual run FILE           execute the run statements of a session file
    semidual corpus [--filter PAT] [--json] [--dir DIR]
                                check every pinned corpus expectation
    semidual fmt FILE           print the canonical form of a session file

Exit codes: 0 success, 1 verification failure (a failed certificate, a
false identity, a corpus mismatch), 2 input error (syntax, undefined
names, bad preconditions), 3 resource bound hit (a truncated search that
proves nothing either way), 4 internal error (an invariant of the
computation broke: a fault in this package, not a verdict).

The environment variable SEMIDUAL_EXT_BOUND overrides the default Ext
vanishing bound; an explicit ext_bound in a config block wins over both.
"""

import argparse
import fnmatch
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

from .polyring import PolyRing, PrimeField
from .groebner import GradedRing, InternalError
from .fpmod import (
    FPModule,
    HomModule,
    RingMatrix,
    free_module,
    minimal_generators,
)
from .homalg import (
    TruncationError,
    depth_with_witness,
    ext_module,
    free_resolution,
    module_dimension,
)
from .semidual import (
    VerificationError,
    c_dimension,
    check_semidualizing,
    corollary_suite,
    default_ext_bound,
    reduce_by_nzd,
    split_surjection,
    verify_ab,
)
from .session import (
    CorpusEntry,
    MatrixDecl,
    ModuleDecl,
    Num,
    Paren,
    ParseError,
    Pow,
    Prod,
    RingDecl,
    RunStmt,
    Sum,
    Var,
    eval_expr,
    expr_to_str,
    parse_session,
    print_session,
)

__all__ = ["main", "run_command", "run_corpus", "build_environment",
           "InputError", "EXIT_OK", "EXIT_VERIFICATION", "EXIT_INPUT",
           "EXIT_RESOURCE", "EXIT_INTERNAL"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    """Bad input that is not a syntax error: undefined names, wrong arity,
    malformed declarations."""

    def __init__(self, message, pos=None):
        if pos:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Building ring/module/matrix objects from declarations.

class Environment:
    def __init__(self):
        self.rings = {}
        self.modules = {}
        self.matrices = {}

    def defined(self, name):
        return name in self.rings or name in self.modules \
            or name in self.matrices


def _eval_poly(node, amb: PolyRing, pos):
    """eval_expr, with an unknown name reported at the statement."""
    try:
        return eval_expr(node, amb)
    except ValueError as e:
        raise InputError(str(e), pos)


def _declare(stmt, env: Environment):
    if env.defined(getattr(stmt, "name", "")):
        raise InputError(f"name {stmt.name!r} is already defined", stmt.pos)
    if isinstance(stmt, RingDecl):
        try:
            field = PrimeField(stmt.char)
        except ValueError as e:
            raise InputError(str(e), stmt.pos)
        if len(set(stmt.vars)) != len(stmt.vars):
            raise InputError("duplicate variable name", stmt.pos)
        weights = stmt.weights or (1,) * len(stmt.vars)
        amb = PolyRing(field, stmt.vars, weights=weights)
        try:
            gens = [_eval_poly(g, amb, stmt.pos) for g in stmt.ideal]
            env.rings[stmt.name] = GradedRing(amb, gens, name=stmt.name)
        except ValueError as e:
            raise InputError(str(e), stmt.pos)
        return
    ring = env.rings.get(stmt.ring)
    if ring is None:
        raise InputError(f"undefined ring {stmt.ring!r}", stmt.pos)
    if isinstance(stmt, ModuleDecl):
        if not stmt.rels:
            env.modules[stmt.name] = free_module(ring, stmt.gen_degrees)
            return
        cols = [tuple(_eval_poly(e, ring.ambient, stmt.pos) for e in col)
                for col in stmt.rels]
        try:
            rel = RingMatrix.from_columns(ring, cols, stmt.gen_degrees)
            env.modules[stmt.name] = FPModule(ring, stmt.gen_degrees, rel)
        except ValueError as e:
            raise InputError(f"degree mismatch in relations: {e}", stmt.pos)
        return
    if isinstance(stmt, MatrixDecl):
        cols = [tuple(_eval_poly(e, ring.ambient, stmt.pos) for e in col)
                for col in stmt.cols]
        try:
            env.matrices[stmt.name] = RingMatrix.from_columns(
                ring, cols, stmt.row_degrees, stmt.col_degrees)
        except ValueError as e:
            raise InputError(f"degree mismatch in matrix: {e}", stmt.pos)
        return
    raise InputError(f"cannot declare {stmt!r}", getattr(stmt, "pos", None))


def build_environment(statements) -> Environment:
    env = Environment()
    for stmt in statements:
        _declare(stmt, env)
    return env


# ---------------------------------------------------------------------------
# Command dispatch.

def _config_value(config, key):
    for k, v in config:
        if k == key:
            return v
    return None


def _config_int(config, key, default=None):
    v = _config_value(config, key)
    if v is None:
        return default
    if v.kind != "int":
        raise InputError(f"config key {key!r} expects an integer")
    return v.value


def _config_name(config, key, default=None):
    v = _config_value(config, key)
    if v is None:
        return default
    if v.kind not in ("name", "str"):
        raise InputError(f"config key {key!r} expects a word")
    return v.value


def _ext_bound_for(ring: GradedRing, config) -> int:
    explicit = _config_int(config, "ext_bound")
    if explicit is not None:
        return explicit
    env = os.environ.get("SEMIDUAL_EXT_BOUND")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(
                f"SEMIDUAL_EXT_BOUND must be an integer, got {env!r}")
    return default_ext_bound(ring)


def _resolve_args(raw_args, env: Environment, pos):
    """Names resolve to declared objects; anything else is a polynomial
    over the ring of the first resolved object (or an integer literal)."""
    ring = None
    first = []
    for a in raw_args:
        if isinstance(a, Var):
            n = a.name
            if n in env.rings:
                first.append(env.rings[n])
                ring = ring or env.rings[n]
                continue
            if n in env.modules:
                first.append(env.modules[n])
                ring = ring or env.modules[n].ring
                continue
            if n in env.matrices:
                first.append(env.matrices[n])
                ring = ring or env.matrices[n].ring
                continue
        if isinstance(a, Num):
            first.append(a.value)
            continue
        first.append(a)
    out = []
    for a in first:
        if isinstance(a, (Var, Sum, Prod, Pow, Paren)):
            if ring is None:
                raise InputError(
                    "no declared ring or module argument fixes the ring for "
                    "a polynomial argument", pos)
            out.append(ring.nf(_eval_poly(a, ring.ambient, pos)))
        else:
            out.append(a)
    return out


def _as_module(obj, what, pos):
    if isinstance(obj, FPModule):
        return obj
    if isinstance(obj, GradedRing):
        return free_module(obj, (0,))
    raise InputError(f"{what} must be a module", pos)


def _as_ring(obj, what, pos):
    if isinstance(obj, GradedRing):
        return obj
    raise InputError(f"{what} must be a ring", pos)


def _arity(cmd, args, low, high, pos):
    if not (low <= len(args) <= high):
        want = str(low) if low == high else f"{low}..{high}"
        raise InputError(
            f"{cmd} takes {want} arguments, got {len(args)}", pos)


def run_command(command, raw_args, config, env: Environment, pos=None):
    """Execute one command against the environment.

    Returns (report, exit_code); the report is a JSON-compatible dict
    with a stable key order."""
    args = _resolve_args(raw_args, env, pos)
    echo = [expr_to_str(a) for a in raw_args]

    if command == "gb":
        _arity(command, args, 1, 1, pos)
        R = _as_ring(args[0], "argument", pos)
        basis = [str(g) for g in R.ideal.gens]
        return {"ring": R.name, "basis": basis, "size": len(basis),
                "dimension": R.dimension}, EXIT_OK

    if command == "nf":
        _arity(command, args, 2, 2, pos)
        R = _as_ring(args[0], "first argument", pos)
        f = args[1] if not isinstance(args[1], int) \
            else R.ambient.constant(args[1])
        return {"ring": R.name, "input": echo[1],
                "normal_form": str(R.nf(f))}, EXIT_OK

    if command == "resolve":
        _arity(command, args, 1, 1, pos)
        M = _as_module(args[0], "argument", pos)
        bound = _config_int(config, "max_length",
                            default_ext_bound(M.ring))
        res = free_resolution(M, bound + 1)
        if not res.complete and len(res.maps) > bound:
            raise TruncationError(
                f"resolution still running at the resource bound {bound}",
                bound=bound)
        n = res.known_length()
        return {"module": echo[0],
                "betti": [res.betti(i) for i in range(n + 1)],
                "degrees": [list(res.degrees(i)) for i in range(n + 1)],
                "complete": res.complete,
                "length": n}, EXIT_OK

    if command == "ext":
        _arity(command, args, 3, 3, pos)
        M = _as_module(args[0], "first argument", pos)
        N = _as_module(args[1], "second argument", pos)
        if not isinstance(args[2], int):
            raise InputError("ext expects an integer degree", pos)
        E = ext_module(M, N, args[2]).minimal()[0]
        return {"M": echo[0], "N": echo[1], "i": args[2],
                "minimal_generators": E.ngens,
                "degrees": list(E.gen_degrees),
                "is_zero": E.ngens == 0}, EXIT_OK

    if command == "depth":
        _arity(command, args, 1, 1, pos)
        M = _as_module(args[0], "argument", pos)
        method = _config_name(config, "method", "ext_k")
        if method not in ("ext_k", "koszul"):
            raise InputError(f"unknown depth method {method!r}", pos)
        r = depth_with_witness(
            M, degree_bound=_config_int(config, "degree_bound", 4),
            seed=_config_int(config, "seed", 0), method=method)
        return {"module": echo[0], "depth": r.value,
                "witness": [str(f) for f in r.witness],
                "method": r.method,
                "seed": _config_int(config, "seed", 0)}, EXIT_OK

    if command == "dim":
        _arity(command, args, 1, 1, pos)
        M = _as_module(args[0], "argument", pos)
        return {"module": echo[0],
                "dimension": module_dimension(M)}, EXIT_OK

    if command == "hom":
        _arity(command, args, 2, 2, pos)
        M = _as_module(args[0], "first argument", pos)
        N = _as_module(args[1], "second argument", pos)
        count, Hm = minimal_generators(HomModule(M, N).module)
        return {"source": echo[0], "target": echo[1],
                "minimal_generators": count,
                "degrees": list(Hm.gen_degrees)}, EXIT_OK

    if command == "mingens":
        _arity(command, args, 1, 1, pos)
        M = _as_module(args[0], "argument", pos)
        count, Mm = minimal_generators(M)
        return {"module": echo[0], "count": count,
                "degrees": list(Mm.gen_degrees)}, EXIT_OK

    if command == "check-semidualizing":
        _arity(command, args, 1, 1, pos)
        C = _as_module(args[0], "argument", pos)
        cert = check_semidualizing(C, _ext_bound_for(C.ring, config))
        return cert.to_json_dict(), \
            EXIT_OK if cert.passed else EXIT_VERIFICATION

    if command == "cdim":
        _arity(command, args, 2, 2, pos)
        C = _as_module(args[0], "first argument", pos)
        Y = _as_module(args[1], "second argument", pos)
        bound = _config_int(config, "max_length")
        return {"C": echo[0], "Y": echo[1],
                "c_dim": c_dimension(C, Y, bound)}, EXIT_OK

    if command == "verify-ab":
        _arity(command, args, 2, 2, pos)
        C = _as_module(args[0], "first argument", pos)
        Y = _as_module(args[1], "second argument", pos)
        rep = verify_ab(
            C, Y, ext_bound=_ext_bound_for(C.ring, config),
            pd_bound=_config_int(config, "max_length"),
            degree_bound=_config_int(config, "degree_bound", 4),
            seed=_config_int(config, "seed", 0))
        return rep.to_json_dict(), \
            EXIT_OK if rep.passed else EXIT_VERIFICATION

    if command == "reduce":
        _arity(command, args, 3, 3, pos)
        R = _as_ring(args[0], "first argument", pos)
        C = _as_module(args[1], "second argument", pos)
        x = args[2]
        if isinstance(x, int):
            raise InputError("reduce expects a ring element", pos)
        R2, C2, cert = reduce_by_nzd(R, C, x,
                                     _ext_bound_for(R, config))
        return {"ring": R.name, "element": str(x),
                "quotient_ideal": [str(g) for g in R2.ideal.gens],
                "reduced_gens": list(C2.gen_degrees),
                "certificate": cert.to_json_dict()}, \
            EXIT_OK if cert.passed else EXIT_VERIFICATION

    if command == "corollaries":
        _arity(command, args, 1, 2, pos)
        C = _as_module(args[0], "first argument", pos)
        Y = _as_module(args[1], "second argument", pos) \
            if len(args) == 2 else None
        rep = corollary_suite(C, Y, seed=_config_int(config, "seed", 0))
        return rep, EXIT_OK if rep["all_pass"] else EXIT_VERIFICATION

    if command == "split":
        _arity(command, args, 1, 2, pos)
        T = args[0]
        if not isinstance(T, RingMatrix):
            raise InputError("split expects a declared matrix", pos)
        C = None
        if len(args) == 2:
            C = _as_module(args[1], "second argument", pos)
        S, w = split_surjection(T, C)
        report = {
            "matrix": echo[0],
            "rows": len(T.row_degrees),
            "cols": len(T.col_degrees),
            "section": S.to_rows_str(),
            "complement_inclusion": w["complement_inclusion"].to_rows_str(),
            "complement_retraction": w["complement_retraction"].to_rows_str(),
            "pivots": [list(p) for p in w["pivots"]],
            "image_rank": w["q"],
            "complement_rank": w["p"],
            "identities": w["identities"],
        }
        if w["power_check"] is not None:
            report["power_check"] = w["power_check"]
        return report, EXIT_OK

    raise InputError(f"unknown command {command!r}", pos)


# ---------------------------------------------------------------------------
# Rendering.

def _scalar_str(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "none"
    return str(v)


def _text_lines(value, label=None, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        lines = [f"{pad}{label}:"] if label is not None else []
        inner = indent + 1 if label is not None else indent
        for k, v in value.items():
            lines.extend(_text_lines(v, k, inner))
        return lines
    if isinstance(value, list) and any(isinstance(x, (dict, list))
                                       for x in value):
        lines = [f"{pad}{label}:"]
        for i, x in enumerate(value):
            lines.extend(_text_lines(x, str(i), indent + 1))
        return lines
    if isinstance(value, list):
        body = ", ".join(_scalar_str(x) for x in value)
        return [f"{pad}{label}: [{body}]"]
    return [f"{pad}{label}: {_scalar_str(value)}"]


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return "\n".join(_text_lines(report)) + "\n"


def _print_error(kind, message):
    sys.stderr.write(f"semidual: {kind}: {message}\n")


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_run(path: str) -> int:
    try:
        text = Path(path).read_text()
    except OSError as e:
        _print_error("input error", str(e))
        return EXIT_INPUT
    try:
        spec = parse_session(text)
    except ParseError as e:
        _print_error("syntax error", f"{path}:{e}")
        return EXIT_INPUT

    env = Environment()
    worst = EXIT_OK
    try:
        for stmt in spec.statements:
            if isinstance(stmt, CorpusEntry):
                raise InputError(
                    "corpus blocks are checked by 'semidual corpus', not "
                    "'run'", stmt.pos)
            if isinstance(stmt, RunStmt):
                report, code = run_command(stmt.command, stmt.args,
                                           stmt.config, env, stmt.pos)
                fmt = _config_name(stmt.config, "format", "text")
                if fmt not in ("text", "json"):
                    raise InputError(f"unknown output format {fmt!r}",
                                     stmt.pos)
                sys.stdout.write(render_report(report, fmt))
                worst = max(worst, code)
            else:
                _declare(stmt, env)
    except InputError as e:
        _print_error("input error", f"{path}: {e}")
        return EXIT_INPUT
    except TruncationError as e:
        _print_error("resource bound", str(e))
        return EXIT_RESOURCE
    except VerificationError as e:
        _print_error("verification failure", str(e))
        return EXIT_VERIFICATION
    except ValueError as e:
        _print_error("input error", f"{path}: {e}")
        return EXIT_INPUT
    except InternalError as e:
        _print_error("internal error", str(e))
        return EXIT_INTERNAL
    except RuntimeError as e:
        _print_error("verification failure", str(e))
        return EXIT_VERIFICATION
    return worst


def _corpus_sources(dir_path):
    if dir_path is not None:
        base = Path(dir_path)
        if not base.is_dir():
            raise InputError(f"not a directory: {dir_path}")
        return [(p.name, p.read_text())
                for p in sorted(base.glob("*.sd"))]
    root = resources.files(__package__).joinpath("corpus")
    out = []
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".sd"):
            out.append((entry.name, entry.read_text()))
    return out


def _expected_json(v) -> object:
    if v.kind == "int":
        return v.value
    if v.kind == "name":
        if v.value == "true":
            return True
        if v.value == "false":
            return False
    return v.value


def _matches(actual, v) -> bool:
    if v.kind == "int":
        return not isinstance(actual, bool) and actual == v.value
    if v.kind == "name" and v.value in ("true", "false"):
        return isinstance(actual, bool) and actual == (v.value == "true")
    return isinstance(actual, str) and actual == v.value


def _walk_path(report, path):
    cur = report
    for seg in path:
        if isinstance(seg, int):
            if not isinstance(cur, list) or seg >= len(cur):
                raise KeyError(seg)
            cur = cur[seg]
        else:
            if not isinstance(cur, dict) or seg not in cur:
                raise KeyError(seg)
            cur = cur[seg]
    return cur


def _run_entry(entry: CorpusEntry):
    """(checks, ok, internal) for all expectations of one corpus entry;
    entries are independent, so the summary below is the only join point.
    Expectations that probe different fields of the same command share one
    computation.  internal is whether any check failed on an
    InternalError."""
    env = build_environment(entry.statements)
    checks = []
    ok, internal = True, False
    cache = {}
    for ex in entry.expects:
        call = f"{ex.command}({', '.join(expr_to_str(a) for a in ex.args)})"
        head = call + "".join(f".{seg}" for seg in ex.path)
        check = {"expect": head, "expected": _expected_json(ex.value),
                 "via": ex.via}
        try:
            if call in cache:
                outcome = cache[call]
            else:
                try:
                    outcome = ("ok", run_command(ex.command, ex.args,
                                                 entry.config, env,
                                                 ex.pos)[0])
                except (InputError, TruncationError, VerificationError,
                        ValueError, RuntimeError) as e:
                    outcome = ("err", e)
                cache[call] = outcome
            if outcome[0] == "err":
                raise outcome[1]
            actual = _walk_path(outcome[1], ex.path)
        except KeyError as e:
            check["error"] = f"report has no field {e}"
            check["pass"] = False
            checks.append(check)
            ok = False
            continue
        except (InputError, TruncationError, VerificationError,
                ValueError, RuntimeError) as e:
            check["error"] = str(e)
            check["pass"] = False
            checks.append(check)
            ok = False
            internal = internal or isinstance(e, InternalError)
            continue
        check["actual"] = actual
        check["pass"] = _matches(actual, ex.value)
        ok = ok and check["pass"]
        checks.append(check)
    return checks, ok, internal


def run_corpus(filter_pat=None, as_json=False, dir_path=None) -> int:
    try:
        sources = _corpus_sources(dir_path)
    except InputError as e:
        _print_error("input error", str(e))
        return EXIT_INPUT

    entries = []
    for fname, text in sources:
        try:
            spec = parse_session(text)
        except ParseError as e:
            _print_error("syntax error", f"{fname}:{e}")
            return EXIT_INPUT
        entries.extend(spec.corpus_entries())

    if filter_pat is not None:
        if any(c in filter_pat for c in "*?["):
            entries = [e for e in entries
                       if fnmatch.fnmatchcase(e.name, filter_pat)]
        else:
            entries = [e for e in entries if filter_pat in e.name]

    results = []
    all_ok, any_internal = True, False
    timings = []
    for entry in entries:
        t0 = time.perf_counter()
        try:
            checks, ok, internal = _run_entry(entry)
        except InputError as e:
            checks, ok, internal = [{"error": str(e), "pass": False}], \
                False, False
        timings.append(time.perf_counter() - t0)
        config = {k: _expected_json(v) for k, v in entry.config}
        results.append({"name": entry.name, "config": config,
                        "checks": checks, "passed": ok})
        all_ok = all_ok and ok
        any_internal = any_internal or internal

    summary = {"entries": results, "all_passed": all_ok}
    if as_json:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        for rec, secs in zip(results, timings):
            status = "PASS" if rec["passed"] else "FAIL"
            sys.stdout.write(f"{status} {rec['name']} "
                             f"({len(rec['checks'])} checks, {secs:.2f}s)\n")
            for c in rec["checks"]:
                if not c.get("pass"):
                    detail = c.get("error",
                                   f"expected {c.get('expected')!r}, "
                                   f"got {c.get('actual')!r}")
                    sys.stdout.write(f"  FAIL {c.get('expect', '?')}: "
                                     f"{detail}\n")
        verdict = "all passed" if all_ok else "FAILURES"
        sys.stdout.write(f"{len(results)} entries, {verdict}, "
                         f"{sum(timings):.2f}s total\n")
    if any_internal:
        return EXIT_INTERNAL
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_fmt(path: str) -> int:
    try:
        text = Path(path).read_text()
    except OSError as e:
        _print_error("input error", str(e))
        return EXIT_INPUT
    try:
        spec = parse_session(text)
    except ParseError as e:
        _print_error("syntax error", f"{path}:{e}")
        return EXIT_INPUT
    sys.stdout.write(print_session(spec))
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="semidual",
        description="Exact checks for semidualizing modules over graded "
                    "quotient rings.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a session file")
    p_run.add_argument("file")

    p_corpus = sub.add_parser(
        "corpus", help="check the pinned expectations of the corpus")
    p_corpus.add_argument("--filter", default=None, metavar="PAT",
                          help="only entries whose name matches (substring "
                               "or glob)")
    p_corpus.add_argument("--json", action="store_true",
                          help="machine readable summary")
    p_corpus.add_argument("--dir", default=None, metavar="DIR",
                          help="read corpus files from DIR instead of the "
                               "bundled set")

    p_fmt = sub.add_parser("fmt", help="canonical form of a session file")
    p_fmt.add_argument("file")

    ns = ap.parse_args(argv)
    if ns.subcommand == "run":
        return cmd_run(ns.file)
    if ns.subcommand == "corpus":
        return run_corpus(ns.filter, ns.json, ns.dir)
    return cmd_fmt(ns.file)


if __name__ == "__main__":
    sys.exit(main())
