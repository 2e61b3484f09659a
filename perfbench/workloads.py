"""The benchmark's workloads: seeded inputs, the operations run on them,
and the checks on their outputs.

Every input reaches the program as session text (the `.sd` format), is
parsed once in set-up and re-declared at the start of every round, so no
round sees the Groebner bases, resolutions or minimal presentations that
an earlier round cached on its module objects.  One operation is one
command run through `semidual.cli.run_command`, the path `semidual run`
and `semidual corpus` take.

The random modules are stratified: each round holds a fixed list of
shapes (number and degrees of generators, number and degrees of
relations) and the seed draws only the coefficients and which monomials
appear.  That keeps the amount of work in a round close to the same for
every seed while the modules themselves differ.  The `random` workload
runs two such groups each round: `verify-ab(R, M)` over regular rings and
`check-semidualizing(M)` over the corpus rings.
"""

import random
import re
from importlib import resources

from semidual import cli, session
from semidual.cli import EXIT_OK, EXIT_VERIFICATION
from semidual.homalg import depth_koszul, free_resolution, \
    hilbert_numerator_module, module_dimension
from semidual.polyring import intpoly_add, intpoly_shift, parse_polynomial
from semidual.session import RunStmt

# The program is called through its module attributes (cli.run_command,
# session.parse_session), never through names bound here, so that the
# tracer's wrappers see every call.

WORKLOADS = ("corpus", "random")


class CheckError(AssertionError):
    """An output of the program is wrong; the message names the input."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Rings.  depth and dim are the hand-derived values pinned in the corpus
# (`expect depth(R).depth`, `expect dim(R).dimension`) or, for the rings
# the corpus lacks, the values of a polynomial ring in n variables.

class RingSpec:
    def __init__(self, key, char, names, weights=None, ideal=(), depth=None,
                 dim=None):
        self.key = key
        self.char = char
        self.names = tuple(names)
        self.weights = tuple(weights or (1,) * len(self.names))
        self.ideal = tuple(ideal)
        self.polynomial = not self.ideal
        n = len(self.names)
        self.depth = n if depth is None else depth
        self.dim = n if dim is None else dim

    def decl(self):
        lines = [f"ring {self.key} {{", f"    char {self.char};",
                 f"    vars {' '.join(self.names)};"]
        if any(w != 1 for w in self.weights):
            lines.append(f"    weights {' '.join(map(str, self.weights))};")
        if self.ideal:
            lines.append("    ideal { " + " ".join(g + ";" for g in self.ideal)
                         + " }")
        lines.append("}")
        return "\n".join(lines)

    def monomials(self, d):
        """Exponent tuples of weighted degree d in the ambient ring."""
        out = []

        def rec(i, rem, acc):
            if i == len(self.weights):
                if rem == 0:
                    out.append(tuple(acc))
                return
            for e in range(rem // self.weights[i] + 1):
                rec(i + 1, rem - e * self.weights[i], acc + [e])

        if d >= 0:
            rec(0, d, [])
        return out

    def term(self, exps, c):
        factors = [] if c == 1 and any(exps) else [str(c)]
        for name, e in zip(self.names, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors)

    def random_form(self, d, rng, density):
        """A random form of weighted degree d; '0' when no monomial was
        drawn.  density is the chance that a monomial appears."""
        terms = [self.term(e, rng.randrange(1, self.char))
                 for e in self.monomials(d) if rng.random() < density]
        return " + ".join(terms) if terms else "0"


POLY_X = RingSpec("Rx", 101, "x", depth=1, dim=1)
POLY_XY = RingSpec("Rxy", 101, "xy", depth=2, dim=2)
HYPERSURFACE = RingSpec("Rh", 101, "xy", ideal=("x^2",), depth=1, dim=1)
SEMIGROUP = RingSpec("Rs", 101, "xyz", weights=(3, 4, 5),
                     ideal=("y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"),
                     depth=1, dim=1)
F101_XY = RingSpec("A", 101, "xy")
F3_XY = RingSpec("B", 3, "xy")
F101_XYZ = RingSpec("D", 101, "xyz")


# ---------------------------------------------------------------------------
# Random modules.  A shape is (generator degrees, relation shifts): column j
# has degree max(generator degrees) + shift_j, and entry (i, j) is a random
# form of degree (column degree - generator degree i).  A shift of 0 gives
# a column of constants, which the minimal presentation removes.

def module_decl(ring, name, shape, rng, density):
    gdegs, shifts = shape
    cols = []
    for shift in shifts:
        cdeg = max(gdegs) + shift
        while True:
            col = [ring.random_form(cdeg - g, rng, density) for g in gdegs]
            if any(f != "0" for f in col):
                break
            density = 1.0  # every column needs a nonzero entry
        cols.append(col)
    gens = " ".join(f"deg {g}" for g in gdegs)
    lines = [f"module {name} over {ring.key} {{", f"    gens {gens};"]
    if cols:
        lines.append("    rels { " + " ".join(
            "[" + ", ".join(c) + "];" for c in cols) + " }")
    lines.append("}")
    return "\n".join(lines)


# verify-ab(R, M) on the regular rings: relations of positive degree only, so the presentations
# are minimal up to dependent columns, M is never zero, and pd M ranges
# over 0..nvars.
AB_SHAPES = (
    ((0,), (1,)),
    ((0,), (1, 1)),
    ((0,), (1, 2)),
    ((0,), (2, 2)),
    ((0, 0), (1,)),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1, 1)),
    ((0, 1), (1, 1)),
    ((0, 1), (1, 2)),
    ((0,), ()),
)
AB_RINGS = (F101_XY, F3_XY, F101_XYZ)
AB_DENSITIES = (1.0, 0.6, 0.35)

# check-semidualizing on the corpus rings: small candidates, one shift-0 column at most (so M/mM never
# vanishes), and the free module of rank one among them, which passes.
SCREEN_SHAPES_STD = (
    ((0,), ()),
    ((0,), (1,)),
    ((0,), (1, 2)),
    ((0, 0), ()),
    ((0, 0), (0,)),
    ((0, 0), (0, 1)),
    ((0, 0), (1,)),
    ((0, 1), (1,)),
    ((0, 1), (1, 1)),
    ((0, 1), (1, 2)),
)
SCREEN_SHAPES_WEIGHTED = (
    ((0,), ()),
    ((0,), (3,)),
    ((0,), (4, 5)),
    ((0, 0), ()),
    ((0, 0), (0,)),
    ((0, 0), (0, 4)),
    ((0, 0), (3,)),
    ((0, 3), (3,)),
    ((0, 3), (4, 5)),
    ((0, 4), (5,)),
)
SCREEN_RINGS = ((POLY_X, SCREEN_SHAPES_STD), (POLY_XY, SCREEN_SHAPES_STD),
                (HYPERSURFACE, SCREEN_SHAPES_STD),
                (SEMIGROUP, SCREEN_SHAPES_WEIGHTED))
SCREEN_DENSITIES = (1.0, 0.5)
SCREEN_PER_RING = 125


class Op:
    """One command of a workload and what its check needs to know."""

    __slots__ = ("stmt", "ring", "module", "expects")

    def __init__(self, stmt, ring=None, module=None, expects=()):
        self.stmt = stmt
        self.ring = ring
        self.module = module
        self.expects = expects

    @property
    def label(self):
        args = ", ".join(session.expr_to_str(a) for a in self.stmt.args)
        return f"{self.stmt.command}({args})"


class Batch:
    """The inputs of one workload: groups of declarations, each with the
    operations run against it.  A group is re-declared every round."""

    def __init__(self, groups, expect_lines=0):
        self.groups = groups          # list of (declarations, ops)
        self.expect_lines = expect_lines

    @property
    def nops(self):
        return sum(len(ops) for _, ops in self.groups)


def random_session(rings, densities, command, extra_decls, rng):
    """Session text declaring random modules and one `run command` per
    module.  rings is a list of (RingSpec, shapes, count): count modules
    over the ring, cycling through the shapes and the densities.  Returns
    the text and the (ring, module name) of each run, in order."""
    parts = []
    meta = []
    for ring, shapes, count in rings:
        parts.append(ring.decl())
        parts.extend(extra_decls(ring))
        for i in range(count):
            name = f"M{ring.key}{i}"
            parts.append(module_decl(ring, name, shapes[i % len(shapes)],
                                     rng, densities[i % len(densities)]))
            meta.append((ring, name))
    for ring, name in meta:
        parts.append(f"run {command(ring, name)};")
    return "\n".join(parts) + "\n", meta


def session_group(text, meta):
    """Parse session text into one declaration group with its ops."""
    spec = session.parse_session(text)
    decls = tuple(s for s in spec.statements if not isinstance(s, RunStmt))
    runs = spec.runs()
    ops = [Op(stmt, ring, name) for stmt, (ring, name) in zip(runs, meta)]
    return decls, ops


def ab_regular_text(seed):
    rng = random.Random(f"ab-regular/{seed}")
    return random_session(
        [(r, AB_SHAPES, len(AB_SHAPES)) for r in AB_RINGS],
        AB_DENSITIES, lambda r, m: f"verify-ab(C{r.key}, {m})",
        lambda r: [f"module C{r.key} over {r.key} {{\n    gens deg 0;\n}}"],
        rng)


def screen_text(seed):
    rng = random.Random(f"screen/{seed}")
    return random_session(
        [(r, shapes, SCREEN_PER_RING) for r, shapes in SCREEN_RINGS],
        SCREEN_DENSITIES, lambda r, m: f"check-semidualizing({m})",
        lambda r: [], rng)


def corpus_sources():
    root = resources.files("semidual").joinpath("corpus")
    return [(p.name, p.read_text()) for p in
            sorted(root.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".sd")]


EXPECT_LINE = re.compile(r"^\s*expect\s", re.M)


def corpus_batch(sources):
    """One group per corpus entry; one op per distinct call, as
    `semidual corpus` computes each distinct call once per entry."""
    groups = []
    for _, text in sources:
        for entry in session.parse_session(text).corpus_entries():
            calls = {}
            for ex in entry.expects:
                calls.setdefault((ex.command, ex.args), []).append(ex)
            ops = [Op(RunStmt(cmd, args, entry.config, exs[0].pos),
                      expects=tuple(exs))
                   for (cmd, args), exs in calls.items()]
            groups.append((entry.statements, ops))
    lines = sum(len(EXPECT_LINE.findall(text)) for _, text in sources)
    return Batch(groups, lines)


def make_batch(workload, seed):
    """Parse the workload's inputs for this seed (the set-up)."""
    if workload == "corpus":
        return corpus_batch(corpus_sources())
    return Batch([session_group(*ab_regular_text(seed)),
                  session_group(*screen_text(seed))])


# ---------------------------------------------------------------------------
# Running.

def run_round(batch):
    """Declare every group afresh and run its ops.  Returns one
    (op, report, exit code, error) per op; error is None unless the
    command raised."""
    out = []
    for decls, ops in batch.groups:
        env = cli.build_environment(decls)
        for op in ops:
            s = op.stmt
            try:
                report, code = cli.run_command(s.command, s.args,
                                               s.config, env, s.pos)
                out.append((op, report, code, None))
            except (ValueError, RuntimeError) as e:
                out.append((op, None, None, f"{type(e).__name__}: {e}"))
    return out


# ---------------------------------------------------------------------------
# Checks.  Each takes the results of one round and raises CheckError on a
# wrong output.  Failed operations (error set) are counted, not checked.

def _walk(report, path):
    cur = report
    for seg in path:
        if isinstance(seg, int):
            require(isinstance(cur, list) and seg < len(cur),
                    f"report has no index {seg}")
        else:
            require(isinstance(cur, dict) and seg in cur,
                    f"report has no field {seg!r}")
        cur = cur[seg]
    return cur


def _expected(value):
    if value.kind == "name" and value.value in ("true", "false"):
        return value.value == "true"
    return value.value


def check_corpus(results, batch):
    """Every pinned expect line holds, read from the report of its call,
    and each call exits 0."""
    seen = 0
    for op, report, code, err in results:
        if err is not None:
            continue
        require(code == EXIT_OK, f"{op.label}: exit code {code}")
        for ex in op.expects:
            seen += 1
            actual = _walk(report, ex.path)
            want = _expected(ex.value)
            require(type(actual) is type(want) and actual == want,
                    f"{op.label}.{'.'.join(map(str, ex.path))}: expected "
                    f"{want!r}, got {actual!r}")
    failed_expects = sum(len(op.expects) for op, _, _, e in results if e)
    require(seen + failed_expects == batch.expect_lines,
            f"checked {seen + failed_expects} expectations, the corpus "
            f"files hold {batch.expect_lines}")


def betti_numerator(res, length):
    """Hilbert-series numerator sum_i (-1)^i sum_j t^{deg_ij} read from
    the graded Betti numbers."""
    out = {}
    for i in range(length + 1):
        for d in res.degrees(i):
            out = intpoly_add(out, intpoly_shift({0: (-1) ** i}, d))
    return out


def check_ab_regular(results, fresh_env):
    """verify-ab passed with c_dim = pd M, pd M read from M's own minimal
    free resolution; pd M + depth M (Koszul) = nvars; and the Betti
    numbers give M's Hilbert numerator."""
    for op, report, code, err in results:
        if err is not None:
            continue
        name = op.module
        M = fresh_env.modules[name]
        n = M.ring.ambient.nvars
        res = free_resolution(M, n + 1)
        require(res.complete, f"{name}: resolution longer than {n}")
        pd = res.known_length()
        require(code == EXIT_OK and report["ab_identity"] is True,
                f"{name}: verify-ab did not pass (exit {code})")
        require(report["c_dim"] == pd and report["pd_hom"] == pd,
                f"{name}: c_dim {report['c_dim']}, pd_hom "
                f"{report['pd_hom']}, but pd M = {pd}")
        require(report["depth_C"] == n,
                f"{name}: depth of the ring reported as {report['depth_C']}")
        dk = depth_koszul(M)
        require(pd + dk == n,
                f"{name}: pd {pd} + Koszul depth {dk} != {n}")
        require(report["depth_Y"] == dk,
                f"{name}: depth_Y {report['depth_Y']} != Koszul depth {dk}")
        num = betti_numerator(res, pd)
        want = {d: c for d, c in hilbert_numerator_module(M).items() if c}
        require({d: c for d, c in num.items() if c} == want,
                f"{name}: Betti numerator {num} != Hilbert numerator {want}")


def check_screen(results, fresh_env):
    """Over polynomial rings a candidate passes exactly when its minimal
    presentation is free of rank one; every annihilator witness is
    replayed; every passing module has the ring's depth (Koszul) and
    dimension."""
    for op, report, code, err in results:
        if err is not None:
            continue
        ring, name = op.ring, op.module
        M = fresh_env.modules[name]
        R = M.ring
        verdict = report["verdict"]
        require(verdict in ("verified_up_to_bound", "failed"),
                f"{name}: unknown verdict {verdict!r}")
        passed = verdict == "verified_up_to_bound"
        require(code == (EXIT_OK if passed else EXIT_VERIFICATION),
                f"{name}: exit code {code} with verdict {verdict}")
        if ring.polynomial:
            Mm = M.minimal()[0]
            free_one = Mm.ngens == 1 and Mm.relations.ncols == 0
            require(passed == free_one,
                    f"{name}: verdict {verdict}, but the minimal "
                    f"presentation is {'' if free_one else 'not '}free of "
                    f"rank one")
        excess = report["condition_i"]["annihilator_excess"]
        if excess is not None:
            g = parse_polynomial(excess, R.ambient)
            require(not R.ideal.contains(g),
                    f"{name}: witness {excess} lies in the ideal")
            zero = R.ambient.zero()
            for i in range(M.ngens):
                col = tuple(g if j == i else zero for j in range(M.ngens))
                require(M.contains_zero(col),
                        f"{name}: witness {excess} does not kill "
                        f"generator {i}")
        if passed:
            dk = depth_koszul(M)
            require(dk == ring.depth,
                    f"{name}: passes but has depth {dk}, the ring has "
                    f"{ring.depth}")
            dim = module_dimension(M)
            require(dim == ring.dim,
                    f"{name}: passes but has dimension {dim}, the ring has "
                    f"{ring.dim}")


CHECKS = {"verify-ab": check_ab_regular,
          "check-semidualizing": check_screen}


def check_round(workload, results, batch):
    """Check one round's outputs; the random modules are checked against
    fresh declarations of their group."""
    if workload == "corpus":
        check_corpus(results, batch)
        return
    start = 0
    for decls, ops in batch.groups:
        group = results[start:start + len(ops)]
        start += len(ops)
        fresh = cli.build_environment(decls)
        for command, check in CHECKS.items():
            check([r for r in group if r[0].stmt.command == command], fresh)


def fingerprint(results):
    """What must not change between two rounds of the same inputs."""
    return [(op.label, report, code, err) for op, report, code, err
            in results]
