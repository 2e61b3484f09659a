"""Spans and counts recorded from outside the program.

The tracer replaces chosen functions and methods of the `semidual`
modules by wrappers, in every module namespace that holds them, and
restores the originals on `uninstall`.  A span wrapper records a span
(name, start, end, parent) per call; a count wrapper only counts calls.
Count wrappers go on the functions called millions of times (polynomial
arithmetic, monomial order keys, normal forms), where a span per call
would cost more than the work it measures.

Self time is a span's duration minus the time its child spans cover.
Time spent in count-only functions is part of the self time of the span
that called them.  A function that recurses into itself is timed once,
by its outermost span.
"""

import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "session", "semidual", "homalg", "fpmod", "groebner",
          "linalg")

# (span name, module, attribute): one span per call.
SPANS = (
    ("cli.command", "cli", "run_command"),
    ("cli.build_environment", "cli", "build_environment"),
    ("session.parse", "session", "parse_session"),
    ("semidual.check_semidualizing", "semidual", "check_semidualizing"),
    ("semidual.bass_class_check", "semidual", "bass_class_check"),
    ("semidual.c_resolution", "semidual", "c_resolution"),
    ("semidual.verify_ab", "semidual", "verify_ab"),
    ("semidual.corollary_suite", "semidual", "corollary_suite"),
    ("semidual.reduce_by_nzd", "semidual", "reduce_by_nzd"),
    ("homalg.resolution", "homalg", "Resolution.ensure"),
    ("homalg.ext_is_zero", "homalg", "ext_is_zero"),
    ("homalg.depth", "homalg", "depth"),
    ("homalg.depth_koszul", "homalg", "depth_koszul"),
    ("homalg.regular_sequence_search", "homalg", "regular_sequence_search"),
    ("fpmod.matrix_build", "fpmod", "RingMatrix.__init__"),
    ("fpmod.hom_module", "fpmod", "HomModule.__init__"),
    ("fpmod.minimal", "fpmod", "FPModule.minimal"),
    ("fpmod.kernel", "fpmod", "kernel"),
    ("fpmod.annihilator", "fpmod", "annihilator"),
    ("fpmod.homology_is_zero", "fpmod", "homology_is_zero"),
    ("fpmod.is_isomorphic", "fpmod", "is_isomorphic"),
    ("groebner.build", "groebner", "_Engine.saturate"),
    ("linalg.row_reduce", "linalg", "row_reduce"),
)

# (count name, module, attribute): calls counted, no span.
COUNTS = (
    ("fpmod.module_eq", "fpmod", "FPModule.__eq__"),
    ("groebner.nf", "groebner", "_Engine.reduce_full"),
    ("polyring.mul", "polyring", "Polynomial.__mul__"),
    ("polyring.add", "polyring", "Polynomial.__add__"),
    ("polyring.from_dict", "polyring", "PolyRing.from_dict"),
    ("polyring.order_key", "polyring", "MonomialOrder.key"),
)

# Per-command spans of cli.run_command, named cli.<command>.
CLI_COMMANDS = ("check-semidualizing", "verify-ab", "reduce")


def _module_key(M):
    """Content key of a presented module, so equal modules built twice
    count as one."""
    return repr((M.ring.describe(), M.gen_degrees,
                 M.relations.to_rows_str()))


class Tracer:
    """Installs the wrappers and accumulates what they record.

    Spans are kept in flat arrays (name index, start, end, parent index)
    and written out by `dump`; totals per name are kept as they close."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = []         # open span indices
        self.child_time = []    # time covered by children, per open span
        self.active = Counter()  # open spans per name, for recursion
        self.counts = Counter()
        self.total = defaultdict(float)  # outermost inclusive time per name
        self.self_time = defaultdict(float)
        self.ext_keys = set()
        self._saved = []

    def reset(self):
        """Start a new accumulation period; recorded spans are kept."""
        self.counts.clear()
        self.total.clear()
        self.self_time.clear()
        self.ext_keys.clear()

    # -- recording ------------------------------------------------------

    def _name_id(self, name):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.child_time.append(0.0)
        self.active[name] += 1
        self.counts[name + "_calls"] += 1
        t = self.clock()
        self.span_start[idx] = t
        return idx

    def _close(self, idx, name):
        t = self.clock()
        self.span_end[idx] = t
        self.stack.pop()
        children = self.child_time.pop()
        dur = t - self.span_start[idx]
        if self.child_time:
            self.child_time[-1] += dur
        self.self_time[name] += dur - children
        self.active[name] -= 1
        if not self.active[name]:
            self.total[name] += dur

    def span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kw):
            idx = self._open(name)
            try:
                out = fn(*args, **kw)
            finally:
                self._close(idx, name)
            if after is not None:
                after(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        key = name + "_calls"

        def wrapper(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that add counts beyond calls -------------------------------

    def _ensure_wrapper(self, fn):
        """Resolution.ensure, also counting the ranks of the stages it
        adds."""
        span = self.span_wrapper("homalg.resolution", fn)

        def wrapper(res, length):
            before = len(res.maps)
            out = span(res, length)
            self.counts["homalg.betti_total"] += sum(
                m.ncols for m in res.maps[before:])
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_ext(self, args, out):
        M, N, i = args
        self.ext_keys.add((_module_key(M), _module_key(N), i))

    def _after_matrix(self, args, out):
        m = args[0]
        c = self.counts
        c["fpmod.matrix_entries"] += len(m.row_degrees) * len(m.col_degrees)
        c["fpmod.matrix_nonzeros"] += sum(
            1 for row in m.entries for f in row if f.terms)

    def _after_saturate(self, args, out):
        self.counts["groebner.basis_size_total"] += len(args[0].basis)

    def _run_command_wrapper(self, fn):
        generic = self.span_wrapper("cli.command", fn)
        named = {c: self.span_wrapper(f"cli.{c}", generic)
                 for c in CLI_COMMANDS}

        def wrapper(command, *args, **kw):
            return named.get(command, generic)(command, *args, **kw)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall --------------------------------------------

    def _wrap(self, name, fn):
        if name == "cli.command":
            return self._run_command_wrapper(fn)
        if name == "homalg.resolution":
            return self._ensure_wrapper(fn)
        after = {
            "homalg.ext_is_zero": self._after_ext,
            "fpmod.matrix_build": self._after_matrix,
            "groebner.build": self._after_saturate,
        }.get(name)
        return self.span_wrapper(name, fn, after)

    def install(self):
        """Wrap every listed function wherever a semidual module holds it."""
        mods = {k: sys.modules[f"semidual.{k}"] for k in
                ("cli", "session", "semidual", "homalg", "fpmod", "groebner",
                 "linalg", "polyring")}
        plan = [(n, m, a, True) for n, m, a in SPANS] + \
               [(n, m, a, False) for n, m, a in COUNTS]
        for name, mod, attr, is_span in plan:
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owners = [getattr(mods[mod], cls_name)]
                fn = owners[0].__dict__[attr]
            else:
                fn = getattr(mods[mod], attr)
                owners = [m for m in mods.values()
                          if m.__dict__.get(attr) is fn]
            new = self._wrap(name, fn) if is_span \
                else self.count_wrapper(name, fn)
            for owner in owners:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- results --------------------------------------------------------

    def period(self):
        """Counts and times of the current period, as plain dicts, with a
        zero for every name that was not called."""
        counts = {f"{n}_calls": 0 for n, _, _ in SPANS + COUNTS}
        counts.update({f"cli.{c}_calls": 0 for c in CLI_COMMANDS})
        for key in ("homalg.betti_total", "fpmod.matrix_entries",
                    "fpmod.matrix_nonzeros", "groebner.basis_size_total"):
            counts[key] = 0
        counts.update(self.counts)
        counts["homalg.ext_is_zero_distinct"] = len(self.ext_keys)
        counts["fpmod.matrix_builds"] = counts["fpmod.matrix_build_calls"]
        counts["groebner.basis_builds"] = counts["groebner.build_calls"]
        times = {f"{n}_s": 0.0 for n, _, _ in SPANS}
        times.update({f"cli.{c}_s": 0.0 for c in CLI_COMMANDS})
        times.update({name + "_s": t for name, t in self.total.items()})
        for layer in LAYERS:
            times[f"{layer}.self_s"] = sum(
                (t for name, t in self.self_time.items()
                 if name.split(".")[0] == layer), 0.0)
        return counts, times

    def nspans(self):
        return len(self.span_start)

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent
        (the index of the enclosing span, -1 at the top)."""
        with open(path, "w") as f:
            for i in range(len(self.span_start)):
                f.write('["%s", %.9f, %.9f, %d]\n' % (
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i]))
