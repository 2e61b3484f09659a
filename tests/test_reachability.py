"""Every public name of the package has a caller outside the tests.

A name in the `__all__` of a `src/semidual` module must be used somewhere
in `src/semidual` outside its own definition, or by the benchmark in
`perfbench/`. Code that only tests reach is to be deleted or given a
caller. The benchmark counts as a caller: its tracer wraps functions by
module and attribute name (`ext_is_zero`, `regular_sequence_search`), and
its output checks call `hilbert_numerator_module`, `intpoly_add`,
`intpoly_shift`, `parse_polynomial` and `FPModule.contains_zero`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semidual"
BENCH = ROOT / "perfbench"

# Public names that only tests call, each kept for the reason given.
ALLOWED = {
    "hilbert_coefficients":
        "test_homalg uses it as the oracle for hilbert_numerator_module",
    "hom_left_exactness":
        "acceptance criterion 5 calls it",
}


def _public_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return [e.value for e in node.value.elts]
    return []


def _uses(tree):
    """(name, top-level definition it sits in or None) for every name
    read or attribute taken in the module."""
    out = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
    return out


def _bench_names():
    """Names the benchmark uses, including the dotted attribute paths it
    hands its tracer as strings."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    uses = {mod: _uses(tree) for mod, tree in trees.items()}
    bench = _bench_names()
    public = {(mod, name) for mod, tree in trees.items()
              for name in _public_names(tree)}
    unreached = []
    for mod, name in sorted(public):
        if name in ALLOWED or name in bench:
            continue
        if not any(used == name and (other != mod or owner != name)
                   for other, refs in uses.items() for used, owner in refs):
            unreached.append(f"{mod}.{name}")
    assert not unreached, f"public names only tests reach: {unreached}"
    assert set(ALLOWED) <= {name for _, name in public}
