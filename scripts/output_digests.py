"""Print the digests of one or more checkouts' outputs, and compare them.

    python3 scripts/output_digests.py ../parent .

For each checkout this prints the sha256 of `semidual corpus --json` (with
its exit code); for seeds 1-3, the sha256 of the `random` workload's round
fingerprint,

    json.dumps(workloads.fingerprint(run_round(make_batch("random", seed))),
               sort_keys=True)

and the sha256 of the minimal free resolutions to length 10 of every
module of the bundled corpus, in file, entry and declaration order: per
module its name, the degrees of F_0 and, per boundary, its row and column
degrees and its columns as stored, each column's dict in its own order;
and the sha256 of `semidual fmt` (with its exit code) over each bundled
corpus file and scripts/omega_certificate.sd.

Each is computed in a fresh process with the checkout's `src/` and
`perfbench/` as its only PYTHONPATH entries, SEMIDUAL_EXT_BOUND removed and
PYTHONHASHSEED=0, as the benchmark runs it.  perfbench/workloads.py is only
imported, and no bytecode is written into the checkout.  Exits 1 when two
checkouts differ in any digest, 2 when a checkout has no `src/semidual` or
its fingerprint or resolution run fails, else 0.  Standard library only.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)

FINGERPRINTS = """\
import hashlib, json, sys
import workloads
for seed in map(int, sys.argv[1:]):
    batch = workloads.make_batch("random", seed)
    fp = workloads.fingerprint(workloads.run_round(batch))
    text = json.dumps(fp, sort_keys=True)
    print(hashlib.sha256(text.encode()).hexdigest())
"""

RESOLUTIONS = """\
import hashlib, os
import semidual
from semidual.cli import build_environment
from semidual.homalg import free_resolution
from semidual.session import parse_session
corpus = os.path.join(os.path.dirname(semidual.__file__), "corpus")
h = hashlib.sha256()
for fname in sorted(os.listdir(corpus)):
    with open(os.path.join(corpus, fname)) as f:
        spec = parse_session(f.read())
    for entry in spec.corpus_entries():
        for name, M in build_environment(entry.statements).modules.items():
            res = free_resolution(M, 10)
            h.update(repr((entry.name, name, res.f0)).encode())
            for d in res.maps:
                h.update(repr((d.row_degrees, d.col_degrees,
                               [list(v.items()) for v in d.cols])).encode())
print(h.hexdigest())
"""


def run(checkout, args):
    """The finished python3 process of args, run against the checkout."""
    root = Path(checkout).resolve()
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SEMIDUAL_EXT_BOUND")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *args], env=env, cwd=root,
                          capture_output=True)


def fail(message):
    sys.stderr.write(message + "\n")
    sys.exit(2)


def digests(checkout):
    """{label: digest} of one checkout's outputs."""
    if not Path(checkout, "src", "semidual").is_dir():
        fail(f"{checkout}: no src/semidual")
    corpus = run(checkout, ["-m", "semidual.cli", "corpus", "--json"])
    out = {"corpus --json": f"{hashlib.sha256(corpus.stdout).hexdigest()}"
                            f" (exit {corpus.returncode})"}
    fps = run(checkout, ["-c", FINGERPRINTS, *map(str, SEEDS)])
    lines = fps.stdout.decode().split()
    if fps.returncode != 0 or len(lines) != len(SEEDS):
        sys.stderr.write(fps.stderr.decode())
        fail(f"{checkout}: the fingerprint run failed "
             f"(exit {fps.returncode})")
    for seed, line in zip(SEEDS, lines):
        out[f"random seed {seed}"] = line
    res = run(checkout, ["-c", RESOLUTIONS])
    if res.returncode != 0:
        sys.stderr.write(res.stderr.decode())
        fail(f"{checkout}: the resolution run failed (exit {res.returncode})")
    out["resolutions"] = res.stdout.decode().strip()
    root = Path(checkout).resolve()
    sources = sorted((root / "src" / "semidual" / "corpus").glob("*.sd"))
    for path in sources + [root / "scripts" / "omega_certificate.sd"]:
        fmt = run(checkout, ["-m", "semidual.cli", "fmt", str(path)])
        out[f"fmt {path.name}"] = (f"{hashlib.sha256(fmt.stdout).hexdigest()}"
                                   f" (exit {fmt.returncode})")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    ns = ap.parse_args(argv)
    results = []
    for checkout in ns.checkouts:
        got = digests(checkout)
        results.append(got)
        print(checkout)
        for label, digest in got.items():
            print(f"  {label:24} {digest}")
    differ = [label for label in results[0]
              if len({r[label] for r in results}) > 1]
    if differ:
        print("differ: " + ", ".join(differ))
        return 1
    if len(results) > 1:
        print("all digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
