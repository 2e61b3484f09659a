"""Time `semidual run FILE` in fresh processes, alternating two checkouts.

    python3 scripts/time_session.py --parent ../parent --change . \
        --ext-bound 12 --pairs 5 scripts/omega_certificate.sd

Each pair runs the session once in each checkout, one after the other:
odd pairs run the parent first, even pairs the change first.  Each run is
a new `python3 -m semidual.cli run FILE` with that checkout's `src/` as
its only PYTHONPATH entry and SEMIDUAL_EXT_BOUND set to the given bound.
Per run it prints the wall time and the child's maximum resident set size
(from os.wait4, so no external `time` tool is needed); at the end, each
side's median and the parent/change ratio of the medians.

Every run's stdout and exit code must equal the first run's, on both
sides: the script stops with exit 1 at the first difference.  Standard
library only; Linux reports ru_maxrss in KiB.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_once(checkout, session, bound):
    """(wall seconds, max RSS in MB, exit code, stdout) of one fresh run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(checkout, "src").resolve())
    env["SEMIDUAL_EXT_BOUND"] = str(bound)
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "semidual.cli", "run", session],
            stdout=out, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, usage.ru_maxrss / 1024, proc.returncode, out.read()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("session", help="the .sd session file to run")
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--ext-bound", type=int, required=True,
                    help="SEMIDUAL_EXT_BOUND for every run")
    ap.add_argument("--pairs", type=int, default=5)
    ns = ap.parse_args(argv)
    session = str(Path(ns.session).resolve())
    sides = {"parent": ns.parent, "change": ns.change}
    walls = {side: [] for side in sides}
    want = None
    for pair in range(1, ns.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            wall, rss, code, out = run_once(sides[side], session,
                                            ns.ext_bound)
            print(f"pair {pair} {side:6s} wall {wall:7.3f} s  "
                  f"max rss {rss:7.1f} MB  exit {code}", flush=True)
            if want is None:
                want = (code, out)
            elif (code, out) != want:
                print(f"{side} run of pair {pair} differs from the first "
                      f"run's exit code or stdout", file=sys.stderr)
                return 1
            walls[side].append(wall)
    med = {side: statistics.median(v) for side, v in walls.items()}
    print(f"median wall: parent {med['parent']:.3f} s, change "
          f"{med['change']:.3f} s, ratio {med['parent'] / med['change']:.2f}; "
          f"stdout identical ({len(want[1])} bytes, exit {want[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
