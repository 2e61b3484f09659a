"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The run itself happens in a fresh,
single-threaded Python process (perfbench/worker.py) that imports the
package from src/, with SEMIDUAL_EXT_BOUND removed from its environment
and a fixed hash seed.  set-up time is counted from just before that
process is started, so it covers interpreter start, the import of
semidual, and the parsing of the inputs.

The last line on stdout is the result: a JSON object with the keys
correct, attempted, failed and metrics.  The worker's full record goes
to perfbench/out/, with the trace spans when --trace is 1.  The exit code
is 0 only when the run completed and every output was correct.  Before
exiting, the command checks that no process it started is still alive.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    return 1


def group_alive(pgid):
    """True while any process of the worker's process group exists."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_group(pgid):
    """Kill the worker's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)
    if ns.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "semidual" / "__init__.py").is_file():
        return fail(f"no semidual sources under {ROOT / 'src'}")

    OUT.mkdir(exist_ok=True)
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    env = {k: v for k, v in os.environ.items() if k != "SEMIDUAL_EXT_BOUND"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", ns.workload, "--seed", str(ns.seed),
           "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    if ns.trace:
        cmd += ["--trace-file", str(OUT / f"{stem}.spans.jsonl")]

    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        return fail(f"worker exceeded {WORKER_TIMEOUT_S}s and was killed")
    if group_alive(proc.pid):
        stop_group(proc.pid)
        return fail("a process started by the worker outlived it; its "
                    "process group was killed")

    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        return fail("worker printed no result")
    record = json.loads(lines[-1])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = record["result"]
    print(json.dumps(result))
    if not result["correct"]:
        return fail(f"wrong output: {record['detail']['fault']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
