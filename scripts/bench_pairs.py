"""Alternating parent/change benchmark pairs, written to one BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload corpus --workload random --seeds 401-410 \
        --out BENCH_4.json

For every seed and workload this runs `perfbench/run.py --trace 0` once in
each checkout, one after the other: odd pairs run the parent first, even
pairs the change first, so a slow spell of the machine does not always
land on the same side.  Each checkout runs its own benchmark code from its
own directory.  The end-to-end metrics and their directions are read from
the change's BENCHMARK.json, and so is the run length unless --seconds is
given.

The output records which code was timed: `git rev-parse HEAD` in each
checkout, or, where that fails (a `git archive` copy, say), the id given
by --parent-commit / --change-commit.  The script stops before timing
anything if a side has neither.

The output holds, per workload and metric, every pair's values, each
side's median and quartiles (statistics.quantiles, n=4, inclusive), the
number of pairs the change wins (ties count for neither side) and the
parent's IQR over its median.  A run that fails or reports wrong output
stops the script.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    """'401-410' or '401,405,407' to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git_head(checkout):
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run_once(checkout, workload, seed, seconds):
    """One untraced run in `checkout`; its result line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} "
                         f"exited {r.returncode}: {r.stderr.strip()}")
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def compare(parent, change, better):
    """Per-metric figures of one workload's pairs."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "ties": ties,
        "median_ratio_change_over_parent": round(
            c["median"] / p["median"], 4),
        "parent_iqr": round(p["q3"] - p["q1"], 4),
        "parent_iqr_over_median": round(
            (p["q3"] - p["q1"]) / p["median"], 4),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent-commit", default=None,
                    help="commit of --parent when it is not a git checkout")
    ap.add_argument("--change-commit", default=None,
                    help="commit of --change when it is not a git checkout")
    ns = ap.parse_args(argv)
    commits = {}
    for side, given in (("parent", ns.parent_commit),
                        ("change", ns.change_commit)):
        commits[side] = git_head(getattr(ns, side)) or given
        if commits[side] is None:
            raise SystemExit(f"bench_pairs: no commit for --{side}; it is "
                             f"not a git checkout, so pass --{side}-commit")
    spec = json.loads((ns.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = ns.seconds or spec["run_seconds"]
    sides = {"parent": ns.parent, "change": ns.change}

    runs = {w: {"parent": [], "change": []} for w in ns.workload}
    for k, seed in enumerate(ns.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in ns.workload:
            for side in order:
                res = run_once(sides[side], w, seed, seconds)
                runs[w][side].append(res)
                print(f"seed {seed} {w} {side}: "
                      f"{json.dumps(res['metrics'])}", flush=True)
                if not res["correct"]:
                    raise SystemExit(f"bench_pairs: wrong output from "
                                     f"{side} on {w}, seed {seed}")

    out = {
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0"),
        "method": (f"{len(ns.seeds)} alternating pairs per workload (odd "
                   "pairs: parent first; even pairs: change first); "
                   "quartiles by statistics.quantiles(n=4, "
                   "method='inclusive'); ties count as no win"),
        "end_to_end": {},
    }
    for w, by_side in runs.items():
        entry = {"pairs": len(ns.seeds), "seeds": ns.seeds}
        for side, results in by_side.items():
            entry[f"{side}_correct"] = all(r["correct"] for r in results)
            entry[f"{side}_failed"] = sum(r["failed"] for r in results)
            entry[f"{side}_attempted"] = sum(r["attempted"]
                                             for r in results)
        for name, better in metrics.items():
            entry[name] = compare(
                [r["metrics"][name]["value"] for r in by_side["parent"]],
                [r["metrics"][name]["value"] for r in by_side["change"]],
                better)
        out["end_to_end"][w] = entry
    ns.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
