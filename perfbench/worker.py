"""One run of one workload, in a fresh process started by run.py.

Set-up parses the workload's inputs.  Then whole rounds run for the
run's seconds: at least one, and another only while one as long as the
last still fits.  A round runs every operation of the workload once on
freshly declared inputs.  wall_s and cpu_s are the medians over the
run's rounds.  With --trace 1 the run is split in two halves, untraced
rounds then traced rounds, so the trace can report its own overhead; the
per-layer numbers are per traced round.

The outputs of the first round are checked; every later round must
reproduce them exactly, and is compared with the first as soon as it
ends, so that memory does not grow with the number of rounds.  The last line on stdout is one JSON object with
the result and the details that run.py stores next to it.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Round:
    """One round: its wall and CPU time, what its operations gave, and
    the trace's counts and times when traced.  Only the first round of a
    run keeps its outputs (`results`); a later one keeps whether it
    reproduced them (`repeats`)."""

    def __init__(self, batch, tracer=None, first=None):
        if tracer is not None:
            tracer.reset()
        wall, cpu = time.perf_counter(), cpu_seconds()
        results = workloads.run_round(batch)
        self.wall = time.perf_counter() - wall
        self.cpu = cpu_seconds() - cpu
        self.counts, self.times = (tracer.period() if tracer is not None
                                   else ({}, {}))
        self.attempted = len(results)
        self.errors = [res[0].label + ": " + res[3] for res in results
                       if res[3] is not None]
        self.fingerprint = workloads.fingerprint(results)
        if first is None:
            self.results = results
        else:
            self.repeats = self.fingerprint == first.fingerprint
            self.fingerprint = None


def run_rounds(batch, seconds, tracer=None, first=None):
    """At least one round, then more while another round as long as the
    last one still fits in `seconds`.  `first` is the run's first round,
    when an earlier call made it."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + rounds[-1].wall <= seconds):
        rounds.append(Round(batch, tracer, first))
        first = first or rounds[0]
    return rounds


def median_round(rounds, attr):
    """The median over the rounds of their wall or CPU time.  The rounds
    repeat the same work, so the median keeps a round that the machine's
    neighbours slowed from moving the figure."""
    return statistics.median(getattr(r, attr) for r in rounds)


def check(workload, batch, rounds):
    """None when every output is right, else the first fault found."""
    try:
        workloads.check_round(workload, rounds[0].results, batch)
    except workloads.CheckError as e:
        return str(e)
    for k, r in enumerate(rounds[1:], start=2):
        if not r.repeats:
            return f"round {k} gave other outputs than round 1"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was "
                         "started")
    ap.add_argument("--trace-file", default=None)
    ns = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tracer = None
    if ns.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    batch = workloads.make_batch(ns.workload, ns.seed)
    setup_s = time.monotonic() - ns.t0
    if tracer is not None:
        _, setup_times = tracer.period()
        tracer.uninstall()

    budget = ns.seconds / 2 if ns.trace else ns.seconds
    rounds = run_rounds(batch, budget)
    traced = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
        traced = run_rounds(batch, budget, tracer, rounds[0])
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_rounds = rounds + traced
    fault = check(ns.workload, batch, all_rounds)
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(len(r.errors) for r in all_rounds)
    errors = sorted({e for r in all_rounds for e in r.errors})

    if tracer is None:
        values = {
            "wall_s": median_round(rounds, "wall"),
            "cpu_s": median_round(rounds, "cpu"),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        counts, times = traced[0].counts, {}
        for key in traced[0].times:
            times[key] = statistics.median(r.times[key] for r in traced)
        # Rounds parse nothing; the session layer works in set-up.
        for key in ("session.parse_s", "session.self_s"):
            times[key] = setup_times[key]
        values = {**counts, **times}
        values["trace.overhead_ratio"] = (
            median_round(traced, "wall") / median_round(rounds, "wall"))
        wanted = spec["per_layer"]
        if ns.trace_file:
            tracer.dump(ns.trace_file)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]],
                              "unit": m["unit"]}
    result = {"correct": fault is None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "python": sys.version.split()[0],
        "ops_per_round": batch.nops,
        "round_walls": [r.wall for r in rounds],
        "round_cpus": [r.cpu for r in rounds],
        "traced_round_walls": [r.wall for r in traced],
        "fault": fault, "errors": errors,
    }
    if tracer is not None:
        detail["spans"] = tracer.nspans()
        detail["counts_repeat"] = all(r.counts == counts for r in traced)
    print(json.dumps({"result": result, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
