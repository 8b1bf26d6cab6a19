"""Known-answer benchmark for trusskit.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; trusskit is imported from its `src/`.
Each workload is a fixed, seeded list of cases, each one call into a public
trusskit function or `trusskit.cli.main(argv)`, checked against an answer
the benchmark computes itself (see oracles.py) under a 1 s limit.

With --trace 0 the cases run in passes, unmodified, until --seconds is
spent, and the last stdout line is the JSON result with the end-to-end
metrics.  With --trace 1 one untraced pass is followed by one traced pass
(see layers.py) and the result holds the per-layer metrics.  `--workload
all` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases_cli
import cases_extensions
import cases_searches
import cases_tables
import harness
import layers

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = {
    "tables": cases_tables.build,
    "extensions": cases_extensions.build,
    "searches": cases_searches.build,
    "cli": cases_cli.build,
}
SETUP_INTERVAL_S = 1.0  # set up again this often during a run, for setup_s
TRACED_LIMIT_S = 30.0   # a traced case may run slower than the 1 s limit


class Trusskit:
    """The freshly imported trusskit modules, by short name."""

    def __init__(self):
        self.package = importlib.import_module("trusskit")
        for name in layers.LAYERS:
            setattr(self, name, importlib.import_module(f"trusskit.{name}"))


def import_trusskit():
    """Import trusskit from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "trusskit"]:
        del sys.modules[name]
    tk = Trusskit()
    origin = Path(tk.package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"trusskit was imported from {origin}, not from {SRC}")
    return tk


def setup(workload, seed):
    """(trusskit, cases, seconds): import trusskit and build the cases."""
    t0 = time.perf_counter()
    tk = import_trusskit()
    cases = WORKLOADS[workload](tk, seed)
    return tk, cases, time.perf_counter() - t0


class SetupSampler:
    """Times the set-up again, between cases, once per SETUP_INTERVAL_S.

    The host's speed drifts within seconds, so set-up times taken back to
    back share one drift; samples spread over the run give a median that
    repeats between runs.  Each sample's modules and cases are dropped, and
    the modules the cases run on go back into sys.modules.
    """

    def __init__(self, workload, seed, first):
        self.workload, self.seed = workload, seed
        self.times = [first]
        self.last = time.perf_counter()

    def __call__(self):
        if time.perf_counter() - self.last >= SETUP_INTERVAL_S:
            running = {name: m for name, m in sys.modules.items()
                       if name.partition(".")[0] == "trusskit"}
            self.times.append(setup(self.workload, self.seed)[2])
            sys.modules.update(running)
            gc.collect()
            self.last = time.perf_counter()

    def median(self):
        return statistics.median(self.times)


def run_untraced(cases, seconds, between_cases):
    """Whole passes until the next one would overrun ``seconds``.  A case
    that hit the limit keeps its timeout and charge in later passes without
    being called again: another call would only spend the limit again."""
    start = time.perf_counter()
    passes, skip = [], {}
    while True:
        t0 = time.perf_counter()
        passes.append(harness.run_pass(cases, skip=skip, before=between_cases))
        now = time.perf_counter()
        timed_out = {i: o for i, o in enumerate(passes[-1].outcomes) if o == harness.TIMEOUT}
        next_pass = (now - t0) - harness.LIMIT_S * (len(timed_out) - len(skip))
        skip = timed_out
        if now + next_pass > start + seconds:
            return passes


def run_traced(tk, cases):
    """One untraced pass, then one traced pass over the cases that did not
    hit the limit (their partial work would make the counts depend on
    timing); those keep their untraced outcome and charge."""
    untraced = harness.run_pass(cases)
    skip = {i: o for i, o in enumerate(untraced.outcomes) if o == harness.TIMEOUT}
    tracer = layers.Tracer(tk)
    tracer.install()
    try:
        traced = harness.run_pass(cases, limit=TRACED_LIMIT_S, skip=skip,
                                  before=tracer.mark, after=tracer.settle)
    finally:
        tracer.uninstall()
    overhead = traced.verdict_s / untraced.verdict_s
    return [untraced, traced], tracer.metrics(overhead)


def run_workload(workload, seed, seconds, trace):
    harness.install_alarm()
    tk, cases, first_setup_s = setup(workload, seed)
    if trace:
        passes, metrics = run_traced(tk, cases)
    else:
        sampler = SetupSampler(workload, seed, first_setup_s)
        passes = run_untraced(cases, seconds, sampler)
    summary = harness.summarize(cases, passes)
    if not trace:
        attempted = summary["attempted"]
        metrics = {
            "verdict_s": {"value": summary["verdict_s"], "unit": "s"},
            "decided_share": {"value": summary["decided"] / attempted, "unit": "ratio"},
            "nonfailed_share": {"value": 1 - summary["failed"] / attempted, "unit": "ratio"},
            "setup_s": {"value": sampler.median(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"workload": workload, "passes": len(passes),
                      "case_seconds": summary["case_seconds"], "cases": summary["cases"]}))
    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": summary["wrong"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def run_all(args):
    """Each workload in its own process; prints each result, then a merged one."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        print("\n".join(lines[1:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "trusskit").is_dir():
        print(f"error: no trusskit sources at {SRC / 'trusskit'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
