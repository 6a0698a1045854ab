#!/usr/bin/env python3
"""The simulator stack's benchmark: one command, four workloads.

Usage (from the root of a repository checkout)::

    python3 simbench/run.py --workload kernel-sweep --seed 0 \\
        --seconds 25 --trace 0

Each repetition sets up the workload from ``--seed`` (caches empty,
simulators freshly built), performs the workload's fixed work with one
call at a time, and checks the output (``check.py``).  Repetitions
continue while another fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

- ``setup_s``: the slowest set up of the run; each repetition's set up
  is a fresh interpreter's import of the simulator plus the workload's
  own set up (resolution, input generation, simulator construction);
- ``wall_s``: host seconds of the run's slowest repetition of the fixed
  work;
- ``peak_rss_mb``: peak resident memory of this process through its
  first repetition (imports, set up, one run of the fixed work).

Times are the slowest of the run, not the median, because the shared
hosts this runs on alternate between a steady slow state and a faster
but erratic one: the slowest repetition tracks the steady state and
repeats from run to run, where the median moves with the share of the
run each state happened to take.

``--trace 1`` runs one untraced repetition, then at least two traced
ones, and reports the per-layer split (``layers.py``) of the median
traced repetition, with the tracing overhead.  Counts of simulated
work must repeat exactly between traced repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outside a
checkout (no ``src/repro``) the command exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: What one operation is, per workload (the base of ops_failed_ratio).
OP_UNIT = {"kernel-sweep": "sweep points"}


def parse_args(argv):
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measurement budget, seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer split instead of end-to-end "
                             "metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def time_import_in_fresh_interpreter() -> float:
    """Seconds a new interpreter takes to import the simulator."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        "start = time.perf_counter()\n"
        "workloads.import_program()\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


class Repetition:
    """One set up + timed run of a workload, with its output check."""

    def __init__(self, name: str, seed: int, reference, first=None,
                 trace=None, scale: float = 1.0) -> None:
        import check
        import workloads

        workloads.empty_caches()
        start = time.perf_counter()
        prepared = workloads.prepare(name, seed, scale)
        ready = time.perf_counter()
        if trace is not None:
            trace.start()
        self.output = prepared.run()
        if trace is not None:
            trace.stop()
        done = time.perf_counter()
        self.setup_s = ready - start
        self.wall_s = done - ready
        self.ops = prepared.ops
        self.extras = prepared.extras
        self.failed, self.problems = check.failed_ops(
            name, self.output, prepared.ops, reference, first)
        self.elapsed_s = time.perf_counter() - start


def traced_repetition(name, seed, reference, first, scale=1.0):
    """A traced :class:`Repetition` and its per-layer metrics."""
    import layers
    from repro.gpu import simcache

    with layers.LayerTrace() as trace:
        rep = Repetition(name, seed, reference, first, trace, scale)
    metrics, problems = trace.split(rep.wall_s)
    caches = simcache.stats()
    for layer, cache in (("gpu", caches["kernel"]),
                         ("models", caches["simulate"])):
        metrics[f"{layer}.memo_hit_ratio"] = cache.hit_rate
        metrics[f"{layer}.memo_lookups"] = cache.lookups
    metrics["controlplane.cold_starts"] = rep.extras.get(
        "controlplane.cold_starts", 0)
    metrics["trace.wall_s"] = rep.wall_s
    rep.problems.extend(problems)
    return rep, metrics


def run_untraced(name, seed, seconds, reference, scale=1.0):
    """End-to-end metrics; returns ``(reps, metrics, problems)``."""
    import workloads

    workloads.import_program()
    budget_start = time.perf_counter()
    reps = []
    while True:
        step_start = time.perf_counter()
        import_s = time_import_in_fresh_interpreter()
        rep = Repetition(name, seed, reference,
                         reps[0].output if reps else None, scale=scale)
        rep.setup_s += import_s
        if not reps:
            # What one CLI invocation holds: later repetitions only add
            # heap fragmentation, which would tie the peak to the
            # repetition count.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                           .ru_maxrss / 1024)
        reps.append(rep)
        now = time.perf_counter()
        if now - budget_start + (now - step_start) > seconds:
            break
    metrics = {
        "setup_s": max(r.setup_s for r in reps),
        "wall_s": max(r.wall_s for r in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    return reps, metrics, []


def run_traced(name, seed, seconds, reference, scale=1.0):
    """Per-layer metrics; returns ``(reps, metrics, problems)``."""
    import layers
    import workloads

    workloads.import_program()
    budget_start = time.perf_counter()
    untraced = Repetition(name, seed, reference, scale=scale)
    reps = [untraced]
    traced = []
    while True:
        rep, metrics = traced_repetition(name, seed, reference,
                                         untraced.output, scale)
        reps.append(rep)
        traced.append(metrics)
        elapsed = time.perf_counter() - budget_start
        if len(traced) >= 2 and elapsed + rep.elapsed_s > seconds:
            break

    problems = []
    for metric in layers.DETERMINISTIC:
        values = {m[metric] for m in traced}
        if len(values) > 1:
            problems.append(f"{metric} differs between traced "
                            f"repetitions: {sorted(values)}")
    median_wall = statistics.median(m["trace.wall_s"] for m in traced)
    chosen = min(traced, key=lambda m: abs(m["trace.wall_s"] - median_wall))
    metrics = dict(chosen)
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_ratio"] = chosen["trace.wall_s"] / untraced.wall_s
    return reps, metrics, problems


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not (
            ROOT / "tools" / "compare_golden.py").is_file():
        print(f"simbench: no simulator sources under {ROOT}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import layers

    args = parse_args(argv)
    reference = check.load_reference(args.workload, args.seed)
    if args.trace:
        reps, metrics, problems = run_traced(
            args.workload, args.seed, args.seconds, reference)
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    else:
        reps, metrics, problems = run_untraced(
            args.workload, args.seed, args.seconds, reference)
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    for rep in reps:
        problems.extend(rep.problems)
    unit = OP_UNIT.get(args.workload, "simulated requests")
    print(f"simbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(reps)} repetitions of "
          f"{reps[0].ops} {unit}; caches start empty in each; reference: "
          f"{'committed' if reference is not None else 'none for this seed'}")
    for field in ("setup_s", "wall_s"):
        values = " ".join(f"{getattr(r, field):.3f}" for r in reps)
        print(f"  repetition {field}: {values}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6f} {units[name]}")
    print(f"  {'ops_failed_ratio':40s} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} {unit} failed)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
