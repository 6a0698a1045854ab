"""The four workloads: inputs made from a seed, one call at a time.

Each workload's :func:`prepare` does the set up a CLI invocation does
before its first timed call (model/GPU/plan resolution, workload array
generation, simulator construction) and returns a :class:`Prepared`
whose ``run`` performs the workload's fixed work and returns its output
document.  ``scale`` shrinks the work for the benchmark's own tests;
the benchmark itself always runs at ``scale=1``.

The simulator's memo caches are emptied before every repetition by
:func:`empty_caches`, and every repetition builds fresh simulators, so
per-``StepCostModel`` tables start empty too: every CLI invocation
pays to fill them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Workload names, in report order.
NAMES = ("kernel-sweep", "serve-saturated", "cluster-decode",
         "fleet-bursty")

#: Kernel-sweep grid: every paper model x plan x GPU preset x shape.
SWEEP_SEQ_LENS = (256, 512, 2048, 8192, 32768)
SWEEP_BATCHES = (1, 4, 16)
SWEEP_GPUS = ("A100", "RTX 3090", "T4", "V100", "H100")


def import_program() -> None:
    """Import every simulator module the workloads call."""
    import repro.cluster  # noqa: F401
    import repro.controlplane  # noqa: F401
    import repro.gpu.simcache  # noqa: F401
    import repro.models  # noqa: F401
    import repro.serving  # noqa: F401


def empty_caches() -> None:
    """Drop every process-wide memo table and its hit/miss counters."""
    from repro.gpu import simcache

    simcache.invalidate()


@dataclass
class Prepared:
    """One repetition's inputs, ready for its timed call."""

    #: The generated inputs (sweep points in call order, or request
    #: arrays); the seed must change them.
    inputs: object
    #: Operations the run attempts: sweep points or simulated requests.
    ops: int
    #: Performs the fixed work; returns the output document.
    run: Callable[[], object]
    #: Per-layer counts read off the program's own report after a run.
    extras: "dict[str, int]" = field(default_factory=dict)


# -- kernel-sweep -----------------------------------------------------------


def point_key(model: str, plan: str, gpu: str, seq_len: int,
              batch: int) -> str:
    """Reference key of one sweep point."""
    return f"{model}/{plan}/{gpu}/L{seq_len}/B{batch}"


def _prepare_kernel_sweep(seed: int, scale: float) -> Prepared:
    import numpy as np
    from repro.common.errors import ReproError
    from repro.core.plan import AttentionPlan
    from repro.gpu.specs import get_gpu
    from repro.models import InferenceSession, all_models

    plans = tuple(AttentionPlan)
    gpus = [get_gpu(name) for name in SWEEP_GPUS]
    grid = [(model, plan, gpu, seq_len, batch)
            for model in all_models() for plan in plans for gpu in gpus
            for seq_len in SWEEP_SEQ_LENS for batch in SWEEP_BATCHES]
    # The seed orders the points; the set of points is fixed, so every
    # seed prices the same work and one reference covers all seeds.
    order = np.random.default_rng((seed, 0x5EE9)).permutation(len(grid))
    points = [grid[i] for i in order[:max(1, round(len(grid) * scale))]]
    baseline = AttentionPlan.BASELINE

    def run() -> "dict[str, object]":
        results: "dict[str, object]" = {}
        for model, plan, gpu, seq_len, batch in points:
            key = point_key(model.name, plan.value, gpu.name, seq_len,
                            batch)
            try:
                result = InferenceSession(model, gpu=gpu, plan=plan,
                                          seq_len=seq_len,
                                          batch=batch).simulate()
                # The paper's figures are speedups over the baseline
                # plan, so each point also asks for the baseline run —
                # a memo hit after its first request.
                base = InferenceSession(model, gpu=gpu, plan=baseline,
                                        seq_len=seq_len,
                                        batch=batch).simulate()
            except ReproError as error:
                results[key] = type(error).__name__
                continue
            results[key] = [result.total_time,
                            base.total_time / result.total_time]
        return results

    return Prepared(
        inputs=[point_key(m.name, p.value, g.name, s, b)
                for m, p, g, s, b in points],
        ops=len(points), run=run)


# -- simulation workloads ---------------------------------------------------


def _prepare_serve_saturated(seed: int, scale: float) -> Prepared:
    from repro.core.plansource import PlanSource
    from repro.serving.requests import ServingWorkload
    from repro.serving.simulator import ServingSimulator

    workload = ServingWorkload(rate=8.0, duration=1200.0 * scale, seed=seed)
    arrays = workload.request_arrays()
    sim = ServingSimulator("bert-large", "A100", plan=PlanSource.of("sdf"),
                           workload=workload)
    return Prepared(inputs=arrays, ops=len(arrays),
                    run=lambda: sim.run().to_dict())


def _prepare_cluster_decode(seed: int, scale: float) -> Prepared:
    from repro.cluster.router import ClusterSimulator
    from repro.core.plansource import PlanSource
    from repro.serving.requests import ServingWorkload

    workload = ServingWorkload(rate=1.6, duration=5000.0 * scale, seed=seed,
                               max_prompt=512, mean_output=768)
    arrays = workload.request_arrays()
    sim = ClusterSimulator("gpt-neo-1.3b", "A100",
                           plan=PlanSource.of("sdf"), workload=workload,
                           replicas=4, policy="round-robin", jobs=1)
    return Prepared(inputs=arrays, ops=len(arrays),
                    run=lambda: sim.run().to_dict())


def _prepare_fleet_bursty(seed: int, scale: float) -> Prepared:
    from repro.controlplane import AutoscalerConfig, FailureSchedule
    from repro.controlplane.controller import ControlPlaneSimulator
    from repro.core.plansource import PlanSource
    from repro.serving.arrivals import MMPPArrivals
    from repro.serving.requests import ServingWorkload

    duration = 600.0 * scale
    # Short dwells (mean 5 s at 4 req/s, 1.25 s at 16 req/s) give ~100
    # bursts per run, so the amount of work varies little from seed to
    # seed; the CLI's 20 s/5 s default gives ~24 and +-15% work.
    arrival = MMPPArrivals(rate=4.0, burst_rate=16.0, base_dwell=5.0,
                           burst_dwell=1.25)
    workload = ServingWorkload(rate=4.0, duration=duration, seed=seed,
                               arrival=arrival)
    arrays = workload.request_arrays()
    sim = ControlPlaneSimulator(
        "bert-large", "A100", workload=workload, plan=PlanSource.of("sdf"),
        replicas=2, policy="least-outstanding",
        autoscaler=AutoscalerConfig(max_replicas=6),
        faults=FailureSchedule(deaths=(duration / 3,)),
    )
    extras: "dict[str, int]" = {}

    def run() -> "dict[str, object]":
        report = sim.run()
        extras["controlplane.cold_starts"] = report.cold_starts
        return report.to_dict()

    return Prepared(inputs=arrays, ops=len(arrays), run=run, extras=extras)


_PREPARE = {
    "kernel-sweep": _prepare_kernel_sweep,
    "serve-saturated": _prepare_serve_saturated,
    "cluster-decode": _prepare_cluster_decode,
    "fleet-bursty": _prepare_fleet_bursty,
}


def prepare(name: str, seed: int, scale: float = 1.0) -> Prepared:
    """Set up one repetition of workload ``name`` from ``seed``."""
    return _PREPARE[name](seed, scale)
