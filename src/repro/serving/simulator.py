"""Discrete-event serving simulator.

The simulator advances a clock one engine step at a time: the
scheduler builds a step (decode tokens + prefill chunks), the
:class:`~repro.serving.costmodel.StepCostModel` prices it from the
kernel-level GPU model, the clock jumps by that latency, and the
step's effects (tokens emitted, requests finished) land at the step's
completion time.  When no request is resident the clock fast-forwards
to the next arrival — idle time costs nothing to simulate.

A single-node run is the one-replica case of the cluster: the
simulator builds one :class:`~repro.cluster.replica.Replica` and runs
it through the shared :func:`~repro.cluster.router.drive` loop as a
fleet of one (:func:`~repro.cluster.router.drive_one`).
Stepping is delegated to :class:`~repro.serving.engine.EpochEngine`:
by default pure-decode stretches advance in vectorized epochs that are
bit-identical to the classic per-step loop, and ``engine="event"``
pins the run to the classic loop (the reference path the equivalence
tests diff against).  Above :data:`~repro.serving.metrics
.EXACT_PERCENTILE_CUTOVER` finished requests the simulator stops
retaining per-request state and reports stream through O(1)-memory
accumulators instead (``approx_percentiles`` in the output); below it
reports stay byte-identical to earlier releases.

Determinism: the only randomness is in the workload generator, which
is seeded; the event loop itself is pure, so a fixed (model, gpu,
plan, request stream) always yields a byte-identical report.
"""

from __future__ import annotations

from repro.cluster.router import SimulatorIntake, drive_one, simulate_plans
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.serving.metrics import (
    EXACT_PERCENTILE_CUTOVER,
    PlanReport,
    ServingReport,
)
from repro.serving.requests import Request

#: Replica keywords a single-GPU simulation rejects; the cluster
#: simulators take them.
ONE_GPU_ONLY = frozenset({"tp", "pp", "ep", "interconnect", "algorithm"})


class ServingSimulator(SimulatorIntake):
    """Replay a request stream through a simulated serving engine.

    ``run`` operates on private copies of the requests, so one stream
    can be replayed under several plans for an apples-to-apples
    comparison.  Pass a :class:`~repro.serving.requests.ServingWorkload`
    instead of a request list and the stream stays in numpy arrays
    until each request actually arrives — at fleet scale nothing
    allocates a million dataclasses up front.  Other keywords are
    :class:`~repro.cluster.replica.ReplicaConfig`'s (``chunk_tokens``,
    ``max_batch``, ``engine``, ...) or ``max_steps``, except the
    sharding ones (:data:`ONE_GPU_ONLY`): a serving simulation is one
    GPU, and its report has no field to say otherwise.

    >>> from repro.core.plansource import PlanSource
    >>> sim = ServingSimulator("bert-large", "a100",
    ...     plan=PlanSource.of("sdf"),
    ...     requests=[Request(request_id=0, arrival_time=0.0,
    ...                       prompt_len=512, output_len=4)])
    >>> report = sim.run()
    >>> report.finished
    1
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "PlanSource | AttentionPlan | str" = AttentionPlan.BASELINE,
        latency_cutover: int = EXACT_PERCENTILE_CUTOVER,
        **kwargs,
    ) -> None:
        sharding = sorted(ONE_GPU_ONLY & kwargs.keys())
        if sharding:
            raise TypeError(f"ServingSimulator runs one GPU; unexpected "
                            f"keyword(s) {', '.join(sharding)}")
        super().__init__(model, gpu, plan=plan, **kwargs)
        self.latency_cutover = latency_cutover

    def run(self) -> PlanReport:
        """Simulate the stream to completion and aggregate metrics."""
        tracer = current_tracer()
        trace_start = tracer.event_count
        # Below the cutover (or whenever tracing needs per-request
        # spans) requests are retained and the report is exact; above
        # it, finished requests are dropped and the engine's streaming
        # accumulators carry the metrics in O(1) memory.
        retain = tracer.enabled or self.num_requests <= self.latency_cutover
        replica = self.new_replica(0, tracer=tracer, retain_requests=retain)
        drive_one(replica, self._stream, max_steps=self.max_steps)

        trace_summary = None
        if tracer.enabled:
            tracer.set_clock(replica.clock)
            emit_request_phase_spans(
                tracer, replica.requests,
                process=f"{self.plan.value}:requests")
            trace_summary = tracer.summary(since=trace_start,
                                           include_metrics=False)
        return PlanReport.from_run(self.plan.value, replica,
                                   trace_summary=trace_summary)


def simulate_serving(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("baseline",
                                                             "sdf"),
    requests: "list[Request] | None" = None,
    arrival=None,
    **kwargs,
) -> ServingReport:
    """Run one workload under several plans and bundle the reports.

    Extra keyword arguments are forwarded to :class:`ServingSimulator`
    (``chunk_tokens``, ``max_batch``, ``block_tokens``, ``engine``,
    ...).  ``plans`` entries may be plan names, enums, ``"auto"``, a
    tuned-plan artifact path, or :class:`PlanSource` objects — this is
    the scenario-level API, so every spelling is accepted without
    ceremony.  The stream is built once by
    :func:`~repro.cluster.router.simulate_plans`: ``requests`` replays
    a trace (reported as ``arrival: {"kind": "trace"}``, without rate,
    duration or seed); otherwise the synthetic stream is sampled once
    and every plan replays the same values, and an ``arrival`` process
    (:mod:`repro.serving.arrivals`) replaces the stationary Poisson
    stream and is echoed into the report.
    """
    return ServingReport(**simulate_plans(
        ServingSimulator, model, gpu, plans=plans, rate=rate,
        duration=duration, seed=seed, requests=requests, arrival=arrival,
        prefix_groups=0, **kwargs))
