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
it through the shared :func:`~repro.cluster.router.drive` loop.
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

from repro.cluster.replica import Replica
from repro.cluster.router import drive
from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.serving.engine import DEFAULT_MAX_EPOCH, ENGINE_MODES
from repro.serving.metrics import (
    EXACT_PERCENTILE_CUTOVER,
    PlanReport,
    ServingReport,
)
from repro.serving.requests import (
    Request,
    ServingWorkload,
    fresh_requests,
    request_stream,
)


class ServingSimulator:
    """Replay a request stream through a simulated serving engine.

    ``run`` operates on private copies of the requests, so one stream
    can be replayed under several plans for an apples-to-apples
    comparison.  Pass a :class:`~repro.serving.requests.ServingWorkload`
    instead of a request list and the stream stays in numpy arrays
    until each request actually arrives — at fleet scale nothing
    allocates a million dataclasses up front.

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
        plan: "PlanSource | AttentionPlan | str | None" = None,
        requests: "list[Request] | None" = None,
        workload: "ServingWorkload | None" = None,
        dtype: DType = DType.FP16,
        chunk_tokens: int = 512,
        max_batch: int = 32,
        block_tokens: int = 64,
        reserve_fraction: float = 0.1,
        t: int = 64,
        max_steps: int = 2_000_000,
        engine: str = "epoch",
        max_epoch: int = DEFAULT_MAX_EPOCH,
        latency_cutover: int = EXACT_PERCENTILE_CUTOVER,
        draft_model: "ModelConfig | str | None" = None,
        draft_len: int = 4,
        accept_rate: float = 1.0,
    ) -> None:
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        # Resolved exactly once, here, from any plan spelling.
        from repro.serving.costmodel import SUPPORTED_PLANS

        self.plan = resolve_plan(
            AttentionPlan.BASELINE if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
            candidates=SUPPORTED_PLANS,
        )
        self.max_steps = max_steps
        self.engine = engine
        self.latency_cutover = latency_cutover
        self._stream = request_stream(requests, workload)
        self._replica_kwargs = dict(
            dtype=dtype, chunk_tokens=chunk_tokens, max_batch=max_batch,
            block_tokens=block_tokens, reserve_fraction=reserve_fraction,
            t=t, max_epoch=max_epoch, draft_model=draft_model,
            draft_len=draft_len, accept_rate=accept_rate,
        )

    @property
    def num_requests(self) -> int:
        """Size of the stream ``run`` will replay."""
        return len(self._stream)

    def run(self) -> PlanReport:
        """Simulate the stream to completion and aggregate metrics."""
        tracer = current_tracer()
        trace_start = tracer.event_count
        # Below the cutover (or whenever tracing needs per-request
        # spans) requests are retained and the report is exact; above
        # it, finished requests are dropped and the engine's streaming
        # accumulators carry the metrics in O(1) memory.
        retain = tracer.enabled or self.num_requests <= self.latency_cutover
        replica = Replica(0, self.model, self.gpu, plan=self.plan,
                          tracer=tracer, engine=self.engine,
                          retain_requests=retain, **self._replica_kwargs)
        drive([replica], fresh_requests(self._stream),
              lambda request: replica, max_steps=self.max_steps)

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
    ceremony.  Pass ``requests`` to replay a trace instead of the
    synthetic workload; otherwise the synthetic stream is sampled once
    into shared arrays and every plan replays the same values.  An
    ``arrival`` process (:mod:`repro.serving.arrivals`) replaces the
    stationary Poisson stream and is echoed into the report.
    """
    model = get_model(model) if isinstance(model, str) else model
    gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
    workload = None
    if requests is None:
        block_tokens = kwargs.get("block_tokens", 64)
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            block_tokens=block_tokens, arrival=arrival,
        )
    reports = {}
    # Counted up front from the stream itself, not inside the plan
    # loop: a trace-driven run (or an empty ``plans`` tuple) must still
    # report how many requests were actually loaded.
    if requests is not None:
        num_requests = len(requests)
    else:
        num_requests = len(workload.request_arrays())
    for plan in plans:
        sim = ServingSimulator(model, gpu, plan=PlanSource.of(plan),
                               requests=requests, workload=workload,
                               **kwargs)
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ServingReport(
        model=model.name,
        gpu=gpu.name,
        rate=rate,
        duration=duration,
        seed=seed,
        num_requests=num_requests,
        plans=reports,
        trace_summary=tracer.summary() if tracer.enabled else None,
        arrival=arrival.describe() if arrival is not None else None,
    )
