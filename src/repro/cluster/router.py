"""The drive loop, and the cluster simulator built on it.

Every simulator in the stack — serve-sim, the cluster router, each
shard of a sharded cluster run, and the control plane — replays a
request stream through a fleet of replica engines with one loop,
:func:`drive`.  Global ordering is the only subtlety: a routing policy
(or a controller) must see each replica's state *as of the event's
time*, so the loop interleaves two kinds of work in time order —

- **event** — the next arrival, or the caller's next timed event, is
  processed once no working replica's clock is earlier than its time
  (every replica's visible state is final as of that instant);
- **replica advance** — otherwise the working replica with the
  earliest clock advances, because no earlier event can change what
  it would do.  An advance covers one classic step or one
  epoch-batched stretch of pure-decode steps, bounded so no step
  *starts* at or after the next event — exactly the steps the
  one-step-at-a-time loop would have run before processing it.

Ties break toward events (timed events before arrivals), then toward
the lowest replica id, so a fixed (stream, policy) pair always yields
a byte-identical report.  Working replicas sit in a heap keyed on
``(clock, replica id)``, so choosing the next advance never rescans
the fleet.

Under round-robin routing with ``jobs > 1`` the cluster decomposes:
the stream shards per replica and each shard runs the same loop over a
fleet of one in its own worker process (:mod:`repro.cluster.sharded`),
producing the same report.  Above the exact-percentile cutover the
replicas stream their aggregates instead of retaining per-request
state, so a million-request cluster run holds O(batch) requests per
replica and O(1) memory per metric.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.interconnect import InterconnectSpec, NVLINK3
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.cluster.metrics import ClusterPlanReport, ClusterReport
from repro.cluster.policies import RouterPolicy, make_policy
from repro.cluster.replica import Replica
from repro.serving.engine import DEFAULT_MAX_EPOCH, ENGINE_MODES
from repro.serving.metrics import EXACT_PERCENTILE_CUTOVER
from repro.serving.requests import (
    Request,
    ServingWorkload,
    fresh_requests,
    request_stream,
)


def drive(fleet, source, route, *, max_steps: int, timed=None) -> None:
    """Run ``source``'s arrivals through ``fleet`` until it drains.

    ``fleet`` is the list of replicas that can hold work.  ``source``
    yields requests in arrival order; ``route(request)`` returns the
    replica the request joins — the loop submits it there at its
    arrival time — or ``None`` when the caller disposed of it some
    other way (shed, parked).  ``timed``, when given, carries the
    caller's own events: ``next_time()`` is the next one's time (or
    ``None``), ``fire()`` processes it and may mutate ``fleet`` or
    submit work, and ``settled`` is true once no event is still owed,
    so the loop may stop when arrivals and replica work run out.

    Every replica may take at most ``max_steps`` engine steps; a
    replica past that budget, or one that cannot step while holding
    work, raises :class:`~repro.common.errors.ServingError`.
    """
    def working_set():
        heap = [(r.clock, r.replica_id, r) for r in fleet if r.has_work]
        heapify(heap)
        return heap

    working = working_set()
    pending = next(source, None)
    while True:
        horizon = pending.arrival_time if pending is not None else None
        fire = False
        if timed is not None:
            event = timed.next_time()
            if event is not None and (horizon is None or event <= horizon):
                horizon, fire = event, True
        if working and (horizon is None or horizon > working[0][0]):
            replica = working[0][2]
            if replica.advance(limit_time=horizon) == 0:
                raise ServingError(
                    f"replica {replica.replica_id} stalled with work "
                    f"outstanding"
                )
            if replica.steps > max_steps:
                raise ServingError(
                    f"replica {replica.replica_id} exceeded {max_steps} "
                    f"steps (clock {replica.clock:.1f}s); lower the rate "
                    f"or duration"
                )
            if replica.has_work:
                heapreplace(working,
                            (replica.clock, replica.replica_id, replica))
            else:
                heappop(working)
            continue
        if horizon is None or (pending is None and not working
                               and timed.settled):
            break
        if fire:
            timed.fire()
            working = working_set()
            continue
        replica = route(pending)
        if replica is not None:
            idle = not replica.has_work
            replica.submit(pending, pending.arrival_time)
            if idle and replica.has_work:
                heappush(working,
                         (replica.clock, replica.replica_id, replica))
        pending = next(source, None)


class ClusterSimulator:
    """Replay one request stream through a replicated, sharded cluster.

    ``run`` operates on private copies of the requests, so one stream
    can be replayed under several plans and policies.  Pass a
    :class:`~repro.serving.requests.ServingWorkload` instead of a
    request list to keep the stream in numpy arrays until each request
    arrives; with ``jobs > 1`` (round-robin only) replicas simulate in
    parallel worker processes.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "PlanSource | AttentionPlan | str | None" = None,
        requests: "list[Request] | None" = None,
        workload: "ServingWorkload | None" = None,
        replicas: int = 2,
        tp: int = 1,
        pp: int = 1,
        ep: int = 1,
        policy: "str | RouterPolicy" = "round-robin",
        interconnect: InterconnectSpec = NVLINK3,
        algorithm: str = "ring",
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
        jobs: int = 1,
        draft_model: "ModelConfig | str | None" = None,
        draft_len: int = 4,
        accept_rate: float = 1.0,
    ) -> None:
        if replicas < 1:
            raise ServingError(f"need at least one replica, got {replicas}")
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {jobs}")
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        from repro.serving.costmodel import SUPPORTED_PLANS

        self.plan = resolve_plan(
            AttentionPlan.BASELINE if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
            candidates=SUPPORTED_PLANS,
        )
        self.policy_name = (policy.name if isinstance(policy, RouterPolicy)
                            else policy)
        self._policy_arg = policy
        self.max_steps = max_steps
        self.engine = engine
        self.max_epoch = max_epoch
        self.latency_cutover = latency_cutover
        self.jobs = jobs
        if jobs > 1 and self.policy_name != "round-robin":
            raise ServingError(
                f"policy {self.policy_name!r} reads cross-replica state at "
                f"every arrival and cannot run sharded; use jobs=1"
            )
        self._stream = request_stream(requests, workload)
        self._replica_kwargs = dict(
            dtype=dtype, tp=tp, pp=pp, ep=ep,
            interconnect=interconnect, algorithm=algorithm,
            chunk_tokens=chunk_tokens, max_batch=max_batch,
            block_tokens=block_tokens, reserve_fraction=reserve_fraction,
            t=t, draft_model=draft_model, draft_len=draft_len,
            accept_rate=accept_rate,
        )
        self.num_replicas = replicas

    @property
    def num_requests(self) -> int:
        """Size of the stream ``run`` will replay."""
        return len(self._stream)

    def run(self) -> ClusterPlanReport:
        """Simulate the stream to completion and aggregate metrics."""
        tracer = current_tracer()
        retain = tracer.enabled or self.num_requests <= self.latency_cutover
        if self.jobs > 1:
            if tracer.enabled:
                raise ServingError(
                    "traced cluster runs interleave every replica's lanes "
                    "in one tracer and cannot run sharded; use jobs=1"
                )
            from repro.cluster.sharded import run_sharded

            outcomes = run_sharded(
                model=self.model, gpu=self.gpu, plan=self.plan,
                replica_kwargs=self._replica_kwargs,
                num_replicas=self.num_replicas,
                engine=self.engine, max_epoch=self.max_epoch,
                retain=retain, max_steps=self.max_steps, jobs=self.jobs,
                stream=self._stream,
            )
            return ClusterPlanReport.from_outcomes(
                self.plan.value, self.policy_name, outcomes)

        trace_start = tracer.event_count
        router_lane = (tracer.track(f"{self.plan.value}:router")
                       if tracer.enabled else (0, 0))
        policy = make_policy(self._policy_arg)
        replicas = [
            Replica(i, self.model, self.gpu, plan=self.plan, tracer=tracer,
                    engine=self.engine, max_epoch=self.max_epoch,
                    retain_requests=retain, **self._replica_kwargs)
            for i in range(self.num_replicas)
        ]

        def route(request: Request) -> Replica:
            index = policy.choose(request, replicas)
            if not 0 <= index < len(replicas):
                raise ServingError(
                    f"policy {self.policy_name!r} chose replica {index} "
                    f"of {len(replicas)}"
                )
            if tracer.enabled:
                tracer.instant(
                    "route", "routing", ts=request.arrival_time,
                    pid=router_lane[0], tid=router_lane[1],
                    args={"request_id": request.request_id,
                          "replica": index, "policy": self.policy_name},
                )
                tracer.metrics.counter(
                    f"{self.plan.value}:router.to_replica{index}").inc()
            return replicas[index]

        drive(replicas, fresh_requests(self._stream), route,
              max_steps=self.max_steps)

        trace_summary = None
        if tracer.enabled:
            makespan = max((r.clock for r in replicas), default=0.0)
            tracer.set_clock(makespan)
            emit_request_phase_spans(
                tracer,
                [r for replica in replicas for r in replica.requests],
                process=f"{self.plan.value}:requests",
            )
            trace_summary = tracer.summary(since=trace_start,
                                           include_metrics=False)
        return ClusterPlanReport.from_replicas(
            self.plan.value, self.policy_name, replicas,
            trace_summary=trace_summary)


def simulate_cluster(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    *,
    rate: float = 8.0,
    duration: float = 30.0,
    seed: int = 0,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("baseline",
                                                             "sdf"),
    replicas: int = 2,
    tp: int = 1,
    pp: int = 1,
    policy: str = "round-robin",
    algorithm: str = "ring",
    interconnect: InterconnectSpec = NVLINK3,
    requests: "list[Request] | None" = None,
    prefix_groups: int = 0,
    arrival=None,
    **engine_kwargs,
) -> ClusterReport:
    """Run one workload through the cluster under several plans.

    Each plan replays the *same* request stream with a fresh policy
    instance and fresh replicas, so plan comparisons differ only in
    the attention plan.  Extra keyword arguments reach
    :class:`ClusterSimulator` (``chunk_tokens``, ``max_batch``,
    ``engine``, ``jobs``, ...).  Without an explicit request list the
    synthetic stream is sampled once into shared arrays and every plan
    replays the same values; an ``arrival`` process
    (:mod:`repro.serving.arrivals`) replaces the stationary Poisson
    stream and is echoed into the report.
    """
    model = get_model(model) if isinstance(model, str) else model
    gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
    workload = None
    if requests is None:
        block_tokens = engine_kwargs.get("block_tokens", 64)
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            block_tokens=block_tokens, prefix_groups=prefix_groups,
            arrival=arrival,
        )
    reports = {}
    # Counted from the stream itself so trace-driven runs (and empty
    # ``plans`` tuples) report the actual loaded request count.
    if requests is not None:
        num_requests = len(requests)
    else:
        num_requests = len(workload.request_arrays())
    for plan in plans:
        sim = ClusterSimulator(
            model, gpu, plan=PlanSource.of(plan), requests=requests,
            workload=workload,
            replicas=replicas, tp=tp, pp=pp, policy=policy,
            interconnect=interconnect, algorithm=algorithm, **engine_kwargs,
        )
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ClusterReport(
        model=model.name,
        gpu=gpu.name,
        rate=rate,
        duration=duration,
        seed=seed,
        replicas=replicas,
        tp=tp,
        pp=pp,
        policy=policy if isinstance(policy, str) else policy.name,
        algorithm=algorithm,
        interconnect=interconnect.name,
        num_requests=num_requests,
        plans=reports,
        trace_summary=tracer.summary() if tracer.enabled else None,
        arrival=arrival.describe() if arrival is not None else None,
    )


def verification_oracles():
    """Fuzz oracle: a one-replica cluster is exactly serve-sim.

    serve-sim is the one-replica case of the drive loop, so for any
    seeded request stream and engine knobs its report JSON must equal
    the one replica's report JSON inside a ``replicas=1`` cluster run,
    serially (``jobs=1``) and through the sharded mode (``jobs=2``).
    ``actual`` holds 1.0 per matching run under the EXACT contract.
    Each case simulates three small runs, so the oracle takes a
    deterministic slice of the serving family's cases.
    """
    import json

    import numpy as np

    from repro.common.dtypes import DType as _DType
    from repro.verify.contracts import EXACT
    from repro.verify.registry import OracleSpec

    def run_single_replica(case):
        from repro.models.config import AttentionKind, AttentionSpec
        from repro.serving.costmodel import SUPPORTED_PLANS
        from repro.serving.simulator import ServingSimulator

        rng = np.random.default_rng((case.params["case_seed"], 0x51E9))
        model = ModelConfig(
            "tiny-causal", num_layers=2, d_model=128, num_heads=4,
            d_ff=256,
            attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
        )
        n = int(rng.integers(1, 13))
        # Gaps around a tiny-model step time, so requests overlap and
        # batching, chunking, and epochs all come into play.
        arrivals = np.cumsum(rng.exponential(
            float(rng.uniform(1e-5, 1e-3)), size=n))
        knobs = dict(
            plan=PlanSource.of(str(rng.choice(
                [p.value for p in SUPPORTED_PLANS]))),
            requests=[
                Request(request_id=i, arrival_time=float(arrivals[i]),
                        prompt_len=64 * int(rng.integers(1, 9)),
                        output_len=int(rng.integers(1, 48)))
                for i in range(n)
            ],
            chunk_tokens=64 * int(rng.integers(1, 5)),
            max_batch=int(rng.integers(1, 9)),
            engine=str(rng.choice(ENGINE_MODES)),
        )

        def doc(report):
            return json.dumps(report.to_dict(), sort_keys=True)

        single = doc(ServingSimulator(model, "t4", **knobs).run())
        same = [
            doc(ClusterSimulator(model, "t4", replicas=1, jobs=jobs,
                                 **knobs).run().per_replica[0].report)
            == single
            for jobs in (1, 2)
        ]
        return {"actual": np.asarray(same, dtype=np.float64),
                "expected": np.ones(len(same))}

    return [
        OracleSpec(
            name="serving.single_replica_equivalence",
            family="serving",
            run=run_single_replica,
            contracts={_DType.FP32: EXACT, _DType.FP16: EXACT},
            description=("a replicas=1 cluster run (jobs=1 and jobs=2) "
                         "reports exactly what serve-sim reports"),
            applies=lambda case: case.params["case_seed"] % 8 == 3,
        ),
    ]
