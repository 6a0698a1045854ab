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

Every simulator also shares its intake from here: the constructors'
:class:`SimulatorIntake` and the ``simulate_*`` functions' per-plan
loop, :func:`simulate_plans`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.cluster.metrics import ClusterPlanReport, ClusterReport
from repro.cluster.policies import RouterPolicy, make_policy
from repro.cluster.replica import Replica, ReplicaConfig
from repro.serving.engine import ENGINE_MODES
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


def drive_one(replica, stream, *, max_steps: int, start: int = 0,
              stride: int = 1) -> None:
    """Drive a fleet of one: every ``stride``-th request of ``stream``
    from ``start`` goes to ``replica`` (serve-sim, each shard of a
    sharded cluster run)."""
    drive([replica], fresh_requests(stream, start=start, stride=stride),
          lambda request: replica, max_steps=max_steps)


def _device(model: "ModelConfig | str",
            gpu: "GPUSpec | str") -> "tuple[ModelConfig, GPUSpec]":
    return (get_model(model) if isinstance(model, str) else model,
            get_gpu(gpu) if isinstance(gpu, str) else gpu)


class SimulatorIntake:
    """What every serving simulator does before it runs.

    Coerces the model and GPU, resolves the plan exactly once from any
    spelling (among the plans serving supports), takes the stream
    (``requests`` or a ``workload``, exactly one), and checks the
    replica keywords by building the :class:`~repro.cluster.replica
    .ReplicaConfig` every replica of the run shares.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "PlanSource | AttentionPlan | str",
        requests: "list[Request] | None" = None,
        workload: "ServingWorkload | None" = None,
        max_steps: int = 2_000_000,
        **replica_kwargs,
    ) -> None:
        from repro.serving.costmodel import SUPPORTED_PLANS

        self.config = ReplicaConfig(**replica_kwargs)
        self.model, self.gpu = _device(model, gpu)
        self.plan = resolve_plan(plan, model=self.model, gpu=self.gpu,
                                 t=self.config.t,
                                 candidates=SUPPORTED_PLANS)
        self.max_steps = max_steps
        self._stream = request_stream(requests, workload)

    @property
    def num_requests(self) -> int:
        """Size of the stream ``run`` will replay."""
        return len(self._stream)

    def new_replica(self, replica_id: int, *, cls=Replica, **kwargs):
        """A fresh ``cls`` replica of this run's model, GPU, plan and
        config; ``kwargs`` are its run-specific keywords (``tracer``,
        ``retain_requests``, ...)."""
        return cls(replica_id, self.model, self.gpu, plan=self.plan,
                   **kwargs, **vars(self.config))


def simulate_plans(
    simulator,
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    *,
    plans,
    rate: float,
    duration: float,
    seed: int,
    requests: "list[Request] | None",
    arrival,
    prefix_groups: int,
    **kwargs,
) -> "dict[str, object]":
    """Run one stream under every plan: the body of each ``simulate_*``.

    The synthetic stream is sampled once into shared arrays, or
    ``requests`` is replayed; each plan gets a fresh ``simulator(model,
    gpu, plan=..., <stream>, **kwargs)``.  Returns the report fields
    every entry point shares, with the stream's echo: ``rate``,
    ``duration``, ``seed`` and ``arrival`` (``None`` for the default
    Poisson stream), or for a replay ``arrival={"kind": "trace"}`` and
    no synthetic rate, duration or seed.
    """
    model, gpu = _device(model, gpu)
    if requests is None:
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            block_tokens=ReplicaConfig.among(kwargs).block_tokens,
            prefix_groups=prefix_groups, arrival=arrival,
        )
        stream = {"workload": workload}
        num_requests = len(workload.request_arrays())
        echo = {"rate": rate, "duration": duration, "seed": seed,
                "arrival": (arrival.describe() if arrival is not None
                            else None)}
    else:
        stream = {"requests": requests}
        num_requests = len(requests)
        echo = {"rate": None, "duration": None, "seed": None,
                "arrival": {"kind": "trace"}}
    reports = {}
    for plan in plans:
        sim = simulator(model, gpu, plan=PlanSource.of(plan), **stream,
                        **kwargs)
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return dict(model=model.name, gpu=gpu.name, num_requests=num_requests,
                plans=reports,
                trace_summary=tracer.summary() if tracer.enabled else None,
                **echo)


class ClusterSimulator(SimulatorIntake):
    """Replay one request stream through a replicated, sharded cluster.

    ``run`` operates on private copies of the requests, so one stream
    can be replayed under several plans and policies.  Pass a
    :class:`~repro.serving.requests.ServingWorkload` instead of a
    request list to keep the stream in numpy arrays until each request
    arrives; with ``jobs > 1`` (round-robin only) replicas simulate in
    parallel worker processes.  Other keywords are
    :class:`~repro.cluster.replica.ReplicaConfig`'s (``tp``, ``pp``,
    ``chunk_tokens``, ``engine``, ...) or ``max_steps``.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "PlanSource | AttentionPlan | str" = AttentionPlan.BASELINE,
        replicas: int = 2,
        policy: "str | RouterPolicy" = "round-robin",
        latency_cutover: int = EXACT_PERCENTILE_CUTOVER,
        jobs: int = 1,
        **kwargs,
    ) -> None:
        if replicas < 1:
            raise ServingError(f"need at least one replica, got {replicas}")
        if jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {jobs}")
        super().__init__(model, gpu, plan=plan, **kwargs)
        self.policy_name = (policy.name if isinstance(policy, RouterPolicy)
                            else policy)
        self._policy_arg = policy
        self.latency_cutover = latency_cutover
        self.jobs = jobs
        if jobs > 1 and self.policy_name != "round-robin":
            raise ServingError(
                f"policy {self.policy_name!r} reads cross-replica state at "
                f"every arrival and cannot run sharded; use jobs=1"
            )
        self.num_replicas = replicas

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
                replica_kwargs=dict(vars(self.config),
                                    retain_requests=retain),
                num_replicas=self.num_replicas, max_steps=self.max_steps,
                jobs=self.jobs, stream=self._stream,
            )
            return ClusterPlanReport.from_outcomes(
                self.plan.value, self.policy_name, outcomes)

        trace_start = tracer.event_count
        router_lane = (tracer.track(f"{self.plan.value}:router")
                       if tracer.enabled else (0, 0))
        policy = make_policy(self._policy_arg)
        replicas = [self.new_replica(i, tracer=tracer,
                                     retain_requests=retain)
                    for i in range(self.num_replicas)]

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
    policy: str = "round-robin",
    requests: "list[Request] | None" = None,
    prefix_groups: int = 0,
    arrival=None,
    **kwargs,
) -> ClusterReport:
    """Run one workload through the cluster under several plans.

    Each plan replays the *same* request stream with a fresh policy
    instance and fresh replicas, so plan comparisons differ only in
    the attention plan.  Extra keyword arguments reach
    :class:`ClusterSimulator` (``tp``, ``chunk_tokens``, ``engine``,
    ``jobs``, ...); the stream is built once by :func:`simulate_plans`
    (``requests`` replays a trace; ``arrival`` replaces the stationary
    Poisson stream and is echoed into the report).
    """
    config = ReplicaConfig.among(kwargs)
    return ClusterReport(
        replicas=replicas, tp=config.tp, pp=config.pp,
        policy=policy if isinstance(policy, str) else policy.name,
        algorithm=config.algorithm, interconnect=config.interconnect.name,
        **simulate_plans(
            ClusterSimulator, model, gpu, plans=plans, rate=rate,
            duration=duration, seed=seed, requests=requests,
            arrival=arrival, prefix_groups=prefix_groups,
            replicas=replicas, policy=policy, **kwargs),
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
