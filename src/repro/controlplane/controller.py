"""The control plane: gateway, autoscaler, and fault injector as hooks
on the cluster's drive loop.

:class:`ControlPlaneSimulator` runs the cluster's replica engines
through the same :func:`~repro.cluster.router.drive` loop as every
other simulator, with the frontier rule it implements (an event is
processed once no working replica's clock is earlier, otherwise the
earliest replica advances, bounded so no step starts past the event).
The control plane adds hooks to that loop:

- **arrival** — the gateway assigns the request's SLO tier, applies
  priority load shedding, and routes it through the configured policy
  over the currently routable replicas (or parks it while none is);
- **boot completion** — a cold-started replica joins the fleet and any
  requests parked while no replica was routable flush to it;
- **fault** — a scheduled replica death (resident requests re-queue
  with evict-and-recompute semantics and a replacement boots) or a
  straggler slowdown injected into a live replica's cost model;
- **controller tick** — the autoscaler reads its signals and may grow
  the fleet (paying the cold-start delay) or drain a replica.

The controller reads its signals from replica state, never from a
tracer: per-replica backlog is
:attr:`~repro.cluster.replica.Replica.outstanding_tokens`, the shed
count is the gateway's own, and windowed first-token attainment comes
from a log every replica's scheduler appends to the moment a request
emits its first token.  Tracing therefore only observes a run: an
untraced run builds no tracer and its replicas may take the epoch fast
path, and a traced run produces the same report apart from its trace
summary.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.common.validation import require_non_negative
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.interconnect import NVLINK3, InterconnectSpec
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.tracer import current_tracer
from repro.cluster.policies import RouterPolicy, make_policy
from repro.cluster.replica import Replica
from repro.cluster.router import drive
from repro.controlplane.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    cold_start_time,
)
from repro.controlplane.faults import FailureSchedule, SlowdownCost
from repro.controlplane.report import (
    ControlPlanePlanReport,
    ControlPlaneReport,
    FaultRecord,
    ScalingEvent,
    TierReport,
)
from repro.controlplane.slo import DEFAULT_TIERS, SLOTier, assign_tiers
from repro.serving.engine import ENGINE_MODES
from repro.serving.metrics import per_second, request_block
from repro.serving.requests import (
    Request,
    RequestStatus,
    ServingWorkload,
    fresh_requests,
    request_stream,
)

__all__ = ["ControlledReplica", "ControlPlaneSimulator",
           "simulate_controlplane"]

#: Victim-selection rng salt (consumed in fault-event order).
_VICTIM_SALT = 0xF1C7

#: Replica lifecycle states.
ACTIVE = "active"        #: routable and serving
DRAINING = "draining"    #: serving residents, no new routes
DEAD = "dead"            #: killed by fault injection
RETIRED = "retired"      #: drained and decommissioned


class _Admitted(NamedTuple):
    """Requests as the gateway admitted them, in stream order: a
    retained outcome for :func:`~repro.serving.metrics.request_block`
    (shed requests are neither finished nor rejected, so they count
    only as arrivals)."""

    requests: "list[Request]"


class ControlledReplica(Replica):
    """A cluster replica under control-plane management.

    Adds the lifecycle state machine, a creation clock (a booted
    replica starts at its ready time, not zero), straggler slowdown
    injection, and evacuation when fault injection kills it.
    """

    def __init__(self, *args, created_at: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.state = ACTIVE
        self.engine.clock = created_at

    def apply_slowdown(self, factor: float) -> None:
        """Inject a straggler: scale every future step cost.

        Stacks multiplicatively if injected twice; already-completed
        steps are untouched (the clock never rewrites history).
        """
        self.engine.set_cost(SlowdownCost(self.engine.cost, factor))

    def evacuate(self) -> "list":
        """Kill this replica; returns its resident requests, reset for
        re-queueing elsewhere.

        Resident means running or waiting: running requests lose their
        KV blocks and must recompute prompt plus generated tokens
        (exactly the scheduler's preemption semantics); waiting ones
        just re-queue.  Tokens already streamed stay streamed —
        ``first_token_time`` and ``generated`` survive.
        """
        residents = list(self.scheduler.running) + \
            list(self.scheduler.waiting)
        for request in self.scheduler.running:
            self.memory.release(request.request_id)
        for request in residents:
            request.kv_tokens = 0
            request.prefilled = 0
            request.prefill_target = request.prompt_len + request.generated
            request.status = RequestStatus.WAITING
        self.scheduler.running = []
        self.scheduler.waiting.clear()
        self.state = DEAD
        return residents


class ControlPlaneSimulator:
    """One plan's SLO-driven serving run under dynamic fleet control.

    Replays a :class:`~repro.serving.requests.ServingWorkload` (any
    arrival process) or a time-sorted request list through a fleet of
    :class:`ControlledReplica` engines, with tiered admission, load
    shedding, optional autoscaling, and fault injection.  Fully
    deterministic for a fixed ``(stream, tiers, schedule, seed)``;
    ``seed`` (tier assignment and fault victims) defaults to the
    workload's.  A request list's ids must be its stream positions
    ``0..n-1``, as :func:`~repro.serving.requests.load_trace` assigns
    them.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        workload: "ServingWorkload | None" = None,
        requests: "list[Request] | None" = None,
        seed: "int | None" = None,
        plan: "PlanSource | AttentionPlan | str | None" = None,
        tiers: "tuple[SLOTier, ...]" = DEFAULT_TIERS,
        replicas: int = 2,
        autoscaler: "AutoscalerConfig | None" = None,
        faults: "FailureSchedule | None" = None,
        policy: "str | RouterPolicy" = "least-outstanding",
        #: Base backlog threshold (outstanding tokens per routable
        #: replica) above which the *lowest* tier sheds; tier ``i`` of
        #: ``n`` sheds above ``(n - i) *`` this value, so higher tiers
        #: shed last.  0 disables shedding.
        shed_backlog_tokens: float = 0.0,
        cold_start_s: "float | None" = None,
        tp: int = 1,
        pp: int = 1,
        ep: int = 1,
        dtype: DType = DType.FP16,
        interconnect: InterconnectSpec = NVLINK3,
        algorithm: str = "ring",
        chunk_tokens: int = 512,
        max_batch: int = 32,
        block_tokens: int = 64,
        reserve_fraction: float = 0.1,
        t: int = 64,
        max_steps: int = 2_000_000,
        engine: str = "epoch",
        draft_model: "ModelConfig | str | None" = None,
        draft_len: int = 4,
        accept_rate: float = 1.0,
    ) -> None:
        if replicas < 1:
            raise ServingError(f"need at least one replica, got {replicas}")
        if not tiers:
            raise ServingError("need at least one SLO tier")
        if shed_backlog_tokens < 0:
            raise ServingError(
                f"shed_backlog_tokens must be >= 0, got "
                f"{shed_backlog_tokens}"
            )
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if cold_start_s is not None:
            require_non_negative("cold_start_s", cold_start_s)
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        from repro.serving.costmodel import SUPPORTED_PLANS

        self.plan = resolve_plan(
            AttentionPlan.RECOMPOSED if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
            candidates=SUPPORTED_PLANS,
        )
        self._stream = request_stream(requests, workload)
        if requests is not None and any(
                r.request_id != i for i, r in enumerate(self._stream)):
            raise ServingError(
                "control-plane request ids must be their stream "
                "positions 0..n-1 in arrival order"
            )
        self.tiers = tuple(tiers)
        self.num_replicas = replicas
        self.autoscaler_config = autoscaler
        self.faults = faults if faults is not None else FailureSchedule()
        self.policy_name = (policy.name if isinstance(policy, RouterPolicy)
                            else policy)
        self._policy_arg = policy
        self.shed_backlog_tokens = shed_backlog_tokens
        self.seed = (seed if seed is not None
                     else workload.seed if workload is not None else 0)
        self.max_steps = max_steps
        self._replica_kwargs = dict(
            dtype=dtype, tp=tp, pp=pp, ep=ep, interconnect=interconnect,
            algorithm=algorithm, chunk_tokens=chunk_tokens,
            max_batch=max_batch, block_tokens=block_tokens,
            reserve_fraction=reserve_fraction, t=t, engine=engine,
            draft_model=draft_model, draft_len=draft_len,
            accept_rate=accept_rate,
        )
        if autoscaler is not None and autoscaler.cold_start_s is not None:
            cold_start_s = autoscaler.cold_start_s
        self.cold_start_s = (
            cold_start_s if cold_start_s is not None else cold_start_time(
                self.model, self.gpu, dtype=dtype, tp=tp, pp=pp,
                interconnect=interconnect))

    def run(self) -> ControlPlanePlanReport:
        """Simulate the stream to completion under fleet control."""
        control = _FleetControl(self, current_tracer())
        drive(control.fleet, fresh_requests(self._stream), control.admit,
              max_steps=self.max_steps, timed=control)
        return control.report()


class _FleetControl:
    """One control-plane run's state and its hooks on the drive loop.

    :meth:`admit` is the loop's route callable (the gateway);
    :meth:`next_time`, :meth:`fire`, and :attr:`settled` are its
    timed-event hook (boots, faults, controller ticks, in that order
    on ties); :attr:`fleet` is the live ACTIVE/DRAINING replica list
    the loop steps.
    """

    def __init__(self, sim: ControlPlaneSimulator, tracer) -> None:
        self.sim = sim
        self.tracer = tracer
        self.trace_start = tracer.event_count
        self.plan = sim.plan.value
        self.lane = (tracer.track(f"{self.plan}:controlplane")
                     if tracer.enabled else (0, 0))
        self.tier_of = assign_tiers(len(sim._stream), sim.tiers, sim.seed)
        self.policy = make_policy(sim._policy_arg)
        config = sim.autoscaler_config
        self.scaler = (Autoscaler(config, sim.tiers)
                       if config is not None else None)
        self.interval = config.control_interval if config else None
        self.next_tick = self.interval
        #: The failover floor: replacements boot while the routable
        #: plus booting count is below it.
        self.floor = config.min_replicas if config else sim.num_replicas
        self.victim_rng = np.random.default_rng((sim.seed, _VICTIM_SALT))
        self.fault_events = sim.faults.events()
        self.fault_idx = 0
        #: Requests in first-token order, appended by every scheduler.
        self.first_tokens: "list[Request]" = []
        self.fleet: "list[ControlledReplica]" = [
            self.new_replica(i, 0.0) for i in range(sim.num_replicas)]
        self.next_id = sim.num_replicas
        #: Pending boots as sorted (ready_time, replica_id, reason).
        self.boots: "list[tuple[float, int, str]]" = []
        self.retired: "list[ControlledReplica]" = []
        self.timeline: "list[ScalingEvent]" = []
        #: Mutable per-fault records; finalized in :meth:`report`.
        self.fault_log: "list[dict]" = []
        self.cold_starts = 0
        #: Requests parked while no replica was routable.
        self.parked: "list[Request]" = []
        self.arrived: "list[Request]" = []
        self.shed_ids: "set[int]" = set()
        self.shed_seen = 0
        self.last_event_time = 0.0
        self._event = None
        # Replica-seconds integral of the ACTIVE + DRAINING count.
        self.occupied_since = 0.0
        self.occupied = len(self.fleet)
        self.area = 0.0
        self.peak = self.occupied

    # -- fleet helpers --------------------------------------------------

    def new_replica(self, replica_id: int,
                    created_at: float) -> ControlledReplica:
        sim = self.sim
        replica = ControlledReplica(
            replica_id, sim.model, sim.gpu, plan=sim.plan,
            tracer=self.tracer, retain_requests=False,
            created_at=created_at, **sim._replica_kwargs,
        )
        replica.scheduler.first_token_log = self.first_tokens
        return replica

    def routable(self) -> "list[ControlledReplica]":
        return [r for r in self.fleet if r.state == ACTIVE]

    def backlog_per_replica(self, lanes) -> float:
        return sum(r.outstanding_tokens for r in lanes) / len(lanes)

    def occupy(self, t: float, delta: int) -> None:
        self.area += self.occupied * max(0.0, t - self.occupied_since)
        self.occupied_since = max(self.occupied_since, t)
        self.occupied += delta
        self.peak = max(self.peak, self.occupied)

    def emit(self, name: str, ts: float, **args) -> None:
        if self.tracer.enabled:
            self.tracer.instant(name, "controlplane", ts=ts,
                                pid=self.lane[0], tid=self.lane[1],
                                args=args or None)

    def count(self, name: str, n: int = 1) -> None:
        self.tracer.metrics.counter(
            f"{self.plan}:controlplane.{name}").inc(n)

    def boot(self, ts: float, reason: str) -> int:
        rid = self.next_id
        self.next_id += 1
        self.cold_starts += 1
        ready = ts + self.sim.cold_start_s
        self.boots.append((ready, rid, reason))
        self.boots.sort()
        self.emit("scale-up", ts, replica=rid, ready_at=ready,
                  reason=reason)
        self.count("scale_ups")
        self.timeline.append(ScalingEvent(
            ts, "scale-up", rid, len(self.routable()), reason))
        return rid

    def route(self, request: Request) -> "ControlledReplica | None":
        """The routable replica ``request`` goes to; parks it (and
        returns ``None``) while no replica is routable."""
        lanes = self.routable()
        if not lanes:
            self.parked.append(request)
            return None
        # Stateful policies (prefix-affinity homes, round-robin
        # counters) can point past the routable list after the fleet
        # shrinks; wrap rather than crash.
        return lanes[self.policy.choose(request, lanes) % len(lanes)]

    def place(self, request: Request, now: float) -> None:
        """Route a re-queued or parked request (or park it again)."""
        lane = self.route(request)
        if lane is not None:
            lane.submit(request, now)

    # -- the gateway: the drive loop's route callable ---------------------

    def admit(self, request: Request) -> "ControlledReplica | None":
        """Gateway intake: tier shedding, then routing (or parking)."""
        self.arrived.append(request)
        now = request.arrival_time
        self.last_event_time = max(self.last_event_time, now)
        sim = self.sim
        lanes = self.routable()
        if sim.shed_backlog_tokens > 0 and lanes:
            tier_index = int(self.tier_of[request.request_id])
            threshold = (sim.shed_backlog_tokens
                         * (len(sim.tiers) - tier_index))
            if self.backlog_per_replica(lanes) > threshold:
                self.shed_ids.add(request.request_id)
                self.tracer.metrics.counter(
                    f"{self.plan}:gateway.shed").inc()
                self.emit("shed", now, request_id=request.request_id,
                          tier=sim.tiers[tier_index].name)
                return None
        return self.route(request)

    # -- timed events ---------------------------------------------------

    @property
    def settled(self) -> bool:
        """No parked request or booting replica is still owed work."""
        return not self.parked and not self.boots

    def next_time(self) -> "float | None":
        # (time, tie-break rank, handler): ranks are distinct, so the
        # handlers themselves are never compared.
        candidates = []
        if self.boots:
            candidates.append((self.boots[0][0], 0, self.complete_boot))
        if self.fault_idx < len(self.fault_events):
            candidates.append((self.fault_events[self.fault_idx][0], 1,
                               self.inject_fault))
        if self.next_tick is not None:
            candidates.append((self.next_tick, 2, self.tick))
        self._event = min(candidates) if candidates else None
        return self._event[0] if self._event is not None else None

    def fire(self) -> None:
        etime, _, handle = self._event
        self.last_event_time = max(self.last_event_time, etime)
        handle(etime)

    def complete_boot(self, etime: float) -> None:
        ready, rid, reason = self.boots.pop(0)
        self.fleet.append(self.new_replica(rid, ready))
        self.occupy(ready, +1)
        self.emit("boot-complete", ready, replica=rid, reason=reason)
        self.timeline.append(ScalingEvent(
            ready, "boot-complete", rid, len(self.routable()), reason))
        for record in self.fault_log:
            if record.get("replacement_id") == rid:
                record["replacement_ready"] = ready
        flush, self.parked = self.parked, []
        for request in flush:
            self.place(request, ready)

    def inject_fault(self, etime: float) -> None:
        ftime, fkind, slowdown = self.fault_events[self.fault_idx]
        self.fault_idx += 1
        if not self.fleet:
            self.fault_log.append({"kind": fkind, "time": ftime,
                                   "replica_id": -1, "residents": []})
            return
        victim = self.fleet[int(self.victim_rng.integers(len(self.fleet)))]
        if fkind == "straggler":
            victim.apply_slowdown(slowdown)
            self.emit("straggler", ftime, replica=victim.replica_id,
                      slowdown=slowdown)
            self.count("stragglers")
            self.timeline.append(ScalingEvent(
                ftime, "straggler", victim.replica_id,
                len(self.routable()), f"slowdown={slowdown:.2f}"))
            self.fault_log.append({"kind": fkind, "time": ftime,
                                   "replica_id": victim.replica_id,
                                   "slowdown": slowdown,
                                   "residents": []})
            return
        residents = victim.evacuate()
        self.fleet.remove(victim)
        self.retired.append(victim)
        self.occupy(ftime, -1)
        self.emit("replica-fail", ftime, replica=victim.replica_id,
                  requeued=len(residents))
        self.count("failures")
        self.count("requeued", len(residents))
        self.timeline.append(ScalingEvent(
            ftime, "fail", victim.replica_id, len(self.routable()),
            f"requeued={len(residents)}"))
        record = {"kind": fkind, "time": ftime,
                  "replica_id": victim.replica_id, "residents": residents}
        self.fault_log.append(record)
        if len(self.routable()) + len(self.boots) < self.floor:
            record["replacement_id"] = self.boot(ftime, "failover")
        for request in residents:
            self.place(request, ftime)

    def tick(self, etime: float) -> None:
        """Controller tick: feed the window, retire drained replicas,
        and act on the autoscaler's verdict."""
        self.next_tick += self.interval
        scaler = self.scaler
        sim = self.sim
        for request in self.first_tokens:
            tier_index = int(self.tier_of[request.request_id])
            scaler.observe_first_token(
                request.first_token_time, tier_index,
                request.ttft <= sim.tiers[tier_index].ttft_target)
        self.first_tokens.clear()
        for replica in list(self.fleet):
            if replica.state == DRAINING and not replica.has_work:
                replica.state = RETIRED
                self.fleet.remove(replica)
                self.retired.append(replica)
                self.occupy(etime, -1)
                self.emit("retire", etime, replica=replica.replica_id)
                self.timeline.append(ScalingEvent(
                    etime, "retire", replica.replica_id,
                    len(self.routable()), "drained"))
        lanes = self.routable()
        shed_now = len(self.shed_ids)
        decision = scaler.decide(
            etime,
            active=len(lanes),
            booting=len(self.boots),
            backlog_per_replica=(
                self.backlog_per_replica(lanes) if lanes else 0.0),
            shed_delta=shed_now - self.shed_seen,
        )
        self.shed_seen = shed_now
        if decision is None:
            return
        if decision.delta > 0:
            for _ in range(decision.delta):
                self.boot(etime, decision.reason)
            return
        # Scale down: drain the emptiest routable replica (by the same
        # backlog signal the router balances).
        if len(lanes) <= 1:
            return
        target = min(lanes,
                     key=lambda r: (r.outstanding_tokens, -r.replica_id))
        target.state = DRAINING
        self.emit("scale-down", etime, replica=target.replica_id,
                  reason=decision.reason)
        self.count("scale_downs")
        self.timeline.append(ScalingEvent(
            etime, "scale-down", target.replica_id,
            len(self.routable()), decision.reason))

    # -- the report -----------------------------------------------------

    def report(self) -> ControlPlanePlanReport:
        sim = self.sim
        clocks = ([r.clock for r in self.fleet]
                  + [r.clock for r in self.retired])
        makespan = (max([self.last_event_time] + clocks)
                    if clocks else 0.0)
        self.occupy(makespan, 0)
        for replica in self.fleet:
            replica.state = RETIRED

        tier_of = self.tier_of
        shed_ids = self.shed_ids
        arrived = self.arrived
        block = request_block([_Admitted(arrived)], makespan=makespan)
        in_flight = (len(arrived) - block["finished"] - len(shed_ids)
                     - block["rejected"])

        faults = []
        for record in self.fault_log:
            residents = record["residents"]
            done = [r for r in residents if r.finish_time is not None]
            lost = len(residents) - len(done)
            if record["kind"] == "straggler":
                recovery = 0.0
            elif done:
                recovery = max(r.finish_time for r in done) \
                    - record["time"]
            elif "replacement_ready" in record:
                recovery = record["replacement_ready"] - record["time"]
            else:
                recovery = 0.0
            if record["kind"] == "death" and record["replica_id"] >= 0:
                self.emit("replica-recover", record["time"] + recovery,
                          replica=record["replica_id"],
                          recovery_s=recovery, lost=lost)
            faults.append(FaultRecord(
                kind=record["kind"], time=record["time"],
                replica_id=record["replica_id"],
                requeued=len(residents), lost=lost,
                recovery_s=recovery,
                slowdown=record.get("slowdown", 0.0),
            ))

        tiers = []
        for index, tier in enumerate(sim.tiers):
            ids = [r for r in arrived if int(tier_of[r.request_id]) == index]
            tier_block = request_block([_Admitted(ids)], makespan=makespan)
            attained = sum(1 for r in ids if r.finish_time is not None
                           and tier.meets(ttft=r.ttft, tpot=r.tpot))
            tiers.append(TierReport(
                name=tier.name, share=tier.share,
                ttft_target=tier.ttft_target,
                tpot_target=tier.tpot_target,
                attainment_target=tier.attainment_target,
                arrived=len(ids), finished=tier_block["finished"],
                shed=sum(1 for r in ids if r.request_id in shed_ids),
                rejected=tier_block["rejected"],
                attained_requests=attained,
                ttft=tier_block["ttft"], e2e=tier_block["e2e"],
            ))

        trace_summary = None
        if self.tracer.enabled:
            self.tracer.set_clock(makespan)
            trace_summary = self.tracer.summary(since=self.trace_start,
                                                include_metrics=False)
        return ControlPlanePlanReport(
            plan=self.plan,
            policy=sim.policy_name,
            arrived=len(arrived),
            finished=block["finished"],
            shed=len(shed_ids),
            rejected=block["rejected"],
            in_flight=in_flight,
            makespan=makespan,
            generated_tokens=block["generated_tokens"],
            throughput_tokens_per_s=block["throughput_tokens_per_s"],
            ttft=block["ttft"],
            tpot=block["tpot"],
            e2e=block["e2e"],
            mean_replicas=per_second(self.area, makespan),
            peak_replicas=self.peak,
            replica_seconds=self.area,
            cold_starts=self.cold_starts,
            cold_start_s=sim.cold_start_s,
            tiers=tuple(tiers),
            timeline=tuple(self.timeline),
            faults=tuple(faults),
            autoscaler=(sim.autoscaler_config.describe()
                        if sim.autoscaler_config is not None else None),
            trace_summary=trace_summary,
        )


def simulate_controlplane(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    *,
    rate: float = 4.0,
    duration: float = 30.0,
    seed: int = 0,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("sdf",),
    arrival=None,
    requests: "list[Request] | None" = None,
    tiers: "tuple[SLOTier, ...]" = DEFAULT_TIERS,
    replicas: int = 2,
    autoscaler: "AutoscalerConfig | None" = None,
    faults: "FailureSchedule | None" = None,
    policy: str = "least-outstanding",
    **kwargs,
) -> ControlPlaneReport:
    """Run one workload through the control plane under several plans.

    Every plan replays the same request stream, tier assignment, and
    failure schedule, so comparisons isolate the attention plan.  Pass
    ``requests`` to replay a trace instead of the synthetic workload
    (the report's ``arrival`` then reads ``{"kind": "trace"}``).
    Extra keyword arguments reach :class:`ControlPlaneSimulator`
    (``shed_backlog_tokens``, ``cold_start_s``, ``tp``, ``engine``,
    ...).
    """
    model = get_model(model) if isinstance(model, str) else model
    gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
    workload = None
    if requests is None:
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            block_tokens=kwargs.get("block_tokens", 64), arrival=arrival,
        )
    reports = {}
    for plan in plans:
        sim = ControlPlaneSimulator(
            model, gpu, workload=workload, requests=requests, seed=seed,
            plan=PlanSource.of(plan), tiers=tiers,
            replicas=replicas, autoscaler=autoscaler, faults=faults,
            policy=policy, **kwargs,
        )
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ControlPlaneReport(
        model=model.name,
        gpu=gpu.name,
        seed=seed,
        duration=duration,
        arrival=(workload.arrival.describe() if workload is not None
                 else {"kind": "trace"}),
        replicas=replicas,
        policy=policy if isinstance(policy, str) else policy.name,
        plans=reports,
        faults=faults.describe() if faults is not None else None,
        trace_summary=tracer.summary() if tracer.enabled else None,
    )


def verification_oracles():
    """Fuzz oracles: request conservation under random replica deaths,
    and a static fleet's equivalence with the plain cluster.

    *Conservation*: for any seeded workload and random death schedule,
    every arrived request must end exactly one way — finished, shed,
    or rejected — with nothing in flight after the drain, and no
    re-queued request may be lost.  The oracle replays a small MMPP
    scenario with 1–3 deaths and checks the identity the control plane
    reports.

    *Static fleet*: with no autoscaler, faults, or shedding, the
    control plane is the cluster router plus bookkeeping, so every
    request's arrival, first-token, and finish times must equal a
    cluster-sim run's under the same policy, exactly — and so must the
    reports' latency summaries, finished count, makespan, and token
    throughput, which both fold through one aggregator in stream
    order.

    Each run simulates full (small) scenarios, so both oracles gate
    themselves to deterministic slices of the serving family's cases
    rather than slowing every fuzz invocation down.
    """
    from types import SimpleNamespace

    from repro.cluster.policies import POLICIES
    from repro.cluster.router import ClusterSimulator
    from repro.common.dtypes import DType as _DType
    from repro.serving.arrivals import MMPPArrivals
    from repro.serving.requests import RequestArrays
    from repro.verify.contracts import EXACT, SERVING_COST
    from repro.verify.invariants import Violation
    from repro.verify.registry import OracleSpec

    def run_conservation(case):
        rng = np.random.default_rng(case.params["case_seed"])
        duration = float(rng.uniform(2.0, 4.0))
        rate = float(rng.uniform(1.0, 3.0))
        seed = int(rng.integers(0, 2**31))
        n_deaths = int(rng.integers(1, 4))
        schedule = FailureSchedule.random(
            duration=duration, seed=seed, deaths=n_deaths)
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            arrival=MMPPArrivals(rate=rate, burst_rate=3.0 * rate,
                                 base_dwell=2.0, burst_dwell=1.0),
        )
        sim = ControlPlaneSimulator(
            "bert-large", "a100", workload=workload, plan="sdf",
            replicas=2, faults=schedule,
            shed_backlog_tokens=float(rng.uniform(2000.0, 20000.0)),
            cold_start_s=float(rng.uniform(0.01, 0.5)),
        )
        report = sim.run()
        violations = []
        accounted = (report.finished + report.shed + report.rejected
                     + report.in_flight)
        if report.in_flight != 0:
            violations.append(Violation(
                "drained",
                f"{report.in_flight} requests in flight after drain",
            ))
        lost = sum(f.lost for f in report.faults)
        if lost:
            violations.append(Violation(
                "no_lost_requests",
                f"{lost} re-queued requests never finished",
            ))
        return {
            "actual": np.float64(accounted),
            "expected": np.float64(report.arrived),
            "violations": violations,
        }

    def observed(simulator, arrays, seed, knobs):
        """Rows of (id, arrival, first token, finish) for one run, read
        off the requests the simulator materializes from ``arrays``,
        followed by the report fields both simulators share."""
        made = []

        class Recorded(RequestArrays):
            def materialize(self, index):
                made.append(super().materialize(index))
                return made[-1]

        recorded = Recorded(arrays.arrival_time, arrays.prompt_len,
                            arrays.output_len, arrays.prefix_group)
        report = simulator("bert-large", "a100", **knobs,
                           workload=SimpleNamespace(
                               request_arrays=lambda: recorded,
                               seed=seed)).run()
        rows = sorted((r.request_id, r.arrival_time, r.first_token_time,
                       r.finish_time) for r in made)
        fields = [value for stats in (report.ttft, report.tpot, report.e2e)
                  for value in stats.to_json().values()]
        fields += [report.finished, report.makespan,
                   report.throughput_tokens_per_s]
        return np.concatenate([np.asarray(rows, dtype=np.float64).ravel(),
                               np.asarray(fields, dtype=np.float64)])

    def run_static_fleet(case):
        rng = np.random.default_rng((case.params["case_seed"], 0x57A7))
        seed = int(rng.integers(0, 2**31))
        arrays = ServingWorkload(
            rate=float(rng.uniform(2.0, 12.0)),
            duration=float(rng.uniform(1.0, 3.0)), seed=seed,
            prefix_groups=int(rng.integers(0, 4))).request_arrays()
        knobs = dict(
            plan="sdf",
            replicas=int(rng.integers(1, 5)),
            policy=str(rng.choice(sorted(POLICIES))),
            max_batch=int(rng.integers(2, 17)),
        )
        actual = observed(ControlPlaneSimulator, arrays, seed, knobs)
        expected = observed(ClusterSimulator, arrays, seed, knobs)
        # The contract compares in the case's storage dtype, which
        # would absorb a last-ulp float64 difference in a mean.
        violations = []
        if not np.array_equal(actual, expected):
            violations.append(Violation(
                "float64_identical",
                "timelines or report fields differ from cluster-sim's "
                "in float64",
            ))
        return {"actual": actual, "expected": expected,
                "violations": violations}

    yield OracleSpec(
        name="controlplane.static_fleet_equivalence",
        family="serving",
        run=run_static_fleet,
        contracts={_DType.FP32: EXACT, _DType.FP16: EXACT},
        description=(
            "without autoscaler, faults, or shedding, every request's "
            "arrival, first-token, and finish times and the report's "
            "latency, finished, makespan, and throughput equal "
            "cluster-sim's"
        ),
        applies=lambda case: case.params["case_seed"] % 16 == 8,
    )

    yield OracleSpec(
        name="controlplane.failure_conservation",
        family="serving",
        run=run_conservation,
        contracts={_DType.FP32: SERVING_COST,
                   _DType.FP16: SERVING_COST},
        description=(
            "arrived = finished + shed + rejected (+ 0 in flight) "
            "under random replica-death schedules"
        ),
        applies=lambda case: case.params["case_seed"] % 16 == 0,
    )
