"""One serving replica: a TP×PP GPU group with its own engine state.

A replica owns the full single-node serving stack — a
:class:`~repro.cluster.costmodel.ShardedStepCostModel`, a paged
:class:`~repro.serving.memory.KVBlockManager` sized for the whole GPU
group (weights shard, per-GPU reserve replicates), and a
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` — all
driven by one :class:`~repro.serving.engine.EpochEngine`.  The cluster
router interleaves replica advances in global time order; each
replica's clock reads "when this replica is next free", so a request
submitted to an idle replica starts immediately while one submitted
mid-step queues until the step completes.

Replicas stream their aggregates through the engine's O(1) latency
accumulators; the routed-request list is retained only while
``retain_requests`` is set (the default, and what exact small-run
reports need), so a million-request shard holds per-request state only
for the requests currently resident.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.gpu.interconnect import InterconnectSpec, NVLINK3
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.models.footprint import weight_bytes
from repro.obs.tracer import NULL_TRACER
from repro.serving.engine import DEFAULT_MAX_EPOCH, ENGINE_MODES, EpochEngine
from repro.serving.memory import KVBlockManager, MemoryStats
from repro.serving.metrics import LatencyAccumulator
from repro.serving.requests import Request
from repro.serving.scheduler import ContinuousBatchingScheduler


@dataclass
class ReplicaOutcome:
    """Everything a finished replica contributes to a cluster report.

    A plain, picklable record: the sharded cluster mode ships one per
    worker process back to the parent, and the serial loop produces
    the same shape, so both aggregate through one code path
    (:func:`repro.serving.metrics.request_block`).  ``requests`` is
    ``None`` when the replica ran in streaming mode.
    """

    replica_id: int
    n_gpus: int
    weight_bytes_per_gpu: float
    #: Total HBM across the replica's GPU group, for peak fractions.
    hbm_bytes: int
    memory: MemoryStats
    clock: float
    busy: float
    comm_time: float
    steps: int
    prefill_tokens: int
    preemption_events: int
    finished: int
    rejected: int
    preempted_requests: int
    generated_tokens: int
    ttft: LatencyAccumulator
    tpot: LatencyAccumulator
    e2e: LatencyAccumulator
    requests: "list[Request] | None"


@dataclass(frozen=True)
class ReplicaConfig:
    """A replica's engine and sharding settings: the one declaration of
    the keywords, defaults and checks that every simulator forwards to
    its replicas as ``**replica_kwargs``."""

    dtype: DType = DType.FP16
    tp: int = 1
    pp: int = 1
    ep: int = 1
    interconnect: InterconnectSpec = NVLINK3
    algorithm: str = "ring"
    chunk_tokens: int = 512
    max_batch: int = 32
    block_tokens: int = 64
    reserve_fraction: float = 0.1
    t: int = 64
    engine: str = "epoch"
    max_epoch: int = DEFAULT_MAX_EPOCH
    draft_model: "ModelConfig | str | None" = None
    draft_len: int = 4
    accept_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {self.engine!r}"
            )

    @classmethod
    def among(cls, kwargs: "dict[str, object]") -> "ReplicaConfig":
        """The config the replica keywords among ``kwargs`` set; the
        other keys are the caller's."""
        names = {field.name for field in fields(cls)}
        return cls(**{k: v for k, v in kwargs.items() if k in names})


class Replica:
    """One model replica inside a cluster simulation; ``settings`` are
    :class:`ReplicaConfig`'s keywords."""

    def __init__(
        self,
        replica_id: int,
        model: ModelConfig,
        gpu: GPUSpec,
        *,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        tracer=None,
        retain_requests: bool = True,
        **settings,
    ) -> None:
        from repro.cluster.costmodel import ShardedStepCostModel

        config = ReplicaConfig(**settings)
        self.replica_id = replica_id
        self.cost = ShardedStepCostModel(
            model, gpu, plan=plan, dtype=config.dtype, t=config.t,
            tp=config.tp, pp=config.pp, ep=config.ep,
            interconnect=config.interconnect, algorithm=config.algorithm,
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Trace process name; plan-prefixed so several plans can share
        #: one tracer without lane collisions.
        self.trace_process = (
            f"{AttentionPlan.from_name(plan).value}:replica{replica_id}")
        self.memory = KVBlockManager.for_model(
            model, gpu, block_tokens=config.block_tokens,
            dtype=config.dtype, reserve_fraction=config.reserve_fraction,
            n_gpus=self.cost.n_gpus,
        )
        self.scheduler = ContinuousBatchingScheduler(
            self.memory, chunk_tokens=config.chunk_tokens,
            max_batch=config.max_batch, tracer=self.tracer,
            trace_process=self.trace_process,
        )
        # The draft model is small and replicates across the group, so
        # its per-round cost is priced unsharded on one GPU.
        spec_runtime = None
        if config.draft_model is not None:
            from repro.models.config import get_model
            from repro.serving.costmodel import StepCostModel
            from repro.serving.specdecode import (
                SpecDecodeConfig,
                SpecDecodeRuntime,
            )

            draft_model = config.draft_model
            spec = SpecDecodeConfig(
                draft_model=(get_model(draft_model)
                             if isinstance(draft_model, str)
                             else draft_model),
                draft_len=config.draft_len,
                accept_rate=config.accept_rate,
            )
            spec_runtime = SpecDecodeRuntime(spec, StepCostModel(
                spec.draft_model, gpu, plan=self.cost.plan,
                dtype=config.dtype, t=config.t,
            ))
        self.engine = EpochEngine(
            cost=self.cost, memory=self.memory, scheduler=self.scheduler,
            tracer=self.tracer, epoch=config.engine == "epoch",
            max_epoch=config.max_epoch, on_step=self._trace_step,
            spec_decode=spec_runtime,
        )
        self.retain_requests = retain_requests
        #: Every request ever routed here, in submission order; empty
        #: in streaming mode (``retain_requests=False``).
        self.requests: "list[Request]" = []

    @property
    def n_gpus(self) -> int:
        """GPUs in this replica's group."""
        return self.cost.n_gpus

    @property
    def weight_bytes_per_gpu(self) -> float:
        """Sharded parameter footprint per GPU."""
        return weight_bytes(self.cost.model, self.cost.dtype) / self.n_gpus

    # -- engine state, delegated ----------------------------------------

    @property
    def clock(self) -> float:
        """Global time this replica is next free."""
        return self.engine.clock

    @property
    def steps(self) -> int:
        """Engine steps taken so far."""
        return self.engine.steps

    @property
    def has_work(self) -> bool:
        """Whether any routed request is still unfinished on-device."""
        return self.scheduler.has_work

    @property
    def outstanding_tokens(self) -> int:
        """Remaining prefill + decode tokens across unfinished requests.

        The router's load signal: the total token work this replica
        still owes, regardless of admission state.  Computed over the
        resident (running + waiting) requests plus the constant
        contribution of rejected ones, so reading it is O(batch), not
        O(every request ever routed).
        """
        resident = sum(
            (r.prefill_target - r.prefilled) + (r.output_len - r.generated)
            for r in self.scheduler.running
        ) + sum(
            (r.prefill_target - r.prefilled) + (r.output_len - r.generated)
            for r in self.scheduler.waiting
        )
        return resident + self.engine.rejected_outstanding

    def submit(self, request: Request, now: float) -> None:
        """Route ``request`` here; it arrives at global time ``now``."""
        # An idle replica fast-forwards to the arrival; a busy one
        # keeps its in-flight step's completion time.
        if now > self.engine.clock:
            self.engine.clock = now
        if self.retain_requests:
            self.requests.append(request)
        self.engine.submit(request)

    def advance(self, limit_time: "float | None" = None) -> int:
        """Advance this replica's engine; returns steps taken (0 =
        nothing runnable).  No step starts at or after ``limit_time``
        — the drive loop passes the next event so replica state is
        final when a policy or controller reads it."""
        return self.engine.advance(limit_time=limit_time)

    def _trace_step(self, step, *, ts, dur, comm) -> None:
        """Record one engine iteration: a step span plus occupancy
        counters on this replica's lane."""
        tracer = self.tracer
        lane = self.trace_process
        running = len(self.scheduler.running)
        waiting = len(self.scheduler.waiting)
        pid, tid = tracer.track(lane, "steps")
        decode = len(step.decode)
        chunk_tokens = sum(chunk for _, chunk, _ in step.prefill)
        args = {"decode": decode,
                "prefill_chunks": len(step.prefill),
                "prefill_tokens": chunk_tokens,
                "compute_s": dur - comm,
                "comm_s": comm,
                "running": running,
                "waiting": waiting}
        if self.engine.spec_decode is not None:
            # Called before complete_step, so kv_tokens is still the
            # pre-round length — the delta is this round's emission.
            emitted = sum(kv - r.kv_tokens for r, kv in step.decode)
            args["spec_emitted"] = emitted
            args["spec_verify_rows"] = sum(
                1 for r, kv in step.decode if kv - r.kv_tokens > 1)
            tracer.metrics.counter(f"{lane}.spec_emitted").add(emitted)
        tracer.complete("replica step", "engine-step", ts=ts, dur=dur,
                        pid=pid, tid=tid, args=args)
        tracer.counter(
            f"{lane} occupancy", ts=ts, pid=pid,
            values={"running": running, "waiting": waiting,
                    "kv_blocks": self.memory.used_blocks},
        )
        metrics = tracer.metrics
        metrics.counter(f"{lane}.steps").inc()
        metrics.counter(f"{lane}.decode_tokens").add(decode)
        metrics.counter(f"{lane}.prefill_tokens").add(chunk_tokens)
        metrics.counter(f"{lane}.comm_time_s").add(comm)
        metrics.gauge(f"{lane}.batch").set(running)
        metrics.gauge(f"{lane}.kv_blocks").set(self.memory.used_blocks)

    def outcome(self) -> ReplicaOutcome:
        """Snapshot this replica's contribution to the cluster report."""
        engine = self.engine
        return ReplicaOutcome(
            replica_id=self.replica_id,
            n_gpus=self.n_gpus,
            weight_bytes_per_gpu=self.weight_bytes_per_gpu,
            hbm_bytes=self.n_gpus * self.cost.gpu.hbm_bytes,
            memory=self.memory.stats(),
            clock=engine.clock,
            busy=engine.busy,
            comm_time=engine.comm_time,
            steps=engine.steps,
            prefill_tokens=engine.prefill_tokens,
            preemption_events=self.scheduler.preemption_events,
            finished=engine.finished,
            rejected=engine.rejected,
            preempted_requests=engine.preempted_requests,
            generated_tokens=engine.generated_tokens,
            ttft=engine.ttft,
            tpot=engine.tpot,
            e2e=engine.e2e,
            requests=self.requests if self.retain_requests else None,
        )
