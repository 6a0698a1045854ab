"""Per-replica and cluster-aggregate metrics.

Every replica produces the full single-node
:class:`~repro.serving.metrics.PlanReport` plus the sharding numbers
(GPU count, collective time, per-GPU weight bytes).  The cluster
aggregate's request block comes from
:func:`~repro.serving.metrics.request_block` over every replica's
outcome: exact over the *union* of finished requests, folded in stream
order — percentiles do not compose across shards, so averaging
per-replica p99s would understate the tail — or, above the
exact-percentile cutover, from the replicas' latency accumulators
merged in replica-id order and flagged ``approx_percentiles``.

Aggregation consumes :class:`~repro.cluster.replica.ReplicaOutcome`
records, the same shape whether the replicas ran in one process (the
serial router loop) or one per worker (the sharded mode), so a sharded
run's report is byte-identical to the serial run's regardless of
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.metrics import LatencyStats, PlanReport, request_block


@dataclass(frozen=True)
class ReplicaReport:
    """One replica's serving report plus its sharding costs."""

    replica_id: int
    n_gpus: int
    report: PlanReport
    comm_time_s: float
    weight_bytes_per_gpu: float

    @property
    def comm_fraction(self) -> float:
        """Share of this replica's busy time spent in collectives."""
        if self.report.busy_time == 0:
            return 0.0
        return self.comm_time_s / self.report.busy_time

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict(
            "cluster-replica",
            replica_id=self.replica_id,
            n_gpus=self.n_gpus,
            comm_time_s=self.comm_time_s,
            comm_fraction=self.comm_fraction,
            weight_bytes_per_gpu=self.weight_bytes_per_gpu,
            **self.report.to_json(),
        )


@dataclass(frozen=True)
class ClusterPlanReport:
    """Cluster-wide results of one plan under one routing policy."""

    plan: str
    policy: str
    num_requests: int
    finished: int
    rejected: int
    makespan: float
    steps: int
    generated_tokens: int
    prefill_tokens: int
    ttft: LatencyStats
    tpot: LatencyStats
    e2e: LatencyStats
    throughput_tokens_per_s: float
    throughput_requests_per_s: float
    comm_time_s: float
    comm_fraction: float
    per_replica: "tuple[ReplicaReport, ...]"
    #: Span/event summary of this plan's slice of the trace; ``None``
    #: when the run was not traced (the default).
    trace_summary: "dict | None" = None
    #: True when latency percentiles came from merged streaming
    #: sketches instead of the retained request union.  Omitted from
    #: JSON when False so small-run reports stay byte-identical.
    approx_percentiles: bool = False

    @classmethod
    def from_replicas(cls, plan: str, policy: str, replicas, *,
                      trace_summary: "dict | None" = None,
                      ) -> "ClusterPlanReport":
        """Aggregate finished :class:`~repro.cluster.replica.Replica`
        states (after the event loop drained) into a report."""
        return cls.from_outcomes(
            plan, policy, [replica.outcome() for replica in replicas],
            trace_summary=trace_summary)

    @classmethod
    def from_outcomes(cls, plan: str, policy: str, outcomes, *,
                      trace_summary: "dict | None" = None,
                      ) -> "ClusterPlanReport":
        """Aggregate per-replica outcome records, in replica-id order.

        Every outcome must either retain its request list or stream;
        :func:`~repro.serving.metrics.request_block` rejects a mix.
        """
        outcomes = sorted(outcomes, key=lambda o: o.replica_id)
        reports = tuple(
            ReplicaReport(
                replica_id=o.replica_id,
                n_gpus=o.n_gpus,
                report=PlanReport.from_aggregates(plan, o),
                comm_time_s=o.comm_time,
                weight_bytes_per_gpu=o.weight_bytes_per_gpu,
            )
            for o in outcomes
        )
        makespan = max((o.clock for o in outcomes), default=0.0)
        busy = sum(o.busy for o in outcomes)
        comm = sum(o.comm_time for o in outcomes)
        return cls(
            plan=plan,
            policy=policy,
            makespan=makespan,
            steps=sum(o.steps for o in outcomes),
            prefill_tokens=sum(o.prefill_tokens for o in outcomes),
            comm_time_s=comm,
            comm_fraction=comm / busy if busy else 0.0,
            per_replica=reports,
            trace_summary=trace_summary,
            **request_block(outcomes, makespan=makespan),
        )

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        extra = ({"trace_summary": self.trace_summary}
                 if self.trace_summary is not None else {})
        if self.approx_percentiles:
            extra["approx_percentiles"] = True
        return result_dict(
            "cluster-plan",
            plan=self.plan,
            policy=self.policy,
            num_requests=self.num_requests,
            finished=self.finished,
            rejected=self.rejected,
            makespan_s=self.makespan,
            steps=self.steps,
            generated_tokens=self.generated_tokens,
            prefill_tokens=self.prefill_tokens,
            ttft_s=self.ttft.to_json(),
            tpot_s=self.tpot.to_json(),
            e2e_s=self.e2e.to_json(),
            throughput_tokens_per_s=self.throughput_tokens_per_s,
            throughput_requests_per_s=self.throughput_requests_per_s,
            comm_time_s=self.comm_time_s,
            comm_fraction=self.comm_fraction,
            per_replica=[r.to_dict() for r in self.per_replica],
            **extra,
        )


@dataclass(frozen=True)
class ClusterReport:
    """Full report of one ``cluster-sim`` invocation."""

    model: str
    gpu: str
    #: The synthetic stream's rate, duration and seed; ``None`` for a
    #: trace replay, which has none.
    rate: "float | None"
    duration: "float | None"
    seed: "int | None"
    replicas: int
    tp: int
    pp: int
    policy: str
    algorithm: str
    interconnect: str
    num_requests: int
    plans: "dict[str, ClusterPlanReport]"
    #: Full-trace summary (all plans, metrics included); ``None`` when
    #: the run was not traced.
    trace_summary: "dict | None" = None
    #: Arrival-process parameters (``ArrivalProcess.describe()``, or
    #: ``{"kind": "trace"}`` for a replay); ``None`` for the default
    #: stationary Poisson stream, keeping historical serialized output
    #: byte-identical.
    arrival: "dict | None" = None

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``); fields
        that are ``None`` are left out."""
        from repro.common.results import result_dict

        fields = dict(
            model=self.model,
            gpu=self.gpu,
            rate=self.rate,
            duration_s=self.duration,
            seed=self.seed,
            replicas=self.replicas,
            tp=self.tp,
            pp=self.pp,
            policy=self.policy,
            algorithm=self.algorithm,
            interconnect=self.interconnect,
            num_requests=self.num_requests,
            plans={name: report.to_dict()
                   for name, report in self.plans.items()},
            trace_summary=self.trace_summary,
            arrival=self.arrival,
        )
        return result_dict("cluster-report", **{
            key: value for key, value in fields.items()
            if value is not None})

    def speedup(self, baseline: str = "baseline",
                candidate: str = "sdf") -> float:
        """Sustained-throughput ratio of ``candidate`` over ``baseline``."""
        base = self.plans[baseline].throughput_tokens_per_s
        cand = self.plans[candidate].throughput_tokens_per_s
        if base == 0:
            return 0.0
        return cand / base
