"""Sharded parallel cluster mode: one worker process per replica.

Under round-robin routing the cluster decomposes exactly: arrival
``i`` of the time-sorted stream lands on replica ``i % R``, and after
routing, replicas never interact — each one is an independent
single-replica serving simulation.  So instead of interleaving every
replica's steps in one global event loop, the sharded mode partitions
the stream by replica up front, simulates each replica's substream to
completion — the same :func:`~repro.cluster.router.drive` loop over a
fleet of one — in its own worker process (via
:func:`repro.workloads.sweep.fanout`), and merges the per-replica
outcomes in replica-id order.  The merged
:class:`~repro.cluster.metrics.ClusterPlanReport` is byte-identical to
the serial :class:`~repro.cluster.router.ClusterSimulator` loop's, and
identical across any ``--jobs`` value — parallelism only changes which
process runs a shard, never what the shard computes.

State-dependent policies (least-outstanding, prefix-affinity) read
*other* replicas' load at each arrival, so they cannot shard; the
router rejects ``jobs > 1`` for them.  Tracing interleaves all lanes
in one tracer, so traced runs stay serial too.

Each worker holds the stream's arrival arrays and O(batch) resident
requests; with streaming aggregation (above the exact-percentile
cutover) the parent only ever sees O(1)-sized outcome records per
replica, which is what lets a million-request scenario run in a few
hundred MB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import AttentionPlan
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.serving.requests import Request, RequestArrays
from repro.workloads.sweep import fanout

__all__ = ["ReplicaShard", "simulate_shard", "run_sharded"]


@dataclass(frozen=True)
class ReplicaShard:
    """One replica's share of a round-robin-routed cluster run.

    Frozen and picklable — the unit of work :func:`fanout` ships to a
    worker process.  ``stream`` is the whole time-sorted stream
    (request templates or columnar arrays) and the worker strides out
    its own share lazily — at fleet scale the arrays pickle as a few
    numpy buffers instead of a million dataclasses.
    ``replica_kwargs`` are the keywords every replica is built with
    (its :class:`~repro.cluster.replica.ReplicaConfig` settings and
    ``retain_requests``).
    """

    replica_id: int
    num_replicas: int
    model: ModelConfig
    gpu: GPUSpec
    plan: AttentionPlan
    replica_kwargs: "dict[str, object]"
    max_steps: int
    stream: "tuple[Request, ...] | RequestArrays"


def simulate_shard(shard: ReplicaShard):
    """Simulate one replica's substream to completion.

    Module-level so it pickles to pool workers; the serial ``jobs=1``
    path calls it in-process, which is what makes the output identical
    across worker counts.  Returns the replica's
    :class:`~repro.cluster.replica.ReplicaOutcome`.
    """
    from repro.cluster.replica import Replica
    from repro.cluster.router import drive_one

    replica = Replica(shard.replica_id, shard.model, shard.gpu,
                      plan=shard.plan, **shard.replica_kwargs)
    drive_one(replica, shard.stream, max_steps=shard.max_steps,
              start=shard.replica_id, stride=shard.num_replicas)
    return replica.outcome()


def run_sharded(
    *,
    model: ModelConfig,
    gpu: GPUSpec,
    plan: AttentionPlan,
    replica_kwargs: "dict[str, object]",
    num_replicas: int,
    max_steps: int,
    jobs: int = 1,
    stream: "list[Request] | RequestArrays",
) -> "list":
    """Partition ``stream`` round-robin and simulate every replica.

    ``stream`` is the time-sorted request list or the stream's arrays.
    Returns the per-replica outcomes in replica-id order.
    """
    if not isinstance(stream, RequestArrays):
        stream = tuple(stream)
    shards = [
        ReplicaShard(
            replica_id=replica_id,
            num_replicas=num_replicas,
            model=model,
            gpu=gpu,
            plan=plan,
            replica_kwargs=replica_kwargs,
            max_steps=max_steps,
            stream=stream,
        )
        for replica_id in range(num_replicas)
    ]
    return fanout(simulate_shard, shards, jobs=jobs)
