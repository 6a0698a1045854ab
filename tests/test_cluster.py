"""Tests for the cluster-scale serving simulator.

Covers the collective-cost API (ring/tree all-reduce identities), the
sharded step-cost model (communication charged, compute sharded,
per-GPU memory relieved), the routing policies (determinism, request
conservation, prefix colocation), and the report schema contract.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    LeastOutstandingPolicy,
    POLICIES,
    PrefixAffinityPolicy,
    Replica,
    RoundRobinPolicy,
    ShardedStepCostModel,
    make_policy,
    simulate_cluster,
)
from repro.common.errors import ConfigError, ServingError
from repro.gpu.interconnect import (
    NVLINK3,
    PCIE4,
    allgather_time,
    allreduce_time,
    point_to_point_time,
    reduce_scatter_time,
)
from repro.gpu.specs import get_gpu
from repro.models.config import AttentionKind, AttentionSpec, ModelConfig
from repro.models.footprint import weight_bytes
from repro.serving.costmodel import StepCostModel
from repro.serving.memory import KVBlockManager
from repro.serving.requests import Request, ServingWorkload

TINY = ModelConfig(
    "tiny-cluster", num_layers=2, d_model=128, num_heads=4, d_ff=256,
    attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
)


def tiny_requests(n=6, prompt=128, output=4, gap=0.05, groups=None):
    return [
        Request(request_id=i, arrival_time=i * gap, prompt_len=prompt,
                output_len=output,
                prefix_group=None if groups is None else groups[i])
        for i in range(n)
    ]


class TestCollectives:
    def test_ring_is_reduce_scatter_plus_allgather(self):
        for spec in (NVLINK3, PCIE4):
            for n in (2, 3, 4, 8):
                nbytes = 1 << 20
                assert allreduce_time(spec, nbytes, n) == (
                    reduce_scatter_time(spec, nbytes, n)
                    + allgather_time(spec, nbytes, n)
                )

    def test_single_gpu_is_free(self):
        for fn in (reduce_scatter_time, allgather_time):
            assert fn(NVLINK3, 1 << 20, 1) == 0.0
        for algorithm in ("ring", "tree"):
            assert allreduce_time(NVLINK3, 1 << 20, 1,
                                  algorithm=algorithm) == 0.0

    def test_tree_formula(self):
        nbytes, n = 1 << 22, 8
        expected = (2.0 * nbytes / NVLINK3.link_bandwidth
                    + 2 * math.ceil(math.log2(n)) * NVLINK3.hop_latency)
        assert allreduce_time(NVLINK3, nbytes, n,
                              algorithm="tree") == pytest.approx(expected)

    def test_point_to_point(self):
        nbytes = 1 << 20
        assert point_to_point_time(NVLINK3, nbytes) == pytest.approx(
            nbytes / NVLINK3.link_bandwidth + NVLINK3.hop_latency)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            allreduce_time(NVLINK3, 1024, 4, algorithm="butterfly")


class TestShardedStepCostModel:
    def test_tp1_pp1_matches_single_gpu_model(self):
        base = StepCostModel(TINY, "t4", plan="sdf")
        sharded = ShardedStepCostModel(TINY, "t4", plan="sdf")
        kwargs = dict(prefill=[(128, 128)], decode_kv=[64, 192])
        total, comm = sharded.step_cost(**kwargs)
        assert comm == 0.0
        assert total == base.step_time(**kwargs)

    def test_tp2_charges_communication(self):
        sharded = ShardedStepCostModel(TINY, "t4", plan="sdf", tp=2)
        total, comm = sharded.step_cost(prefill=[(128, 128)])
        assert comm > 0
        hidden = 128 * TINY.d_model * sharded.dtype.nbytes
        expected = TINY.num_layers * 2 * allreduce_time(NVLINK3, hidden, 2)
        assert comm == pytest.approx(expected)

    def test_pp_boundary_charges_point_to_point(self):
        tp_only = ShardedStepCostModel(TINY, "t4", tp=2, pp=1)
        tp_pp = ShardedStepCostModel(TINY, "t4", tp=2, pp=2)
        hidden = 64 * TINY.d_model * tp_pp.dtype.nbytes
        delta = (tp_pp.comm_time(64) - tp_only.comm_time(64))
        assert delta == pytest.approx(point_to_point_time(NVLINK3, hidden))

    def test_tp2_prefill_compute_is_cheaper(self):
        # A prefill-heavy step on half the heads/FF shard beats the
        # single-GPU step even after paying the all-reduces.
        tp1 = ShardedStepCostModel(TINY, "t4", plan="sdf")
        tp2 = ShardedStepCostModel(TINY, "t4", plan="sdf", tp=2)
        kwargs = dict(prefill=[(2048, 2048)])
        assert tp2.step_time(**kwargs) < tp1.step_time(**kwargs)

    def test_empty_step_is_free(self):
        sharded = ShardedStepCostModel(TINY, "t4", tp=2, pp=2)
        assert sharded.step_cost() == (0.0, 0.0)

    def test_bad_sharding_rejected(self):
        with pytest.raises(ConfigError):
            ShardedStepCostModel(TINY, "t4", tp=3)


class TestGroupMemory:
    def test_kv_capacity_scales_with_group_size(self):
        gpu = get_gpu("t4")
        one = KVBlockManager.for_model(TINY, gpu)
        two = KVBlockManager.for_model(TINY, gpu, n_gpus=2)
        assert two.total_blocks > one.total_blocks

    def test_per_gpu_weights_shard(self):
        gpu = get_gpu("t4")
        tp1 = Replica(0, TINY, gpu)
        tp2 = Replica(0, TINY, gpu, tp=2)
        assert tp2.n_gpus == 2
        assert tp2.weight_bytes_per_gpu == pytest.approx(
            tp1.weight_bytes_per_gpu / 2)
        assert tp1.weight_bytes_per_gpu == pytest.approx(
            weight_bytes(TINY, tp1.cost.dtype))


class TestPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        replicas = [object(), object(), object()]
        chosen = [policy.choose(None, replicas) for _ in range(6)]
        assert chosen == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_min(self):
        class Fake:
            def __init__(self, load):
                self.outstanding_tokens = load

        policy = LeastOutstandingPolicy()
        assert policy.choose(None, [Fake(5), Fake(2), Fake(9)]) == 1
        # Ties break on the lowest replica id.
        assert policy.choose(None, [Fake(2), Fake(2)]) == 0

    def test_prefix_affinity_colocates(self):
        class Fake:
            outstanding_tokens = 0

        policy = PrefixAffinityPolicy()
        replicas = [Fake(), Fake(), Fake()]
        first = policy.choose(
            Request(request_id=0, arrival_time=0.0, prompt_len=64,
                    output_len=1, prefix_group=7), replicas)
        for i in range(1, 4):
            again = policy.choose(
                Request(request_id=i, arrival_time=0.0, prompt_len=64,
                        output_len=1, prefix_group=7), replicas)
            assert again == first

    def test_registry_and_unknown_policy(self):
        assert set(POLICIES) == {"round-robin", "least-outstanding",
                                 "prefix-affinity"}
        for name in POLICIES:
            assert make_policy(name).name == name
        with pytest.raises(ServingError):
            make_policy("random")


class TestClusterSimulator:
    def test_requests_conserved_across_replicas(self):
        for policy in POLICIES:
            requests = tiny_requests(n=8)
            report = ClusterSimulator(
                TINY, "t4", plan="sdf", requests=requests,
                replicas=3, policy=policy,
            ).run()
            assert report.num_requests == len(requests)
            assert report.finished + report.rejected == report.num_requests
            per_replica = sum(r.report.num_requests
                              for r in report.per_replica)
            assert per_replica == len(requests)

    def test_prefix_affinity_routes_groups_together(self):
        groups = [0, 1, 0, 1, 0, 1, 0, 1]
        # Simultaneous arrivals: the router sees group 0 claim replica
        # 0 (both idle), then group 1's backlog-aware fallback picks
        # replica 1; later arrivals follow their group's home.
        requests = tiny_requests(n=8, gap=0.0, groups=groups)
        report = ClusterSimulator(
            TINY, "t4", requests=requests, replicas=2,
            policy="prefix-affinity",
        ).run()
        # Two groups, two replicas: each group pins to one home, so
        # every replica sees only whole groups (here: exactly one).
        counts = sorted(r.report.num_requests for r in report.per_replica)
        assert counts == [4, 4]

    def test_fixed_seed_is_deterministic(self):
        docs = []
        for _ in range(2):
            report = simulate_cluster(
                TINY, "t4", rate=4, duration=5, seed=3, replicas=2, tp=2,
                policy="least-outstanding", prefix_groups=4,
            )
            docs.append(json.dumps(report.to_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_aggregate_matches_union_of_replicas(self):
        report = simulate_cluster(
            TINY, "t4", rate=4, duration=5, seed=0, replicas=2,
            plans=("sdf",),
        ).plans["sdf"]
        assert report.finished == sum(r.report.finished
                                      for r in report.per_replica)
        assert report.generated_tokens == sum(r.report.generated_tokens
                                              for r in report.per_replica)
        assert report.makespan == max(r.report.makespan
                                      for r in report.per_replica)

    def test_tp_communication_visible_in_report(self):
        report = simulate_cluster(
            TINY, "t4", rate=4, duration=5, seed=0, replicas=2, tp=2,
            plans=("sdf",),
        ).plans["sdf"]
        assert report.comm_time_s > 0
        assert 0 < report.comm_fraction < 1
        for replica in report.per_replica:
            assert replica.n_gpus == 2
            assert replica.weight_bytes_per_gpu == pytest.approx(
                weight_bytes(TINY, ShardedStepCostModel(
                    TINY, "t4").dtype) / 2)

    def test_single_replica_matches_serving_simulator_shape(self):
        from repro.serving import simulate_serving

        requests = tiny_requests(n=4)
        cluster = ClusterSimulator(
            TINY, "t4", plan="sdf", requests=requests, replicas=1,
        ).run()
        single = simulate_serving(
            TINY, "t4", rate=1.0, duration=1.0, plans=("sdf",),
            requests=requests,
        ).plans["sdf"]
        # One unsharded replica is exactly the single-node simulator.
        replica = cluster.per_replica[0].report
        assert replica.to_dict() == single.to_dict()

    def test_step_budget_is_per_replica(self):
        """``max_steps`` bounds each replica's steps, the same way in
        the serial loop and the sharded mode."""
        report = ClusterSimulator(
            TINY, "t4", plan="sdf", requests=tiny_requests(), replicas=2,
        ).run()
        per_replica = max(r.report.steps for r in report.per_replica)
        assert per_replica < report.steps
        for jobs in (1, 2):
            ClusterSimulator(
                TINY, "t4", plan="sdf", requests=tiny_requests(),
                replicas=2, jobs=jobs, max_steps=per_replica,
            ).run()
            with pytest.raises(ServingError, match=(
                    rf"replica \d exceeded {per_replica - 1} steps")):
                ClusterSimulator(
                    TINY, "t4", plan="sdf", requests=tiny_requests(),
                    replicas=2, jobs=jobs, max_steps=per_replica - 1,
                ).run()

    def test_tiny_step_budget_fails_alike_everywhere(self):
        from repro.controlplane import ControlPlaneSimulator
        from repro.core.plansource import PlanSource
        from repro.serving.simulator import ServingSimulator

        budget = r"replica \d exceeded 2 steps \(clock [0-9.]+s\)"
        sims = [
            ServingSimulator(TINY, "t4", plan=PlanSource.of("sdf"),
                             requests=tiny_requests(), max_steps=2),
            ClusterSimulator(TINY, "t4", plan="sdf",
                             requests=tiny_requests(), max_steps=2),
            ClusterSimulator(TINY, "t4", plan="sdf",
                             requests=tiny_requests(), max_steps=2,
                             jobs=2),
            ControlPlaneSimulator(TINY, "t4", plan="sdf",
                                  requests=tiny_requests(), max_steps=2),
        ]
        for sim in sims:
            with pytest.raises(ServingError, match=budget):
                sim.run()

    def test_workload_prefix_groups(self):
        stream = ServingWorkload(rate=8, duration=5, seed=0,
                                 prefix_groups=3).requests()
        assert {r.prefix_group for r in stream} <= {0, 1, 2}
        plain = ServingWorkload(rate=8, duration=5, seed=0).requests()
        assert all(r.prefix_group is None for r in plain)
        # Grouping must not perturb arrivals or lengths.
        assert [(r.arrival_time, r.prompt_len, r.output_len)
                for r in stream] == [
            (r.arrival_time, r.prompt_len, r.output_len) for r in plain]

    def test_report_schema(self):
        report = simulate_cluster(TINY, "t4", rate=4, duration=3, seed=0,
                                  replicas=2, plans=("sdf",))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro.result/v1"
        assert doc["kind"] == "cluster-report"
        plan = doc["plans"]["sdf"]
        assert plan["kind"] == "cluster-plan"
        for replica in plan["per_replica"]:
            assert replica["kind"] == "cluster-replica"


def _simulator(name):
    from repro.controlplane import ControlPlaneSimulator
    from repro.serving.simulator import ServingSimulator

    return {"serving": ServingSimulator, "cluster": ClusterSimulator,
            "controlplane": ControlPlaneSimulator}[name]


class TestReplicaKeywords:
    """Replica keywords are declared and checked once, by
    ``ReplicaConfig``; every simulator forwards its own to it."""

    def test_replica_rejects_unknown_engine(self):
        with pytest.raises(ServingError, match="engine must be one of"):
            Replica(0, TINY, get_gpu("t4"), engine="epoc")

    @pytest.mark.parametrize("simulator", ["serving", "cluster",
                                           "controlplane"])
    @pytest.mark.parametrize("keywords,error", [
        ({"chunk_tokns": 128}, TypeError),
        ({"engine": "epoc"}, ServingError),
    ])
    def test_bad_replica_keyword_fails_in_constructor(self, simulator,
                                                      keywords, error):
        """Never later, in ``run()``."""
        with pytest.raises(error):
            _simulator(simulator)(TINY, "t4", plan="sdf",
                                  requests=tiny_requests(), **keywords)

    @pytest.mark.parametrize("keywords", [
        {"tp": 2}, {"pp": 2}, {"ep": 2}, {"tp": 1},
        {"interconnect": NVLINK3}, {"algorithm": "tree"},
    ])
    def test_serving_simulator_is_one_gpu(self, keywords):
        """The sharding keywords are the cluster's; serve-sim's report
        has no field to echo them."""
        from repro.serving.simulator import (
            ServingSimulator,
            simulate_serving,
        )

        with pytest.raises(TypeError, match="one GPU"):
            ServingSimulator(TINY, "t4", plan="sdf",
                             requests=tiny_requests(), **keywords)
        with pytest.raises(TypeError, match="one GPU"):
            simulate_serving(TINY, "t4", rate=1.0, duration=1.0,
                             plans=("sdf",), **keywords)

    @pytest.mark.parametrize("simulator", ["serving", "cluster",
                                           "controlplane"])
    def test_every_simulator_forwards_max_epoch(self, simulator):
        """Epochs of any length are bit-identical to the default's."""
        def doc(**keywords):
            report = _simulator(simulator)(
                TINY, "t4", plan="sdf", requests=tiny_requests(),
                **keywords).run()
            return json.dumps(report.to_dict(), sort_keys=True)

        assert doc(max_epoch=1) == doc()


class TestRequestBlock:
    """The one aggregator every report's request block comes from."""

    @staticmethod
    def served(n=40, seed=0):
        """``n`` finished requests with distinct, irregular latencies."""
        from repro.serving.requests import RequestStatus

        rng = np.random.default_rng(seed)
        requests = []
        for i, arrival in enumerate(np.cumsum(rng.exponential(0.1, n))):
            request = Request(request_id=i, arrival_time=float(arrival),
                              prompt_len=64, output_len=5)
            request.first_token_time = request.arrival_time + float(
                rng.uniform(0.01, 0.3))
            request.finish_time = request.first_token_time + float(
                rng.uniform(0.01, 0.2))
            request.generated = 5
            request.status = RequestStatus.FINISHED
            requests.append(request)
        return requests

    def test_exact_block_is_independent_of_replica_split(self):
        from repro.serving.metrics import request_block

        requests = self.served()
        whole = request_block([SimpleNamespace(requests=requests)],
                              makespan=5.0)
        for split in (3, 4):
            shards = [SimpleNamespace(requests=requests[i::split][::-1])
                      for i in range(split)]
            assert request_block(shards, makespan=5.0) == whole
        assert whole["finished"] == whole["num_requests"] == 40
        assert whole["approx_percentiles"] is False

    def test_mix_of_retained_and_streaming_is_rejected(self):
        from repro.serving.metrics import request_block

        with pytest.raises(ServingError, match="mix"):
            request_block([SimpleNamespace(requests=self.served()),
                           SimpleNamespace(requests=None)], makespan=1.0)

    def test_zero_makespan_rates_are_totals(self):
        from repro.serving.metrics import request_block

        block = request_block([SimpleNamespace(requests=self.served(4))],
                              makespan=0.0)
        assert block["throughput_requests_per_s"] == 4
        assert block["throughput_tokens_per_s"] == 20

    def test_unserved_request_counts_only_as_arrival(self):
        from repro.serving.metrics import request_block
        from repro.serving.requests import RequestStatus

        requests = self.served(3)
        shed = Request(request_id=3, arrival_time=9.0, prompt_len=64,
                       output_len=5)
        refused = Request(request_id=4, arrival_time=9.5, prompt_len=64,
                          output_len=5, status=RequestStatus.REJECTED)
        block = request_block(
            [SimpleNamespace(requests=requests + [shed, refused])],
            makespan=10.0)
        assert (block["num_requests"], block["finished"],
                block["rejected"]) == (5, 3, 1)

    def test_streaming_block_merges_accumulators(self):
        from repro.serving.metrics import LatencyAccumulator, request_block

        streams = []
        for part in (self.served(seed=1), self.served(seed=2)):
            ttft, tpot, e2e = (LatencyAccumulator() for _ in range(3))
            for r in part:
                ttft.add(r.ttft)
                tpot.add(r.tpot)
                e2e.add(r.e2e_latency)
            streams.append(SimpleNamespace(
                requests=None, finished=len(part), rejected=1,
                generated_tokens=5 * len(part), ttft=ttft, tpot=tpot,
                e2e=e2e))
        block = request_block(streams, makespan=2.0)
        assert block["approx_percentiles"] is True
        assert (block["num_requests"], block["finished"],
                block["rejected"]) == (82, 80, 2)
        assert block["ttft"].mean == pytest.approx(np.mean(
            [r.ttft for seed in (1, 2) for r in self.served(seed=seed)]))
