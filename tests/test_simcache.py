"""Simulation-cache correctness: hits, invalidation, the escape hatch."""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.errors import DeviceError
from repro.gpu import simcache
from repro.gpu.costmodel import time_kernel
from repro.gpu.specs import get_gpu
from repro.kernels.matmul import MatMulKernel
from repro.models.runtime import InferenceSession
from repro.serving.costmodel import StepCostModel


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    """Each test starts with empty, enabled caches."""
    monkeypatch.delenv(simcache.ENV_VAR, raising=False)
    simcache.invalidate()
    yield
    simcache.invalidate()


def _launch():
    return MatMulKernel(batch=4, m=256, n=256, k=64).launch_spec(
        get_gpu("A100")
    )


class TestKernelCache:
    def test_hit_returns_equal_timing(self):
        spec = get_gpu("A100")
        launch = _launch()
        first = time_kernel(spec, launch)
        second = time_kernel(spec, launch)
        assert first == second
        stats = simcache.stats()["kernel"]
        assert stats.hits >= 1 and stats.misses >= 1

    def test_distinct_keys_miss(self):
        launch = _launch()
        time_kernel(get_gpu("A100"), launch)
        before = simcache.stats()["kernel"].misses
        time_kernel(get_gpu("T4"), launch)
        assert simcache.stats()["kernel"].misses == before + 1

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        spec, launch = get_gpu("A100"), _launch()
        time_kernel(spec, launch)
        time_kernel(spec, launch)
        stats = simcache.stats()["kernel"]
        assert stats.hits == 0
        assert len(simcache.kernel_cache) == 0

    def test_disabled_matches_enabled(self, monkeypatch):
        spec, launch = get_gpu("A100"), _launch()
        cached = time_kernel(spec, launch)
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        assert time_kernel(spec, launch) == cached


class TestStepCache:
    @staticmethod
    def _step():
        from repro.models.config import get_model
        from repro.models.generation import attention_step_kernels

        return attention_step_kernels(get_model("gpt-neo-1.3b"), 0,
                                      m_tokens=512, kv_len=2048, plan="sdf")

    def test_hit_and_invalidate(self):
        first = self._step()
        assert self._step() == first
        stats = simcache.stats()["step"]
        assert (stats.hits, stats.misses) == (1, 1)
        simcache.invalidate()
        assert len(simcache.step_cache) == 0
        assert simcache.stats()["step"].lookups == 0

    def test_disabled_by_env(self, monkeypatch):
        spec = get_gpu("A100")
        cached = [k.launch_spec(spec) for k in self._step()]
        simcache.invalidate()
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        assert [k.launch_spec(spec) for k in self._step()] == cached
        assert len(simcache.step_cache) == 0
        assert simcache.stats()["step"].hits == 0


class TestSimulateCache:
    def test_hit_returns_same_object(self):
        session = InferenceSession("bert-large", seq_len=512)
        first = session.simulate()
        second = InferenceSession("bert-large", seq_len=512).simulate()
        assert second is first

    def test_cached_result_is_frozen(self):
        result = InferenceSession("bert-large", seq_len=512).simulate()
        assert result.profile.frozen
        with pytest.raises(DeviceError):
            result.profile.extend(result.profile)
        for _, _, group in result.layer_groups:
            assert group.frozen

    def test_key_sensitivity(self):
        a = InferenceSession("bert-large", seq_len=512).simulate()
        b = InferenceSession("bert-large", seq_len=1024).simulate()
        c = InferenceSession("bert-large", seq_len=512, plan="sdf").simulate()
        assert a is not b and a is not c
        assert simcache.stats()["simulate"].misses == 3

    def test_invalidate_clears(self):
        InferenceSession("bert-large", seq_len=512).simulate()
        assert len(simcache.simulate_cache) == 1
        simcache.invalidate()
        assert len(simcache.simulate_cache) == 0
        assert simcache.stats()["simulate"].lookups == 0

    def test_disabled_returns_fresh_unfrozen(self, monkeypatch):
        cached = InferenceSession("bert-large", seq_len=512).simulate()
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        fresh = InferenceSession("bert-large", seq_len=512).simulate()
        assert fresh is not cached
        assert not fresh.profile.frozen
        assert fresh.total_time == cached.total_time
        assert fresh.total_dram_bytes == cached.total_dram_bytes

    def test_disabled_values_match_enabled(self, monkeypatch):
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        off = InferenceSession("bigbird-large", seq_len=1024).simulate()
        monkeypatch.setenv(simcache.ENV_VAR, "1")
        on = InferenceSession("bigbird-large", seq_len=1024).simulate()
        assert on.total_time == off.total_time
        assert on.total_dram_bytes == off.total_dram_bytes
        assert np.isclose(on.offchip_energy, off.offchip_energy, rtol=0)


class TestCostTables:
    """Cost models of one configuration share their step-price tables."""

    BASE = dict(plan="sdf", dtype=DType.FP16, t=64, kv_bucket=64,
                tp_shards=1, ep_shards=1)

    @staticmethod
    def _moe():
        from repro.models.config import get_model
        from repro.models.moe import moe_overrides

        return moe_overrides(get_model("bert-large"), n_experts=4, top_k=2)

    def _tables(self, model=None, **change):
        cost = StepCostModel(model or self._moe(), "a100",
                             **{**self.BASE, **change})
        return cost._mlp_cache, cost._attn_cache

    def test_one_configuration_shares_tables(self):
        first, second = self._tables(), self._tables()
        assert all(a is b for a, b in zip(first, second))
        assert len(simcache.cost_tables) == 1
        assert simcache.stats()["cost"].hits == 1

    @pytest.mark.parametrize("change", [
        {"plan": "baseline"}, {"dtype": DType.FP32}, {"t": 128},
        {"kv_bucket": 128}, {"tp_shards": 2}, {"ep_shards": 2},
    ], ids=lambda change: next(iter(change)))
    def test_each_key_field_separates_tables(self, change):
        base, changed = self._tables(), self._tables(**change)
        assert not any(a is b for a, b in zip(base, changed))

    def test_model_separates_tables(self):
        from repro.models.config import get_model

        base = self._tables()
        dense = self._tables(model=get_model("bert-large"))
        assert not any(a is b for a, b in zip(base, dense))

    def test_prices_are_shared(self):
        first = StepCostModel("bert-large", "a100", plan="sdf")
        time = first.step_time(prefill=[(512, 512)], decode_kv=[100])
        second = StepCostModel("bert-large", "a100", plan="sdf")
        assert second.cache_sizes() == first.cache_sizes() != (0, 0)
        assert second.step_time(prefill=[(512, 512)],
                                decode_kv=[100]) == time

    @staticmethod
    def _sharded(**change):
        from repro.cluster.costmodel import ShardedStepCostModel
        from repro.gpu.interconnect import NVLINK3

        kwargs = dict(plan="sdf", tp=2, pp=1, interconnect=NVLINK3,
                      algorithm="ring")
        return ShardedStepCostModel("bert-large", "a100",
                                    **{**kwargs, **change})

    def test_sharded_comm_table_shared(self):
        first, second = self._sharded(), self._sharded()
        assert first._comm_cache is second._comm_cache
        assert first._attn_cache is second._attn_cache

    @pytest.mark.parametrize("change", ["pp", "interconnect", "algorithm"])
    def test_sharded_key_fields_separate_comm_tables(self, change):
        from repro.gpu.interconnect import PCIE4

        value = {"pp": 2, "interconnect": PCIE4, "algorithm": "tree"}
        base, changed = self._sharded(), self._sharded(
            **{change: value[change]})
        assert base._comm_cache is not changed._comm_cache
        # Collectives do not touch compute: those tables stay shared.
        assert base._attn_cache is changed._attn_cache

    def test_sharded_and_plain_share_compute_tables(self):
        sharded = self._sharded(tp=1)
        plain = StepCostModel("bert-large", "a100", plan="sdf")
        assert plain._attn_cache is sharded._attn_cache

    def test_disabled_gives_fresh_tables(self, monkeypatch):
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        first, second = self._tables(), self._tables()
        assert not any(a is b for a, b in zip(first, second))
        assert len(simcache.cost_tables) == 0


class TestLayoutCache:
    @staticmethod
    def _spec():
        from repro.models.config import get_model

        return get_model("bigbird-large").layer_attention(0)

    def test_hit_returns_same_layout(self):
        spec = self._spec()
        layout = spec.layout(1024)
        assert spec.layout(1024) is layout
        assert spec.layout(1024, seed=1) is not layout
        assert spec.layout(2048) is not layout
        stats = simcache.stats()["layout"]
        assert (stats.hits, stats.misses) == (1, 3)

    def test_cached_layout_is_read_only(self):
        layout = self._spec().layout(1024)
        for array in (layout.mask, layout.block_rows, layout.block_cols):
            with pytest.raises(ValueError):
                array[0] = 0
        edited = layout.mask.copy()
        edited[0, 0] = False
        assert layout.mask[0, 0]

    def test_disabled_matches_enabled(self, monkeypatch):
        cached = self._spec().layout(1024)
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        fresh = self._spec().layout(1024)
        assert fresh is not cached
        assert np.array_equal(fresh.mask, cached.mask)

    def test_dense_has_no_layout(self):
        from repro.models.config import get_model

        assert get_model("bert-large").layer_attention(0).layout(1024) \
            is None
        assert len(simcache.layout_cache) == 0


class TestInvalidate:
    def test_empties_cost_and_layout(self):
        StepCostModel("bert-large", "a100")
        TestLayoutCache._spec().layout(1024)
        assert len(simcache.cost_tables) and len(simcache.layout_cache)
        assert {"cost", "layout"} <= set(simcache.stats())
        simcache.invalidate()
        assert len(simcache.cost_tables) == len(simcache.layout_cache) == 0
        assert simcache.stats()["cost"].lookups == 0
        assert simcache.stats()["layout"].lookups == 0


class TestSentinel:
    """``SimCache.get`` must distinguish absence from cached falsy
    values with its private sentinel, never with ``None`` comparison."""

    def test_cached_none_is_a_hit(self):
        cache = simcache.SimCache("falsy")
        cache.put("k", None)
        assert cache.get("k", simcache.MISSING) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    @pytest.mark.parametrize("value", [None, 0, 0.0, "", [], {}, False])
    def test_cached_falsy_values_round_trip(self, value):
        cache = simcache.SimCache("falsy")
        cache.put("k", value)
        got = cache.get("k", simcache.MISSING)
        assert got is not simcache.MISSING
        assert got == value
        assert cache.stats.hits == 1

    def test_absent_key_returns_default(self):
        cache = simcache.SimCache("falsy")
        assert cache.get("k") is None
        assert cache.get("k", simcache.MISSING) is simcache.MISSING
        assert cache.get("k", 42) == 42
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_accounting_across_env_flip(self, monkeypatch):
        """Hit/miss counters stay consistent when REPRO_SIMCACHE is
        flipped mid-run: disabled lookups are misses and never expose
        stored entries."""
        cache = simcache.SimCache("flip")
        cache.put("k", 7)
        assert cache.get("k", simcache.MISSING) == 7
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        assert cache.get("k", simcache.MISSING) is simcache.MISSING
        cache.put("other", 1)  # no-op while disabled
        monkeypatch.delenv(simcache.ENV_VAR)
        assert cache.get("k", simcache.MISSING) == 7
        assert cache.get("other", simcache.MISSING) is simcache.MISSING
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.lookups == 4


class TestStats:
    def test_hit_rate(self):
        spec, launch = get_gpu("A100"), _launch()
        time_kernel(spec, launch)
        time_kernel(spec, launch)
        time_kernel(spec, launch)
        stats = simcache.stats()["kernel"]
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_cache_rate_zero(self):
        assert simcache.stats()["simulate"].hit_rate == 0.0


class TestWorkloadEquivalence:
    """Whole workloads agree to the last ulp with the caches off
    (serial) and on (cold then warm, fanned across workers)."""

    @staticmethod
    def _fig9a_sweep(jobs):
        from repro.models import all_models
        from repro.workloads import SweepPoint, SweepRunner

        points = [
            SweepPoint.make(model.name, plan=plan, seq_len=seq_len)
            for model in all_models()
            for seq_len in (512, 1024)
            for plan in ("baseline", "sdf")
        ]
        return [r.total_time for r in SweepRunner(jobs=jobs).run(points)]

    @staticmethod
    def _driver(jobs):
        from repro.core.plansource import PlanSource
        from repro.workloads import DatasetBenchmark, SyntheticTriviaQA

        report = DatasetBenchmark(
            SyntheticTriviaQA(num_documents=16, seed=7), "bigbird-large",
            plan=PlanSource.of("sdf"), max_seq_len=1024, jobs=jobs,
        ).run()
        return [report.bucket_latency[k] for k in sorted(report.bucket_latency)]

    @staticmethod
    def _controlplane(jobs):
        """A bursty autoscaled fleet with a death: its cold-started
        replicas price steps through the shared cost tables.  (The
        control plane runs in one process; ``jobs`` does not apply.)"""
        from repro.controlplane import (
            AutoscalerConfig,
            FailureSchedule,
            simulate_controlplane,
        )
        from repro.serving import make_arrival

        report = simulate_controlplane(
            "bert-large", "a100", rate=2.0, duration=6.0, seed=0,
            arrival=make_arrival("mmpp", rate=2.0, burst_rate=10.0),
            replicas=2, autoscaler=AutoscalerConfig(),
            faults=FailureSchedule(deaths=(1.5,)),
        ).to_dict()
        control = report["plans"]["sdf"]["controlplane"]
        assert control["cold_starts"] > 0
        assert [f["kind"] for f in control["faults"]] == ["death"]
        return report

    @pytest.mark.parametrize("workload",
                             ["_fig9a_sweep", "_driver", "_controlplane"],
                             ids=["fig9a-sweep", "triviaqa-driver",
                                  "controlplane"])
    def test_cache_off_serial_equals_cache_on_parallel(self, monkeypatch,
                                                       workload):
        run = getattr(self, workload)
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        off = run(1)
        monkeypatch.setenv(simcache.ENV_VAR, "1")
        simcache.invalidate()
        assert run(2) == off
        assert run(2) == off
