"""Sweep engine: serial/parallel equivalence and deterministic merge."""

import pytest

from repro.cli import main as cli_main
from repro.common.errors import ConfigError
from repro.core.plansource import PlanSource
from repro.gpu import simcache
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.workloads import (
    DatasetBenchmark,
    SweepPoint,
    SweepRunner,
    SyntheticTriviaQA,
    simulate_point,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    simcache.invalidate()
    yield
    simcache.invalidate()


def _points():
    return [
        SweepPoint.make("bert-large", plan=plan, seq_len=seq_len)
        for seq_len in (512, 1024)
        for plan in ("baseline", "sdf")
    ]


def test_point_is_hashable_and_picklable():
    import pickle

    point = SweepPoint.make("bigbird-large", gpu="T4", plan="sd",
                            seq_len=2048)
    assert hash(point) == hash(pickle.loads(pickle.dumps(point)))
    assert point.model == get_model("bigbird-large")
    assert point.gpu == get_gpu("T4")


def test_simulate_point_matches_session():
    point = _points()[0]
    result = simulate_point(point)
    assert result.model == point.model
    assert result.seq_len == point.seq_len
    assert result.total_time > 0


def test_serial_results_in_input_order():
    points = _points()
    results = SweepRunner(jobs=1).run(points)
    assert [r.seq_len for r in results] == [p.seq_len for p in points]
    assert [r.plan for r in results] == [p.plan for p in points]


def test_parallel_equals_serial():
    points = _points()
    serial = SweepRunner(jobs=1).run(points)
    parallel = SweepRunner(jobs=4).run(points)
    assert [r.total_time for r in serial] == [r.total_time for r in parallel]
    assert ([r.total_dram_bytes for r in serial]
            == [r.total_dram_bytes for r in parallel])
    assert [r.plan for r in serial] == [r.plan for r in parallel]


def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        SweepRunner(jobs=0)


def test_map_latencies():
    points = _points()[:2]
    runner = SweepRunner(jobs=1)
    latencies = runner.map_latencies(points)
    assert len(latencies) == 2
    assert runner.points_run == 2
    assert all(t > 0 for t in latencies)


def test_driver_parallel_equals_serial():
    dataset = SyntheticTriviaQA(num_documents=48, seed=11)
    kwargs = dict(max_seq_len=2048, plan=PlanSource.of("sdf"))
    serial = DatasetBenchmark(dataset, "longformer-large", jobs=1,
                              **kwargs).run()
    parallel = DatasetBenchmark(dataset, "longformer-large", jobs=3,
                                **kwargs).run()
    assert serial.histogram == parallel.histogram
    assert serial.bucket_latency == parallel.bucket_latency
    assert serial.mean_latency == parallel.mean_latency


def test_cli_sweep_jobs_byte_identical(capsys):
    argv = ["sweep", "--model", "bert-large", "--values", "512,1024"]
    cli_main(argv + ["--jobs", "1"])
    serial = capsys.readouterr().out
    cli_main(argv + ["--jobs", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel
