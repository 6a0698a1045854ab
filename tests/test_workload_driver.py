"""Tests for the bucketed dataset latency driver."""

import pytest

from repro.common import ShapeError
from repro.common.errors import MetricsError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.workloads import SyntheticTriviaQA
from repro.workloads.driver import DatasetBenchmark, DatasetLatencyReport


@pytest.fixture(scope="module")
def dataset():
    return SyntheticTriviaQA(num_documents=64, seed=3)


@pytest.fixture(scope="module")
def bert_report(dataset):
    return DatasetBenchmark(dataset, "bert-large", max_seq_len=4096,
                            bucket=512).run()


class TestDriver:
    def test_all_documents_accounted(self, dataset, bert_report):
        assert bert_report.num_documents == 64

    def test_buckets_are_multiples(self, bert_report):
        for length in bert_report.histogram:
            assert length % 512 == 0
            assert 512 <= length <= 4096

    def test_long_documents_truncate_to_max(self, dataset, bert_report):
        n_long = int((dataset.lengths() > 4096).sum())
        assert bert_report.histogram.get(4096, 0) >= n_long

    def test_latency_monotone_in_bucket(self, bert_report):
        lengths = sorted(bert_report.bucket_latency)
        latencies = [bert_report.bucket_latency[length] for length in lengths]
        assert latencies == sorted(latencies)

    def test_aggregates_consistent(self, bert_report):
        assert bert_report.mean_latency == pytest.approx(
            bert_report.total_time / 64
        )
        assert bert_report.throughput == pytest.approx(
            64 / bert_report.total_time
        )
        p50 = bert_report.percentile_latency(50)
        p95 = bert_report.percentile_latency(95)
        assert p50 <= p95

    def test_recomposition_improves_corpus_mean(self, dataset):
        base = DatasetBenchmark(dataset, "bert-large",
                                plan=PlanSource.of("baseline")).run()
        sdf = DatasetBenchmark(dataset, "bert-large",
                               plan=PlanSource.of("sdf")).run()
        assert base.mean_latency / sdf.mean_latency > 1.1

    def test_sparse_model_buckets(self, dataset):
        report = DatasetBenchmark(dataset, "longformer-large",
                                  max_seq_len=4096, bucket=1024).run()
        assert report.num_documents == 64
        assert all(length % 1024 == 0 for length in report.histogram)

    def test_bucket_must_divide_block(self, dataset):
        with pytest.raises(ShapeError):
            DatasetBenchmark(dataset, "bert-large", bucket=100)

    def test_max_len_must_divide_bucket(self, dataset):
        with pytest.raises(ShapeError):
            DatasetBenchmark(dataset, "bert-large", max_seq_len=4000,
                             bucket=512)

    def test_bucketing_saves_vs_fixed_padding(self, dataset):
        """Dynamic buckets beat padding everything to max_seq_len."""
        bucketed = DatasetBenchmark(dataset, "bert-large", bucket=512).run()
        fixed = DatasetBenchmark(dataset, "bert-large", bucket=4096).run()
        assert bucketed.total_time < fixed.total_time


class TestEmptyCorpus:
    """An empty corpus must yield all-zero aggregates, not crashes —
    the same convention as ``LatencyStats.from_values([])``."""

    @pytest.fixture()
    def empty_report(self):
        return DatasetLatencyReport(
            model=get_model("bert-large"), gpu=get_gpu("A100"),
            plan=AttentionPlan.BASELINE, max_seq_len=4096, bucket=512,
        )

    def test_all_zero_aggregates(self, empty_report):
        assert empty_report.num_documents == 0
        assert empty_report.total_time == 0.0
        assert empty_report.mean_latency == 0.0
        assert empty_report.throughput == 0.0
        assert empty_report.percentile_latency(50) == 0.0
        assert empty_report.percentile_latency(99) == 0.0

    @pytest.mark.parametrize("q", [-1, 100.5, 1e6])
    def test_out_of_range_percentile_rejected(self, empty_report, q):
        with pytest.raises(MetricsError):
            empty_report.percentile_latency(q)

    def test_percentile_matches_serving_metrics(self, bert_report):
        """The driver's percentile is the serving layer's percentile."""
        from repro.serving.metrics import percentile

        latencies = [
            bert_report.bucket_latency[length]
            for length in sorted(bert_report.histogram)
            for _ in range(bert_report.histogram[length])
        ]
        assert bert_report.percentile_latency(95) == percentile(
            latencies, 95)
