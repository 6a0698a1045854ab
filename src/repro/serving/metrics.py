"""SLO metrics for simulated serving runs.

A serving system is judged on tail latency and sustained throughput,
not on any single forward pass.  This module distills a finished
simulation into the standard numbers:

- **TTFT** — time to first token: arrival until the prefill's output
  token is emitted.  Dominated by queueing plus prefill compute.
- **TPOT** — time per output token after the first: the decode cadence
  a streaming client observes.
- **throughput** — generated tokens (and finished requests) per second
  of makespan: the capacity number that decides how many GPUs a
  deployment needs.

Latency metrics report p50/p95/p99 and the mean; percentiles use the
linear-interpolation definition (:func:`numpy.percentile` default) so
reports are reproducible across runs and machines.  Below
:data:`EXACT_PERCENTILE_CUTOVER` finished requests a report's
percentiles are exact (computed from the retained per-request values,
byte-identical to every earlier release); above it the simulator stops
retaining per-request latencies and the same summaries come from the
streaming :class:`~repro.serving.sketch.QuantileSketch`, flagged
``approx_percentiles`` in the serialized envelope.

Every report — serve-sim's, each cluster replica's, the cluster
aggregate, the control plane's and each of its SLO tiers' — takes its
request block (request counts, generated tokens, the TTFT/TPOT/E2E
summaries, throughput) from one function, :func:`request_block`.
Exact blocks fold finished requests in stream order, so two
simulators that finish the same requests at the same times report
bit-identical numbers however the requests were spread over replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.common.errors import MetricsError, ServingError
from repro.serving.requests import RequestStatus
from repro.serving.sketch import QuantileSketch

#: Finished-request count up to which reports compute percentiles
#: exactly from retained values.  Above it, per-request latency lists
#: are not retained and percentiles come from the streaming sketch
#: (see docs/performance.md for the accuracy contract).
EXACT_PERCENTILE_CUTOVER = 8192

#: The percentile ranks every latency summary reports.
SUMMARY_RANKS = (50.0, 95.0, 99.0)


def percentiles(values, qs=SUMMARY_RANKS) -> "list[float]":
    """Linear-interpolation percentiles of ``values`` in one pass.

    Converts ``values`` to an ndarray exactly once and evaluates every
    rank from it — :func:`numpy.percentile` with a rank vector is
    bitwise-identical to repeated scalar calls, so this is a pure
    speedup.  Ranks must lie in [0, 100]; out-of-range ranks raise
    :class:`~repro.common.errors.MetricsError` rather than whatever
    :func:`numpy.percentile` would do with them.
    """
    qs = list(qs)
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise MetricsError(
                f"percentile rank must be in [0, 100], got {q!r}"
            )
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return [0.0 for _ in qs]
    return [float(p) for p in np.percentile(array, qs)]


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 if empty)."""
    return percentiles(values, (q,))[0]


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of one latency metric, in seconds."""

    mean: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_values(cls, values: "list[float]") -> "LatencyStats":
        """Summarize ``values``; all-zero when no samples exist."""
        if not values:
            return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0)
        array = np.asarray(values, dtype=np.float64)
        p50, p95, p99 = (float(p) for p in
                         np.percentile(array, SUMMARY_RANKS))
        return cls(mean=float(np.mean(array)), p50=p50, p95=p95, p99=p99)

    @classmethod
    def from_accumulator(cls, acc: "LatencyAccumulator") -> "LatencyStats":
        """Summarize a streamed metric; percentiles come from the
        sketch (mean stays exact up to summation order)."""
        if acc.count == 0:
            return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0)
        p50, p95, p99 = acc.sketch.quantiles(SUMMARY_RANKS)
        return cls(mean=acc.total / acc.count, p50=p50, p95=p95, p99=p99)

    def to_json(self) -> "dict[str, float]":
        """JSON-ready mapping."""
        return {"mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99}

    #: Latency summaries nest inside larger documents; the versioned
    #: envelope lives on the enclosing report.
    to_dict = to_json


class LatencyAccumulator:
    """O(1)-memory stream summary of one latency metric.

    Tracks the exact count and running sum (for the mean) next to a
    :class:`~repro.serving.sketch.QuantileSketch` (for the tail), so a
    million-request run never retains a per-request latency list.
    Accumulators merge associatively; :func:`request_block` merges
    per-replica accumulators in replica-id order so sharded runs are
    deterministic across worker counts.
    """

    __slots__ = ("count", "total", "sketch")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sketch = QuantileSketch()

    def add(self, value: float) -> None:
        """Fold one observation in."""
        self.count += 1
        self.total += value
        self.sketch.add(value)

    def merge(self, other: "LatencyAccumulator") -> None:
        """Fold ``other``'s summary in (order-sensitive; see class doc)."""
        self.count += other.count
        self.total += other.total
        self.sketch.merge(other.sketch)


def per_second(amount: float, makespan: float) -> float:
    """``amount`` per second of ``makespan``; a run with no makespan
    divides by one second, so its rates read as totals."""
    return amount / (makespan if makespan > 0 else 1.0)


def request_block(outcomes, *, makespan: float) -> "dict[str, object]":
    """The request block every report shares, as constructor fields.

    The one place finished requests become latency statistics.
    ``outcomes`` are per-replica
    :class:`~repro.cluster.replica.ReplicaOutcome` records, or any
    object carrying the ``requests`` it retained:

    - if every outcome retained its requests, the block is exact over
      their union, folded in stream order (arrival time, ties by id),
      so it does not depend on which replica served which request;
    - if every outcome streamed (``requests is None``), the summaries
      come from the outcomes' latency accumulators, merged in the
      order given, and the block is flagged ``approx_percentiles``
      (a single outcome's accumulators are summarized as they stand);
    - a mix is rejected: it would silently bias the union.

    Finished requests feed the latency summaries and the generated
    tokens; ``rejected`` counts requests the scheduler refused, so a
    request neither finished nor refused (shed, or still in flight)
    counts only toward ``num_requests``.  Rates are
    :func:`per_second` of ``makespan``.
    """
    retained = [o.requests for o in outcomes if o.requests is not None]
    exact = len(retained) == len(outcomes)
    if exact:
        # Stream order, as :func:`~repro.serving.requests.request_stream`
        # sorts: two stable sorts avoid building a key tuple per request.
        requests = [r for group in retained for r in group]
        requests.sort(key=attrgetter("request_id"))
        requests.sort(key=attrgetter("arrival_time"))
        done = [r for r in requests if r.finish_time is not None]
        num_requests, finished = len(requests), len(done)
        rejected = sum(1 for r in requests
                       if r.status is RequestStatus.REJECTED)
        generated = sum(r.generated for r in done)
        # One latency list alive at a time: they are the largest
        # transient allocation of a report.
        ttft, tpot, e2e = (
            LatencyStats.from_values([getattr(r, metric) for r in done])
            for metric in ("ttft", "tpot", "e2e_latency"))
    elif retained:
        raise ServingError(
            "cannot aggregate a mix of retained and streaming "
            "replica outcomes"
        )
    else:
        finished = sum(o.finished for o in outcomes)
        rejected = sum(o.rejected for o in outcomes)
        num_requests = finished + rejected
        generated = sum(o.generated_tokens for o in outcomes)

        def merged(metric: str) -> LatencyAccumulator:
            # Merging into an empty accumulator recompresses the
            # sketch, which can move a centroid by an ulp.
            if len(outcomes) == 1:
                return getattr(outcomes[0], metric)
            acc = LatencyAccumulator()
            for outcome in outcomes:
                acc.merge(getattr(outcome, metric))
            return acc

        ttft, tpot, e2e = (LatencyStats.from_accumulator(merged(metric))
                           for metric in ("ttft", "tpot", "e2e"))
    return dict(
        num_requests=num_requests,
        finished=finished,
        rejected=rejected,
        generated_tokens=generated,
        ttft=ttft,
        tpot=tpot,
        e2e=e2e,
        throughput_tokens_per_s=per_second(generated, makespan),
        throughput_requests_per_s=per_second(finished, makespan),
        approx_percentiles=not exact,
    )


@dataclass(frozen=True)
class PlanReport:
    """Serving-level results of one plan's simulation run."""

    plan: str
    num_requests: int
    finished: int
    rejected: int
    preemption_events: int
    preempted_requests: int
    makespan: float
    busy_time: float
    steps: int
    generated_tokens: int
    prefill_tokens: int
    ttft: LatencyStats
    tpot: LatencyStats
    e2e: LatencyStats
    throughput_tokens_per_s: float
    throughput_requests_per_s: float
    mean_step_tokens: float
    kv_peak_blocks: int
    kv_total_blocks: int
    kv_peak_bytes: int
    kv_peak_fraction: float
    #: Span/event summary of this plan's slice of the trace; ``None``
    #: when the run was not traced (the default), which keeps untraced
    #: serialized output byte-identical to pre-observability reports.
    trace_summary: "dict | None" = None
    #: True when the latency percentiles came from the streaming
    #: sketch instead of retained per-request values (runs above
    #: :data:`EXACT_PERCENTILE_CUTOVER`).  Omitted from JSON when
    #: False so small-scenario reports stay byte-identical to seed.
    approx_percentiles: bool = False

    @classmethod
    def from_run(cls, plan: str, replica, *,
                 trace_summary: "dict | None" = None) -> "PlanReport":
        """The report of a finished
        :class:`~repro.cluster.replica.Replica` (serve-sim's one
        replica, after the drive loop drained)."""
        return cls.from_aggregates(plan, replica.outcome(),
                                   trace_summary=trace_summary)

    @classmethod
    def from_aggregates(cls, plan: str, outcome, *,
                        trace_summary: "dict | None" = None,
                        ) -> "PlanReport":
        """One replica's report from its
        :class:`~repro.cluster.replica.ReplicaOutcome`: the request
        block from :func:`request_block`, everything else from the
        replica's own counters."""
        block = request_block([outcome], makespan=outcome.clock)
        steps = outcome.steps
        memory = outcome.memory
        return cls(
            plan=plan,
            preemption_events=outcome.preemption_events,
            preempted_requests=outcome.preempted_requests,
            makespan=outcome.clock,
            busy_time=outcome.busy,
            steps=steps,
            prefill_tokens=outcome.prefill_tokens,
            mean_step_tokens=(
                (outcome.prefill_tokens + block["generated_tokens"]) / steps
                if steps else 0.0),
            kv_peak_blocks=memory.peak_blocks,
            kv_total_blocks=memory.total_blocks,
            kv_peak_bytes=memory.peak_bytes,
            kv_peak_fraction=memory.peak_bytes / outcome.hbm_bytes,
            trace_summary=trace_summary,
            **block,
        )

    def to_json(self) -> "dict[str, object]":
        """JSON-ready mapping (plain scalars and nested dicts only)."""
        doc: "dict[str, object]" = {
            "plan": self.plan,
            "num_requests": self.num_requests,
            "finished": self.finished,
            "rejected": self.rejected,
            "preemption_events": self.preemption_events,
            "preempted_requests": self.preempted_requests,
            "makespan_s": self.makespan,
            "busy_time_s": self.busy_time,
            "steps": self.steps,
            "generated_tokens": self.generated_tokens,
            "prefill_tokens": self.prefill_tokens,
            "ttft_s": self.ttft.to_json(),
            "tpot_s": self.tpot.to_json(),
            "e2e_s": self.e2e.to_json(),
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "throughput_requests_per_s": self.throughput_requests_per_s,
            "mean_step_tokens": self.mean_step_tokens,
            "kv_peak_blocks": self.kv_peak_blocks,
            "kv_total_blocks": self.kv_total_blocks,
            "kv_peak_bytes": self.kv_peak_bytes,
            "kv_peak_fraction": self.kv_peak_fraction,
        }
        if self.trace_summary is not None:
            doc["trace_summary"] = self.trace_summary
        if self.approx_percentiles:
            doc["approx_percentiles"] = True
        return doc

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict("serving-plan", **self.to_json())


@dataclass(frozen=True)
class ServingReport:
    """Full report of one ``serve-sim`` invocation: config + per-plan
    results, serializable to a deterministic JSON document."""

    model: str
    gpu: str
    #: The synthetic stream's rate, duration and seed; ``None`` for a
    #: trace replay, which has none.
    rate: "float | None"
    duration: "float | None"
    seed: "int | None"
    num_requests: int
    plans: "dict[str, PlanReport]"
    #: Full-trace summary (all plans, metrics included); ``None`` when
    #: the run was not traced.
    trace_summary: "dict | None" = None
    #: Arrival-process parameters (``ArrivalProcess.describe()``, or
    #: ``{"kind": "trace"}`` for a replay); ``None`` for the default
    #: stationary Poisson stream, which keeps historical serialized
    #: output byte-identical.
    arrival: "dict | None" = None

    def to_json(self) -> "dict[str, object]":
        """JSON-ready mapping; key order is fixed by ``sort_keys``.
        Fields that are ``None`` are left out."""
        doc = {
            "model": self.model,
            "gpu": self.gpu,
            "rate": self.rate,
            "duration_s": self.duration,
            "seed": self.seed,
            "num_requests": self.num_requests,
            "plans": {name: report.to_json()
                      for name, report in self.plans.items()},
            "arrival": self.arrival,
            "trace_summary": self.trace_summary,
        }
        return {key: value for key, value in doc.items()
                if value is not None}

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict("serving-report", **self.to_json())

    def speedup(self, baseline: str = "baseline",
                candidate: str = "sdf") -> float:
        """Sustained-throughput ratio of ``candidate`` over ``baseline``."""
        base = self.plans[baseline].throughput_tokens_per_s
        cand = self.plans[candidate].throughput_tokens_per_s
        if base == 0:
            return 0.0
        return cand / base
