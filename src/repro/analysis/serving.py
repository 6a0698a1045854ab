"""Serving-level comparison tables.

Turns a :class:`~repro.serving.metrics.ServingReport` into the
human-readable summary the ``serve-sim`` CLI prints in table mode: one
row per attention plan with the SLO numbers side by side, plus a
one-line verdict on the serving-level speedup of the recomposed
softmax (the deployment translation of the paper's Fig. 8 kernel
speedups).
"""

from __future__ import annotations

from repro.analysis.reporting import render_table
from repro.serving.metrics import ServingReport


def stream_phrase(report) -> str:
    """How a serve-sim or cluster-sim report's header names its stream:
    the synthetic rate, window and seed, or a trace replay."""
    if report.rate is None:
        return f"trace replay of {report.num_requests} requests"
    return (f"rate {report.rate:g} req/s for {report.duration:g}s "
            f"(seed {report.seed}, {report.num_requests} requests)")


def render_serving_comparison(report: ServingReport) -> str:
    """Side-by-side plan comparison of one ``serve-sim`` run."""
    rows = []
    for name, plan in report.plans.items():
        rows.append([
            name,
            f"{plan.finished}/{plan.num_requests}",
            f"{plan.ttft.p50 * 1e3:.0f}/{plan.ttft.p99 * 1e3:.0f}",
            f"{plan.tpot.p50 * 1e3:.2f}/{plan.tpot.p99 * 1e3:.2f}",
            f"{plan.e2e.p99:.2f} s",
            f"{plan.throughput_tokens_per_s:.1f}",
            f"{plan.preemption_events}",
            f"{plan.kv_peak_fraction * 100:.0f}%",
        ])
    table = render_table(
        ["plan", "finished", "TTFT p50/p99 (ms)", "TPOT p50/p99 (ms)",
         "E2E p99", "tokens/s", "preempt", "KV peak"],
        rows,
    )
    header = f"{report.model} on {report.gpu} — {stream_phrase(report)}"
    lines = [header, "", table]
    if "baseline" in report.plans and "sdf" in report.plans:
        lines += ["", f"serving throughput, sdf over baseline: "
                      f"{report.speedup():.3f}x"]
    return "\n".join(lines)
