"""Cluster-level comparison tables.

Turns a :class:`~repro.cluster.metrics.ClusterReport` into the summary
the ``cluster-sim`` CLI prints: one aggregate row per attention plan,
then a per-replica breakdown showing how the routing policy spread the
load and what the TP/PP collectives cost each replica.
"""

from __future__ import annotations

from repro.analysis.reporting import render_table
from repro.analysis.serving import stream_phrase
from repro.cluster.metrics import ClusterReport


def render_cluster_comparison(report: ClusterReport) -> str:
    """Aggregate + per-replica comparison of one ``cluster-sim`` run."""
    rows = []
    for name, plan in report.plans.items():
        rows.append([
            name,
            f"{plan.finished}/{plan.num_requests}",
            f"{plan.ttft.p50 * 1e3:.0f}/{plan.ttft.p99 * 1e3:.0f}",
            f"{plan.tpot.p50 * 1e3:.2f}/{plan.tpot.p99 * 1e3:.2f}",
            f"{plan.e2e.p99:.2f} s",
            f"{plan.throughput_tokens_per_s:.1f}",
            f"{plan.comm_fraction * 100:.1f}%",
        ])
    aggregate = render_table(
        ["plan", "finished", "TTFT p50/p99 (ms)", "TPOT p50/p99 (ms)",
         "E2E p99", "tokens/s", "comm"],
        rows,
    )
    header = (
        f"{report.model} on {report.replicas}x {report.tp}x{report.pp} "
        f"{report.gpu} ({report.interconnect}, {report.algorithm} "
        f"allreduce, {report.policy} routing) — {stream_phrase(report)}"
    )
    lines = [header, "", aggregate]

    for name, plan in report.plans.items():
        replica_rows = [
            [
                f"{r.replica_id}",
                f"{r.report.finished}/{r.report.num_requests}",
                f"{r.report.steps}",
                f"{r.report.generated_tokens}",
                f"{r.report.busy_time:.2f} s",
                f"{r.comm_fraction * 100:.1f}%",
                f"{r.report.kv_peak_fraction * 100:.0f}%",
            ]
            for r in plan.per_replica
        ]
        lines += ["", f"[{name}] per replica ({plan.per_replica[0].n_gpus} "
                      f"GPUs each)" if plan.per_replica else f"[{name}]",
                  render_table(
                      ["replica", "finished", "steps", "gen tokens",
                       "busy", "comm", "KV peak"],
                      replica_rows,
                  )]
    if "baseline" in report.plans and "sdf" in report.plans:
        lines += ["", f"cluster throughput, sdf over baseline: "
                      f"{report.speedup():.3f}x"]
    return "\n".join(lines)
