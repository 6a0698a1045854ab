"""Execution plans for the SDA block.

The evaluation (Section 5) compares three ways of running
``MatMul -> scale -> mask -> softmax -> MatMul``:

- ``BASELINE``   — monolithic softmax kernel between the two MatMuls
  (scale/mask fused into the first MatMul's epilogue, as TensorRT and
  DeepSpeed already do);
- ``DECOMPOSED`` — softmax decomposition only (SD): LS, IR and GS run
  as separate kernels.  Attention-matrix traffic of the softmax layer
  *doubles* (2 -> 4 sweeps) but the access pattern becomes streaming;
- ``RECOMPOSED`` — decomposition plus fusion (SDF): LS fused into the
  preceding MatMul, GS into the following MatMul, only IR standalone.
  Attention-matrix traffic halves overall (4 -> 2 sweeps, Fig. 6).

Two ablation plans isolate each fusion, and ``ONLINE`` swaps in the
online-softmax kernel [21] for the related-work comparison.
"""

from __future__ import annotations

import enum

from repro.common.errors import PlanError


class AttentionPlan(enum.Enum):
    """How the softmax layer of the SDA block is executed."""

    BASELINE = "baseline"
    DECOMPOSED = "sd"
    RECOMPOSED = "sdf"
    #: Ablation: fuse only LS into the preceding MatMul; GS standalone.
    FUSED_LS_ONLY = "sdf-ls-only"
    #: Ablation: fuse only GS into the following MatMul; LS standalone.
    FUSED_GS_ONLY = "sdf-gs-only"
    #: Related work: single-pass online softmax, unfused.
    ONLINE = "online"
    #: Related work: TurboTransformers batched softmax [9], unfused;
    #: only supports short rows (<= 1024).
    TURBO = "turbo"
    #: Related work: the whole MHA block as one kernel
    #: (FasterTransformer style) — zero attention-matrix traffic, but
    #: only feasible for short sequences (Section 7).
    FULLY_FUSED = "fused-mha"
    #: Forward-looking: FlashAttention-style tiled online-softmax
    #: attention — zero attention-matrix traffic at any length.
    FLASH = "flash"

    @classmethod
    def from_name(cls, name: "str | AttentionPlan") -> "AttentionPlan":
        """Parse a plan from its short name (``"baseline"``, ``"sd"``,
        ``"sdf"``, ...)."""
        if isinstance(name, cls):
            return name
        for plan in cls:
            if plan.value == str(name).lower():
                return plan
        known = ", ".join(p.value for p in cls)
        raise PlanError(f"unknown plan {name!r}; known plans: {known}")

    @property
    def uses_decomposition(self) -> bool:
        """Whether the plan splits softmax into LS/IR/GS."""
        return self in (
            AttentionPlan.DECOMPOSED,
            AttentionPlan.RECOMPOSED,
            AttentionPlan.FUSED_LS_ONLY,
            AttentionPlan.FUSED_GS_ONLY,
        )


def attention_matrix_sweeps(plan: AttentionPlan) -> int:
    """Off-chip sweeps of the attention matrix across the whole SDA
    block (write + read each count once) — the Fig. 6 audit.

    Read off the plan's kernel graph: the accesses of the raw, locally
    softmaxed and normalised matrix buffers.  Baseline: QK^T writes
    it, softmax reads + writes, AV reads => 4.  SD: QK^T write, LS
    read/write, GS read/write, AV read => 6.  SDF: fused QK^T+LS
    write, fused GS+AV read => 2.  Flash and fully fused MHA: the
    matrix never leaves the SM => 0.
    """
    from repro.core.recompose import (
        AttentionContext,
        apply_plan,
        build_dense_sda_graph,
        matrix_sweeps,
    )

    graph = build_dense_sda_graph(1, 64, 64)
    return matrix_sweeps(apply_plan(graph, AttentionContext(plan)))
