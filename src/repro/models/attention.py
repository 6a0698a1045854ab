"""The scaled dot-product attention (SDA) block under every plan.

:class:`SDABlock` builds one attention layer's baseline kernel graph —
dense (:func:`~repro.core.recompose.build_dense_sda_graph`, including
causal and cross-attention) or block-sparse
(:func:`~repro.core.recompose.build_sparse_sda_graph`) — and rewrites
it with the chosen plan's passes
(:func:`~repro.core.recompose.apply_plan`).  Pricing launches the
rewritten graph's kernels; :meth:`SDABlock.forward` executes the same
graph numerically.

Scale and mask ride the first MatMul's epilogue in every plan — the
paper's baseline already fuses element-wise layers (Section 2.3), so
the comparison isolates the softmax recomposition itself.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import PlanError, ShapeError
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.core.recompose import (
    KEY_PADDING_UNSUPPORTED,
    AttentionContext,
    apply_plan,
    build_dense_sda_graph,
    build_sparse_sda_graph,
)
from repro.gpu.device import Device
from repro.kernels.base import Kernel
from repro.models.config import AttentionSpec


class _CausalBias:
    """Additive causal mask, materialised lazily (only when numerics run)."""

    def __init__(self, seq_len: int) -> None:
        self.seq_len = seq_len
        self._bias: Optional[np.ndarray] = None

    def __call__(self) -> np.ndarray:
        if self._bias is None:
            bias = np.zeros((self.seq_len, self.seq_len), dtype=np.float32)
            bias[np.triu_indices(self.seq_len, k=1)] = -np.inf
            self._bias = bias
        return self._bias


def _causal_block_bias(layout, block_index: int) -> np.ndarray:
    """Additive causal mask for one block of a block-sparse matrix."""
    bs = layout.block_size
    bi = layout.block_rows[block_index]
    bj = layout.block_cols[block_index]
    rows = np.arange(bi * bs, (bi + 1) * bs)[:, None]
    cols = np.arange(bj * bs, (bj + 1) * bs)[None, :]
    return np.where(cols > rows, -np.inf, 0.0).astype(np.float32)


class SDABlock:
    """One scaled dot-product attention block as a kernel pipeline.

    Parameters
    ----------
    batch:
        Inference batch size.
    num_heads, seq_len, d_head:
        Attention geometry; kernels fold batch and heads together.
    spec:
        The layer's :class:`~repro.models.config.AttentionSpec`.
    plan:
        The softmax execution plan (name or enum).
    t:
        Sub-vector size for the decomposed plans.  For block-sparse
        layers the sub-vector is the block width, per Section 3.4.
    """

    def __init__(
        self,
        *,
        batch: int,
        num_heads: int,
        seq_len: int,
        d_head: int,
        spec: AttentionSpec,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        layout_seed: int = 0,
        kv_seq_len: int = 0,
        key_padding_lengths: "np.ndarray | None" = None,
    ) -> None:
        require_positive("batch", batch)
        require_positive("num_heads", num_heads)
        require_positive("seq_len", seq_len)
        require_positive("d_head", d_head)
        if key_padding_lengths is not None:
            key_padding_lengths = np.asarray(key_padding_lengths)
            if key_padding_lengths.shape != (batch,):
                raise ShapeError(
                    f"key_padding_lengths must have shape ({batch},), got "
                    f"{key_padding_lengths.shape}"
                )
        self.key_padding_lengths = key_padding_lengths
        self.batch = batch
        self.num_heads = num_heads
        self.seq_len = seq_len
        # Cross-attention (decoder over encoder memory, Section 2.1)
        # has a rectangular L_q x L_kv attention matrix.
        self.kv_seq_len = kv_seq_len or seq_len
        self.d_head = d_head
        self.spec = spec
        self.plan = AttentionPlan.from_name(plan)
        self.dtype = dtype
        self.t = t
        self.scale = 1.0 / math.sqrt(d_head)
        self.batch_heads = batch * num_heads
        if self.kv_seq_len != self.seq_len and spec.is_sparse:
            raise PlanError(
                "block-sparse layouts are defined for square "
                "self-attention; cross-attention must be dense"
            )
        if key_padding_lengths is not None and spec.is_sparse:
            raise PlanError(KEY_PADDING_UNSUPPORTED)
        self.layout = spec.layout(seq_len, seed=layout_seed)
        if self.layout is None:
            graph = build_dense_sda_graph(
                self.batch_heads, seq_len, d_head,
                kv_seq_len=self.kv_seq_len, dtype=dtype,
                epilogue=self._dense_epilogue())
        else:
            graph = build_sparse_sda_graph(
                self.layout, self.batch_heads, d_head, dtype=dtype,
                epilogue=self._sparse_epilogue())
        #: The plan's pipeline: the base graph rewritten by its passes.
        self.graph = apply_plan(graph, AttentionContext(
            self.plan, t=t, scale=self.scale, causal=spec.is_causal,
            key_padding=key_padding_lengths is not None))
        self._kernels = tuple(node.kernel for node in self.graph.nodes)

    # -- score epilogues -------------------------------------------------

    def _padding_bias(self) -> "np.ndarray | None":
        """Additive key-padding mask, ``(batch*heads, 1, kv_len)``.

        Positions at or beyond each batch item's true length receive
        ``-inf`` — the standard variable-length-batch mask.  The cost
        model is unchanged: padded batches still run fixed-shape
        kernels, which is exactly why serving systems bucket by length.
        """
        if self.key_padding_lengths is None:
            return None
        positions = np.arange(self.kv_seq_len)[None, :]
        masked = positions >= self.key_padding_lengths[:, None]
        bias = np.where(masked, -np.inf, 0.0).astype(np.float32)
        bias = np.repeat(bias, self.num_heads, axis=0)
        return bias[:, None, :]

    def _dense_epilogue(self):
        scale = np.float32(self.scale)
        padding = self._padding_bias()
        if self.spec.is_causal:
            causal = _CausalBias(self.seq_len)
            if padding is None:
                return lambda s: s * scale + causal()
            return lambda s: s * scale + causal() + padding
        if padding is None:
            return lambda s: s * scale
        return lambda s: s * scale + padding

    def _sparse_epilogue(self):
        scale = np.float32(self.scale)
        if self.spec.is_causal:
            def epilogue(blocks, layout):
                # All nonzero blocks' biases at once: same elementwise
                # adds as the per-block loop over _causal_block_bias.
                bs = layout.block_size
                rows = (layout.block_rows[:, None] * bs
                        + np.arange(bs)[None, :])
                cols = (layout.block_cols[:, None] * bs
                        + np.arange(bs)[None, :])
                bias = np.where(
                    cols[:, None, :] > rows[:, :, None], -np.inf, 0.0
                ).astype(np.float32)
                return blocks * scale + bias[None]

            return epilogue
        return lambda blocks, layout: blocks * scale

    # -- execution -------------------------------------------------------

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """The pipeline's kernels, in launch order."""
        return self._kernels

    def simulate(self, device: Device) -> None:
        """Launch the pipeline on ``device`` without numerics."""
        for kernel in self._kernels:
            kernel.simulate(device)

    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        device: Optional[Device] = None,
    ) -> np.ndarray:
        """Numeric attention: ``(batch*heads, L, d_head)`` in and out.

        For cross-attention K and V carry ``kv_seq_len`` rows.
        """
        expected_q = (self.batch_heads, self.seq_len, self.d_head)
        expected_kv = (self.batch_heads, self.kv_seq_len, self.d_head)
        if tuple(q.shape) != expected_q:
            raise ShapeError(f"SDA Q shape {q.shape}, expected {expected_q}")
        for name, array in (("K", k), ("V", v)):
            if tuple(array.shape) != expected_kv:
                raise ShapeError(
                    f"SDA {name} shape {array.shape}, expected {expected_kv}"
                )
        inputs = {"Q": q, "K": k, "K_T": np.swapaxes(k, 1, 2), "V": v}
        return self.graph.run(device, inputs)["O"]
