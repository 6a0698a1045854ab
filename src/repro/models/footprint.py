"""Device-memory footprint model.

Section 2.2 motivates sparse attention with the *memory footprint* of
the attention matrix — O(L^2) per head for dense attention versus
O(L) for block-sparse — and Section 2.3 notes a single BERT-large
batch at L = 4096 carries a 512 MB attention matrix.  This module
computes the peak device-memory footprint of an inference configuration:
weights, resident activations, and the attention state of the plan's
kernel graph (:attr:`~repro.models.attention.SDABlock.graph`) — the
largest set of attention-matrix buffers (``X``, ``X'``, ``Y``) and of
softmax statistics (``m'``/``d'``/``r'``) resident at once:

- baseline, online and turbo hold the raw scores ``X`` and the softmax
  output ``Y`` (ping-pong: two attention-sized buffers);
- SD and the single-fusion ablations peak with two matrices live
  (``X``/``X'`` or ``X'``/``Y``), plus the 1/T-sized statistics;
- SDF materialises only ``X'`` plus the statistics — *halving* peak
  attention-matrix memory, a side benefit of the fusion;
- flash and fully fused MHA never write the matrix at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.core.plan import AttentionPlan
from repro.core.recompose import MATRIX_BUFFERS, STAT_BUFFERS
from repro.models.config import ModelConfig


@dataclass(frozen=True)
class MemoryFootprint:
    """Peak device-memory footprint of one inference configuration."""

    weights: int
    activations: int
    attention: int
    intermediates: int

    @property
    def total(self) -> int:
        """Total bytes resident at the peak."""
        return (self.weights + self.activations + self.attention
                + self.intermediates)


def weight_bytes(config: ModelConfig, dtype: DType = DType.FP16) -> int:
    """Parameter bytes of the model (per-layer matrices + biases).

    Mixture-of-experts configs carry ``n_experts`` copies of the FFN
    matrices plus the router gate per layer; the degenerate one-expert
    case is byte-identical to the dense formula.
    """
    d, dff = config.d_model, config.d_ff
    attention = 4 * d * d + 4 * d
    ffn = 2 * d * dff + dff + d
    n_experts = getattr(config, "n_experts", 1)
    if n_experts > 1:
        per_layer = attention + n_experts * ffn + d * n_experts
    else:
        per_layer = attention + ffn
    return config.num_layers * per_layer * dtype.nbytes


def inference_footprint(
    config: ModelConfig,
    *,
    seq_len: int,
    batch: int = 1,
    plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
    dtype: DType = DType.FP16,
    t: int = 64,
) -> MemoryFootprint:
    """Peak footprint of one inference (layers execute sequentially, so
    the peak is the heaviest single layer plus persistent state).

    Raises the plan's :class:`~repro.common.errors.PlanError` when it
    cannot run one of the model's layers, and
    :class:`~repro.common.errors.ShapeError` when a decomposing plan's
    ``t`` does not divide a dense layer's row.
    """
    from repro.models.attention import SDABlock

    # Persistent: weights + double-buffered hidden states + Q/K/V.
    activations = 5 * batch * seq_len * config.d_model * dtype.nbytes
    attention = intermediates = 0
    for spec, _ in config.unique_layer_specs():
        graph = SDABlock(batch=batch, num_heads=config.num_heads,
                         seq_len=seq_len, d_head=config.d_head, spec=spec,
                         plan=plan, dtype=dtype, t=t).graph
        attention = max(attention, graph.peak_live_bytes(MATRIX_BUFFERS))
        intermediates = max(intermediates,
                            graph.peak_live_bytes(STAT_BUFFERS))
    return MemoryFootprint(
        weights=weight_bytes(config, dtype),
        activations=activations,
        attention=attention,
        intermediates=intermediates,
    )
