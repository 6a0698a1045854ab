"""Softmax recomposition as kernel-graph rewrite passes.

Two passes implement Section 3 over the :mod:`repro.core.graph` IR:

- :func:`decompose_softmax_pass` — replaces each monolithic softmax
  node with LS -> IR -> GS nodes plus the m'/d'/r' statistic buffers
  (Section 3.2);
- :func:`fuse_softmax_pass` — merges each LS node into the MatMul that
  produces its input and each GS node into the MatMul that consumes
  its output (Section 3.3), provided the sub-vector size equals the
  MatMul output tile width.

:func:`recompose` composes the two.  Every attention plan is a pass
list over one base graph (:data:`PLAN_PASSES`, applied by
:func:`apply_plan`); a plan a shape cannot run raises from the pass
that needs the missing capability.  The base graphs are
:func:`build_dense_sda_graph` (dense, causal and cross-attention),
:func:`build_sparse_sda_graph` (block-sparse) and
:func:`build_attention_graph` over caller-built kernels (the
generation step of :mod:`repro.models.generation`).

A pass names each kernel it creates after the kernel it rewrites:
``<p>_softmax`` becomes ``<p>_ls``/``<p>_ir``/``<p>_gs``,
``<p>_qk_matmul`` becomes ``<p>_qk_ls_fused`` and ``<p>_av_matmul``
becomes ``<p>_gs_av_fused``; other names leave the new kernel its
class default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import PlanError, ShapeError
from repro.core.graph import KernelGraph, Node
from repro.core.plan import AttentionPlan
from repro.kernels.decomposed import (
    GlobalScaleKernel,
    INTERMEDIATE_BYTES,
    InterReductionKernel,
    LocalSoftmaxKernel,
)
from repro.kernels.fused import FusedGSMatMulKernel, FusedMatMulLSKernel
from repro.kernels.matmul import (
    MatMulKernel,
    attention_score_matmul,
    attention_value_matmul,
)
from repro.kernels.softmax import (
    BatchedRowSoftmaxKernel,
    OnlineRowSoftmaxKernel,
    RowSoftmaxKernel,
)
from repro.sparse.bsmatmul import (
    BlockSparseMatMulDSD,
    BlockSparseMatMulSDD,
    FusedBSGSMatMulDSD,
    FusedBSMatMulLSSDD,
)
from repro.sparse.bssoftmax import (
    BlockSparseGS,
    BlockSparseIR,
    BlockSparseLS,
    BlockSparseRowSoftmax,
)

#: Epilogue cost of scale + additive mask, CUDA-core FLOPs per element.
#: Scale and mask ride the score MatMul's epilogue under every plan —
#: the paper's baseline already fuses element-wise layers (Section
#: 2.3), so the comparison isolates the softmax recomposition itself.
SCALE_MASK_FLOPS = 2.0

#: Buffers holding the attention matrix (raw, locally softmaxed, and
#: normalised): their accesses are the Fig. 6 sweeps.
MATRIX_BUFFERS = ("X", "X.x_prime", "Y")

#: The per-sub-vector softmax statistics the decomposition adds.
STAT_BUFFERS = ("X.m_prime", "X.d_prime", "X.r_prime")

KEY_PADDING_UNSUPPORTED = (
    "key padding masks are supported for the dense epilogue-based plans "
    "(baseline/sd/sdf/online/turbo)"
)


def _renamed(kernel, suffix: str, new_suffix: str) -> dict:
    """``name=`` for a kernel a pass derives from ``kernel``."""
    tail = "_" + suffix
    if kernel.name.endswith(tail):
        return {"name": kernel.name[:-len(suffix)] + new_suffix}
    return {}


# -- base graphs -----------------------------------------------------------

def build_attention_graph(
    score: MatMulKernel, softmax: RowSoftmaxKernel, value: MatMulKernel
) -> KernelGraph:
    """``score -> softmax -> value`` as a graph, sized from the kernels.

    Buffers: ``Q``/``K_T``/``V`` in, ``X`` (raw attention matrix),
    ``Y`` (softmaxed attention matrix), ``O`` out.
    """
    graph = KernelGraph()
    nbytes = score.dtype.nbytes
    matrix = score.batch * score.m * score.n * nbytes
    for name, size in (("Q", score.batch * score.m * score.k * nbytes),
                       ("K_T", score.batch * score.k * score.n * nbytes),
                       ("V", value.batch * value.k * value.n * nbytes),
                       ("X", matrix), ("Y", matrix),
                       ("O", value.batch * value.m * value.n * nbytes)):
        graph.add_buffer(name, size)
    graph.add_node(score, inputs=("Q", "K_T"), outputs=("X",))
    graph.add_node(softmax, inputs=("X",), outputs=("Y",))
    graph.add_node(value, inputs=("Y", "V"), outputs=("O",))
    return graph


def build_dense_sda_graph(
    batch_heads: int,
    seq_len: int,
    d_head: int,
    *,
    kv_seq_len: int = 0,
    dtype: DType = DType.FP16,
    epilogue: Optional[Callable] = None,
    epilogue_flops_per_element: float = SCALE_MASK_FLOPS,
) -> KernelGraph:
    """The baseline dense SDA block as a kernel graph.

    ``kv_seq_len`` (default ``seq_len``) sets the key length of a
    rectangular cross-attention matrix.
    """
    score = attention_score_matmul(
        batch_heads, seq_len, d_head, kv_seq_len=kv_seq_len, dtype=dtype,
        epilogue=epilogue,
        epilogue_flops_per_element=epilogue_flops_per_element,
    )
    value = attention_value_matmul(batch_heads, seq_len, d_head,
                                   kv_seq_len=kv_seq_len, dtype=dtype)
    softmax = RowSoftmaxKernel(rows=batch_heads * seq_len, length=score.n,
                               dtype=dtype)
    return build_attention_graph(score, softmax, value)


def build_sparse_sda_graph(
    layout,
    batch_heads: int,
    d_head: int,
    *,
    dtype: DType = DType.FP16,
    epilogue: Optional[Callable] = None,
) -> KernelGraph:
    """The baseline block-sparse SDA block as a kernel graph.

    Buffers as :func:`build_dense_sda_graph`, except the score MatMul
    reads ``K`` itself (the SDD kernel transposes per block).
    """
    graph = KernelGraph()
    block_bytes = batch_heads * layout.nnz_elements() * dtype.nbytes
    operand = batch_heads * layout.seq_len * d_head * dtype.nbytes
    for name, nbytes in (("Q", operand), ("K", operand), ("V", operand),
                         ("X", block_bytes), ("Y", block_bytes),
                         ("O", operand)):
        graph.add_buffer(name, nbytes)
    graph.add_node(BlockSparseMatMulSDD(
        layout, batch_heads, d_head, dtype=dtype, epilogue=epilogue,
        epilogue_flops_per_element=SCALE_MASK_FLOPS,
    ), inputs=("Q", "K"), outputs=("X",))
    graph.add_node(BlockSparseRowSoftmax(layout, batch_heads, dtype=dtype),
                   inputs=("X",), outputs=("Y",))
    graph.add_node(BlockSparseMatMulDSD(layout, batch_heads, d_head,
                                        dtype=dtype),
                   inputs=("Y", "V"), outputs=("O",))
    return graph


# -- decomposition (Section 3.2) -------------------------------------------

def _decomposed_nodes(graph: KernelGraph, node: Node, ls, ir, gs,
                      stats_bytes: int) -> list[Node]:
    """LS -> IR -> GS nodes replacing ``node``, with their buffers."""
    (x_name,) = node.inputs
    (y_name,) = node.outputs
    x_prime, m_prime, d_prime, r_prime = (
        f"{x_name}.{s}" for s in ("x_prime", "m_prime", "d_prime",
                                  "r_prime"))
    graph.add_buffer(x_prime, graph.buffer(x_name).nbytes)
    for name in (m_prime, d_prime, r_prime):
        graph.add_buffer(name, stats_bytes)
    return [
        Node(kernel=ls, inputs=(x_name,),
             outputs=(x_prime, m_prime, d_prime)),
        Node(kernel=ir, inputs=(m_prime, d_prime), outputs=(r_prime,)),
        Node(kernel=gs, inputs=(x_prime, r_prime), outputs=(y_name,)),
    ]


def decompose_softmax_pass(graph: KernelGraph, t: int) -> int:
    """Replace every monolithic softmax node with LS -> IR -> GS.

    Handles both the dense row softmax and the block-sparse softmax
    (whose sub-vector size is its block width, ignoring ``t``).
    Returns the number of softmax nodes decomposed.  The statistic
    buffers are named after the softmax's input buffer
    (``<X>.m_prime`` etc.) so repeated decompositions stay distinct.
    """
    rewritten = 0
    for node in graph.nodes:
        kernel = node.kernel
        if type(kernel) is BlockSparseRowSoftmax:
            layout, batch, dtype = kernel.layout, kernel.batch, kernel.dtype
            new = _decomposed_nodes(
                graph, node,
                BlockSparseLS(layout, batch, dtype=dtype),
                BlockSparseIR(layout, batch),
                BlockSparseGS(layout, batch, dtype=dtype),
                batch * layout.nnz_blocks * layout.block_size
                * INTERMEDIATE_BYTES,
            )
        # Exact type match: subclasses (e.g. the online softmax) have
        # different internals and are not decomposed by this pass.
        elif type(kernel) is RowSoftmaxKernel:
            if kernel.length % t != 0:
                raise PlanError(
                    f"softmax row length {kernel.length} not divisible "
                    f"by T={t}"
                )
            rows, n_sv = kernel.rows, kernel.length // t
            new = _decomposed_nodes(
                graph, node,
                LocalSoftmaxKernel(num_subvectors=rows * n_sv, t=t,
                                   dtype=kernel.dtype,
                                   **_renamed(kernel, "softmax", "ls")),
                InterReductionKernel(rows=rows, mean_subvectors=n_sv,
                                     **_renamed(kernel, "softmax", "ir")),
                GlobalScaleKernel(num_subvectors=rows * n_sv, t=t,
                                  dtype=kernel.dtype,
                                  **_renamed(kernel, "softmax", "gs")),
                rows * n_sv * INTERMEDIATE_BYTES,
            )
        else:
            continue
        graph.replace_nodes([node], new)
        rewritten += 1
    return rewritten


# -- fusion (Section 3.3) --------------------------------------------------

def _fuse_matmul_ls(graph: KernelGraph, ctx=None) -> int:
    """Merge MatMul -> LS pairs into fused MatMul+LS nodes (also a
    plan pass; ``ctx`` is unused)."""
    fused = 0
    for node in graph.nodes:
        if type(node.kernel) not in (LocalSoftmaxKernel, BlockSparseLS):
            continue
        (x_name,) = node.inputs
        producer = graph.producer(x_name)
        if producer is None or len(graph.consumers(x_name)) != 1:
            continue  # X is still needed elsewhere; cannot fuse it away.
        matmul = producer.kernel
        if (type(matmul) is BlockSparseMatMulSDD
                and type(node.kernel) is BlockSparseLS):
            fused_kernel = FusedBSMatMulLSSDD(
                matmul.layout, matmul.batch, matmul.d_head,
                dtype=matmul.dtype, epilogue=matmul.epilogue,
                epilogue_flops_per_element=matmul.epilogue_flops_per_element,
            )
        elif (type(matmul) is MatMulKernel
              and type(node.kernel) is LocalSoftmaxKernel):
            t = node.kernel.t
            if matmul.n % t != 0:
                raise PlanError(
                    f"cannot fuse: T={t} does not divide MatMul n={matmul.n}"
                )
            fused_kernel = FusedMatMulLSKernel(
                batch=matmul.batch, m=matmul.m, n=matmul.n, k=matmul.k,
                t=t, dtype=matmul.dtype,
                pre_softmax_epilogue=matmul.epilogue,
                pre_softmax_flops_per_element=(
                    matmul.epilogue_flops_per_element),
                **_renamed(matmul, "qk_matmul", "qk_ls_fused"),
            )
        else:
            continue
        graph.replace_nodes(
            [producer, node],
            [Node(kernel=fused_kernel, inputs=producer.inputs,
                  outputs=node.outputs)],
        )
        fused += 1
    return fused


def _fuse_gs_matmul(graph: KernelGraph, ctx=None) -> int:
    """Merge GS -> MatMul pairs into fused GS+MatMul nodes (also a
    plan pass; ``ctx`` is unused)."""
    fused = 0
    for node in graph.nodes:
        if type(node.kernel) not in (GlobalScaleKernel, BlockSparseGS):
            continue
        (y_name,) = node.outputs
        consumers = graph.consumers(y_name)
        if len(consumers) != 1 or consumers[0].inputs[0] != y_name:
            continue  # GS output must be the LHS of its only MatMul.
        consumer = consumers[0]
        matmul = consumer.kernel
        if (type(matmul) is BlockSparseMatMulDSD
                and type(node.kernel) is BlockSparseGS):
            fused_kernel = FusedBSGSMatMulDSD(
                matmul.layout, matmul.batch, matmul.d_head,
                dtype=matmul.dtype)
        elif (type(matmul) is MatMulKernel
              and type(node.kernel) is GlobalScaleKernel):
            t = node.kernel.t
            if matmul.k % t != 0:
                raise PlanError(
                    f"cannot fuse: T={t} does not divide MatMul k={matmul.k}"
                )
            fused_kernel = FusedGSMatMulKernel(
                batch=matmul.batch, m=matmul.m, n=matmul.n, k=matmul.k,
                t=t, dtype=matmul.dtype,
                **_renamed(matmul, "av_matmul", "gs_av_fused"),
            )
        else:
            continue
        x_prime, r_prime = node.inputs
        graph.replace_nodes(
            [node, consumer],
            [Node(kernel=fused_kernel,
                  inputs=(x_prime, r_prime, *consumer.inputs[1:]),
                  outputs=consumer.outputs)],
        )
        fused += 1
    return fused


def fuse_softmax_pass(graph: KernelGraph) -> int:
    """Apply both fusions (Section 3.3); returns the number performed."""
    return _fuse_matmul_ls(graph) + _fuse_gs_matmul(graph)


def recompose(graph: KernelGraph, t: int = 64) -> KernelGraph:
    """Full softmax recomposition: decompose, then fuse (in place).

    Returns the graph for chaining.
    """
    decomposed = decompose_softmax_pass(graph, t)
    if decomposed == 0:
        raise PlanError("graph contains no softmax node to recompose")
    fuse_softmax_pass(graph)
    graph.validate()
    return graph


# -- plans as pass pipelines -----------------------------------------------

@dataclass(frozen=True)
class AttentionContext:
    """What a plan's passes need to know about the attention a base
    graph computes beyond its kernels."""

    plan: AttentionPlan
    t: int = 64
    scale: float = 1.0
    causal: bool = False
    key_padding: bool = False


def _dense_only(ctx: AttentionContext) -> PlanError:
    return PlanError(
        f"the {ctx.plan.value!r} plan is only implemented for dense "
        f"attention"
    )


def _decompose(graph: KernelGraph, ctx: AttentionContext) -> None:
    # An attention row T does not divide is a bad shape for the plan
    # (ShapeError), where the public pass reports a bad rewrite.
    for node in graph.nodes:
        kernel = node.kernel
        if type(kernel) is RowSoftmaxKernel and kernel.length % ctx.t:
            raise ShapeError(
                f"attention row length {kernel.length} not divisible by "
                f"T={ctx.t}"
            )
    decompose_softmax_pass(graph, ctx.t)


def _swap_softmax(kernel_class) -> Callable:
    """Pass replacing the monolithic softmax with ``kernel_class``."""

    def swap(graph: KernelGraph, ctx: AttentionContext) -> None:
        for node in graph.nodes:
            kernel = node.kernel
            if type(kernel) is BlockSparseRowSoftmax:
                raise _dense_only(ctx)
            if type(kernel) is RowSoftmaxKernel:
                replacement = kernel_class(rows=kernel.rows,
                                           length=kernel.length,
                                           dtype=kernel.dtype)
                graph.replace_nodes([node], [Node(
                    kernel=replacement, inputs=node.inputs,
                    outputs=node.outputs)])

    return swap


def _replace_block(graph: KernelGraph, kernel) -> None:
    """The whole SDA block becomes one kernel reading Q, K and V."""
    graph.replace_nodes(graph.nodes, [
        Node(kernel=kernel, inputs=("Q", "K", "V"), outputs=("O",))])


def _flash(graph: KernelGraph, ctx: AttentionContext) -> None:
    if ctx.key_padding:
        raise PlanError(KEY_PADDING_UNSUPPORTED)
    score = graph.producer("X").kernel
    if type(score) is BlockSparseMatMulSDD:
        from repro.sparse.bsflash import BlockSparseFlashAttentionKernel

        kernel = BlockSparseFlashAttentionKernel(
            score.layout, score.batch, score.d_head, dtype=score.dtype,
            scale=ctx.scale, causal=ctx.causal)
    else:
        if score.n != score.m:
            raise PlanError("the FLASH plan does not support cross-attention")
        from repro.kernels.flash import FlashAttentionKernel

        kernel = FlashAttentionKernel(score.batch, score.m, score.k,
                                      dtype=score.dtype, scale=ctx.scale,
                                      causal=ctx.causal)
    _replace_block(graph, kernel)


def _fully_fused(graph: KernelGraph, ctx: AttentionContext) -> None:
    if ctx.key_padding:
        raise PlanError(KEY_PADDING_UNSUPPORTED)
    score = graph.producer("X").kernel
    if type(score) is BlockSparseMatMulSDD:
        raise _dense_only(ctx)
    if ctx.causal:
        raise PlanError("the FULLY_FUSED plan does not support causal masks")
    if score.n != score.m:
        raise PlanError(
            "the FULLY_FUSED plan does not support cross-attention")
    from repro.kernels.mha_fused import FullyFusedMHAKernel

    _replace_block(graph, FullyFusedMHAKernel(
        score.batch, score.m, score.k, dtype=score.dtype, scale=ctx.scale))


#: Each plan as the pass list that rewrites the baseline graph into it.
PLAN_PASSES: "dict[AttentionPlan, tuple[Callable, ...]]" = {
    AttentionPlan.BASELINE: (),
    AttentionPlan.ONLINE: (_swap_softmax(OnlineRowSoftmaxKernel),),
    AttentionPlan.TURBO: (_swap_softmax(BatchedRowSoftmaxKernel),),
    AttentionPlan.DECOMPOSED: (_decompose,),
    AttentionPlan.RECOMPOSED: (_decompose, _fuse_matmul_ls, _fuse_gs_matmul),
    AttentionPlan.FUSED_LS_ONLY: (_decompose, _fuse_matmul_ls),
    AttentionPlan.FUSED_GS_ONLY: (_decompose, _fuse_gs_matmul),
    AttentionPlan.FULLY_FUSED: (_fully_fused,),
    AttentionPlan.FLASH: (_flash,),
}


def apply_plan(graph: KernelGraph, ctx: AttentionContext) -> KernelGraph:
    """Rewrite a baseline graph into ``ctx.plan``'s pipeline (in place).

    Raises the pass's :class:`PlanError` (or :class:`ShapeError`) when
    the plan cannot run this attention.  Validates once, at the end.
    """
    for rewrite in PLAN_PASSES[ctx.plan]:
        rewrite(graph, ctx)
    graph.validate()
    return graph


def matrix_sweeps(graph: KernelGraph) -> int:
    """Off-chip sweeps of the attention matrix in ``graph`` (Fig. 6)."""
    return sum(graph.access_count(name) for name in MATRIX_BUFFERS)


# -- verification ----------------------------------------------------------

def verification_oracles():
    """Oracle running every feasible plan's pipeline against the
    baseline pipeline on the same drawn shape."""
    from repro.common.errors import ReproError
    from repro.core.plan import attention_matrix_sweeps
    from repro.models.attention import SDABlock
    from repro.models.config import AttentionKind, AttentionSpec
    from repro.verify.contracts import FP16_ATTENTION, FP32_ATTENTION
    from repro.verify.invariants import Violation
    from repro.verify.refs import accumulation_slack
    from repro.verify.registry import OracleSpec

    def run(case):
        q, k, v = case.arrays["q_sq"], case.arrays["k"], case.arrays["v"]
        bh, length, d = q.shape
        causal, t = case.params["causal"], case.params["t"]
        # Dense or causal per the case; every third case block-sparse
        # with the sub-vector size as its block width.
        if case.params["case_seed"] % 3:
            spec = AttentionSpec(kind=AttentionKind.DENSE_CAUSAL if causal
                                 else AttentionKind.DENSE)
        else:
            spec = AttentionSpec(
                kind=(AttentionKind.LOCAL_CAUSAL if causal
                      else AttentionKind.LONGFORMER),
                block_size=t, window=2 * t, global_blocks=1)
        outputs, violations = {}, []
        for plan in AttentionPlan:
            try:
                block = SDABlock(batch=1, num_heads=bh, seq_len=length,
                                 d_head=d, spec=spec, plan=plan,
                                 dtype=case.dtype, t=t)
            except ReproError:
                continue  # infeasible for this shape: nothing to compare
            outputs[plan] = block.forward(q, k, v)
            audit, pinned = (matrix_sweeps(block.graph),
                             attention_matrix_sweeps(plan))
            if audit != pinned:
                violations.append(Violation(
                    "fig6_audit", f"{plan.value}: graph sweeps {audit}, "
                                  f"attention_matrix_sweeps {pinned}"))
        actual = np.stack([outputs[p] for p in outputs
                           if p is not AttentionPlan.BASELINE])
        scores = np.matmul(q, np.swapaxes(k, 1, 2)) / np.float32(math.sqrt(d))
        return {
            "actual": actual,
            "expected": np.broadcast_to(outputs[AttentionPlan.BASELINE],
                                        actual.shape),
            "slack": accumulation_slack(scores),
            "violations": violations,
        }

    return [
        OracleSpec(
            name="attention.plan_pipeline_equivalence",
            family="attention",
            run=run,
            contracts={DType.FP32: FP32_ATTENTION,
                       DType.FP16: FP16_ATTENTION},
            invariants=("finite_outputs",),
            description="every feasible plan's pass-rewritten pipeline "
                        "vs the baseline pipeline (dense, causal, "
                        "block-sparse), plus the graph's Fig. 6 audit",
        ),
    ]
