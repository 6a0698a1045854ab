"""Accuracy-vs-speed Pareto sweep of the approximate softmax family.

``repro approx-sweep`` answers the question the approximate kernels
exist to pose: how much softmax execution time does each approximation
buy, and what does it cost in distance from the exact answer?

The sweep measures the two axes independently and joins them:

**Accuracy.**  Every softmax variant (baseline monolithic, SDF
decomposition, LUT-exp, BAPS) runs on identical seeded inputs across
several numeric regimes and is measured against the float64 exact
softmax with :func:`repro.verify.profiles.measure_error_profile` — the
same measurement the fuzz harness records, so the sweep's accuracy
column and ``repro verify fuzz``'s profile lines agree by
construction.  FLASH-D is measured against exact *attention* (its
output has no probability axis) and reported separately.

**Speed.**  Each variant's softmax work for one transformer layer is
priced through the roofline cost model over the paper's four models
and a sequence-length grid.  SDF is priced as its LS + IR + GS
pipeline; FLASH-D is priced as a whole fused kernel against the stock
FlashAttention kernel, because its division savings only exist inside
the fusion (the marginal cost can be zero when the launch is
memory-bound — that is a result, not a measurement artifact).

The report is stamped ``repro.approx_sweep/v1`` and carries, per
variant, the measured profile, the declared contract (from the oracle
registry — one source of truth) with a satisfaction verdict, priced
grid points, instruction/traffic counters, and the resulting Pareto
frontier plus the list of variants that strictly dominate the
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.dtypes import DType
from repro.common.results import APPROX_SWEEP_SCHEMA
from repro.common.validation import require_positive
from repro.core.decomposition import decomposed_softmax
from repro.core.graph import KernelGraph
from repro.core.recompose import decompose_softmax_pass
from repro.gpu.costmodel import time_kernel
from repro.gpu.specs import GPUSpec
from repro.kernels.approx import (
    ApproxRowSoftmaxKernel,
    BAPSSoftmaxKernel,
    FlashDAttentionKernel,
    baseline_softmax_counters,
    flash_softmax_counters,
)
from repro.kernels.flash import FlashAttentionKernel
from repro.kernels.softmax import RowSoftmaxKernel
from repro.models.config import ModelConfig, all_models
from repro.verify.profiles import (
    ErrorProfile,
    aggregate_profiles,
    measure_error_profile,
)
from repro.verify.refs import exact_attention, exact_softmax

#: Input-magnitude regimes the accuracy stage samples — the same three
#: scales the fuzz generator stresses (attention-logit-like, near
#: exp-overflow, near underflow).
REGIMES: "dict[str, float]" = {
    "normal": 1.0,
    "large": 64.0,
    "tiny": 1e-3,
}

#: Accuracy-stage shape: rows x length per case.  Length is a multiple
#: of the SDF sub-vector size so every variant accepts the same input.
_ACC_ROWS = 16
_ACC_LENGTH = 1024

#: SDF sub-vector length (the paper's T).
_SDF_T = 64

#: Softmax-family sweep variants, in report order.
SOFTMAX_VARIANTS = ("baseline", "sdf", "lut", "baps")

#: Oracle names supplying the declared contract per approximate variant.
_CONTRACT_ORACLES = {
    "lut": "softmax.lut_kernel",
    "baps": "softmax.baps_kernel",
    "flashd": "attention.flashd_vs_exact",
}


@dataclass(frozen=True)
class SweepPoint:
    """One priced grid point: a variant's softmax work for one layer."""

    model: str
    seq_len: int
    rows: int
    time_s: float
    dram_bytes: float
    baseline_time_s: float

    @property
    def speedup(self) -> float:
        return self.baseline_time_s / self.time_s if self.time_s else 0.0

    def to_dict(self) -> "dict[str, object]":
        return {
            "model": self.model,
            "seq_len": self.seq_len,
            "rows": self.rows,
            "time_s": self.time_s,
            "dram_bytes": self.dram_bytes,
            "baseline_time_s": self.baseline_time_s,
            "speedup_vs_baseline": self.speedup,
        }


@dataclass
class VariantReport:
    """One variant's measured accuracy plus priced speed."""

    name: str
    kind: str  # "softmax" or "attention"
    accuracy: "dict[str, object]"
    contract: "dict[str, object] | None"
    contract_satisfied: "bool | None"
    counters: "dict[str, float]"
    points: "list[SweepPoint]" = field(default_factory=list)

    @property
    def mean_speedup(self) -> float:
        """Geometric-mean speedup over the grid (1.0 with no points)."""
        if not self.points:
            return 1.0
        logs = [np.log(p.speedup) for p in self.points if p.speedup > 0]
        return float(np.exp(np.mean(logs))) if logs else 0.0

    @property
    def p99_row_err(self) -> float:
        return float(self.accuracy.get("p99_row_err", 0.0))

    def to_dict(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "accuracy": self.accuracy,
            "contract": self.contract,
            "contract_satisfied": self.contract_satisfied,
            "counters": self.counters,
            "points": [p.to_dict() for p in self.points],
            "mean_speedup": self.mean_speedup,
        }


def _case_inputs(regime: str, scale: float, case: int, seed: int,
                 length: int) -> np.ndarray:
    """Deterministic scores for one accuracy case (pure function of
    the sweep parameters — re-running the sweep reproduces it)."""
    rng = np.random.default_rng(
        [seed, sorted(REGIMES).index(regime), case]
    )
    return (rng.standard_normal((_ACC_ROWS, length)) * scale).astype(
        np.float32
    )


def _softmax_fns(dtype: DType, length: int):
    """``name -> row-softmax callable`` for the accuracy stage."""
    rows = _ACC_ROWS

    def sdf(x: np.ndarray) -> np.ndarray:
        return dtype.quantize(decomposed_softmax(dtype.quantize(x), _SDF_T))

    return {
        "baseline": RowSoftmaxKernel(rows, length, dtype=dtype).compute,
        "sdf": sdf,
        "lut": ApproxRowSoftmaxKernel(rows, length, dtype=dtype).compute,
        "baps": BAPSSoftmaxKernel(rows, length, dtype=dtype).compute,
    }


def measure_softmax_accuracy(
    *, dtype: DType, cases: int, seed: int, length: int = _ACC_LENGTH
) -> "dict[str, dict[str, object]]":
    """Aggregated error profile per softmax variant vs float64 exact."""
    fns = _softmax_fns(dtype, length)
    profiles: "dict[str, list[ErrorProfile]]" = {n: [] for n in fns}
    for regime, scale in sorted(REGIMES.items()):
        for case in range(cases):
            x = _case_inputs(regime, scale, case, seed, length)
            expected = exact_softmax(dtype.quantize(x))
            for name, fn in fns.items():
                profiles[name].append(
                    measure_error_profile(fn(x), expected, dtype)
                )
    return {name: aggregate_profiles(ps) for name, ps in profiles.items()}


def measure_flashd_accuracy(
    *, dtype: DType, cases: int, seed: int, seq_len: int = 256,
    d_head: int = 64
) -> "dict[str, object]":
    """Aggregated FLASH-D error profile vs float64 exact attention."""
    profiles: "list[ErrorProfile]" = []
    scale = 1.0 / float(np.sqrt(d_head))
    for regime, mag in sorted(REGIMES.items()):
        for case in range(cases):
            rng = np.random.default_rng(
                [seed, 101, sorted(REGIMES).index(regime), case]
            )
            # Only Q carries the regime magnitude: the regimes stress
            # the softmax *score* scale, while K and V stay at unit
            # scale so the output (and its absolute error) remains
            # comparable across regimes.
            q = (rng.standard_normal((2, seq_len, d_head)) * mag).astype(
                np.float32
            )
            k, v = (
                rng.standard_normal((2, seq_len, d_head)).astype(np.float32)
                for _ in range(2)
            )
            kernel = FlashDAttentionKernel(
                2, seq_len, d_head, dtype=dtype, scale=scale
            )
            expected, _, _ = exact_attention(q, k, v, dtype, scale=scale)
            profiles.append(
                measure_error_profile(
                    kernel.compute(q, k, v), expected, dtype, row_kl=False
                )
            )
    return aggregate_profiles(profiles)


def _layer_rows(model: ModelConfig, seq_len: int) -> int:
    """Softmax rows in one layer's attention (batch of one)."""
    return model.num_heads * seq_len


#: The softmax kernel each sweep variant launches; SDF is the baseline
#: kernel rewritten by the paper's decomposition pass.
_SOFTMAX_KERNELS = {
    "baseline": RowSoftmaxKernel,
    "sdf": RowSoftmaxKernel,
    "lut": ApproxRowSoftmaxKernel,
    "baps": BAPSSoftmaxKernel,
}


def _softmax_time(variant: str, model: ModelConfig, seq_len: int,
                  dtype: DType, spec: GPUSpec) -> "tuple[float, float]":
    """``(time_s, dram_bytes)`` of one layer's softmax work."""
    if variant not in _SOFTMAX_KERNELS:
        raise ValueError(f"unknown softmax variant {variant!r}")
    rows = _layer_rows(model, seq_len)
    graph = KernelGraph()
    matrix_bytes = rows * seq_len * dtype.nbytes
    graph.add_buffer("X", matrix_bytes)
    graph.add_buffer("Y", matrix_bytes)
    graph.add_node(_SOFTMAX_KERNELS[variant](rows, seq_len, dtype=dtype),
                   inputs=("X",), outputs=("Y",))
    if variant == "sdf":
        decompose_softmax_pass(graph, _SDF_T)
    time_s = 0.0
    dram = 0.0
    for node in graph.nodes:
        launch = node.kernel.launch_spec(spec)
        time_s += time_kernel(spec, launch).time
        dram += launch.dram_bytes
    return time_s, dram


def _flash_time(kernel_cls, model: ModelConfig, seq_len: int,
                dtype: DType, spec: GPUSpec) -> "tuple[float, float]":
    kernel = kernel_cls(
        model.num_heads, seq_len, model.d_head, dtype=dtype,
        scale=1.0 / float(np.sqrt(model.d_head)),
    )
    launch = kernel.launch_spec(spec)
    return time_kernel(spec, launch).time, launch.dram_bytes


def _reference_counters(variant: str, dtype: DType,
                        *, rows: int = 4096,
                        length: int = 4096) -> "dict[str, float]":
    """Instruction/traffic counters at one reference shape."""
    if variant == "baseline":
        return baseline_softmax_counters(rows, length, dtype)
    if variant == "lut":
        return ApproxRowSoftmaxKernel(rows, length, dtype=dtype).counters()
    if variant == "baps":
        return BAPSSoftmaxKernel(rows, length, dtype=dtype).counters()
    if variant == "sdf":
        elements = float(rows * length)
        stats = float(rows * (length // _SDF_T))
        return {
            # LS exponentiates and divides every element; IR divides
            # once per sub-vector statistic; GS multiplies every
            # element by its broadcast r'.
            "exp_ops": elements,
            "lut_lookups": 0.0,
            "mul_ops": elements,
            "div_ops": elements + stats,
            # LS reads+writes the matrix and writes (m', d'); IR
            # reads both and writes r'; GS reads the matrix and r'
            # and writes the result (see the LS/IR/GS launch specs).
            "dram_bytes": 4.0 * elements * dtype.nbytes + 24.0 * stats,
        }
    raise ValueError(f"unknown softmax variant {variant!r}")


def _declared_contract(variant: str, dtype: DType):
    """The oracle registry's declared budget for ``variant`` (or None)."""
    oracle_name = _CONTRACT_ORACLES.get(variant)
    if oracle_name is None:
        return None
    from repro.verify.oracles import default_registry

    return default_registry().get(oracle_name).profile_for(dtype)


def _pareto_frontier(
    variants: "dict[str, VariantReport]",
) -> "list[str]":
    """Names on the accuracy-speed frontier (softmax variants only).

    A variant is dominated when another is at least as good on both
    axes (p99 row error down, mean speedup up) and strictly better on
    one.
    """
    names = [n for n in SOFTMAX_VARIANTS if n in variants]
    frontier = []
    for name in names:
        v = variants[name]
        dominated = any(
            (o.p99_row_err <= v.p99_row_err
             and o.mean_speedup >= v.mean_speedup)
            and (o.p99_row_err < v.p99_row_err
                 or o.mean_speedup > v.mean_speedup)
            for other, o in variants.items()
            if other != name and other in names
        )
        if not dominated:
            frontier.append(name)
    return frontier


def run_sweep(
    *,
    gpu: GPUSpec,
    models: "list[ModelConfig] | None" = None,
    seq_lens: "tuple[int, ...]" = (256, 512, 1024, 2048, 4096),
    dtype: DType = DType.FP16,
    cases: int = 8,
    seed: int = 0,
) -> "dict[str, object]":
    """The full sweep: a ``repro.approx_sweep/v1`` report document."""
    require_positive("cases", cases)
    if models is None:
        models = list(all_models())
    accuracy = measure_softmax_accuracy(dtype=dtype, cases=cases, seed=seed)
    flashd_accuracy = measure_flashd_accuracy(
        dtype=dtype, cases=cases, seed=seed
    )

    variants: "dict[str, VariantReport]" = {}
    for name in SOFTMAX_VARIANTS:
        contract = _declared_contract(name, dtype)
        measured = accuracy[name]
        satisfied = None
        if contract is not None:
            satisfied = not _profile_exceeds(measured, contract)
        variants[name] = VariantReport(
            name=name,
            kind="softmax",
            accuracy=measured,
            contract=_contract_dict(contract),
            contract_satisfied=satisfied,
            counters=_reference_counters(name, dtype),
        )

    for model in models:
        for seq_len in seq_lens:
            base_time, _ = _softmax_time("baseline", model, seq_len,
                                         dtype, gpu)
            for name in SOFTMAX_VARIANTS:
                time_s, dram = _softmax_time(name, model, seq_len,
                                             dtype, gpu)
                variants[name].points.append(SweepPoint(
                    model=model.name, seq_len=seq_len,
                    rows=_layer_rows(model, seq_len),
                    time_s=time_s, dram_bytes=dram,
                    baseline_time_s=base_time,
                ))

    # FLASH-D: whole fused kernel vs the stock FlashAttention kernel.
    flashd_contract = _declared_contract("flashd", dtype)
    flashd = VariantReport(
        name="flashd",
        kind="attention",
        accuracy=flashd_accuracy,
        contract=_contract_dict(flashd_contract),
        contract_satisfied=(
            not _profile_exceeds(flashd_accuracy, flashd_contract)
            if flashd_contract is not None else None
        ),
        counters=flash_softmax_counters(
            4096 // 64, 4096, 64, dtype
        ),
    )
    for model in models:
        for seq_len in seq_lens:
            stock_time, _ = _flash_time(FlashAttentionKernel, model,
                                        seq_len, dtype, gpu)
            fused_time, dram = _flash_time(FlashDAttentionKernel, model,
                                           seq_len, dtype, gpu)
            flashd.points.append(SweepPoint(
                model=model.name, seq_len=seq_len,
                rows=_layer_rows(model, seq_len),
                time_s=fused_time, dram_bytes=dram,
                baseline_time_s=stock_time,
            ))
    variants["flashd"] = flashd

    baseline = variants["baseline"]
    dominates = [
        name for name in SOFTMAX_VARIANTS
        if name != "baseline"
        and variants[name].mean_speedup > 1.0
        and all(p.speedup > 1.0 for p in variants[name].points)
        and variants[name].p99_row_err <= baseline.p99_row_err
    ]
    return {
        "schema": APPROX_SWEEP_SCHEMA,
        "kind": "approx-sweep",
        "gpu": gpu.name,
        "dtype": dtype.value,
        "seed": seed,
        "cases_per_regime": cases,
        "regimes": sorted(REGIMES),
        "models": [m.name for m in models],
        "seq_lens": list(seq_lens),
        "sdf_t": _SDF_T,
        "variants": {n: v.to_dict() for n, v in variants.items()},
        "pareto_frontier": _pareto_frontier(variants),
        "dominates_baseline": dominates,
    }


def _profile_exceeds(aggregate: "dict[str, object]", contract) -> bool:
    """Whether an aggregated profile dict violates a declared budget."""
    if int(aggregate.get("max_ulp", 0)) > contract.max_ulp:
        return True
    if float(aggregate.get("mean_rel_err", 0.0)) > contract.mean_rel_err:
        return True
    if float(aggregate.get("max_abs_err", 0.0)) > contract.max_abs_err:
        return True
    kl = aggregate.get("max_row_kl")
    if (contract.max_row_kl is not None and kl is not None
            and float(kl) > contract.max_row_kl):
        return True
    return False


def _contract_dict(contract) -> "dict[str, object] | None":
    if contract is None:
        return None
    return {
        "max_ulp": contract.max_ulp,
        "mean_rel_err": contract.mean_rel_err,
        "max_abs_err": contract.max_abs_err,
        "max_row_kl": contract.max_row_kl,
    }


def render_sweep(report: "dict[str, object]") -> str:
    """Human-readable rendering of a sweep report."""
    lines = [
        f"approx-sweep on {report['gpu']} ({report['dtype']}, "
        f"{report['cases_per_regime']} cases x "
        f"{len(report['regimes'])} regimes, seed={report['seed']})",
        f"  models: {', '.join(report['models'])}; "
        f"seq_lens: {report['seq_lens']}",
    ]
    for name, v in report["variants"].items():
        acc = v["accuracy"]
        verdict = {True: "within budget", False: "EXCEEDS BUDGET",
                   None: "exact (no budget)"}[v["contract_satisfied"]]
        kl = (f" row_kl={acc['max_row_kl']:.2e}"
              if acc.get("max_row_kl") is not None else "")
        lines.append(
            f"  {name:<9} ({v['kind']}): x{v['mean_speedup']:.2f} "
            f"mean speedup, p99_row_err={acc['p99_row_err']:.2e}"
            f"{kl}, {verdict}"
        )
    lines.append(
        f"  pareto frontier: {', '.join(report['pareto_frontier'])}"
    )
    dominates = report["dominates_baseline"]
    lines.append(
        "  dominates baseline: "
        + (", ".join(dominates) if dominates else "none")
    )
    return "\n".join(lines)
