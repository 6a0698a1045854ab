"""Registry assembly: collect every module's ``verification_oracles()``.

Implementation modules own their oracles — each softmax/attention/
block-sparse/serving module exposes a ``verification_oracles()`` hook
returning its :class:`~repro.verify.registry.OracleSpec` list, with the
verify imports kept inside the hook body so the kernel modules never
depend on this package at import time.  :func:`build_registry` walks
the hook list and registers everything; the hooks themselves resolve
their target functions through module attributes at call time, so a
monkeypatched (deliberately broken) implementation is what actually
gets fuzzed — the property the injection test in
``tests/test_verify_harness.py`` relies on.
"""

from __future__ import annotations

import importlib

from repro.verify.registry import OracleRegistry

#: Modules with a ``verification_oracles()`` hook, in load order.
HOOK_MODULES = (
    "repro.core.online",
    "repro.core.decomposition",
    "repro.core.recompose",
    "repro.kernels.softmax",
    "repro.kernels.decomposed",
    "repro.kernels.flash",
    "repro.kernels.approx",
    "repro.kernels.fused",
    "repro.kernels.mha_fused",
    "repro.sparse.bssoftmax",
    "repro.sparse.bsmatmul",
    "repro.sparse.bsflash",
    "repro.serving.costmodel",
    "repro.serving.sketch",
    "repro.serving.specdecode",
    "repro.models.moe",
    "repro.gpu.interconnect",
    "repro.cluster.router",
    "repro.controlplane.controller",
)

_default: "OracleRegistry | None" = None


def build_registry() -> OracleRegistry:
    """A fresh registry holding every hook's oracles."""
    registry = OracleRegistry()
    for module_name in HOOK_MODULES:
        module = importlib.import_module(module_name)
        registry.register_all(module.verification_oracles())
    return registry


def default_registry(*, refresh: bool = False) -> OracleRegistry:
    """The cached process-wide registry (rebuilt when ``refresh``)."""
    global _default
    if _default is None or refresh:
        _default = build_registry()
    return _default
