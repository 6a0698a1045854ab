"""Kernel-graph IR.

A :class:`KernelGraph` is a small dataflow IR over simulated kernels:
nodes are kernel launches, edges are named DRAM buffers.  The
recomposition of Section 3 is implemented as two graph passes
(:mod:`repro.core.recompose`): *decompose* replaces a softmax node
with LS/IR/GS nodes, *fuse* merges LS into its producing MatMul and GS
into its consuming MatMul.

The IR also provides the Fig. 6 audit directly: counting the nodes
that read or write a buffer gives the off-chip sweep count of that
buffer (each graph edge is a DRAM round trip, because fused work never
appears as an edge).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from repro.common.errors import PlanError
from repro.gpu.device import Device
from repro.kernels.base import Kernel


class Buffer(NamedTuple):
    """A DRAM-resident tensor flowing between kernels."""

    name: str
    nbytes: float = 0.0


class Node(NamedTuple):
    """One kernel launch with named inputs and outputs."""

    kernel: Kernel
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def name(self) -> str:
        """The underlying kernel's name."""
        return self.kernel.name


class KernelGraph:
    """An ordered dataflow graph of kernel launches.

    Nodes execute in insertion order (the launch stream); the edge
    structure is used by the rewrite passes and the traffic audit.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, Buffer] = {}
        self._nodes: list[Node] = []
        self._producers: dict[str, Node] = {}

    # -- construction ----------------------------------------------------

    def add_buffer(self, name: str, nbytes: float = 0.0) -> Buffer:
        """Declare a buffer (idempotent for identical declarations)."""
        if name in self._buffers:
            existing = self._buffers[name]
            if nbytes and existing.nbytes and existing.nbytes != nbytes:
                raise PlanError(
                    f"buffer {name!r} redeclared with different size "
                    f"({existing.nbytes} vs {nbytes})"
                )
            return existing
        buffer = self._buffers[name] = Buffer(name, nbytes)
        return buffer

    def add_node(
        self,
        kernel: Kernel,
        inputs: Iterable[str],
        outputs: Iterable[str],
    ) -> Node:
        """Append a kernel launch; auto-declares unknown buffers."""
        node = Node(kernel=kernel, inputs=tuple(inputs),
                    outputs=tuple(outputs))
        self._declare(node)
        self._nodes.append(node)
        return node

    def _declare(self, node: Node) -> None:
        """Register ``node``'s buffers and claim its outputs."""
        for name in (*node.inputs, *node.outputs):
            if name not in self._buffers:
                self._buffers[name] = Buffer(name)
        for name in node.outputs:
            if name in self._producers:
                raise PlanError(f"buffer {name!r} already has a producer")
            self._producers[name] = node

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Nodes in launch order."""
        return tuple(self._nodes)

    @property
    def buffers(self) -> dict[str, Buffer]:
        """Declared buffers by name."""
        return dict(self._buffers)

    def buffer(self, name: str) -> Buffer:
        """The declared buffer ``name``."""
        return self._buffers[name]

    def producer(self, buffer: str) -> Optional[Node]:
        """The node writing ``buffer``, or None for graph inputs."""
        return self._producers.get(buffer)

    def consumers(self, buffer: str) -> tuple[Node, ...]:
        """All nodes reading ``buffer``."""
        return tuple(n for n in self._nodes if buffer in n.inputs)

    def inputs(self) -> tuple[str, ...]:
        """Buffers no node produces (the graph's external inputs)."""
        produced = {name for node in self._nodes for name in node.outputs}
        consumed = [name for node in self._nodes for name in node.inputs]
        seen: list[str] = []
        for name in consumed:
            if name not in produced and name not in seen:
                seen.append(name)
        return tuple(seen)

    def outputs(self) -> tuple[str, ...]:
        """Buffers produced but never consumed (the graph's results)."""
        consumed = {name for node in self._nodes for name in node.inputs}
        out: list[str] = []
        for node in self._nodes:
            for name in node.outputs:
                if name not in consumed and name not in out:
                    out.append(name)
        return tuple(out)

    def access_count(self, buffer: str) -> int:
        """Off-chip accesses of ``buffer``: one write per producer plus
        one read per consumer (the Fig. 6 circles and hexagons)."""
        return (0 if self.producer(buffer) is None else 1) + len(
            self.consumers(buffer)
        )

    def peak_live_bytes(self, buffers: Iterable[str]) -> float:
        """Largest total size of ``buffers`` resident at once.

        A buffer is resident from the first launch that touches it
        (writes or reads) through the last; the peak is taken over the
        launch order.
        """
        spans = []
        for name in buffers:
            touched = [i for i, node in enumerate(self._nodes)
                       if name in node.inputs or name in node.outputs]
            if touched:
                spans.append((touched[0], touched[-1],
                              self._buffers[name].nbytes))
        return max((sum(size for first, last, size in spans
                        if first <= i <= last)
                    for i in range(len(self._nodes))), default=0)

    def validate(self) -> None:
        """Check the graph is executable in its launch order."""
        ready: set[str] = set()
        for node in self._nodes:
            missing = [b for b in node.inputs
                       if b in self._producers and b not in ready]
            if missing:
                raise PlanError(
                    f"node {node.name!r} reads {missing} before production"
                )
            ready.update(node.outputs)

    # -- rewriting ---------------------------------------------------------

    def replace_nodes(
        self, old: Iterable[Node], new: Iterable[Node]
    ) -> None:
        """Splice ``new`` nodes where the first of ``old`` stood.

        Rewrite passes splice freely and leave :meth:`validate` to the
        end of their pipeline (:func:`repro.core.recompose.apply_plan`).
        """
        old = list(old)
        insert_at = min(self._nodes.index(node) for node in old)
        for node in old:
            self._nodes.remove(node)
            for name in node.outputs:
                del self._producers[name]
        new = list(new)
        for node in new:
            self._declare(node)
        self._nodes[insert_at:insert_at] = new

    # -- execution ----------------------------------------------------------

    def simulate(self, device: Device) -> None:
        """Launch every node on ``device`` in order (cost only)."""
        self.validate()
        for node in self._nodes:
            node.kernel.simulate(device)

    def run(
        self, device: Optional[Device], inputs: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Execute the dataflow numerically (and on ``device`` if given).

        Each node's ``kernel.run`` consumes its input buffers from
        ``inputs`` or earlier nodes and produces its output buffers;
        unused entries of ``inputs`` are ignored.  Returns the graph's
        :meth:`outputs` by name.
        """
        values = dict(inputs)
        for node in self._nodes:
            result = node.kernel.run(
                device, *(values[name] for name in node.inputs))
            if len(node.outputs) == 1:
                result = (result,)
            values.update(zip(node.outputs, result))
        return {name: values[name] for name in self.outputs()}

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        chain = " -> ".join(node.name for node in self._nodes)
        return f"KernelGraph({chain})"
