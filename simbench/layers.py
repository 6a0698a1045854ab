"""Per-layer time split, measured from outside the simulator.

A traced repetition patches the public entry points of each simulator
layer (class attributes replaced by timing wrappers, restored on exit),
so nothing under ``src/`` changes and an untraced repetition runs the
unmodified code.  Every outermost call into a layer records one span:
its kind, its parent span, and its start and end on the host clock.
A call into a layer from inside the same layer (``step_cost`` calling
``step_time``, a policy calling ``super().choose``) belongs to the
enclosing span and records nothing.

A layer's self time is the time its spans cover minus the time their
child spans cover.  ``other.self_s`` is the traced wall time no span
covers (the drive loops that are not a layer of their own, report
serialization), so the layer self times plus ``other.self_s`` add up to
the traced ``wall_s``; :meth:`LayerTrace.split` checks that they do.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

#: Layers in report order.
LAYERS = (
    "gpu", "models", "serving.costmodel", "serving.scheduler",
    "serving.memory", "serving.engine", "serving.metrics",
    "cluster.router", "controlplane", "obs",
)

#: Span kinds: one per layer, except that engine advances are split by
#: whether the call took the epoch fast path.
SPAN_KINDS = (
    "gpu", "models", "serving.costmodel", "serving.scheduler",
    "serving.memory", "serving.engine.epoch", "serving.engine.classic",
    "serving.metrics", "cluster.router", "controlplane", "obs",
)
_KIND = {kind: code for code, kind in enumerate(SPAN_KINDS)}
_LAYER_OF_KIND = tuple(
    LAYERS.index("serving.engine") if kind.startswith("serving.engine")
    else LAYERS.index(kind)
    for kind in SPAN_KINDS
)

#: Every per-layer metric a traced run reports: name -> (unit, better).
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", "lower")
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
METRICS.update({
    "gpu.memo_hit_ratio": ("ratio", "higher"),
    "gpu.memo_lookups": ("count", "lower"),
    "models.memo_hit_ratio": ("ratio", "higher"),
    "models.memo_lookups": ("count", "lower"),
    "serving.costmodel.builds": ("count", "lower"),
    "serving.costmodel.steps_per_call": ("steps/call", "higher"),
    "serving.scheduler.preemptions": ("count", "lower"),
    "serving.engine.epoch_self_s": ("s", "lower"),
    "serving.engine.classic_self_s": ("s", "lower"),
    "serving.engine.steps": ("count", "lower"),
    "serving.engine.epoch_coverage": ("ratio", "higher"),
    "serving.engine.mean_epoch_len": ("steps", "higher"),
    "serving.engine.host_us_per_step": ("us", "lower"),
    "cluster.router.steps_per_advance": ("steps/call", "higher"),
    "controlplane.cold_starts": ("count", "lower"),
    "obs.events": ("count", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

#: Per-layer metrics that are counts of simulated work: a fixed seed
#: must reproduce them exactly, run after run.
DETERMINISTIC = tuple(
    name for name, (unit, _) in METRICS.items()
    if unit != "s" and name not in ("serving.engine.host_us_per_step",
                                    "trace.overhead_ratio")
)


def _targets():
    """``(owner class, attribute, span kind)`` for every timed call."""
    from repro.cluster.costmodel import ShardedStepCostModel
    from repro.cluster.metrics import ClusterPlanReport
    from repro.cluster.policies import POLICIES, RouterPolicy
    from repro.cluster.router import ClusterSimulator
    from repro.controlplane.autoscaler import Autoscaler
    from repro.controlplane.controller import ControlPlaneSimulator
    from repro.controlplane.report import ControlPlanePlanReport
    from repro.gpu.device import Device
    from repro.models.runtime import InferenceSession
    from repro.obs.tracer import Tracer
    from repro.serving.costmodel import StepCostModel
    from repro.serving.memory import KVBlockManager
    from repro.serving.metrics import (
        LatencyAccumulator,
        LatencyStats,
        PlanReport,
    )
    from repro.serving.scheduler import ContinuousBatchingScheduler

    policies = [RouterPolicy, *POLICIES.values()]
    return [
        (Device, "launch", "gpu"),
        (InferenceSession, "simulate", "models"),
        (StepCostModel, "step_time", "serving.costmodel"),
        (StepCostModel, "decode_step_time", "serving.costmodel"),
        (ShardedStepCostModel, "step_cost", "serving.costmodel"),
        (ShardedStepCostModel, "decode_step_cost", "serving.costmodel"),
        (ShardedStepCostModel, "step_time", "serving.costmodel"),
        (ContinuousBatchingScheduler, "schedule", "serving.scheduler"),
        (ContinuousBatchingScheduler, "complete_step", "serving.scheduler"),
        (ContinuousBatchingScheduler, "admit", "serving.scheduler"),
        (ContinuousBatchingScheduler, "submit", "serving.scheduler"),
        (KVBlockManager, "grow", "serving.memory"),
        (KVBlockManager, "release", "serving.memory"),
        (PlanReport, "from_run", "serving.metrics"),
        (PlanReport, "from_aggregates", "serving.metrics"),
        (ClusterPlanReport, "from_replicas", "serving.metrics"),
        (ClusterPlanReport, "from_outcomes", "serving.metrics"),
        (ControlPlanePlanReport, "__init__", "serving.metrics"),
        (LatencyStats, "from_values", "serving.metrics"),
        (LatencyStats, "from_accumulator", "serving.metrics"),
        (LatencyAccumulator, "add", "serving.metrics"),
        (LatencyAccumulator, "merge", "serving.metrics"),
        (ClusterSimulator, "run", "cluster.router"),
        *[(policy, "choose", "cluster.router") for policy in policies
          if "choose" in vars(policy)],
        (ControlPlaneSimulator, "run", "controlplane"),
        (Autoscaler, "decide", "controlplane"),
        (Tracer, "complete", "obs"),
        (Tracer, "counter", "obs"),
        (Tracer, "instant", "obs"),
    ]


class LayerTrace:
    """Spans and counts of one traced repetition.

    Use as a context manager: entering patches every target, leaving
    restores the originals.  Spans are recorded only between
    :meth:`start` and :meth:`stop`; counts of objects built (cost
    models, tracers) are kept for the whole block, so simulator
    construction during set up is counted too.
    """

    def __init__(self) -> None:
        self.kinds = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: "Counter[str]" = Counter()
        #: Tracers built while installed; their events are counted at
        #: the end (``obs.events``).
        self.tracers: list = []
        self.active = False
        self._stack = [-1]
        self._layers = [-1]
        self._saved: list = []

    # -- patching -------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        from repro.cluster.replica import Replica
        from repro.obs.tracer import Tracer
        from repro.serving.costmodel import StepCostModel
        from repro.serving.engine import EpochEngine

        for owner, attr, kind in _targets():
            self._patch(owner, attr, lambda fn, kind=kind:
                        self._timed(fn, kind))
        self._patch(EpochEngine, "advance", self._timed_engine)
        self._patch(StepCostModel, "__init__", lambda fn: self._counted(
            fn, "serving.costmodel.builds"))
        self._patch(Tracer, "__init__", self._kept_tracer)
        self._patch(Replica, "advance", self._counted_advance)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _patch(self, owner, attr, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    # -- wrappers -------------------------------------------------------

    def _open(self, kind: int) -> int:
        index = len(self.kinds)
        self.kinds.append(kind)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self._layers.append(_LAYER_OF_KIND[kind])
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def _timed(self, fn, kind_name: str):
        kind = _KIND[kind_name]
        layer = _LAYER_OF_KIND[kind]
        # Only the scheduler preempts; its calls also count preemptions.
        scheduler = kind_name == "serving.scheduler"
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.active or trace._layers[-1] == layer:
                return fn(*args, **kwargs)
            if scheduler:
                before = args[0].preemption_events
            index = trace._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._close(index)
            if scheduler:
                trace.counts["serving.scheduler.preemptions"] += (
                    args[0].preemption_events - before)
            return result

        return wrapper

    def _timed_engine(self, fn):
        classic = _KIND["serving.engine.classic"]
        epoch = _KIND["serving.engine.epoch"]
        trace = self

        @functools.wraps(fn)
        def advance(engine, *args, **kwargs):
            if not trace.active:
                return fn(engine, *args, **kwargs)
            epoch_steps, epochs = engine.epoch_steps, engine.epochs
            index = trace._open(classic)
            try:
                steps = fn(engine, *args, **kwargs)
            finally:
                trace._close(index)
            grew = engine.epoch_steps - epoch_steps
            if grew:
                trace.kinds[index] = epoch
            trace.counts["serving.engine.steps"] += steps
            trace.counts["serving.engine.epoch_steps"] += grew
            trace.counts["serving.engine.epochs"] += engine.epochs - epochs
            return steps

        return advance

    def _counted(self, fn, name: str):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kept_tracer(self, fn):
        trace = self

        @functools.wraps(fn)
        def __init__(tracer, *args, **kwargs):
            fn(tracer, *args, **kwargs)
            trace.tracers.append(tracer)

        return __init__

    def _counted_advance(self, fn):
        trace = self

        @functools.wraps(fn)
        def advance(replica, *args, **kwargs):
            steps = fn(replica, *args, **kwargs)
            if trace.active:
                trace.counts["cluster.router.advances"] += 1
                trace.counts["cluster.router.advance_steps"] += steps
            return steps

        return advance

    # -- recording ------------------------------------------------------

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- the split ------------------------------------------------------

    def split(self, wall_s: float) -> "tuple[dict[str, float], list[str]]":
        """Per-layer metrics for a recording that took ``wall_s``.

        Returns the metrics and a list of problems: self time that adds
        up to something other than ``wall_s``, or a child span that
        outlasts its parent.
        """
        n = len(self.kinds)
        kinds = np.frombuffer(self.kinds, dtype=np.int8).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = (np.frombuffer(self.ends, dtype=np.float64)
                    - np.frombuffer(self.starts, dtype=np.float64))
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested],
                              minlength=n)
        self_time = duration - covered
        width = len(SPAN_KINDS)
        calls = np.bincount(kinds, minlength=width)
        self_by_kind = np.bincount(kinds, weights=self_time, minlength=width)
        total_by_kind = np.bincount(kinds, weights=duration, minlength=width)
        other = wall_s - float(duration[~nested].sum())

        metrics: "dict[str, float]" = {}
        for layer_index, layer in enumerate(LAYERS):
            codes = [code for code, owner in enumerate(_LAYER_OF_KIND)
                     if owner == layer_index]
            metrics[f"{layer}.calls"] = int(calls[codes].sum())
            metrics[f"{layer}.self_s"] = float(self_by_kind[codes].sum())
        metrics["other.self_s"] = other
        metrics["serving.engine.epoch_self_s"] = float(
            self_by_kind[_KIND["serving.engine.epoch"]])
        metrics["serving.engine.classic_self_s"] = float(
            self_by_kind[_KIND["serving.engine.classic"]])

        counts = self.counts
        steps = counts["serving.engine.steps"]
        engine_total = float(total_by_kind[_KIND["serving.engine.epoch"]]
                             + total_by_kind[_KIND["serving.engine.classic"]])
        metrics["serving.engine.steps"] = steps
        metrics["serving.engine.epoch_coverage"] = (
            counts["serving.engine.epoch_steps"] / steps if steps else 0.0)
        metrics["serving.engine.mean_epoch_len"] = (
            counts["serving.engine.epoch_steps"]
            / counts["serving.engine.epochs"]
            if counts["serving.engine.epochs"] else 0.0)
        metrics["serving.engine.host_us_per_step"] = (
            engine_total * 1e6 / steps if steps else 0.0)
        cost_calls = metrics["serving.costmodel.calls"]
        metrics["serving.costmodel.builds"] = counts[
            "serving.costmodel.builds"]
        metrics["serving.costmodel.steps_per_call"] = (
            steps / cost_calls if cost_calls else 0.0)
        metrics["serving.scheduler.preemptions"] = counts[
            "serving.scheduler.preemptions"]
        advances = counts["cluster.router.advances"]
        metrics["cluster.router.steps_per_advance"] = (
            counts["cluster.router.advance_steps"] / advances
            if advances else 0.0)
        metrics["obs.events"] = sum(t.event_count for t in self.tracers)

        problems = []
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(layer_sum + other - wall_s) > 1e-9 + 1e-6 * wall_s:
            problems.append(
                f"layer self time {layer_sum!r} + other {other!r} != "
                f"traced wall {wall_s!r}")
        if n and float(self_time.min()) < -1e-6:
            problems.append("a child span outlasts its parent")
        if other < -1e-6:
            problems.append(f"spans cover more than the traced wall "
                            f"({-other!r} s more)")
        return metrics, problems
