"""Scoring one candidate configuration against a scenario.

:class:`ScenarioEvaluator` is the bridge between the search engine and
the existing simulation layers — it never re-implements a cost model:

- ``mode="inference"`` — :class:`repro.models.runtime.InferenceSession`
  end-to-end latency at the scenario's ``seq_len``/``batch`` shape;
- ``mode="serving"``   — ``ScenarioSpec.run_serving`` over the
  scenario's request stream (TTFT/TPOT percentiles, throughput);
- ``mode="cluster"``   — ``ScenarioSpec.run_cluster`` with the
  candidate's TP x PP and routing policy.

Each candidate runs as the scenario with its configuration applied
(:meth:`ScenarioEvaluator.candidate`), exactly as a ``--plan-file``
artifact is applied, so the simulators see the same arguments either
way.

Fidelity is the successive-halving lever: a fidelity of ``0.25``
replays the first quarter of the arrival window, which ranks
configurations well enough to discard the bottom half cheaply.  All
final decisions are taken at fidelity ``1.0``.

Every evaluation is memoized on ``(config, fidelity)`` — the search
re-visits configurations freely and only fresh simulations count
against the budget.  Deeper down, :mod:`repro.gpu.simcache` memoizes
the kernel-level simulations shared between candidates, so evaluations
that differ only in engine knobs are cheap.  Infeasible candidates
(any :class:`~repro.common.errors.ReproError` from construction or
execution) score ``inf`` instead of aborting the search.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.common.errors import ReproError, TuneError
from repro.obs.tracer import current_tracer

#: Tuning objectives.  All are minimized internally; ``throughput`` is
#: negated (maximize tokens/s == minimize its negation).
OBJECTIVES = ("latency", "ttft_p99", "tpot_p99", "throughput")

#: Evaluation backends.
MODES = ("inference", "serving", "cluster")


def canonical_score(objective: str, value: float) -> float:
    """Lower-is-better score for any objective (``inf`` stays ``inf``)."""
    if objective == "throughput" and math.isfinite(value):
        return -value
    return value


def default_mode(objective: str, sim: str = "serving") -> str:
    """The evaluation backend an objective implies.

    ``latency`` is a single-inference property; the serving objectives
    go through ``sim`` (``serving`` or ``cluster``).
    """
    if objective not in OBJECTIVES:
        raise TuneError(f"unknown objective {objective!r}; choose from "
                        f"{', '.join(OBJECTIVES)}")
    if objective == "latency":
        return "inference"
    if sim not in ("serving", "cluster"):
        raise TuneError(f"unknown simulator {sim!r}; choose from "
                        f"serving, cluster")
    return sim


class ScenarioEvaluator:
    """Memoizing objective function over one scenario."""

    def __init__(self, spec, objective: str, mode: str) -> None:
        if objective not in OBJECTIVES:
            raise TuneError(
                f"unknown objective {objective!r}; choose from "
                f"{', '.join(OBJECTIVES)}")
        if mode not in MODES:
            raise TuneError(f"unknown mode {mode!r}; choose from "
                            f"{', '.join(MODES)}")
        if objective == "latency" and mode != "inference":
            raise TuneError("objective 'latency' is a single-inference "
                            "property; it requires mode='inference'")
        if objective != "latency" and mode == "inference":
            raise TuneError(f"objective {objective!r} is a serving "
                            f"property; it requires a serving or "
                            f"cluster mode")
        self.spec = spec
        self.objective = objective
        self.mode = mode
        #: Fresh (non-memoized) evaluations performed so far.
        self.evaluations = 0
        self._memo: "dict[tuple, float]" = {}

    # -- memo bookkeeping -----------------------------------------------

    @staticmethod
    def _key(config: "dict[str, object]", fidelity: float) -> tuple:
        return (tuple(sorted(config.items())), fidelity)

    def seen(self, config: "dict[str, object]", fidelity: float) -> bool:
        """True when this evaluation is already memoized (free)."""
        return self._key(config, fidelity) in self._memo

    def evaluate(self, config: "dict[str, object]",
                 fidelity: float = 1.0) -> float:
        """Raw objective value of ``config`` (``inf`` if infeasible).

        Fresh evaluations increment :attr:`evaluations`; memoized
        repeats are free.
        """
        key = self._key(config, fidelity)
        if key in self._memo:
            return self._memo[key]
        tracer = current_tracer()
        self.evaluations += 1
        try:
            value = self._evaluate(config, fidelity)
        except ReproError:
            value = math.inf
        if tracer.enabled:
            tracer.metrics.counter("tune.evaluations").inc()
            if not math.isfinite(value):
                tracer.metrics.counter("tune.infeasible").inc()
        self._memo[key] = value
        return value

    # -- backends -------------------------------------------------------

    def candidate(self, config: "dict[str, object]",
                  fidelity: float = 1.0):
        """The scenario running ``config`` at ``fidelity``.

        The config is applied the way a ``--plan-file`` artifact is
        (:meth:`~repro.common.scenario.ScenarioSpec.configured`); a
        fidelity below 1 shortens the synthetic arrival window (a
        replayed trace is used whole at every fidelity).
        """
        spec = self.spec.configured(config)
        return replace(spec, workload=replace(
            spec.workload, duration=spec.workload.duration * fidelity))

    def _evaluate(self, config, fidelity: float) -> float:
        spec = self.candidate(config, fidelity)
        if self.mode == "inference":
            from repro.models.runtime import InferenceSession

            return InferenceSession(
                spec.resolve_model(), gpu=spec.gpu, plan=spec.plans[0],
                seq_len=spec.workload.seq_len, batch=spec.workload.batch,
                t=spec.workload.t,
            ).simulate().total_time
        runs = (spec.run_serving() if self.mode == "serving"
                else spec.run_cluster())
        (report,) = runs.plans.values()
        if self.objective == "ttft_p99":
            return report.ttft.p99
        if self.objective == "tpot_p99":
            return report.tpot.p99
        return report.throughput_tokens_per_s


def score_config(spec, config: "dict[str, object]", *, objective: str,
                 mode: str) -> float:
    """Full-fidelity raw objective value of one configuration.

    The round-trip check for tuned-plan artifacts: re-scoring the
    recorded winner must reproduce the recorded value exactly (the
    whole stack is deterministic).
    """
    return ScenarioEvaluator(spec, objective, mode).evaluate(config, 1.0)
