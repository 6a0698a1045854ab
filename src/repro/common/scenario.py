"""One scenario object shared by every simulator and the autotuner.

Historically each CLI subcommand re-declared its model / device /
workload / arrival / sharding flags and every simulator took a
slightly different constructor shape, which made a tuned-plan artifact
impossible to consume uniformly.  :class:`ScenarioSpec` is the fix: a
frozen, JSON-round-trippable description of *what* to simulate —

- **model/device** — model name (or a ModelConfig JSON path) and GPU;
- **workload** (:class:`WorkloadSpec`) — arrival rate, window, seed,
  trace file, engine knobs (chunk/batch/block/tile sizes), and the
  single-inference shape;
- **arrival** (:class:`ArrivalSpec`) — the arrival-process family and
  its parameters (``kind=None`` keeps the legacy Poisson stream and
  reports byte-identical to earlier releases);
- **sharding** (:class:`ShardingSpec`) — replicas, TP×PP, routing
  policy, collective algorithm, interconnect;
- **plan source** — the plans to compare, or a tuned-plan artifact
  (``plan_file``) that pins both the plan and the knobs it tuned.

Every flag that sets a scenario field (or a :class:`RunSettings`
value: the single-inference plan and the control plane's tiers,
autoscaler, shedding and faults) is declared once, in :data:`FLAGS`:
its name, the field it sets, type, choices, help, the subcommands that
accept it, and the conditions under which it applies.  The default is
the dataclass field's.  The subcommand parsers (:func:`add_flags`),
``from_args`` and the applicability check (:func:`check_flags`: a
non-default value where the flag does not apply is a
:class:`~repro.common.errors.ConfigError`) are all generated from it.
``repro tune`` emits artifacts whose ``scenario`` section *is*
``spec.to_dict()``, and scores each candidate configuration through
:meth:`ScenarioSpec.configured`, the same path ``--plan-file`` takes,
so tuner output and simulator input are the same object.
"""

from __future__ import annotations

from dataclasses import (
    asdict, dataclass, field, fields, is_dataclass, replace)
from typing import Callable, Optional

from repro.common.errors import ConfigError, ScenarioError
from repro.controlplane.autoscaler import AutoscalerConfig
from repro.gpu.specs import gpu_names
from repro.models.config import model_names

#: Schema tag stamped on serialized scenarios (nested inside tuned-plan
#: artifacts and accepted back by ``ScenarioSpec.from_dict``).
SCENARIO_SCHEMA = "repro.scenario/v1"


def _from_mapping(cls, mapping, *, where: str):
    """Build dataclass ``cls`` from ``mapping``, rejecting unknowns."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected an object, got "
                            f"{type(mapping).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {unknown}")
    return cls(**mapping)


@dataclass(frozen=True)
class WorkloadSpec:
    """The request stream and per-engine knobs of a scenario."""

    rate: float = 8.0
    duration: float = 60.0
    seed: int = 0
    #: JSONL request trace replayed instead of the synthetic workload.
    trace_file: Optional[str] = None
    chunk_tokens: int = 512
    max_batch: int = 32
    block_tokens: int = 64
    #: Softmax decomposition tile width (no CLI flag; tuned plans set it).
    t: int = 64
    engine: str = "epoch"
    #: Synthetic shared-prefix groups (cluster workloads; 0 = none).
    prefix_groups: int = 0
    #: Single-inference shape (``latency`` objective / ``simulate``).
    seq_len: int = 4096
    batch: int = 1
    #: Speculative decoding: draft model name (``None`` disables — the
    #: default keeps reports byte-identical to earlier releases).
    draft_model: Optional[str] = None
    draft_len: int = 4
    accept_rate: float = 1.0


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival-process family and parameters (``kind=None`` = legacy
    Poisson stream, not echoed into reports)."""

    kind: Optional[str] = None
    burst_rate: float = 0.0
    base_dwell: float = 20.0
    burst_dwell: float = 5.0
    period: float = 0.0


@dataclass(frozen=True)
class MoESpec:
    """Mixture-of-experts overlay applied to the scenario's model.

    ``n_experts=1`` (the default) leaves the model untouched, so every
    pre-MoE scenario document keeps meaning exactly what it meant.
    With ``n_experts > 1`` the dense model's FFN is replaced by a
    routed expert bank (:func:`repro.models.moe.moe_overrides`).
    """

    n_experts: int = 1
    top_k: int = 1
    capacity_factor: float = 1.25


@dataclass(frozen=True)
class ShardingSpec:
    """Fleet shape: replicas, TP×PP×EP, routing, and interconnect."""

    replicas: int = 2
    tp: int = 1
    pp: int = 1
    #: Expert-parallel shards (MoE models only; 1 = all experts
    #: resident on every TP group).
    ep: int = 1
    policy: str = "round-robin"
    algorithm: str = "ring"
    interconnect: str = "nvlink3"
    jobs: int = 1


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable simulation scenario."""

    model: str = "bert-large"
    model_json: Optional[str] = None
    gpu: str = "A100"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    sharding: ShardingSpec = field(default_factory=ShardingSpec)
    moe: MoESpec = field(default_factory=MoESpec)
    #: Plans to compare, in report order.
    plans: "tuple[str, ...]" = ("baseline", "sdf")
    #: Tuned-plan artifact pinning the plan + knobs (overrides both).
    plan_file: Optional[str] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_args(cls, args) -> "ScenarioSpec":
        """Build a spec from an argparse namespace (see :data:`FLAGS`).

        Reads only the table flags the namespace carries, so a
        ``serve-sim`` namespace (no sharding flags) keeps the sharding
        defaults.
        """
        return _from_args(cls(), "spec", args)

    @classmethod
    def from_dict(cls, document: "dict[str, object]") -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown fields or a foreign schema tag raise
        :class:`~repro.common.errors.ScenarioError` — a scenario that
        silently drops fields would simulate something else.
        """
        if not isinstance(document, dict):
            raise ScenarioError(
                f"scenario: expected an object, got "
                f"{type(document).__name__}")
        document = dict(document)
        schema = document.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"scenario schema mismatch: expected {SCENARIO_SCHEMA!r}, "
                f"got {schema!r}")
        nested = {
            "workload": WorkloadSpec,
            "arrival": ArrivalSpec,
            "sharding": ShardingSpec,
            "moe": MoESpec,
        }
        kwargs: "dict[str, object]" = {}
        for key, value in document.items():
            if key in nested:
                kwargs[key] = _from_mapping(nested[key], value,
                                            where=f"scenario.{key}")
            elif key == "plans":
                kwargs[key] = tuple(value)
            elif key in {f.name for f in fields(cls)}:
                kwargs[key] = value
            else:
                raise ScenarioError(f"scenario: unknown field {key!r}")
        return cls(**kwargs)

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready mapping; ``from_dict`` inverts it exactly."""
        return {"schema": SCENARIO_SCHEMA, **asdict(self),
                "plans": list(self.plans)}

    # -- resolution helpers ---------------------------------------------

    def resolve_model(self):
        """Model name or, with ``model_json``, the loaded ModelConfig.

        With ``moe.n_experts > 1`` the resolved model gets the
        mixture-of-experts overlay applied; the degenerate default is
        the identity, so dense scenarios resolve to exactly what they
        always did (names included).
        """
        if self.model_json:
            from repro.models.serialization import load_config

            model = load_config(self.model_json)
        else:
            model = self.model
        if self.moe.n_experts > 1:
            from repro.models.config import get_model
            from repro.models.moe import moe_overrides

            model = moe_overrides(
                get_model(model) if isinstance(model, str) else model,
                n_experts=self.moe.n_experts,
                top_k=self.moe.top_k,
                capacity_factor=self.moe.capacity_factor,
            )
        return model

    def make_arrival(self):
        """The arrival process selected by ``arrival.kind``, or ``None``.

        ``None`` keeps the workload on its legacy default Poisson
        stream and the result document byte-identical to earlier
        releases; any explicit choice — including ``"poisson"`` — is
        echoed into the report's ``arrival`` field.
        """
        if self.arrival.kind is None:
            return None
        from repro.serving import make_arrival

        return make_arrival(
            self.arrival.kind, rate=self.workload.rate,
            burst_rate=self.arrival.burst_rate,
            base_dwell=self.arrival.base_dwell,
            burst_dwell=self.arrival.burst_dwell,
            period=self.arrival.period, duration=self.workload.duration,
        )

    def load_requests(self):
        """The replayed trace, or ``None`` for the synthetic stream."""
        if not self.workload.trace_file:
            return None
        from repro.serving import load_trace

        return load_trace(self.workload.trace_file,
                          block_tokens=self.workload.block_tokens)

    def interconnect_spec(self):
        """The named intra-replica interconnect."""
        from repro.gpu.interconnect import NVLINK3, PCIE4

        specs = {"nvlink3": NVLINK3, "pcie4": PCIE4}
        try:
            return specs[self.sharding.interconnect]
        except KeyError:
            raise ScenarioError(
                f"unknown interconnect {self.sharding.interconnect!r}; "
                f"choose from {', '.join(sorted(specs))}") from None

    def resolved(self) -> "ScenarioSpec":
        """The spec with any ``plan_file`` artifact applied.

        The artifact is authoritative for the plan and every knob it
        tuned (tile width, chunk size, batch cap, TP×PP, policy):
        consuming a tuned plan means running the configuration that
        won, not a hybrid.  Returns ``self`` when no artifact is set.
        """
        if self.plan_file is None:
            return self
        from repro.tune.artifact import load_tuned_plan

        return self.configured(load_tuned_plan(self.plan_file).winner_config)

    def configured(self, config: "dict[str, object]") -> "ScenarioSpec":
        """The spec running one tuner configuration.

        Pins ``plans`` to ``config["plan"]`` and overwrites exactly the
        knobs ``config`` carries (see :data:`TUNED_KNOBS`); everything
        else (model, device, workload shape, arrival process) stays the
        scenario's own.  ``--plan-file`` and the tuner's candidates both
        go through here, so a tuned plan runs what the tuner scored.
        """
        return replace(
            self,
            plans=(str(config["plan"]),),
            plan_file=None,
            **{section: replace(getattr(self, section),
                                **{key: config[key] for key in keys
                                   if key in config})
               for section, keys in TUNED_KNOBS.items()},
        )

    # -- simulator entry points -----------------------------------------

    def _simulator_kwargs(self, *, fleet: bool) -> "dict[str, object]":
        """The keyword arguments every ``simulate_*`` entry point shares
        (plus the fleet shape when ``fleet``)."""
        workload = self.workload
        kwargs = dict(
            rate=workload.rate, duration=workload.duration,
            seed=workload.seed, plans=self.plans,
            requests=self.load_requests(), arrival=self.make_arrival(),
            chunk_tokens=workload.chunk_tokens,
            max_batch=workload.max_batch,
            block_tokens=workload.block_tokens, t=workload.t,
            engine=workload.engine, draft_model=workload.draft_model,
            draft_len=workload.draft_len, accept_rate=workload.accept_rate,
        )
        if fleet:
            sharding = self.sharding
            kwargs.update(
                replicas=sharding.replicas, tp=sharding.tp,
                pp=sharding.pp, ep=sharding.ep, policy=sharding.policy,
                algorithm=sharding.algorithm,
                interconnect=self.interconnect_spec(),
            )
        return kwargs

    def run_serving(self):
        """Single-node serving comparison over this scenario."""
        from repro.serving import simulate_serving

        spec = self.resolved()
        return simulate_serving(spec.resolve_model(), spec.gpu,
                                **spec._simulator_kwargs(fleet=False))

    def run_cluster(self):
        """Sharded multi-replica comparison over this scenario."""
        from repro.cluster import simulate_cluster

        spec = self.resolved()
        return simulate_cluster(
            spec.resolve_model(), spec.gpu,
            prefix_groups=spec.workload.prefix_groups,
            jobs=spec.sharding.jobs,
            **spec._simulator_kwargs(fleet=True),
        )

    def run_controlplane(self, *, tiers=None, autoscaler=None, faults=None,
                         shed_backlog_tokens: float = 0.0,
                         cold_start_s: "float | None" = None):
        """Control-plane run (SLO tiers, autoscaling, faults) over this
        scenario.  Control-loop configuration stays a call-site choice
        — it describes the controller, not the scenario (the CLI builds
        it with :meth:`RunSettings.controller_kwargs`)."""
        from repro.controlplane import DEFAULT_TIERS, simulate_controlplane

        spec = self.resolved()
        return simulate_controlplane(
            spec.resolve_model(), spec.gpu,
            tiers=tiers if tiers is not None else DEFAULT_TIERS,
            autoscaler=autoscaler, faults=faults,
            shed_backlog_tokens=shed_backlog_tokens,
            cold_start_s=cold_start_s,
            **spec._simulator_kwargs(fleet=True),
        )


#: The knobs a tuner configuration (and so a tuned-plan artifact's
#: winner) may carry, by scenario section.
TUNED_KNOBS = {
    "workload": ("t", "chunk_tokens", "max_batch", "draft_len"),
    "sharding": ("tp", "pp", "policy"),
    "moe": ("top_k",),
}


@dataclass(frozen=True)
class RunSettings:
    """What a command takes beside its scenario: the single-inference
    plan, and the control plane's SLO tiers, autoscaler, shedding and
    faults.

    These stay out of :class:`ScenarioSpec` on purpose: they configure
    one command's run (the controller, not the scenario), and tuned-plan
    artifacts echo ``ScenarioSpec.to_dict()`` byte for byte.
    """

    #: Attention plan of a single inference (``simulate``, ``trace
    #: --sim inference``, ...).
    plan: str = "baseline"
    #: SLO tiers as ``name:share:ttft[:tpot[:attainment]],...``
    #: (``None``: the default interactive/batch pair).
    tiers: Optional[str] = None
    autoscale: bool = False
    min_replicas: int = AutoscalerConfig.min_replicas
    max_replicas: int = AutoscalerConfig.max_replicas
    control_interval: float = AutoscalerConfig.control_interval
    #: Replica cold start, seconds (``None``: derived from weight load
    #: and KV-pool init).
    cold_start: Optional[float] = AutoscalerConfig.cold_start_s
    shed_tokens: float = 0.0
    deaths: int = 0
    stragglers: int = 0
    #: Explicit death times, seconds (replaces the seeded schedule).
    death: "Optional[tuple[float, ...]]" = None

    @classmethod
    def from_args(cls, args) -> "RunSettings":
        """Read the table's run settings from an argparse namespace."""
        return _from_args(cls(), "settings", args)

    def controller_kwargs(self, spec: ScenarioSpec) -> "dict[str, object]":
        """Tiers, autoscaler, fault schedule, shedding and cold start
        for :meth:`ScenarioSpec.run_controlplane`."""
        from repro.controlplane import (
            DEFAULT_TIERS, FailureSchedule, parse_tiers)

        autoscaler = None
        if self.autoscale:
            autoscaler = AutoscalerConfig(
                min_replicas=self.min_replicas,
                max_replicas=self.max_replicas,
                control_interval=self.control_interval,
                cold_start_s=self.cold_start,
            )
        faults = None
        if self.death:
            faults = FailureSchedule(deaths=tuple(sorted(self.death)))
        elif self.deaths or self.stragglers:
            faults = FailureSchedule.random(
                duration=spec.workload.duration, seed=spec.workload.seed,
                deaths=self.deaths, stragglers=self.stragglers)
        return dict(
            tiers=parse_tiers(self.tiers) if self.tiers else DEFAULT_TIERS,
            autoscaler=autoscaler, faults=faults,
            shed_backlog_tokens=self.shed_tokens,
            cold_start_s=self.cold_start,
        )


@dataclass(frozen=True)
class Invocation:
    """One command's parsed flags: the scenario, the run settings, and
    the simulator that runs them (``inference``, ``serving``,
    ``cluster`` or ``controlplane``)."""

    command: str
    simulator: str
    spec: ScenarioSpec
    settings: RunSettings

    @classmethod
    def from_args(cls, args) -> "Invocation":
        if args.command == "tune":
            from repro.tune.evaluate import default_mode

            simulator = default_mode(args.objective, args.sim)
        else:  # trace picks with --sim; the inference commands have none
            simulator = getattr(args, "sim", None) or {
                "serve-sim": "serving", "cluster-sim": "cluster",
                "controlplane-sim": "controlplane",
            }.get(args.command, "inference")
        return cls(args.command, simulator, ScenarioSpec.from_args(args),
                   RunSettings.from_args(args))

    @property
    def searches_fleet(self) -> bool:
        """The tuner searches TP, PP and the routing policy, so every
        fleet knob those axes reach applies."""
        return self.command == "tune" and self.simulator == "cluster"


# -- the flag table ---------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """When a flag applies: ``test`` over the :class:`Invocation` (its
    spec with any ``--plan-file`` applied), and the text completing
    ``"<flag> applies only ..."``."""

    test: "Callable[[Invocation], bool]"
    text: str


_ONE_INFERENCE = Condition(lambda run: run.simulator == "inference",
                           "to single inferences (trace --sim inference, "
                           "tune --objective latency)")
_SERVING = Condition(lambda run: run.simulator != "inference",
                     "to serving simulations")
#: ``--seed`` and ``--plans`` also seed and anchor the tuner's search.
_SERVING_OR_TUNE = Condition(
    lambda run: run.simulator != "inference" or run.command == "tune",
    _SERVING.text)
#: A replayed trace alone drives the request stream.  The control plane
#: still draws its tiers and random faults from ``--seed`` over
#: ``--duration``, and ``tune`` seeds its search with ``--seed``.
_SYNTHETIC = Condition(lambda run: run.spec.workload.trace_file is None,
                       "without --trace-file")
_SYNTHETIC_OR_CONTROL = Condition(
    lambda run: _SYNTHETIC.test(run) or run.simulator == "controlplane",
    _SYNTHETIC.text)
_SEEDED = Condition(
    lambda run: _SYNTHETIC_OR_CONTROL.test(run) or run.command == "tune",
    _SYNTHETIC.text)
_NO_MODEL_JSON = Condition(lambda run: run.spec.model_json is None,
                           "without --model-json")
_MMPP = Condition(lambda run: run.spec.arrival.kind == "mmpp",
                  "with --arrival mmpp")
_DIURNAL = Condition(lambda run: run.spec.arrival.kind == "diurnal",
                     "with --arrival diurnal")
_MOE = Condition(lambda run: run.spec.moe.n_experts > 1,
                 "with --n-experts > 1")
_DRAFT = Condition(lambda run: run.spec.workload.draft_model is not None,
                   "with --draft-model")
_FLEET = Condition(lambda run: run.simulator in ("cluster", "controlplane"),
                   "to cluster and control-plane simulations")
#: ``trace --sim controlplane`` always routes least-outstanding.
_ROUTED = Condition(lambda run: run.simulator == "cluster"
                    or run.command == "controlplane-sim",
                    "to cluster-sim, controlplane-sim and --sim cluster")
_PREFIX_AFFINITY = Condition(
    lambda run: run.spec.sharding.policy == "prefix-affinity"
    or run.searches_fleet, "with --policy prefix-affinity")
#: All-reduces run only inside a TP group (``parallel`` sweeps 2-8).
_TP = Condition(lambda run: run.spec.sharding.tp > 1 or run.searches_fleet
                or run.command == "parallel", "with --tp > 1")
#: The interconnect prices collectives and control-plane cold starts.
_LINKED = Condition(
    lambda run: run.simulator == "controlplane" or run.searches_fleet
    or max(run.spec.sharding.tp, run.spec.sharding.pp,
           run.spec.sharding.ep) > 1, "with --tp, --pp or --ep > 1")
_CLUSTER = Condition(lambda run: run.simulator == "cluster",
                     "to cluster simulations")
_AUTOSCALE = Condition(lambda run: run.settings.autoscale,
                       "with --autoscale")
_NO_DEATH = Condition(lambda run: run.settings.death is None,
                      "without --death")


@dataclass(frozen=True)
class Flag:
    """One row of the flag table.

    ``field`` is the value's path from an :class:`Invocation`
    (``spec.arrival.burst_rate``, ``settings.autoscale``); its default
    is that dataclass field's default.  ``commands`` are the
    subcommands that accept the flag, and ``when`` the conditions
    under which a non-default value changes the run.
    """

    name: str
    field: str
    commands: "frozenset[str]"
    help: str
    type: "Optional[Callable]" = None
    choices: "Optional[tuple]" = None
    action: Optional[str] = None
    when: "tuple[Condition, ...]" = ()

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")

    def value(self, run: Invocation):
        for part in self.field.split("."):
            run = getattr(run, part)
        return run

    def add_to(self, parser) -> None:
        options = dict(type=self.type, choices=self.choices,
                       action=self.action)
        parser.add_argument(
            self.name, default=self.value(_DEFAULTS), help=self.help,
            **{key: value for key, value in options.items()
               if value is not None})


def _plan_list(text: str) -> "tuple[str, ...]":
    return tuple(plan.strip() for plan in text.split(","))


_DEFAULTS = Invocation("", "", ScenarioSpec(), RunSettings())
_INFER = frozenset({
    "simulate", "compare", "breakdown", "libraries", "sweep", "generate",
    "parallel", "roofline", "footprint",
})
_SERVE = frozenset({
    "serve-sim", "cluster-sim", "controlplane-sim", "trace", "tune",
})
_SHARD = frozenset({"cluster-sim", "trace", "tune"})
_CONTROL = frozenset({"controlplane-sim"})


#: Every scenario and run-setting flag, declared once.  The parsers
#: (:func:`add_flags`), ``from_args`` and :func:`check_flags` all read
#: this table.
FLAGS: "tuple[Flag, ...]" = (
    # -- model and device
    Flag("--model", "spec.model", _INFER - {"breakdown"} | _SERVE,
         "model preset: " + " | ".join(model_names()),
         when=(_NO_MODEL_JSON,)),
    Flag("--model-json", "spec.model_json",
         _INFER - {"breakdown"} | _SERVE,
         "path to a custom ModelConfig JSON file (replaces --model)"),
    Flag("--gpu", "spec.gpu",
         _INFER | _SERVE | {"seq2seq", "approx-sweep"},
         "GPU preset: " + " | ".join(gpu_names())),
    # -- single inference
    Flag("--seq-len", "spec.workload.seq_len", _INFER | {"trace", "tune"},
         "single-inference sequence length", int, when=(_ONE_INFERENCE,)),
    Flag("--batch", "spec.workload.batch",
         _INFER | {"seq2seq", "trace", "tune"},
         "single-inference batch size", int, when=(_ONE_INFERENCE,)),
    Flag("--plan", "settings.plan",
         frozenset({"simulate", "generate", "parallel", "roofline",
                    "seq2seq", "trace"}),
         "attention plan of the single inference (serving simulations "
         "use --plans)", when=(_ONE_INFERENCE,)),
    # -- request stream
    Flag("--rate", "spec.workload.rate", _SERVE,
         "Poisson arrival rate, requests/second", float,
         when=(_SERVING, _SYNTHETIC)),
    Flag("--duration", "spec.workload.duration", _SERVE,
         "arrival-window length, seconds (the run continues until every "
         "request drains)", float, when=(_SERVING, _SYNTHETIC_OR_CONTROL)),
    Flag("--seed", "spec.workload.seed", _SERVE,
         "workload seed (tune: also the search seed)", int,
         when=(_SERVING_OR_TUNE, _SEEDED)),
    Flag("--arrival", "spec.arrival.kind", _SERVE,
         "arrival process; default keeps the legacy Poisson stream "
         "(mmpp: bursty two-state; diurnal: day-curve thinning)",
         choices=("poisson", "mmpp", "diurnal"),
         when=(_SERVING, _SYNTHETIC)),
    Flag("--burst-rate", "spec.arrival.burst_rate", _SERVE,
         "mmpp burst-state rate, req/s (default 4x --rate)", float,
         when=(_SERVING, _SYNTHETIC, _MMPP)),
    Flag("--base-dwell", "spec.arrival.base_dwell", _SERVE,
         "mmpp mean base-state dwell, seconds", float,
         when=(_SERVING, _SYNTHETIC, _MMPP)),
    Flag("--burst-dwell", "spec.arrival.burst_dwell", _SERVE,
         "mmpp mean burst-state dwell, seconds", float,
         when=(_SERVING, _SYNTHETIC, _MMPP)),
    Flag("--period", "spec.arrival.period", _SERVE,
         "diurnal day-curve period, seconds (default: --duration, i.e. "
         "one compressed day per run)", float,
         when=(_SERVING, _SYNTHETIC, _DIURNAL)),
    Flag("--trace-file", "spec.workload.trace_file", _SERVE,
         "JSONL request trace to replay instead of the synthetic "
         "Poisson workload", when=(_SERVING,)),
    # -- plans
    Flag("--plans", "spec.plans", _SERVE,
         "comma-separated plans to compare (baseline, sd, sdf); tune "
         "starts from the last", _plan_list, when=(_SERVING_OR_TUNE,)),
    Flag("--plan-file", "spec.plan_file", _SERVE,
         "tuned-plan artifact (repro.tuned_plan/v1, from `repro tune`); "
         "pins the plan and the knobs it tuned, overriding --plans",
         when=(_SERVING,)),
    # -- engine
    Flag("--chunk-tokens", "spec.workload.chunk_tokens", _SERVE,
         "prefill chunk size / per-step prefill budget", int,
         when=(_SERVING,)),
    Flag("--max-batch", "spec.workload.max_batch", _SERVE,
         "max concurrently running requests", int, when=(_SERVING,)),
    Flag("--block-tokens", "spec.workload.block_tokens", _SERVE,
         "KV-cache block size, tokens", int, when=(_SERVING,)),
    Flag("--engine", "spec.workload.engine", _SERVE,
         "stepping mode: epoch-batched fast path (default) or the "
         "classic per-step event loop (identical output, slower)",
         choices=("epoch", "event"), when=(_SERVING,)),
    # -- mixture of experts
    Flag("--n-experts", "spec.moe.n_experts", _SERVE,
         "mixture-of-experts expert count applied to the model's FFN "
         "(1 = dense, the default)", int),
    Flag("--top-k", "spec.moe.top_k", _SERVE,
         "experts each token routes to", int, when=(_MOE,)),
    Flag("--capacity-factor", "spec.moe.capacity_factor", _SERVE,
         "per-expert capacity slack over the balanced load", float,
         when=(_MOE,)),
    # -- speculative decoding
    Flag("--draft-model", "spec.workload.draft_model", _SERVE,
         "draft model enabling speculative decoding (default: disabled)",
         when=(_SERVING,)),
    Flag("--draft-len", "spec.workload.draft_len", _SERVE,
         "speculation depth: draft tokens per round", int,
         when=(_SERVING, _DRAFT)),
    Flag("--accept-rate", "spec.workload.accept_rate", _SERVE,
         "modeled per-round draft acceptance rate in [0, 1]", float,
         when=(_SERVING, _DRAFT)),
    # -- fleet shape
    Flag("--replicas", "spec.sharding.replicas", _SHARD | _CONTROL,
         "model replicas behind the router (controlplane-sim: initial "
         "replicas)", int, when=(_FLEET,)),
    Flag("--tp", "spec.sharding.tp", _SHARD | _CONTROL,
         "tensor-parallel GPUs per replica", int, when=(_FLEET,)),
    Flag("--pp", "spec.sharding.pp", _SHARD | _CONTROL,
         "pipeline-parallel stages per replica", int, when=(_FLEET,)),
    Flag("--ep", "spec.sharding.ep", _SHARD,
         "expert-parallel shards per replica (MoE models; must divide "
         "--n-experts)", int, when=(_FLEET,)),
    Flag("--policy", "spec.sharding.policy", _SHARD | _CONTROL,
         "request-routing policy",
         choices=("round-robin", "least-outstanding", "prefix-affinity"),
         when=(_FLEET, _ROUTED)),
    Flag("--prefix-groups", "spec.workload.prefix_groups", _SHARD,
         "synthetic shared-prefix groups in the workload (0 = none)", int,
         when=(_FLEET, _PREFIX_AFFINITY)),
    Flag("--algorithm", "spec.sharding.algorithm", _SHARD | {"parallel"},
         "all-reduce algorithm inside each tensor-parallel group",
         choices=("ring", "tree"), when=(_TP,)),
    Flag("--interconnect", "spec.sharding.interconnect", _SHARD,
         "intra-replica GPU interconnect", choices=("nvlink3", "pcie4"),
         when=(_FLEET, _LINKED)),
    Flag("--jobs", "spec.sharding.jobs", _SHARD,
         "worker processes for sharded replica simulation (round-robin "
         "policy only; results are identical either way)", int,
         when=(_CLUSTER,)),
    # -- control plane
    Flag("--tiers", "settings.tiers", _CONTROL,
         "SLO tiers as name:share:ttft[:tpot[:attainment]],... (highest "
         "priority first; default interactive/batch)"),
    Flag("--autoscale", "settings.autoscale", _CONTROL,
         "enable the SLO-driven autoscaler", action="store_true"),
    Flag("--min-replicas", "settings.min_replicas", _CONTROL,
         "autoscaler floor", int, when=(_AUTOSCALE,)),
    Flag("--max-replicas", "settings.max_replicas", _CONTROL,
         "autoscaler ceiling", int, when=(_AUTOSCALE,)),
    Flag("--control-interval", "settings.control_interval", _CONTROL,
         "autoscaler tick interval, seconds", float, when=(_AUTOSCALE,)),
    Flag("--cold-start", "settings.cold_start", _CONTROL,
         "replica cold-start seconds (default: derived from weight-load "
         "+ KV-pool init)", float),
    Flag("--shed-tokens", "settings.shed_tokens", _CONTROL,
         "per-replica backlog (tokens) above which the lowest tier "
         "sheds; 0 disables", float),
    Flag("--deaths", "settings.deaths", _CONTROL,
         "random replica deaths to inject", int, when=(_NO_DEATH,)),
    Flag("--stragglers", "settings.stragglers", _CONTROL,
         "random straggler slowdowns to inject", int, when=(_NO_DEATH,)),
    Flag("--death", "settings.death", _CONTROL,
         "explicit death time, seconds (repeatable; replaces --deaths "
         "and --stragglers)", float, action="append"),
)


def add_flags(parser, command: str) -> None:
    """Add every table flag ``command`` accepts to ``parser``."""
    for flag in FLAGS:
        if command in flag.commands:
            flag.add_to(parser)


_BY_FIELD = {flag.field: flag for flag in FLAGS}


def _from_args(instance, path: str, args):
    """``instance`` with every field a table flag sets, and ``args``
    carries, read from ``args`` (repeatable flags become tuples)."""
    changes = {}
    for item in fields(instance):
        value, key = getattr(instance, item.name), f"{path}.{item.name}"
        if is_dataclass(value):
            changes[item.name] = _from_args(value, key, args)
        elif key in _BY_FIELD and hasattr(args, _BY_FIELD[key].dest):
            value = getattr(args, _BY_FIELD[key].dest)
            changes[item.name] = (tuple(value) if isinstance(value, list)
                                  else value)
    return replace(instance, **changes)


def check_flags(parser, args) -> None:
    """Reject a flag set away from its default where it does not apply.

    The default is what the subcommand would use without the flag
    (``parser`` re-parses the bare subcommand, so per-command
    ``set_defaults`` count); the conditions see the spec with any
    ``--plan-file`` applied.  Raises
    :class:`~repro.common.errors.ConfigError` naming the first such
    flag and the condition it needs.
    """
    run = Invocation.from_args(args)
    default = Invocation.from_args(parser.parse_args([args.command]))
    live = replace(run, spec=run.spec.resolved())
    for flag in FLAGS:
        if args.command not in flag.commands or \
                flag.value(run) == flag.value(default):
            continue
        for condition in flag.when:
            if not condition.test(live):
                raise ConfigError(f"{flag.name} applies only "
                                  f"{condition.text}")
