"""Seeded fuzz driver: differential runs, shrinking, failure artifacts.

``repro verify fuzz --family attention --cases N --seed S`` draws N
cases for the family, runs every registered oracle on each, checks the
differential contract plus the oracle's metamorphic invariants, and —
on failure — greedily shrinks the case's parameters to a minimal
still-failing repro, then writes a machine-readable JSON artifact.

Everything is a pure function of ``(family, seed)``: the artifact
stores only the parameter dict, because the arrays regenerate from it
(:func:`repro.verify.cases.build_case`), so
``repro verify replay artifact.json`` reproduces the failure exactly.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.common.validation import require_positive
from repro.verify.cases import (
    Case,
    build_case,
    complexity,
    draw_params,
    shrink_candidates,
)
from repro.verify.contracts import Comparison
from repro.verify.invariants import Violation, check_invariants
from repro.verify.profiles import (
    ErrorProfile,
    aggregate_profiles,
    measure_error_profile,
)
from repro.verify.registry import OracleRegistry, OracleSpec

#: Upper bound on shrink iterations (each strictly reduces complexity).
_MAX_SHRINK_STEPS = 64


@dataclass
class CaseResult:
    """Everything one oracle found wrong with one case."""

    oracle: str
    family: str
    params: "dict"
    comparison: "Comparison | None" = None
    violations: "list[Violation]" = field(default_factory=list)
    #: Measured accuracy vs the exact reference (profile oracles only).
    profile: "ErrorProfile | None" = None

    @property
    def failed(self) -> bool:
        bad_cmp = self.comparison is not None and not self.comparison.ok
        return bad_cmp or bool(self.violations)

    def describe(self) -> str:
        parts = []
        if self.comparison is not None and not self.comparison.ok:
            parts.append(f"differential {self.comparison.describe()}")
        parts.extend(v.describe() for v in self.violations)
        return "; ".join(parts) or "ok"


@dataclass
class Failure:
    """A failing case after shrinking, plus its artifact location."""

    oracle: str
    family: str
    seed: int
    original_params: "dict"
    shrunk_params: "dict"
    shrink_steps: int
    result: CaseResult
    artifact_path: "str | None" = None


@dataclass
class FuzzReport:
    """Summary of one ``fuzz_family`` run."""

    family: str
    cases: int
    seed: int
    oracles: "list[str]"
    runs: int
    failures: "list[Failure]"
    elapsed_s: float
    #: Aggregated measured accuracy per profile oracle — the harness's
    #: measurement output, populated whether or not anything failed.
    profiles: "dict[str, dict[str, object]]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"[{status}] family={self.family}: {self.cases} cases x "
            f"{len(self.oracles)} oracles = {self.runs} runs, "
            f"{len(self.failures)} failures ({self.elapsed_s:.1f}s, "
            f"seed={self.seed})",
        ]
        for name, prof in sorted(self.profiles.items()):
            kl = (f" row_kl={prof['max_row_kl']:.2e}"
                  if prof.get("max_row_kl") is not None else "")
            lines.append(
                f"  measured {name}: ulp={prof['max_ulp']} "
                f"mean_rel={prof['mean_rel_err']:.2e} "
                f"abs={prof['max_abs_err']:.2e}{kl} "
                f"p99_row={prof['p99_row_err']:.2e} "
                f"({prof['cases']} cases)"
            )
        for failure in self.failures:
            lines.append(
                f"  {failure.oracle}: {failure.result.describe()}"
            )
            lines.append(
                f"    minimal repro ({failure.shrink_steps} shrink steps): "
                f"{json.dumps(failure.shrunk_params, sort_keys=True)}"
            )
            if failure.artifact_path:
                lines.append(f"    artifact: {failure.artifact_path}")
        return "\n".join(lines)

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict(
            "fuzz-report",
            family=self.family,
            cases=self.cases,
            seed=self.seed,
            oracles=list(self.oracles),
            runs=self.runs,
            ok=self.ok,
            elapsed_s=self.elapsed_s,
            profiles=self.profiles,
            failures=[
                {
                    "oracle": f.oracle,
                    "family": f.family,
                    "seed": f.seed,
                    "shrink_steps": f.shrink_steps,
                    "shrunk_params": f.shrunk_params,
                    "artifact_path": f.artifact_path,
                }
                for f in self.failures
            ],
        )


def run_case(oracle: OracleSpec, case: Case) -> CaseResult:
    """One differential run: candidate vs reference plus invariants.

    Tolerance-contract oracles get a pass/fail array comparison;
    profile oracles get their accuracy *measured* against the exact
    reference, with a violation only when a declared budget is
    exceeded — the measurement itself is kept on the result either
    way, so the report can aggregate it.
    """
    profile_contract = oracle.profile_for(case.dtype)
    contract = oracle.contract_for(case.dtype)
    outputs = oracle.run(case)
    result = CaseResult(oracle=oracle.name, family=case.family,
                        params=dict(case.params))
    slack = float(outputs.get("slack", 0.0))
    if slack:
        # Case-dependent widening reported by the oracle itself (e.g.
        # score-magnitude-proportional accumulation slack, see
        # repro.verify.refs.accumulation_slack).
        from repro.verify.contracts import ToleranceContract

        contract = ToleranceContract(
            atol=contract.atol + slack,
            rtol=contract.rtol + slack,
            max_ulp=contract.max_ulp,
        )
    violations: "list[Violation]" = []
    if "actual" in outputs:
        if profile_contract is not None:
            result.profile = measure_error_profile(
                outputs["actual"], outputs["expected"], case.dtype,
                row_kl=profile_contract.max_row_kl is not None,
            )
            violations.extend(
                Violation(
                    "error_profile",
                    f"{metric} = {measured:.3e} exceeds declared "
                    f"budget {bound:.3e}",
                )
                for metric, measured, bound
                in result.profile.exceedances(profile_contract)
            )
        else:
            from repro.verify.contracts import compare_arrays

            result.comparison = compare_arrays(
                outputs["actual"], outputs["expected"], contract,
                case.dtype,
            )
    violations.extend(check_invariants(
        oracle.invariants, case, outputs, contract
    ))
    result.violations = violations
    return result


def _fails(oracle: OracleSpec, params: "dict") -> "CaseResult | None":
    """Re-run ``oracle`` on rebuilt ``params``; result if it fails."""
    case = build_case(oracle.family, params)
    if not oracle.applicable(case):
        return None
    try:
        result = run_case(oracle, case)
    except Exception as error:  # a shrink candidate may be degenerate
        result = CaseResult(
            oracle=oracle.name, family=case.family, params=dict(params),
            violations=[Violation("exception",
                                  f"{type(error).__name__}: {error}")],
        )
    return result if result.failed else None


def shrink(oracle: OracleSpec, family: str,
           params: "dict") -> "tuple[dict, CaseResult, int]":
    """Greedy first-improvement shrink of a failing case.

    Tries each simpler candidate; keeps the first that still fails and
    strictly reduces :func:`~repro.verify.cases.complexity`.  Returns
    ``(minimal_params, result_on_minimal, steps_taken)``.
    """
    current = dict(params)
    result = _fails(oracle, current)
    assert result is not None, "shrink() called on a passing case"
    steps = 0
    for _ in range(_MAX_SHRINK_STEPS):
        improved = False
        for candidate in shrink_candidates(family, current):
            if complexity(family, candidate) >= complexity(family, current):
                continue
            candidate_result = _fails(oracle, candidate)
            if candidate_result is not None:
                current, result = candidate, candidate_result
                steps += 1
                improved = True
                break
        if not improved:
            break
    return current, result, steps


def write_artifact(failure: Failure, directory: "str | pathlib.Path") -> str:
    """Write the machine-readable failure artifact; returns its path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # The shrunk case_seed disambiguates multiple failures of the same
    # oracle within one harness run.
    case_seed = failure.shrunk_params.get("case_seed", 0)
    name = (f"{failure.family}-{failure.oracle.replace('/', '_')}-"
            f"seed{failure.seed}-case{case_seed}.json")
    path = directory / name
    comparison = failure.result.comparison
    document = {
        "schema": "repro.verify.failure/v1",
        "family": failure.family,
        "oracle": failure.oracle,
        "harness_seed": failure.seed,
        "params": failure.shrunk_params,
        "original_params": failure.original_params,
        "shrink_steps": failure.shrink_steps,
        "differential": None if comparison is None or comparison.ok else {
            "max_abs_err": comparison.max_abs_err,
            "max_rel_err": comparison.max_rel_err,
            "max_ulp": (None if comparison.max_ulp
                        >= np.iinfo(np.int64).max else comparison.max_ulp),
            "worst_index": list(comparison.worst_index),
        },
        "invariant_violations": [
            {"invariant": v.invariant, "detail": v.detail}
            for v in failure.result.violations
        ],
        "error_profile": (failure.result.profile.to_dict()
                          if failure.result.profile is not None else None),
        "repro": f"python -m repro verify replay {path}",
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    failure.artifact_path = str(path)
    return str(path)


def fuzz_family(
    family: str,
    *,
    cases: int = 200,
    seed: int = 0,
    registry: "OracleRegistry | None" = None,
    artifact_dir: "str | pathlib.Path | None" = None,
    shrink_failures: bool = True,
    max_failures: int = 10,
) -> FuzzReport:
    """Fuzz every oracle of ``family`` with ``cases`` seeded cases."""
    require_positive("cases", cases)
    if registry is None:
        from repro.verify.oracles import default_registry

        registry = default_registry()
    oracles = registry.family(family)
    if not oracles:
        raise ValueError(f"no oracles registered for family {family!r}")
    rng = np.random.default_rng(seed)
    failures: "list[Failure]" = []
    measured: "dict[str, list[ErrorProfile]]" = {}
    runs = 0
    start = time.perf_counter()

    def report() -> FuzzReport:
        return FuzzReport(
            family=family, cases=cases, seed=seed,
            oracles=[o.name for o in oracles], runs=runs,
            failures=failures,
            elapsed_s=time.perf_counter() - start,
            profiles={name: aggregate_profiles(values)
                      for name, values in sorted(measured.items())},
        )

    for _ in range(cases):
        params = draw_params(family, rng)
        case = build_case(family, params)
        for oracle in oracles:
            if not oracle.applicable(case):
                continue
            runs += 1
            result = run_case(oracle, case)
            if result.profile is not None:
                measured.setdefault(oracle.name, []).append(result.profile)
            if not result.failed:
                continue
            if shrink_failures:
                shrunk, result, steps = shrink(oracle, family, params)
            else:
                shrunk, steps = dict(params), 0
            failure = Failure(
                oracle=oracle.name, family=family, seed=seed,
                original_params=dict(params), shrunk_params=shrunk,
                shrink_steps=steps, result=result,
            )
            if artifact_dir is not None:
                write_artifact(failure, artifact_dir)
            failures.append(failure)
            if len(failures) >= max_failures:
                return report()
    return report()


def replay_artifact(path: "str | pathlib.Path",
                    registry: "OracleRegistry | None" = None) -> CaseResult:
    """Re-run the oracle on the params stored in a failure artifact."""
    if registry is None:
        from repro.verify.oracles import default_registry

        registry = default_registry()
    try:
        document = json.loads(pathlib.Path(path).read_text())
    except OSError as error:
        raise ConfigError(
            f"cannot read artifact {path}: {error.strerror}") from error
    except ValueError as error:
        raise ConfigError(
            f"artifact {path} is not valid JSON: {error}") from error
    oracle = registry.get(document["oracle"])
    case = build_case(document["family"], document["params"])
    return run_case(oracle, case)
