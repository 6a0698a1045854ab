"""Tests of the benchmark itself, each at a tiny size.

Run from the repository root::

    python3 -m pytest simbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Work scale per workload: a few dozen sweep points or requests each.
TINY = {
    "kernel-sweep": 0.01,
    "serve-saturated": 0.02,
    "cluster-decode": 0.01,
    "fleet-bursty": 0.05,
}


def reference_for(name):
    """The committed reference where it covers a tiny run (the kernel
    sweep's, keyed by point); full-size runs' reports otherwise."""
    return check.load_reference(name, 0) if name == "kernel-sweep" else None


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_runs_and_passes_its_check(name):
    first = run.Repetition(name, 0, reference_for(name), scale=TINY[name])
    again = run.Repetition(name, 0, reference_for(name), first.output,
                           scale=TINY[name])
    for rep in (first, again):
        assert rep.ops > 0
        assert rep.failed == 0, rep.problems
        assert rep.problems == []
        assert rep.wall_s > 0 and rep.setup_s > 0


def _perturb_first_float(document):
    """``document`` with its first float (depth first) grown by 1e-6."""
    if isinstance(document, dict):
        items = sorted(document.items())
    elif isinstance(document, list):
        items = list(enumerate(document))
    else:
        return None
    for key, value in items:
        if isinstance(value, float) and value != 0.0:
            copy = json.loads(json.dumps(document))
            copy[key] = value * (1 + 1e-6)
            return copy
        changed = _perturb_first_float(value)
        if changed is not None:
            copy = json.loads(json.dumps(document))
            copy[key] = changed
            return copy
    return None


@pytest.mark.parametrize("name", workloads.NAMES)
def test_perturbed_output_raises_ops_failed_ratio(name):
    workloads.empty_caches()
    prepared = workloads.prepare(name, 0, TINY[name])
    output = check.as_json(prepared.run())
    golden = (check.load_reference(name, 0) if name == "kernel-sweep"
              else output)
    assert check.failed_ops(name, output, prepared.ops, golden)[0] == 0

    if name == "kernel-sweep":
        key = next(k for k, v in output.items() if isinstance(v, list))
        perturbed = dict(golden, **{key: _perturb_first_float(output[key])})
        assert check.failed_ops(name, output, prepared.ops,
                                perturbed)[0] == 1
        infeasible = next(k for k, v in output.items()
                          if isinstance(v, str))
        renamed = dict(golden, **{infeasible: "SomeOtherError"})
        assert check.failed_ops(name, output, prepared.ops,
                                renamed)[0] == 1
        return
    perturbed = _perturb_first_float(output)
    failed, problems = check.failed_ops(name, output, prepared.ops,
                                        perturbed)
    assert failed == prepared.ops and problems
    leaky = dict(output, finished=output["finished"] - 1)
    failed, problems = check.failed_ops(name, leaky, prepared.ops, None)
    assert failed == prepared.ops
    assert any("conservation" in p for p in problems)


def test_committed_references_pass_their_own_check():
    paths = sorted(check.REFERENCE_DIR.glob("*.json"))
    assert paths == sorted(
        {check.reference_path(name, seed) for name in workloads.NAMES
         for seed in check.REFERENCE_SEEDS})
    for path in paths:
        document = json.loads(path.read_text())
        name, seed, output = (document["workload"], document["seed"],
                              document["output"])
        assert name in workloads.NAMES
        if name == "kernel-sweep":
            assert check.failed_ops(name, output, len(output),
                                    output)[0] == 0
            continue
        ops = output.get("arrived", output.get("num_requests"))
        assert check.conservation(name, output, ops) == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_split_reconciles_and_matches_untraced(name):
    untraced = run.Repetition(name, 0, reference_for(name),
                              scale=TINY[name])
    rep, metrics = run.traced_repetition(name, 0, reference_for(name),
                                         untraced.output, TINY[name])
    # Reconciliation and traced == untraced output are both checks of
    # the repetition; a failure of either lands in its problems.
    assert rep.problems == [] and rep.failed == 0
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_sum + metrics["other.self_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6)
    assert set(metrics) == set(layers.METRICS) - {
        "trace.untraced_wall_s", "trace.overhead_ratio"}

    serving = sum(metrics[f"{layer}.calls"] for layer in layers.LAYERS
                  if layer.startswith("serving."))
    if name == "kernel-sweep":
        assert serving == 0 and metrics["models.calls"] > 0
    else:
        assert serving > 0 and metrics["serving.engine.steps"] > 0
    fleet = name == "fleet-bursty"
    assert (metrics["controlplane.calls"] > 0) == fleet
    assert (metrics["obs.calls"] > 0) == fleet
    assert (metrics["cluster.router.calls"] > 0) == (
        name in ("cluster-decode", "fleet-bursty"))


@pytest.mark.parametrize("name", ["kernel-sweep", "cluster-decode"])
def test_counts_repeat_exactly(name):
    untraced = run.Repetition(name, 0, reference_for(name),
                              scale=TINY[name])
    counts = []
    for _ in range(2):
        _, metrics = run.traced_repetition(name, 0, reference_for(name),
                                           untraced.output, TINY[name])
        counts.append({m: metrics[m] for m in layers.DETERMINISTIC})
    assert counts[0] == counts[1]
    assert counts[0]["gpu.calls"] > 0


def test_unpatched_after_a_traced_repetition():
    from repro.gpu.device import Device
    from repro.serving.metrics import PlanReport

    launch, from_run = Device.launch, vars(PlanReport)["from_run"]
    run.traced_repetition("serve-saturated", 0, None, None,
                          TINY["serve-saturated"])
    assert Device.launch is launch
    assert vars(PlanReport)["from_run"] is from_run


def _same_inputs(a, b) -> bool:
    if isinstance(a, list):
        return a == b
    return (np.array_equal(a.arrival_time, b.arrival_time)
            and np.array_equal(a.prompt_len, b.prompt_len)
            and np.array_equal(a.output_len, b.output_len))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_the_generated_inputs(name):
    scale = TINY[name]
    inputs = workloads.prepare(name, 0, scale).inputs
    assert _same_inputs(inputs, workloads.prepare(name, 0, scale).inputs)
    assert not _same_inputs(inputs, workloads.prepare(name, 1, scale).inputs)


def test_untraced_run_reports_the_end_to_end_metrics():
    name = "serve-saturated"
    reps, metrics, problems = run.run_untraced(name, 0, 1, None,
                                               TINY[name])
    assert problems == [] and all(r.failed == 0 for r in reps)
    assert set(metrics) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(value > 0 for value in metrics.values())


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers.METRICS
    notes = json.loads((BENCH / "SPEC.json").read_text())
    assert sorted(notes["workloads"]) == sorted(workloads.NAMES)
    assert sorted(p["layer"] for p in notes["predictions"]) == sorted(
        layers.LAYERS)


def test_exits_nonzero_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "serve-saturated",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
