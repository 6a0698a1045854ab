"""Output checks: committed references, conservation, repeatability.

References live in ``simbench/reference`` and were produced by the
simulator itself (``make_reference.py``); the simulator is a model, so
nothing here is checked against real hardware.  Documents are compared
with ``tools/compare_golden.py``'s ``diff`` at that tool's default
relative tolerance, the repository's one definition of "same output".

An operation fails when its output differs from the reference:

- ``kernel-sweep``: each sweep point is checked on its own; a point
  that raised passes when the reference records the same error class;
- simulation workloads: a run's report is checked as a whole, and
  every simulated request of the run fails if the report differs from
  the reference, from the run's first repetition, or breaks request
  conservation (``finished + rejected (+ shed) == arrived``).
"""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: ``tools/compare_golden.py``'s default ``--rtol``.
RTOL = 1e-9

#: Seeds with committed references: the default seed and a held-out
#: one, not used while the benchmark was tuned.
REFERENCE_SEEDS = (0, 7)


@functools.lru_cache(maxsize=None)
def compare_golden():
    """The repository's ``tools/compare_golden.py``, imported as-is."""
    path = HERE.parent / "tools" / "compare_golden.py"
    spec = importlib.util.spec_from_file_location("compare_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differences(actual, golden) -> "list[str]":
    """``compare_golden.diff`` of two JSON documents."""
    return compare_golden().diff(actual, golden, RTOL)


def as_json(document):
    """``document`` as it reads back from a JSON file."""
    return json.loads(json.dumps(document))


def reference_path(name: str, seed: int) -> pathlib.Path:
    """Where the reference for ``(name, seed)`` is committed.

    The kernel sweep's seed only orders its points, so one reference,
    keyed by point, covers every seed.
    """
    if name == "kernel-sweep":
        return REFERENCE_DIR / "kernel-sweep.json"
    return REFERENCE_DIR / f"{name}-seed{seed}.json"


def load_reference(name: str, seed: int):
    """The committed reference output, or ``None`` for other seeds."""
    path = reference_path(name, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["output"]


def conservation(name: str, output, ops: int) -> "list[str]":
    """Requests that arrived but are neither finished nor refused."""
    if name == "fleet-bursty":
        arrived = output["arrived"]
        accounted = (output["finished"] + output["rejected"]
                     + output["shed"])
        ok = (output["in_flight"] == 0
              and output["controlplane"]["conservation_ok"])
    else:
        arrived = output["num_requests"]
        accounted = output["finished"] + output["rejected"]
        ok = True
    problems = []
    if arrived != ops:
        problems.append(f"report counts {arrived} arrivals, the workload "
                        f"generated {ops}")
    if accounted != arrived or not ok:
        problems.append(f"conservation broken: {accounted} of {arrived} "
                        f"requests accounted for")
    return problems


def failed_ops(name: str, output, ops: int, reference, first=None):
    """``(failed operations, problems)`` of one repetition's output.

    ``first`` is the output of the run's first repetition, which every
    later repetition (and every traced one) must reproduce.
    """
    output = as_json(output)
    if name == "kernel-sweep":
        problems = []
        failed = 0
        for key, value in output.items():
            point = (differences(value, reference[key]) if key in reference
                     else ["not in the reference"])
            failed += bool(point)
            problems.extend(f"{key}: {problem}" for problem in point)
        return failed, problems
    problems = conservation(name, output, ops)
    if reference is not None:
        problems.extend(f"vs reference: {problem}"
                        for problem in differences(output, reference))
    if first is not None:
        problems.extend(f"vs first repetition: {problem}"
                        for problem in differences(output, as_json(first)))
    return (ops if problems else 0), problems
