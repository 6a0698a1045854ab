#!/usr/bin/env python3
"""Regenerate the committed reference outputs in ``simbench/reference``.

Usage (from the root of a repository checkout)::

    python3 simbench/make_reference.py

Runs every workload once per seed in ``check.REFERENCE_SEEDS``,
untraced, and writes its output.  The kernel sweep's reference is
keyed by sweep point and shared by all seeds; the command checks that
every reference seed produces it.  Review the diff of a regenerated
reference like any other behaviour change.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seeds = check.REFERENCE_SEEDS
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        outputs = {}
        for seed in seeds:
            workloads.empty_caches()
            prepared = workloads.prepare(name, seed)
            outputs[seed] = check.as_json(prepared.run())
        if name == "kernel-sweep":
            if any(output != outputs[seeds[0]] for output in outputs.values()):
                print("kernel-sweep: the output depends on the seed",
                      file=sys.stderr)
                return 1
            outputs = {None: outputs[seeds[0]]}
        for seed, output in outputs.items():
            path = check.reference_path(name, seed)
            document = {"workload": name, "seed": seed, "output": output}
            path.write_text(json.dumps(document, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
