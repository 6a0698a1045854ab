"""Every scenario flag changes the result or is rejected.

One small base scenario per subcommand (and per ``--sim`` of ``trace``
and ``tune``); for every flag of :data:`repro.common.scenario.FLAGS`
the subcommand accepts, the flag is set to a non-default value and the
run must either

- produce a different result document (for ``tune``, ignoring the
  echoed ``scenario`` section), or
- exit 2 with empty stdout and exactly one ``error:`` line.

``--engine`` and ``--jobs`` are exempt: they are identity knobs, whose
equivalence (event == epoch, sharded == serial) other tests pin.
"""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.common.scenario import FLAGS
from repro.models import get_model
from repro.models.serialization import config_to_json

#: Identity knobs: same result by design, pinned by the equivalence tests.
EXEMPT = {"--engine", "--jobs"}

#: A short stream and one plan per run keep the ~330 runs cheap.
SHORT = ["--rate", "4", "--duration", "2", "--plans", "sdf"]
TRACED = ["--rate", "4", "--duration", "1", "--plans", "sdf"]
BASES = {
    "serve-sim": ["serve-sim", *SHORT],
    "cluster-sim": ["cluster-sim", *SHORT],
    "controlplane-sim": ["controlplane-sim", *SHORT],
    "trace-inference": ["trace", "--sim", "inference", "--seq-len", "512"],
    "trace-serving": ["trace", "--sim", "serving", *TRACED],
    "trace-cluster": ["trace", "--sim", "cluster", *TRACED],
    "trace-controlplane": ["trace", "--sim", "controlplane", *TRACED],
    "tune-serving": ["tune", "--budget", "4", "--rate", "4",
                     "--duration", "2"],
    # TP 2 makes the default configuration price its all-reduces.
    "tune-cluster": ["tune", "--sim", "cluster", "--budget", "4",
                     "--rate", "4", "--duration", "2", "--tp", "2"],
    "tune-latency": ["tune", "--objective", "latency", "--budget", "4",
                     "--seq-len", "512"],
}

#: A non-default value for every flag (``None``: a switch).  ``{...}``
#: names a file the ``files`` fixture writes.
VALUES = {
    "--model": "gpt-neo-1.3b", "--model-json": "{model_json}",
    "--gpu": "H100", "--seq-len": "1024", "--batch": "2", "--plan": "sdf",
    "--rate": "6", "--duration": "3", "--seed": "1", "--arrival": "mmpp",
    "--burst-rate": "20", "--base-dwell": "0.5", "--burst-dwell": "0.5",
    "--period": "1", "--trace-file": "{trace_file}", "--plans": "sd",
    "--plan-file": "{plan_file}", "--chunk-tokens": "128",
    "--max-batch": "1", "--block-tokens": "16", "--n-experts": "4",
    "--top-k": "2", "--capacity-factor": "0.5",
    "--draft-model": "gpt-neo-1.3b", "--draft-len": "2",
    "--accept-rate": "0.5", "--replicas": "3", "--tp": "4", "--pp": "2",
    "--ep": "2", "--policy": "prefix-affinity", "--prefix-groups": "4",
    "--algorithm": "tree", "--interconnect": "pcie4",
    "--tiers": "a:0.5:0.05,b:0.5:1.0", "--autoscale": None,
    "--min-replicas": "2", "--max-replicas": "3",
    "--control-interval": "0.5", "--cold-start": "0.5",
    "--shed-tokens": "100", "--deaths": "1", "--stragglers": "1",
    "--death": "1.0",
}

CASES = [
    (base, flag.name)
    for base, argv in BASES.items()
    for flag in FLAGS
    if argv[0] in flag.commands and flag.name not in EXEMPT
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    model = root / "model.json"
    model.write_text(config_to_json(dataclasses.replace(
        get_model("bert-large"), name="bert-4l", num_layers=4)))
    trace = root / "trace.jsonl"
    trace.write_text("".join(
        json.dumps({"arrival_time": 0.3 * i, "prompt_len": 300 + 50 * i,
                    "output_len": 20}) + "\n"
        for i in range(6)))
    plan = root / "plan.json"
    assert main(["tune", "--budget", "4", "--rate", "2", "--duration", "2",
                 "--plans", "sd", "--output", str(plan)]) == 0
    return {"model_json": str(model), "trace_file": str(trace),
            "plan_file": str(plan)}


def run(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result(command, out):
    document = json.loads(out)
    if command == "tune":
        document.pop("scenario")
    return document


_parser = build_parser()
_reference = {}


def test_every_flag_has_a_value():
    names = {flag.name for flag in FLAGS} - EXEMPT
    assert names == set(VALUES)


@pytest.mark.parametrize("base,flag", CASES,
                         ids=[f"{base}:{flag}" for base, flag in CASES])
def test_flag_changes_result_or_is_rejected(capsys, files, base, flag):
    argv = BASES[base]
    value = VALUES[flag]
    extra = [flag] if value is None else [flag, value.format(**files)]
    dest = flag.lstrip("-").replace("-", "_")
    assert getattr(_parser.parse_args(argv + extra), dest) != \
        getattr(_parser.parse_args(argv), dest), "value is the default"

    if base not in _reference:
        code, out, err = run(capsys, argv)
        assert code == 0, err
        _reference[base] = result(argv[0], out)
    code, out, err = run(capsys, argv + extra)
    if code == 0:
        assert result(argv[0], out) != _reference[base], \
            f"{flag} was accepted but changed nothing"
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
