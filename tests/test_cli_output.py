"""The unified CLI output contract.

Every subcommand must accept ``--json`` (print a ``repro.result/v1``
document) and ``--output PATH`` (write that document, print the text
plus a confirmation).  The parametrization below is guarded against
drift: a new subcommand that forgets the contract fails
``test_every_subcommand_covered`` until it gets fast arguments here.
"""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.common.results import (
    APPROX_SWEEP_SCHEMA,
    RESULT_SCHEMA,
    TRACE_SCHEMA,
    TUNED_PLAN_SCHEMA,
)

#: Fast invocations, one per subcommand.
FAST_ARGS = {
    "simulate": ["--seq-len", "512"],
    "compare": ["--seq-len", "512"],
    "breakdown": ["--seq-len", "512"],
    "libraries": ["--seq-len", "512"],
    "sweep": ["--values", "512,1024", "--seq-len", "512"],
    "generate": ["--tokens", "4", "--seq-len", "512"],
    "trace": ["--seq-len", "512"],
    "parallel": ["--seq-len", "512"],
    "roofline": ["--seq-len", "512"],
    "footprint": ["--seq-len", "512"],
    "seq2seq": ["--config", "base", "--src-len", "256",
                "--tgt-len", "64"],
    "serve-sim": ["--rate", "2", "--duration", "3"],
    "cluster-sim": ["--rate", "2", "--duration", "3", "--replicas", "2"],
    "controlplane-sim": ["--rate", "2", "--duration", "3",
                         "--replicas", "2"],
    "verify": ["--quick"],
    "approx-sweep": ["--models", "bert-large", "--seq-lens", "256",
                     "--cases", "1"],
    "tune": ["--rate", "2", "--duration", "3", "--budget", "6"],
}

#: The discriminator each subcommand's document must carry.
EXPECTED_KIND = {
    "simulate": "inference",
    "compare": "compare",
    "breakdown": "breakdown",
    "libraries": "libraries",
    "sweep": "sweep",
    "generate": "generation",
    "trace": "chrome-trace",
    "parallel": "parallel-scaling",
    "roofline": "roofline",
    "footprint": "footprint",
    "seq2seq": "inference",
    "serve-sim": "serving-report",
    "cluster-sim": "cluster-report",
    "controlplane-sim": "controlplane-report",
    "verify": "reproduction",
    "approx-sweep": "approx-sweep",
    "tune": "tuned-plan",
}

#: Schema tag per subcommand; ``trace`` emits the larger
#: ``repro.trace/v1`` documents, ``approx-sweep`` the nested Pareto
#: report, and ``tune`` the tuned-plan artifact, everything else
#: ``repro.result/v1``.
EXPECTED_SCHEMA = {
    command: TRACE_SCHEMA if command == "trace"
    else APPROX_SWEEP_SCHEMA if command == "approx-sweep"
    else TUNED_PLAN_SCHEMA if command == "tune"
    else RESULT_SCHEMA
    for command in EXPECTED_KIND
}


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


class TestOutputContract:
    def test_every_subcommand_covered(self):
        assert set(subcommands()) == set(FAST_ARGS)
        assert set(subcommands()) == set(EXPECTED_KIND)

    @pytest.mark.parametrize("command", sorted(FAST_ARGS))
    def test_json_round_trips(self, capsys, command):
        out = run_cli(capsys, command, *FAST_ARGS[command], "--json")
        document = json.loads(out)
        assert document["schema"] == EXPECTED_SCHEMA[command]
        assert document["kind"] == EXPECTED_KIND[command]

    @pytest.mark.parametrize("command", sorted(FAST_ARGS))
    def test_output_writes_same_document(self, capsys, tmp_path, command):
        path = tmp_path / "result.json"
        text = run_cli(capsys, command, *FAST_ARGS[command],
                       "--output", str(path))
        assert f"wrote {path}" in text
        written = json.loads(path.read_text())
        assert written["schema"] == EXPECTED_SCHEMA[command]
        assert written["kind"] == EXPECTED_KIND[command]

    def test_json_matches_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        printed = run_cli(capsys, "serve-sim", "--rate", "2",
                          "--duration", "3", "--json")
        run_cli(capsys, "serve-sim", "--rate", "2", "--duration", "3",
                "--output", str(path))
        assert json.loads(printed) == json.loads(path.read_text())

    def test_default_is_text(self, capsys):
        out = run_cli(capsys, "footprint", "--seq-len", "512")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    @pytest.mark.parametrize("sim,extra", [
        ("serving", ()),
        ("cluster", ("--replicas", "2")),
    ])
    def test_trace_sim_round_trips(self, capsys, sim, extra):
        """``repro trace`` on the serving and cluster simulators emits a
        parseable, deterministic Chrome trace whose spans nest."""
        from repro.obs import validate_nesting

        argv = ("trace", "--sim", sim, "--rate", "2", "--duration", "2",
                *extra, "--json")
        out = run_cli(capsys, *argv)
        document = json.loads(out)
        assert document["schema"] == TRACE_SCHEMA
        assert document["kind"] == "chrome-trace"
        assert document["sim"] == sim
        assert document["summary"]["spans"] > 0
        assert validate_nesting(document["traceEvents"]) == []
        assert run_cli(capsys, *argv) == out

class TestSeq2Seq:
    """The encoder-decoder CLI path (``repro seq2seq``)."""

    def test_json_names_the_variant(self, capsys):
        for variant, name in (("base", "Transformer-base"),
                              ("big", "Transformer-big")):
            out = run_cli(capsys, "seq2seq", "--config", variant,
                          "--src-len", "256", "--tgt-len", "64",
                          "--json")
            document = json.loads(out)
            assert document["kind"] == "inference"
            assert document["model"].startswith(name)
            assert document["total_time_s"] > 0
            assert 0 < document["softmax_time_fraction"] < 1

    def test_json_matches_output_file(self, capsys, tmp_path):
        path = tmp_path / "seq2seq.json"
        argv = ("seq2seq", "--config", "base", "--src-len", "256",
                "--tgt-len", "64")
        printed = run_cli(capsys, *argv, "--json")
        run_cli(capsys, *argv, "--output", str(path))
        assert json.loads(printed) == json.loads(path.read_text())


class TestMoESpecDecodeCLI:
    """MoE and speculative-decoding scenarios through the CLI, plus
    their degeneracy guarantees: a degenerate MoE reproduces the dense
    report byte-for-byte, and speculation knobs without a draft model
    are rejected."""

    BASE = ("serve-sim", "--rate", "2", "--duration", "3",
            "--seed", "0", "--plans", "baseline,sdf")

    def test_moe_flags_reach_the_report(self, capsys):
        out = run_cli(capsys, *self.BASE, "--n-experts", "8",
                      "--top-k", "2", "--json")
        document = json.loads(out)
        assert document["model"] == "BERT-large-8x2moe"
        assert document["plans"]["sdf"]["finished"] > 0

    def test_degenerate_moe_is_byte_identical(self, capsys):
        dense = run_cli(capsys, *self.BASE, "--json")
        moe = run_cli(capsys, *self.BASE, "--n-experts", "1",
                      "--top-k", "1", "--json")
        assert moe == dense

    def test_speculation_knobs_without_draft_model_are_rejected(
            self, capsys):
        # draft_len/accept_rate without --draft-model would change
        # nothing, so the flag table rejects them.
        assert main([*self.BASE, "--draft-len", "8", "--accept-rate",
                     "0.5", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --draft-len applies only with "
                                "--draft-model\n")

    def test_speculation_changes_the_schedule(self, capsys):
        dense = json.loads(run_cli(capsys, *self.BASE, "--json"))
        spec = json.loads(run_cli(
            capsys, *self.BASE, "--draft-model", "gpt-neo-1.3b",
            "--accept-rate", "1.0", "--json"))
        for plan in ("baseline", "sdf"):
            assert spec["plans"][plan]["steps"] < \
                dense["plans"][plan]["steps"]
            assert spec["plans"][plan]["generated_tokens"] == \
                dense["plans"][plan]["generated_tokens"]

    def test_cluster_sim_accepts_ep(self, capsys):
        out = run_cli(capsys, "cluster-sim", "--model", "mixtral",
                      "--replicas", "2", "--ep", "4", "--plans", "sdf",
                      "--rate", "2", "--duration", "3", "--json")
        plan = json.loads(out)["plans"]["sdf"]
        assert all(r["n_gpus"] == 4 for r in plan["per_replica"])


class TestPlanFileFlag:
    """``--plan-file`` feeds one tuned-plan artifact to every
    serving-style simulator: the run is pinned to the artifact's
    winning plan and tuned knobs."""

    @pytest.fixture(scope="class")
    def plan_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tuned") / "plan.json"
        assert main(["tune", "--rate", "2", "--duration", "3",
                     "--budget", "6", "--output", str(path)]) == 0
        return path

    def winner(self, plan_file):
        return json.loads(plan_file.read_text())["winner"]["config"]

    @pytest.mark.parametrize("command,extra", [
        ("serve-sim", ()),
        ("cluster-sim", ("--replicas", "2")),
        ("controlplane-sim", ("--replicas", "2")),
    ])
    def test_simulators_accept_plan_file(self, capsys, plan_file,
                                         command, extra):
        out = run_cli(capsys, command, "--rate", "2", "--duration", "3",
                      *extra, "--plan-file", str(plan_file), "--json")
        document = json.loads(out)
        winner = self.winner(plan_file)
        assert list(document["plans"]) == [winner["plan"]]

    def test_plan_file_overrides_plans_flag(self, capsys, plan_file):
        out = run_cli(capsys, "serve-sim", "--rate", "2", "--duration",
                      "3", "--plans", "baseline,sd,sdf",
                      "--plan-file", str(plan_file), "--json")
        winner = self.winner(plan_file)
        assert list(json.loads(out)["plans"]) == [winner["plan"]]

    def test_corrupted_plan_file_is_a_one_line_error(self, capsys,
                                                     tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["serve-sim", "--rate", "2", "--duration", "3",
                     "--plan-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "JSON" in captured.err
        assert captured.err.count("\n") == 1


class TestClusterAcceptance:
    def test_cluster_acceptance_invocation(self, capsys):
        """The headline invocation from the cluster docs."""
        argv = ("cluster-sim", "--replicas", "4", "--tp", "2",
                "--policy", "least-outstanding", "--plans", "sdf",
                "--rate", "2", "--duration", "3", "--json")
        out = run_cli(capsys, *argv)
        document = json.loads(out)
        plan = document["plans"]["sdf"]
        assert len(plan["per_replica"]) == 4
        assert all(r["n_gpus"] == 2 for r in plan["per_replica"])
        assert plan["comm_time_s"] > 0
        assert run_cli(capsys, *argv) == out
