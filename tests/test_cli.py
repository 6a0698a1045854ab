"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCLI:
    def test_simulate(self, capsys):
        out = run_cli(capsys, "simulate", "--model", "bert-large",
                      "--seq-len", "1024")
        assert "BERT-large on A100" in out
        assert "softmax share" in out
        assert "legend:" in out

    def test_compare(self, capsys):
        out = run_cli(capsys, "compare", "--model", "bigbird-large",
                      "--seq-len", "2048")
        assert "baseline" in out and "sdf" in out
        assert "speedup" in out

    def test_breakdown(self, capsys):
        out = run_cli(capsys, "breakdown", "--seq-len", "1024")
        for name in ("BERT-large", "GPT-Neo-1.3B", "BigBird-large",
                     "Longformer-large"):
            assert name in out

    def test_libraries(self, capsys):
        out = run_cli(capsys, "libraries", "--seq-len", "1024")
        assert "HuggingFace" in out
        assert "TensorRT" in out

    def test_sweep(self, capsys):
        out = run_cli(capsys, "sweep", "--model", "bert-large",
                      "--values", "1024,2048")
        assert "1024" in out and "2048" in out
        assert out.count("x") >= 2

    def test_sweep_batch_axis(self, capsys):
        out = run_cli(capsys, "sweep", "--model", "longformer-large",
                      "--axis", "batch", "--values", "1,4",
                      "--seq-len", "2048")
        assert "batch" in out

    def test_generate(self, capsys):
        out = run_cli(capsys, "generate", "--tokens", "4",
                      "--seq-len", "512")
        assert "prefill latency" in out
        assert "tokens/s" in out

    def test_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        out = run_cli(capsys, "trace", "--seq-len", "1024",
                      "--output", str(path))
        assert "kernel slices" in out
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.trace/v1"
        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        # One span per distinct kernel evaluation (the simulation cache
        # deduplicates identical launches) plus the simulate() span.
        assert len(slices) > 14
        kernel = [e for e in slices if e["cat"] == "kernel"]
        assert kernel
        assert all("dram_bytes" in e["args"] for e in kernel)
        assert all("bound" in e["args"] for e in kernel)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_gpu_option(self, capsys):
        out = run_cli(capsys, "simulate", "--gpu", "t4",
                      "--seq-len", "1024")
        assert "on T4" in out

    def test_footprint(self, capsys):
        out = run_cli(capsys, "footprint", "--model", "bert-large",
                      "--seq-len", "2048")
        assert "attention (GB)" in out
        assert "sdf" in out

    def test_footprint_records_plans_the_shape_cannot_run(self, capsys):
        """T=64 does not divide L=1000: sd/sdf get an error entry and
        the baseline row is still reported."""
        from repro.models.config import get_model
        from repro.models.footprint import inference_footprint

        doc = json.loads(run_cli(capsys, "footprint", "--model",
                                 "bert-large", "--seq-len", "1000",
                                 "--json"))
        message = "attention row length 1000 not divisible by T=64"
        assert doc["plans"]["sd"] == doc["plans"]["sdf"] == {
            "error": message}
        baseline = inference_footprint(get_model("bert-large"),
                                       seq_len=1000)
        assert doc["plans"]["baseline"]["total_bytes"] == baseline.total
        text = run_cli(capsys, "footprint", "--model", "bert-large",
                       "--seq-len", "1000")
        assert f"({message})" in text
        assert text.splitlines()[2].startswith("baseline | 0.60")

    def test_roofline(self, capsys):
        out = run_cli(capsys, "roofline", "--seq-len", "1024")
        assert "machine balance" in out
        assert "regime" in out

    def test_verify_quick(self, capsys):
        out = run_cli(capsys, "verify", "--quick")
        assert "4/4" in out
        assert "PASS" in out

    def test_model_json(self, capsys, tmp_path):
        from repro.models import BIGBIRD_LARGE
        from repro.models.serialization import config_to_json

        path = tmp_path / "model.json"
        path.write_text(config_to_json(BIGBIRD_LARGE))
        out = run_cli(capsys, "simulate", "--model-json", str(path),
                      "--seq-len", "2048")
        assert "BigBird-large" in out

    def test_sweep_model_json_reports_its_name(self, capsys, tmp_path):
        import dataclasses

        from repro.models import BERT_LARGE
        from repro.models.serialization import config_to_json

        path = tmp_path / "model.json"
        path.write_text(config_to_json(dataclasses.replace(
            BERT_LARGE, name="bert-2l", num_layers=2)))
        out = run_cli(capsys, "sweep", "--model-json", str(path),
                      "--values", "512", "--json")
        assert json.loads(out)["model"] == "bert-2l"

    def test_parallel(self, capsys):
        out = run_cli(capsys, "parallel", "--model", "bert-large",
                      "--seq-len", "2048")
        assert "GPUs" in out and "comm share" in out
        assert "8" in out

    def test_serve_sim_json(self, capsys):
        out = run_cli(capsys, "serve-sim", "--model", "bert-large",
                      "--gpu", "a100", "--rate", "4", "--duration", "4",
                      "--seed", "0", "--json")
        report = json.loads(out)
        assert report["schema"] == "repro.result/v1"
        assert report["model"] == "BERT-large"
        assert set(report["plans"]) == {"baseline", "sdf"}
        for plan in report["plans"].values():
            assert plan["finished"] + plan["rejected"] \
                == plan["num_requests"]
            assert "p99" in plan["ttft_s"]
            assert plan["throughput_tokens_per_s"] > 0

    def test_serve_sim_deterministic(self, capsys):
        argv = ("serve-sim", "--rate", "4", "--duration", "4",
                "--seed", "0")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)

    def test_serve_sim_table(self, capsys):
        out = run_cli(capsys, "serve-sim", "--rate", "4",
                      "--duration", "4")
        assert "TTFT p50/p99" in out
        assert "sdf over baseline" in out

    def test_serve_sim_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli(capsys, "serve-sim", "--rate", "2",
                      "--duration", "3", "--output", str(path))
        assert f"wrote {path}" in out
        assert "plans" in json.loads(path.read_text())

    def test_serve_sim_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_time": 0.0, "prompt_len": 256, "output_len": 8}\n'
            '{"arrival_time": 0.2, "prompt_len": 512, "output_len": 4}\n'
        )
        out = run_cli(capsys, "serve-sim", "--trace-file", str(path),
                      "--plans", "sdf", "--json")
        report = json.loads(out)
        assert report["num_requests"] == 2
        assert list(report["plans"]) == ["sdf"]

    def test_cluster_sim_json(self, capsys):
        out = run_cli(capsys, "cluster-sim", "--model", "bert-large",
                      "--gpu", "a100", "--rate", "2", "--duration", "3",
                      "--seed", "0", "--replicas", "2", "--tp", "2",
                      "--policy", "least-outstanding", "--plans", "sdf",
                      "--json")
        report = json.loads(out)
        assert report["schema"] == "repro.result/v1"
        assert report["kind"] == "cluster-report"
        assert report["replicas"] == 2 and report["tp"] == 2
        plan = report["plans"]["sdf"]
        assert len(plan["per_replica"]) == 2
        assert plan["comm_time_s"] > 0
        assert "p99" in plan["ttft_s"]
        assert plan["finished"] + plan["rejected"] == plan["num_requests"]

    def test_cluster_sim_table(self, capsys):
        out = run_cli(capsys, "cluster-sim", "--rate", "2",
                      "--duration", "3", "--plans", "baseline,sdf")
        assert "per replica" in out
        assert "sdf over baseline" in out

    def test_controlplane_sim_trace_file(self, capsys, tmp_path):
        """The trace file replaces the synthetic stream: exactly its
        two requests arrive."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_time": 0.0, "prompt_len": 256, "output_len": 8}\n'
            '{"arrival_time": 0.2, "prompt_len": 512, "output_len": 4}\n'
        )
        out = run_cli(capsys, "controlplane-sim", "--trace-file",
                      str(path), "--json")
        report = json.loads(out)
        plan = report["plans"]["sdf"]
        assert plan["arrived"] == 2
        assert plan["finished"] == 2
        assert report["arrival"] == {"kind": "trace"}

    @pytest.mark.parametrize("command", ["serve-sim", "cluster-sim"])
    @pytest.mark.parametrize("flag,value", [
        ("--rate", "3"), ("--arrival", "mmpp"), ("--duration", "5"),
        ("--seed", "1")])
    def test_trace_replay_rejects_stream_flags(self, capsys, tmp_path,
                                               command, flag, value):
        """A replayed trace alone drives serve-sim and cluster-sim."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_time": 0.0, "prompt_len": 256, "output_len": 8}\n')
        assert main([command, "--trace-file", str(path), flag, value]) == 2
        assert capsys.readouterr().err == \
            f"error: {flag} applies only without --trace-file\n"

    def test_controlplane_trace_replay_keeps_seed(self, capsys, tmp_path):
        """The control plane draws tiers from --seed, trace or not."""
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(
            f'{{"arrival_time": {0.1 * i}, "prompt_len": 256, '
            f'"output_len": 8}}\n' for i in range(8)))
        argv = ("controlplane-sim", "--trace-file", str(path),
                "--duration", "2", "--json")
        seeded = json.loads(run_cli(capsys, *argv, "--seed", "1"))
        assert seeded["seed"] == 1 and seeded["duration_s"] == 2.0
        assert seeded["plans"]["sdf"]["arrived"] == 8

    def test_controlplane_sim_engine_modes_agree(self, capsys):
        argv = ("controlplane-sim", "--arrival", "mmpp", "--rate", "2",
                "--burst-rate", "8", "--duration", "6", "--autoscale",
                "--death", "2.5", "--seed", "3", "--json")
        epoch = run_cli(capsys, *argv, "--engine", "epoch")
        event = run_cli(capsys, *argv, "--engine", "event")
        assert json.loads(epoch) == json.loads(event)

    def test_cluster_sim_deterministic(self, capsys):
        argv = ("cluster-sim", "--rate", "2", "--duration", "3",
                "--seed", "7", "--replicas", "2", "--policy",
                "prefix-affinity", "--prefix-groups", "4", "--json")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


class TestCLIHelp:
    def commands(self):
        import argparse

        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        return list(subparsers.choices)

    def test_every_subcommand_has_help(self, capsys):
        for command in self.commands():
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert command in capsys.readouterr().out

    def test_every_subcommand_documented(self):
        import repro.cli

        for command in self.commands():
            assert f"``{command}``" in repro.cli.__doc__

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "serve-sim" in capsys.readouterr().out


class TestUserErrors:
    """Library errors exit 2 with one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("argv,message", [
        # Plan legality: the fully fused kernel has no causal mask.
        (["simulate", "--model", "gpt-neo-1.3b", "--plan", "fused-mha"],
         "error: the FULLY_FUSED plan does not support causal masks\n"),
        # Shape: the decomposition needs whole T-sized sub-vectors.
        (["simulate", "--model", "bert-large", "--plan", "sd",
          "--seq-len", "4000"],
         "error: attention row length 4000 not divisible by T=64\n"),
        # Integer-list flags name the flag and the unparsable item.
        (["sweep", "--values", "1024,abc"],
         "error: --values: 'abc' is not an integer\n"),
        (["approx-sweep", "--seq-lens", "256,x"],
         "error: --seq-lens: 'x' is not an integer\n"),
        # SDF's decomposition pass needs whole T-sized sub-vectors.
        (["approx-sweep", "--models", "bert-large", "--seq-lens", "100",
          "--cases", "1"],
         "error: softmax row length 100 not divisible by T=64\n"),
        # Zero case counts would report on nothing.
        (["approx-sweep", "--cases", "0"],
         "error: cases must be positive, got 0\n"),
        (["verify", "fuzz", "--cases", "0"],
         "error: cases must be positive, got 0\n"),
        (["verify", "fuzz", "--family", "nope"],
         "error: unknown family 'nope'; choose from softmax, attention, "
         "block_sparse, serving\n"),
        (["verify", "replay", "no-such-dir/artifact.json"],
         "error: cannot read artifact no-such-dir/artifact.json: "
         "No such file or directory\n"),
        (["controlplane-sim", "--cold-start", "-1"],
         "error: cold_start_s must be non-negative, got -1.0\n"),
        # Unreadable inputs and an unwritable --output name the path.
        (["serve-sim", "--trace-file", "/nonexist.json"],
         "error: cannot read trace /nonexist.json: No such file or "
         "directory\n"),
        (["serve-sim", "--rate", "1", "--duration", "1",
          "--output", "/nonexistent/dir/x.json"],
         "error: cannot write /nonexistent/dir/x.json: No such file or "
         "directory\n"),
        (["serve-sim", "--model-json", "/nonexist.json"],
         "error: cannot read model config /nonexist.json: No such file "
         "or directory\n"),
        (["simulate", "--model-json", "/nonexist.json"],
         "error: cannot read model config /nonexist.json: No such file "
         "or directory\n"),
        # The swept axis takes its values from --values only.
        (["sweep", "--axis", "seq-len", "--seq-len", "2048"],
         "error: --seq-len is the swept axis; give its values with "
         "--values\n"),
        (["sweep", "--axis", "batch", "--batch", "8"],
         "error: --batch is the swept axis; give its values with "
         "--values\n"),
    ])
    def test_one_line_error_and_exit_code(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_launch_failure_is_one_line(self, capsys):
        assert main(["simulate", "--model", "bert-large", "--plan",
                     "fused-mha", "--seq-len", "8192"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fully fused MHA needs")
        assert err.count("\n") == 1
