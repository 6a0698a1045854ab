"""Bridge tests for the differential verification harness.

Runs the seeded fuzz driver with a fixed budget per family (the same
entry point CI's ``verify-fuzz`` job uses), checks the registry's
shape, and — the harness's own regression test — injects an
off-by-one into the decomposed softmax and asserts the fuzzer catches
it, shrinks it to a minimal repro, and writes a replayable artifact.
"""

import json

import numpy as np
import pytest

from repro.verify.cases import FAMILIES, build_case, draw_params
from repro.verify.contracts import EXACT, FP32_MATH, ulp_distance
from repro.verify.fuzz import fuzz_family, replay_artifact
from repro.verify.oracles import build_registry, default_registry

#: The per-family budget: small enough for tier-1, large enough that
#: every regime (normal/large/tiny/denormal/masked/rowmask) is drawn.
FUZZ_CASES = 200


class TestRegistry:
    def test_covers_every_family(self):
        registry = default_registry()
        assert set(FAMILIES) <= set(registry.families())

    def test_every_hook_contributed(self):
        registry = default_registry()
        assert len(registry) >= 20
        prefixes = {name.split(".")[0] for name in registry.names()}
        assert prefixes == {"softmax", "attention", "block_sparse",
                            "serving", "interconnect", "controlplane",
                            "moe"}

    def test_contracts_resolve_for_both_dtypes(self):
        from repro.common.dtypes import DType

        for oracle in default_registry():
            for dtype in (DType.FP32, DType.FP16):
                contract = oracle.contract_for(dtype)
                assert contract.atol >= 0 and contract.rtol >= 0

    def test_duplicate_name_rejected(self):
        registry = build_registry()
        oracle = next(iter(registry))
        with pytest.raises(ValueError):
            registry.register(oracle)


class TestContracts:
    def test_ulp_distance_adjacent_floats(self):
        one = np.float32(1.0)
        nxt = np.nextafter(one, np.float32(2.0), dtype=np.float32)
        assert ulp_distance(np.array([one]), np.array([nxt]))[0] == 1

    def test_ulp_distance_across_zero(self):
        tiny = np.nextafter(np.float32(0.0), np.float32(1.0),
                            dtype=np.float32)
        assert ulp_distance(np.array([-tiny]), np.array([tiny]))[0] == 2

    def test_exact_contract_is_bit_identical(self):
        from repro.common.dtypes import DType
        from repro.verify.contracts import compare_arrays

        a = np.array([1.0, 2.0], dtype=np.float32)
        assert compare_arrays(a, a.copy(), EXACT, DType.FP32).ok
        b = a.copy()
        b[0] = np.nextafter(b[0], np.float32(2.0), dtype=np.float32)
        assert not compare_arrays(a, b, EXACT, DType.FP32).ok


class TestCaseGeneration:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cases_are_pure_functions_of_params(self, family):
        rng = np.random.default_rng(7)
        params = draw_params(family, rng)
        first = build_case(family, params)
        second = build_case(family, params)
        assert first.arrays.keys() == second.arrays.keys()
        for key in first.arrays:
            np.testing.assert_array_equal(first.arrays[key],
                                          second.arrays[key])

    def test_draws_are_seed_deterministic(self):
        a = [draw_params("softmax", np.random.default_rng(3))
             for _ in range(5)]
        b = [draw_params("softmax", np.random.default_rng(3))
             for _ in range(5)]
        assert a == b


class TestFuzzBudget:
    """The acceptance gate: every family passes its seeded budget."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_fuzz_passes(self, family):
        report = fuzz_family(family, cases=FUZZ_CASES, seed=0)
        assert report.runs >= FUZZ_CASES
        assert report.ok, report.render()


class TestInjectedBug:
    """Inject an off-by-one rotation into inter_reduction and demand
    the harness catches it, shrinks it, and writes an artifact."""

    def _inject(self, monkeypatch):
        import repro.core.decomposition as decomposition

        real = decomposition.inter_reduction

        def off_by_one(m_prime, d_prime):
            # r' ends up paired with the wrong sub-vector — invisible
            # at n_sv == 1, so the shrinker must keep n_sv >= 2.
            return np.roll(real(m_prime, d_prime), 1, axis=-1)

        monkeypatch.setattr(decomposition, "inter_reduction", off_by_one)

    def test_caught_shrunk_and_artifacted(self, monkeypatch, tmp_path):
        self._inject(monkeypatch)
        report = fuzz_family("softmax", cases=60, seed=0,
                             registry=build_registry(),
                             artifact_dir=tmp_path, max_failures=3)
        failures = [f for f in report.failures
                    if f.oracle == "softmax.decomposed_math"]
        assert failures, "injected off-by-one was not caught"

        failure = failures[0]
        # Shrunk to the minimal configuration that can express the bug.
        assert failure.shrunk_params["n_sv"] >= 2
        assert failure.shrunk_params["batch"] == 1
        assert failure.shrunk_params["rows"] == 1
        assert failure.shrunk_params["t"] == 1

        document = json.loads(
            (tmp_path / failure.artifact_path.split("/")[-1]).read_text())
        assert document["schema"] == "repro.verify.failure/v1"
        assert document["params"] == failure.shrunk_params
        assert "replay" in document["repro"]
        assert document["differential"] is not None

        # While the bug is live, replay reproduces the failure...
        result = replay_artifact(failure.artifact_path,
                                 registry=build_registry())
        assert result.failed

    def test_replay_passes_once_fixed(self, monkeypatch, tmp_path):
        self._inject(monkeypatch)
        report = fuzz_family("softmax", cases=60, seed=0,
                             registry=build_registry(),
                             artifact_dir=tmp_path, max_failures=1)
        assert not report.ok
        artifact = report.failures[0].artifact_path
        monkeypatch.undo()  # "fix" the bug
        result = replay_artifact(artifact, registry=build_registry())
        assert not result.failed

    def test_invariants_alone_catch_row_sum_break(self, monkeypatch):
        """A bug that breaks normalization trips the metamorphic layer
        even where the differential reference is also recomposed."""
        import repro.core.decomposition as decomposition

        real = decomposition.global_scaling

        def unnormalized(x_prime, r_prime, t):
            return real(x_prime, r_prime, t) * np.float32(1.5)

        monkeypatch.setattr(decomposition, "global_scaling", unnormalized)

        x = np.random.default_rng(0).standard_normal(
            (1, 2, 8)).astype(np.float32)
        from repro.verify.invariants import check_softmax_function

        violations = check_softmax_function(
            lambda a: decomposition.decomposed_softmax(a, 2), x, FP32_MATH)
        assert any(v.invariant == "row_sum_one" for v in violations)


class TestCLIBridge:
    def test_verify_fuzz_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "fuzz", "--family", "softmax",
                     "--cases", "20"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] family=softmax" in out

    def test_verify_replay_missing_path_errors(self, capsys):
        from repro.cli import main

        assert main(["verify", "replay"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verify replay requires an artifact path\n")

    def _handcrafted_artifact(self, tmp_path):
        """A minimal artifact for a healthy oracle: replay only needs
        family, oracle, and params — the diagnostic fields a fuzz run
        would add are context, not inputs."""
        params = draw_params("softmax", np.random.default_rng(42))
        path = tmp_path / "handcrafted.json"
        path.write_text(json.dumps({
            "schema": "repro.verify.failure/v1",
            "family": "softmax",
            "oracle": "softmax.decomposed_math",
            "params": params,
        }))
        return path, params

    def test_verify_replay_pass_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path, _ = self._handcrafted_artifact(tmp_path)
        assert main(["verify", "replay", str(path)]) == 0
        assert "[PASS] softmax.decomposed_math" in capsys.readouterr().out

    def test_verify_replay_roundtrips_params(self, tmp_path, capsys):
        """The JSON document must echo the artifact's params exactly,
        so a replayed case can be re-artifacted without drift."""
        from repro.cli import main

        path, params = self._handcrafted_artifact(tmp_path)
        assert main(["verify", "replay", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "verify-replay"
        assert doc["failed"] is False
        assert doc["oracle"] == "softmax.decomposed_math"
        assert doc["params"] == params

    def test_verify_replay_failure_exits_one(self, tmp_path, capsys,
                                             monkeypatch):
        """While the injected bug is live the CLI must propagate the
        failure as exit code 1."""
        from repro.cli import main

        import repro.core.decomposition as decomposition

        real = decomposition.inter_reduction

        def off_by_one(m_prime, d_prime):
            return np.roll(real(m_prime, d_prime), 1, axis=-1)

        monkeypatch.setattr(decomposition, "inter_reduction", off_by_one)
        report = fuzz_family("softmax", cases=60, seed=0,
                             registry=build_registry(),
                             artifact_dir=tmp_path, max_failures=1)
        assert not report.ok
        artifact = report.failures[0].artifact_path
        assert main(["verify", "replay", artifact]) == 1
        assert "[FAIL]" in capsys.readouterr().out
        monkeypatch.undo()  # fix the bug: the same artifact now passes
        assert main(["verify", "replay", artifact]) == 0
