"""Golden kernel lists for every attention plan.

``tests/golden/plan_pipelines.json`` pins, for all nine plans, the
exact kernel pipeline of the SDA block (dense, causal, cross-attention,
key-padded, BigBird and GPT-Neo local-causal) and of one generation step
(:func:`~repro.models.generation.attention_step_kernels`): each
kernel's class, name, category, integer shape fields, and its
simulated time and DRAM bytes on an A100.  Infeasible combinations
record the exception class and message.  A sha256 of the numeric
``forward()`` output pins the numerics at L=128 (L=320 for BigBird,
whose pattern needs five block rows).

The comparison is exact: floats round-trip through JSON unchanged.
The fixture was generated before the plans became pass lists over one
base graph, and pins that rewrite to byte-identical pipelines.  To print
a fresh fixture (only after a deliberate cost-model change)::

    PYTHONPATH=src python tests/test_plan_pipelines.py > tests/golden/plan_pipelines.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import AttentionPlan
from repro.gpu import Device
from repro.models import AttentionKind, AttentionSpec, SDABlock, get_model
from repro.models.generation import attention_step_kernels

GOLDEN = Path(__file__).parent / "golden" / "plan_pipelines.json"

PLANS = [plan.value for plan in AttentionPlan]
HEADS, D_HEAD = 4, 64

#: Case name -> SDABlock keyword arguments at a given length.
BLOCK_CASES = {
    "dense": lambda length: dict(
        batch=1, spec=AttentionSpec(kind=AttentionKind.DENSE)),
    "causal": lambda length: dict(
        batch=1, spec=AttentionSpec(kind=AttentionKind.DENSE_CAUSAL)),
    "cross": lambda length: dict(
        batch=1, spec=AttentionSpec(kind=AttentionKind.DENSE),
        kv_seq_len=2 * length),
    "padded": lambda length: dict(
        batch=2, spec=AttentionSpec(kind=AttentionKind.DENSE),
        key_padding_lengths=np.array([length, length // 2 + 3])),
    "bigbird": lambda length: dict(
        batch=1, spec=get_model("bigbird-large").attention[0]),
    "local": lambda length: dict(
        batch=1, spec=get_model("gpt-neo-1.3b").attention[1]),
}

#: Forward length per case: 128, except BigBird's pattern needs at
#: least five 64-wide block rows.
FORWARD_LEN = {case: 128 for case in BLOCK_CASES} | {"bigbird": 320}


def _kernel_entry(kernel, device):
    device.reset()
    kernel.simulate(device)
    (record,) = device.profile.records
    shape = {key: value for key, value in sorted(vars(kernel).items())
             if type(value) is int}
    return {
        "class": type(kernel).__name__,
        "name": kernel.name,
        "category": kernel.category,
        "shape": shape,
        "time": record.time,
        "dram_bytes": record.dram_bytes,
    }


def _entry(build, device):
    try:
        return [_kernel_entry(kernel, device) for kernel in build()]
    except Exception as exc:  # noqa: BLE001 - the fixture records it
        return {"error": type(exc).__name__, "message": str(exc)}


def _block(plan, case, length):
    kwargs = BLOCK_CASES[case](length)
    return SDABlock(num_heads=HEADS, seq_len=length, d_head=D_HEAD,
                    plan=plan, **kwargs)


def _forward_digest(plan, case):
    length = FORWARD_LEN[case]
    try:
        block = _block(plan, case, length)
    except Exception as exc:  # noqa: BLE001
        return {"error": type(exc).__name__, "message": str(exc)}
    rng = np.random.default_rng(0)
    q = rng.standard_normal(
        (block.batch_heads, block.seq_len, D_HEAD)).astype(np.float32)
    k, v = (rng.standard_normal(
        (block.batch_heads, block.kv_seq_len, D_HEAD)).astype(np.float32)
        for _ in range(2))
    try:
        out = block.forward(q, k, v)
    except Exception as exc:  # noqa: BLE001
        return {"error": type(exc).__name__, "message": str(exc)}
    out = np.ascontiguousarray(out)
    return {"dtype": str(out.dtype), "shape": list(out.shape),
            "sha256": hashlib.sha256(out.tobytes()).hexdigest()}


def build_fixture():
    """Every pinned pipeline, keyed ``block|step / case / plan``."""
    device = Device("A100")
    blocks = {
        case: {plan: _entry(lambda: _block(plan, case, 512).kernels, device)
               for plan in PLANS}
        for case in BLOCK_CASES
    }
    model = get_model("gpt-neo-1.3b")
    steps = {}
    for layer, pattern in ((0, "global"), (1, "local")):
        for m in (1, 512):
            for kv in (1000, 2048):
                for tp in (1, 2):
                    key = f"{pattern}/m{m}/kv{kv}/tp{tp}"
                    steps[key] = {
                        plan: _entry(lambda: attention_step_kernels(
                            model, layer, m_tokens=m, kv_len=kv, plan=plan,
                            tp_shards=tp), device)
                        for plan in PLANS
                    }
    forward = {case: {plan: _forward_digest(plan, case) for plan in PLANS}
               for case in BLOCK_CASES}
    return {"block": blocks, "step": steps, "forward": forward}


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


#: Chunked-prefill steps on a global layer that the fixture's first
#: generation priced as the *baseline* pipeline whatever the plan; each
#: now gets its own plan's passes (see the test below).  Every other
#: entry is unchanged.
REPLANNED_PLANS = ("online", "turbo", "flash", "fused-mha")


def _replanned(section, key, plan):
    return (section == "step" and key.startswith("global/m512/")
            and plan in REPLANNED_PLANS)


@pytest.fixture(scope="module")
def actual():
    return _roundtrip(build_fixture())


def test_plan_pipelines_match_golden(actual):
    golden = json.loads(GOLDEN.read_text())
    assert actual.keys() == golden.keys()
    for section in golden:
        assert actual[section].keys() == golden[section].keys()
        for key, plans in golden[section].items():
            assert actual[section][key].keys() == plans.keys()
            for plan, expected in plans.items():
                if not _replanned(section, key, plan):
                    assert actual[section][key][plan] == expected, (
                        section, key, plan)


def test_chunked_prefill_steps_get_their_plans_passes(actual):
    golden = json.loads(GOLDEN.read_text())["step"]
    actual = actual["step"]
    for key, plans in golden.items():
        if not key.startswith("global/m512/"):
            continue
        baseline = plans["baseline"]
        for plan in REPLANNED_PLANS:
            assert plans[plan] == baseline  # how the fixture recorded it
        for plan, softmax in (("online", "OnlineRowSoftmaxKernel"),
                              ("turbo", "BatchedRowSoftmaxKernel")):
            entry = actual[key][plan]
            if key.split("/")[2] == "kv2048" and plan == "turbo":
                # TurboTransformers' batched softmax stops at L=1024.
                assert entry["error"] == "KernelError"
                continue
            assert [k["class"] for k in entry] == [
                "MatMulKernel", softmax, "MatMulKernel"]
            assert entry[0] == baseline[0] and entry[2] == baseline[2]
        # A rectangular causal step is neither square nor unmasked.
        assert actual[key]["flash"] == {
            "error": "PlanError",
            "message": "the FLASH plan does not support cross-attention"}
        assert actual[key]["fused-mha"] == {
            "error": "PlanError",
            "message": "the FULLY_FUSED plan does not support causal masks"}


def test_fixture_covers_every_plan_and_an_error():
    golden = json.loads(GOLDEN.read_text())
    for section in golden.values():
        for plans in section.values():
            assert sorted(plans) == sorted(PLANS)
    errors = {entry["error"] for plans in golden["block"].values()
              for entry in plans.values() if isinstance(entry, dict)}
    assert "PlanError" in errors


if __name__ == "__main__":
    print(json.dumps(build_fixture(), indent=1, sort_keys=True))
