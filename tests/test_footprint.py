"""Tests for the device-memory footprint model."""

import pytest

from repro.common import DType
from repro.models import BERT_LARGE, BIGBIRD_LARGE, GPT_NEO_1_3B
from repro.models.footprint import (
    inference_footprint,
    weight_bytes,
)


class TestWeights:
    def test_bert_large_parameter_count(self):
        """BERT-large encoder stack: ~303M transformer parameters
        (24 x (4 x 1024^2 + 2 x 1024 x 4096 + biases))."""
        params = weight_bytes(BERT_LARGE, DType.FP32) / 4
        assert params == pytest.approx(304e6, rel=0.02)

    def test_gpt_neo_larger(self):
        assert weight_bytes(GPT_NEO_1_3B) > 3 * weight_bytes(BERT_LARGE)

    def test_fp16_halves_bytes(self):
        assert weight_bytes(BERT_LARGE, DType.FP16) * 2 == weight_bytes(
            BERT_LARGE, DType.FP32
        )


class TestAttentionFootprint:
    def test_bert_512mb_claim(self):
        """Section 2.3: 'the attention matrix is 512MB in size for a
        single batch' (BERT-large, L=4096, fp16) — 512 MiB = 537 MB."""
        fp = inference_footprint(BERT_LARGE, seq_len=4096, plan="baseline")
        one_matrix = fp.attention / 2  # baseline holds X and Y
        assert one_matrix == 16 * 4096 * 4096 * 2

    def test_dense_quadratic_in_length(self):
        f1 = inference_footprint(BERT_LARGE, seq_len=2048).attention
        f2 = inference_footprint(BERT_LARGE, seq_len=4096).attention
        assert f2 == pytest.approx(4 * f1)

    def test_sparse_linear_in_length(self):
        """Section 2.2: sparse attention reduces the memory complexity
        from O(L^2) to O(L)."""
        f1 = inference_footprint(BIGBIRD_LARGE, seq_len=2048).attention
        f2 = inference_footprint(BIGBIRD_LARGE, seq_len=8192).attention
        assert f2 < 6 * f1  # ~4x for 4x length, far from the 16x of dense

    def test_sparse_much_smaller_than_dense(self):
        dense = inference_footprint(BERT_LARGE, seq_len=4096).attention
        sparse = inference_footprint(BIGBIRD_LARGE, seq_len=4096).attention
        assert sparse < 0.25 * dense

    def test_recomposition_halves_attention_memory(self):
        """SDF materialises only X' — a side benefit of the fusion."""
        base = inference_footprint(BERT_LARGE, seq_len=4096, plan="baseline")
        sdf = inference_footprint(BERT_LARGE, seq_len=4096, plan="sdf")
        assert sdf.attention == base.attention // 2
        assert sdf.total < base.total

    def test_sd_keeps_two_matrices_plus_stats(self):
        base = inference_footprint(BERT_LARGE, seq_len=4096, plan="baseline")
        sd = inference_footprint(BERT_LARGE, seq_len=4096, plan="sd")
        assert sd.attention == base.attention
        assert sd.intermediates > 0
        assert base.intermediates == 0

    def test_intermediates_are_one_over_t_scale(self):
        sdf = inference_footprint(BERT_LARGE, seq_len=4096, plan="sdf", t=64)
        # 3 fp32 scalars per 64 fp16 elements.
        assert sdf.intermediates / sdf.attention == pytest.approx(
            12 / 128, rel=0.01
        )

    def test_batch_scales_attention(self):
        b1 = inference_footprint(BERT_LARGE, seq_len=2048, batch=1)
        b4 = inference_footprint(BERT_LARGE, seq_len=2048, batch=4)
        assert b4.attention == 4 * b1.attention
        assert b4.weights == b1.weights

    def test_total_sums_components(self):
        fp = inference_footprint(BERT_LARGE, seq_len=1024)
        assert fp.total == (fp.weights + fp.activations + fp.attention
                            + fp.intermediates)


class TestPlanGraphFootprint:
    """Attention state is read off each plan's kernel graph."""

    # (attention, intermediates) bytes at L=4096, batch 1, T=64, as the
    # per-plan formulas gave them before the footprint read the graph.
    PINNED = {
        "bert-large": {
            "baseline": (1073741824, 0),
            "sd": (1073741824, 50331648),
            "sdf": (536870912, 50331648),
            "sdf-ls-only": (1073741824, 50331648),
            "sdf-gs-only": (1073741824, 50331648),
            "online": (1073741824, 0),
            "turbo": (1073741824, 0),
        },
        "bigbird-large": {
            "baseline": (159383552, 0),
            "sd": (159383552, 7471104),
            "sdf": (79691776, 7471104),
            "sdf-ls-only": (159383552, 7471104),
            "sdf-gs-only": (159383552, 7471104),
        },
    }

    @pytest.mark.parametrize("plan", ["flash", "fused-mha"])
    def test_fused_attention_never_holds_the_matrix(self, plan):
        fp = inference_footprint(BERT_LARGE, seq_len=4096, plan=plan)
        assert fp.attention == 0
        assert fp.intermediates == 0
        assert inference_footprint(BIGBIRD_LARGE, seq_len=4096,
                                   plan="flash").attention == 0

    @pytest.mark.parametrize("model", sorted(PINNED))
    def test_other_plans_unchanged(self, model):
        from repro.models import get_model

        config = get_model(model)
        for plan, expected in self.PINNED[model].items():
            fp = inference_footprint(config, seq_len=4096, plan=plan)
            assert (fp.attention, fp.intermediates) == expected, plan

    def test_infeasible_plan_raises_its_plan_error(self):
        from repro.common import PlanError

        with pytest.raises(PlanError, match="only implemented for dense"):
            inference_footprint(BIGBIRD_LARGE, seq_len=4096, plan="online")
        with pytest.raises(PlanError, match="causal"):
            inference_footprint(GPT_NEO_1_3B, seq_len=2048, plan="fused-mha")
