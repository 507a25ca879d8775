"""Plans, quantization, key/value position pruning."""

import dataclasses
import json

import numpy as np
import pytest

from slimformer import (ApproxPlan, GroupShrink, PlanError, PlannedModel,
                        Quantize, SignMatch, Tensor, TransElement, build_model,
                        quantize_dequantize, quantize_group)
from slimformer.elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD,
                                 KV_GROUP, QKV_GROUP, attn_block, ffn_block)
from slimformer.plan import quantized_rows
from slimformer.tensor import make_rng

from reference import layer_dict, ref_attention_per_head, ref_layer_norm


class TestQuantizeGroup:
    def test_endpoint_formula_bits8(self):
        q = quantize_group(np.array([-1.0, 0.0, 1.0]), 8)
        assert q.scale == pytest.approx(1 / 127)
        np.testing.assert_array_equal(q.codes, [-127, 0, 127])
        deq = q.dequantize()
        assert deq[0] == pytest.approx(-1.0) and deq[2] == pytest.approx(1.0)
        assert deq[1] == 0.0

    def test_all_zero_roundtrip_exact(self):
        q = quantize_group(np.zeros(16), 4)
        assert q.scale == 0.0
        np.testing.assert_array_equal(q.dequantize(), np.zeros(16))

    def test_roundtrip_bound_bits4(self, rng):
        w = rng.normal(scale=3.0, size=256)
        q = quantize_group(w, 4)
        err = np.abs(q.dequantize() - w)
        assert (err <= q.scale / 2 + 1e-12).all()
        assert np.abs(q.codes).max() <= 7

    def test_bits_validation(self):
        with pytest.raises(PlanError):
            quantize_group(np.ones(4), 3)
        with pytest.raises(PlanError):
            quantize_group(np.array([]), 8)

    def test_packed_bytes(self):
        q = quantize_group(np.ones(100), 2)
        assert q.bytes == (100 * 2 + 7) // 8 + 8


class TestQuantizedRowsOp:
    def test_forward_replaces_bands(self, rng):
        w = rng.normal(size=(8, 4))
        out = quantized_rows(w, [(0, 4, 8)])
        np.testing.assert_array_equal(out[0:4], quantize_dequantize(w[0:4], 8))
        np.testing.assert_array_equal(out[4:], w[4:])

    def test_frozen_rows_get_zero_grad(self, tiny_model, rng):
        plan = ApproxPlan().with_approx(TransElement(QKV_GROUP, 0, 0), Quantize(8))
        tokens, labels = rng.integers(0, 6, size=(4, 8)), rng.integers(0, 5, size=4)
        PlannedModel(tiny_model, plan).forward(tokens, labels)[1].backward()
        grad = tiny_model.layers[0].wq.grad
        np.testing.assert_array_equal(grad[0:4], 0.0)
        assert np.abs(grad[4:]).min() > 0.0


class TestPlanStructure:
    def test_json_roundtrip(self):
        plan = (ApproxPlan()
                .with_skip(TransElement(HEAD, 1, 0))
                .with_skip(ffn_block(0))
                .with_approx(attn_block(1), SignMatch(4))
                .with_approx(attn_block(1), GroupShrink(1, 2))
                .with_approx(TransElement(FFN_GROUP, 1, 1), Quantize(8)))
        again = ApproxPlan.from_json(plan.to_json())
        assert again == plan
        doc = again.to_doc()
        assert doc["skip"] == sorted(doc["skip"])
        variants = {e["variant"] for e in doc["approx"]}
        assert variants == {"sign_match", "group_shrink", "quantize"}

    def test_group_quantize_overrides_block_in_any_order(self, tiny_config):
        """A plan resolves like its own plan.json, whatever order its
        entries were added in: a weight group's Quantize overrides its
        block's on the bands the group covers."""
        group, block = TransElement(QKV_GROUP, 0, 1), attn_block(0)
        group_first = (ApproxPlan().with_approx(group, Quantize(4))
                       .with_approx(block, Quantize(8)))
        block_first = (ApproxPlan().with_approx(block, Quantize(8))
                       .with_approx(group, Quantize(4)))
        for plan in (group_first, block_first, ApproxPlan.from_json(group_first.to_json())):
            assert plan == group_first
            bits = plan.resolve(tiny_config)[0].quant_bits
            for m in ("wq", "wk", "wv"):
                np.testing.assert_array_equal(bits[m], [8, 4])
            np.testing.assert_array_equal(bits["wo"], [8, 8])

    def test_duplicate_variant_rejected(self):
        plan = ApproxPlan().with_approx(attn_block(0), SignMatch(4))
        with pytest.raises(PlanError, match="already has"):
            plan.with_approx(attn_block(0), SignMatch(8))

    def test_variant_applicability(self):
        with pytest.raises(PlanError, match="not applicable"):
            ApproxPlan().with_approx(TransElement(KV_GROUP, 0, 0), Quantize(8))
        with pytest.raises(PlanError, match="not applicable"):
            ApproxPlan().with_approx(ffn_block(0), SignMatch(4))

    def test_group_shrink_interval_validation(self):
        with pytest.raises(PlanError):
            GroupShrink(2, 1)

    @pytest.mark.parametrize("make", [lambda: SignMatch(2.0), lambda: Quantize(True)],
                             ids=["sign_match_float", "quantize_bool"])
    def test_ill_typed_params_rejected(self, make):
        with pytest.raises(PlanError, match="must be of type int"):
            make()

    def test_shrink_resolves_to_row_mask(self, tiny_config):
        plan = ApproxPlan().with_approx(ffn_block(0), GroupShrink(1, 2))
        view = plan.resolve(tiny_config)[0]
        w = tiny_config.weight_group_width
        expected = np.zeros(tiny_config.hidden_dim, dtype=bool)
        expected[w:2 * w] = True
        np.testing.assert_array_equal(view.ffn_live, expected)


SIGN_MATCH = {"element": "attn_block:0:0", "variant": "sign_match", "params": {"k": 4}}

MALFORMED_PLANS = {
    "not_json": "{not json",
    "not_object": [],
    "no_params": {"approx": [{**SIGN_MATCH, "params": {}}]},
    "non_int_param": {"approx": [{**SIGN_MATCH, "params": {"k": "x"}}]},
    "float_param": {"approx": [{**SIGN_MATCH, "params": {"k": 4.7}}]},
    "integral_float_param": {"approx": [{**SIGN_MATCH, "params": {"k": 8.0}}]},
    "string_bits": {"approx": [{**SIGN_MATCH, "variant": "quantize", "params": {"bits": "8"}}]},
    "params_not_object": {"approx": [{**SIGN_MATCH, "params": [4]}]},
    "bool_param": {"approx": [{**SIGN_MATCH, "params": {"k": True}}]},
    "string_param": {"approx": [{**SIGN_MATCH, "params": {"k": "4"}}]},
    "extra_param": {"approx": [{**SIGN_MATCH, "params": {"k": 4, "bits": 8}}]},
    "no_element": {"approx": [{"variant": "sign_match", "params": {"k": 4}}]},
    "unknown_variant": {"approx": [{**SIGN_MATCH, "variant": "no_such_variant"}]},
    "approx_not_list": {"approx": SIGN_MATCH},
    "skip_not_list": {"skip": "attn_block:0:0"},
    "bad_element_key": {"skip": ["no_such_kind:0:0"]},
    "unknown_top_level_key": {"skip": [], "aprox": [SIGN_MATCH]},
    "unknown_entry_key": {"approx": [{**SIGN_MATCH, "k": 4}]},
}


class TestPlanDocument:
    @pytest.mark.parametrize("doc", MALFORMED_PLANS.values(), ids=MALFORMED_PLANS.keys())
    def test_malformed_plan_rejected(self, doc):
        with pytest.raises(PlanError):
            ApproxPlan.from_json(doc if isinstance(doc, str) else json.dumps(doc))

    @pytest.mark.parametrize("approx", [
        [{"element": "head:0:1", "variant": "quantize", "params": {"bits": 8}}],
        [{"element": "kv_position_group:0:0", "variant": "group_shrink",
          "params": {"lo": 0, "hi": 1}}],
        [{"element": "ffn_weight_group:0:0", "variant": "quantize", "params": {"bits": b}}
         for b in (8, 2)],
    ], ids=["quantize_head", "shrink_kv_group", "two_quantize"])
    def test_unchecked_entries_rejected(self, approx):
        with pytest.raises(PlanError):
            ApproxPlan.from_doc({"skip": [], "approx": approx})

    def test_element_missing_from_config_rejected(self, tiny_config):
        plan = ApproxPlan.from_doc({"skip": ["head:0:7"], "approx": []})
        with pytest.raises(PlanError, match="out of range"):
            plan.resolve(tiny_config)


def kv_twin(config, seed):
    """The model of `config` and `seed` (same weights) on a config with one
    position per key/value group, so KV_GROUP skips prune single positions."""
    return build_model(dataclasses.replace(config, kv_group_width=1), seed)


def kv_plan(layer, positions):
    return ApproxPlan(TransElement(KV_GROUP, layer, p) for p in positions)


class TestKvPrune:
    def test_empty_prune_unchanged(self, tiny_config, tiny_model, rng):
        model = kv_twin(tiny_config, 7)
        plan = kv_plan(0, [])
        x = rng.normal(size=(8, 8))
        a = PlannedModel(model, plan).attention_sublayer(0, Tensor(x))
        b = PlannedModel(tiny_model).attention_sublayer(0, Tensor(x))
        np.testing.assert_array_equal(a.data, b.data)

    def test_prune_all_but_one_attends_single_key(self, tiny_config, rng):
        model = kv_twin(tiny_config, 7)
        plan = kv_plan(0, range(1, 8))
        x = rng.normal(size=(8, tiny_config.hidden_dim))
        out = PlannedModel(model, plan).attention_sublayer(0, Tensor(x))
        layer = layer_dict(model, 0)
        h = ref_layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        v0 = h[0:1] @ layer["wv"] + layer["bv"]  # softmax over one key is 1
        expected = x + np.repeat(v0, 8, axis=0) @ layer["wo"] + layer["bo"]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_random_prune_matches_reduced_matrix_reference(self, tiny_config, rng):
        model = kv_twin(tiny_config, 31)
        keep = np.array([0, 3, 4, 7])
        plan = kv_plan(1, [1, 2, 5, 6])
        x = rng.normal(size=(8, tiny_config.hidden_dim))
        out = PlannedModel(model, plan).attention_sublayer(1, Tensor(x))
        expected = ref_attention_per_head(x, layer_dict(model, 1),
                                          tiny_config.num_heads, kv_positions=keep)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_kv_group_skip_all_rejected_at_resolve(self, tiny_config):
        plan = (ApproxPlan()
                .with_skip(TransElement(KV_GROUP, 0, 0))
                .with_skip(TransElement(KV_GROUP, 0, 1)))
        with pytest.raises(PlanError, match="all key/value positions"):
            plan.resolve(tiny_config)

    def test_causal_early_prune_warns(self, causal_config):
        plan = ApproxPlan().with_skip(TransElement(KV_GROUP, 0, 0))
        with pytest.warns(UserWarning, match="first quarter"):
            plan.resolve(causal_config)


class TestTransformProperties:
    def test_shape_preserved_for_random_valid_plans(self, tiny_config, rng):
        model = build_model(tiny_config, 41)
        tok = rng.integers(0, 5, size=(3, 8))
        plans = [
            ApproxPlan().with_skip(attn_block(0)),
            ApproxPlan().with_skip(TransElement(HEAD, 1, 1)),
            ApproxPlan().with_approx(attn_block(0), SignMatch(2)),
            ApproxPlan().with_approx(ffn_block(1), Quantize(4)),
            ApproxPlan().with_skip(TransElement(QKV_GROUP, 0, 1)),
            ApproxPlan().with_skip(TransElement(KV_GROUP, 1, 0)),
        ]
        base_shape = PlannedModel(model).forward(tok)[0].data.shape
        for plan in plans:
            assert PlannedModel(model, plan).forward(tok)[0].data.shape == base_shape

    def test_disjoint_transforms_commute(self, tiny_config, rng):
        model = build_model(tiny_config, 43)
        tok = rng.integers(0, 5, size=(2, 8))
        entries = [
            ("skip", TransElement(HEAD, 0, 0), None),
            ("approx", TransElement(FFN_GROUP, 0, 0), Quantize(8)),
            ("skip", TransElement(KV_GROUP, 1, 1), None),
            ("approx", attn_block(1), SignMatch(3)),
        ]

        def build(order):
            plan = ApproxPlan()
            for kind, el, params in order:
                plan = plan.with_skip(el) if kind == "skip" else plan.with_approx(el, params)
            return PlannedModel(model, plan).forward(tok)[0].data

        np.testing.assert_array_equal(build(entries), build(entries[::-1]))
