"""Model construction, plan-parameterized forward, cost accounting,
checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

from slimformer import (ApproxPlan, ConfigError, GroupShrink, OpCounter, PlanError,
                        PlannedModel, Quantize, SignMatch, Tensor,
                        TransElement, TransformerConfig, build_model,
                        load_checkpoint, measure_latency, save_checkpoint,
                        sign_match_attention)
from slimformer.config import read_doc
from slimformer.costs import block_cost, cost_from_views, head_macs, quantized_bytes
from slimformer.elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD,
                                 KV_GROUP, PARAM_TABLE, QKV_GROUP, attn_block,
                                 enumerate_elements, ffn_block)
from slimformer.signmatch import causal_mask
from slimformer.tasks import IGNORE_LABEL
from slimformer.tensor import layer_norm, make_rng

from reference import (finite_difference_grad, layer_dict,
                       ref_attention_per_head, ref_ffn, ref_layer_norm,
                       ref_model_forward)


class TestBuildModel:
    def test_shapes_match_config(self, tiny_config, tiny_model):
        d, y = tiny_config.hidden_dim, tiny_config.ffn_dim
        assert tiny_model.embedding.shape == (tiny_config.vocab_size, d)
        assert tiny_model.positional.shape == (tiny_config.context_len, d)
        for layer in tiny_model.layers:
            assert layer.wq.shape == (d, d)
            assert layer.w1.shape == (d, y)
            assert layer.w2.shape == (y, d)
        assert tiny_model.head_w.shape == (d, tiny_config.output_classes)

    def test_same_seed_byte_identical(self, tiny_config):
        a = build_model(tiny_config, 5)
        b = build_model(tiny_config, 5)
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError, match="not divisible by num_heads"):
            TransformerConfig(num_layers=1, hidden_dim=7, num_heads=2, ffn_dim=8,
                              context_len=4, vocab_size=4, kv_group_width=4,
                              weight_group_width=7)

    def test_causal_mask_matrix_semantics(self):
        m = causal_mask(4, np.arange(4))
        for i in range(4):
            for j in range(4):
                assert m[i, j] == (j <= i)
        sliced = causal_mask(4, np.array([1, 3]))
        np.testing.assert_array_equal(sliced, [[False, False], [True, False],
                                               [True, False], [True, True]])

    def test_parallel_training_of_independent_models(self, tiny_config, majority_data):
        """Independent model instances may train in parallel threads."""
        import threading
        from slimformer.training import train_epochs
        from slimformer.tensor import spawn_rng

        results = {}

        def worker(name, seed):
            model = build_model(tiny_config, seed)
            train_epochs(model, None, majority_data.train, 2, spawn_rng(seed, 0),
                         lr=0.01)
            results[name] = model.layers[0].wq.data.copy()

        threads = [threading.Thread(target=worker, args=(f"t{i}", 7)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ref = build_model(tiny_config, 7)
        train_epochs(ref, None, majority_data.train, 2, spawn_rng(7, 0), lr=0.01)
        for name, wq in results.items():
            np.testing.assert_array_equal(wq, ref.layers[0].wq.data)


class TestAttentionForward:
    def test_single_position_causal_is_value_transform(self, causal_config):
        model = build_model(causal_config, 3)
        x = Tensor(make_rng(0).normal(size=(1, causal_config.hidden_dim)))
        out = PlannedModel(model).attention_sublayer(0, x)
        layer = layer_dict(model, 0)
        h = ref_layer_norm(x.data, layer["ln1_g"], layer["ln1_b"])
        v = h @ layer["wv"] + layer["bv"]
        expected = x.data + v @ layer["wo"] + layer["bo"]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_all_heads_pruned_zero_padding(self, tiny_config, tiny_model):
        plan = ApproxPlan()
        for i in range(tiny_config.num_heads):
            plan = plan.with_skip(TransElement(HEAD, 0, i))
        x = Tensor(make_rng(1).normal(size=(4, tiny_config.hidden_dim)))
        out = PlannedModel(tiny_model, plan).attention_sublayer(0, x)
        # fresh model has zero output bias, so the sublayer reduces to x + 0
        np.testing.assert_array_equal(out.data, x.data)
        assert out.shape == x.shape

    def test_matches_per_head_reference(self, rng):
        for trial in range(5):
            cfg = TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2,
                                    ffn_dim=16, context_len=4, vocab_size=5,
                                    weight_group_width=4, kv_group_width=4)
            model = build_model(cfg, 100 + trial)
            x = rng.normal(size=(4, 8))
            out = PlannedModel(model).attention_sublayer(0, Tensor(x))
            expected = ref_attention_per_head(x, layer_dict(model, 0), cfg.num_heads)
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-10)

    def test_head_subset_pruning_shape_and_reference(self, tiny_config, tiny_model, rng):
        plan = ApproxPlan().with_skip(TransElement(HEAD, 0, 1))
        x = rng.normal(size=(6, tiny_config.hidden_dim))
        out = PlannedModel(tiny_model, plan).attention_sublayer(0, Tensor(x))
        expected = ref_attention_per_head(x, layer_dict(tiny_model, 0),
                                          tiny_config.num_heads, live_heads=[0])
        assert out.shape == (6, tiny_config.hidden_dim)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestSignMatchedAttention:
    """A sign-matched block with a pruned head and a pruned KV group against
    a per-head oracle that sign-matches plain column slices of q/k/v."""

    LIVE_KV = np.array([0, 1, 2, 3, 8, 9, 10, 11])

    @staticmethod
    def model(causal):
        cfg = TransformerConfig(num_layers=1, hidden_dim=12, num_heads=3, ffn_dim=16,
                                context_len=12, vocab_size=6, autoregressive=causal,
                                task_kind="language_model" if causal else "classification",
                                weight_group_width=4, kv_group_width=4)
        plan = (ApproxPlan().with_skip(TransElement(HEAD, 0, 1))
                .with_skip(TransElement(KV_GROUP, 0, 1))
                .with_approx(attn_block(0), SignMatch(5)))
        return build_model(cfg, 5), plan

    def oracle(self, model, x, causal):
        p = model.layers[0]
        h = layer_norm(Tensor(x), p.ln1_g, p.ln1_b).data
        q = h @ p.wq.data + p.bq.data
        k = h[..., self.LIVE_KV, :] @ p.wk.data + p.bk.data
        v = h[..., self.LIVE_KV, :] @ p.wv.data + p.bv.data
        merged = np.zeros_like(x)
        for head in (0, 2):
            cols = slice(4 * head, 4 * head + 4)
            merged[..., cols] = sign_match_attention(
                Tensor(q[..., cols]), Tensor(k[..., cols]), Tensor(v[..., cols]),
                5, causal, key_positions=self.LIVE_KV).data
        return x + (merged @ p.wo.data + p.bo.data)

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("shape", [(12, 12), (3, 12, 12)], ids=["rank2", "batched"])
    def test_matches_per_head_oracle(self, rng, causal, shape):
        model, plan = self.model(causal)
        x = rng.normal(size=shape)
        out = PlannedModel(model, plan).attention_sublayer(0, Tensor(x))
        assert np.array_equal(out.data, self.oracle(model, x, causal))

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_forward_gradients_match_finite_differences(self, causal):
        model, plan = self.model(causal)
        gen = np.random.default_rng(3)
        tokens = gen.integers(0, 6, size=(2, 12))
        labels = gen.integers(0, 6, size=(2, 12) if causal else 2)
        planned = PlannedModel(model, plan)
        p = model.layers[0]
        for param in (p.wq, p.wk, p.wo):
            param.grad = None
            planned.forward(tokens, labels)[1].backward()
            analytic = param.grad.copy()
            param.grad = None
            numeric = finite_difference_grad(
                lambda: planned.forward(tokens, labels)[1].item(), param.data)
            big = np.abs(numeric) > 1e-7
            rel = np.abs(analytic - numeric)[big] / np.abs(numeric)[big]
            assert big.any() and rel.max() < 1e-5
            assert np.abs(analytic - numeric)[~big].max(initial=0.0) < 1e-6


class TestFfnForward:
    def test_skipped_block_is_identity(self, tiny_model, rng):
        plan = ApproxPlan().with_skip(ffn_block(0))
        x = rng.normal(size=(4, 8))
        out = PlannedModel(tiny_model, plan).ffn_sublayer(0, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_all_groups_pruned_is_bias_only(self, tiny_config, tiny_model, rng):
        plan = ApproxPlan()
        for g in range(tiny_config.num_weight_groups):
            plan = plan.with_skip(TransElement(FFN_GROUP, 0, g))
        x = rng.normal(size=(4, 8))
        out = PlannedModel(tiny_model, plan).ffn_sublayer(0, Tensor(x))
        layer = layer_dict(tiny_model, 0)
        expected = ref_ffn(x, layer, live_rows=np.zeros(8))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_group_prune_equals_row_zeroing(self, tiny_config, rng):
        model = build_model(tiny_config, 17)
        plan = ApproxPlan().with_skip(TransElement(FFN_GROUP, 1, 0))
        x = rng.normal(size=(4, 8))
        out = PlannedModel(model, plan).ffn_sublayer(1, Tensor(x))
        twin = model.clone()
        twin.layers[1].w1.data[0:tiny_config.weight_group_width] = 0.0
        expected = PlannedModel(twin).ffn_sublayer(1, Tensor(x))
        np.testing.assert_array_equal(out.data, expected.data)


class TestForward:
    def test_empty_plan_equals_explicit_active(self, tiny_model, majority_data):
        tok = majority_data.train.tokens[:8]
        lab = majority_data.train.labels[:8]
        _, loss_a = PlannedModel(tiny_model).forward(tok, lab)
        _, loss_b = PlannedModel(tiny_model, ApproxPlan()).forward(tok, lab)
        assert loss_a.data.tobytes() == loss_b.data.tobytes()

    def test_skip_all_blocks_leaves_embedding_head_path(self, tiny_config, tiny_model,
                                                        majority_data):
        plan = ApproxPlan()
        for i in range(tiny_config.num_layers):
            plan = plan.with_skip(attn_block(i)).with_skip(ffn_block(i))
        tok = majority_data.train.tokens[:4]
        logits, _ = PlannedModel(tiny_model, plan).forward(
            tok, majority_data.train.labels[:4])
        x = tiny_model.embedding.data[tok] + tiny_model.positional.data
        x = ref_layer_norm(x, tiny_model.lnf_g.data, tiny_model.lnf_b.data)
        expected = x.mean(axis=1) @ tiny_model.head_w.data + tiny_model.head_b.data
        np.testing.assert_allclose(logits.data, expected, atol=1e-12)

    def test_block_skip_equals_rebuilt_model(self, tiny_model, majority_data):
        """Skipping a block gives the same logits as a reference forward with
        that block deleted."""
        plan = ApproxPlan().with_skip(ffn_block(1))
        tok = majority_data.train.tokens[0]
        logits, _ = PlannedModel(tiny_model, plan).forward(
            tok[None, :], majority_data.train.labels[:1])
        expected = ref_model_forward(tiny_model, tok, include={("ffn", 1): False})
        np.testing.assert_allclose(logits.data[0], expected, rtol=0, atol=1e-10)

    def test_padding_short_sequences(self, tiny_model, majority_data):
        tok = majority_data.train.tokens[:2, :5]
        logits, _ = PlannedModel(tiny_model).forward(tok)
        assert logits.data.shape[0] == 2

    def test_short_sequences_pad_their_labels(self, causal_model, rng):
        """Per-token labels of sequences shorter than the context are padded
        with IGNORE_LABEL like the tokens are with pad_token, so the loss
        equals the loss of the same batch padded by hand; labels shaped
        unlike the tokens are rejected."""
        cfg = causal_model.config
        tokens = rng.integers(0, cfg.vocab_size, size=(3, 5))
        labels = rng.integers(0, cfg.output_classes, size=(3, 5))
        labels[0, 1] = IGNORE_LABEL
        planned = PlannedModel(causal_model)
        _, loss = planned.forward(tokens, labels)
        pad = ((0, 0), (0, cfg.context_len - 5))
        _, expected = planned.forward(np.pad(tokens, pad, constant_values=cfg.pad_token),
                                      np.pad(labels, pad, constant_values=IGNORE_LABEL))
        assert loss.item() == expected.item()
        for bad in (labels[:, :4], labels[:2], labels.reshape(-1)):
            with pytest.raises(ValueError, match="labels shape"):
                planned.forward(tokens, bad)

    def test_token_out_of_range(self, tiny_model):
        with pytest.raises(ValueError, match="token id out of range"):
            PlannedModel(tiny_model).forward(np.array([[99, 0, 1]]))

    def test_sequence_longer_than_context(self, causal_model, rng):
        """Over-long sequences are rejected by their length, also when labels
        come with them (which are padded only after the check)."""
        cfg = causal_model.config
        tokens = rng.integers(0, cfg.vocab_size, size=(2, cfg.context_len + 1))
        labels = rng.integers(0, cfg.output_classes, size=tokens.shape)
        planned = PlannedModel(causal_model)
        for call in (lambda: planned.forward(tokens), lambda: planned.forward(tokens, labels),
                     lambda: planned.loss(tokens, labels)):
            with pytest.raises(ValueError, match="exceeds context"):
                call()

    def test_causal_mask_blocks_future_influence(self, causal_model, rng):
        """Changing tokens after position t never changes logits at <= t."""
        n = causal_model.config.context_len
        base = rng.integers(0, 5, size=n)
        for t in (2, 5):
            variant = base.copy()
            variant[t + 1:] = (variant[t + 1:] + 1) % 5
            la, _ = PlannedModel(causal_model).forward(base[None, :])
            lb, _ = PlannedModel(causal_model).forward(variant[None, :])
            np.testing.assert_array_equal(la.data[0, :t + 1], lb.data[0, :t + 1])
            assert not np.array_equal(la.data[0, t + 1:], lb.data[0, t + 1:])

    @pytest.mark.filterwarnings("ignore:.*first quarter of a causal context")
    def test_starved_queries_do_not_read_the_future(self, causal_model, rng):
        """With the first key/value group pruned, queries 0-3 of layer 0 see
        no key; they get a zero attention row, not a softmax over later keys,
        and are counted as starved in each head."""
        planned = PlannedModel(causal_model, ApproxPlan([TransElement(KV_GROUP, 0, 0)]))
        base = rng.integers(0, 5, size=causal_model.config.context_len)
        variant = base.copy()
        variant[5] = (variant[5] + 1) % 5
        counter = OpCounter()
        la = planned.forward(base[None, :], counter=counter)[0].data
        lb = planned.forward(variant[None, :])[0].data
        np.testing.assert_array_equal(la[0, :5], lb[0, :5])
        assert not np.array_equal(la[0, 5:], lb[0, 5:])
        assert counter.starved_queries == 4 * causal_model.config.num_heads


class TestCost:
    def test_skipped_ffn_block_param_delta(self, tiny_config, tiny_model):
        d, y = tiny_config.hidden_dim, tiny_config.ffn_dim
        full = PlannedModel(tiny_model).cost()
        skipped = PlannedModel(tiny_model, ApproxPlan().with_skip(ffn_block(0))).cost()
        # weights 2dy plus biases b1 (y), b2 (d) and the block's norm affine (2d)
        assert full.param_count - skipped.param_count == 2 * d * y + y + 3 * d

    def test_quantized_group_bytes_and_params(self, tiny_config, tiny_model):
        plan = ApproxPlan().with_approx(TransElement(FFN_GROUP, 1, 1), Quantize(8))
        full = PlannedModel(tiny_model).cost()
        quant = PlannedModel(tiny_model, plan).cost()
        count = tiny_config.weight_group_width * tiny_config.ffn_dim
        expected_delta = count * 8 - quantized_bytes(count, 8)
        assert full.bytes - quant.bytes == expected_delta
        assert full.param_count == quant.param_count
        assert full.mac_count == quant.mac_count

    def test_quantized_bytes_match_brute_force_count(self):
        """Each quantized row band stores its live rows times its matrix's
        live columns as packed codes; counted here from explicit masks."""
        cfg = TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=14,
                                context_len=8, vocab_size=6, weight_group_width=4)
        d, y, w, dh = cfg.hidden_dim, cfg.ffn_dim, cfg.weight_group_width, cfg.head_dim
        pruned = ApproxPlan([TransElement(HEAD, 0, 1), TransElement(QKV_GROUP, 0, 0)])
        pruned = pruned.with_approx(ffn_block(0), GroupShrink(1, 2))
        quant = (pruned.with_approx(attn_block(0), Quantize(8))
                 .with_approx(ffn_block(0), Quantize(4)))
        head_live = np.arange(d) < dh  # head 0 of 2 survives
        qkv_rows = np.arange(d) >= w   # QKV group 0 skipped
        ffn_rows = (np.arange(d) >= w) & (np.arange(d) < 2 * w)  # kept group [1, 2)
        masks = {m: (np.outer(qkv_rows, head_live), 8) for m in ("wq", "wk", "wv")}
        masks["wo"] = (np.outer(head_live, np.ones(d, bool)), 8)
        masks["w1"] = (np.outer(ffn_rows, np.ones(y, bool)), 4)
        masks["w2"] = (np.ones((y, d), bool), 4)
        expected = 0
        for live, bits in masks.values():
            for lo in range(0, live.shape[0], w):
                count = int(live[lo:lo + w].sum())
                if count:
                    expected += count * 8 - quantized_bytes(count, bits)
        delta = (cost_from_views(cfg, pruned.resolve(cfg)).bytes
                 - cost_from_views(cfg, quant.resolve(cfg)).bytes)
        assert delta == expected > 0

    def test_signmatch_score_stage_linear_in_n(self):
        def cfg(n):
            return TransformerConfig(num_layers=1, hidden_dim=16, num_heads=2,
                                     ffn_dim=32, context_len=n, vocab_size=5,
                                     weight_group_width=4, kv_group_width=4)

        def attn_macs(n, plan=ApproxPlan()):
            view = plan.resolve(cfg(n))[0]
            return block_cost(cfg(n), view, ATTN_BLOCK).mac_count

        matched = ApproxPlan().with_approx(attn_block(0), SignMatch(8))
        sm64 = attn_macs(64, matched)
        sm128 = attn_macs(128, matched)
        assert sm128 == 2 * sm64  # every sign-matched stage is linear in n
        full64 = attn_macs(64)
        full128 = attn_macs(128)
        assert full128 > 2 * full64  # quadratic score stage by contrast
        assert sm64 < full64

    def test_cost_additivity(self, tiny_config, tiny_model):
        full = PlannedModel(tiny_model).cost()
        expected = head_macs(tiny_config)
        for view in PlannedModel(tiny_model).views:
            expected += sum(block_cost(tiny_config, view, block).mac_count
                            for block in (ATTN_BLOCK, FFN_BLOCK))
        assert full.mac_count == expected

    def test_kv_prune_reduces_macs_not_params(self, tiny_config):
        tiny_model = build_model(dataclasses.replace(tiny_config, kv_group_width=1), 7)
        plan = ApproxPlan([TransElement(KV_GROUP, 0, 0), TransElement(KV_GROUP, 0, 1)])
        full = PlannedModel(tiny_model).cost()
        pruned = PlannedModel(tiny_model, plan).cost()
        assert pruned.mac_count < full.mac_count
        assert pruned.param_count == full.param_count


class TestCostOracle:
    """The cost model's MACs against the multiply-accumulates the executor
    performs, counted at every projection (``linear``) and attention core
    (``full_attention``: Q K^T plus P V) of the model and the attention
    code, plus the query entries of each ``sign_distances`` call: a layer
    that sign-matches fewer keys than it has pays that n*width linear
    scoring stage, which is not a matmul; one with k at or above its live
    key count runs, and is charged, as plain attention."""

    SHAPES = {
        "lm": dict(autoregressive=True, task_kind="language_model"),
        "classification": dict(task_kind="classification", num_classes=3),
    }

    @classmethod
    def config(cls, shape) -> TransformerConfig:
        return TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=12,
                                 context_len=8, vocab_size=6, weight_group_width=2,
                                 kv_group_width=2, **cls.SHAPES[shape])

    @staticmethod
    def random_plan(cfg, gen) -> ApproxPlan:
        groups = cfg.num_weight_groups
        plan = ApproxPlan()
        for el in enumerate_elements(cfg):
            rate = {ATTN_BLOCK: 0.15, FFN_BLOCK: 0.15, HEAD: 0.4}.get(el.kind, 0.25)
            # key/value group 0 stays live: no layer loses every key, and
            # causal queries keep the keys of the first quarter
            if gen.random() < rate and not (el.kind == KV_GROUP and el.index == 0):
                plan = plan.with_skip(el)
        for el in enumerate_elements(cfg):
            if el in plan.skiplist or el.kind in (HEAD, KV_GROUP):
                continue
            if el.kind == ATTN_BLOCK and gen.random() < 0.4:
                plan = plan.with_approx(el, SignMatch(int(gen.integers(1, cfg.context_len + 1))))
            if el.kind in (ATTN_BLOCK, FFN_BLOCK) and gen.random() < 0.4:
                lo = int(gen.integers(0, groups + 1))
                plan = plan.with_approx(el, GroupShrink(lo, int(gen.integers(lo, groups + 1))))
            if gen.random() < 0.3:
                plan = plan.with_approx(el, Quantize(int(gen.choice([2, 4, 8]))))
        return plan

    @staticmethod
    def executed(view) -> set:
        """The approximations a resolved layer's live blocks execute."""
        out = {"skip"} if view.attn_skipped or view.ffn_skipped else set()
        checks = []
        if not view.attn_skipped:
            # sign matching selects keys only while k is below the live key count
            k, live = view.signmatch_k, int(view.kv_live.sum())
            checks += [("heads", not view.head_live.all()), ("headless", not view.head_live.any()),
                       ("qkv", not view.qkv_live.all()),
                       ("kv", not view.kv_live.all()),
                       ("signmatch", k is not None and k < live),
                       ("signmatch_vacuous", k is not None and k >= live),
                       ("quant", any(view.quant_bits[m].any() for m in ("wq", "wk", "wv", "wo")))]
        if not view.ffn_skipped:
            checks += [("ffn", not view.ffn_live.all()), ("empty_ffn", not view.ffn_live.any()),
                       ("quant", any(view.quant_bits[m].any() for m in ("w1", "w2")))]
        return out | {name for name, hit in checks if hit}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counted_macs_match_cost_model(self, monkeypatch, shape):
        import slimformer.model
        import slimformer.signmatch
        from slimformer import tensor

        counted = [0]

        def counting_linear(x, w, b, placed=None):
            counted[0] += x.data.size * w.data.shape[-1]
            return tensor.linear(x, w, b, placed)

        def counting_attention(q, k, v, mask=None):
            rows, n_k = q.data.size // q.data.shape[-1], k.data.shape[-2]
            counted[0] += rows * n_k * (q.data.shape[-1] + v.data.shape[-1])
            return tensor.full_attention(q, k, v, mask)

        def counting_distances(query, key, counter=None):
            counted[0] += query.size  # the scoring stage: one MAC-equivalent per query entry
            return distances(query, key, counter)

        distances = slimformer.signmatch.sign_distances
        monkeypatch.setattr(slimformer.signmatch, "sign_distances", counting_distances)
        monkeypatch.setattr(slimformer.model, "linear", counting_linear)
        for module in (slimformer.model, slimformer.signmatch):
            monkeypatch.setattr(module, "full_attention", counting_attention)
        cfg = self.config(shape)
        model = build_model(cfg, 3)
        gen = np.random.default_rng(91)
        seen = set()
        for _ in range(24):
            planned = PlannedModel(model, self.random_plan(cfg, gen))
            counted[0] = 0
            planned.forward(gen.integers(0, cfg.vocab_size, size=(1, cfg.context_len)))
            assert counted[0] == planned.cost().mac_count
            seen.update(*map(self.executed, planned.views))
        assert seen == {"heads", "headless", "qkv", "ffn", "empty_ffn", "kv", "signmatch",
                        "signmatch_vacuous", "quant", "skip"}

    @staticmethod
    def counted_tensors(cfg, view) -> list:
        """(name, live rows, live columns or None for a vector) of each
        layer tensor the executor reads, from explicit masks: an unskipped
        block reads the live rows times the live columns of each of its
        tensors (a layer norm's at the block's live input rows), but a
        headless attention block only wo's bias and an FFN without live
        input rows only b1, w2 and b2."""
        all_d, all_y = np.ones(cfg.hidden_dim, bool), np.ones(cfg.ffn_dim, bool)
        heads = np.repeat(view.head_live, cfg.head_dim)  # live columns of wq/wk/wv
        tensors = []
        if not view.attn_skipped:
            tensors += [("wq", view.qkv_live, heads), ("bq", heads, None),
                        ("wk", view.qkv_live, heads), ("bk", heads, None),
                        ("wv", view.qkv_live, heads), ("bv", heads, None),
                        ("wo", heads, all_d), ("bo", all_d, None)]
            if view.head_live.any():
                tensors += [("ln1_g", view.qkv_live, None), ("ln1_b", view.qkv_live, None)]
        if not view.ffn_skipped:
            tensors += [("w1", view.ffn_live, all_y), ("b1", all_y, None),
                        ("w2", all_y, all_d), ("b2", all_d, None)]
            if view.ffn_live.any():
                tensors += [("ln2_g", view.ffn_live, None), ("ln2_b", view.ffn_live, None)]
        return tensors

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counted_params_and_bytes_match_cost_model(self, shape):
        """Parameters and bytes against a count over ``counted_tensors``,
        stored as floats except for quantized row bands, which are packed
        codes."""
        cfg = self.config(shape)
        d, g = cfg.hidden_dim, cfg.weight_group_width
        # embedding, positional table, final norm and task head
        static = (cfg.vocab_size + cfg.context_len + 2) * d + (d + 1) * cfg.output_classes
        gen = np.random.default_rng(29)
        seen = set()
        for _ in range(48):
            plan = self.random_plan(cfg, gen)
            if any(isinstance(p, GroupShrink) for entries in plan.approxlist.values()
                   for p in entries):
                seen.add("shrink")
            params, nbytes = static, static * 8
            for view in plan.resolve(cfg):
                if not view.attn_skipped and not view.head_live.any():
                    seen.add("headless")
                if not view.ffn_skipped and not view.ffn_live.any():
                    seen.add("empty_ffn")
                for name, rows, cols in self.counted_tensors(cfg, view):
                    live = rows[:, None] & (np.ones(1, bool) if cols is None else cols)
                    params += int(live.sum())
                    bits = view.quant_bits.get(name, np.zeros(-(-rows.size // g), int))
                    for band, b in enumerate(bits.tolist()):
                        count = int(live[band * g:(band + 1) * g].sum())
                        nbytes += quantized_bytes(count, b) if b and count else count * 8
                        if b and not rows[band * g:(band + 1) * g].all():
                            seen.add("quant_pruned_rows")
            cost = cost_from_views(cfg, plan.resolve(cfg))
            assert (cost.param_count, cost.bytes) == (params, nbytes)
        assert seen == {"shrink", "headless", "empty_ffn", "quant_pruned_rows"}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counted_tensors_are_what_the_executor_trains(self, shape):
        """One backward of the planned loss, with every weight drawn at
        random: no layer entry outside ``counted_tensors`` gets a nonzero
        gradient, and every tensor with a counted full-precision entry
        enters the graph and the plan's ``parameters()``. (Some counted
        entries get an exactly zero gradient: bk's under the softmax's
        shift invariance, a query path whose queries see one key.)"""
        cfg = self.config(shape)
        g = cfg.weight_group_width
        model = build_model(cfg, 3)
        init = np.random.default_rng(5)
        for _, t in model.named_parameters():  # no zero bias hides a read
            t.data = init.normal(0.0, 0.5, t.data.shape)
        gen = np.random.default_rng(29)
        batch = (4,) if shape == "classification" else (4, cfg.context_len)
        seen = set()
        for _ in range(48):
            planned = PlannedModel(model, self.random_plan(cfg, gen))
            trained = {id(t) for t in planned.parameters()}
            for _, t in model.named_parameters():
                t.grad = None
            tokens = gen.integers(0, cfg.vocab_size, size=(4, cfg.context_len))
            planned.loss(tokens, gen.integers(0, cfg.output_classes, size=batch)).backward()
            for p, view in zip(model.layers, planned.views):
                seen |= self.executed(view)
                counted = {name: rows if cols is None else np.outer(rows, cols)
                           for name, rows, cols in self.counted_tensors(cfg, view)}
                for name in PARAM_TABLE:
                    t = getattr(p, name)
                    live = counted.get(name, np.zeros(t.data.shape, bool))
                    assert t.grad is None or not t.grad[~live].any(), name
                    bits = view.quant_bits.get(name, np.zeros(-(-live.shape[0] // g), int))
                    rows = np.repeat(bits == 0, g)[:live.shape[0]]
                    if (live & rows.reshape((-1,) + (1,) * (live.ndim - 1))).any():
                        assert t.grad is not None and id(t) in trained, name
        assert {"headless", "empty_ffn", "quant", "heads", "qkv"} <= seen


class TestBoundPlan:
    """A PlannedModel binds its plan once: live index arrays and cached
    images of quantized bands."""

    @staticmethod
    def plan():
        # wq of layer 0 and w1 of layer 1 each have one quantized and one
        # trainable row band
        return (ApproxPlan([TransElement(HEAD, 0, 1), TransElement(FFN_GROUP, 0, 1)])
                .with_approx(TransElement(QKV_GROUP, 0, 1), Quantize(4))
                .with_approx(TransElement(FFN_GROUP, 1, 0), Quantize(2)))

    def test_cached_bands_survive_training(self, tiny_config, majority_data, monkeypatch):
        from slimformer import evaluate_loss, train_epochs, training
        model = build_model(tiny_config, 5)
        plan = self.plan()
        bound = PlannedModel(model, plan)
        g = tiny_config.weight_group_width
        bands = [(model.layers[0].wq, slice(g, 2 * g)), (model.layers[1].w1, slice(0, g))]
        before = [w.data[rows].copy() for w, rows in bands]
        others = model.layers[1].w1.data[g:].copy()
        train_epochs(model, plan, majority_data.train, 2, make_rng(0))
        for (w, rows), old in zip(bands, before):
            assert w.data[rows].tobytes() == old.tobytes()
        assert not np.array_equal(model.layers[1].w1.data[g:], others)  # trained
        tokens = majority_data.val.tokens[:4]
        stale = bound.forward(tokens)[0].data
        fresh = PlannedModel(model, plan).forward(tokens)[0].data
        assert stale.tobytes() == fresh.tobytes()
        # the helpers bind afresh per call; the bind made before training
        # gives the same loss and, trained one more epoch, the same weights
        twin = model.clone()
        fresh_loss = evaluate_loss(model, plan, majority_data.val)
        train_epochs(twin, plan, majority_data.train, 1, make_rng(1))
        binds = []
        monkeypatch.setattr(training, "PlannedModel", lambda m, p: binds.append(m) or bound)
        assert evaluate_loss(model, plan, majority_data.val).hex() == fresh_loss.hex()
        train_epochs(model, plan, majority_data.train, 1, make_rng(1))
        assert binds == [model, model]
        for (name, a), (_, b) in zip(model.named_parameters(), twin.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_fully_quantized_matrix_is_not_a_parameter(self, tiny_config, tiny_model):
        plan = ApproxPlan().with_approx(ffn_block(1), Quantize(8))
        params = {id(t) for t in PlannedModel(tiny_model, plan).parameters()}
        layer = tiny_model.layers[1]
        assert id(layer.w1) not in params and id(layer.w2) not in params
        assert id(layer.b1) in params and id(layer.ln2_g) in params

    def test_live_gradients_match_finite_differences(self, tiny_config, majority_data):
        model = build_model(tiny_config, 13)
        plan = (ApproxPlan([TransElement(HEAD, 0, 1), TransElement(QKV_GROUP, 0, 0),
                            TransElement(FFN_GROUP, 0, 1)])
                .with_approx(ffn_block(1), GroupShrink(1, 2)))
        planned = PlannedModel(model, plan)
        tokens = majority_data.train.tokens[:3]
        labels = majority_data.train.labels[:3]
        g, dh = tiny_config.weight_group_width, tiny_config.head_dim
        d, y = tiny_config.hidden_dim, tiny_config.ffn_dim
        rows, cols = np.arange(d) >= g, np.arange(d) < dh
        cases = [(model.layers[0].wq, np.outer(rows, cols)),
                 (model.layers[0].w1, np.outer(np.arange(d) < g, np.ones(y, bool))),
                 (model.layers[1].w1, np.outer(np.arange(d) >= g, np.ones(y, bool)))]
        for param, live in cases:
            for t in planned.parameters():
                t.grad = None
            planned.forward(tokens, labels)[1].backward()
            analytic = param.grad.copy()
            assert np.all(analytic[~live] == 0.0)
            numeric = finite_difference_grad(
                lambda: planned.forward(tokens, labels)[1].item(), param.data)
            big = np.abs(numeric) > 1e-7
            assert (big & live).any()
            rel = np.abs(analytic - numeric)[big & live] / np.abs(numeric)[big & live]
            assert rel.max() < 1e-5
            assert np.abs(analytic - numeric)[live & ~big].max(initial=0.0) < 1e-6


class TestLatency:
    def test_positive_finite(self, tiny_model, majority_data):
        ms = measure_latency(tiny_model, None, majority_data.train.tokens[:4], repeats=3)
        assert ms > 0 and np.isfinite(ms)

    def test_repeats_guard(self, tiny_model, majority_data):
        with pytest.raises(ValueError, match="repeats"):
            measure_latency(tiny_model, None, majority_data.train.tokens[:4], repeats=2)

    def test_skip_all_macs_strictly_less(self, tiny_config, tiny_model):
        plan = ApproxPlan()
        for i in range(tiny_config.num_layers):
            plan = plan.with_skip(attn_block(i)).with_skip(ffn_block(i))
        assert (PlannedModel(tiny_model, plan).cost().mac_count
                < PlannedModel(tiny_model).cost().mac_count)

    def test_median_definition(self):
        import statistics
        assert statistics.median([5, 7, 100]) == 7


ILL_TYPED_SEEDS = {"string_seed": "x", "fractional_seed": 0.5, "bool_seed": True,
                   "seed_below_generator": -1}


class TestCheckpoint:
    def test_roundtrip(self, tiny_model, tmp_path):
        json_path, bin_path = save_checkpoint(tiny_model, tmp_path / "model")
        assert json_path.exists() and bin_path.exists()
        loaded = load_checkpoint(tmp_path / "model")
        assert loaded.config == tiny_model.config
        for (na, ta), (nb, tb) in zip(tiny_model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_manifest_structure(self, tiny_model, tmp_path):
        json_path, _ = save_checkpoint(tiny_model, tmp_path / "model")
        manifest = json.loads(json_path.read_text())
        assert sorted(manifest) == ["config", "dtype", "seed"]
        assert manifest["dtype"] == "<f8" and manifest["seed"] == tiny_model.seed
        assert read_doc(TransformerConfig, manifest["config"], "config") == tiny_model.config

    def test_manifest_with_a_tensor_table_loads(self, tiny_model, tmp_path):
        """A manifest in the earlier format, which also listed each
        tensor's name, shape and byte offset, loads bit for bit: the
        table only restated the layout the config fixes."""
        _, bin_path = save_checkpoint(tiny_model, tmp_path / "model")
        tensors, offset = [], 0
        for name, t in tiny_model.named_parameters():
            tensors.append({"name": name, "shape": list(t.data.shape), "offset": offset})
            offset += 8 * t.data.size
        assert offset == bin_path.stat().st_size
        manifest = {"config": tiny_model.config.to_dict(), "seed": tiny_model.seed,
                    "dtype": "<f8", "tensors": tensors}
        (tmp_path / "model.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        loaded = load_checkpoint(tmp_path / "model")
        for (_, ta), (_, tb) in zip(tiny_model.named_parameters(), loaded.named_parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    @pytest.mark.parametrize("config", [pytest.param("tiny_config", id="classifier"),
                                        pytest.param("causal_config", id="lm")])
    def test_dense_bin_length_is_the_cost_bytes(self, request, tmp_path, config):
        model = build_model(request.getfixturevalue(config), 3)
        _, bin_path = save_checkpoint(model, tmp_path / "model")
        assert bin_path.stat().st_size == PlannedModel(model).cost().bytes

    @pytest.mark.parametrize("case, match", [
        pytest.param(case, match, id=case) for case, match in (
            ("truncated_bin", "holds {short} bytes, but the model's parameters take {size}"),
            ("padded_bin", "holds {long} bytes, but the model's parameters take {size}"),
            ("foreign_dtype", "dtype"),
            ("not_json", "not JSON"),
            ("not_utf8", "codec can't decode byte 0xff"),
            ("no_config", "'config'"),
            ("string_seed", "seed 'x'"),
            ("fractional_seed", "seed 0.5"),
            ("bool_seed", "seed True"),
            ("seed_below_generator", "seed -1"))])
    def test_corrupt_checkpoint_rejected(self, tiny_model, tmp_path, case, match):
        json_path, bin_path = save_checkpoint(tiny_model, tmp_path / "model")
        manifest = json.loads(json_path.read_text())
        size = bin_path.stat().st_size
        raw = {"not_json": b"{not json", "not_utf8": b'{"seed": "\xff"}'}.get(case)
        if raw is not None:
            manifest = None
        elif case == "no_config":
            del manifest["config"]
        elif case == "foreign_dtype":
            manifest["dtype"] = "<f4"
        elif case in ILL_TYPED_SEEDS:
            manifest["seed"] = ILL_TYPED_SEEDS[case]
        elif case == "padded_bin":
            bin_path.write_bytes(bin_path.read_bytes() + bytes(8))
        else:
            bin_path.write_bytes(bin_path.read_bytes()[:-8])
        json_path.write_bytes(raw if manifest is None else json.dumps(manifest).encode())
        with pytest.raises(PlanError, match=match.format(short=size - 8, long=size + 8,
                                                         size=size)):
            load_checkpoint(tmp_path / "model")


class TestApplyPlanView:
    def test_empty_plan_identical_forward(self, tiny_model, majority_data):
        tok = majority_data.train.tokens[:4]
        lab = majority_data.train.labels[:4]
        view = PlannedModel(tiny_model, ApproxPlan())
        _, loss_a = view.forward(tok, lab)
        _, loss_b = PlannedModel(tiny_model).forward(tok, lab)
        assert loss_a.data.tobytes() == loss_b.data.tobytes()

    def test_combined_entries_order_independent(self, tiny_config, rng):
        model = build_model(tiny_config, 23)
        head = TransElement(HEAD, 1, 0)
        quant_el = TransElement(FFN_GROUP, 1, 1)
        plan_a = ApproxPlan().with_skip(head).with_approx(quant_el, Quantize(8))
        plan_b = ApproxPlan().with_approx(quant_el, Quantize(8)).with_skip(head)
        tok = rng.integers(0, 5, size=(3, 8))
        la, _ = PlannedModel(model, plan_a).forward(tok)
        lb, _ = PlannedModel(model, plan_b).forward(tok)
        np.testing.assert_array_equal(la.data, lb.data)
        # both effects visible
        base, _ = PlannedModel(model).forward(tok)
        assert not np.array_equal(la.data, base.data)

    def test_idempotent_application(self, tiny_model, majority_data):
        plan = ApproxPlan().with_skip(attn_block(0))
        tok = majority_data.train.tokens[:4]
        a = PlannedModel(tiny_model, plan).forward(tok)[0]
        b = PlannedModel(tiny_model, plan).forward(tok)[0]
        np.testing.assert_array_equal(a.data, b.data)

    def test_conflicting_entries_rejected(self, tiny_model):
        from slimformer.errors import PlanError
        el = attn_block(0)
        plan = ApproxPlan().with_approx(el, SignMatch(4))
        with pytest.raises(PlanError, match="both skiplist and approxlist"):
            plan.with_skip(el)

    def test_nonexistent_head_rejected(self, tiny_model):
        from slimformer.errors import PlanError
        plan = ApproxPlan().with_skip(TransElement(HEAD, 0, 9))
        with pytest.raises((PlanError, ConfigError), match="out of range"):
            PlannedModel(tiny_model, plan)
