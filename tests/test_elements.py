"""Element taxonomy, queue ordering heuristics, encompass filtering."""

import json

import numpy as np
import pytest

from slimformer import (ApproxPlan, ConfigError, ElementQueue, Focus, PlanError,
                        Quantize, TransElement, TransformerConfig, build_model, costs,
                        encompass_filter, enumerate_elements, order_queue)
from slimformer.elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD, KIND_TABLE,
                                 KV_GROUP, PARAM_TABLE, QKV_GROUP, element_bounds,
                                 owned_params)
from slimformer.plan import LayerView


def make_config(**kw):
    base = dict(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                context_len=16, vocab_size=6, weight_group_width=4,
                kv_group_width=4, task_kind="classification")
    base.update(kw)
    return TransformerConfig(**base)


# Pinned key orders of make_config() variants; each line is one run of
# (kind, layer) in queue order.
CANONICAL = """
    attn_block:0:0 ffn_block:0:0 attn_block:1:0 ffn_block:1:0
    head:0:0 head:0:1 head:1:0 head:1:1
    qkv_weight_group:0:0 qkv_weight_group:0:1
    kv_position_group:0:0 kv_position_group:0:1 kv_position_group:0:2 kv_position_group:0:3
    ffn_weight_group:0:0 ffn_weight_group:0:1
    qkv_weight_group:1:0 qkv_weight_group:1:1
    kv_position_group:1:0 kv_position_group:1:1 kv_position_group:1:2 kv_position_group:1:3
    ffn_weight_group:1:0 ffn_weight_group:1:1
""".split()

ATTN_FIRST = """
    attn_block:1:0 attn_block:0:0 ffn_block:1:0 ffn_block:0:0
    head:1:0 head:1:1 head:0:0 head:0:1
    qkv_weight_group:1:0 qkv_weight_group:1:1 qkv_weight_group:0:0 qkv_weight_group:0:1
    kv_position_group:1:0 kv_position_group:1:1 kv_position_group:1:2 kv_position_group:1:3
    kv_position_group:0:0 kv_position_group:0:1 kv_position_group:0:2 kv_position_group:0:3
    ffn_weight_group:1:0 ffn_weight_group:1:1 ffn_weight_group:0:0 ffn_weight_group:0:1
""".split()

FFN_FIRST = """
    ffn_block:1:0 ffn_block:0:0 attn_block:1:0 attn_block:0:0
    head:1:0 head:1:1 head:0:0 head:0:1
    ffn_weight_group:1:0 ffn_weight_group:1:1 ffn_weight_group:0:0 ffn_weight_group:0:1
    qkv_weight_group:1:0 qkv_weight_group:1:1 qkv_weight_group:0:0 qkv_weight_group:0:1
    kv_position_group:1:0 kv_position_group:0:0
""".split()


def attn_first_config():
    return make_config(context_len=64, kv_group_width=16)


def ffn_first_config():
    return make_config(context_len=4, ffn_dim=64)


def queue_keys(cfg, focus, layer_order=None):
    q = order_queue(enumerate_elements(cfg), focus, cfg, layer_order=layer_order)
    return [e.key for e in q.pending()]


def swap_layers(keys):
    """The same keys with layers 0 and 1 exchanged (2-layer configs)."""
    return [k.replace(":0:", ":x:").replace(":1:", ":0:").replace(":x:", ":1:")
            for k in keys]


class TestEnumerate:
    def test_canonical_key_order(self):
        assert [e.key for e in enumerate_elements(make_config())] == CANONICAL

    def test_counts_closed_form(self):
        cfg = make_config()
        els = enumerate_elements(cfg)
        # 4 blocks + 4 heads + 4 qkv groups + 4 ffn groups + 8 kv groups
        assert len(els) == 24
        by_kind = {}
        for el in els:
            by_kind[el.kind] = by_kind.get(el.kind, 0) + 1
        assert by_kind == {ATTN_BLOCK: 2, FFN_BLOCK: 2, HEAD: 4,
                           QKV_GROUP: 4, FFN_GROUP: 4, KV_GROUP: 8}

    def test_minimal_config(self):
        cfg = make_config(num_layers=1, num_heads=1, hidden_dim=4,
                          weight_group_width=4, context_len=4)
        els = enumerate_elements(cfg)
        blocks = [e for e in els if e.granularity == 0]
        heads = [e for e in els if e.kind == HEAD]
        assert len(blocks) == 2 and len(heads) == 1

    def test_all_identities_unique(self):
        for seed in range(3):
            cfg = make_config(num_layers=1 + seed)
            els = enumerate_elements(cfg)
            assert len(set(els)) == len(els)

    def test_key_roundtrip(self):
        el = TransElement(QKV_GROUP, 3, 1)
        assert TransElement.from_key(el.key) == el
        with pytest.raises(ConfigError):
            TransElement.from_key("bogus:1")


class TestOrderQueue:
    def test_small_context_ffn_blocks_first_final_layer_first(self):
        cfg = make_config(context_len=4, kv_group_width=4, ffn_dim=64)
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        first, second = q.pop(), q.pop()
        assert first == TransElement(FFN_BLOCK, 1)
        assert second == TransElement(FFN_BLOCK, 0)

    def test_large_context_attn_blocks_first(self):
        cfg = make_config(context_len=64, kv_group_width=4)
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        first = q.pop()
        assert first == TransElement(ATTN_BLOCK, 1)

    def test_granularity_monotone_on_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            L = int(rng.integers(1, 4))
            n = int(rng.choice([4, 8, 32, 64]))
            cfg = make_config(num_layers=L, context_len=n)
            focus = Focus(rng.choice(["speed", "size", "accuracy"]))
            q = order_queue(enumerate_elements(cfg), focus, cfg)
            grans = [e.granularity for e in q.pending()]
            assert grans == sorted(grans)

    def test_deterministic_replay(self):
        cfg = make_config()
        a = order_queue(enumerate_elements(cfg), Focus.SIZE, cfg)
        b = order_queue(enumerate_elements(cfg), Focus.SIZE, cfg)
        assert a.pending() == b.pending()

    def test_custom_layer_order(self):
        cfg = make_config(context_len=4, ffn_dim=64)
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg,
                        layer_order=[0, 1])
        assert q.pop() == TransElement(FFN_BLOCK, 0)
        with pytest.raises(ConfigError, match="permutation"):
            order_queue(enumerate_elements(cfg), Focus.SPEED, cfg,
                        layer_order=[0, 0])


    @pytest.mark.parametrize("focus", list(Focus), ids=lambda f: f.value)
    def test_full_order_attention_first(self, focus):
        assert queue_keys(attn_first_config(), focus) == ATTN_FIRST

    @pytest.mark.parametrize("focus", list(Focus), ids=lambda f: f.value)
    def test_full_order_ffn_first(self, focus):
        assert queue_keys(ffn_first_config(), focus) == FFN_FIRST

    @pytest.mark.parametrize("focus, first", [(Focus.SPEED, "attn_block:1:0"),
                                              (Focus.ACCURACY, "attn_block:1:0"),
                                              (Focus.SIZE, "ffn_block:1:0")],
                             ids=lambda x: getattr(x, "value", x))
    def test_size_focus_ranks_blocks_by_parameters(self, focus, first):
        # attention costs more MACs, the FFN more parameters
        cfg = make_config(context_len=64, kv_group_width=16, ffn_dim=32)
        attn, ffn = (costs.block_cost(cfg, LayerView(cfg), block)
                     for block in (ATTN_BLOCK, FFN_BLOCK))
        assert (attn.param_count, attn.mac_count) == (304, 81920)
        assert (ffn.param_count, ffn.mac_count) == (568, 32768)
        assert queue_keys(cfg, focus)[0] == first

    def test_full_order_layer_order_ascending(self):
        assert queue_keys(attn_first_config(), Focus.SPEED, [0, 1]) == swap_layers(ATTN_FIRST)
        assert queue_keys(ffn_first_config(), Focus.SPEED, [0, 1]) == swap_layers(FFN_FIRST)

    @pytest.mark.parametrize("el", [TransElement(HEAD, 0, 2), TransElement(KV_GROUP, 1, 4),
                                    TransElement(FFN_BLOCK, 2), TransElement(QKV_GROUP, 2, 0)],
                             ids=["head_past_count", "kv_group_past_count",
                                  "block_past_layers", "group_past_layers"])
    def test_unplaceable_element_rejected(self, el):
        cfg = make_config()
        with pytest.raises(ConfigError, match=f"not placeable in queue: \\['{el.key}'\\]"):
            order_queue(enumerate_elements(cfg) + [el], Focus.SPEED, cfg)


# per-layer element counts of make_config()
PER_LAYER = {ATTN_BLOCK: 1, FFN_BLOCK: 1, HEAD: 2, QKV_GROUP: 2, KV_GROUP: 4, FFN_GROUP: 2}


class TestElementBounds:
    @pytest.mark.parametrize("kind", [HEAD, QKV_GROUP, KV_GROUP, FFN_GROUP])
    def test_index_at_count_rejected(self, kind):
        cfg = make_config()
        element_bounds(cfg, TransElement(kind, 1, PER_LAYER[kind] - 1))
        with pytest.raises(PlanError, match="out of range"):
            element_bounds(cfg, TransElement(kind, 1, PER_LAYER[kind]))

    @pytest.mark.parametrize("kind", list(PER_LAYER))
    def test_layer_at_num_layers_rejected(self, kind):
        cfg = make_config()
        element_bounds(cfg, TransElement(kind, 1))
        with pytest.raises(PlanError, match="out of range"):
            element_bounds(cfg, TransElement(kind, 2))

    @pytest.mark.parametrize("kind", [ATTN_BLOCK, FFN_BLOCK])
    def test_block_index_beyond_zero_rejected(self, kind):
        with pytest.raises(ConfigError, match="index 0"):
            TransElement(kind, 0, 1)


class TestQueue:
    def test_rejects_duplicates_and_bad_granularity(self):
        el = TransElement(FFN_BLOCK, 0)
        with pytest.raises(ConfigError, match="duplicate"):
            ElementQueue([el, el])
        with pytest.raises(ConfigError, match="granularity"):
            ElementQueue([TransElement(HEAD, 0, 0), el])

    def test_partition_invariant_after_filters(self):
        cfg = make_config()
        els = enumerate_elements(cfg)
        q = order_queue(els, Focus.SPEED, cfg)
        q.pop()
        encompass_filter(q, TransElement(ATTN_BLOCK, 1), "kept")
        q.pop()
        encompass_filter(q, TransElement(ATTN_BLOCK, 0), "skipped")
        seen = set(q.pending()) | set(q.consumed()) | {e for e, _ in q.removal_log}
        assert seen == set(els)
        assert not (set(q.pending()) & {e for e, _ in q.removal_log})

    def test_to_json(self):
        cfg = make_config()
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        encompass_filter(q, TransElement(FFN_BLOCK, 0), "kept")
        doc = json.loads(q.to_json())
        assert set(doc) == {"queue", "removed"}
        assert all(r["reason"] == "encompassed" for r in doc["removed"])


class TestEncompassFilter:
    def test_kept_attn_block_removes_heads_and_attn_groups(self):
        cfg = make_config()
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        removed = encompass_filter(q, TransElement(ATTN_BLOCK, 1), "kept")
        kinds = {e.kind for e in removed}
        assert kinds == {HEAD, QKV_GROUP, KV_GROUP}
        assert all(e.layer == 1 for e in removed)
        assert all(r == "encompassed" for _, r in q.removal_log)

    def test_kept_ffn_block_removes_only_its_groups(self):
        cfg = make_config()
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        removed = encompass_filter(q, TransElement(FFN_BLOCK, 0), "kept")
        assert {e.kind for e in removed} == {FFN_GROUP}
        assert all(e.layer == 0 for e in removed)
        assert any(e.kind == HEAD for e in q.pending())

    def test_skipped_block_children_removed_with_reason(self):
        cfg = make_config()
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        removed = encompass_filter(q, TransElement(ATTN_BLOCK, 0), "skipped")
        assert removed
        reasons = {r for e, r in q.removal_log if e in removed}
        assert reasons == {"parent_pruned"}

    def test_heads_have_no_children(self):
        cfg = make_config()
        q = order_queue(enumerate_elements(cfg), Focus.SPEED, cfg)
        assert encompass_filter(q, TransElement(HEAD, 0, 0), "kept") == []


class TestParamTable:
    CONFIGS = [make_config(), make_config(ffn_dim=10),  # 10 FFN rows: a 2-row last band
               make_config(num_layers=1, hidden_dim=12, num_heads=3, ffn_dim=20,
                           weight_group_width=3)]

    # Pinned: what each kind owns and the config attribute giving the
    # width of its slices, written out by hand.
    ATTN = ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    FFN = ("ln2_g", "ln2_b", "w1", "b1", "w2", "b2")
    OWNED = {
        FFN_BLOCK: (None, tuple((name, None) for name in FFN)),
        ATTN_BLOCK: (None, tuple((name, None) for name in ATTN)),
        HEAD: ("head_dim", (("wq", 1), ("wk", 1), ("wv", 1),
                            ("bq", 0), ("bk", 0), ("bv", 0), ("wo", 0))),
        FFN_GROUP: ("weight_group_width", (("w1", 0),)),
        QKV_GROUP: ("weight_group_width", (("wq", 0), ("wk", 0), ("wv", 0))),
    }

    # Pinned: the matrices a Quantize on each kind covers.
    QUANTIZED = {ATTN_BLOCK: ("wq", "wk", "wv", "wo"), FFN_BLOCK: ("w1", "w2"),
                 FFN_GROUP: ("w1",), QKV_GROUP: ("wq", "wk", "wv")}

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_rows_give_the_built_shapes_in_named_order(self, cfg):
        model = build_model(cfg, 0)
        names = [n.split(".")[2] for n, _ in model.named_parameters() if n.startswith("layers.")]
        assert names == list(PARAM_TABLE) * cfg.num_layers
        for layer in model.layers:
            for name, (_, axes) in PARAM_TABLE.items():
                shape = tuple(getattr(cfg, length) for length, _ in axes)
                assert getattr(layer, name).data.shape == shape, name
        assert list(PARAM_TABLE) == list(self.ATTN + self.FFN)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_owned_params_match_the_pinned_list(self, cfg):
        layer = build_model(cfg, 0).layers[0]
        for kind in KIND_TABLE:
            el = TransElement(kind, 0)
            attr, owned = self.OWNED.get(kind, (None, ()))
            assert sorted(owned_params(el)) == sorted(owned), kind
            for name, axis in owned_params(el):
                if axis is not None:  # the slice width the scorer takes
                    length = getattr(layer, name).data.shape[axis]
                    assert length // KIND_TABLE[kind].per_layer(cfg) == getattr(cfg, attr)
        assert owned_params(TransElement(KV_GROUP, 0)) == []

    def test_w2_bands_round_up(self):
        assert len(ApproxPlan().resolve(make_config(ffn_dim=10))[0].quant_bits["w2"]) == 3

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_quantize_sets_the_pinned_bands(self, cfg):
        g = cfg.weight_group_width
        bands = {name: cfg.num_weight_groups for name in ("wq", "wk", "wv", "wo", "w1")}
        bands["w2"] = -(-cfg.ffn_dim // g)
        for kind, covered in self.QUANTIZED.items():
            el = TransElement(kind, 0, 0 if KIND_TABLE[kind].tier == 0 else 1)
            view = ApproxPlan().with_approx(el, Quantize(4)).resolve(cfg)[0]
            assert {m: len(bits) for m, bits in view.quant_bits.items()} == bands
            for name, bits in view.quant_bits.items():
                want = np.zeros(bands[name], dtype=np.int64)
                if name in covered:
                    want[slice(None) if el.granularity == 0 else 1] = 4
                np.testing.assert_array_equal(bits, want, err_msg=f"{kind} {name}")
