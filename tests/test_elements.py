"""Element taxonomy, queue ordering heuristics, encompass filtering."""

import json

import numpy as np
import pytest

from slimformer import (ConfigError, ElementQueue, Focus,
                        TransElement, TransformerConfig, encompass_filter,
                        enumerate_elements, order_queue)
from slimformer.elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD,
                                 KV_GROUP, QKV_GROUP)


def make_config(**kw):
    base = dict(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                context_len=16, vocab_size=6, weight_group_width=4,
                kv_group_width=4, task_kind="classification")
    base.update(kw)
    return TransformerConfig(**base)


class TestEnumerate:
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
