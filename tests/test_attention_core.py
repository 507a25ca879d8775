"""The attention core and sign-matched attention give the bits of the
plain formulations in ``reference``: forward, gradients and op counts, on
row lengths that take every branch of the row-max kernel (column loop up
to 16 keys, halving folds for even rows above that, a reduction otherwise)
and on queries that see no key. The attention sublayer's strided head views
give the bits of the copying head layout, without a copy between the
projections, the core and ``wo``, and the rewritten kernels write only into
buffers they allocated. A SignMatch whose k is at least its layer's live
key count runs that layer's plain attention, with its bits and no sign
work."""

import numpy as np
import pytest

import slimformer.model
from slimformer import (ApproxPlan, PlannedModel, SignMatch, TaskSpec, TransElement,
                        TransformerConfig, build_model, generate_task, make_rng, tensor,
                        train_epochs)
from slimformer.elements import HEAD, KV_GROUP, attn_block
from slimformer.signmatch import (OpCounter, causal_attention, causal_mask, causal_select,
                                  sign_distances, sign_match_attention)
from slimformer.tensor import (Tensor, full_attention, gelu, layer_norm, linear, mul,
                               softmax_rows, split_heads)

from reference import FoldedHeads, ref_masked_attention, ref_softmax, sum_all

KEY_COUNTS = (1, 5, 8, 15, 16, 17, 32)
BATCH, DH = 3, 4


def run_node(build, arrays, weight):
    """Output node and q/k/v gradients of sum(build(q, k, v) * weight)."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*inputs)
    sum_all(mul(out, weight)).backward()
    return out, [t.grad for t in inputs]


def backward_twice(node, g):
    """The gradients ``node`` hands its parents for the incoming gradient
    g. A second call must give the same and g must be left unchanged:
    Tensor.backward stores a first gradient as is, so g may be another
    node's .grad."""
    g_before = g.copy()
    first, second = node._grad_fn(g), node._grad_fn(g)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(g, g_before)
    return first


def assert_matches_reference(build, arrays, mask, rng):
    """build(q, k, v) under ``mask`` equals the reference bit for bit,
    through Tensor.backward and through the node's own backward run twice,
    and writes into none of its operands nor into the incoming gradient."""
    operands = arrays + ([mask] if mask is not None else [])
    before = [a.copy() for a in operands]
    weight = rng.normal(size=arrays[0].shape[:-1] + (arrays[2].shape[-1],))
    node, grads = run_node(build, arrays, weight)
    ref_out, *ref_grads = ref_masked_attention(*arrays, mask, weight)
    np.testing.assert_array_equal(node.data, ref_out)
    for got, direct, ref in zip(grads, backward_twice(node, weight), ref_grads):
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(direct, ref)
    for a, b in zip(operands, before):
        np.testing.assert_array_equal(a, b)


def draw_positions(rng, n_q, n_k, starved, lead=()):
    """Sorted distinct key positions in [0, n_q); with ``starved`` the
    earliest is at least 2, so the first queries see no key."""
    start = 2 if starved else 0
    pos = np.empty(lead + (n_k,), dtype=np.int64)
    for idx in np.ndindex(*lead):
        pick = rng.choice(np.arange(start + 1, n_q), n_k - 1, replace=False)
        pos[idx] = np.sort(np.concatenate([[start], pick]))
    return pos


def strided_heads(rng, lead, n, heads=3, dh=DH):
    """[*lead, heads, n, dh] head views of a random [*lead, n, heads*dh] array."""
    return split_heads(Tensor(rng.normal(size=lead + (n, heads * dh))), heads).data


@pytest.mark.parametrize("n_k", KEY_COUNTS)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_seq"])
@pytest.mark.parametrize("starved", [False, True], ids=["all_see", "starved"])
def test_causal_attention_matches_reference(rng, n_k, shared, starved):
    n_q = n_k + 4
    arrays = [rng.normal(size=(BATCH, n, DH)) for n in (n_q, n_k, n_k)]
    pos = draw_positions(rng, n_q, n_k, starved, () if shared else (BATCH,))
    mask = causal_mask(n_q, pos)
    counter = OpCounter()
    assert_matches_reference(lambda q, k, v: causal_attention(q, k, v, mask, counter),
                             arrays, mask, rng)
    assert_matches_reference(lambda q, k, v: full_attention(q, k, v, mask), arrays, mask, rng)
    starved_rows = np.broadcast_to(~mask.any(axis=-1), (BATCH, n_q))
    assert counter.starved_queries == int(starved_rows.sum()) == (2 * BATCH if starved else 0)


@pytest.mark.parametrize("n_k", KEY_COUNTS)
def test_sign_matched_causal_attention_matches_reference(rng, n_k):
    """Sign matching's per-sequence visibility of the selected keys, with
    the earliest key position at 2, so the first queries of every sequence
    see no key: the bits of the reference on the gathered keys, and its
    gradients scattered back to the keys' rows."""
    n_q, top_k = n_k + 4, max(1, n_k // 2)
    arrays = [rng.normal(size=(BATCH, n, DH)) for n in (n_q, n_k, n_k)]
    pos = draw_positions(rng, n_q, n_k, True)
    weight = rng.normal(size=(BATCH, n_q, DH))
    counter = OpCounter()
    node, (gq, gk, gv) = run_node(
        lambda q, k, v: sign_match_attention(q, k, v, top_k, True, pos, counter),
        arrays, weight)
    out = node.data
    q, k, v = arrays
    sel = np.sort(causal_select(sign_distances(q, k), n_k, top_k), axis=-1)
    rows = np.arange(BATCH)[:, None], sel
    mask = pos[sel][..., None, :] <= np.arange(n_q)[:, None]
    ref_out, ref_gq, ref_gk, ref_gv = ref_masked_attention(q, k[rows], v[rows], mask, weight)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(gq, ref_gq)
    for got, ref in ((gk, ref_gk), (gv, ref_gv)):
        np.testing.assert_array_equal(got[rows], ref)
        got[rows] = 0.0
        np.testing.assert_array_equal(got, 0.0)
    starved = (~mask.any(axis=-1)).sum()
    assert counter.starved_queries == starved >= 2 * BATCH
    np.testing.assert_array_equal(out[~mask.any(axis=-1)], 0.0)


@pytest.mark.filterwarnings("ignore:layer .* pruned key/value positions")
@pytest.mark.parametrize("seed", range(8))
def test_starved_count_equals_mask_scan_over_random_plans(monkeypatch, seed):
    """A planned causal forward counts as starved exactly the mask rows
    without a visible key, summed over every (sequence, head) of every
    layer, as a scan of each mask the attention core receives counts them:
    random key/value groups, heads and sign matching per layer, the first
    group pruned in some layers, so their first queries see no key."""
    import slimformer.signmatch as signmatch

    rng = np.random.default_rng(seed)
    config = TransformerConfig(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=8,
                               context_len=16, vocab_size=6, autoregressive=True,
                               task_kind="language_model", weight_group_width=4,
                               kv_group_width=2)
    plan = ApproxPlan()
    for layer in range(config.num_layers):
        groups = rng.permutation(config.context_len // 2)[:rng.integers(0, 7)]
        for g in groups:
            plan = plan.with_skip(TransElement(KV_GROUP, layer, int(g)))
        if rng.random() < 0.3:
            plan = plan.with_skip(TransElement(HEAD, layer, int(rng.integers(2))))
        if rng.random() < 0.6:
            plan = plan.with_approx(attn_block(layer), SignMatch(int(rng.integers(1, 17))))
    scanned = []
    attention = signmatch.full_attention

    def scanning(q, k, v, mask=None):
        scanned.append(int(np.broadcast_to(~mask.any(axis=-1), q.data.shape[:-1]).sum()))
        return attention(q, k, v, mask)

    monkeypatch.setattr(signmatch, "full_attention", scanning)
    planned = PlannedModel(build_model(config, seed), plan)
    counter = OpCounter()
    tokens = rng.integers(0, 6, size=(5, int(rng.integers(9, 17))))
    with tensor.no_grad():
        planned.forward(tokens, counter=counter)
    assert len(scanned) == sum(not v.attn_skipped and v.head_live.any() for v in planned.views)
    assert counter.starved_queries == sum(scanned)


@pytest.mark.parametrize("n_k", KEY_COUNTS)
def test_full_attention_matches_reference(rng, n_k):
    n_q = 6
    arrays = [rng.normal(size=(BATCH, n, DH)) for n in (n_q, n_k, n_k)]
    assert_matches_reference(full_attention, arrays, None, rng)
    # a random mask with every other query of the first sequence seeing no key
    mask = rng.random((BATCH, n_q, n_k)) >= 0.5
    mask[:, :, 0] = True
    mask[0, ::2] = False
    assert_matches_reference(lambda q, k, v: full_attention(q, k, v, mask), arrays, mask, rng)
    out = full_attention(*map(Tensor, arrays), mask).data
    np.testing.assert_array_equal(out[0, ::2], 0.0)
    # strided [B, h, n, dh] head views of [B, n, h*dh] projections, as
    # split_heads makes them, unmasked and under a mask shared by every head
    heads = [strided_heads(rng, (BATCH,), n) for n in (n_q, n_k, n_k)]
    assert_matches_reference(full_attention, heads, None, rng)
    assert_matches_reference(lambda q, k, v: full_attention(q, k, v, mask[0]),
                             heads, mask[0], rng)


@pytest.mark.parametrize("n_k", KEY_COUNTS)
def test_softmax_rows_matches_reference_and_keeps_input(rng, n_k):
    x = rng.normal(scale=5.0, size=(BATCH, 6, n_k))
    before = x.copy()
    a = Tensor(x)
    np.testing.assert_array_equal(softmax_rows(a).data, ref_softmax(before))
    np.testing.assert_array_equal(a.data, before)


def head_model(causal: bool, live: int, variant: str):
    """A one-layer, four-head model (head width 4, context 12) and a plan
    that keeps ``live`` heads, prunes key/value group 1 (``kvprune``) or
    sign-matches 5 keys (``signmatch``)."""
    cfg = TransformerConfig(num_layers=1, hidden_dim=16, num_heads=4, ffn_dim=8,
                            context_len=12, vocab_size=6, autoregressive=causal,
                            task_kind="language_model" if causal else "classification",
                            weight_group_width=4, kv_group_width=4)
    plan = ApproxPlan()
    for head in range(cfg.num_heads - live):
        plan = plan.with_skip(TransElement(HEAD, 0, head))
    if variant == "kvprune":
        plan = plan.with_skip(TransElement(KV_GROUP, 0, 1))
    elif variant == "signmatch":
        plan = plan.with_approx(attn_block(0), SignMatch(5))
    return PlannedModel(build_model(cfg, 3), plan)


def sublayer_bits(planned, x, weight):
    """Output, input gradient and every parameter gradient of
    sum(attention_sublayer(0, x) * weight)."""
    params = planned.parameters()
    for p in params:
        p.grad = None
    xt = Tensor(x, requires_grad=True)
    out = planned.attention_sublayer(0, xt)
    sum_all(mul(out, weight)).backward()
    return [out.data, xt.grad] + [p.grad for p in params]


@pytest.mark.parametrize("shape", [(3, 12, 16), (2, 9, 16), (12, 16)],
                         ids=["batched", "short", "rank2"])
@pytest.mark.parametrize("variant", ["dense", "kvprune", "signmatch"])
@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
@pytest.mark.parametrize("live", [1, 3, 4])
def test_head_views_match_folded_copies(monkeypatch, rng, shape, variant, causal, live):
    planned = head_model(causal, live, variant)
    x, weight = rng.normal(size=shape), rng.normal(size=shape)
    views = {"split": [], "merge": []}

    def recording(name, op):
        def record(a, *args):
            out = op(a, *args)
            views[name].append((a, out))
            return out
        return record

    monkeypatch.setattr(slimformer.model, "split_heads", recording("split", tensor.split_heads))
    monkeypatch.setattr(slimformer.model, "merge_heads", recording("merge", tensor.merge_heads))
    got = sublayer_bits(planned, x, weight)
    folded = FoldedHeads()
    monkeypatch.setattr(slimformer.model, "split_heads", folded.split)
    monkeypatch.setattr(slimformer.model, "merge_heads", folded.merge)
    expected = sublayer_bits(planned, x, weight)

    assert got[1] is not None and sum(g is not None for g in got[2:]) == 10
    for a, b in zip(got, expected):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
    # no copy between the projections, the core and wo, in either direction
    assert len(views["split"]) == 3 and len(views["merge"]) == 1
    for projection, heads in views["split"]:
        assert heads.data.shape[-3] == live and heads.data.shape[-1] == 4
        assert np.shares_memory(heads.data, projection.data)
        assert np.shares_memory(projection.grad, heads.grad)
    core_out, merged = views["merge"][0]
    assert np.shares_memory(merged.data, core_out.data)


KERNELS = {
    "layer_norm": lambda rng: (layer_norm, [rng.normal(size=(3, 5, 8)), rng.normal(size=8),
                                            rng.normal(size=8)]),
    "gelu": lambda rng: (gelu, [rng.normal(size=(3, 5, 8))]),
    "linear": lambda rng: (linear, [rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6)),
                                    rng.normal(size=6)]),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_write_only_their_own_buffers(rng, kernel):
    """Forward and backward leave the operands, the output and the incoming
    gradient unchanged (the attention core is checked by
    assert_matches_reference)."""
    build, arrays = KERNELS[kernel](rng)
    before = [a.copy() for a in arrays]
    out = build(*(Tensor(a, requires_grad=True) for a in arrays))
    out_before = out.data.copy()
    assert len(backward_twice(out, rng.normal(size=out.data.shape))) == len(arrays)
    for a, b in zip(arrays + [out.data], before + [out_before]):
        np.testing.assert_array_equal(a, b)


# Sign matching that keeps at least every live key ("vacuous") runs as the
# layer's plain attention: a copy-task causal model (context 9, three
# key/value groups) and a classifier (context 8, four groups).
VACUOUS_SHAPES = {
    "copy": (TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=8,
                               context_len=9, vocab_size=5, autoregressive=True,
                               task_kind="copy", weight_group_width=4, kv_group_width=3),
             TaskSpec("copy", vocab_size=5, context_len=9, train_size=40, seed=3)),
    "classification": (TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=8,
                                         context_len=8, vocab_size=5, weight_group_width=4,
                                         kv_group_width=2),
                       TaskSpec("majority_classification", vocab_size=5, context_len=8,
                                train_size=40, seed=3)),
}


def vacuous_plans(cfg, gen):
    """A random plan (pruned heads and key/value groups, one SignMatch per
    layer) and the same plan without its vacuous SignMatch entries. Layer
    0's k is at least its live key count, layer 1's anywhere in 1..n."""
    base = ApproxPlan()
    for layer in range(cfg.num_layers):
        if gen.random() < 0.4:
            base = base.with_skip(TransElement(HEAD, layer, int(gen.integers(cfg.num_heads))))
        for g in gen.permutation(cfg.num_kv_groups)[:gen.integers(0, cfg.num_kv_groups)]:
            base = base.with_skip(TransElement(KV_GROUP, layer, int(g)))
    full, stripped, vacuous = base, base, 0
    for layer, view in enumerate(base.resolve(cfg, warn=False)):
        live = int(view.kv_live.sum())
        k = int(gen.integers(live if layer == 0 else 1, cfg.context_len + 1))
        full = full.with_approx(attn_block(layer), SignMatch(k))
        if k < live:
            stripped = stripped.with_approx(attn_block(layer), SignMatch(k))
        vacuous += k >= live
    assert vacuous >= 1
    return full, stripped


def assert_same_bits(got, expected):
    """Two lists of arrays (None where no gradient reached) hold the same bits."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def step_bits(cfg, plan, data):
    """Logits, loss and every parameter gradient of one forward and
    backward on ``data``, then the weights after one epoch under ``plan``."""
    model = build_model(cfg, 5)
    planned = PlannedModel(model, plan)
    logits, loss = planned.forward(data.tokens, data.labels)
    loss.backward()
    bits = [logits.data, loss.data] + [t.grad for _, t in model.named_parameters()]
    train_epochs(model, plan, data, 1, make_rng(0), batch_size=16)
    return bits + [t.data for _, t in model.named_parameters()]


@pytest.mark.filterwarnings("ignore:layer .* pruned key/value positions")
@pytest.mark.parametrize("shape", sorted(VACUOUS_SHAPES))
@pytest.mark.parametrize("seed", range(6))
def test_vacuous_signmatch_changes_no_bit(shape, seed):
    """Logits, loss, gradients and trained weights are those of the plan
    without the vacuous entries."""
    cfg, spec = VACUOUS_SHAPES[shape]
    full, stripped = vacuous_plans(cfg, np.random.default_rng(seed))
    data = generate_task(spec).train
    assert_same_bits(step_bits(cfg, full, data), step_bits(cfg, stripped, data))


def counting_selection(monkeypatch):
    """Calls of sign_distances and select_keys, counted by name."""
    import slimformer.signmatch as signmatch
    calls = {"sign_distances": 0, "select_keys": 0}

    def wrap(name):
        op = getattr(signmatch, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(signmatch, name, wrap(name))
    return calls


def kvpruned_signmatch(k, pruned_groups=(1,)):
    """The copy shape's model with key/value groups pruned in layer 0 (6
    live keys) and SignMatch(k) on its attention block."""
    cfg = VACUOUS_SHAPES["copy"][0]
    plan = ApproxPlan(TransElement(KV_GROUP, 0, g) for g in pruned_groups)
    return PlannedModel(build_model(cfg, 5), plan.with_approx(attn_block(0), SignMatch(k)))


@pytest.mark.parametrize("k, scores", [(5, True), (6, False), (9, False)])
def test_only_selecting_layers_score_and_select(monkeypatch, k, scores):
    """A layer with k below its 6 live keys scores and selects; one with
    k at or above them does neither."""
    calls = counting_selection(monkeypatch)
    planned = kvpruned_signmatch(k)
    planned.forward(generate_task(VACUOUS_SHAPES["copy"][1]).train.tokens[:4])
    assert calls == {"sign_distances": int(scores), "select_keys": int(scores)}


@pytest.mark.filterwarnings("ignore:layer .* pruned key/value positions")
def test_vacuous_plan_counts_no_sign_work():
    """With key/value group 0 pruned, the first queries see no key: the
    plan whose sign-matched layers are all vacuous counts no sign work and
    the starved queries of the plan without the entries."""
    tokens = generate_task(VACUOUS_SHAPES["copy"][1]).train.tokens[:4]
    matched = kvpruned_signmatch(6, (0,))
    counts = []
    for plan in (matched.plan, ApproxPlan([TransElement(KV_GROUP, 0, 0)])):
        counts.append(OpCounter())
        PlannedModel(matched.model, plan).forward(tokens, counter=counts[-1])
    assert counts[0] == counts[1]
    assert counts[0].total == 0 and counts[0].starved_queries == 4 * 2 * 3


def test_short_standalone_call_takes_the_plain_path(monkeypatch, rng):
    """A standalone sublayer call on a sequence whose live keys drop to k
    or fewer runs plain attention, with its bits; one longer keeps
    scoring."""
    calls = counting_selection(monkeypatch)
    cfg = VACUOUS_SHAPES["copy"][0]
    model = build_model(cfg, 5)
    matched = PlannedModel(model, ApproxPlan().with_approx(attn_block(0), SignMatch(5)))
    plain = PlannedModel(model)
    for n, scores in ((4, 0), (5, 0), (6, 1)):
        x, weight = rng.normal(size=(2, n, cfg.hidden_dim)), rng.normal(size=(2, n, 8))
        got = sublayer_bits(matched, x, weight)
        assert calls["sign_distances"] == calls["select_keys"] == scores
        if not scores:
            assert_same_bits(got, sublayer_bits(plain, x, weight))
