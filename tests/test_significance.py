"""Greedy significance analysis: decision bars, candidate evaluation, the
skip/approximate/keep loop, contiguous shrinking, comparison scorers, and
the final fine-tune."""

import numpy as np
import pytest

from slimformer import (ApproxPlan, ConfigError, ElementQueue, Focus,
                        GreedyAnalyzer, GroupShrink, InfeasibleError,
                        PlannedModel, Quantize, SignMatch, TaskSpec,
                        TransElement, TransformerConfig, build_model,
                        evaluate_candidate, final_finetune, generate_task,
                        oracle_significance, order_queue, taylor_significance)
from slimformer.elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD,
                                 QKV_GROUP, attn_block, enumerate_elements,
                                 ffn_block)
from slimformer.significance import TAYLOR_BATCH, taylor_signed_scores
from slimformer.tasks import TaskData
from slimformer.tensor import spawn_rng
from slimformer.training import evaluate_loss, train_epochs

SPEED = Focus.SPEED
SIZE = Focus.SIZE
ACCURACY = Focus.ACCURACY


def kill_attn(model, layer):
    """Zero the output projection so the block contributes exactly nothing."""
    model.layers[layer].wo.data[:] = 0.0
    model.layers[layer].bo.data[:] = 0.0


def kill_ffn(model, layer):
    model.layers[layer].w2.data[:] = 0.0
    model.layers[layer].b2.data[:] = 0.0


def view_state(view):
    """A resolved LayerView as plain, comparable values."""
    return {name: (value.tolist() if isinstance(value, np.ndarray)
                   else {m: bits.tolist() for m, bits in value.items()}
                   if isinstance(value, dict) else value)
            for name, value in vars(view).items()}


@pytest.fixture
def trained(tiny_config, majority_data):
    model = build_model(tiny_config, 13)
    train_epochs(model, None, majority_data.train, 6, spawn_rng(13, 0), lr=0.01)
    return model


class TestComputeThresholds:
    """The analyzer computes its four decision bars from the baseline
    (train, val) losses and the eps pair."""

    def bars(self, trained, data, baseline, focus, **eps):
        return GreedyAnalyzer(trained, data, baseline, focus, 0, **eps)._thresholds_doc()

    def test_formula_instantiation(self, trained, majority_data):
        bars = self.bars(trained, majority_data, (1.0, 0.7), SPEED, eps_skip=0.005)
        assert bars == {"train": {"skip": 1.0 * (1.0 + 0.005), "approx": 1.0 * (1.0 + 0.01)},
                        "val": {"skip": 0.7 * (1.0 + 0.005), "approx": 0.7 * (1.0 + 0.01)}}
        bars = self.bars(trained, majority_data, (1.0, 0.7), SIZE, eps_skip=0.1,
                         eps_approx=0.5)
        assert bars["val"] == {"skip": 0.7 * (1.0 + 0.1), "approx": 0.7 * (1.0 + 0.5)}

    def test_accuracy_focus_starts_at_baseline(self, trained, majority_data):
        bars = self.bars(trained, majority_data, (0.8, 0.9), ACCURACY, eps_skip=0.3)
        assert bars == {"train": {"skip": 0.8, "approx": 0.8},
                        "val": {"skip": 0.9, "approx": 0.9}}

    def test_zero_degradation_collapses_band(self, trained, majority_data):
        bars = self.bars(trained, majority_data, (2.0, 3.0), SIZE, eps_skip=0.0)
        assert bars == {"train": {"skip": 2.0, "approx": 2.0},
                        "val": {"skip": 3.0, "approx": 3.0}}

    def test_nonpositive_baseline_rejected(self, trained, majority_data):
        for focus in (SPEED, ACCURACY):
            for baseline in ((0.0, 1.0), (1.0, float("nan")), (1.0, -1.0)):
                with pytest.raises(ConfigError, match="baseline loss"):
                    self.bars(trained, majority_data, baseline, focus)

    def test_eps_ordering_enforced(self, trained, majority_data):
        for eps in (dict(eps_skip=0.2, eps_approx=0.1), dict(eps_skip=-0.1),
                    dict(eps_skip=float("nan"))):
            with pytest.raises(ConfigError, match="eps_skip <= eps_approx"):
                self.bars(trained, majority_data, (1.0, 1.0), SPEED, **eps)

    def test_accuracy_focus_leaves_arguments_unchanged(self, tiny_config, majority_data):
        """Accepted skips lower the analyzer's own bars, never the baseline
        losses, model or data it was given."""
        model = build_model(tiny_config, 13)  # untrained: tuning beats the baseline
        baseline = [evaluate_loss(model, None, majority_data.train),
                    evaluate_loss(model, None, majority_data.val)]
        given = (list(baseline), [p.data.copy() for _, p in model.named_parameters()],
                 majority_data.train.tokens.copy(), majority_data.val.labels.copy())
        analyzer = GreedyAnalyzer(model, majority_data, baseline, ACCURACY, seed=5,
                                  eps_skip=0.3, epochs_per_candidate=1, lr=0.01)
        analyzer.run(order_queue(enumerate_elements(tiny_config), ACCURACY, tiny_config))
        assert sum(r["decision"] == "skip" for r in analyzer.records) >= 2
        assert analyzer._thresholds_doc()["val"]["skip"] < baseline[1]  # bars lowered
        assert baseline == given[0]
        for (_, p), before in zip(model.named_parameters(), given[1]):
            np.testing.assert_array_equal(p.data, before)
        np.testing.assert_array_equal(majority_data.train.tokens, given[2])
        np.testing.assert_array_equal(majority_data.val.labels, given[3])


class TestEvaluateCandidate:
    def test_noop_delta_is_continued_training(self, trained, majority_data):
        tl, vl, tuned = evaluate_candidate(trained, ApproxPlan(), majority_data,
                                           1, spawn_rng(0, 5), lr=0.01)
        twin = trained.clone()
        means = train_epochs(twin, None, majority_data.train, 1, spawn_rng(0, 5), lr=0.01)
        assert tl == means[-1]
        assert vl == evaluate_loss(twin, None, majority_data.val)
        # original untouched
        assert trained.layers[0].wq.data.tobytes() != tuned.layers[0].wq.data.tobytes()

    def test_dead_block_delta_is_loss_neutral(self, tiny_config, majority_data):
        model = build_model(tiny_config, 5)
        kill_attn(model, 1)
        train_epochs(model, None, majority_data.train, 4, spawn_rng(5, 0), lr=0.005)
        kill_attn(model, 1)  # re-kill in case training moved the weights
        plan = ApproxPlan().with_skip(attn_block(1))
        tl0, vl0, _ = evaluate_candidate(model, ApproxPlan(), majority_data, 1,
                                         spawn_rng(5, 1), lr=1e-3)
        tl1, vl1, _ = evaluate_candidate(model, plan, majority_data, 1,
                                         spawn_rng(5, 1), lr=1e-3)
        assert abs(tl1 - tl0) < 0.05 * max(tl0, 0.1)
        assert abs(vl1 - vl0) < 0.05 * max(vl0, 0.1)

    def test_same_seed_identical(self, trained, majority_data):
        a = evaluate_candidate(trained, ApproxPlan(), majority_data, 1, spawn_rng(9, 9))
        b = evaluate_candidate(trained, ApproxPlan(), majority_data, 1, spawn_rng(9, 9))
        assert a[0] == b[0] and a[1] == b[1]

    def test_epochs_zero_is_pure_evaluation(self, trained, majority_data):
        tl, vl, _ = evaluate_candidate(trained, ApproxPlan(), majority_data, 0,
                                       spawn_rng(0, 0))
        assert tl == evaluate_loss(trained, None, majority_data.train)
        assert vl == evaluate_loss(trained, None, majority_data.val)

    def test_empty_split_rejected(self, trained, majority_data):
        from slimformer.tasks import Dataset
        empty = TaskData(majority_data.spec, majority_data.train,
                         Dataset(np.zeros((0, 8), dtype=np.int64),
                                 np.zeros(0, dtype=np.int64)))
        with pytest.raises(ConfigError, match="empty dataset"):
            evaluate_candidate(trained, ApproxPlan(), empty, 1, spawn_rng(0, 0))


class TestGreedyLoop:
    def test_dead_block_lands_in_skiplist(self, trained, majority_data):
        work = trained.clone()
        kill_attn(work, 0)
        tl = evaluate_loss(work, None, majority_data.train)
        vl = evaluate_loss(work, None, majority_data.val)
        analyzer = GreedyAnalyzer(work, majority_data, (tl, vl), SPEED, seed=1,
                                  epochs_per_candidate=0)
        plan = analyzer.run(ElementQueue([attn_block(0)]))
        assert attn_block(0) in plan.skiplist
        assert analyzer.records[0]["decision"] == "skip"

    def test_band_element_lands_in_approxlist(self, trained, majority_data):
        """Skip bar pinned at baseline with a huge approximation band: a
        harmful block is reverted and approximated."""
        tl = evaluate_loss(trained, None, majority_data.train)
        vl = evaluate_loss(trained, None, majority_data.val)
        analyzer = GreedyAnalyzer(trained, majority_data, (tl, vl), SPEED, seed=2,
                                  eps_approx=1e6, epochs_per_candidate=0)
        plan = analyzer.run(ElementQueue([attn_block(0)]))
        assert attn_block(0) not in plan.skiplist
        assert any(isinstance(p, SignMatch) for p in plan.entries(attn_block(0)))
        assert analyzer.records[0]["decision"] == "approximate"

    def test_high_importance_block_keeps_and_filters(self, trained, tiny_config,
                                                     majority_data):
        tl = evaluate_loss(trained, None, majority_data.train)
        vl = evaluate_loss(trained, None, majority_data.val)
        # bars at half the baseline with a zero-width band: whatever fails
        # the skip rule is high importance
        queue = order_queue(enumerate_elements(tiny_config), SPEED, tiny_config)
        analyzer = GreedyAnalyzer(trained, majority_data, (tl * 0.5, vl * 0.5), SPEED,
                                  seed=3, epochs_per_candidate=0)
        plan = analyzer.run(queue)
        assert plan == ApproxPlan()
        reasons = {r for _, r in queue.removal_log}
        assert reasons == {"encompassed"}
        # children of kept blocks never got decided
        decided = {r["element"] for r in analyzer.records}
        assert all(el.startswith(("attn_block", "ffn_block")) for el in decided)

    def test_skipped_block_children_never_reappear(self, tiny_config, majority_data):
        model = build_model(tiny_config, 19)
        for layer in range(2):
            kill_attn(model, layer)
            kill_ffn(model, layer)
        tl = evaluate_loss(model, None, majority_data.train)
        vl = evaluate_loss(model, None, majority_data.val)
        queue = order_queue(enumerate_elements(tiny_config), SPEED, tiny_config)
        analyzer = GreedyAnalyzer(model, majority_data, (tl, vl), SPEED, seed=4,
                                  epochs_per_candidate=0)
        plan = analyzer.run(queue)
        assert {e for e in plan.skiplist} == set(
            el for el in enumerate_elements(tiny_config) if el.granularity == 0)
        decided = {r["element"] for r in analyzer.records}
        assert all(key.split(":")[0] in (ATTN_BLOCK, FFN_BLOCK) for key in decided)
        assert {r for _, r in queue.removal_log} == {"parent_pruned"}

    def test_accuracy_focus_requires_strict_improvement(self, trained, majority_data):
        tl = evaluate_loss(trained, None, majority_data.train)
        vl = evaluate_loss(trained, None, majority_data.val)
        work = trained.clone()
        kill_attn(work, 0)  # dead block: removal is exactly neutral, not better
        analyzer = GreedyAnalyzer(work, majority_data, (tl, vl), ACCURACY, seed=5,
                                  epochs_per_candidate=0)
        plan = analyzer.run(ElementQueue([attn_block(0)]))
        assert plan == ApproxPlan()  # equal loss does not beat the running minimum

    def test_plan_growth_is_monotone_and_logged(self, tiny_config, majority_data):
        model = build_model(tiny_config, 23)
        train_epochs(model, None, majority_data.train, 4, spawn_rng(23, 0), lr=0.01)
        tl = evaluate_loss(model, None, majority_data.train)
        vl = evaluate_loss(model, None, majority_data.val)
        queue = order_queue(enumerate_elements(tiny_config), SPEED, tiny_config)
        analyzer = GreedyAnalyzer(model, majority_data, (tl, vl), SPEED, seed=6,
                                  eps_skip=0.5, eps_approx=0.5, epochs_per_candidate=1,
                                  lr=0.005)
        plan = analyzer.run(queue)
        accepted = {r["element"] for r in analyzer.records if r["decision"] == "skip"}
        assert {e.key for e in plan.skiplist} == accepted
        elements_seen = [r["element"] for r in analyzer.records]
        assert len(elements_seen) == len(set(elements_seen))

    @pytest.mark.parametrize("k", [0, 9])
    def test_sign_match_k_outside_context_rejected(self, trained, majority_data, k):
        with pytest.raises(ConfigError, match="sign_match_k"):
            GreedyAnalyzer(trained, majority_data, (1.0, 1.0), SPEED, 0, sign_match_k=k)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_group_quantize_not_repeated_under_quantized_block(self, trained,
                                                              majority_data, bits):
        """Size focus with every trial in the band: the blocks of layer 0
        carry Quantize(bits) and their groups' in-band records write nothing
        more; a group whose block was not quantized gets its own entry."""
        tl = evaluate_loss(trained, None, majority_data.train)
        vl = evaluate_loss(trained, None, majority_data.val)
        analyzer = GreedyAnalyzer(trained, majority_data, (tl * 0.5, vl * 0.5), SIZE,
                                  seed=9, eps_approx=2e6, epochs_per_candidate=0,
                                  quant_bits=bits)
        queue = ElementQueue([attn_block(0), ffn_block(0), TransElement(QKV_GROUP, 0, 1),
                              TransElement(FFN_GROUP, 0, 0), TransElement(FFN_GROUP, 1, 0)])
        plan = analyzer.run(queue)
        assert [r["decision"] for r in analyzer.records] == ["approximate"] * 5
        assert all(r["approx"] == {"variant": "quantize", "params": {"bits": bits}}
                   for r in analyzer.records)
        assert plan.approxlist == {attn_block(0): (Quantize(bits),),
                                   ffn_block(0): (Quantize(bits),),
                                   TransElement(FFN_GROUP, 1, 0): (Quantize(bits),)}

    def test_determinism(self, trained, tiny_config, majority_data):
        def run():
            tl = evaluate_loss(trained, None, majority_data.train)
            vl = evaluate_loss(trained, None, majority_data.val)
            queue = order_queue(enumerate_elements(tiny_config), SPEED, tiny_config)
            analyzer = GreedyAnalyzer(trained, majority_data, (tl, vl), SPEED, seed=7,
                                      eps_skip=0.3, eps_approx=0.3,
                                      epochs_per_candidate=1)
            analyzer.run(queue)
            return analyzer.plan.to_json(), analyzer.records

        (plan_a, rec_a), (plan_b, rec_b) = run(), run()
        assert plan_a == plan_b and rec_a == rec_b


class TestShrink:
    def make_data(self):
        return generate_task(TaskSpec("majority_classification", vocab_size=4,
                                      context_len=8, train_size=80, seed=31))

    def make_config(self):
        return TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2,
                                 ffn_dim=16, context_len=8, vocab_size=5,
                                 task_kind="classification", num_classes=4,
                                 weight_group_width=2, kv_group_width=4)

    def test_fully_redundant_block_shrinks_to_empty(self):
        data, cfg = self.make_data(), self.make_config()
        model = build_model(cfg, 37)
        kill_ffn(model, 0)
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        lo, hi = GreedyAnalyzer(model, data, (tl, vl), SPEED, 0,
                                epochs_per_candidate=0).shrink(ffn_block(0))
        assert lo == hi  # empty kept interval

    def test_only_group_zero_essential(self):
        data, cfg = self.make_data(), self.make_config()
        model = build_model(cfg, 41)
        dead = ApproxPlan()
        for g in range(1, cfg.num_weight_groups):
            dead = dead.with_skip(TransElement(FFN_GROUP, 0, g))
        train_epochs(model, dead, data.train, 8, spawn_rng(41, 0), lr=0.01)
        model.layers[0].w1.data[cfg.weight_group_width:] = 0.0  # make pruning physical
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        lo, hi = GreedyAnalyzer(model, data, (tl, vl), SPEED, 0,
                                epochs_per_candidate=0).shrink(ffn_block(0))
        assert (lo, hi) == (0, 1)

    def test_matches_two_phase_interval_oracle(self):
        """Replay the two-phase scan with independent loss evaluations and
        compare kept intervals; the greedy interval must be feasible."""
        data, cfg = self.make_data(), self.make_config()
        model = build_model(cfg, 43)
        train_epochs(model, None, data.train, 5, spawn_rng(43, 0), lr=0.01)
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        eps = 0.05
        lo, hi = GreedyAnalyzer(model, data, (tl, vl), SPEED, 0, eps_skip=eps,
                                epochs_per_candidate=0).shrink(ffn_block(0))
        G = cfg.num_weight_groups

        def feasible(pruned):
            plan = ApproxPlan()
            for g in pruned:
                plan = plan.with_skip(TransElement(FFN_GROUP, 0, g))
            return (evaluate_loss(model, plan, data.train) <= tl * (1 + eps)
                    and evaluate_loss(model, plan, data.val) <= vl * (1 + eps))

        pruned, lo_ref = [], 0
        for g in range(G):
            if not feasible(pruned + [g]):
                break
            pruned.append(g)
            lo_ref += 1
        hi_ref = G
        for g in range(G - 1, lo_ref - 1, -1):
            if not feasible(pruned + [g]):
                break
            pruned.append(g)
            hi_ref -= 1
        assert (lo, hi) == (lo_ref, hi_ref)
        assert feasible([g for g in range(G) if not lo <= g < hi])

    def test_requires_speed_focus(self, trained, majority_data):
        with pytest.raises(ConfigError, match="speed focus"):
            GreedyAnalyzer(trained, majority_data, (1.0, 1.0), SIZE, 0).shrink(ffn_block(0))

    def test_full_band_scan_writes_no_entry(self):
        data, cfg = self.make_data(), self.make_config()
        model = build_model(cfg, 47)
        kill_ffn(model, 0)
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        # FFN block harmful to skip is impossible here (it is dead), so force
        # the band by pinning skip below any reachable loss
        queue = order_queue(enumerate_elements(cfg), SPEED, cfg)
        analyzer = GreedyAnalyzer(model, data, (tl * 0.5, vl * 0.5), SPEED, seed=8,
                                  eps_approx=3.0, epochs_per_candidate=0)
        plan = analyzer.run(queue)
        last = cfg.num_weight_groups - 1
        trials = {(r["element"], r["tentative_action"], r["decision"])
                  for r in analyzer.records}
        assert ("ffn_weight_group:0:0", "shrink_prune_bottom", "keep") in trials
        assert (f"ffn_weight_group:0:{last}", "shrink_prune_top", "keep") in trials
        assert not any(isinstance(p, GroupShrink) for p in plan.entries(ffn_block(0)))
        assert not any(e.kind == FFN_GROUP for e in plan.skiplist)

    def test_narrowed_band_resolves_like_its_skips(self):
        """The one GroupShrink a narrowed scan writes executes the same
        model as the group skips its records accepted."""
        data, cfg = self.make_data(), self.make_config()
        model = build_model(cfg, 41)
        model.layers[0].w1.data[cfg.weight_group_width:] = 0.0  # only group 0 matters
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        analyzer = GreedyAnalyzer(model, data, (tl, vl), SPEED, 0, epochs_per_candidate=0)
        assert analyzer.shrink(ffn_block(0)) == (0, 1)
        assert analyzer.plan == ApproxPlan().with_approx(ffn_block(0), GroupShrink(0, 1))
        skips = ApproxPlan(TransElement.from_key(r["element"])
                           for r in analyzer.records if r["decision"] == "skip")
        assert len(skips.skiplist) == cfg.num_weight_groups - 1
        assert ([view_state(v) for v in analyzer.plan.resolve(cfg)]
                == [view_state(v) for v in skips.resolve(cfg)])

    def test_scan_of_skipped_block_leaves_plan_unchanged(self):
        data, cfg = self.make_data(), self.make_config()
        model = build_model(cfg, 53)
        kill_ffn(model, 0)
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        analyzer = GreedyAnalyzer(model, data, (tl, vl), SPEED, 0, epochs_per_candidate=0,
                                  encompass_enabled=False)
        groups = [TransElement(FFN_GROUP, 0, g) for g in range(cfg.num_weight_groups)]
        plan = analyzer.run(ElementQueue([ffn_block(0)] + groups))
        assert plan == ApproxPlan([ffn_block(0)])
        assert [r["decision"] for r in analyzer.records] == ["skip"] * (1 + len(groups))


class TestTaylor:
    def test_zero_weight_element_scores_zero(self, trained, majority_data, tiny_config):
        work = trained.clone()
        work.layers[0].w1.data[0:tiny_config.weight_group_width] = 0.0
        scores = taylor_significance(work, majority_data)
        assert scores[TransElement(FFN_GROUP, 0, 0)] == 0.0

    def test_dead_block_scores_zero_and_ranks_last(self, trained, majority_data):
        work = trained.clone()
        kill_attn(work, 1)
        scores = taylor_significance(work, majority_data)
        assert scores[attn_block(1)] == 0.0
        assert scores[attn_block(1)] <= min(scores.values())

    # (block, the kind partitioning part of it, how many parts, the block's
    # parameters no part owns)
    @pytest.mark.parametrize("block, part, count, rest", [
        pytest.param(FFN_BLOCK, FFN_GROUP, "num_weight_groups",
                     ("b1", "w2", "b2"), id="ffn_groups"),
        pytest.param(ATTN_BLOCK, HEAD, "num_heads", ("ln1_g", "ln1_b", "bo"), id="heads"),
        pytest.param(ATTN_BLOCK, QKV_GROUP, "num_weight_groups",
                     ("bq", "bk", "bv", "wo", "bo"), id="qkv_groups")])
    def test_signed_scores_additive_over_partition(self, trained, majority_data,
                                                   tiny_config, block, part, count, rest):
        signed = taylor_signed_scores(trained, majority_data)
        parts = sum(signed[TransElement(part, 0, i)]
                    for i in range(getattr(tiny_config, count)))
        work = trained.clone()
        tokens = majority_data.train.tokens[:TAYLOR_BATCH]
        labels = majority_data.train.labels[:TAYLOR_BATCH]
        _, loss = PlannedModel(work).forward(tokens, labels)
        loss.backward()
        p = work.layers[0]
        remainder = sum(float((getattr(p, n).data * getattr(p, n).grad).sum()) for n in rest)
        assert signed[TransElement(block, 0)] == pytest.approx(parts + remainder, rel=1e-9)


class TestOracle:
    def test_dead_block_loss_equals_baseline_exactly(self, trained, majority_data):
        work = trained.clone()
        kill_ffn(work, 1)
        baseline = evaluate_loss(work, None, majority_data.train)
        scores = oracle_significance(work, majority_data, [ffn_block(1)])
        assert scores[ffn_block(1)] == baseline

    def test_required_head_strictly_hurts(self):
        spec = TaskSpec("copy", vocab_size=5, context_len=9, train_size=96, seed=51)
        data = generate_task(spec)
        cfg = TransformerConfig(num_layers=1, hidden_dim=16, num_heads=1,
                                ffn_dim=16, context_len=9, vocab_size=6,
                                autoregressive=True, task_kind="copy",
                                weight_group_width=4, kv_group_width=3)
        model = build_model(cfg, 53)
        train_epochs(model, None, data.train, 20, spawn_rng(53, 0), lr=0.01)
        baseline = evaluate_loss(model, None, data.train)
        assert baseline < 0.2  # the task is learned, attention is doing work
        scores = oracle_significance(model, data, [TransElement(HEAD, 0, 0)])
        assert scores[TransElement(HEAD, 0, 0)] > baseline

    def test_map_covers_elements_exactly(self, trained, majority_data, tiny_config):
        els = enumerate_elements(tiny_config)[:6]
        scores = oracle_significance(trained, majority_data, els)
        assert set(scores) == set(els)

    def test_element_guard(self, trained, majority_data, tiny_config):
        els = enumerate_elements(tiny_config)
        with pytest.raises(InfeasibleError, match="guard"):
            oracle_significance(trained, majority_data, els, max_elements=3)


class TestFinalFinetune:
    def test_zero_epochs_unchanged(self, trained, majority_data):
        tuned = final_finetune(trained, ApproxPlan(), majority_data, 0)
        for (_, a), (_, b) in zip(trained.named_parameters(), tuned.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_pruned_group_never_updates(self, trained, majority_data, tiny_config):
        plan = ApproxPlan().with_skip(TransElement(FFN_GROUP, 0, 1))
        w = tiny_config.weight_group_width
        before = trained.layers[0].w1.data[w:2 * w].copy()
        tuned = final_finetune(trained, plan, majority_data, 3, seed=3, lr=0.01)
        np.testing.assert_array_equal(tuned.layers[0].w1.data[w:2 * w], before)
        assert not np.array_equal(tuned.layers[0].w1.data[:w],
                                  trained.layers[0].w1.data[:w])

    def test_train_loss_never_worse_than_freeze(self, trained, majority_data):
        plan = ApproxPlan().with_skip(attn_block(1))
        before = evaluate_loss(trained, plan, majority_data.train)
        tuned = final_finetune(trained, plan, majority_data, 4, seed=5, lr=0.01)
        after = evaluate_loss(tuned, plan, majority_data.train)
        assert after <= before + 1e-6

    def test_skipped_block_params_untouched(self, trained, majority_data):
        plan = ApproxPlan().with_skip(attn_block(0))
        tuned = final_finetune(trained, plan, majority_data, 2, seed=7, lr=0.01)
        assert (tuned.layers[0].wq.data.tobytes()
                == trained.layers[0].wq.data.tobytes())
