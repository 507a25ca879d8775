"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Fixtures are sized for desk-scale runs; tolerances are fixed
here and nowhere else.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from slimformer import (ApproxPlan, ElementQueue, ExperimentConfig, Focus,
                        GreedyAnalyzer, ModelShape, OpCounter,
                        PlanError, PlannedModel, TaskSpec, Tensor,
                        TransElement, TransformerConfig,
                        build_model, compare_baselines, full_attention,
                        generate_task, quantize_group,
                        run_experiment, sign_match_attention)
from slimformer.costs import quantized_bytes
from slimformer.elements import (FFN_GROUP, HEAD, KV_GROUP, attn_block,
                                 enumerate_elements, ffn_block, order_queue)
from slimformer.tensor import (cross_entropy, gelu, layer_norm, make_rng, matmul,
                               mean_rows, mul, softmax_rows, spawn_rng)
from slimformer.training import evaluate_accuracy, evaluate_loss, train_epochs

from reference import finite_difference_grad, ref_attention_per_head, layer_dict, sum_all


def report(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion:02d} PASS - {message}")


def test_criterion_01_gradient_correctness():
    """Analytic vs central finite-difference gradients, rel err < 1e-5,
    >= 20 randomized instances per differentiable op family, under 1 min."""
    start = time.time()
    gen = np.random.default_rng(2024)
    checked = 0

    def fd_check(build, param, n_coords=None):
        nonlocal checked
        param.grad = None
        loss = build()
        loss.backward()
        analytic = param.grad.copy()
        if n_coords is None:
            numeric = finite_difference_grad(lambda: build().item(), param.data)
            sel = np.ones(param.data.size, dtype=bool)
        else:
            flat = param.data.reshape(-1)
            idx = gen.choice(flat.size, size=min(n_coords, flat.size), replace=False)
            numeric = np.zeros_like(param.data)
            nf = numeric.reshape(-1)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + 1e-5
                fp = build().item()
                flat[i] = orig - 1e-5
                fm = build().item()
                flat[i] = orig
                nf[i] = (fp - fm) / 2e-5
            sel = np.zeros(flat.size, dtype=bool)
            sel[idx] = True
        a, n = analytic.reshape(-1)[sel], numeric.reshape(-1)[sel]
        big = np.abs(n) > 1e-7
        rel = np.abs(a - n)[big] / np.abs(n)[big]
        assert rel.max(initial=0.0) < 1e-5
        assert np.abs(a - n)[~big].max(initial=0.0) < 1e-6
        param.grad = None
        checked += 1

    for trial in range(20):
        r, c, k = gen.integers(2, 5, size=3)
        w = Tensor(gen.normal(size=(int(r), int(k))), requires_grad=True)
        u = Tensor(gen.normal(size=(int(k), int(c))), requires_grad=True)
        weight = gen.normal(size=(int(r), int(c)))
        fd_check(lambda: sum_all(mul(matmul(w, u), weight)), w)
        fd_check(lambda: sum_all(mul(matmul(w, u), weight)), u)

        x = Tensor(gen.normal(size=(3, 5)), requires_grad=True)
        wsm = gen.standard_normal((3, 5))
        fd_check(lambda: sum_all(mul(softmax_rows(x), wsm)), x)
        g = Tensor(gen.normal(size=5) + 1.0, requires_grad=True)
        b = Tensor(gen.normal(size=5), requires_grad=True)
        xn = Tensor(gen.normal(size=(2, 5)), requires_grad=True)
        fd_check(lambda: sum_all(mul(layer_norm(xn, g, b), 1.7)), xn)
        fd_check(lambda: sum_all(mul(layer_norm(xn, g, b), 1.7)), g)
        xg = Tensor(gen.normal(size=(2, 4)), requires_grad=True)
        wg = gen.standard_normal((2, 4))
        fd_check(lambda: sum_all(mul(gelu(xg), wg)), xg)
        logits = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        labels = gen.integers(0, 3, size=4)
        fd_check(lambda: cross_entropy(logits, labels), logits)
        xm = Tensor(gen.normal(size=(2, 3, 4)), requires_grad=True)
        wm = gen.standard_normal((2, 4))
        fd_check(lambda: sum_all(mul(mean_rows(xm), wm)), xm)

    # whole-model composite: every model op contributes to this gradient
    cfg = TransformerConfig(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                            context_len=4, vocab_size=5, autoregressive=True,
                            task_kind="language_model", weight_group_width=2,
                            kv_group_width=2)
    model = build_model(cfg, 77)
    tokens = gen.integers(0, 4, size=(2, 4))
    labels = np.roll(tokens, -1, axis=1)
    labels[:, -1] = -1

    for param in (model.layers[0].wq, model.layers[0].w1, model.embedding):
        fd_check(lambda: PlannedModel(model).forward(tokens, labels)[1], param, n_coords=6)

    elapsed = time.time() - start
    assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"
    assert checked >= 20 * 8
    report(1, f"{checked} gradient checks, rel err < 1e-5, in {elapsed:.1f}s")


def test_criterion_02_attention_reference_equivalence():
    """Empty-plan attention matches an independent per-head reference to
    abs err < 1e-10 across 50 random configurations."""
    gen = np.random.default_rng(7)
    worst = 0.0
    for trial in range(50):
        h = int(gen.choice([1, 2, 4]))
        dh = int(gen.choice([2, 4, 8]))
        d = h * dh
        n = int(gen.integers(1, 13))
        causal = bool(gen.integers(0, 2))
        cfg = TransformerConfig(
            num_layers=1, hidden_dim=d, num_heads=h, ffn_dim=2 * d,
            context_len=max(n, 1), vocab_size=5, autoregressive=causal,
            task_kind="language_model" if causal else "classification",
            weight_group_width=d, kv_group_width=max(n, 1))
        model = build_model(cfg, 1000 + trial)
        x = gen.normal(size=(n, d))
        out = PlannedModel(model).attention_sublayer(0, Tensor(x))
        mask = None
        if causal:
            mask = np.where(np.arange(n)[None, :] <= np.arange(n)[:, None], 0.0, -1e9)
        expected = ref_attention_per_head(x, layer_dict(model, 0), h, mask)
        worst = max(worst, np.abs(out.data - expected).max())
    assert worst < 1e-10
    report(2, f"50 random configs, worst abs err {worst:.2e} < 1e-10")


def test_criterion_03_sign_matching_exact_at_full_k():
    """sign_match_attention at K=n equals full attention with abs err 0 on
    100 random instances; instrumented score count doubles exactly with n."""
    gen = np.random.default_rng(11)
    for trial in range(100):
        n = int(gen.integers(1, 33))
        d = int(gen.choice([2, 4, 8]))
        causal = bool(gen.integers(0, 2))
        q = Tensor(gen.normal(size=(n, d)))
        k = Tensor(gen.normal(size=(n, d)))
        v = Tensor(gen.normal(size=(n, d)))
        mask = np.tril(np.ones((n, n), dtype=bool)) if causal else None
        out = sign_match_attention(q, k, v, n, causal)
        full = full_attention(q, k, v, mask)
        assert np.array_equal(out.data, full.data), f"trial {trial}"

    def count(n):
        counter = OpCounter()
        gen2 = np.random.default_rng(13)
        q = Tensor(gen2.normal(size=(n, 8)))
        k = Tensor(gen2.normal(size=(n, 8)))
        v = Tensor(gen2.normal(size=(n, 8)))
        sign_match_attention(q, k, v, 4, counter=counter)
        return counter.score_stage, counter.total

    for n in (8, 16, 32):
        (s1, t1), (s2, t2) = count(n), count(2 * n)
        assert s2 == 2 * s1 and t2 == 2 * t1
        assert s1 == 2 * n * 8
    report(3, "100 instances exact at K=n; score count doubles exactly with n")


def test_criterion_04_sign_matching_fidelity_trend():
    """On sparse-attention fixtures the mean output error decreases
    monotonically (within 5%) as K grows through {1, n/8, n/4, n/2, n}."""
    n, d = 32, 16
    ks = [1, n // 8, n // 4, n // 2, n]
    errs = {k: [] for k in ks}
    for seed in range(20):
        # queries cluster around a sign direction; a graded minority of keys
        # align with it, so attention rows are sparse but not saturated
        gen = np.random.default_rng(3000 + seed)
        u = np.where(gen.normal(size=d) > 0, 1.0, -1.0)
        q = u[None, :] + 0.5 * gen.normal(size=(n, d))
        kmat = gen.normal(size=(n, d))
        hot = gen.choice(n, size=8, replace=False)
        grade = np.linspace(1.0, 0.3, 8)[:, None]
        kmat[hot] = 1.2 * grade * u[None, :] + 0.4 * gen.normal(size=(8, d))
        v = gen.normal(size=(n, d))
        full = full_attention(Tensor(q), Tensor(kmat), Tensor(v)).data
        for k in ks:
            out = sign_match_attention(Tensor(q), Tensor(kmat), Tensor(v), k).data
            errs[k].append(np.abs(out - full).mean())
    means = [float(np.mean(errs[k])) for k in ks]
    print("\n  mean abs error by K:",
          {k: round(m, 6) for k, m in zip(ks, means)})
    assert means[-1] == 0.0
    assert means[2] < means[0], "error at K=n/4 must beat K=1"
    for a, b in zip(means, means[1:]):
        assert b <= a * 1.05, f"non-monotone beyond 5% tolerance: {means}"
    report(4, f"error monotone in K within 5%: {[round(m, 5) for m in means]}")


def test_criterion_05_pruning_equivalence_oracles():
    """Block skip == rebuilt-model deletion (exact); FFN group prune ==
    row zeroing (exact); KV prune == reduced-matrix attention (< 1e-12);
    head pruning preserves shape with zeroed slices."""
    gen = np.random.default_rng(17)
    cfg = TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                            context_len=8, vocab_size=6, task_kind="classification",
                            num_classes=5, weight_group_width=4, kv_group_width=4)
    model = build_model(cfg, 21)
    tokens = gen.integers(0, 5, size=(4, 8))

    # (a) skipping both blocks of the last layer == physically smaller model
    plan = ApproxPlan().with_skip(attn_block(1)).with_skip(ffn_block(1))
    small_cfg = TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2,
                                  ffn_dim=16, context_len=8, vocab_size=6,
                                  task_kind="classification", num_classes=5,
                                  weight_group_width=4, kv_group_width=4)
    small = build_model(small_cfg, 21)
    for name, t in dict(small.named_parameters()).items():
        t.data = dict(model.named_parameters())[name].data.copy()
    full_logits, _ = PlannedModel(model, plan).forward(tokens)
    small_logits, _ = PlannedModel(small).forward(tokens)
    assert np.array_equal(full_logits.data, small_logits.data)

    # (b) FFN group prune == zeroing those W1 rows, bit exact
    gplan = ApproxPlan().with_skip(TransElement(FFN_GROUP, 0, 1))
    x = gen.normal(size=(8, 8))
    pruned = PlannedModel(model, gplan).ffn_sublayer(0, Tensor(x))
    twin = model.clone()
    twin.layers[0].w1.data[4:8] = 0.0
    zeroed = PlannedModel(twin).ffn_sublayer(0, Tensor(x))
    assert np.array_equal(pruned.data, zeroed.data)

    # (c) KV position prune == attention over reduced key/value matrices, on
    # a one-position-per-group twin of the config (same seed, same weights)
    kv_model = build_model(dataclasses.replace(cfg, kv_group_width=1), 21)
    kv_plan = ApproxPlan(TransElement(KV_GROUP, 0, p) for p in (2, 5, 6))
    out = PlannedModel(kv_model, kv_plan).attention_sublayer(0, Tensor(x))
    expected = ref_attention_per_head(x, layer_dict(model, 0), 2,
                                      kv_positions=np.array([0, 1, 3, 4, 7]))
    assert np.abs(out.data - expected).max() < 1e-12

    # (d) head pruning: shape preserved, pruned slices zero before W_o
    hplan = ApproxPlan().with_skip(TransElement(HEAD, 0, 1))
    out_h = PlannedModel(model, hplan).attention_sublayer(0, Tensor(x))
    assert out_h.data.shape == x.shape
    expected_h = ref_attention_per_head(x, layer_dict(model, 0), 2, live_heads=[0])
    assert np.abs(out_h.data - expected_h).max() < 1e-12
    report(5, "skip==rebuild exact; group==row-zeroing exact; kv<1e-12; head shape ok")


def test_criterion_06_shrinking_contiguity():
    """100 randomized speed-focus shrink runs: every kept interval is a
    single contiguous band, held by at most one GroupShrink and matching the
    logged prunes, and every accepted step was threshold-feasible (verified
    from the decision log)."""
    cfg = TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                            context_len=8, vocab_size=5, task_kind="classification",
                            num_classes=4, weight_group_width=2, kv_group_width=4)
    data = generate_task(TaskSpec("majority_classification", vocab_size=4,
                                  context_len=8, train_size=64, seed=901))
    gen = np.random.default_rng(41)
    from slimformer import GroupShrink
    checked = 0
    for run in range(100):
        model = build_model(cfg, int(gen.integers(0, 10_000)))
        if run % 2 == 0:
            train_epochs(model, None, data.train, 2, spawn_rng(run, 0), lr=0.01)
        kind = FFN_GROUP if run % 2 == 0 else "qkv_weight_group"
        block = ffn_block(0) if kind == FFN_GROUP else attn_block(0)
        eps = float(gen.uniform(0.02, 0.6))
        tl = evaluate_loss(model, None, data.train)
        vl = evaluate_loss(model, None, data.val)
        analyzer = GreedyAnalyzer(model, data, (tl, vl), Focus.SPEED,
                                  seed=run, eps_skip=eps, epochs_per_candidate=0)
        queue = ElementQueue([TransElement(kind, 0, g) for g in range(4)])
        plan = analyzer.run(queue)
        # one GroupShrink holds the band; a full band writes nothing
        entries = [p for p in plan.entries(block) if isinstance(p, GroupShrink)]
        assert len(entries) <= 1
        lo, hi = (entries[0].lo, entries[0].hi) if entries else (0, 4)
        assert 0 <= lo <= hi <= 4
        assert not entries or (lo, hi) != (0, 4)
        assert not any(e.kind == kind for e in plan.skiplist)
        pruned = {TransElement.from_key(r["element"]).index
                  for r in analyzer.records if r["decision"] == "skip"}
        assert pruned == set(range(4)) - set(range(lo, hi))
        for rec in analyzer.records:
            if rec["decision"] == "skip":
                assert rec["train_loss"] <= rec["thresholds"]["train"]["skip"]
                assert rec["val_loss"] <= rec["thresholds"]["val"]["skip"]
        checked += 1
    assert checked == 100
    report(6, "100 shrink runs: contiguous kept intervals, log-verified feasible")


def test_criterion_07_greedy_vs_exhaustive_oracle():
    """1-layer model, 10 elements: the greedy plan is threshold-feasible and
    its MAC count lies in the exhaustively enumerated feasible-cost set;
    accuracy focus never ends above the baseline loss. Under 10 minutes."""
    start = time.time()
    cfg = TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                            context_len=8, vocab_size=5, task_kind="classification",
                            num_classes=4, weight_group_width=4, kv_group_width=4)
    elements = enumerate_elements(cfg)
    assert len(elements) <= 12
    data = generate_task(TaskSpec("majority_classification", vocab_size=4,
                                  context_len=8, train_size=72, seed=71))
    model = build_model(cfg, 7)
    train_epochs(model, None, data.train, 6, spawn_rng(7, 0), lr=0.01)
    tl = evaluate_loss(model, None, data.train)
    vl = evaluate_loss(model, None, data.val)
    eps = 0.3
    focus = Focus.SPEED
    queue = order_queue(elements, focus, cfg)
    # a zero-width band: every decision is a skip or a keep
    analyzer = GreedyAnalyzer(model, data, (tl, vl), focus, seed=3, eps_skip=eps,
                              eps_approx=eps, epochs_per_candidate=0)
    plan = analyzer.run(queue)

    def feasible(p):
        return (evaluate_loss(model, p, data.train) <= tl * (1 + eps)
                and evaluate_loss(model, p, data.val) <= vl * (1 + eps))

    assert feasible(plan), "greedy plan must satisfy its own thresholds"

    feasible_macs = set()
    for bits in range(2 ** len(elements)):
        subset = ApproxPlan()
        for j, el in enumerate(elements):
            if bits >> j & 1:
                subset = subset.with_skip(el)
        try:
            subset.resolve(cfg)
        except PlanError:
            continue
        if feasible(subset):
            feasible_macs.add(PlannedModel(model, subset).cost().mac_count)
    assert PlannedModel(model, plan).cost().mac_count in feasible_macs

    # accuracy focus clause
    acc_analyzer = GreedyAnalyzer(model, data, (tl, vl), Focus.ACCURACY,
                                  seed=5, epochs_per_candidate=1, lr=0.005)
    acc_plan = acc_analyzer.run(order_queue(elements, Focus.ACCURACY, cfg))
    final_train = evaluate_loss(acc_analyzer.work, acc_plan, data.train)
    final_val = evaluate_loss(acc_analyzer.work, acc_plan, data.val)
    assert final_val <= vl + 1e-12
    assert final_train <= tl + 1e-9
    elapsed = time.time() - start
    assert elapsed < 600
    report(7, f"greedy mac in feasible set of {len(feasible_macs)} costs; "
              f"accuracy focus never above baseline; {elapsed:.0f}s")


FIXTURE_TASK = TaskSpec("majority_classification", vocab_size=6, context_len=32,
                        train_size=768, seed=3)
FIXTURE_SHAPE = ModelShape(num_layers=4, hidden_dim=32, num_heads=4, ffn_dim=64,
                           weight_group_width=8, kv_group_width=8)


def _fixture_config(focus: Focus):
    return ExperimentConfig(task=FIXTURE_TASK, shape=FIXTURE_SHAPE,
                            focus=focus, seed=0, epochs_baseline=4,
                            epochs_candidate=3, epochs_final=4, lr=0.01, eps_skip=0.25)


def test_criterion_08_desk_scale_trends(tmp_path):
    """Over-parameterized majority fixture (L=4, d=32, h=4, n=32): speed
    focus cuts MACs >= 1.5x and size focus cuts bytes >= 2x, both with
    relative accuracy within 0.5% of baseline."""
    speed = run_experiment(_fixture_config(Focus.SPEED), tmp_path / "speed")
    assert speed.baseline.accuracy >= 0.95, "fixture baseline must be learned"
    assert speed.ratios["mac"] >= 1.5
    assert speed.optimized.accuracy >= 0.995 * speed.baseline.accuracy

    size = run_experiment(_fixture_config(Focus.SIZE), tmp_path / "size")
    assert size.ratios["bytes"] >= 2.0
    assert size.optimized.accuracy >= 0.995 * size.baseline.accuracy
    report(8, f"speed {speed.ratios['mac']:.1f}x macs, size {size.ratios['bytes']:.1f}x "
              f"bytes, accuracy kept within 0.5%")


def test_criterion_09_quantization_bound():
    """Round-trip error <= scale/2 elementwise for bits in {2,4,8} over
    1e5 random weights; packed byte accounting matches the closed form."""
    gen = np.random.default_rng(23)
    weights = gen.normal(scale=2.0, size=100_000)
    groups = weights.reshape(1000, 100)
    for bits in (2, 4, 8):
        total_bytes = 0
        for g in groups:
            q = quantize_group(g, bits)
            err = np.abs(q.dequantize() - g)
            assert (err <= q.scale / 2 + 1e-12).all()
            total_bytes += q.bytes
        assert total_bytes == 1000 * ((100 * bits + 7) // 8 + 8)
        assert total_bytes == 1000 * quantized_bytes(100, bits)
    report(9, "1e5 weights x bits {2,4,8}: err <= scale/2; packed bytes exact")


def test_criterion_10_baseline_comparison(tmp_path):
    """Heuristic greedy analyzes no slower than plain greedy, and one-shot
    oracle/Taylor pruning at matched removal count ends with at least the
    greedy plan's loss. Fixed seeds, directional."""
    config = ExperimentConfig(
        task=TaskSpec("majority_classification", vocab_size=4, context_len=8,
                      train_size=96, seed=17),
        shape=ModelShape(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         weight_group_width=4, kv_group_width=4),
        focus=Focus.ACCURACY,
        seed=2, epochs_baseline=2, epochs_candidate=2, epochs_final=0, lr=0.01)
    result = compare_baselines(config, tmp_path / "cmp")
    rows = {r["method"]: r for r in result["rows"]}
    assert set(rows) == {"greedy_heuristic", "greedy_plain", "oracle", "taylor"}
    heuristic, plain = rows["greedy_heuristic"], rows["greedy_plain"]
    assert heuristic["candidates_evaluated"] < plain["candidates_evaluated"]
    assert heuristic["analysis_seconds"] <= plain["analysis_seconds"]
    assert heuristic["elements_removed"] > 0
    for method in ("oracle", "taylor"):
        assert rows[method]["val_loss"] >= heuristic["val_loss"]
        assert rows[method]["elements_removed"] == heuristic["elements_removed"]
    report(10, f"heuristic {heuristic['analysis_seconds']:.1f}s <= plain "
               f"{plain['analysis_seconds']:.1f}s; one-shot pruning never beats greedy")


def test_criterion_11_determinism(tmp_path):
    """Two runs of optimize with identical config produce byte-identical
    plan.json and decisions.jsonl."""
    config = ExperimentConfig(
        task=TaskSpec("majority_classification", vocab_size=4, context_len=8,
                      train_size=80, seed=5),
        shape=ModelShape(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         weight_group_width=4, kv_group_width=4),
        focus=Focus.SPEED, eps_skip=0.3,
        seed=9, epochs_baseline=3, epochs_candidate=1, epochs_final=2, lr=0.01)
    run_experiment(config, tmp_path / "one")
    run_experiment(config, tmp_path / "two")
    for name in ("plan.json", "decisions.jsonl"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    plan = json.loads((tmp_path / "one" / "plan.json").read_text())
    assert set(plan) == {"skip", "approx"}
    report(11, "plan.json and decisions.jsonl byte-identical across runs")
