"""The benchmark's fixed scenarios and its seeded inputs.

Two pipeline scenarios drive ``run_experiment`` on a copy task, one per
focus. Their configuration is fixed: the pipeline's decisions are chaotic in
its task and training seeds (some seeds skip a whole attention block and
finish in a fifth of the time, others never sign-match), so a seed-varied
pipeline would measure a different amount of work on every seed. The
workload seed instead generates the probe batch that checks the optimized
model, and all inputs of the serving phase: the weights of the desk-scale
model and the 64 sequences pushed through each of seven fixed plans.
"""

from __future__ import annotations

from slimformer import (ATTN_BLOCK, FFN_BLOCK, HEAD, KV_GROUP, ApproxPlan,
                        ExperimentConfig, Focus, FocusMode, GroupShrink,
                        ModelShape, PlannedModel, Quantize, SignMatch, TaskSpec,
                        TransElement, TransformerConfig, build_model,
                        generate_task)

# workload -> (focus, mechanisms the optimized plan must contain)
OPTIMIZE_WORKLOADS = {
    "optimize_speed_copy": ("speed", ("sign_match", "group_shrink")),
    "optimize_size_copy": ("size", ("quantize", "skip:head")),
}

PLAN_NAMES = ("dense", "signmatch", "heads", "shrink", "kvprune", "quant", "skip")

SERVE_BATCH = 64
PROBE_BATCH = 32
REFERENCE_SEED = 0
REFERENCE_BATCH = 2


def optimize_config(focus: str, smoke: bool = False) -> ExperimentConfig:
    """The pipeline scenario: the only copy-task config found where speed
    focus decides every inner element kind (2 SignMatch, 4 GroupShrink,
    FFN and KV groups skipped, every head tried). The baseline trains for
    only 4 epochs: a converged copy loss is near zero, which would leave the
    relative thresholds no band to approximate in.

    ``smoke`` shrinks data and epochs so the harness runs in seconds; its
    plans are not expected to contain the scenario's mechanisms.
    """
    return ExperimentConfig(
        task=TaskSpec("copy", vocab_size=8, context_len=15,
                      train_size=48 if smoke else 512, seed=5),
        shape=ModelShape(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                         weight_group_width=8, kv_group_width=5),
        focus=FocusMode(Focus(focus)), seed=1,
        epochs_baseline=1 if smoke else 4, epochs_candidate=1 if smoke else 2,
        epochs_final=1 if smoke else 4, lr=0.01, eps_skip=0.1, eps_approx=2.0,
        sign_match_k=8)


def probe_tokens(config: ExperimentConfig, seed: int):
    """Seeded copy-task sequences for checking the optimized model."""
    spec = TaskSpec("copy", config.task.vocab_size, config.task.context_len,
                    train_size=PROBE_BATCH + 8, seed=seed)
    return generate_task(spec).train.tokens[:PROBE_BATCH]


def serve_config() -> TransformerConfig:
    """Desk-scale causal language model (the criterion-08 shape)."""
    return TransformerConfig(num_layers=4, hidden_dim=32, num_heads=4, ffn_dim=64,
                             context_len=32, vocab_size=16, autoregressive=True,
                             weight_group_width=8, kv_group_width=8,
                             task_kind="language_model")


def serve_plans(cfg: TransformerConfig) -> dict[str, ApproxPlan]:
    """One plan per approximation kind, each applied to every layer."""
    layers = range(cfg.num_layers)
    attn = [TransElement(ATTN_BLOCK, i) for i in layers]
    ffn = [TransElement(FFN_BLOCK, i) for i in layers]
    signmatch, shrink, quant = ApproxPlan(), ApproxPlan(), ApproxPlan()
    for a, f in zip(attn, ffn):
        signmatch = signmatch.with_approx(a, SignMatch(8))
        shrink = shrink.with_approx(a, GroupShrink(0, 1)).with_approx(f, GroupShrink(0, 1))
        quant = quant.with_approx(a, Quantize(4)).with_approx(f, Quantize(4))
    return {
        "dense": ApproxPlan(),
        "signmatch": signmatch,
        "heads": ApproxPlan(TransElement(HEAD, i, h) for i in layers for h in (1, 2, 3)),
        "shrink": shrink,
        "kvprune": ApproxPlan(TransElement(KV_GROUP, i, g) for i in layers for g in (2, 3)),
        "quant": quant,
        "skip": ApproxPlan(attn),
    }


def serve_inputs(seed: int, batch: int = SERVE_BATCH):
    """Seeded serving inputs: random-init model, token batch, bound plans."""
    cfg = serve_config()
    spec = TaskSpec("toy_lm", cfg.vocab_size - 1, cfg.context_len,
                    train_size=batch + 8, seed=seed)
    tokens = generate_task(spec).train.tokens[:batch]
    model = build_model(cfg, seed)
    planned = {name: PlannedModel(model, plan) for name, plan in serve_plans(cfg).items()}
    return tokens, planned
