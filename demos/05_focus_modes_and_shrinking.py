"""Focus modes side by side, plus contiguous weight-group shrinking.

Speed focus prunes whatever the loss thresholds allow and sign-matches
attention in the gray zone; size focus prunes and quantizes; accuracy
focus prunes only what strictly improves the running minimum loss.
"""

import slimformer as sf
from slimformer.elements import ffn_block

# The benchmark's copy-task scenario (perfbench/scenarios.optimize_config),
# copied here. On it speed focus sign-matches and shrinks, and size focus
# quantizes and prunes heads: the baseline trains only 4 epochs, so its loss
# leaves the relative thresholds a band to approximate in.
task = sf.TaskSpec("copy", vocab_size=8, context_len=15, train_size=512, seed=5)
shape = sf.ModelShape(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                      weight_group_width=8, kv_group_width=5)

print("focus modes on one copy task (about half a minute)...")
for focus in sf.Focus:
    config = sf.ExperimentConfig(task=task, shape=shape, focus=focus,
                                 seed=1, epochs_baseline=4, epochs_candidate=2,
                                 epochs_final=4, lr=0.01, eps_skip=0.1, eps_approx=2.0,
                                 sign_match_k=8)
    report = sf.run_experiment(config, f"demo_runs/{focus.value}")
    d = report.to_doc()
    print(f"{focus.value:9s}: val loss {d['baseline']['val_loss']:.4f} -> "
          f"{d['optimized']['val_loss']:.4f}, acc {d['baseline']['accuracy']:.2f} -> "
          f"{d['optimized']['accuracy']:.2f}, macs /{d['ratios']['mac']:.2f}, "
          f"bytes /{d['ratios']['bytes']:.2f}")
    print(f"{'':11s}skipped {d['plan_summary']['skipped']}, "
          f"approximated {d['plan_summary']['approximated']}")

# Contiguous shrinking in isolation: groups leave from the bottom, then from
# the top, until the loss threshold objects, so the survivors form one
# contiguous band. On this task the band ends empty. The first prune lifts
# train loss from 0.61 to 0.66, inside the 0.74 threshold. Every accepted
# prune keeps its fine-tuned model, and the extra tuning pulls the next
# prunes back to 0.61, 0.60 and 0.64, while the thresholds stay fixed at
# the untuned baseline (the stale-baseline effect of ROADMAP direction 1);
# so all four groups go and the plan holds them as one GroupShrink(4, 4).
# With tighter thresholds (eps <= 0.07) the first bottom and the first top
# prune both fail, the full range [0, 4) is kept and the plan gets no entry;
# no setting of these tasks was found that leaves a partial band.
print("\ncontiguous shrinking of one FFN block:")
cfg = sf.TransformerConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                           context_len=8, vocab_size=5, task_kind="classification",
                           num_classes=4, weight_group_width=2, kv_group_width=4)
data = sf.generate_task(sf.TaskSpec("majority_classification", vocab_size=4,
                                    context_len=8, train_size=96, seed=11))
model = sf.build_model(cfg, 3)
sf.train_epochs(model, None, data.train, 6, sf.spawn_rng(3, 0), lr=0.01)
tl = sf.evaluate_loss(model, None, data.train)
vl = sf.evaluate_loss(model, None, data.val)
analyzer = sf.GreedyAnalyzer(model, data, (tl, vl), sf.Focus.SPEED,
                             seed=0, eps_skip=0.2, epochs_per_candidate=1)
lo, hi = analyzer.shrink(ffn_block(0))
print(f"  baseline train loss {tl:.4f}, "
      f"skip threshold {analyzer.records[0]['thresholds']['train']['skip']:.4f}")
for rec in analyzer.records:
    print(f"  {rec['tentative_action']:18s} {rec['element']:20s} train {rec['train_loss']:.4f} "
          f"val {rec['val_loss']:.4f} -> {rec['decision']}")
print(f"  kept interval of {cfg.num_weight_groups} groups: [{lo}, {hi})")
written = analyzer.plan.entries(ffn_block(0))
print(f"  plan entry on {ffn_block(0).key}: {written[0] if written else 'nothing written'}")
