"""Focus modes side by side, plus contiguous weight-group shrinking.

Speed focus prunes whatever the loss thresholds allow and sign-matches
attention in the gray zone; size focus prunes and quantizes; accuracy
focus prunes only what strictly improves the running minimum loss.
"""

import numpy as np

import slimformer as sf
from slimformer.elements import ffn_block

task = sf.TaskSpec("copy", vocab_size=6, context_len=9, train_size=256, seed=5)
shape = sf.ModelShape(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
                      weight_group_width=4, kv_group_width=3)

for focus in (sf.FocusMode(sf.Focus.SPEED, 0.2),
              sf.FocusMode(sf.Focus.SIZE, 0.2),
              sf.FocusMode(sf.Focus.ACCURACY)):
    # sign_match_k=6 keeps the in-band attention approximation gentle enough
    # that later candidates still have loss headroom
    config = sf.ExperimentConfig(task=task, shape=shape, focus=focus, seed=1,
                                 epochs_baseline=10, epochs_candidate=3,
                                 epochs_final=10, lr=0.01, sign_match_k=6)
    report = sf.run_experiment(config, f"demo_runs/{focus.focus.value}")
    d = report.to_doc()
    print(f"{focus.focus.value:9s}: val loss {d['baseline']['val_loss']:.4f} -> "
          f"{d['optimized']['val_loss']:.4f}, acc {d['baseline']['accuracy']:.2f} -> "
          f"{d['optimized']['accuracy']:.2f}, macs /{d['ratios']['mac']:.2f}, "
          f"bytes /{d['ratios']['bytes']:.2f}, plan {d['plan_summary']['skipped']}")

# Contiguous shrinking in isolation: groups leave from the bottom, then from
# the top, until the loss threshold objects, so the survivors form one
# contiguous band. On this task the band ends empty. The first prune lifts
# train loss from 0.61 to 0.66, inside the 0.74 threshold. Every accepted
# prune keeps its fine-tuned model, and the extra tuning pulls the next
# prunes back to 0.61, 0.60 and 0.64, while the thresholds stay fixed at
# the untuned baseline (the stale-baseline effect of ROADMAP direction 3);
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
thresholds = sf.SplitThresholds(
    sf.Thresholds(tl * 1.2, tl * 1.2), sf.Thresholds(vl * 1.2, vl * 1.2))
analyzer = sf.GreedyAnalyzer(model, data, thresholds,
                             sf.FocusMode(sf.Focus.SPEED, 0.2), seed=0,
                             epochs_per_candidate=1)
lo, hi = analyzer.shrink(ffn_block(0))
print(f"  baseline train loss {tl:.4f}, skip threshold {tl * 1.2:.4f}")
for rec in analyzer.records:
    print(f"  {rec['tentative_action']:18s} {rec['element']:20s} train {rec['train_loss']:.4f} "
          f"val {rec['val_loss']:.4f} -> {rec['decision']}")
print(f"  kept interval of {cfg.num_weight_groups} groups: [{lo}, {hi})")
written = analyzer.plan.entries(ffn_block(0))
print(f"  plan entry on {ffn_block(0).key}: {written[0] if written else 'nothing written'}")
