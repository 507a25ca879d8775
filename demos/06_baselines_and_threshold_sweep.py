"""Compare the greedy analysis against one-shot scoring baselines, then
sweep the threshold knobs across the speed/size/accuracy tradeoff.

The heuristic queue (block-type ordering, final-layer-first, encompass
filtering) evaluates fewer candidates than a flat scan; per-element
oracle and first-order Taylor scores skip fine-tuning entirely and pay
for it in final loss.
"""

import json

import slimformer as sf

config = sf.ExperimentConfig(
    task=sf.TaskSpec("majority_classification", vocab_size=4, context_len=8,
                     train_size=96, seed=17),
    shape=sf.ModelShape(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                        weight_group_width=4, kv_group_width=4),
    focus=sf.Focus.ACCURACY,
    seed=2, epochs_baseline=2, epochs_candidate=2, epochs_final=0, lr=0.01)

print("comparing analysis strategies on a shared baseline...")
result = sf.compare_baselines(config, "demo_runs/comparison")
print(f"baseline train/val loss: {result['baseline']['train_loss']:.4f} / "
      f"{result['baseline']['val_loss']:.4f}\n")
header = f"{'method':18s} {'removed':>7s} {'evals':>5s} {'seconds':>7s} {'val loss':>8s}"
print(header)
for row in result["rows"]:
    print(f"{row['method']:18s} {row['elements_removed']:7d} "
          f"{row['candidates_evaluated']:5d} {row['analysis_seconds']:7.2f} "
          f"{row['val_loss']:8.4f}")

print("\nsweeping skip/approx thresholds (speed focus)...")
sweep_config = sf.ExperimentConfig(
    task=config.task, shape=config.shape,
    focus=sf.Focus.SPEED,
    seed=2, epochs_baseline=3, epochs_candidate=1, epochs_final=2, lr=0.01)
rows = sf.sweep_thresholds(sweep_config, [0.0, 0.1, 0.3, (0.5, 1.0)],
                           "demo_runs/sweep")
print(json.dumps(rows, indent=2))
print("CSV written to demo_runs/sweep/sweep.csv")
