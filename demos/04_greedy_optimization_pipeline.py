"""The full pipeline: baseline fine-tune, ordered element queue, greedy
significance analysis, final fine-tune, report.

An over-parameterized model (4 layers where the majority task needs none)
is optimized for speed; the analysis discovers the redundancy and strips
it while the loss thresholds protect accuracy.
"""

import json
from pathlib import Path

import slimformer as sf

out = Path("demo_runs/speed")
config = sf.ExperimentConfig(
    task=sf.TaskSpec("majority_classification", vocab_size=6, context_len=32,
                     train_size=768, seed=3),
    shape=sf.ModelShape(num_layers=4, hidden_dim=32, num_heads=4, ffn_dim=64,
                        weight_group_width=8, kv_group_width=8),
    focus=sf.Focus.SPEED, eps_skip=0.25,
    seed=0, epochs_baseline=4, epochs_candidate=3, epochs_final=4, lr=0.01)

print("running optimize pipeline (about half a minute)...")
report = sf.run_experiment(config, out)

doc = report.to_doc()
print(f"\nbaseline : {doc['baseline']['mac_count']:8d} MACs, "
      f"{doc['baseline']['bytes']:7d} bytes, "
      f"val acc {doc['baseline']['accuracy']:.3f}")
print(f"optimized: {doc['optimized']['mac_count']:8d} MACs, "
      f"{doc['optimized']['bytes']:7d} bytes, "
      f"val acc {doc['optimized']['accuracy']:.3f}")
print(f"speedup {doc['ratios']['mac']:.1f}x (MAC proxy), "
      f"size {doc['ratios']['bytes']:.1f}x smaller")

print("\nwhat the plan did:", json.dumps(doc["plan_summary"], indent=2))
print("\nper-layer decisions:")
for row in doc["per_layer_histogram"]:
    print(f"  layer {row['layer']}: {row['skipped']} skipped, "
          f"{row['approximated']} approximated")

print("\nfirst decision-log entries:")
for line in (out / "decisions.jsonl").read_text().splitlines()[:4]:
    rec = json.loads(line)
    print(f"  {rec['element']:18s} train {rec['train_loss']:.4f} "
          f"val {rec['val_loss']:.4f} -> {rec['decision']}")

print(f"\nartifacts in {out}/: report.json, plan.json, decisions.jsonl, "
      f"elements.json, model.json + model.bin")
