"""Train a tiny transformer on a synthetic task and inspect its cost.

Walks through the basic objects: a task spec, the model config derived
from it, the training loop, and the deterministic cost model (MACs,
parameters, bytes) that later demos optimize against.
"""

import slimformer as sf

# A majority-vote classification task: the label is the most frequent token.
task = sf.TaskSpec("majority_classification", vocab_size=6, context_len=16,
                   train_size=256, seed=42)
data = sf.generate_task(task)
print(f"dataset: {len(data.train)} train / {len(data.val)} validation sequences")
print("first sequence:", data.train.tokens[0], "-> label", data.train.labels[0])

# Model vocab gains one reserved padding id beyond the task vocab.
config = sf.TransformerConfig(
    num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
    context_len=task.context_len, vocab_size=task.vocab_size + 1,
    task_kind="classification", num_classes=task.num_classes,
    weight_group_width=4, kv_group_width=4)
model = sf.build_model(config, seed=0)

cost = sf.PlannedModel(model).cost()
print(f"\nmodel: {config.num_layers} layers, d={config.hidden_dim}, "
      f"{cost.param_count} parameters, {cost.mac_count} MACs/sequence, "
      f"{cost.bytes} bytes")

print("\ntraining 10 epochs...")
losses = sf.train_epochs(model, None, data.train, epochs=10,
                         rng=sf.spawn_rng(0, 0), lr=0.01)
for epoch, loss in enumerate(losses):
    print(f"  epoch {epoch}: mean loss {loss:.4f}")

print(f"\nvalidation loss    {sf.evaluate_loss(model, None, data.val):.4f}")
print(f"validation accuracy {sf.evaluate_accuracy(model, None, data.val):.3f}")
print(f"median forward latency {sf.measure_latency(model, None, data.val.tokens[:8]):.2f} ms")
