"""Approximation plans: skip blocks, prune heads and weight groups, prune
key/value position groups, quantize weight groups.

Every transform keeps output shapes intact, so plans compose freely; the
cost model reflects exactly what each entry saves.
"""

import numpy as np

import slimformer as sf
from slimformer import ApproxPlan, Quantize, TransElement
from slimformer.elements import FFN_GROUP, HEAD, KV_GROUP, attn_block, ffn_block

config = sf.TransformerConfig(num_layers=2, hidden_dim=16, num_heads=2,
                              ffn_dim=32, context_len=16, vocab_size=7,
                              task_kind="classification", num_classes=6,
                              weight_group_width=4, kv_group_width=4)
model = sf.build_model(config, seed=1)
tokens = np.random.default_rng(0).integers(0, 6, size=(4, 16))


def show(name, plan):
    planned = sf.PlannedModel(model, plan)
    cost = planned.cost()
    logits, _ = planned.forward(tokens)
    print(f"{name:34s} macs={cost.mac_count:7d} params={cost.param_count:5d} "
          f"bytes={cost.bytes:6d} logits shape={logits.data.shape}")


show("no plan", None)

# Skipping a block routes around it through the residual connection.
show("skip FFN block, layer 1", ApproxPlan().with_skip(ffn_block(1)))
show("skip ATTN block, layer 0", ApproxPlan().with_skip(attn_block(0)))

# A pruned head is not computed; the sublayer's output keeps its shape.
show("prune head 1 of layer 0", ApproxPlan().with_skip(TransElement(HEAD, 0, 1)))

# Weight-group pruning drops a band of input rows of the first FFN matrix.
show("prune FFN weight group 2, layer 0",
     ApproxPlan().with_skip(TransElement(FFN_GROUP, 0, 2)))

# Key/value position pruning shrinks the attention score matrix; with
# kv_group_width=4, group 1 holds positions 4-7.
show("prune 4 kv positions, layer 0", ApproxPlan().with_skip(TransElement(KV_GROUP, 0, 1)))

# Quantization shrinks bytes only: same MACs, same parameters.
show("quantize FFN group to 4 bits",
     ApproxPlan().with_approx(TransElement(FFN_GROUP, 0, 2), Quantize(4)))

# Round-trip bound: |dequantized - original| <= scale/2, elementwise.
weights = np.random.default_rng(1).normal(size=64)
for bits in (2, 4, 8):
    q = sf.quantize_group(weights, bits)
    err = np.abs(q.dequantize() - weights).max()
    print(f"quantize {bits} bits: scale={q.scale:.4f} max err={err:.4f} "
          f"(bound {q.scale / 2:.4f}), packed {q.bytes} bytes")
