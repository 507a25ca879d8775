"""Sign-matching attention: linear-time key selection.

A representative sign vector summarizes the queries column-by-column; keys
are ranked by Hamming distance of their sign patterns and only the best K
enter the softmax. At K=n it reproduces full attention exactly, and the
scoring work grows linearly with sequence length instead of quadratically.
"""

import numpy as np

import slimformer as sf
from slimformer import OpCounter, Tensor

gen = np.random.default_rng(7)
n, d = 32, 16

# Sparse-attention fixture: most queries align with one sign direction.
direction = np.where(gen.normal(size=d) > 0, 1.0, -1.0)
q = direction[None, :] + 0.5 * gen.normal(size=(n, d))
k = gen.normal(size=(n, d))
hot = gen.choice(n, size=8, replace=False)
k[hot] = 1.2 * direction[None, :] + 0.4 * gen.normal(size=(8, d))
v = gen.normal(size=(n, d))

dist = sf.sign_distances(q, k)
print("hamming distances:  ", dist)
print("top-8 keys:         ", sf.select_keys(dist, 8))
print("planted hot keys:   ", np.sort(hot))

full = sf.full_attention(Tensor(q), Tensor(k), Tensor(v)).data
print("\nerror vs full attention as K grows:")
for kk in (1, 4, 8, 16, 32):
    out = sf.sign_match_attention(Tensor(q), Tensor(k), Tensor(v), kk).data
    print(f"  K={kk:2d}: mean abs err {np.abs(out - full).mean():.5f}")

print("\nscore-stage comparison counts (linear in n):")
for nn in (16, 32, 64):
    counter = OpCounter()
    qq, kk_, vv = (Tensor(gen.normal(size=(nn, d))) for _ in range(3))
    sf.sign_match_attention(qq, kk_, vv, 4, counter=counter)
    print(f"  n={nn:3d}: score stage {counter.score_stage} comparisons "
          f"(= 2*n*d = {2 * nn * d})")

# Autoregressive variant: a quarter of the budget is reserved for early
# positions so early queries keep something to attend to.
counter = OpCounter()
out = sf.sign_match_attention(Tensor(q), Tensor(k), Tensor(v), 8, causal=True,
                              counter=counter)
print(f"\ncausal variant: {counter.starved_queries} starved queries "
      f"(zeroed output rows)")
print("causal selection:", sf.select_keys(dist, 8, causal=True))
