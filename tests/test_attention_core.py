"""The attention core and the sign-scoring kernels give the bits of the
plain formulations in ``reference``: forward, gradients and op counts, on
row lengths that take every branch of the row-max kernel (column loop up
to 16 keys, halving folds for even rows above that, a reduction otherwise)
and on queries that see no key."""

import numpy as np
import pytest

from slimformer.signmatch import (MASK_NEG, OpCounter, causal_attention, causal_mask,
                                  representative_sign, score_keys)
from slimformer.tensor import Tensor, full_attention, mul, softmax_rows

from reference import (ref_masked_attention, ref_representative_sign, ref_score_keys,
                       ref_softmax, sum_all)

KEY_COUNTS = (1, 5, 8, 15, 16, 17, 32)
BATCH, DH = 3, 4


def run_node(build, arrays, weight):
    """Output and q/k/v gradients of sum(build(q, k, v) * weight)."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*inputs)
    sum_all(mul(out, weight)).backward()
    return out.data, [t.grad for t in inputs]


def assert_matches_reference(build, arrays, mask, rng):
    """build(q, k, v) under ``mask`` equals the reference bit for bit and
    writes into none of its operands."""
    operands = arrays + ([mask] if mask is not None else [])
    before = [a.copy() for a in operands]
    weight = rng.normal(size=arrays[0].shape[:-1] + (arrays[2].shape[-1],))
    out, grads = run_node(build, arrays, weight)
    ref_out, *ref_grads = ref_masked_attention(*arrays, mask, weight)
    np.testing.assert_array_equal(out, ref_out)
    for got, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, ref)
    for a, b in zip(operands, before):
        np.testing.assert_array_equal(a, b)


def draw_positions(rng, n_q, n_k, starved, lead=()):
    """Sorted distinct key positions in [0, n_q); with ``starved`` the
    earliest is at least 2, so the first queries see no key."""
    start = 2 if starved else 0
    pos = np.empty(lead + (n_k,), dtype=np.int64)
    for idx in np.ndindex(*lead):
        pick = rng.choice(np.arange(start + 1, n_q), n_k - 1, replace=False)
        pos[idx] = np.sort(np.concatenate([[start], pick]))
    return pos


@pytest.mark.parametrize("n_k", KEY_COUNTS)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_seq"])
@pytest.mark.parametrize("starved", [False, True], ids=["all_see", "starved"])
def test_causal_attention_matches_reference(rng, n_k, shared, starved):
    n_q = n_k + 4
    arrays = [rng.normal(size=(BATCH, n, DH)) for n in (n_q, n_k, n_k)]
    pos = draw_positions(rng, n_q, n_k, starved, () if shared else (BATCH,))
    mask = causal_mask(n_q, pos)
    counter = OpCounter()
    assert_matches_reference(lambda q, k, v: causal_attention(q, k, v, pos, counter),
                             arrays, mask, rng)
    assert_matches_reference(lambda q, k, v: full_attention(q, k, v, mask), arrays, mask, rng)
    starved_rows = np.broadcast_to((mask == MASK_NEG).all(axis=-1), (BATCH, n_q))
    assert counter.starved_queries == int(starved_rows.sum()) == (2 * BATCH if starved else 0)


@pytest.mark.parametrize("n_k", KEY_COUNTS)
def test_full_attention_matches_reference(rng, n_k):
    n_q = 6
    arrays = [rng.normal(size=(BATCH, n, DH)) for n in (n_q, n_k, n_k)]
    assert_matches_reference(full_attention, arrays, None, rng)
    # a random mask with every other query of the first sequence seeing no key
    mask = np.where(rng.random((BATCH, n_q, n_k)) < 0.5, MASK_NEG, 0.0)
    mask[:, :, 0] = 0.0
    mask[0, ::2] = MASK_NEG
    assert_matches_reference(lambda q, k, v: full_attention(q, k, v, mask), arrays, mask, rng)
    out = full_attention(*map(Tensor, arrays), mask).data
    np.testing.assert_array_equal(out[0, ::2], 0.0)


@pytest.mark.parametrize("n_k", KEY_COUNTS)
def test_softmax_rows_matches_reference_and_keeps_input(rng, n_k):
    x = rng.normal(scale=5.0, size=(BATCH, 6, n_k))
    before = x.copy()
    a = Tensor(x)
    np.testing.assert_array_equal(softmax_rows(a).data, ref_softmax(before))
    np.testing.assert_array_equal(a.data, before)


def signed_inputs(rng, n=6, d=16, lead=(BATCH, 2)):
    """Random [*lead, n, d] matrices with exact zeros (sign -1) and, in the
    first half of the columns, exactly half of the rows positive (a tie,
    which resolves to +1)."""
    x = rng.normal(size=lead + (n, d))
    x[rng.random(x.shape) < 0.2] = 0.0
    ties = np.abs(x[..., : d // 2]) + 0.5
    ties[..., : n // 2, :] *= -1
    x[..., : d // 2] = rng.permuted(ties, axis=-2)
    return x


def test_representative_sign_matches_reference(rng):
    q = signed_inputs(rng)
    counter = OpCounter()
    val = representative_sign(q, counter)
    assert val.dtype == np.int64
    np.testing.assert_array_equal(val, ref_representative_sign(q))
    np.testing.assert_array_equal(val[..., : q.shape[-1] // 2], 1)
    assert counter.rep_sign == q.size and counter.score_stage == 0


def test_score_keys_matches_reference(rng):
    q, k = signed_inputs(rng), signed_inputs(rng, n=9)
    val = ref_representative_sign(q)
    counter = OpCounter()
    dist = score_keys(k, val, counter)
    assert dist.dtype == np.int64
    np.testing.assert_array_equal(dist, ref_score_keys(k, val))
    assert (counter.sign_extract, counter.hamming, counter.rep_sign) == (k.size, k.size, 0)
