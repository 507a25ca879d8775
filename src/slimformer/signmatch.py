"""Sign-matching attention: linear-time key selection.

Keys are scored by the Hamming distance between their sign pattern and a
majority-vote representative sign vector built from the queries; only the
top-K keys enter the softmax. Scoring touches each matrix entry once, so
the score stage is linear in sequence length instead of quadratic.

Every function takes leading batch axes (``[..., n, d]`` matrices,
``[..., n]`` distances); each leading index is an independent sequence, so
a model calls them once on its ``[B*h, n, dh]`` head-folded tensors.

Sign convention: an entry counts as positive only when strictly > 0, so
sign(0) = -1 throughout (zero weights occur in test fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import PlanError
from .tensor import Tensor, full_attention, gather_rows

MASK_NEG = -1e9


def causal_mask(n: int, key_positions: np.ndarray) -> np.ndarray:
    """[..., n, n_k] additive mask for [..., n_k] key positions: entry
    (i, j) is MASK_NEG iff key j sits at a position after query i."""
    pos = np.asarray(key_positions)
    return np.where(pos[..., None, :] <= np.arange(n)[:, None], 0.0, MASK_NEG)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, key_positions: np.ndarray,
                     counter: OpCounter | None = None) -> Tensor:
    """full_attention under the causal mask of [..., n_k] key positions
    (shared by all sequences or per sequence). A query that sees none of
    the keys (one before the earliest key position) gets full_attention's
    zero output row and counts as starved in each sequence."""
    pos = np.asarray(key_positions)
    n = q.data.shape[-2]
    if counter is not None:
        starved = pos.min(axis=-1, initial=n)                  # [...] queries per sequence
        counter.starved_queries += int(np.broadcast_to(starved, q.data.shape[:-2]).sum())
    return full_attention(q, k, v, causal_mask(n, pos))


@dataclass
class OpCounter:
    """Instrumentation for the linear-scoring contract.

    score_stage counts the key-side work (sign extraction + Hamming
    comparisons); rep_sign counts building the query-side representative.
    starved_queries counts causal rows left with no visible key, in
    either attention path. Every sequence handed to sign_match_attention
    is counted; a model hands it only its live heads, so pruned heads are
    not scored.
    """

    rep_sign: int = 0
    sign_extract: int = 0
    hamming: int = 0
    starved_queries: int = 0

    @property
    def score_stage(self) -> int:
        return self.sign_extract + self.hamming

    @property
    def total(self) -> int:
        return self.rep_sign + self.score_stage

    def add(self, other: "OpCounter"):
        """Add another counter's counts into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def representative_sign(query: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Majority sign of each query column: +1 when at least half the rows
    are strictly positive (ties resolve to +1), else -1. [..., n, d] -> [..., d]."""
    q = np.asarray(query, dtype=np.float64)
    counts = np.ones(q.shape[-2]) @ (q > 0)
    if counter is not None:
        counter.rep_sign += q.size
    return np.where(counts >= q.shape[-2] / 2, 1, -1).astype(np.int64)


def score_keys(key: np.ndarray, val: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Hamming distance between each key row's sign pattern and the
    representative vector. [..., n, d] keys, [..., d] signs -> [..., n]."""
    k = np.asarray(key, dtype=np.float64)
    if val.shape != k.shape[:-2] + k.shape[-1:]:
        raise ValueError(f"sign vector shape {val.shape} does not match keys {k.shape}")
    if counter is not None:
        counter.sign_extract += k.size
        counter.hamming += k.size
    return ((k > 0) != (val > 0)[..., None, :]).sum(axis=-1, dtype=np.int64)


def select_topk(distances, k: int) -> list:
    """Indices of the k smallest distances along the last axis, ties broken
    by ascending index; a list per leading index for batched input."""
    dist = np.asarray(distances)
    n = dist.shape[-1]
    if k > n:
        raise PlanError(f"cannot select {k} keys from {n}")
    return np.argsort(dist, axis=-1, kind="stable")[..., :k].tolist()


def causal_select(distances, n: int, k: int) -> list:
    """Two-phase top-k for causal attention: ceil(k/4) best keys from the
    earliest quarter of positions first, then the best remaining keys
    overall, so early queries are unlikely to be left without visible keys.
    Selects along the last axis, like select_topk."""
    dist = np.asarray(distances)
    if n != dist.shape[-1]:
        raise ValueError("distance list length does not match n")
    if k > n:
        raise PlanError(f"cannot select {k} keys from {n}")
    quarter = max(1, -(-n // 4))
    k_early = min(-(-k // 4), quarter)
    early = np.argsort(dist[..., :quarter], axis=-1, kind="stable")[..., :k_early]
    taken = np.zeros(dist.shape, dtype=bool)
    np.put_along_axis(taken, early, True, axis=-1)
    rest = np.argsort(np.where(taken, np.iinfo(np.int64).max, dist), axis=-1,
                      kind="stable")[..., :k - k_early]
    return np.concatenate([early, rest], axis=-1).tolist()


def sign_match_attention(q: Tensor, k: Tensor, v: Tensor, top_k: int,
                         causal: bool = False,
                         key_positions: np.ndarray | None = None,
                         counter: OpCounter | None = None) -> Tensor:
    """Attention restricted to the top_k sign-matched keys of each sequence.

    key_positions maps key rows to their original sequence positions (used
    by the causal mask when some positions were pruned upstream). Selected
    keys are gathered in ascending original order, so at top_k = n the
    result is bit-identical to full attention. Causal queries that can see
    none of the selected keys produce a zero output row and bump the
    starvation counter.
    """
    if top_k < 1:
        raise PlanError("sign-match k must be >= 1")
    n_k = k.data.shape[-2]
    kk = min(top_k, n_k)
    if key_positions is None:
        key_positions = np.arange(n_k, dtype=np.int64)

    dist = score_keys(k.data, representative_sign(q.data, counter), counter)
    rows = causal_select(dist, n_k, kk) if causal else select_topk(dist, kk)
    sel = np.sort(np.asarray(rows, dtype=np.int64), axis=-1)   # [..., kk]
    k_sel, v_sel = gather_rows(k, sel), gather_rows(v, sel)
    if causal:
        return causal_attention(q, k_sel, v_sel, key_positions[sel], counter)
    return full_attention(q, k_sel, v_sel)
