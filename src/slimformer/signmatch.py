"""Sign-matching attention: linear-time key selection.

Keys are scored by the Hamming distance between their sign pattern and a
majority-vote representative sign vector built from the queries; only the
top-K keys enter the softmax. Scoring touches each matrix entry once, so
the score stage is linear in sequence length instead of quadratic.
``sign_match_attention`` scores with ``sign_distances`` (integer counts
and bit counts) and selects with ``select_keys`` (one index array);
``select_topk`` and ``causal_select`` are that selection's ranked-list form.

Every function takes leading batch axes (``[..., n, d]`` matrices,
``[..., n]`` distances); each leading index is an independent sequence, so
a model calls them once on its ``[B, h, n, dh]`` head views.

Sign convention: an entry counts as positive only when strictly > 0, so
sign(0) = -1 throughout (zero weights occur in test fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import PlanError
from .tensor import Tensor, full_attention, gather_rows, row_index


def causal_mask(n: int, key_positions: np.ndarray) -> np.ndarray:
    """[..., n, n_k] visibility for [..., n_k] key positions: entry (i, j)
    is True iff key j sits at or before query i's position."""
    return np.asarray(key_positions)[..., None, :] <= np.arange(n)[:, None]


def causal_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray,
                     counter: OpCounter | None = None) -> Tensor:
    """full_attention under a causal visibility ``mask`` (see causal_mask),
    shared by all sequences or per sequence. A query that sees none of the
    keys (one before the earliest key position) gets full_attention's zero
    output row and counts as starved in each sequence: a mask's starved
    rows count once per sequence that shares them."""
    if counter is not None:
        starved = ~mask.any(axis=-1)                           # [..., n]
        counter.starved_queries += int(starved.sum()) * (q.data[..., 0].size // starved.size)
    return full_attention(q, k, v, mask)


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


def select_keys(distances, k: int, causal: bool = False) -> np.ndarray:
    """The keys select_topk picks (causal_select with ``causal``) from
    [..., n] integer distances, as one [..., k] array of ascending
    indices. Key j of n is ranked by the unique integer ``dist * n + j``,
    whose order is the stable sort's, so the k keys ranked at or below the
    k-th smallest rank are taken, which ``np.partition`` finds without
    sorting. causal_select's first phase takes its keys from the earliest
    quarter the same way and ranks them -1, below every other key, so the
    k lowest ranks are those keys and the best of the rest."""
    dist = np.asarray(distances, dtype=np.int64)
    n = dist.shape[-1]
    if k > n:
        raise PlanError(f"cannot select {k} keys from {n}")
    rank = np.multiply(dist, n, order="C")
    rank += np.arange(n)
    if causal:
        quarter = max(1, -(-n // 4))
        early = rank[..., :quarter]
        early[_lowest(early, min(-(-k // 4), quarter))] = -1
    return (np.flatnonzero(_lowest(rank, k)) % n).reshape(dist.shape[:-1] + (k,))


def _lowest(rank: np.ndarray, k: int) -> np.ndarray:
    """Where the k smallest ranks lie along the last axis; ranks may tie
    only below the k-th smallest."""
    return rank <= np.partition(rank, k - 1, axis=-1)[..., k - 1:k]


def sign_distances(query: np.ndarray, key: np.ndarray,
                   counter: OpCounter | None = None) -> np.ndarray:
    """Hamming distance of each key's sign pattern from the queries'
    majority sign (+1 where at least half a column is positive), from
    integer work: each column's positive entries are counted, and each sign
    is one byte, 1 when positive, in rows padded with zero bytes to whole
    8-byte words, so a key's distance is the bit count of its words XORed
    with the representative's. ``tests/reference.py`` holds the ±1 form,
    ``ref_score_keys(k, ref_representative_sign(q))``."""
    n, d = query.shape[-2:]
    width = -(-d // 8) * 8
    # counted in the smallest unsigned type that holds n
    counts = np.add.reduce(query > 0, axis=-2, dtype=np.min_scalar_type(n))
    rep = np.zeros(query.shape[:-2] + (width,), dtype=bool)
    np.greater_equal(counts, (n + 1) // 2, out=rep[..., :d])
    signs = np.zeros_like(key, dtype=bool, shape=key.shape[:-1] + (width,))
    np.greater(key, 0, out=signs[..., :d])
    words = np.bitwise_xor(signs.view(np.uint64), rep.view(np.uint64)[..., None, :])
    if counter is not None:
        counter.rep_sign += query.size
        counter.sign_extract += key.size
        counter.hamming += key.size
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def sign_match_attention(q: Tensor, k: Tensor, v: Tensor, top_k: int,
                         causal: bool = False,
                         key_positions: np.ndarray | None = None,
                         counter: OpCounter | None = None) -> Tensor:
    """Attention restricted to the top_k sign-matched keys of each sequence.

    key_positions maps key rows to their original sequence positions, in
    ascending order (used by the causal mask when some positions were
    pruned upstream). Selected keys are gathered in ascending original
    order, so at top_k = n the result is bit-identical to full attention.
    Causal queries that can see none of the selected keys, those before a
    sequence's earliest one, produce a zero output row and bump the
    starvation counter. Keys and values are gathered through one index.
    """
    if top_k < 1:
        raise PlanError("sign-match k must be >= 1")
    n_k = k.data.shape[-2]
    sel = select_keys(sign_distances(q.data, k.data, counter), min(top_k, n_k), causal)
    rows = row_index(k.data.shape[:-2], sel)
    k_sel, v_sel = gather_rows(k, rows), gather_rows(v, rows)
    if causal:
        positions = np.arange(n_k) if key_positions is None else key_positions
        # each selected key's column of the shared [n, n_k] visibility
        columns = causal_mask(q.data.shape[-2], positions).T.take(sel, axis=0)
        mask = np.ascontiguousarray(np.swapaxes(columns, -1, -2))
        if counter is not None:
            # the queries before a sequence's earliest selected key see none
            first = np.asarray(positions)[sel[..., 0]]
            counter.starved_queries += int(np.minimum(first, q.data.shape[-2]).sum())
        return full_attention(q, k_sel, v_sel, mask)
    return full_attention(q, k_sel, v_sel)
