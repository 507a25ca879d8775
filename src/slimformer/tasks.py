"""Synthetic tasks with deterministically derivable labels.

The tasks are engineered so a deep model is redundant by construction:
majority classification is solvable from pooled embeddings alone, parity
needs a little nonlinearity, and the copy / toy language-model tasks need
attention. That guarantees the significance analysis has something to find
at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .config import check_number_fields
from .errors import ConfigError
from .tensor import spawn_rng

TASK_NAMES = ("majority_classification", "parity_classification", "copy", "toy_lm")

IGNORE_LABEL = -1


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    vocab_size: int
    context_len: int
    train_size: int
    val_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if self.kind not in TASK_NAMES:
            raise ConfigError(f"task kind must be one of {TASK_NAMES}")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.context_len < 2:
            raise ConfigError("context_len must be >= 2")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"task seed must be >= 0, got {self.seed}")
        if self.train_size < 2 or self.val_count >= self.train_size:
            raise ConfigError(f"train_size {self.train_size} too small to split at "
                              f"val_fraction {self.val_fraction}")
        if self.kind == "copy":
            if self.context_len % 2 == 0:
                raise ConfigError("copy task needs an odd context_len (pattern, "
                                  "separator, pattern)")
            if self.vocab_size < 3:
                raise ConfigError("copy task needs vocab_size >= 3 (one id is the separator)")

    @property
    def val_count(self) -> int:
        return max(1, round(self.train_size * self.val_fraction))

    @property
    def autoregressive(self) -> bool:
        return self.kind in ("copy", "toy_lm")

    @property
    def model_task_kind(self) -> str:
        if self.kind == "copy":
            return "copy"
        if self.kind == "toy_lm":
            return "language_model"
        return "classification"

    @property
    def num_classes(self) -> int:
        if self.kind == "majority_classification":
            return self.vocab_size
        if self.kind == "parity_classification":
            return 2
        return 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Dataset:
    tokens: np.ndarray  # [N, n] int64
    labels: np.ndarray  # [N] for classification, [N, n] (IGNORE_LABEL padded) otherwise

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.tokens[idx], self.labels[idx])


@dataclass
class TaskData:
    spec: TaskSpec
    train: Dataset
    val: Dataset


def generate_task(spec: TaskSpec) -> TaskData:
    """Deterministic dataset for a task spec, split train/validation."""
    rng = spawn_rng(spec.seed, 1)
    n, v, size = spec.context_len, spec.vocab_size, spec.train_size

    if spec.kind == "majority_classification":
        # boost one token per sequence so the modal class has a clear margin
        tokens = rng.integers(0, v, size=(size, n))
        boosted = rng.integers(0, v, size=size)
        n_boost = max(2, int(0.4 * n))
        for row, tok in zip(tokens, boosted):
            row[rng.permutation(n)[:n_boost]] = tok
        labels = np.array([np.bincount(row, minlength=v).argmax() for row in tokens],
                          dtype=np.int64)
    elif spec.kind == "parity_classification":
        tokens = rng.integers(0, v, size=(size, n))
        labels = (tokens == 1).sum(axis=1) % 2
    elif spec.kind == "copy":
        m = (n - 1) // 2
        sep = v - 1
        pattern = rng.integers(0, sep, size=(size, m))
        tokens = np.concatenate(
            [pattern, np.full((size, 1), sep, dtype=np.int64), pattern], axis=1)
        labels = np.full((size, n), IGNORE_LABEL, dtype=np.int64)
        labels[:, m:n - 1] = tokens[:, m + 1:]
    else:  # toy_lm: modular progressions with stride 1 or 2
        start = rng.integers(0, v, size=(size, 1))
        stride = rng.integers(1, 3, size=(size, 1))
        tokens = (start + stride * np.arange(n)[None, :]) % v
        labels = np.full((size, n), IGNORE_LABEL, dtype=np.int64)
        labels[:, :n - 1] = tokens[:, 1:]

    tokens = tokens.astype(np.int64)
    labels = labels.astype(np.int64)
    perm = rng.permutation(size)
    val_idx, train_idx = perm[:spec.val_count], perm[spec.val_count:]
    full = Dataset(tokens, labels)
    return TaskData(spec, train=full.subset(train_idx), val=full.subset(val_idx))
