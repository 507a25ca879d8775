"""Fine-tuning loop and evaluation helpers."""

from __future__ import annotations

import numpy as np

from .model import PlannedModel, TransformerModel
from .optim import Adam
from .plan import ApproxPlan
from .tasks import Dataset
from .tensor import no_grad

DEFAULT_LR = 3e-3
DEFAULT_BATCH = 32


def iter_batches(dataset: Dataset, batch_size: int,
                 rng: np.random.Generator | None = None):
    idx = rng.permutation(len(dataset)) if rng is not None else np.arange(len(dataset))
    for start in range(0, len(dataset), batch_size):
        take = idx[start:start + batch_size]
        yield dataset.tokens[take], dataset.labels[take]


def train_epochs(model: TransformerModel, plan: ApproxPlan | None, dataset: Dataset,
                 epochs: int, rng: np.random.Generator, lr: float = DEFAULT_LR,
                 batch_size: int = DEFAULT_BATCH) -> list[float]:
    """Train in place for `epochs` epochs; returns per-epoch mean batch loss.

    Only parameters of blocks the plan keeps alive are optimized; pruned
    weight-group rows and quantized bands receive identically zero
    gradients.
    """
    planned = PlannedModel(model, plan)
    opt = Adam(planned.parameters(), lr=lr)
    means = []
    for _ in range(epochs):
        losses = []
        for tokens, labels in iter_batches(dataset, batch_size, rng):
            _, loss = planned.forward(tokens, labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        means.append(float(np.mean(losses)))
    return means


def evaluate_loss(model: TransformerModel, plan: ApproxPlan | None, dataset: Dataset,
                  batch_size: int = 64) -> float:
    """Mean loss over a split, weighted by labeled positions."""
    planned = PlannedModel(model, plan)
    total, count = 0.0, 0
    with no_grad():
        for tokens, labels in iter_batches(dataset, batch_size):
            _, loss = planned.forward(tokens, labels)
            rows = labels.shape[0] if labels.ndim == 1 else int((labels >= 0).sum())
            total += loss.item() * rows
            count += rows
    return total / count


def evaluate_accuracy(model: TransformerModel, plan: ApproxPlan | None,
                      dataset: Dataset, batch_size: int = 64) -> float:
    """Exact-match rate: per sequence for classification, per labeled token
    otherwise."""
    planned = PlannedModel(model, plan)
    hits, count = 0, 0
    with no_grad():
        for tokens, labels in iter_batches(dataset, batch_size):
            logits, _ = planned.forward(tokens)
            pred = logits.data.argmax(axis=-1)
            if labels.ndim == 1:
                hits += int((pred == labels).sum())
                count += labels.shape[0]
            else:
                pad = planned.model.config.context_len - labels.shape[1]
                if pad:
                    labels = np.concatenate(
                        [labels, np.full((labels.shape[0], pad), -1, dtype=np.int64)], axis=1)
                valid = labels >= 0
                hits += int((pred[valid] == labels[valid]).sum())
                count += int(valid.sum())
    return hits / count if count else 0.0
