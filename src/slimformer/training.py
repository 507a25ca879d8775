"""Fine-tuning loop and evaluation helpers."""

from __future__ import annotations

import numpy as np

from .model import PlannedModel, TransformerModel, bind
from .optim import Adam
from .plan import ApproxPlan
from .tasks import Dataset
from .tensor import no_grad

DEFAULT_LR = 3e-3
DEFAULT_BATCH = 32
EVAL_BATCH = 64


def iter_batches(dataset: Dataset, batch_size: int,
                 rng: np.random.Generator | None = None):
    idx = rng.permutation(len(dataset)) if rng is not None else np.arange(len(dataset))
    for start in range(0, len(dataset), batch_size):
        take = idx[start:start + batch_size]
        yield dataset.tokens[take], dataset.labels[take]


def train_epochs(model: TransformerModel | PlannedModel, plan: ApproxPlan | None,
                 dataset: Dataset, epochs: int, rng: np.random.Generator,
                 lr: float = DEFAULT_LR, batch_size: int = DEFAULT_BATCH) -> list[float]:
    """Train ``bind(model, plan)`` in place for `epochs` epochs with one
    fresh Adam; returns per-epoch mean batch loss.

    Only parameters of blocks the plan keeps alive are optimized; pruned
    weight-group rows and quantized bands receive identically zero
    gradients. Each step computes ``PlannedModel.loss``, which runs only
    the positions the labels read.
    """
    planned = bind(model, plan)
    opt = Adam(planned.parameters(), lr=lr)
    means = []
    for _ in range(epochs):
        losses = []
        for tokens, labels in iter_batches(dataset, batch_size, rng):
            loss = planned.loss(tokens, labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        means.append(float(np.mean(losses)))
    return means


def evaluate_loss(model: TransformerModel | PlannedModel, plan: ApproxPlan | None,
                  dataset: Dataset) -> float:
    """Mean loss of ``bind(model, plan)`` over a split, weighted by labeled
    positions."""
    planned = bind(model, plan)
    total, count = 0.0, 0
    with no_grad():
        for tokens, labels in iter_batches(dataset, EVAL_BATCH):
            loss = planned.loss(tokens, labels)
            rows = labels.shape[0] if labels.ndim == 1 else int((labels >= 0).sum())
            total += loss.item() * rows
            count += rows
    return total / count


def evaluate_accuracy(model: TransformerModel | PlannedModel, plan: ApproxPlan | None,
                      dataset: Dataset) -> float:
    """Exact-match rate of ``bind(model, plan)``: per sequence for
    classification, per labeled token otherwise."""
    planned = bind(model, plan)
    hits, count = 0, 0
    with no_grad():
        for tokens, labels in iter_batches(dataset, EVAL_BATCH):
            logits, _ = planned.forward(tokens)
            pred = logits.data.argmax(axis=-1)
            if labels.ndim == 1:
                hits += int((pred == labels).sum())
                count += labels.shape[0]
            else:
                pred = pred[:, :labels.shape[1]]  # forward pads to the context
                valid = labels >= 0
                hits += int((pred[valid] == labels[valid]).sum())
                count += int(valid.sum())
    return hits / count if count else 0.0
