"""The loss path (``PlannedModel.loss``) computes only the positions the
labels read after the last mixing layer's attention block, and gives the
loss and every parameter gradient of ``forward(tokens, labels)`` bit for
bit."""

from typing import NamedTuple

import numpy as np
import pytest

from slimformer import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD, KV_GROUP, ApproxPlan,
                        GroupShrink, PlannedModel, Quantize, SignMatch, TaskSpec,
                        TransElement, TransformerConfig, TransformerModel, build_model,
                        generate_task)
from slimformer.model import BAND_MAX_SHARE
from slimformer.tensor import no_grad

# the benchmark's copy shape; toy_lm at a context where a training batch's
# weight-gradient products cross BLAS's small-matrix bound
CONFIGS = {
    "copy": (TransformerConfig(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                               context_len=15, vocab_size=9, autoregressive=True,
                               task_kind="copy", weight_group_width=8, kv_group_width=5),
             TaskSpec("copy", vocab_size=8, context_len=15, train_size=80, seed=5)),
    "toy_lm": (TransformerConfig(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                                 context_len=32, vocab_size=16, autoregressive=True,
                                 task_kind="language_model", weight_group_width=8,
                                 kv_group_width=8),
               TaskSpec("toy_lm", vocab_size=15, context_len=32, train_size=80, seed=3)),
    "classification": (TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                                         context_len=8, vocab_size=6, num_classes=5,
                                         task_kind="classification", weight_group_width=4,
                                         kv_group_width=4),
                       TaskSpec("majority_classification", vocab_size=5, context_len=8,
                                train_size=80, seed=21)),
}


def attn(layer):
    return TransElement(ATTN_BLOCK, layer)


def ffn(layer):
    return TransElement(FFN_BLOCK, layer)


def plans(cfg: TransformerConfig) -> dict:
    """One plan per kind of layer the loss path meets, on a 2-layer model."""
    heads, groups = cfg.num_heads, cfg.hidden_dim // cfg.weight_group_width
    kv_groups = cfg.context_len // cfg.kv_group_width
    return {
        "dense": ApproxPlan(),
        "signmatch_last": ApproxPlan().with_approx(attn(1), SignMatch(4)),
        "signmatch_both": ApproxPlan().with_approx(attn(0), SignMatch(4))
                                      .with_approx(attn(1), SignMatch(4)),
        "last_attention_skipped": ApproxPlan([attn(1)]),
        "no_attention": ApproxPlan([attn(0), attn(1)]),
        "last_headless": ApproxPlan([TransElement(HEAD, 1, h) for h in range(heads)]),
        # its live keys all lie before the copy task's read rows
        "last_headless_kv_pruned": ApproxPlan(
            [TransElement(HEAD, 1, h) for h in range(heads)]
            + [TransElement(KV_GROUP, 1, g) for g in range(kv_groups - 1)]),
        "all_headless": ApproxPlan([TransElement(HEAD, i, h)
                                    for i in range(2) for h in range(heads)]),
        "heads": ApproxPlan([TransElement(HEAD, 1, 0), TransElement(HEAD, 0, 1)]),
        "kvprune": ApproxPlan([TransElement(KV_GROUP, 1, 1), TransElement(KV_GROUP, 0, 0)]),
        "shrink": ApproxPlan().with_approx(attn(1), GroupShrink(1, groups))
                              .with_approx(ffn(1), GroupShrink(0, 1)),
        "quant": ApproxPlan().with_approx(attn(1), Quantize(4))
                             .with_approx(ffn(1), Quantize(8)).with_approx(ffn(0), Quantize(4)),
        "ffn_skipped": ApproxPlan([ffn(0), ffn(1)]),
        "ffn_empty": ApproxPlan([TransElement(FFN_GROUP, 1, g) for g in range(groups)]),
    }


PLAN_NAMES = list(plans(CONFIGS["copy"][0]))
# toy_lm reads 31 of its 32 positions, more than BAND_MAX_SHARE, so it
# computes every row; "toy_lm_band" labels only its positions 19-30
TASKS = [*CONFIGS, "toy_lm_band"]


class Setup(NamedTuple):
    model: TransformerModel
    tokens: np.ndarray
    labels: np.ndarray
    plans: dict


@pytest.fixture(scope="module")
def setups():
    out = {}
    for task, (cfg, spec) in CONFIGS.items():
        data = generate_task(spec).train
        out[task] = Setup(build_model(cfg, 4), data.tokens, data.labels, plans(cfg))
    labels = out["toy_lm"].labels.copy()
    labels[:, :19] = -1
    out["toy_lm_band"] = out["toy_lm"]._replace(labels=labels)
    return out


@pytest.fixture
def ffn_rows(monkeypatch):
    """(rows of x, rows argument) of every FFN sublayer call."""
    seen = []
    ffn_sublayer = PlannedModel.ffn_sublayer

    def recording(self, layer, x, rows=None):
        seen.append((x.data.shape[-2], rows))
        return ffn_sublayer(self, layer, x, rows)

    monkeypatch.setattr(PlannedModel, "ffn_sublayer", recording)
    return seen


def grads(model, plan, run):
    """Loss bytes and the bytes of every parameter's gradient after
    ``run(planned).backward()`` on a fresh copy of ``model``."""
    work = model.clone()
    loss = run(PlannedModel(work, plan))
    loss.backward()
    return loss.data.tobytes(), [(name, None if t.grad is None else t.grad.tobytes())
                                 for name, t in work.named_parameters()]


@pytest.mark.filterwarnings("ignore:.*first quarter of a causal context")
@pytest.mark.parametrize("batch", [1, 13, 32, 64])
@pytest.mark.parametrize("plan", PLAN_NAMES)
@pytest.mark.parametrize("task", TASKS)
def test_loss_and_gradients_match_forward(setups, task, plan, batch):
    setup = setups[task]
    plan, tokens, labels = setup.plans[plan], setup.tokens[:batch], setup.labels[:batch]
    ref = grads(setup.model, plan, lambda m: m.forward(tokens, labels)[1])
    assert grads(setup.model, plan, lambda m: m.loss(tokens, labels)) == ref
    with no_grad():  # as the evaluations run it
        planned = PlannedModel(setup.model, plan)
        assert (planned.loss(tokens, labels).data.tobytes()
                == planned.forward(tokens, labels)[1].data.tobytes())


@pytest.mark.filterwarnings("ignore:.*first quarter of a causal context")
@pytest.mark.parametrize("plan", ["dense", "signmatch_last", "last_attention_skipped",
                                  "no_attention"])
@pytest.mark.parametrize("task", ["copy", "toy_lm"])
def test_shorter_sequences_match_forward(setups, task, plan):
    """Padded positions carry no label, so the read band shrinks with the
    sequences (copy: positions 7-9 of 11, then padding to 15; toy_lm:
    0-9 of 11, then padding to 32)."""
    setup = setups[task]
    plan, tokens, labels = setup.plans[plan], setup.tokens[:13, :11], setup.labels[:13, :11]
    ref = grads(setup.model, plan, lambda m: m.forward(tokens, labels)[1])
    assert grads(setup.model, plan, lambda m: m.loss(tokens, labels)) == ref


def test_scattered_labels_match_forward(setups):
    """Read rows that are not one band are computed as the band from the
    first to the last."""
    setup = setups["toy_lm"]
    tokens, labels = setup.tokens[:13], setup.labels[:13].copy()
    labels[:, 5:12] = -1
    labels[:, 15] = -1
    labels[:, 20:] = -1  # the band is 0-19
    ref = grads(setup.model, None, lambda m: m.forward(tokens, labels)[1])
    assert grads(setup.model, None, lambda m: m.loss(tokens, labels)) == ref


@pytest.mark.parametrize("plan, rows", [
    ("dense", [15, 7]),                    # the last mixing layer is 1
    ("last_attention_skipped", [7, 7]),    # it is 0
    ("last_headless", [7, 7]),
    ("no_attention", [7, 7]),              # none: read rows from the embedding on
])
def test_copy_task_runs_the_read_rows(setups, ffn_rows, plan, rows):
    """At the copy shape the FFN from the last mixing layer on sees the 7
    labeled positions (7-13 of 15); under ``forward`` it sees all 15."""
    setup = setups["copy"]
    planned = PlannedModel(setup.model, setup.plans[plan])
    planned.loss(setup.tokens[:32], setup.labels[:32]).backward()
    assert [n for n, _ in ffn_rows] == rows
    ffn_rows.clear()
    planned.forward(setup.tokens[:32], setup.labels[:32])
    assert [n for n, _ in ffn_rows] == [15, 15]


@pytest.mark.parametrize("task, rows", [
    ("toy_lm", [(32, None), (32, None)]),
    ("toy_lm_band", [(32, None), (12, slice(19, 31))]),
])
def test_band_wider_than_its_share_computes_every_row(setups, ffn_rows, task, rows):
    """A band of 31 read positions of 32 computes every row; one of 12
    computes the 12."""
    setup = setups[task]
    assert 12 <= BAND_MAX_SHARE * 32 < 31
    PlannedModel(setup.model).loss(setup.tokens[:32], setup.labels[:32]).backward()
    assert ffn_rows == rows


def test_classification_computes_every_row(setups, ffn_rows):
    setup = setups["classification"]
    PlannedModel(setup.model).loss(setup.tokens[:8], setup.labels[:8])
    assert ffn_rows == [(8, None), (8, None)]


def test_loss_needs_labels(setups):
    setup = setups["copy"]
    planned = PlannedModel(setup.model)
    with pytest.raises(ValueError, match="needs labels"):
        planned.loss(setup.tokens[:2], None)
    with pytest.raises(ValueError, match="no labeled positions"):
        planned.loss(setup.tokens[:2], np.full_like(setup.labels[:2], -1))
