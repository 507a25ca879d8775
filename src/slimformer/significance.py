"""Greedy significance analysis.

Each queue element is tentatively removed, the model is briefly fine-tuned,
and the resulting train/validation losses decide its fate: below the skip
threshold on both splits the removal sticks (and the fine-tuned weights
become the new working state); inside the band between skip and
approximation thresholds the element is replaced by a kind-appropriate
approximation; otherwise it is kept and, for blocks, its inner elements are
dropped from the queue. Under accuracy focus both bars are the best
accepted loss so far, and only pruning is applied.
Under speed focus `shrink` scans a block's weight groups from both ends and
leaves one GroupShrink for the band that survives (none for the full band).

The loop is one stream of trial requests over explicit state (plan,
working weights, bars, RNG step, weights generation, shrink-scan cursor):
`_next` names the next request and `_advance` applies its result. While
`run` decides one trial, a helper process (see `speculate`) may fine-tune
the request a copy of that state names next when advanced past the
current trial with an assumed outcome; a result is used only for a
request equal to the predicted one, so the audit trail cannot change.
"""

from __future__ import annotations

import copy
import json
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import speculate
from .elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD, KIND_TABLE, QKV_GROUP,
                       WEIGHT_GROUPS, ElementQueue, TransElement, encompass_filter,
                       enumerate_elements, weight_group_block)
from .errors import ConfigError, InfeasibleError, PlanError
from .focus import Focus
from .model import LayerParams, PlannedModel, TransformerModel
from .plan import ApproxPlan, GroupShrink, Quantize, SignMatch, params_to_doc
from .tasks import TaskData
from .tensor import spawn_rng
from .training import (DEFAULT_BATCH, DEFAULT_LR, evaluate_loss, iter_batches,
                       train_epochs)


def eps_pair(eps_skip: float, eps_approx: float | None) -> tuple[float, float]:
    """The (skip, approximation) loss epsilons, approximation defaulting to
    twice skip; raises ConfigError unless 0 <= eps_skip <= eps_approx."""
    eps_approx = 2.0 * eps_skip if eps_approx is None else eps_approx
    if not 0 <= eps_skip <= eps_approx:
        raise ConfigError(f"need 0 <= eps_skip <= eps_approx, got {eps_skip} and {eps_approx}")
    return eps_skip, eps_approx


def evaluate_candidate(model: TransformerModel, plan: ApproxPlan, data: TaskData,
                       epochs: int, rng: np.random.Generator,
                       lr: float = DEFAULT_LR, batch_size: int = DEFAULT_BATCH):
    """Losses of a candidate plan after brief fine-tuning from the current
    weights. The input model is untouched; the tuned clone is returned so an
    accepted decision can adopt it.

    With epochs=0 the plan is evaluated as-is. Otherwise the train loss is
    the epoch-mean batch loss of the last fine-tuning epoch and the
    validation loss is the full held-out loss afterwards.
    """
    if len(data.train) == 0 or len(data.val) == 0:
        raise ConfigError("empty dataset split")
    work = model.clone()
    planned = PlannedModel(work, plan)  # one bind: quantized bands hold through training
    if epochs > 0:
        means = train_epochs(planned, None, data.train, epochs, rng,
                             lr=lr, batch_size=batch_size)
        train_loss = means[-1]
    else:
        train_loss = evaluate_loss(planned, None, data.train)
    val_loss = evaluate_loss(planned, None, data.val)
    return train_loss, val_loss, work


class GreedyAnalyzer:
    """Stateful driver of the greedy loop; see module docstring.

    The decision bars come from the baseline (train, val) losses: the skip
    bar at ``loss * (1 + eps_skip)`` and the approximation bar at
    ``loss * (1 + eps_approx)`` per split, eps_skip defaulting to 0 and
    eps_approx to twice eps_skip. Under accuracy focus both bars start at
    the baseline and drop to the losses of each accepted skip.

    Exposes the working model, the growing plan and the decision records so
    the harness can persist the audit trail.
    """

    def __init__(self, model: TransformerModel, data: TaskData,
                 baseline: tuple[float, float], focus: Focus, seed: int,
                 eps_skip: float = 0.0, eps_approx: float | None = None,
                 epochs_per_candidate: int = 1, lr: float = DEFAULT_LR,
                 batch_size: int = DEFAULT_BATCH, sign_match_k: int | None = None,
                 quant_bits: int = 8, encompass_enabled: bool = True, log_path=None):
        for loss in baseline:
            if not math.isfinite(loss) or loss <= 0:
                raise ConfigError(f"baseline loss must be positive and finite, got {loss}")
        eps_skip, eps_approx = eps_pair(eps_skip, eps_approx)
        self.model = model
        self.data = data
        self.focus = focus
        self.seed = seed
        self.epochs = epochs_per_candidate
        self.lr = lr
        self.batch_size = batch_size
        n = model.config.context_len
        sign_match_k = max(1, n // 4) if sign_match_k is None else sign_match_k
        if not 1 <= sign_match_k <= n:
            raise ConfigError(f"sign_match_k must be in [1, context_len={n}], got {sign_match_k}")
        self.sign_match_k = sign_match_k
        self.quant_bits = quant_bits
        self.encompass_enabled = encompass_enabled

        self.log_path = log_path
        if log_path is not None:  # start a fresh append-only audit log
            open(log_path, "w").close()

        self.work = model.clone()
        self.plan = ApproxPlan()
        self.records: list[dict] = []
        self._step = 0
        self._generation = 0  # accepted skips: each replaces the working weights
        self._scan: _Scan | None = None  # the open shrink scan's cursor
        self._spec: _Speculation | None = None
        self.speculated = self.speculation_hits = 0  # helper trials started / used
        # (train, val) pairs; only an accepted accuracy-focus skip lowers the bars
        self._baseline = tuple(baseline)
        if focus == Focus.ACCURACY:
            self._skip = self._approx = self._baseline
        else:
            self._skip = tuple(loss * (1.0 + eps_skip) for loss in self._baseline)
            self._approx = tuple(loss * (1.0 + eps_approx) for loss in self._baseline)

    # -- acceptance rules ---------------------------------------------------

    def _accept_skip(self, tl: float, vl: float) -> bool:
        t, v = self._skip
        if self.focus == Focus.ACCURACY:  # strict improvement
            return tl < t and vl < v
        return tl <= t and vl <= v

    def _accept_approx(self, tl: float, vl: float) -> bool:
        t, v = self._approx
        return tl <= t and vl <= v

    def _high_importance(self, tl: float, vl: float) -> bool:
        """Whether a kept block should drop its inner elements.

        Speed/size: any block that failed the approximation band. Accuracy:
        only blocks whose removal pushed loss above the original baseline
        (anything milder leaves its groups worth examining)."""
        if self.focus == Focus.ACCURACY:
            return not (tl <= self._baseline[0] and vl <= self._baseline[1])
        return True

    def _thresholds_doc(self) -> dict:
        return {split: {"skip": self._skip[i], "approx": self._approx[i]}
                for i, split in enumerate(("train", "val"))}

    def _resolves(self, candidate: ApproxPlan, warn: bool = True) -> bool:
        try:
            candidate.resolve(self.model.config, warn=warn)
        except PlanError:
            return False
        return True

    def _train(self, work: TransformerModel, candidate: ApproxPlan, step: int):
        return evaluate_candidate(work, candidate, self.data, self.epochs,
                                  spawn_rng(self.seed, 2, step), lr=self.lr,
                                  batch_size=self.batch_size)

    def _result(self, queue: ElementQueue, request):
        """(train loss, val loss, tuned model) of a request's trial, or None,
        with no trial, when its plan would be invalid. Inside a speculating
        run: the helper's result if it ran this very request, else computed
        here, while the helper starts on the predicted next request if the
        prediction made at the previous trial held."""
        el, _, candidate = request
        if not self._resolves(candidate):
            return None
        step, spec = self._step, self._spec
        if spec is None:
            return self._train(self.work, candidate, step)
        key = _trial_key(el, candidate, step, self._generation)
        result = spec.helper.take(key)
        predicted = spec.next_request(key, self._predict(queue, request))
        if result is None:
            # the helper inherits self.work: only a request on these weights may go to it
            if predicted is not None and predicted[3] == self._generation:
                spec.helper.submit(_trial_key(*predicted),
                                   partial(self._train, self.work, *predicted[1:3]))
            else:
                spec.helper.cancel()
            result = self._train(self.work, candidate, step)
        return result

    def _predict(self, queue: ElementQueue, request):
        """(element, candidate, step, generation) of the trial after
        ``request`` on a copy of the loop (None if it ends first), which
        takes that request as landing in the band, on the approximation
        bars, when both lie strictly above the skip bars, else as rejected
        above both: either way the weights stay those a helper inherits.
        Its plans resolve without warnings."""
        ahead, queue = copy.copy(self), copy.deepcopy(queue)
        in_band = all(a > s for a, s in zip(self._approx, self._skip))
        assumed = self._approx if in_band else (math.inf, math.inf)
        ahead._advance(queue, request, (*assumed, None))
        while (request := ahead._next(queue)) is not None:
            el, _, candidate = request
            if ahead._resolves(candidate, warn=False):
                return el, candidate, ahead._step, ahead._generation
            ahead._advance(queue, request, None)
        return None

    def _log(self, rec: dict):
        self.records.append(rec)
        if self.log_path is not None:
            with open(self.log_path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    # -- main loop -------------------------------------------------------------

    def run(self, queue: ElementQueue) -> ApproxPlan:
        """Decide every queue element; returns the plan. Speculates one
        trial ahead in a helper process when ``speculate.helper_allowed``
        and candidates are fine-tuned. The open helper owns the spare CPU
        for the whole run, so no forward splits meanwhile; it is gone on
        return."""
        if self.epochs == 0 or not speculate.helper_allowed():
            return self._run(queue)
        self._spec = _Speculation()
        helper = self._spec.helper
        try:
            with helper:
                return self._run(queue)
        finally:
            self.speculated += helper.speculated
            self.speculation_hits += helper.hits
            self._spec = None

    def _run(self, queue: ElementQueue) -> ApproxPlan:
        while (request := self._next(queue)) is not None:
            self._log(self._advance(queue, request, self._result(queue, request)))
        return self.plan

    def _next(self, queue: ElementQueue):
        """The next request, (element, tentative action, plan with the
        element skipped), or None when the loop is done. A finished scan
        closes first; under speed focus a popped weight group takes its
        family out of the queue and opens a scan of its block."""
        scan = self._scan
        if scan is not None and scan.phase is not None and scan.lo < scan.hi:
            el = TransElement(scan.kind, scan.block.layer,
                              scan.lo if scan.phase == "bottom" else scan.hi - 1)
            return el, f"shrink_prune_{scan.phase}", self.plan.with_skip(el)
        if scan is not None:  # back to the plan before it, plus the band it left
            self._scan, self.plan = None, scan.before
            full = KIND_TABLE[scan.kind].per_layer(self.model.config)
            if (scan.lo, scan.hi) != (0, full) and scan.block not in scan.before.skiplist:
                self.plan = scan.before.with_approx(scan.block, GroupShrink(scan.lo, scan.hi))
        if not queue.has_next():
            return None
        el = queue.pop()
        block = weight_group_block(el)
        if self.focus == Focus.SPEED and block is not None:
            queue.extract_family(el.kind, el.layer, "shrink_scan")
            full = KIND_TABLE[el.kind].per_layer(self.model.config)
            self._scan = _Scan(block, el.kind, 0, full, "bottom", self.plan)
            return self._next(queue)
        return el, "skip", self.plan.with_skip(el)

    def _advance(self, queue: ElementQueue, request, result) -> dict:
        """Apply one request's result (None for an invalid plan: no trial,
        no RNG step) and return its decision record, unlogged. A skip that
        clears the bar adopts plan and tuned weights; in a scan it narrows
        the band, and anything else ends the phase. Outside a scan, an
        element in the band is approximated, and a block drops its inner
        elements when skipped or kept at high importance."""
        el, action, candidate = request
        rec = {"element": el.key, "tentative_action": action, "train_loss": None,
               "val_loss": None, "thresholds": self._thresholds_doc(), "decision": "keep"}
        if result is None:
            rec["approx"] = {"reason": "plan would be invalid"}
        else:
            tl, vl, tuned = result
            self._step += 1
            rec.update(train_loss=tl, val_loss=vl)
            if self._accept_skip(tl, vl):
                rec["decision"] = "skip"
                self.plan, self.work = candidate, tuned
                self._generation += 1
                if self.focus == Focus.ACCURACY:
                    self._skip = self._approx = (tl, vl)
        skipped, scan = rec["decision"] == "skip", self._scan
        if scan is not None:
            if not skipped:
                self._scan = scan._replace(phase="top" if scan.phase == "bottom" else None)
            elif scan.phase == "bottom":
                self._scan = scan._replace(lo=scan.lo + 1)
            else:
                self._scan = scan._replace(hi=scan.hi - 1)
        elif skipped:
            if self.encompass_enabled and el.granularity == 0:
                encompass_filter(queue, el, "skipped")
        elif result is not None:
            approx = self._approximate(el) if self._accept_approx(tl, vl) else None
            if approx is not None:
                rec.update(decision="approximate", approx=approx)
            elif (self.encompass_enabled and el.granularity == 0
                    and self._high_importance(tl, vl)):
                encompass_filter(queue, el, "kept")
        return rec

    def _approximate(self, el: TransElement) -> dict | None:
        """Approximate an element inside the band, if its kind has an
        approximation under the focus; returns the approx doc, if any."""
        params = None
        if self.focus == Focus.SPEED:
            if el.kind == FFN_BLOCK:
                return {"variant": "group_shrink", "status": "scheduled"}
            if el.kind == ATTN_BLOCK:
                params = SignMatch(self.sign_match_k)
        elif self.focus == Focus.SIZE and (el.granularity == 0 or weight_group_block(el)):
            params = Quantize(self.quant_bits)
        if params is None:
            return None
        # redundant when the element (for a weight group: its block) carries it
        if params not in self.plan.entries(weight_group_block(el) or el):
            self.plan = self.plan.with_approx(el, params)
        return params_to_doc(params)

    # -- contiguous shrinking ---------------------------------------------------

    def shrink(self, block: TransElement) -> tuple[int, int]:
        """Two-phase contiguous shrinking of one FFN block's weight groups
        (or the QKV first stage of an attention block) under speed focus.

        Groups are tried as skips from the bottom up, then from the top down,
        each phase until a trial fails, so the survivors form one band
        [lo, hi); every trial is logged. The plan keeps its pre-scan state
        plus one GroupShrink(lo, hi) on the block, written only when the band
        narrowed and the block is not skipped. Returns (lo, hi)."""
        if self.focus != Focus.SPEED:
            raise ConfigError("contiguous shrinking applies under speed focus only; "
                              "other focuses prune groups individually")
        if block.kind not in WEIGHT_GROUPS:
            raise ConfigError("shrink target must be an FFN or ATTN block")
        # the loop scans a block when it pops one of its groups
        queue = ElementQueue([TransElement(WEIGHT_GROUPS[block.kind], block.layer, 0)])
        while (request := self._next(queue)) is not None:
            self._log(self._advance(queue, request, self._result(queue, request)))
            scan = self._scan
        return scan.lo, scan.hi


class _Scan(NamedTuple):
    """Cursor of a shrink scan: block, group kind, the band [lo, hi) of
    unpruned groups, phase ("bottom", "top", None: done), plan before it."""
    block: TransElement
    kind: str
    lo: int
    hi: int
    phase: str | None
    before: ApproxPlan


def _trial_key(el: TransElement, candidate: ApproxPlan, step: int, generation: int):
    """What a trial's result is a function of, beyond the analyzer's fixed
    data and settings: weights (by generation), plan (entries in order), RNG step."""
    return (el, step, generation, frozenset(candidate.skiplist),
            tuple(candidate.approxlist.items()))


class _Speculation:
    """Per-run state of a speculating analyzer: the helper and the key the
    last prediction named."""

    def __init__(self):
        self.helper = speculate.Helper()
        self.first = True  # no trial of the run has asked yet
        self.expected = None

    def next_request(self, key, predicted):
        """The request to speculate on while the trial with ``key`` runs:
        ``predicted``, the request the loop would ask for next, but only
        while predictions hold, i.e. at the run's first trial or when the
        prediction made at the previous trial named ``key``. Plain keeps
        come in runs, accepted skips too, so past an accepted skip the
        helper would mostly train for nothing; on the benchmark scenarios,
        speculating on every trial instead made the pipeline 6-10% slower."""
        held = self.first or self.expected == key
        self.first = False
        self.expected = predicted and _trial_key(*predicted)
        return predicted if held else None


# -- comparison baselines -------------------------------------------------------

TAYLOR_BATCH = 64  # training examples behind the one gradient Taylor scores use

# element kind -> (config attribute giving its slice width, owned parameters
# as (name, axis) pairs): axis None owns the whole tensor, else the element's
# index-th slice along that axis. Key/value position groups own no
# parameters (they select activations), so they score zero.
_OWNED_PARAMS = {
    FFN_BLOCK: (None, tuple((name, None) for name in LayerParams.FFN_NAMES)),
    ATTN_BLOCK: (None, tuple((name, None) for name in LayerParams.ATTN_NAMES)),
    HEAD: ("head_dim", (("wq", 1), ("wk", 1), ("wv", 1),
                        ("bq", 0), ("bk", 0), ("bv", 0), ("wo", 0))),
    FFN_GROUP: ("weight_group_width", (("w1", 0),)),
    QKV_GROUP: ("weight_group_width", (("wq", 0), ("wk", 0), ("wv", 0))),
}


def taylor_signed_scores(model: TransformerModel, data: TaskData,
                         elements: list[TransElement] | None = None
                         ) -> dict[TransElement, float]:
    """Signed first-order scores sum(w * dL/dw) over each element's
    parameters, from one training iteration's gradients. Signed sums are
    additive over disjoint parameter partitions; rankings use |score|."""
    elements = elements if elements is not None else enumerate_elements(model.config)
    work = model.clone()
    tokens, labels = next(iter_batches(data.train, TAYLOR_BATCH))
    PlannedModel(work).loss(tokens, labels).backward()
    scores = {}
    for el in elements:
        attr, owned = _OWNED_PARAMS.get(el.kind, (None, ()))
        width = getattr(model.config, attr) if attr else 0
        band = slice(el.index * width, (el.index + 1) * width)
        total = 0.0
        for name, axis in owned:
            t = getattr(work.layers[el.layer], name)
            if t.grad is None:
                raise RuntimeError(f"missing gradient for parameters of {el.key}")
            index = ... if axis is None else (slice(None),) * axis + (band,)
            total += float((t.data[index] * t.grad[index]).sum())
        scores[el] = total
    return scores


def taylor_significance(model: TransformerModel, data: TaskData,
                        elements: list[TransElement] | None = None
                        ) -> dict[TransElement, float]:
    """|sum(w * grad)| per element; the cheap stand-in for removal loss."""
    return {el: abs(s) for el, s in taylor_signed_scores(model, data, elements).items()}


def oracle_significance(model: TransformerModel, data: TaskData,
                        elements: list[TransElement],
                        max_elements: int = 64) -> dict[TransElement, float]:
    """Train-split loss with each element removed one at a time, without
    fine-tuning. Exhaustive, so guarded to tiny models."""
    if len(elements) > max_elements:
        raise InfeasibleError(
            f"oracle significance over {len(elements)} elements exceeds the "
            f"guard of {max_elements}")
    return {el: evaluate_loss(model, ApproxPlan().with_skip(el), data.train)
            for el in elements}


def final_finetune(model: TransformerModel, plan: ApproxPlan, data: TaskData,
                   epochs: int, seed: int = 0, lr: float = DEFAULT_LR,
                   batch_size: int = DEFAULT_BATCH) -> TransformerModel:
    """Fine-tune the frozen plan for the baseline epoch budget.

    Only live parameters train; quantized bands stay frozen at their
    dequantized values. The best train-loss weights across epochs are
    returned, so the result is never worse on the train split than the
    plan-freeze state.
    """
    tuned = model.clone()
    if epochs == 0:
        return tuned
    rng = spawn_rng(seed, 3)
    best = tuned.clone()
    planned = PlannedModel(tuned, plan)
    best_loss = evaluate_loss(planned, None, data.train)
    for _ in range(epochs):
        train_epochs(planned, None, data.train, 1, rng, lr=lr, batch_size=batch_size)
        cur = evaluate_loss(planned, None, data.train)
        if cur < best_loss:
            best_loss = cur
            best = tuned.clone()
    return best
