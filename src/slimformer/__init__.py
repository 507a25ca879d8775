"""slimformer: shrink toy transformers by greedy significance analysis.

Train a small transformer on a synthetic task, walk a heuristically ordered
queue of its elements (blocks, heads, weight groups, key/value position
groups), and prune or approximate whatever the loss thresholds allow:
residual block skipping, head pruning, contiguous weight-group
shrinking, group quantization, key/value position-group pruning and
linear-time sign-matching attention.
"""

from .config import TransformerConfig
from .costs import CostModel
from .elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD, KV_GROUP,
                       QKV_GROUP, ElementQueue, TransElement, encompass_filter,
                       enumerate_elements, order_queue)
from .errors import ConfigError, InfeasibleError, PlanError, StageError
from .experiment import (ExperimentConfig, MetricsBundle, ModelShape, RunReport,
                         compare_baselines, run_experiment, sweep_thresholds,
                         train_baseline)
from .focus import Focus, FocusMode
from .model import (PlannedModel, TransformerModel, build_model, load_checkpoint,
                    measure_latency, save_checkpoint)
from .optim import Adam
from .plan import (ApproxPlan, GroupShrink, Quantize, QuantizedGroup, SignMatch,
                   quantize_dequantize, quantize_group)
from .significance import (GreedyAnalyzer, evaluate_candidate, final_finetune,
                           oracle_significance, taylor_significance)
from .signmatch import (OpCounter, causal_select, representative_sign,
                        score_keys, select_topk, sign_match_attention)
from .tasks import Dataset, TaskData, TaskSpec, generate_task
from .tensor import (Tensor, cross_entropy, full_attention, layer_norm, make_rng,
                     no_grad, spawn_rng)
from .training import evaluate_accuracy, evaluate_loss, train_epochs

__version__ = "0.1.0"

__all__ = [
    "Adam", "ApproxPlan", "ATTN_BLOCK", "CostModel",
    "ConfigError", "Dataset", "ElementQueue", "ExperimentConfig", "FFN_BLOCK",
    "FFN_GROUP", "Focus", "FocusMode", "GreedyAnalyzer", "GroupShrink", "HEAD",
    "InfeasibleError", "KV_GROUP", "MetricsBundle", "ModelShape",
    "OpCounter", "PlanError", "PlannedModel", "QKV_GROUP", "Quantize",
    "QuantizedGroup", "RunReport", "SignMatch", "StageError", "TaskData",
    "TaskSpec", "Tensor", "TransElement", "TransformerConfig", "TransformerModel",
    "build_model", "causal_select", "compare_baselines", "cross_entropy",
    "encompass_filter", "enumerate_elements", "evaluate_accuracy", "evaluate_candidate",
    "evaluate_loss", "final_finetune", "full_attention", "generate_task",
    "layer_norm", "load_checkpoint", "make_rng", "measure_latency", "no_grad",
    "oracle_significance", "order_queue", "quantize_dequantize", "quantize_group",
    "representative_sign", "run_experiment", "save_checkpoint", "score_keys",
    "select_topk", "sign_match_attention", "spawn_rng", "sweep_thresholds",
    "taylor_significance", "train_baseline", "train_epochs",
]
