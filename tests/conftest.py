import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads, as the benchmark does: the
# models are a few dozen wide, and with one BLAS thread per process the
# greedy loop may run its speculative helper on the second CPU.
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from slimformer import TaskSpec, TransformerConfig, build_model, generate_task, speculate


@pytest.fixture(autouse=True)
def own_split_worker():
    """Each test starts without a split worker and stops the one it started."""
    speculate.stop_split_worker()
    yield
    speculate.stop_split_worker()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config():
    """2 layers, 8 hidden, 2 heads: the workhorse unit-test model."""
    return TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                             context_len=8, vocab_size=6, task_kind="classification",
                             num_classes=5, weight_group_width=4, kv_group_width=4)


@pytest.fixture
def tiny_model(tiny_config):
    return build_model(tiny_config, 7)


@pytest.fixture
def causal_config():
    return TransformerConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                             context_len=8, vocab_size=6, autoregressive=True,
                             task_kind="language_model", weight_group_width=4,
                             kv_group_width=4)


@pytest.fixture
def causal_model(causal_config):
    return build_model(causal_config, 11)


@pytest.fixture
def majority_data():
    return generate_task(TaskSpec("majority_classification", vocab_size=5,
                                  context_len=8, train_size=96, seed=21))
