"""The benchmark's view of the package: every name that perfbench/ imports,
wraps or calls must still exist and accept what the benchmark passes.

perfbench/ is read here, never edited; its modules are loaded from their
files so they do not shadow the test helpers on sys.path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from slimformer import (ExperimentConfig, PlannedModel, TaskSpec, build_model,
                        evaluate_accuracy, generate_task, sign_match_attention)
from slimformer.tensor import no_grad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")


@pytest.mark.parametrize("layer,owner,attr,name", tracer.SPAN_TARGETS,
                         ids=[t[3] for t in tracer.SPAN_TARGETS])
def test_span_target_resolves(layer, owner, attr, name):
    home = importlib.import_module(f"slimformer.{layer}")
    if owner is None:
        assert callable(getattr(home, attr))
    else:
        assert callable(vars(getattr(home, owner))[attr])


@pytest.mark.parametrize("layer,attr,name", tracer.LEAF_TARGETS,
                         ids=[f"{t[0]}.{t[1]}" for t in tracer.LEAF_TARGETS])
def test_leaf_target_resolves(layer, attr, name):
    assert callable(getattr(importlib.import_module(f"slimformer.{layer}"), attr))


@pytest.mark.parametrize("name", ["scenarios", "checks"])
def test_benchmark_module_imports(name):
    load(name)


def test_sign_match_attention_takes_counter():
    """The tracer injects counter= into calls made without one."""
    param = inspect.signature(sign_match_attention).parameters["counter"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    assert param.default is None


def test_serve_inputs_build_every_plan():
    scenarios = load("scenarios")
    tokens, planned = scenarios.serve_inputs(0, batch=2)
    assert list(planned) == list(scenarios.PLAN_NAMES)
    with no_grad():
        for model in planned.values():
            assert isinstance(model, PlannedModel)
            logits, _ = model.forward(tokens)
            assert np.isfinite(logits.data).all()


def test_cost_check_passes_on_every_serve_plan():
    """checks.check_plan recomputes cost_from_views(tcfg, plan.resolve(tcfg))
    from plan.json; it must agree with the bound model's own cost."""
    scenarios, checks = load("scenarios"), load("checks")
    tcfg = scenarios.serve_config()
    _, planned = scenarios.serve_inputs(0, batch=2)
    for name, model in planned.items():
        report = SimpleNamespace(optimized=model.cost())
        assert checks.check_plan(model.plan.to_json(), tcfg, report) == [], name


def test_accuracy_of_model_and_plan():
    """The reload check calls evaluate_accuracy(model, plan, split); on the
    serve quant plan it is the exact-match rate of the bound forward."""
    scenarios = load("scenarios")
    cfg = scenarios.serve_config()
    model = build_model(cfg, 0)
    plan = scenarios.serve_plans(cfg)["quant"]
    val = generate_task(TaskSpec("toy_lm", cfg.vocab_size - 1, cfg.context_len,
                                 train_size=200, seed=0)).val
    with no_grad():
        logits = PlannedModel(model, plan).forward(val.tokens)[0].data
    pred = logits.argmax(axis=-1)[:, :val.labels.shape[1]]
    live = val.labels >= 0
    want = (pred[live] == val.labels[live]).sum() / live.sum()
    assert evaluate_accuracy(model, plan, val) == want


def test_benchmark_configs_load():
    """The benchmark's configs and plans pass every field rule, and its
    configs load back from their documents: a bound tightened past them
    fails here, before a benchmark run would."""
    scenarios = load("scenarios")
    for focus in ("speed", "size"):
        for smoke in (False, True):
            config = scenarios.optimize_config(focus, smoke)
            assert ExperimentConfig.from_doc(config.to_doc()) == config
    assert list(scenarios.serve_plans(scenarios.serve_config())) == list(scenarios.PLAN_NAMES)
