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

from slimformer import PlannedModel, sign_match_attention
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
