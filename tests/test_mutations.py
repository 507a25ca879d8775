"""Seeded mutations of every document the package reads: configs, plans and
checkpoint manifests. Each mutation sets one value to one of 24 JSON
values, deletes a key or adds one. A mutated document either loads or
raises its reader's typed error (ConfigError for a config, PlanError for a
plan or a checkpoint; the CLI exits 2 and 3), and an unknown key at any
level of a config is rejected. A checkpoint's `.bin` length is checked
before its model is built, so no case builds a large model."""

import copy
import json
import random
import time
import warnings

import pytest

from slimformer import (ATTN_BLOCK, FFN_GROUP, HEAD, KV_GROUP, ApproxPlan, ConfigError,
                        ExperimentConfig, GroupShrink, ModelShape, PlanError, Quantize,
                        SignMatch, TaskSpec, TransElement, build_model, load_checkpoint,
                        save_checkpoint)
from slimformer.cli import main

VALUES = [None, True, False, 0, 1, -1, 2, 3, 4, 8, 0.5, 2.0, -3.5, 10 ** 12, "", "x", "8",
          "copy", "speed", [], [1, 2], [["a"]], {}, {"k": 4}]
UNKNOWN = "unknown_key"
HUGE = 10 ** 12


def base_config() -> ExperimentConfig:
    return ExperimentConfig(
        task=TaskSpec("copy", vocab_size=6, context_len=9, train_size=64, seed=3),
        shape=ModelShape(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         weight_group_width=4, kv_group_width=3),
        eps_skip=0.2, eps_approx=0.5, sign_match_k=3, epochs_baseline=1)


def base_plan() -> ApproxPlan:
    return (ApproxPlan([TransElement(HEAD, 1, 0), TransElement(KV_GROUP, 0, 2)])
            .with_approx(TransElement(ATTN_BLOCK, 0), SignMatch(3))
            .with_approx(TransElement(ATTN_BLOCK, 1), GroupShrink(0, 1))
            .with_approx(TransElement(FFN_GROUP, 1, 1), Quantize(4)))


def paths(node, prefix=()):
    """The path of every value below node, each container's before its own."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, rng: random.Random):
    """A copy of doc with one change, and the change: ("set", path, value),
    ("add", path ending in UNKNOWN, value) or ("delete", path, None)."""
    doc = copy.deepcopy(doc)
    every = list(paths(doc))
    kind, value = rng.choice(("set", "delete", "add")), copy.deepcopy(rng.choice(VALUES))
    if kind == "add":
        objects = [()] + [p for p in every if isinstance(at(doc, p), dict)]
        path = rng.choice(objects) + (UNKNOWN,)
    elif kind == "delete":
        path, value = rng.choice([p for p in every if isinstance(at(doc, p[:-1]), dict)]), None
        del at(doc, path[:-1])[path[-1]]
        return doc, (kind, path, value)
    else:
        path = rng.choice(every)
    at(doc, path[:-1])[path[-1]] = value
    return doc, (kind, path, value)


def outcome(read, error):
    """None if read() returns, else the error it raised, which must be an
    instance of ``error``."""
    try:
        read()
    except Exception as exc:  # noqa: BLE001 -- any other type is the failure
        assert isinstance(exc, error), f"{type(exc).__name__}: {exc}"
        return exc
    return None


def test_config_mutations_raise_config_error_and_unknown_keys_fail():
    rng, doc, added = random.Random(31), base_config().to_doc(), set()
    for _ in range(300):
        mutated, (kind, path, _) = mutate(doc, rng)
        exc = outcome(lambda: ExperimentConfig.from_doc(mutated), ConfigError)
        if kind == "add":
            assert exc is not None and UNKNOWN in str(exc), path
            added.add(path[:-1])
    assert added >= {(), ("task",), ("model",), ("epochs",)}  # every level


def test_plan_mutations_raise_plan_error():
    rng, doc = random.Random(32), base_plan().to_doc()
    tcfg = base_config().transformer_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # early causal keys pruned
        for _ in range(300):
            mutated, (kind, path, _) = mutate(doc, rng)
            exc = outcome(lambda: ApproxPlan.from_doc(mutated).resolve(tcfg), PlanError)
            if kind == "add" and path[-2:-1] == ("params",):
                assert exc is not None and UNKNOWN in str(exc), path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A saved checkpoint of the base config's model and its manifest."""
    prefix = tmp_path_factory.mktemp("ckpt") / "model"
    json_path, _ = save_checkpoint(build_model(base_config().transformer_config(), 0), prefix)
    return prefix, json.loads(json_path.read_text())


def test_manifest_mutations_raise_plan_error(checkpoint):
    prefix, manifest = checkpoint
    rng = random.Random(33)
    try:
        for _ in range(150):
            mutated, (kind, path, _) = mutate(manifest, rng)
            prefix.with_suffix(".json").write_text(json.dumps(mutated))
            exc = outcome(lambda: load_checkpoint(prefix), PlanError)
            if kind == "add":  # the top level ignores other keys, as old manifests carry
                assert (exc is None) == (len(path) == 1), path
    finally:
        prefix.with_suffix(".json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["context_len", "ffn_dim", "num_layers", "hidden_dim",
                                 "vocab_size"])
def test_huge_manifest_rejected_before_building(tiny_model, tmp_path, key):
    """A size of 10^12 that the shape checks pass is caught by the length."""
    bad = tmp_path / "model"
    json_path, _ = save_checkpoint(tiny_model, bad)
    manifest = json.loads(json_path.read_text())
    json_path.write_text(json.dumps({**manifest, "config": {**manifest["config"], key: HUGE}}))
    t0 = time.perf_counter()
    with pytest.raises(PlanError, match="but the model's parameters take"):
        load_checkpoint(bad)
    assert time.perf_counter() - t0 < 1.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config().to_doc()))
    assert main(["evaluate", "--config", str(config), "--checkpoint", str(bad)]) == 3


def test_cli_exit_codes_of_rejected_documents(checkpoint, tmp_path, capsys):
    """--set mutations the config rejects exit 2 before anything runs;
    manifest mutations the loader rejects exit 3."""
    prefix, manifest = checkpoint
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config().to_doc()))
    out = tmp_path / "out"
    rng, doc, runs = random.Random(34), base_config().to_doc(), 0
    while runs < 40:
        mutated, (kind, path, value) = mutate(doc, rng)
        if kind == "delete" or any(isinstance(at(doc, path[:i]), list)
                                   for i in range(len(path))):
            continue  # --set only sets, and only through objects
        if outcome(lambda: ExperimentConfig.from_doc(mutated), ConfigError) is None:
            continue  # a valid config would train
        setting = f"{'.'.join(map(str, path))}={json.dumps(value)}"
        assert main(["optimize", "--config", str(config), "--out", str(out),
                     "--set", setting]) == 2, setting
        assert not out.exists()
        runs += 1
    bad, runs = tmp_path / "model", 0
    bad.with_suffix(".bin").write_bytes(prefix.with_suffix(".bin").read_bytes())
    while runs < 20:
        mutated, _ = mutate(manifest, rng)
        bad.with_suffix(".json").write_text(json.dumps(mutated))
        if outcome(lambda: load_checkpoint(bad), PlanError) is None:
            continue
        assert main(["evaluate", "--config", str(config), "--checkpoint", str(bad)]) == 3
        runs += 1
    assert capsys.readouterr().err.count("error") >= 60
