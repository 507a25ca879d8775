"""Seeded mutations of every document the package reads: configs, plans and
checkpoint manifests. Each mutation sets one value to one of 27 JSON
values, deletes a key or adds one. A mutated document either loads or
raises its reader's typed error (ConfigError for a config, PlanError for a
plan or a checkpoint; the CLI exits 2 and 3), and an unknown key at any
level of a config or a plan is rejected. A checkpoint's `.bin` length is
checked before its model is built, so no case builds a large model."""

import copy
import json
import math
import random
import time
import warnings
from dataclasses import fields, replace

import pytest

from slimformer import (ATTN_BLOCK, FFN_GROUP, HEAD, KV_GROUP, ApproxPlan, ConfigError,
                        ExperimentConfig, GroupShrink, ModelShape, PlanError, Quantize,
                        SignMatch, TaskSpec, TransElement, build_model, load_checkpoint,
                        save_checkpoint)
from slimformer.cli import main

VALUES = [None, True, False, 0, 1, -1, 2, 3, 4, 8, 0.5, 2.0, -3.5, 10 ** 12, "", "x", "8",
          "copy", "speed", [], [1, 2], [["a"]], {}, {"k": 4}, math.inf, -math.inf, math.nan]
NON_FINITE = [math.inf, -math.inf, math.nan, 10 ** 400]  # the last is past the float range
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
    rng, doc, added = random.Random(32), base_plan().to_doc(), set()
    tcfg = base_config().transformer_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # early causal keys pruned
        for _ in range(300):
            mutated, (kind, path, _) = mutate(doc, rng)
            exc = outcome(lambda: ApproxPlan.from_doc(mutated).resolve(tcfg), PlanError)
            if kind == "add":
                assert exc is not None and UNKNOWN in str(exc), path
                added.add(len(path))
    assert added == {1, 3, 4}  # every level: the top, an approx entry, its params


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


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_non_bool_autoregressive_rejected(checkpoint, tmp_path, value):
    """A bool field takes only true or false; "no" would be truthy and load
    a causal model."""
    prefix, manifest = checkpoint
    bad = tmp_path / "model"
    bad.with_suffix(".bin").write_bytes(prefix.with_suffix(".bin").read_bytes())
    bad.with_suffix(".json").write_text(json.dumps(
        {**manifest, "config": {**manifest["config"], "autoregressive": value}}))
    with pytest.raises(PlanError, match="autoregressive must be of type bool"):
        load_checkpoint(bad)
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


def declared_bounds():
    """(instance, its error, field, value) for every ``bounded`` field of
    the six checked classes: one value below the field's low, one outside
    its choices."""
    config = base_config()
    for obj, error in ((config.transformer_config(), ConfigError), (config.task, ConfigError),
                       (config, ConfigError), (Quantize(4), PlanError),
                       (SignMatch(3), PlanError), (GroupShrink(0, 1), PlanError)):
        for f in fields(obj):
            low, choices = f.metadata.get("low"), f.metadata.get("choices")
            if low is not None:
                yield obj, error, f.name, low - 1
            if choices is not None:
                outside = type(choices[0])()  # "" or 0, in no declared choices
                yield obj, error, f.name, [outside] if f.type.startswith("tuple") else outside


DECLARED = list(declared_bounds())


@pytest.mark.parametrize("obj, error, name, value", DECLARED,
                         ids=[f"{type(o).__name__}.{n}={v!r}" for o, _, n, v in DECLARED])
def test_declared_bounds_raise_naming_the_field(obj, error, name, value):
    with pytest.raises(error, match=rf"\b{name}\b"):
        replace(obj, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan", "10**400"])
@pytest.mark.parametrize("path", [("lr",), ("eps_skip",), ("eps_approx",),
                                  ("task", "val_fraction")], ids=".".join)
def test_non_finite_numbers_raise_config_error(path, value):
    doc = base_config().to_doc()
    at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError, match=f"{path[-1]} must be finite"):
        ExperimentConfig.from_doc(doc)


def test_set_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    """json reads no integer of more than 4300 digits; --set keeps it as
    the string, which the field rule rejects."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config().to_doc()))
    assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--set", "lr=" + "9" * 5000]) == 2
    assert "lr must be of type float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("damage", ["not_utf8", "directory"])
@pytest.mark.parametrize("kind", ["config", "plan", "manifest"])
def test_unreadable_files_exit_with_their_codes(checkpoint, tmp_path, capsys, kind, damage):
    """A file that cannot be read exits 2; bytes that are not UTF-8 exit 2
    in a config and 3 in a plan or a checkpoint manifest."""
    prefix, manifest = checkpoint
    files = {"config": tmp_path / "config.json", "plan": tmp_path / "plan.json",
             "manifest": tmp_path / "model.json"}
    files["config"].write_text(json.dumps(base_config().to_doc()))
    files["plan"].write_text(base_plan().to_json())
    files["manifest"].write_text(json.dumps(manifest))
    (tmp_path / "model.bin").write_bytes(prefix.with_suffix(".bin").read_bytes())
    files[kind].unlink()
    if damage == "directory":
        files[kind].mkdir()
    else:
        files[kind].write_bytes(b'{"seed": "\xff"}')
    code = main(["evaluate", "--config", str(files["config"]),
                 "--checkpoint", str(tmp_path / "model"), "--plan", str(files["plan"])])
    assert code == (3 if damage == "not_utf8" and kind != "config" else 2)
    message = "unreadable" if damage == "directory" else "not JSON in UTF-8"
    assert message in capsys.readouterr().err
