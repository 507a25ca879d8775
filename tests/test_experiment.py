"""Experiment orchestration, reports, baseline comparison, sweep, CLI."""

import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from slimformer import (KV_GROUP, ApproxPlan, ExperimentConfig, Focus, InfeasibleError,
                        ModelShape, TaskSpec, TransElement, compare_baselines,
                        run_experiment, sweep_thresholds)
from slimformer.cli import main


def copy_config(**kw):
    """A one-layer copy task that optimizes in well under a second."""
    defaults = dict(
        task=TaskSpec("copy", vocab_size=8, context_len=15, train_size=64, seed=5),
        shape=ModelShape(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32,
                         weight_group_width=4, kv_group_width=5),
        seed=1, epochs_baseline=1, epochs_candidate=0, epochs_final=0, lr=0.01,
        eps_skip=0.1, eps_approx=2.0, sign_match_k=8)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def small_config(focus=Focus.SPEED, **kw):
    defaults = dict(
        task=TaskSpec("majority_classification", vocab_size=4, context_len=8,
                      train_size=96, seed=17),
        shape=ModelShape(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         weight_group_width=4, kv_group_width=4),
        focus=focus, eps_skip=0.3,
        seed=2, epochs_baseline=4, epochs_candidate=1, epochs_final=4, lr=0.01)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def speed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("speed_run")
    report = run_experiment(small_config(), out)
    return report, out


class TestRunExperiment:
    def test_artifacts_written(self, speed_run):
        _, out = speed_run
        for name in ("config.json", "report.json", "plan.json", "decisions.jsonl",
                     "elements.json", "baseline.json", "baseline.bin",
                     "model.json", "model.bin"):
            assert (out / name).exists(), name

    def test_speed_focus_reduces_macs_keeps_accuracy(self, speed_run):
        report, _ = speed_run
        assert report.optimized.mac_count < report.baseline.mac_count
        assert report.optimized.accuracy >= 0.9 * report.baseline.accuracy

    def test_ratios_recomputable(self, speed_run):
        report, out = speed_run
        doc = json.loads((out / "report.json").read_text())
        assert doc["ratios"]["mac"] == pytest.approx(
            doc["baseline"]["mac_count"] / doc["optimized"]["mac_count"], abs=1e-12)
        assert doc["ratios"]["bytes"] == pytest.approx(
            doc["baseline"]["bytes"] / doc["optimized"]["bytes"], abs=1e-12)

    def test_histogram_sums_to_plan_sizes(self, speed_run):
        report, out = speed_run
        doc = json.loads((out / "report.json").read_text())
        total = sum(r["skipped"] + r["approximated"] for r in doc["per_layer_histogram"])
        assert total == (doc["plan_summary"]["skiplist_size"]
                         + doc["plan_summary"]["approxlist_size"])

    def test_decision_log_feasibility(self, speed_run):
        _, out = speed_run
        for line in (out / "decisions.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if rec["decision"] == "skip":
                assert rec["train_loss"] <= rec["thresholds"]["train"]["skip"]
                assert rec["val_loss"] <= rec["thresholds"]["val"]["skip"]

    def test_plan_summary_uses_plan_variant_names(self, speed_run):
        _, out = speed_run
        doc = json.loads((out / "report.json").read_text())
        plan = json.loads((out / "plan.json").read_text())
        variants = {entry["variant"] for entry in plan["approx"]}
        assert variants  # the speed run approximates something
        assert set(doc["plan_summary"]["approximated"]) == variants

    def test_accuracy_focus_bars_track_best_accepted_loss(self, tmp_path):
        """Under accuracy focus both bars of every record equal the running
        minimum of the baseline loss and the losses of earlier accepted
        skips, per split."""
        config = small_config(Focus.ACCURACY, epochs_baseline=2, epochs_candidate=2)
        report = run_experiment(config, tmp_path)
        best = {"train": report.baseline.train_loss, "val": report.baseline.val_loss}
        accepted = 0
        for line in (tmp_path / "decisions.jsonl").read_text().splitlines():
            rec = json.loads(line)
            for split, bar in best.items():
                assert rec["thresholds"][split] == {"skip": bar, "approx": bar}
            if rec["decision"] == "skip":
                accepted += 1
                best = {"train": min(best["train"], rec["train_loss"]),
                        "val": min(best["val"], rec["val_loss"])}
        assert accepted >= 2  # a lowered bar is checked on later records
        assert best["val"] < report.baseline.val_loss

    def test_accuracy_focus_never_worse(self, tmp_path):
        config = small_config(focus=Focus.ACCURACY, epochs_candidate=1)
        report = run_experiment(config, tmp_path / "acc")
        assert report.optimized.val_loss <= report.baseline.val_loss + 1e-9

    def test_size_focus_shrinks_bytes(self, tmp_path):
        config = small_config(focus=Focus.SIZE)
        report = run_experiment(config, tmp_path / "size")
        assert report.optimized.bytes < report.baseline.bytes

    def test_quant_bits_reach_the_plan(self, tmp_path):
        run_experiment(small_config(Focus.SIZE, quant_bits=4), tmp_path / "q4")
        plan = json.loads((tmp_path / "q4" / "plan.json").read_text())
        assert plan["approx"] == [{"element": "ffn_block:0:0", "params": {"bits": 4},
                                   "variant": "quantize"}]

    @pytest.mark.filterwarnings("ignore:.*first quarter of a causal context")
    def test_lm_report_includes_perplexity(self, tmp_path):
        config = small_config(
            task=TaskSpec("toy_lm", vocab_size=5, context_len=8, train_size=96,
                          seed=19),
            epochs_baseline=6, epochs_final=6)
        report = run_experiment(config, tmp_path / "lm")
        assert report.baseline.perplexity == pytest.approx(
            np.exp(report.baseline.val_loss))

    def test_plan_warnings_print_once(self, tmp_path):
        """Under the default filter a run prints each early-quarter key
        warning once: the analyzer's check of each candidate warns, and
        binding a plan for training or evaluation does not."""
        config = small_config(
            task=TaskSpec("toy_lm", vocab_size=5, context_len=8, train_size=96,
                          seed=19),
            epochs_baseline=6, epochs_final=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_experiment(config, tmp_path / "lm")
        printed = Counter(str(w.message) for w in caught if "first quarter" in str(w.message))
        assert printed and set(printed.values()) == {1}

    def test_stage_error_carries_stage_name(self, tmp_path, monkeypatch):
        import slimformer.experiment
        from slimformer import ConfigError, StageError

        def fail(spec):
            raise ConfigError("no data")

        monkeypatch.setattr(slimformer.experiment, "generate_task", fail)
        with pytest.raises(StageError, match="generate_task"):
            run_experiment(small_config(), tmp_path / "boom")


class TestDeterminism:
    def test_back_to_back_runs_byte_identical(self, tmp_path):
        config = small_config(epochs_baseline=2, epochs_candidate=1, epochs_final=2)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        for name in ("plan.json", "decisions.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert set(ra.pop("timings")) == {"baseline_wall_ms", "optimized_wall_ms",
                                          "wall_ratio"}
        rb.pop("timings")
        assert ra == rb


class TestCompareBaselines:
    def test_four_rows_shared_baseline(self, tmp_path):
        config = small_config(focus=Focus.ACCURACY, epochs_candidate=1,
                              epochs_baseline=3)
        result = compare_baselines(config, tmp_path / "cmp")
        methods = [r["method"] for r in result["rows"]]
        assert methods == ["greedy_heuristic", "greedy_plain", "oracle", "taylor"]
        assert (tmp_path / "cmp" / "comparison.json").exists()
        assert result["baseline"]["train_loss"] > 0

    def test_heuristics_evaluate_fewer_candidates(self, tmp_path):
        config = small_config(focus=Focus.SPEED, epochs_candidate=0,
                              epochs_baseline=3)
        result = compare_baselines(config)
        rows = {r["method"]: r for r in result["rows"]}
        assert (rows["greedy_heuristic"]["candidates_evaluated"]
                <= rows["greedy_plain"]["candidates_evaluated"])

    def test_speed_scan_prunes_count_as_removed(self, speed_run):
        """small_config's speed scan prunes both groups of one FFN block,
        which the plan holds as one GroupShrink; the greedy row still counts
        them, so the oracle is matched at the same removal count."""
        _, out = speed_run
        records = [json.loads(line)
                   for line in (out / "decisions.jsonl").read_text().splitlines()]
        accepted = sum(rec["decision"] == "skip" for rec in records)
        plan = json.loads((out / "plan.json").read_text())
        assert (accepted, len(plan["skip"])) == (5, 3)
        result = compare_baselines(small_config(comparators=("greedy_heuristic", "oracle")))
        assert [r["elements_removed"] for r in result["rows"]] == [5, 5]

    def test_size_guard(self):
        config = small_config(max_oracle_elements=3)
        with pytest.raises(InfeasibleError, match="guard"):
            compare_baselines(config)

    def test_comparator_flags_filter_rows(self):
        config = small_config(focus=Focus.ACCURACY, epochs_baseline=2,
                              epochs_candidate=0,
                              comparators=("greedy_heuristic", "taylor"))
        result = compare_baselines(config)
        assert [r["method"] for r in result["rows"]] == ["greedy_heuristic", "taylor"]


class TestSweep:
    def test_rows_csv_and_zero_eps_boundary(self, tmp_path):
        config = small_config(epochs_baseline=2, epochs_candidate=0, epochs_final=0)
        rows = sweep_thresholds(config, [0.0, (0.3, 0.6)], tmp_path / "sweep")
        assert len(rows) == 2
        csv_text = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert csv_text[0] == "eps_skip,eps_approx,accuracy,mac_ratio,bytes_ratio"
        assert len(csv_text) == 3
        zero = rows[0]
        assert zero["eps_skip"] == 0.0
        assert zero["mac_ratio"] >= 1.0 - 1e-9
        # logged, not hard-asserted: mac_ratio trend in eps_skip
        assert rows[1]["mac_ratio"] >= zero["mac_ratio"] - 0.25

    def test_parallel_matches_serial(self, tmp_path):
        config = small_config(epochs_baseline=2, epochs_candidate=1, epochs_final=1)
        pairs = [0.1, (0.3, 0.5)]
        for workers in (1, 2):
            sweep_thresholds(config, pairs, tmp_path / f"w{workers}", workers=workers)
        assert ((tmp_path / "w1" / "sweep.csv").read_bytes()
                == (tmp_path / "w2" / "sweep.csv").read_bytes())
        for run in ("run_000", "run_001"):
            for name in ("plan.json", "decisions.jsonl"):
                assert ((tmp_path / "w1" / run / name).read_bytes()
                        == (tmp_path / "w2" / run / name).read_bytes()), (run, name)

    def test_bare_epsilon_takes_the_default_pair(self, tmp_path):
        """A bare f runs, and writes, exactly what the pair (f, 2f) does."""
        config = small_config(epochs_baseline=1, epochs_candidate=0, epochs_final=0)
        sweep_thresholds(config, [0.15], tmp_path / "bare")
        sweep_thresholds(config, [(0.15, 0.3)], tmp_path / "pair")
        assert ((tmp_path / "bare" / "sweep.csv").read_bytes()
                == (tmp_path / "pair" / "sweep.csv").read_bytes())

    def test_empty_list_rejected(self, tmp_path):
        from slimformer import ConfigError
        with pytest.raises(ConfigError, match="nonempty"):
            sweep_thresholds(small_config(), [], tmp_path / "x")


class TestConfigRoundtrip:
    def test_doc_roundtrip(self):
        config = small_config()
        again = ExperimentConfig.from_doc(config.to_doc())
        assert again.to_doc() == config.to_doc()

    def test_focus_parse_takes_names_and_members(self):
        from slimformer import ConfigError
        assert Focus.parse("SIZE") is Focus.parse(Focus.SIZE) is Focus.SIZE
        for bad in ("fast", 5):
            with pytest.raises(ConfigError, match="unknown focus"):
                Focus.parse(bad)

    def test_missing_task_rejected(self):
        from slimformer import ConfigError
        with pytest.raises(ConfigError, match="task"):
            ExperimentConfig.from_doc({})

    def test_unknown_top_level_keys_rejected(self):
        from slimformer import ConfigError
        for key in ("qat_enabled", "train_loss_only", "max_degradation"):
            doc = {**small_config().to_doc(), key: False}
            with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\] in config$"):
                ExperimentConfig.from_doc(doc)


class TestCli:
    def write_config(self, path: Path, make=small_config, **kw) -> Path:
        doc = make(**kw).to_doc()
        cfg = path / "config.json"
        cfg.write_text(json.dumps(doc))
        return cfg

    def test_train_and_evaluate(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "baseline.json").exists()
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(out / "baseline")])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert {"train_loss", "val_loss", "accuracy", "mac_count"} <= set(result)

    def test_optimize_writes_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs_baseline=2, epochs_candidate=0,
                                epochs_final=0)
        out = tmp_path / "opt_out"
        code = main(["optimize", "--config", str(cfg), "--out", str(out),
                     "--set", "focus=speed", "--set", "eps_skip=0.4"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "baseline" in report and "optimized" in report
        first = json.loads((out / "decisions.jsonl").read_text().splitlines()[0])
        assert first["thresholds"]["val"] == {  # the overridden eps_skip sets the bars
            "skip": report["baseline"]["val_loss"] * (1.0 + 0.4),
            "approx": report["baseline"]["val_loss"] * (1.0 + 0.8)}
        capsys.readouterr()
        # evaluate the optimized checkpoint under the produced plan
        code = main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(out / "model"),
                     "--plan", str(out / "plan.json")])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["mac_count"] == report["optimized"]["mac_count"]

    @pytest.mark.parametrize("make", [copy_config, lambda: small_config(
        epochs_baseline=2, epochs_candidate=0, epochs_final=1)], ids=["copy", "majority"])
    def test_run_directory_round_trip(self, tmp_path, capsys, make):
        """evaluate of a run's final checkpoint under its plan prints the
        report's optimized bundle, and train on the run's config writes its
        baseline bundle, both exactly."""
        cfg = self.write_config(tmp_path, make=make)
        run = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg), "--out", str(run)]) == 0
        report = json.loads((run / "report.json").read_text())
        assert ("perplexity" in report["optimized"]) == (make is copy_config)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(run / "config.json"), "--checkpoint",
                     str(run / "model"), "--plan", str(run / "plan.json")]) == 0
        assert json.loads(capsys.readouterr().out) == report["optimized"]
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(run / "config.json"), "--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text()) == report["baseline"]

    def test_overflowing_perplexity_is_left_out(self, tmp_path):
        """At lr=50 the copy model's val loss is in the tens of thousands;
        exp of it overflows a float, so the token task's bundles carry no
        perplexity and the run still writes its report."""
        cfg = self.write_config(tmp_path, make=copy_config)
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg), "--out", str(out),
                     "--set", "lr=50"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["baseline"]["val_loss"] > 1000
        assert "perplexity" not in report["baseline"]
        assert "perplexity" not in report["optimized"]

    def test_evaluate_warns_once_of_pruned_early_keys(self, tmp_path):
        """A plan read by ``evaluate --plan`` that prunes early causal keys
        warns once, though it is bound and evaluated several times."""
        cfg = self.write_config(
            tmp_path, task=TaskSpec("toy_lm", vocab_size=5, context_len=8, train_size=96,
                                    seed=19), epochs_baseline=1)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text(ApproxPlan([TransElement(KV_GROUP, 0, 0)]).to_json())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", "--config", str(cfg), "--checkpoint",
                         str(out / "baseline"), "--plan", str(plan)])
        assert code == 0
        printed = [str(w.message) for w in caught if "first quarter" in str(w.message)]
        assert len(printed) == 1 and printed[0].startswith("layer 0:")

    def test_set_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "ovr_out"
        code = main(["train", "--config", str(cfg), "--out", str(out),
                     "--set", "epochs.baseline=1", "--set", "seed=5"])
        assert code == 0

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["train", "--config", str(missing), "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{\"task\": {\"kind\": \"nonsense\", \"vocab_size\": 4, "
                       "\"context_len\": 8, \"train_size\": 10}}")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2
        bad.write_text("[]")  # valid JSON, not an object
        assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("section, key", [("model", "num_layer"),
                                              ("epochs", "baselin")])
    def test_unknown_section_key_exit_code(self, tmp_path, capsys, section, key):
        cfg = self.write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "t"),
                     "--set", f"{section}.{key}=2"])
        assert code == 2
        assert f"unknown key(s) ['{key}'] in config section '{section}'" in \
            capsys.readouterr().err

    def test_alias_flags_are_gone(self, capsys):
        """focus, eps_skip and seed are set with --set, as every other field."""
        for command in ("train", "optimize", "evaluate", "compare-baselines", "sweep"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out
            for flag in ("--focus", "--eps-skip", "--seed"):
                assert flag not in usage, (command, flag)

    def test_evaluate_missing_inputs_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs_baseline=1)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "nope")])
        assert code == 2
        assert "config error: checkpoint file not found" in capsys.readouterr().err
        code = main(["evaluate", "--config", str(cfg), "--checkpoint", str(out / "baseline"),
                     "--plan", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error: plan file not found" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, epochs_baseline=1)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "baseline.bin").write_bytes((out / "baseline.bin").read_bytes()[:-8])
        assert main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(out / "baseline")]) == 3

    def test_malformed_manifest_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, epochs_baseline=1)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "baseline.json").read_text())
        bad_configs = [{"bogus": 1}, {"hidden_dim": "x"}, {"context_len": 8.0}]
        docs = [{"dtype": "<f8"}] + [
            {**manifest, "config": {**manifest["config"], **bad}} for bad in bad_configs]
        for doc in docs:
            (out / "baseline.json").write_text(json.dumps(doc))
            assert main(["evaluate", "--config", str(cfg),
                         "--checkpoint", str(out / "baseline")]) == 3, doc.get("config")

    @pytest.mark.parametrize("override, field", [
        ("task.vocab_size=9", "vocab_size"), ("task.vocab_size=4", "vocab_size"),
        ("task.kind=majority_classification", "task_kind"),
        ("task.kind=toy_lm", "task_kind"), ("task.context_len=15", "context_len"),
        ("model.num_layers=2", "num_layers"), ("model.hidden_dim=16", "hidden_dim"),
        ("model.num_heads=4", "num_heads"), ("model.ffn_dim=8", "ffn_dim"),
        ("model.weight_group_width=2", "weight_group_width"),
        ("model.kv_group_width=1", "kv_group_width"),
        ("task.kind=parity_classification", "num_classes")])
    def test_checkpoint_of_another_task_exit_code(self, tmp_path, capsys, override, field):
        """A copy checkpoint, or a majority one for the class count, fails
        on a config that differs in one field."""
        kind = "majority_classification" if field == "num_classes" else "copy"
        task = TaskSpec(kind, vocab_size=6, context_len=9, train_size=64, seed=3)
        cfg = self.write_config(tmp_path, task=task, epochs_baseline=1, shape=ModelShape(
            num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
            weight_group_width=4, kv_group_width=3))
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        evaluate = ["evaluate", "--config", str(cfg), "--checkpoint", str(out / "baseline")]
        assert main(evaluate + ["--set", "task.context_len=3"]) == 0  # shorter: padded
        capsys.readouterr()
        assert main(evaluate + ["--set", override]) == 3
        assert f"error: checkpoint {field} is " in capsys.readouterr().err

    def test_malformed_plan_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs_baseline=1)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        plan = tmp_path / "plan.json"
        for text in ("{not json", '{"skip": ["head:0:7"], "approx": []}'):
            plan.write_text(text)
            assert main(["evaluate", "--config", str(cfg), "--checkpoint",
                         str(out / "baseline"), "--plan", str(plan)]) == 3
        assert capsys.readouterr().err.count("error: ") == 2

    def test_infeasible_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, max_oracle_elements=2)
        code = main(["compare-baselines", "--config", str(cfg),
                     "--out", str(tmp_path / "cmp")])
        assert code == 3

    BAD_VALUES = [  # (override, what the error names)
        ("quant_bits=3", "quant_bits"), ("sign_match_k=-1", "sign_match_k"),
        ("sign_match_k=0", "sign_match_k"), ("sign_match_k=9", "sign_match_k"),
        ("epochs.baseline=-1", "epochs_baseline"), ("lr=-1", "lr"), ("lr=0", "lr"),
        ("batch_size=0", "batch_size"), ('comparators=["oracel","taylor"]', "comparator"),
        # small_config sets eps_skip=0.3
        ("eps_approx=0.1", "eps_skip <= eps_approx"), ("eps_skip=-1", "eps_skip <= eps_approx"),
        ("max_degradation=-1", "unknown key(s) ['max_degradation'] in config"),
        ("max_degradation=0.1", "unknown key(s) ['max_degradation'] in config"),
        ("eps_skp=0.5", "unknown key(s) ['eps_skp'] in config"),  # not run with the default
        ('seed="0"', "seed"), ('epochs.baseline="abc"', "epochs_baseline"),
        ("epochs.final=1.5", "epochs_final"), ('lr="x"', "lr"), ("lr=null", "lr"),
        ("batch_size=true", "batch_size"), ('eps_skip="0.1"', "eps_skip"),
        ("eps_approx=[1]", "eps_approx"), ("sign_match_k=2.0", "sign_match_k"),
        ('quant_bits="8"', "quant_bits"), ("max_oracle_elements={}", "max_oracle_elements"),
        ("comparators=5", "comparators"), ('model.hidden_dim="x"', "hidden_dim"),
        ("seed=-1", "seed"), ("task.train_size=40.5", "train_size"),
        ("task.seed=-3", "seed"), ("model.num_heads=0", "num_heads"),
        ("task.train_size=0", "train_size"), ("task.train_size=-5", "train_size"),
        ("lr=Infinity", "lr"), ("eps_skip=Infinity", "eps_skip"),
        ("eps_approx=Infinity", "eps_approx")]

    @pytest.mark.parametrize("override, named", BAD_VALUES, ids=[o for o, _ in BAD_VALUES])
    def test_bad_config_value_fails_at_load(self, tmp_path, capsys, override, named):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "opt_out"
        code = main(["optimize", "--config", str(cfg), "--out", str(out),
                     "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not out.exists()  # rejected before the baseline trains

    def test_sweep_bad_epsilon_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep_out"
        for args, message in ((["--epsilons", "0.1,abc"], "bad --epsilons entry 'abc'"),
                              (["--epsilons", "0.1,0.3:0.1"],
                               "need 0 <= eps_skip <= eps_approx, got 0.3 and 0.1"),
                              (["--epsilons", "0.1", "--workers", "0"],
                               "workers must be >= 1"),
                              (["--epsilons", "inf"], "eps_skip must be finite, got inf")):
            code = main(["sweep", "--config", str(cfg), "--out", str(out), *args])
            assert code == 2
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (out / "run_000").exists()  # rejected before the first run

    def test_sweep_cli(self, tmp_path):
        cfg = self.write_config(tmp_path, epochs_baseline=1, epochs_candidate=0,
                                epochs_final=0)
        out = tmp_path / "sweep_out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--epsilons", "0.1,0.2:0.5"])
        assert code == 0
        assert (out / "sweep.csv").exists()


class TestSharedBaseline:
    """train, optimize and compare-baselines start from one baseline."""

    def test_train_and_optimize_write_identical_baseline(self, tmp_path):
        cfg = TestCli().write_config(tmp_path, epochs_baseline=2, epochs_candidate=0,
                                     epochs_final=0)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "baseline.bin").read_bytes()
                == (tmp_path / "b" / "baseline.bin").read_bytes())

    def test_compare_baselines_matches_run_experiment(self, tmp_path):
        config = small_config(epochs_baseline=2, epochs_candidate=0, epochs_final=0,
                              comparators=("greedy_heuristic",))
        report = run_experiment(config, tmp_path / "run")
        baseline = compare_baselines(config)["baseline"]
        assert baseline["train_loss"] == report.baseline.train_loss
        assert baseline["val_loss"] == report.baseline.val_loss
