import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fusepool
from fusepool import evaluation, fusion
from fusepool.cli import main
from fusepool.corpus import Corpus, EpisodeRecord, RawPass, TaskKind, load_corpus, save_corpus
from fusepool.synthetic import correlated_pool, oeq_pool, separable_confidences


@pytest.fixture
def pool_corpus(tmp_path):
    path = tmp_path / "pool.jsonl"
    save_corpus(correlated_pool(6, 200, seed=0), path)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestPipeline:
    def test_full_pipeline_exit_zero(self, tmp_path, pool_corpus, capsys):
        out = tmp_path / "run"
        assert run("prune", "--corpus", pool_corpus, "--out", out,
                   "--topk", "5", "--w1", "0.6", "--w2", "0.4", "--seed", "3") == 0
        assert (out / "candidates.csv").exists()
        ensemble = json.loads((out / "ensemble.json").read_text())
        assert len(ensemble["members"]) >= 2

        assert run("train-weighted", "--corpus", pool_corpus, "--out", out,
                   "--epochs", "40", "--seed", "3") == 0
        assert (out / "fusion_params.json").exists()

        assert run("evaluate", "--corpus", pool_corpus, "--out", out,
                   "--seed", "3") == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        predictions = (out / "predictions.jsonl").read_text().strip().splitlines()
        assert len(predictions) == report["n_episodes"]
        assert "test accuracy" in capsys.readouterr().out

        assert run("diversity-report", "--corpus", pool_corpus, "--out", out,
                   "--split", "all", "--seed", "3") == 0
        summary = json.loads((out / "diversity_report.json").read_text())
        assert summary["n_candidates"] == 57
        assert (out / "failure_matrix.csv").exists()

    def test_candidates_csv_ranks_all_247_for_a_pool_of_8(self, tmp_path):
        corpus_path = tmp_path / "pool8.jsonl"
        save_corpus(correlated_pool(8, 120, seed=1), corpus_path)
        out = tmp_path / "run8"
        assert run("prune", "--corpus", corpus_path, "--out", out,
                   "--topk", "5", "--method", "bf", "--seed", "0") == 0
        rows = (out / "candidates.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 247

    @pytest.mark.parametrize("pool, k", [(lambda: correlated_pool(6, 200, seed=0), 1),
                                         (lambda: oeq_pool(4, 300, k=5), 5)],
                             ids=["mcq", "oeq"])
    def test_pipeline_reruns_byte_for_byte(self, tmp_path, pool, k):
        corpus = tmp_path / "pool.jsonl"
        save_corpus(pool(), corpus)
        stages = [["prune"], ["train-weighted", "--k-passes", k, "--epochs", 20],
                  ["evaluate", "--k-passes", k], ["diversity-report"], ["summarize-prep"]]
        runs = []
        for name in ("first", "again"):
            out = tmp_path / name
            for argv in stages:
                assert run(*argv, "--corpus", corpus, "--out", out, "--seed", 5) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1]
        assert set(runs[0]) == {
            "candidates.csv", "ensemble.json", "fusion_params.json", "train_report.json",
            "predictions.jsonl", "report.json", "diversity_report.csv",
            "diversity_report.json", "failure_matrix.csv", "summary_inputs.jsonl"}

    def test_random_pick_among_topk(self, tmp_path, pool_corpus):
        picks = set()
        for pick_seed in range(6):
            out = tmp_path / f"run{pick_seed}"
            run("prune", "--corpus", pool_corpus, "--out", out,
                "--topk", "10", "--seed", "1", "--random-pick", str(pick_seed))
            picks.add(json.loads((out / "ensemble.json").read_text())["mask"])
        assert len(picks) > 1

    def test_ga_method(self, tmp_path, pool_corpus):
        out = tmp_path / "ga"
        assert run("prune", "--corpus", pool_corpus, "--out", out,
                   "--method", "ga", "--ga-population", "30",
                   "--ga-plateau", "25", "--seed", "2") == 0
        assert json.loads((out / "ensemble.json").read_text())["method"] == "ga"

    def test_summarize_prep(self, tmp_path):
        corpus_path = tmp_path / "oeq.jsonl"
        save_corpus(oeq_pool(3, 25, k=3, seed=2), corpus_path)
        out = tmp_path / "prep"
        assert run("summarize-prep", "--corpus", corpus_path, "--out", out) == 0
        lines = (out / "summary_inputs.jsonl").read_text().strip().splitlines()
        assert len(lines) == 25
        row = json.loads(lines[0])
        assert row["text"].startswith("<boq> ")
        lo, hi = row["question_span"]
        assert row["text"][lo:hi].startswith("synthetic arithmetic")


# A valid two-choice record; the malformed-line cases override one field each.
GOOD_MCQ = {"id": "q2", "task": "mcq", "prompt": "p", "choices": ["a", "b"], "ground_truth": 0,
            "passes": {"m1": [{"raw_text": "a", "parsed": 0, "status": "ok"}]},
            "provided_choice_probs": {"m2": [0.5, 0.5]}}


class TestErrors:
    def test_train_without_prune_names_missing_artifact(self, tmp_path, pool_corpus, capsys):
        out = tmp_path / "nope"
        out.mkdir()
        assert run("train-weighted", "--corpus", pool_corpus, "--out", out) == 2
        err = capsys.readouterr().err
        assert "ensemble.json" in err and "prune" in err

    def test_missing_corpus_file(self, tmp_path, capsys):
        assert run("prune", "--corpus", tmp_path / "ghost.jsonl",
                   "--out", tmp_path / "o") == 2
        assert "ghost.jsonl" in capsys.readouterr().err

    def test_schema_violation_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "task": "mcq", "choices": ["a"], "ground_truth": 0}\n')
        assert run("prune", "--corpus", bad, "--out", tmp_path / "o") == 2
        assert "line 1" in capsys.readouterr().err

    def test_empty_corpus_reported(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("prune", "--corpus", empty, "--out", tmp_path / "o") == 2
        assert "no records" in capsys.readouterr().err

    def test_prune_without_scoring_episodes_exits_2(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.jsonl"
        save_corpus(correlated_pool(3, 3, n_clones=2, seed=0), tiny)
        assert run("prune", "--corpus", tiny, "--out", tmp_path / "o", "--train-frac", "0.1",
                   "--val-frac", "0.0", "--test-frac", "0.9") == 2
        assert "empty" in capsys.readouterr().err
        assert not (tmp_path / "o" / "candidates.csv").exists()

    @pytest.mark.parametrize("entries, named", [
        ([{"base_url": "http://localhost:9", "model_name": "a"},
          {"base_url": "http://localhost:9", "model_name": "b", "colour": "red"}], "entry 1"),
        ([{"base_url": "http://localhost:9"}], "entry 0"),
        ([{"base_url": "", "model_name": "a"}], "entry 0"),
        ([["http://localhost:9", "a"]], "entry 0"),
        ({"base_url": "http://localhost:9", "model_name": "a"}, "JSON list"),
        ([{"base_url": "file:///etc/passwd", "model_name": "a"}], "entry 0: base_url"),
        ([{"base_url": "http://localhost:9", "model_name": "a"},
          {"base_url": "http://localhost:9", "model_name": "b", "timeout_s": float("inf")}],
         "entry 1: timeout_s"),
        ([{"base_url": "http://localhost:9", "model_name": "a", "timeout_s": float("nan")}],
         "entry 0: timeout_s"),
        ([{"base_url": "http://localhost:9", "model_name": "a", "temperature": float("nan")}],
         "entry 0: temperature"),
        ([{"base_url": "http://localhost:9", "model_name": "a", "max_tokens": -5}],
         "entry 0: max_tokens"),
        ([{"base_url": "http://localhost:9", "model_name": "a", "max_retries": 1.5}],
         "entry 0: max_retries"),
        ([1], "entry 0 is not a JSON object"),
    ])
    def test_bad_endpoints_file_names_the_entry(self, tmp_path, pool_corpus, capsys,
                                                entries, named):
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps(entries))
        assert run("harvest", "--corpus", pool_corpus, "--endpoints", endpoints,
                   "--out-corpus", tmp_path / "h.jsonl") == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--config", "{bad}", "prune", "--corpus", "{corpus}", "--out", "{out}"],
        ["harvest", "--corpus", "{corpus}", "--endpoints", "{bad}", "--out-corpus", "{out}"],
    ], ids=["config", "endpoints"])
    def test_a_flag_file_that_is_not_json_names_itself(self, tmp_path, pool_corpus, capsys,
                                                       argv):
        bad = tmp_path / "bad.json"
        bad.write_text("{'seed': 1}")
        names = {"bad": bad, "corpus": pool_corpus, "out": tmp_path / "o"}
        assert run(*(a.format(**names) for a in argv)) == 2
        assert (f"error: {bad} is not valid JSON (Expecting property name enclosed in double "
                "quotes") in capsys.readouterr().err

    def test_evaluate_refuses_a_split_other_than_training(self, tmp_path, pool_corpus, capsys):
        out = tmp_path / "run"
        assert run("prune", "--corpus", pool_corpus, "--out", out, "--seed", "3") == 0
        assert run("train-weighted", "--corpus", pool_corpus, "--out", out,
                   "--epochs", "5", "--seed", "3") == 0
        capsys.readouterr()
        for flags, named in [(["--seed", "4"], "--seed"),
                             (["--seed", "3", "--k-passes", "2"], "--k-passes"),
                             (["--seed", "3", "--val-frac", "0.1", "--test-frac", "0.2"],
                              "--val-frac")]:
            assert run("evaluate", "--corpus", pool_corpus, "--out", out, *flags) == 2
            assert named in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert run("evaluate", "--corpus", pool_corpus, "--out", out, "--seed", "3") == 0

    def test_evaluate_on_an_empty_test_split_reports_the_corpus_task(self, tmp_path, capsys):
        corpus = tmp_path / "oeq.jsonl"
        save_corpus(oeq_pool(3, 40, seed=0), corpus)
        out = tmp_path / "run"
        common = ["--corpus", corpus, "--out", out,
                  "--train-frac", "0.85", "--val-frac", "0.15", "--test-frac", "0.0"]
        assert run("prune", *common) == 0
        assert run("train-weighted", *common, "--k-passes", "5", "--epochs", "3") == 0
        capsys.readouterr()
        assert run("evaluate", *common, "--k-passes", "5") == 2  # like prune's empty split
        assert "the test split is empty" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        ensemble = json.loads((out / "ensemble.json").read_text())
        params = fusion.load_params(out / "fusion_params.json")
        report = evaluation.evaluate_records([], ensemble["members"], params, 5, "oeq")
        assert report.task == "oeq" and report.n_episodes == 0

    def test_summarize_prep_refuses_a_budget_that_leaves_no_candidate_token(self, tmp_path,
                                                                           capsys):
        corpus = tmp_path / "oeq.jsonl"
        save_corpus(oeq_pool(3, 60, k=3, seed=0), corpus)
        out = tmp_path / "run"
        assert run("summarize-prep", "--corpus", corpus, "--out", out, "--budget", "0") == 2
        err = capsys.readouterr().err
        first = load_corpus(corpus).records[0].id
        assert f"--budget 0 is too small for record {first}:" in err
        assert not (out / "summary_inputs.jsonl").exists()

    def test_evaluate_refuses_a_team_other_than_the_trained_one(self, tmp_path, capsys):
        corpus = tmp_path / "pool8.jsonl"
        save_corpus(correlated_pool(8, 400, seed=0), corpus)
        out = tmp_path / "run"
        common = ["--corpus", corpus, "--out", out, "--seed", "3"]
        assert run("prune", *common) == 0
        assert run("train-weighted", *common, "--epochs", "5") == 0
        assert run("prune", *common, "--topk", "30", "--random-pick", "7") == 0
        trained = json.loads((out / "train_report.json").read_text())["members"]
        assert json.loads((out / "ensemble.json").read_text())["members"] != trained
        capsys.readouterr()
        assert run("evaluate", *common) == 2
        err = capsys.readouterr().err
        assert "prune" in err and "train-weighted" in err
        assert not (out / "report.json").exists()

    def test_k_passes_below_a_pass_count_names_record_and_model(self, tmp_path, capsys):
        corpus = tmp_path / "oeq.jsonl"
        save_corpus(oeq_pool(3, 60, k=5, seed=0), corpus)
        out = tmp_path / "run"
        assert run("prune", "--corpus", corpus, "--out", out) == 0
        capsys.readouterr()
        assert run("train-weighted", "--corpus", corpus, "--out", out, "--epochs", "3") == 2
        err = capsys.readouterr().err
        assert "record oeq-" in err and "model solver-0 has 5 passes" in err
        assert "--k-passes 1" in err

    def test_train_accepts_a_vector_the_corpus_accepts(self, tmp_path):
        corpus = separable_confidences(60, seed=0)
        corpus.records[0].provided_choice_probs["flat-a"] = [0.25, 0.25, 0.25, 0.2500005]
        path = tmp_path / "sep.jsonl"
        save_corpus(corpus, path)
        out = tmp_path / "run"
        assert run("prune", "--corpus", path, "--out", out) == 0
        assert run("train-weighted", "--corpus", path, "--out", out, "--epochs", "3") == 0

    @pytest.mark.parametrize("stage", ["prune", "summarize-prep"])
    @pytest.mark.parametrize("line", [
        [GOOD_MCQ],
        {**GOOD_MCQ, "passes": [{"raw_text": "a", "parsed": 0}]},
        {**GOOD_MCQ, "passes": 0},
        {**GOOD_MCQ, "passes": {"m1": 3}},
        {**GOOD_MCQ, "provided_choice_probs": [0.5, 0.5]},
        {**GOOD_MCQ, "provided_choice_probs": {"m2": ["0.5", "0.5"]}},
        {**GOOD_MCQ, "provided_choice_probs": {"m2": [float("nan"), 0.5]}},
        {**GOOD_MCQ, "provided_choice_probs": {"m2": [10**400, 0]}},
        {**GOOD_MCQ, "ground_truth": True},
        {**GOOD_MCQ, "prompt": 5},
        {**GOOD_MCQ, "choices": ["a", 2]},
        {**GOOD_MCQ, "passes": {"m1": [{"raw_text": 5, "parsed": 0}]}},
        {**GOOD_MCQ, "passes": {"m1": [{"raw_text": "x", "parsed": 9}]}},
        {**GOOD_MCQ, "passes": {"m1": [{"raw_text": "B", "parsed": "B"}]}},
        {**GOOD_MCQ, "passes": {"m1": [{"raw_text": "yes", "parsed": True}]}},
        {"id": "q2", "task": "oeq", "prompt": "p", "ground_truth": "12",
         "passes": {"m1": [{"raw_text": "1, 2", "parsed": [1, 2]}]}},
        {"id": "q2", "task": "gq", "prompt": "p", "ground_truth": "three",
         "passes": {"m1": [{"raw_text": "3", "parsed": 3}]}},
    ], ids=["not-an-object", "passes-list", "passes-number", "pass-list-number", "probs-list",
            "probs-strings", "probs-nan", "probs-int-overflow", "mcq-gold-bool", "prompt-number",
            "choice-number", "raw-text-number", "mcq-parsed-out-of-range",
            "mcq-parsed-letter", "mcq-parsed-bool", "oeq-parsed-list", "gq-parsed-int"])
    def test_malformed_corpus_line_is_named(self, tmp_path, capsys, stage, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**GOOD_MCQ, "id": "q1"}) + "\n" + json.dumps(line) + "\n")
        assert run(stage, "--corpus", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("stage", ["train-weighted", "evaluate", "summarize-prep"])
    def test_stage_refuses_an_ensemble_pruned_from_another_pool(self, tmp_path, capsys, stage):
        pruned = tmp_path / "pruned.jsonl"
        save_corpus(oeq_pool(4, 300, k=5, seed=1), pruned)
        other = tmp_path / "other.jsonl"
        other.write_text(pruned.read_text().replace('"solver-', '"other-'))
        out = tmp_path / "run"
        common = ["--out", out, "--k-passes", "5"]
        assert run("prune", "--corpus", pruned, "--out", out) == 0
        assert run("train-weighted", "--corpus", pruned, *common, "--epochs", "2") == 0
        capsys.readouterr()
        argv = ["--corpus", other, "--out", out]
        assert run(stage, *argv, *(common[2:] if stage != "summarize-prep" else [])) == 2
        err = capsys.readouterr().err
        assert "ensemble.json" in err and "prune" in err and "other-0" in err
        assert not (out / "summary_inputs.jsonl").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["harvest", "--max-in-flight", "0"], "--max-in-flight"),
        (["harvest", "--k-passes", "0"], "--k-passes"),
        (["harvest", "--alpha", "150"], "--alpha"),
        (["harvest", "--alpha", "nan"], "--alpha"),
        (["harvest", "--alpha", "0"], "--alpha"),
        (["train-weighted", "--k-passes", "0"], "--k-passes"),
        (["evaluate", "--k-passes", "-3"], "--k-passes"),
        (["prune", "--topk", "0"], "--topk"),
        (["prune", "--topk", "-3"], "--topk"),
        (["prune", "--tau", "nan"], "--tau"),
        (["prune", "--tau", "-1"], "--tau"),
        (["diversity-report", "--tau", "1.5"], "--tau"),
        (["diversity-report", "--tau", "inf"], "--tau"),
        (["train-weighted", "--epochs", "0"], "--epochs"),
        (["train-weighted", "--batch-size", "0"], "--batch-size"),
        (["train-weighted", "--patience", "0"], "--patience"),
        (["train-weighted", "--patience", "-1"], "--patience"),
        (["prune", "--ga-population", "0"], "--ga-population"),
        (["prune", "--ga-population", "3"], "--ga-population"),
        (["prune", "--ga-plateau", "0"], "--ga-plateau"),
        (["harvest", "--seed", "-1"], "--seed"),
        (["prune", "--seed", "-1"], "--seed"),
        (["train-weighted", "--seed", "-1"], "--seed"),
        (["evaluate", "--seed", "-1"], "--seed"),
        (["diversity-report", "--seed", "-1"], "--seed"),
        (["summarize-prep", "--seed", "-1"], "--seed"),
        (["prune", "--w1", "nan"], "--w1"),
        (["prune", "--w2", "-0.5"], "--w2"),
        (["diversity-report", "--w1", "1.5"], "--w1"),
        (["diversity-report", "--w2", "inf"], "--w2"),
        (["prune", "--train-frac", "nan"], "--train-frac"),
        (["train-weighted", "--val-frac", "-0.1"], "--val-frac"),
        (["evaluate", "--test-frac", "2"], "--test-frac"),
        (["train-weighted", "--learning-rate", "-1"], "--learning-rate"),
        (["train-weighted", "--learning-rate", "0"], "--learning-rate"),
        (["train-weighted", "--learning-rate", "nan"], "--learning-rate"),
        (["train-weighted", "--learning-rate", "inf"], "--learning-rate"),
        (["prune", "--random-pick", "-3"], "--random-pick"),
    ])
    def test_numeric_flag_out_of_range_is_named(self, tmp_path, capsys, argv, flag):
        paths = ["--corpus", tmp_path / "c.jsonl"]
        paths += (["--endpoints", tmp_path / "e.json", "--out-corpus", tmp_path / "h.jsonl"]
                  if argv[0] == "harvest" else ["--out", tmp_path / "o"])
        with pytest.raises(SystemExit) as err:
            run(*argv, *paths)
        assert err.value.code == 2
        assert f"argument {flag}: must be a" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["prune", "--method", "bf"],
                                      ["diversity-report", "--split", "all"]])
    def test_brute_force_cap_names_the_genetic_search(self, tmp_path, capsys, argv):
        path = tmp_path / "pool24.jsonl"
        save_corpus(correlated_pool(24, 40, n_clones=12, seed=1), path)
        assert run(*argv, "--corpus", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "stops at 22 models" in err and "`prune --method ga`" in err
        assert "diversity-report scores every candidate" in err

    def test_unknown_flag_exits_nonzero(self, pool_corpus):
        with pytest.raises(SystemExit) as err:
            run("prune", "--corpus", pool_corpus, "--frobnicate")
        assert err.value.code == 2


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, pool_corpus):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"topk": 3, "seed": 9, "w1": 0.5, "w2": 0.5}))
        out = tmp_path / "cfg"
        assert run("--config", config, "prune", "--corpus", pool_corpus,
                   "--out", out, "--seed", "1") == 0
        ensemble = json.loads((out / "ensemble.json").read_text())
        assert ensemble["seed"] == 1  # flag wins over config

    @pytest.mark.parametrize("equals_form", [False, True])
    def test_config_weights_apply_in_both_forms(self, tmp_path, pool_corpus, equals_form):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"w1": 0.9, "w2": 0.1}))
        flag = [f"--config={config}"] if equals_form else ["--config", config]
        out = tmp_path / "cfg"
        assert run(*flag, "prune", "--corpus", pool_corpus, "--out", out) == 0
        ensemble = json.loads((out / "ensemble.json").read_text())
        assert ensemble["fitness"] == pytest.approx(
            0.9 * ensemble["focal_diversity"] + 0.1 * ensemble["val_accuracy"])

    @pytest.mark.parametrize("argv", [["--config"], ["prune", "--out", "o", "--config"]])
    def test_config_without_path_exits_2(self, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2

    def test_bad_config_rejected(self, tmp_path, pool_corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2, 3]")
        assert run("--config", config, "prune", "--corpus", pool_corpus,
                   "--out", tmp_path / "o") == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_config_key_is_named(self, tmp_path, pool_corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"topkk": 3}))
        assert run("--config", config, "prune", "--corpus", pool_corpus,
                   "--out", tmp_path / "o") == 2
        assert "unknown key 'topkk'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("topk", 0, "must be a positive integer, got 0"),
        ("tau", float("nan"), "must be a number in [0, 1], got nan"),
        ("seed", -1, "must be an integer >= 0, got -1"),
        ("w1", float("nan"), "must be a number in [0, 1], got nan"),
        ("train-frac", 1.5, "must be a number in [0, 1], got 1.5"),
        ("random-pick", -1, "must be an integer >= 0, got -1"),
    ])
    def test_prune_config_value_goes_through_the_flag_check(self, tmp_path, pool_corpus,
                                                            capsys, key, value, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert run("--config", config, "prune", "--corpus", pool_corpus,
                   "--out", tmp_path / "o") == 2
        assert f"{key!r}: argument --{key}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", 2.5, "invalid int value: '2.5'"),
        ("optimizer", "adamw", "invalid choice: 'adamw'"),
        ("k-passes", 0, "must be a positive integer, got 0"),
        ("epochs", 0, "must be a positive integer, got 0"),
        ("batch-size", 0, "must be a positive integer, got 0"),
        ("learning-rate", -1, "must be a positive finite number, got -1"),
        ("seed", -1, "must be an integer >= 0, got -1"),
    ])
    def test_config_value_goes_through_the_flag_check(self, tmp_path, pool_corpus, capsys,
                                                      key, value, message):
        out = tmp_path / "run"
        assert run("prune", "--corpus", pool_corpus, "--out", out) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert run("--config", config, "train-weighted", "--corpus", pool_corpus,
                   "--out", out) == 2
        assert f"{key!r}: argument --{key}: {message}" in capsys.readouterr().err
        assert not (out / "fusion_params.json").exists()


@pytest.mark.parametrize("fractions", [[], ["--train-frac", "0.85", "--val-frac", "0",
                                            "--test-frac", "0.15"]])
def test_train_weighted_builds_each_episode_row_once(tmp_path, monkeypatch, fractions):
    # 850 episodes train and validate: 700 + 150 by default, 850 + 0 without a val part.
    path = tmp_path / "oeq.jsonl"
    save_corpus(oeq_pool(4, 1000, k=5), path)
    out = tmp_path / "run"
    assert run("prune", "--corpus", path, "--out", out, *fractions) == 0
    built = []
    original = fusion.build_fusion_table

    def counting(records, members, k):
        built.extend(rec.id for rec in records)
        return original(records, members, k)

    monkeypatch.setattr(fusion, "build_fusion_table", counting)
    monkeypatch.setattr(evaluation, "build_fusion_table", counting)
    assert run("train-weighted", "--corpus", path, "--out", out, "--k-passes", "5",
               "--epochs", "2", *fractions) == 0
    assert len(built) == len(set(built)) == 850


def test_train_weighted_without_val_episodes_reports_no_val_accuracy(tmp_path, caplog):
    path = tmp_path / "pool.jsonl"
    save_corpus(correlated_pool(4, 200), path)
    fractions = ["--train-frac", "0.8", "--val-frac", "0", "--test-frac", "0.2"]
    out = tmp_path / "run"
    assert run("prune", "--corpus", path, "--out", out, *fractions) == 0
    with caplog.at_level("INFO"):
        assert run("train-weighted", "--corpus", path, "--out", out, "--epochs", "5",
                   *fractions) == 0
    report = json.loads((out / "train_report.json").read_text())
    assert (report["n_train"], report["n_val"]) == (160, 0)
    assert report["val_accuracy"] is None
    assert "no val episodes" in caplog.text
    assert run("evaluate", "--corpus", path, "--out", out, *fractions) == 0


def test_harvested_corpus_round_trips_through_cli_artifacts(tmp_path):
    corpus = oeq_pool(2, 10, k=2, seed=4)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_task_flag_validates_corpus_kind(tmp_path, capsys):
    path = tmp_path / "pool.jsonl"
    save_corpus(correlated_pool(4, 20, seed=0), path)
    assert run("prune", "--corpus", path, "--out", tmp_path / "o", "--task", "oeq") == 2
    err = capsys.readouterr().err
    assert "mcq" in err and "oeq" in err
    assert run("prune", "--corpus", path, "--out", tmp_path / "o", "--task", "mcq") == 0


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_generative_corpus_runs_the_stages_that_apply_to_it(tmp_path, capsys):
    # GQ failures follow unigram recall and have no accuracy, so pruning ranks
    # by diversity alone, the correlation is undefined (null) and the
    # learned combiner refuses the task.
    rng = random.Random(7)
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    records = [
        EpisodeRecord(id=f"g{i}", task=TaskKind.gq(), prompt=f"question g{i}",
                      ground_truth=" ".join(rng.sample(words, 3)),
                      passes={m: [RawPass(raw_text=" ".join(rng.sample(words, 3)))]
                              for m in ("a", "b", "c")})
        for i in range(60)
    ]
    corpus = tmp_path / "gq.jsonl"
    save_corpus(Corpus(records=records, model_ids=["a", "b", "c"]), corpus)
    out = tmp_path / "run"
    assert run("prune", "--corpus", corpus, "--out", out, "--seed", 2) == 0
    ensemble = json.loads((out / "ensemble.json").read_text(), parse_constant=_refuse_constant)
    assert ensemble["val_accuracy"] is None
    assert run("diversity-report", "--corpus", corpus, "--out", out, "--split", "all") == 0
    summary = json.loads((out / "diversity_report.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["pearson_diversity_accuracy"] is None
    assert summary["n_candidates"] == 4
    assert run("summarize-prep", "--corpus", corpus, "--out", out) == 0
    assert len((out / "summary_inputs.jsonl").read_text().splitlines()) == 60
    capsys.readouterr()
    assert run("train-weighted", "--corpus", corpus, "--out", out, "--seed", 2) == 2
    assert "mcq and oeq tasks only" in capsys.readouterr().err


def test_prune_topk_above_ga_population_on_a_large_pool(tmp_path):
    # The GA ranks every team it visited; --topk only bounds the pick.
    path = tmp_path / "pool14.jsonl"
    save_corpus(correlated_pool(14, 60, n_clones=4, seed=5), path)
    out = tmp_path / "run"
    assert run("prune", "--corpus", path, "--out", out, "--topk", "60",
               "--ga-population", "20", "--ga-plateau", "10") == 0
    assert json.loads((out / "ensemble.json").read_text())["method"] == "ga"


@pytest.mark.parametrize("rate", ["nan", "inf", "1e300"])
def test_train_weighted_refuses_a_rate_that_cannot_train(tmp_path, capsys, rate):
    path = tmp_path / "pool.jsonl"
    save_corpus(correlated_pool(4, 60, seed=0), path)
    out = tmp_path / "run"
    assert run("prune", "--corpus", path, "--out", out) == 0
    capsys.readouterr()
    argv = ["train-weighted", "--corpus", path, "--out", out, "--epochs", "5",
            "--learning-rate", rate]
    if rate == "1e300":  # finite, so only the diverged loss shows it
        assert run(*argv) == 2
        assert "learning" in capsys.readouterr().err
    else:  # refused while parsing, naming the flag
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2
        assert "argument --learning-rate: must be a" in capsys.readouterr().err
    assert not (out / "fusion_params.json").exists()


@pytest.mark.parametrize("module", ["requests", "urllib.request", "concurrent.futures"])
def test_importing_the_cli_does_not_load_requests(module):
    code = f"import sys, fusepool.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fusepool.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


# A fuzz guard on ``main``: a small corpus with one or two fields deleted or
# replaced, and drawn flag values. Every run exits 0 or 2, and a repeat
# writes the same files byte for byte.
_FUZZ_PATHS = [
    ("id",), ("task",), ("prompt",), ("choices",), ("choices", 1), ("ground_truth",),
    ("passes",), ("passes", "c"), ("passes", "c", 0), ("passes", "c", 0, "parsed"),
    ("passes", "c", 0, "status"), ("passes", "c", 0, "raw_text"),
    ("provided_choice_probs",), ("provided_choice_probs", "a"),
    ("provided_choice_probs", "b", 2),
]
_DELETE = object()
_FUZZ_VALUES = [_DELETE, None, True, -1, 10**30, float("nan"), "", [0.5], {"k": 1}]


def _fuzz_rows() -> list[dict]:
    """Eight MCQ records over three models: a and b give vectors, c a pass."""
    rows = []
    for i in range(8):
        gold = i % 4
        rows.append({
            "id": f"r{i}", "task": "mcq", "prompt": f"question {i}",
            "choices": ["w", "x", "y", "z"], "ground_truth": gold,
            "passes": {"c": [{"raw_text": "(B)", "parsed": (gold + i // 4) % 4,
                              "latency_s": 0.1, "status": "ok"}]},
            "provided_choice_probs": {
                "a": [0.7 if c == gold else 0.1 for c in range(4)],
                "b": [0.4 if c == (gold + i % 3) % 4 else 0.2 for c in range(4)],
            },
        })
    return rows


def _mutate_field(rows: list[dict], record: int, path: tuple, value) -> None:
    """Delete or replace one field of one row; nothing if an earlier mutation
    removed its parent."""
    try:
        parent = rows[record]
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


def _run_and_collect(argv: list, out: Path) -> tuple:
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse refused a flag
        code = exc.code
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, files


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    mutations=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_FUZZ_PATHS),
                                 st.sampled_from(_FUZZ_VALUES)), min_size=1, max_size=2),
    method=st.sampled_from(["auto", "bf", "ga"]),
    tau=st.sampled_from(["0", "0.5", "1"]),
    split=st.sampled_from(["train", "val", "all"]),
    seed=st.integers(0, 3),
)
def test_main_exits_0_or_2_on_a_mutated_corpus(tmp_path_factory, mutations, method, tau,
                                               split, seed):
    rows = _fuzz_rows()
    for mutation in mutations:
        _mutate_field(rows, *mutation)
    work = tmp_path_factory.mktemp("fuzz")
    corpus = work / "c.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    stages = [
        ["prune", "--corpus", corpus, "--method", method, "--tau", tau, "--seed", seed,
         "--ga-population", "8", "--ga-plateau", "3"],
        ["diversity-report", "--corpus", corpus, "--tau", tau, "--split", split,
         "--seed", seed],
    ]
    for i, argv in enumerate(stages):
        first = _run_and_collect([*argv, "--out", work / f"{i}a"], work / f"{i}a")
        again = _run_and_collect([*argv, "--out", work / f"{i}b"], work / f"{i}b")
        assert first[0] in (0, 2)
        assert again == first


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A 4-model pool with its prune and two-epoch train-weighted artifacts."""
    work = tmp_path_factory.mktemp("trained")
    corpus = work / "pool.jsonl"
    save_corpus(correlated_pool(4, 200, seed=0), corpus)
    out = work / "run"
    assert run("prune", "--corpus", corpus, "--out", out) == 0
    assert run("train-weighted", "--corpus", corpus, "--out", out, "--epochs", "2") == 0
    return corpus, out


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: {**doc, key: value}


def _params_without_a_bias(doc):
    return {**doc, "layers": [{"weights": doc["layers"][0]["weights"]}, *doc["layers"][1:]]}


_READERS = {"ensemble.json": ["train-weighted", "evaluate", "summarize-prep"],
            "train_report.json": ["evaluate"], "fusion_params.json": ["evaluate"]}


@pytest.mark.parametrize("name, edit, named", [
    ("ensemble.json", _without("members"), "'members'"),
    ("ensemble.json", lambda doc: [], "JSON object"),
    ("train_report.json", lambda doc: [], "JSON object"),
    ("fusion_params.json", lambda doc: {"format_version": 1}, "'layers'"),
    ("fusion_params.json", _params_without_a_bias, "'bias'"),
    ("ensemble.json", "{", "JSON"),
    ("train_report.json", "{", "JSON"),
    ("fusion_params.json", "{", "JSON"),
    ("ensemble.json", _with("members", ["zzz", "clone-1"]), "'zzz'"),
    ("ensemble.json", _with("members", []), "'members'"),
    ("ensemble.json", _with("members", ["clone-1", "clone-1"]), "'clone-1'"),
], ids=["ensemble-no-members", "ensemble-list", "report-list", "params-no-layers",
        "params-no-bias", "ensemble-brace", "report-brace", "params-brace",
        "unknown-member", "no-members", "repeated-member"])
def test_malformed_artifact_exits_2_naming_its_file(tmp_path, capsys, trained_run, name, edit,
                                                    named):
    corpus, trained = trained_run
    for stage in _READERS[name]:
        out = tmp_path / stage
        shutil.copytree(trained, out)
        path = out / name
        path.write_text(edit if isinstance(edit, str)
                        else json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        assert run(stage, "--corpus", corpus, "--out", out) == 2, stage
        err = capsys.readouterr().err
        produced_by = "prune" if name == "ensemble.json" else "train-weighted"
        assert str(path) in err and named in err and f"re-run the {produced_by} stage" in err
        assert "Traceback" not in err


def test_evaluate_names_a_parameter_file_that_does_not_fit_the_team(tmp_path, capsys,
                                                                     trained_run):
    corpus, trained = trained_run
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    fusion.save_params(fusion.init_params((12, 100, 100, 4), seed=0), out / "fusion_params.json")
    capsys.readouterr()
    assert run("evaluate", "--corpus", corpus, "--out", out) == 2
    err = capsys.readouterr().err
    assert str(out / "fusion_params.json") in err and "(12, 100, 100, 4)" in err
    assert "2 members x 4 slots" in err and "re-run the train-weighted stage" in err
    assert not (out / "report.json").exists()


_ARTIFACT_PATHS = [
    ("ensemble.json", ()), ("ensemble.json", ("model_ids",)), ("ensemble.json", ("members",)),
    ("ensemble.json", ("members", 0)), ("ensemble.json", ("members", 1)),
    ("ensemble.json", ("size",)),
    ("train_report.json", ()), ("train_report.json", ("members",)),
    ("train_report.json", ("members", 0)), ("train_report.json", ("seed",)),
    ("train_report.json", ("k_passes",)), ("train_report.json", ("test_frac",)),
    ("fusion_params.json", ()), ("fusion_params.json", ("format_version",)),
    ("fusion_params.json", ("dims",)), ("fusion_params.json", ("dims", 0)),
    ("fusion_params.json", ("dims", -1)), ("fusion_params.json", ("layers",)),
    ("fusion_params.json", ("layers", 0)), ("fusion_params.json", ("layers", -1, "weights")),
    ("fusion_params.json", ("layers", 0, "weights", 0)),
    ("fusion_params.json", ("layers", 0, "weights", 0, 0)),
    ("fusion_params.json", ("layers", -1, "bias")),
    ("fusion_params.json", ("layers", -1, "bias", 0)),
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(target=st.sampled_from(_ARTIFACT_PATHS),
       value=st.sampled_from([*_FUZZ_VALUES, "{", "clone-2", 4, [3, 100, 4]]))
def test_stages_exit_0_or_2_on_a_mutated_artifact(tmp_path_factory, trained_run, target, value):
    corpus, trained = trained_run
    out = tmp_path_factory.mktemp("artifact") / "run"
    shutil.copytree(trained, out)
    (name, path) = target
    doc = json.loads((out / name).read_text())
    if not path:
        doc = value
    else:
        _mutate_field([doc], 0, path, value)
    if doc is _DELETE:
        (out / name).unlink()
    else:
        (out / name).write_text(doc if doc == "{" else json.dumps(doc))
    for argv in (["evaluate"], ["summarize-prep"], ["train-weighted", "--epochs", "1"]):
        assert run(*argv, "--corpus", corpus, "--out", out) in (0, 2)
