import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusepool
from fusepool import evaluation, fusion
from fusepool.cli import main
from fusepool.corpus import load_corpus, save_corpus
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

    def test_prune_is_idempotent(self, tmp_path, pool_corpus):
        out = tmp_path / "run"
        run("prune", "--corpus", pool_corpus, "--out", out, "--seed", "5")
        first = {
            name: (out / name).read_bytes()
            for name in ("candidates.csv", "ensemble.json")
        }
        run("prune", "--corpus", pool_corpus, "--out", out, "--seed", "5")
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

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
    ])
    def test_bad_endpoints_file_names_the_entry(self, tmp_path, pool_corpus, capsys,
                                                entries, named):
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps(entries))
        assert run("harvest", "--corpus", pool_corpus, "--endpoints", endpoints,
                   "--out-corpus", tmp_path / "h.jsonl") == 2
        assert named in capsys.readouterr().err

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

    def test_evaluate_on_an_empty_test_split_reports_the_corpus_task(self, tmp_path):
        corpus = tmp_path / "oeq.jsonl"
        save_corpus(oeq_pool(3, 40, seed=0), corpus)
        out = tmp_path / "run"
        common = ["--corpus", corpus, "--out", out,
                  "--train-frac", "0.85", "--val-frac", "0.15", "--test-frac", "0.0"]
        assert run("prune", *common) == 0
        assert run("train-weighted", *common, "--k-passes", "5", "--epochs", "3") == 0
        assert run("evaluate", *common, "--k-passes", "5") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["task"] == "oeq" and report["n_episodes"] == 0

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
        ("epochs", 2.5, "invalid int value: '2.5'"),
        ("optimizer", "adamw", "invalid choice: 'adamw'"),
        ("k-passes", 0, "must be a positive integer, got 0"),
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
    assert run("train-weighted", "--corpus", path, "--out", out, "--epochs", "5",
               "--learning-rate", rate) == 2
    assert "learning" in capsys.readouterr().err
    assert not (out / "fusion_params.json").exists()


def test_importing_the_cli_does_not_load_requests():
    code = "import sys, fusepool.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fusepool.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"
