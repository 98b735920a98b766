import json
import random

import pytest

from fusepool.corpus import (
    Corpus,
    EpisodeRecord,
    RawPass,
    SchemaError,
    SplitSpec,
    TaskKind,
    load_corpus,
    save_corpus,
    split,
    task_of,
)


def mcq_record(rec_id: str, gold: int = 1, probs=None, passes=None) -> EpisodeRecord:
    return EpisodeRecord(
        id=rec_id,
        task=TaskKind.mcq(4),
        prompt=f"question {rec_id}",
        ground_truth=gold,
        choices=["w", "x", "y", "z"],
        passes=passes or {},
        provided_choice_probs=probs,
    )


def oeq_record(rec_id: str, gold: str = "42", passes=None) -> EpisodeRecord:
    return EpisodeRecord(
        id=rec_id,
        task=TaskKind.oeq(),
        prompt=f"question {rec_id}",
        ground_truth=gold,
        passes=passes or {},
    )


def corpus_of(n: int) -> Corpus:
    records = []
    for i in range(n):
        records.append(
            mcq_record(
                f"r{i}",
                gold=i % 4,
                probs={"m1": [0.1, 0.6, 0.2, 0.1], "m2": [0.25, 0.25, 0.25, 0.25]},
            )
        )
    return Corpus(records=records, model_ids=["m1", "m2"])


class TestTaskKind:
    def test_mcq_needs_choice_count(self):
        with pytest.raises(SchemaError):
            TaskKind("mcq")
        with pytest.raises(SchemaError):
            TaskKind.mcq(1)

    def test_non_mcq_rejects_choice_count(self):
        with pytest.raises(SchemaError):
            TaskKind("oeq", num_choices=4)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            TaskKind("riddle")


class TestValidation:
    def test_parsed_requires_ok_status(self):
        p = RawPass(raw_text="x", parsed="x", status="missing")
        with pytest.raises(SchemaError):
            p.validate("r0")

    def test_mcq_ground_truth_range(self):
        rec = mcq_record("r0", gold=7)
        with pytest.raises(SchemaError, match="r0"):
            rec.validate()

    def test_prob_vector_must_sum_to_one(self):
        rec = mcq_record("bad-probs", probs={"m1": [0.2, 0.2, 0.2, 0.2]})
        with pytest.raises(SchemaError, match="bad-probs"):
            rec.validate()

    def test_prob_vector_length_must_match_choices(self):
        rec = mcq_record("short", probs={"m1": [0.5, 0.5]})
        with pytest.raises(SchemaError, match=r"short: provided_choice_probs\[m1\]: length 2"):
            rec.validate()

    def test_duplicate_ids(self):
        c = Corpus(records=[mcq_record("r0"), mcq_record("r0")], model_ids=[])
        with pytest.raises(SchemaError, match="duplicate"):
            c.validate()

    def test_pass_for_unknown_model(self):
        rec = mcq_record("r0", passes={"ghost": [RawPass(raw_text="hi", status="missing", parsed=None)]})
        c = Corpus(records=[rec], model_ids=["m1"])
        with pytest.raises(SchemaError, match="ghost"):
            c.validate()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        passes = {
            "m1": [
                RawPass(raw_text="The answer is B", parsed=1, latency_s=0.5),
                RawPass(raw_text="", parsed=None, status="missing"),
            ],
            "m2": [RawPass(raw_text="noise", parsed=None, status="parse_failed")],
        }
        records = [mcq_record(f"r{i}", probs={"m1": [0, 1, 0, 0]}) for i in range(9)]
        records.append(mcq_record("r9", passes=passes))
        corpus = Corpus(records=records, model_ids=["m1", "m2"])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded == corpus

    def test_unicode_preserved(self, tmp_path):
        rec = oeq_record("uni")
        rec.prompt = "combien coûte un café ☕ — ответ?"
        corpus = Corpus(records=[rec], model_ids=[])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path).records[0].prompt == rec.prompt

    def test_two_valid_mcq_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {
                "id": f"q{i}",
                "task": "mcq",
                "prompt": "pick one",
                "choices": ["a", "b", "c", "d"],
                "ground_truth": 0,
                "passes": {},
                "provided_choice_probs": None,
            }
            for i in range(2)
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert all(rec.task.num_choices == 4 for rec in corpus.records)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = load_corpus(path)
        assert corpus.records == [] and corpus.model_ids == []

    def test_violation_names_line_and_record(self, tmp_path):
        row = {
            "id": "broken",
            "task": "mcq",
            "prompt": "p",
            "choices": ["a", "b", "c", "d"],
            "ground_truth": 0,
            "passes": {},
            "provided_choice_probs": {"m1": [0.2, 0.2, 0.2, 0.2]},
        }
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(SchemaError) as err:
            load_corpus(path)
        assert "line 1" in str(err.value) and "broken" in str(err.value)

    def test_load_validates_each_record_once(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(5), path)
        calls = []
        original = EpisodeRecord._validate_fields
        monkeypatch.setattr(EpisodeRecord, "_validate_fields",
                            lambda rec: calls.append(rec.id) or original(rec))
        load_corpus(path)
        assert calls == [f"r{i}" for i in range(5)]

    def test_duplicate_id_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(records=[mcq_record("r0", probs={"m1": [1.0, 0, 0, 0]}),
                                    mcq_record("r1"), mcq_record("r0")], model_ids=["m1"]),
                    path)
        with pytest.raises(SchemaError, match="line 3: record r0: id: duplicate"):
            load_corpus(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize("bad_id", [5, "", None, True, ["r0"]])
    def test_validate_and_load_share_the_id_rule(self, tmp_path, bad_id):
        rec = mcq_record("r0")
        corpus = Corpus(records=[rec], model_ids=[])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus
        rec.id = bad_id
        with pytest.raises(SchemaError, match="^record with missing or non-string id$"):
            corpus.validate()
        save_corpus(corpus, path)
        with pytest.raises(SchemaError, match="^line 1: record with missing or non-string id$"):
            load_corpus(path)

    @pytest.mark.parametrize("latency", [None, 0, 0.0, 2.5, 7, 10**20])
    def test_latency_round_trips(self, tmp_path, latency):
        rec = mcq_record("r0", passes={"m1": [RawPass("B", parsed=1, latency_s=latency)]})
        corpus = Corpus(records=[rec], model_ids=["m1"])
        corpus.validate()
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("latency", ["fast", [1, 2], {}, -5, -0.5, True, False,
                                         float("nan"), float("inf")])
    def test_latency_is_none_or_a_finite_number_at_least_0(self, tmp_path, latency):
        rec = mcq_record("slow", passes={"m1": [RawPass("B", parsed=1, latency_s=latency)]})
        corpus = Corpus(records=[rec], model_ids=["m1"])
        with pytest.raises(SchemaError, match="^record slow: passes: latency_s "):
            corpus.validate()
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        with pytest.raises(SchemaError, match="^line 1: record slow: passes: latency_s "):
            load_corpus(path)

    def test_missing_pass_status_preserved(self, tmp_path):
        rec = mcq_record("r0", passes={"m1": [RawPass(raw_text="", parsed=None, status="missing")]})
        corpus = Corpus(records=[rec], model_ids=["m1"])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path).records[0].passes["m1"][0].status == "missing"


class TestSplit:
    def test_paper_protocol_sizes(self):
        corpus = corpus_of(100)
        tr, va, te = split(corpus, SplitSpec(0.7, 0.0, 0.3, seed=7))
        assert (len(tr), len(va), len(te)) == (70, 0, 30)

    def test_deterministic(self):
        corpus = corpus_of(50)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=3)
        a = split(corpus, spec)
        b = split(corpus, spec)
        for pa, pb in zip(a, b):
            assert [r.id for r in pa.records] == [r.id for r in pb.records]

    def test_twenty_seeds_give_distinct_partitions(self):
        corpus = corpus_of(100)
        seen = set()
        for seed in range(20):
            tr, _, _ = split(corpus, SplitSpec(0.7, 0.0, 0.3, seed=seed))
            seen.add(frozenset(r.id for r in tr.records))
        assert len(seen) == 20

    def test_partition_is_disjoint_and_exhaustive(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(1, 120)
            corpus = corpus_of(n)
            f1 = rng.uniform(0.2, 0.8)
            f2 = rng.uniform(0.0, 1.0 - f1)
            spec = SplitSpec(f1, f2, 1.0 - f1 - f2, seed=trial)
            parts = split(corpus, spec)
            ids = [r.id for part in parts for r in part.records]
            assert sorted(ids) == sorted(r.id for r in corpus.records)
            assert len(set(ids)) == len(ids)

    def test_repeats_differ(self):
        corpus = corpus_of(60)
        spec = SplitSpec(0.7, 0.0, 0.3, seed=0)
        a = split(corpus, spec, repeat=0)
        b = split(corpus, spec, repeat=1)
        assert {r.id for r in a[0].records} != {r.id for r in b[0].records}

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            SplitSpec(1.2, -0.1, -0.1)

    def test_task_of_names_what_differs(self):
        five = EpisodeRecord(id="r5", task=TaskKind.mcq(5), prompt="q", ground_truth=0,
                             choices=["a", "b", "c", "d", "e"])
        with pytest.raises(ValueError, match="mcq with 4 choices, mcq with 5 choices"):
            task_of([mcq_record("r4"), five])
        with pytest.raises(ValueError, match="mcq with 4 choices, oeq"):
            task_of([oeq_record("o"), mcq_record("r4")])

    def test_empty_corpus_refused(self):
        with pytest.raises(ValueError):
            split(Corpus(records=[], model_ids=[]), SplitSpec(0.7, 0.0, 0.3))

