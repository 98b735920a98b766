import copy
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from fusepool.cli import main
from fusepool.corpus import Corpus, load_corpus, save_corpus
from fusepool.harvest import (
    AuthError,
    EndpointConfig,
    PromptTemplate,
    default_template,
    extract_mcq_choice,
    extract_oeq_answer,
    harvest,
    parse_pass,
    select_fraction,
)

from test_answers import ok_pass
from test_corpus import mcq_record, oeq_record


class StubEndpoint:
    """Scripted chat-completions server: per-model behaviors keyed by model name.

    A behavior is ("ok", text), ("fail", n_failures_then_text) or ("auth",).
    """

    def __init__(self):
        self.behaviors = {}
        self.failures_left = {}
        self.requests = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                model = body["model"]
                stub.requests.append(body)
                behavior = stub.behaviors.get(model, ("ok", "stub says hi"))
                if behavior[0] == "auth":
                    self.send_response(401)
                    self.end_headers()
                    return
                if behavior[0] == "fail":
                    if stub.failures_left.get(model, 0) > 0:
                        stub.failures_left[model] -= 1
                        self.send_response(500)
                        self.end_headers()
                        return
                text = behavior[1]
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": text}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def set(self, model, behavior, failures=0):
        self.behaviors[model] = behavior
        if failures:
            self.failures_left[model] = failures

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    s = StubEndpoint()
    yield s
    s.close()


def endpoint(stub, name, **kw):
    kw.setdefault("max_retries", 2)
    kw.setdefault("timeout_s", 5.0)
    return EndpointConfig(base_url=stub.base_url, model_name=name, **kw)


def queries(n=2):
    records = [mcq_record(f"q{i}", gold=1) for i in range(n)]
    return Corpus(records=records, model_ids=[])


class TestHarvest:
    def test_eight_models_one_pass_each(self, stub):
        endpoints = []
        for i in range(8):
            stub.set(f"model-{i}", ("ok", "The answer is (B)."))
            endpoints.append(endpoint(stub, f"model-{i}"))
        out = harvest(queries(2), endpoints, k=1)
        for rec in out.records:
            assert len(rec.passes) == 8
            assert all(len(p) == 1 for p in rec.passes.values())
            assert all(p[0].parsed == 1 for p in rec.passes.values())

    def test_k_passes_per_model(self, stub):
        stub.set("m", ("ok", "The answer is (C)."))
        out = harvest(queries(1), [endpoint(stub, "m")], k=10)
        assert len(out.records[0].passes["m"]) == 10

    def test_retry_budget_exact(self, stub):
        stub.set("flaky", ("fail", "The answer is (A)."), failures=2)
        out = harvest(queries(1), [endpoint(stub, "flaky", max_retries=2)],
                      k=1, backoff_base_s=0.01, backoff_cap_s=0.02)
        assert out.records[0].passes["flaky"][0].status == "ok"

    def test_exhausted_retries_mark_missing_others_unaffected(self, stub):
        stub.set("dead", ("fail", "never"), failures=99)
        stub.set("alive", ("ok", "The answer is (D)."))
        eps = [endpoint(stub, "dead", max_retries=1), endpoint(stub, "alive")]
        out = harvest(queries(1), eps, k=1, backoff_base_s=0.01, backoff_cap_s=0.02)
        rec = out.records[0]
        assert rec.passes["dead"][0].status == "missing"
        assert rec.passes["dead"][0].parsed is None
        assert rec.passes["alive"][0].status == "ok"

    def test_auth_failure_aborts_naming_endpoint(self, stub):
        stub.set("locked", ("auth",))
        with pytest.raises(AuthError, match="locked"):
            harvest(queries(1), [endpoint(stub, "locked")], k=1)

    def test_input_corpus_not_mutated(self, stub):
        stub.set("m", ("ok", "The answer is (A)."))
        corpus = queries(2)
        snapshot = copy.deepcopy(corpus)
        out = harvest(corpus, [endpoint(stub, "m")], k=1)
        assert corpus == snapshot
        for before, after in zip(corpus.records, out.records):
            assert after.prompt == before.prompt
            assert after.ground_truth == before.ground_truth
            assert after.choices == before.choices

    def test_temperature_rule(self, stub):
        stub.set("m", ("ok", "The answer is (A)."))
        harvest(queries(1), [endpoint(stub, "m")], k=1)
        assert stub.requests[-1]["temperature"] == 0.0
        harvest(queries(1), [endpoint(stub, "m")], k=3)
        assert stub.requests[-1]["temperature"] == 0.7
        harvest(queries(1), [endpoint(stub, "m", temperature=0.2)], k=1)
        assert stub.requests[-1]["temperature"] == 0.2

    def test_harvest_keeps_the_models_it_did_not_harvest(self, stub, tmp_path):
        # Each record holds passes for "old" and a vector for "vec"; harvesting
        # "new" and "vec" replaces vec's vector by its passes and keeps old's.
        records = [mcq_record(f"q{i}", gold=2, passes={"old": [ok_pass(1)]},
                              probs={"vec": [0.7, 0.1, 0.1, 0.1]}) for i in range(3)]
        corpus_path = tmp_path / "c.jsonl"
        save_corpus(Corpus(records=records, model_ids=["old", "vec"]), corpus_path)
        stub.set("new", ("ok", "The answer is (C)."))
        stub.set("vec", ("ok", "The answer is (C)."))
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps([{"base_url": stub.base_url, "model_name": name}
                                         for name in ("new", "vec")]))
        out_path = tmp_path / "h.jsonl"
        assert main(["harvest", "--corpus", str(corpus_path), "--endpoints", str(endpoints),
                     "--out-corpus", str(out_path), "--k-passes", "2"]) == 0
        out = load_corpus(out_path)
        assert out.model_ids == ["old", "vec", "new"]
        for rec in out.records:
            assert [p.parsed for p in rec.passes["old"]] == [1]
            assert [p.parsed for p in rec.passes["vec"]] == [2, 2]
            assert [p.parsed for p in rec.passes["new"]] == [2, 2]
            assert rec.provided_choice_probs is None

    def test_validation(self, stub):
        with pytest.raises(ValueError):
            harvest(queries(1), [], k=1)
        with pytest.raises(ValueError):
            harvest(queries(1), [endpoint(stub, "m")], k=0)
        with pytest.raises(ValueError):
            harvest(queries(1), [endpoint(stub, "m"), endpoint(stub, "m")], k=1)


class TestExtractMcq:
    CHOICES = ["wrong one", "right one", "other one", "last one"]

    def test_answer_is_letter(self):
        assert extract_mcq_choice("The answer is (B).", self.CHOICES) == 1

    def test_last_stated_answer_wins(self):
        text = "The answer is (A)... wait, no. The answer is C."
        assert extract_mcq_choice(text, self.CHOICES) == 2

    def test_line_leading_letter(self):
        assert extract_mcq_choice("D. because of reasons", self.CHOICES) == 3

    def test_bleu_fallback_restated_choice(self):
        choices = [
            "a game involving chess pieces",
            "counting sheep before sleeping",
            "rearranging cards in solitaire",
            "rolling dice on a board",
        ]
        text = "It was inspired by rearranging cards in solitaire"
        assert extract_mcq_choice(text, choices) == 2

    def test_all_zero_bleu_ties_to_first(self):
        assert extract_mcq_choice("zzz qqq", ["aa", "bb", "cc", "dd"]) == 0

    def test_empty_text(self):
        assert extract_mcq_choice("   ", self.CHOICES) is None

    def test_total_on_nonempty_inputs(self):
        rng = random.Random(0)
        alphabet = "abcdefghij ()."
        for _ in range(200):
            text = "".join(rng.choices(alphabet, k=rng.randint(1, 40)))
            if not text.strip():
                continue
            idx = extract_mcq_choice(text, self.CHOICES)
            assert idx is not None and 0 <= idx < 4

    def test_choice_count_validated(self):
        with pytest.raises(ValueError):
            extract_mcq_choice("x", ["only"])


class TestExtractOeq:
    def test_marker(self):
        assert extract_oeq_answer("so the total is 42. The answer is 42.") == "42"

    def test_currency_normalization(self):
        assert extract_oeq_answer("She pays $1,200 in total") == "1200"

    def test_hash_marker(self):
        assert extract_oeq_answer("reasoning...\n#### 72") == "72"

    def test_short_phrase(self):
        assert extract_oeq_answer("Paris") == "paris"

    def test_pure_reasoning_fails(self):
        text = ("Let us think about this carefully and consider every angle "
                "without ever committing to a concrete final result")
        assert extract_oeq_answer(text) is None

    def test_empty(self):
        assert extract_oeq_answer("") is None

    def test_parse_pass_statuses(self):
        task = oeq_record("r").task
        assert parse_pass(None, task, None).status == "missing"
        assert parse_pass("The answer is 7", task, None).status == "ok"
        long_reasoning = "just words that wander on and on with no usable final answer anywhere"
        assert parse_pass(long_reasoning, task, None).status == "parse_failed"


class TestTemplates:
    def test_mcq_template_renders_choices(self):
        rec = mcq_record("q0")
        text = default_template(rec.task).render(rec)
        assert "A. w" in text and "D. z" in text and rec.prompt in text

    def test_required_slots_enforced(self):
        with pytest.raises(ValueError):
            PromptTemplate(task=mcq_record("q").task, template_text="{question}")
        with pytest.raises(ValueError):
            PromptTemplate(task=oeq_record("q").task, template_text="no slots at all")

    def test_gq_template_from_short_answer_prompting(self):
        rec = oeq_record("q0")
        rec.task = type(rec.task)("gq")
        text = default_template(rec.task).render(rec)
        assert "at most 4 words" in text


class TestSelectFraction:
    def test_size_and_determinism(self):
        corpus = Corpus(records=[oeq_record(f"r{i}") for i in range(40)], model_ids=[])
        a = select_fraction(corpus, 25, seed=3)
        b = select_fraction(corpus, 25, seed=3)
        assert a == b and len(a) == 10

    def test_full_alpha(self):
        corpus = Corpus(records=[oeq_record(f"r{i}") for i in range(7)], model_ids=[])
        assert len(select_fraction(corpus, 100, seed=0)) == 7

    def test_invalid_alpha(self):
        corpus = Corpus(records=[oeq_record("r0")], model_ids=[])
        with pytest.raises(ValueError):
            select_fraction(corpus, 0, seed=0)
