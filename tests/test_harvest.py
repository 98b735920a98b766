import copy
import importlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import fusepool
from fusepool.cli import main
from fusepool.corpus import Corpus, EpisodeRecord, TaskKind, load_corpus, save_corpus
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


class _StubServer(ThreadingHTTPServer):
    # Eight clients may connect at once; the default backlog of 5 can drop a
    # SYN and stall that client for a one-second retry.
    request_queue_size = 16


@dataclass(frozen=True)
class Call:
    model: str
    prompt: str
    arrived: float
    replied: float
    status: int


class StubEndpoint:
    """Scripted chat-completions server: per-model behaviors keyed by model name.

    A behavior is ("ok", text), ("fail", n_failures_then_text), ("auth",),
    ("count",), whose n-th reply to a (model, prompt) key says "reply n", or
    ("raw", body), whose 200 reply carries ``body`` verbatim. A model's first
    ``failures`` requests get HTTP ``status`` (500 unless set) under "fail"
    and "count"; a 3xx points its Location back at this server. Each request
    waits the model's ``delay`` seconds before its reply, and ``log`` stamps
    its arrival and reply on the monotonic clock. A GET, which only a
    followed redirect would send, is answered 404 and its path kept in
    ``followed``; ``user_agents`` and ``authorizations`` keep each POST's
    User-Agent and Authorization header (None where it has none).
    """

    def __init__(self):
        self.behaviors = {}
        self.failures_left = {}
        self.failure_status = {}
        self.delays = {}
        self.replies = {}
        self.requests = []
        self.user_agents = []
        self.authorizations = []
        self.followed = []
        self.log = []
        self.lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                arrived = time.monotonic()
                model = body["model"]
                prompt = body["messages"][0]["content"]
                stub.requests.append(body)
                stub.user_agents.append(self.headers["User-Agent"])
                stub.authorizations.append(self.headers["Authorization"])
                time.sleep(stub.delays.get(model, 0.0))
                behavior = stub.behaviors.get(model, ("ok", "stub says hi"))
                with stub.lock:
                    if behavior[0] == "auth":
                        status = 401
                    elif behavior[0] in ("fail", "count") and stub.failures_left.get(model, 0):
                        stub.failures_left[model] -= 1
                        status = stub.failure_status.get(model, 500)
                    else:
                        status = 200
                    if behavior[0] == "count" and status == 200:
                        n = stub.replies.get((model, prompt), 0)
                        stub.replies[model, prompt] = n + 1
                        text = f"reply {n}: The answer is (B)."
                    else:
                        text = behavior[-1]
                    stub.log.append(Call(model, prompt, arrived, time.monotonic(), status))
                if status != 200:
                    self.send_response(status)
                    if 300 <= status < 400:
                        self.send_header("Location", stub.base_url + "/chat/completions")
                    self.end_headers()
                    return
                if behavior[0] == "raw":
                    payload = text.encode()
                else:
                    payload = json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": text}}]}
                    ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                stub.followed.append(self.path)
                self.send_response(404)
                self.end_headers()

            def log_message(self, *args):
                pass

        self.server = _StubServer(("127.0.0.1", 0), Handler)
        # A short poll keeps close()'s shutdown from waiting out the default 0.5 s.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def set(self, model, behavior, failures=0, delay=0.0, status=500):
        self.behaviors[model] = behavior
        if failures:
            self.failures_left[model] = failures
            self.failure_status[model] = status
        if delay:
            self.delays[model] = delay

    def calls(self, model, query=None):
        """Logged requests to ``model``, for one query's prompt if given."""
        return [c for c in self.log if c.model == model
                and (query is None or c.prompt.startswith(f"question {query}\n"))]

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    s = StubEndpoint()
    yield s
    s.close()


harvest_module = importlib.import_module("fusepool.harvest")


@pytest.fixture
def backoff(monkeypatch):
    """Shortens harvest's retry waits to a 0.01 s base and a 0.02 s cap for
    one test; ``backoff(base_s, cap_s)`` sets others."""
    def set_backoff(base_s, cap_s):
        monkeypatch.setattr(harvest_module, "BACKOFF_BASE_S", base_s)
        monkeypatch.setattr(harvest_module, "BACKOFF_CAP_S", cap_s)

    set_backoff(0.01, 0.02)
    return set_backoff


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

    def test_retry_budget_exact(self, stub, backoff):
        stub.set("flaky", ("fail", "The answer is (A)."), failures=2)
        out = harvest(queries(1), [endpoint(stub, "flaky", max_retries=2)], k=1)
        assert out.records[0].passes["flaky"][0].status == "ok"

    def test_exhausted_retries_mark_missing_others_unaffected(self, stub, backoff):
        stub.set("dead", ("fail", "never"), failures=99)
        stub.set("alive", ("ok", "The answer is (D)."))
        eps = [endpoint(stub, "dead", max_retries=1), endpoint(stub, "alive")]
        out = harvest(queries(1), eps, k=1)
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

    def test_harvest_writes_the_other_models_vectors_back_unchanged(self, stub, tmp_path):
        # Half the records are harvested for "new" and "b": b's vector gives way
        # to its passes and a's stays; the other half are written back as read.
        rng = random.Random(7)
        records = []
        for i in range(8):
            probs = {}
            for model in ("a", "b"):
                raw = [rng.random() for _ in range(4)]
                probs[model] = [x / sum(raw) for x in raw]
            records.append(mcq_record(f"q{i}", gold=1, probs=probs))
        corpus_path = tmp_path / "c.jsonl"
        save_corpus(Corpus(records=records, model_ids=["a", "b"]), corpus_path)
        stub.set("new", ("ok", "The answer is (C)."))
        stub.set("b", ("ok", "The answer is (C)."))
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps([{"base_url": stub.base_url, "model_name": name}
                                         for name in ("new", "b")]))
        out_path = tmp_path / "h.jsonl"
        assert main(["harvest", "--corpus", str(corpus_path), "--endpoints", str(endpoints),
                     "--out-corpus", str(out_path), "--alpha", "50"]) == 0
        lines_in = corpus_path.read_text().splitlines()
        lines_out = out_path.read_text().splitlines()
        harvested = 0
        for line_in, line_out in zip(lines_in, lines_out, strict=True):
            row_in, row_out = json.loads(line_in), json.loads(line_out)
            if row_out["passes"]:
                harvested += 1
                kept = {"a": row_in["provided_choice_probs"]["a"]}
                assert row_out["provided_choice_probs"] == kept
            else:
                assert line_out == line_in
        assert harvested == 4

    @pytest.mark.parametrize("case", ["template slot", "27 choices"])
    def test_a_prompt_that_cannot_render_exits_2_before_any_request(
            self, stub, tmp_path, capsys, case):
        if case == "template slot":
            corpus = queries(2)
            template = tmp_path / "template.txt"
            template.write_text("{question}\n{choices}\n{foo}")
            argv = ["--template-file", str(template)]
            named = "record q0: .*KeyError: 'foo'"
        else:  # schema-valid, but the letters A to Z label 26 choices
            wide = EpisodeRecord(id="wide", task=TaskKind.mcq(27), prompt="question wide",
                                 ground_truth=1, choices=[f"c{i}" for i in range(27)])
            corpus, argv = Corpus(records=[wide], model_ids=[]), []
            named = "record wide: .*27 choices"
        corpus_path = tmp_path / "q.jsonl"
        save_corpus(corpus, corpus_path)
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps([{"base_url": stub.base_url, "model_name": "m"}]))
        out_path = tmp_path / "h.jsonl"
        assert main(["harvest", "--corpus", str(corpus_path), "--endpoints", str(endpoints),
                     "--out-corpus", str(out_path), *argv]) == 2
        assert re.search(named, capsys.readouterr().err)
        assert stub.requests == [] and not out_path.exists()

    def test_validation(self, stub):
        with pytest.raises(ValueError):
            harvest(queries(1), [], k=1)
        with pytest.raises(ValueError):
            harvest(queries(1), [endpoint(stub, "m")], k=0)
        with pytest.raises(ValueError):
            harvest(queries(1), [endpoint(stub, "m"), endpoint(stub, "m")], k=1)
        for field, value in [
            ("base_url", "file:///etc/passwd"), ("base_url", "ftp://host/v1"),
            ("base_url", "data:,x"), ("base_url", "localhost:8000/v1"), ("base_url", ""),
            ("model_name", ""), ("model_name", 5), ("api_key_env", 5),
            ("timeout_s", float("inf")), ("timeout_s", float("nan")), ("timeout_s", 0),
            ("timeout_s", 1e10), ("timeout_s", True),
            ("temperature", float("nan")), ("temperature", float("inf")),
            ("temperature", -0.1), ("temperature", True),
            ("max_tokens", -5), ("max_tokens", 0), ("max_tokens", 1.5), ("max_tokens", True),
            ("max_retries", 1.5), ("max_retries", -1), ("max_retries", False),
        ]:
            with pytest.raises(ValueError, match=field):
                EndpointConfig(**{"base_url": stub.base_url, "model_name": "m", field: value})
        EndpointConfig(base_url="HTTPS://example.org/v1", model_name="m", temperature=0,
                       max_tokens=1, timeout_s=threading.TIMEOUT_MAX, max_retries=0)

    @pytest.mark.parametrize("body", [
        "[]", '{"choices": [{"message": {"content": 5}}]}', '{"choices": []}', "not json"])
    def test_a_malformed_reply_is_a_failed_attempt(self, stub, backoff, body):
        stub.set("odd", ("raw", body))
        stub.set("alive", ("ok", "The answer is (D)."))
        eps = [endpoint(stub, "odd", max_retries=1), endpoint(stub, "alive")]
        out = harvest(queries(1), eps, k=2)
        rec = out.records[0]
        assert [p.status for p in rec.passes["odd"]] == ["missing", "missing"]
        assert len(stub.calls("odd")) == 4  # each pass: one attempt and one retry
        assert [p.status for p in rec.passes["alive"]] == ["ok", "ok"]

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_a_client_error_fails_the_pass_at_once(self, stub, backoff, caplog, status):
        stub.set("gone", ("fail", "never"), failures=99, status=status)
        out = harvest(queries(1), [endpoint(stub, "gone", max_retries=2)], k=2)
        assert len(stub.calls("gone")) == 2  # one request per pass
        assert [p.status for p in out.records[0].passes["gone"]] == ["missing", "missing"]
        assert f"HTTP Error {status}" in caplog.text

    @pytest.mark.parametrize("status", [408, 429])
    def test_a_timeout_or_rate_limit_status_is_retried(self, stub, backoff, status):
        stub.set("busy", ("fail", "The answer is (A)."), failures=2, status=status)
        out = harvest(queries(1), [endpoint(stub, "busy", max_retries=2)], k=1)
        assert len(stub.calls("busy")) == 3
        assert out.records[0].passes["busy"][0].status == "ok"

    @pytest.mark.parametrize("status", [302, 307, 308])
    def test_a_redirect_is_a_failed_attempt_never_followed(self, stub, backoff, status):
        stub.set("moved", ("fail", "never"), failures=99, status=status)
        out = harvest(queries(1), [endpoint(stub, "moved", max_retries=1)], k=1)
        assert len(stub.calls("moved")) == 2 and stub.followed == []
        assert out.records[0].passes["moved"][0].status == "missing"

    def test_each_request_names_the_client(self, stub):
        harvest(queries(2), [endpoint(stub, "m")], k=1)
        assert stub.user_agents == [f"fusepool/{fusepool.__version__}"] * 2

    @pytest.mark.parametrize("key_env, value, sent", [
        ("FUSEPOOL_TEST_KEY", "s3cret", "Bearer s3cret"),
        ("FUSEPOOL_TEST_KEY", "", None),
        ("FUSEPOOL_TEST_KEY", None, None),
        ("", None, None),
    ], ids=["key-set", "key-empty", "key-unset", "no-key-env"])
    def test_the_key_from_the_environment_is_sent_as_a_bearer_token(self, stub, monkeypatch,
                                                                     key_env, value, sent):
        if value is None:
            monkeypatch.delenv("FUSEPOOL_TEST_KEY", raising=False)
        else:
            monkeypatch.setenv("FUSEPOOL_TEST_KEY", value)
        harvest(queries(2), [endpoint(stub, "m", api_key_env=key_env)], k=1)
        assert stub.authorizations == [sent] * 2

    @pytest.mark.parametrize("task, reply, parsed, status, asks", [
        (TaskKind.oeq(), "Five plus two is seven. The answer is 7.", "7", "ok",
         'finish with "The answer is N"'),
        (TaskKind.oeq(), "I would rather not say.", None, "parse_failed",
         'finish with "The answer is N"'),
        (TaskKind.gq(), "  Paris, France  ", "Paris, France", "ok", "at most 4 words"),
        (TaskKind.gq(), "   ", None, "parse_failed", "at most 4 words"),
    ], ids=["oeq", "oeq-unparsed", "gq", "gq-blank"])
    def test_default_templates_for_open_ended_and_generative_queries(
            self, stub, task, reply, parsed, status, asks):
        stub.set("m", ("ok", reply))
        query = EpisodeRecord(id="q0", task=task, prompt="question q0", ground_truth="7")
        out = harvest(Corpus(records=[query], model_ids=[]), [endpoint(stub, "m")], k=1)
        (p,) = out.records[0].passes["m"]
        assert (p.raw_text, p.parsed, p.status) == (reply, parsed, status)
        (request,) = stub.requests
        assert request["messages"][0]["content"].startswith("question q0\n")
        assert asks in request["messages"][0]["content"]

    def test_proxies_come_from_the_environment(self, stub, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        host, port = stub.server.server_address
        monkeypatch.setenv("http_proxy", f"http://{host}:{port}")
        stub.set("m", ("ok", "The answer is (B)."))
        # Nothing listens on the endpoint itself: only the proxy can answer.
        far = EndpointConfig(base_url="http://127.0.0.2:9/v1", model_name="m", max_retries=0)
        out = harvest(queries(1), [far], k=1)
        assert out.records[0].passes["m"][0].status == "ok"
        assert len(stub.calls("m")) == 1
        monkeypatch.setenv("no_proxy", "127.0.0.2")
        out = harvest(queries(1), [far], k=1)
        assert out.records[0].passes["m"][0].status == "missing"
        assert len(stub.calls("m")) == 1

    def test_harvest_needs_no_requests_package(self, stub, tmp_path):
        stub.set("m", ("ok", "The answer is (B)."))
        corpus_path = tmp_path / "q.jsonl"
        save_corpus(queries(2), corpus_path)
        endpoints = tmp_path / "endpoints.json"
        endpoints.write_text(json.dumps([{"base_url": stub.base_url, "model_name": "m"}]))
        out_path = tmp_path / "h.jsonl"
        code = ("import sys; sys.modules['requests'] = None  # import requests fails\n"
                "from fusepool.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(fusepool.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code, "harvest", "--corpus", str(corpus_path),
             "--endpoints", str(endpoints), "--out-corpus", str(out_path), "--k-passes", "2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        for rec in load_corpus(out_path).records:
            assert [p.parsed for p in rec.passes["m"]] == [1, 1]


def most_at_once(calls):
    """The largest number of the calls in flight at one instant."""
    events = sorted([(c.arrived, 1) for c in calls] + [(c.replied, -1) for c in calls])
    level = peak = 0
    for _, step in events:  # at a tie a reply comes first: it frees its slot
        level += step
        peak = max(peak, level)
    return peak


class TestQueue:
    def test_a_pending_retry_holds_no_slot(self, stub, backoff):
        backoff(0.6, 0.6)
        stub.set("a", ("fail", "The answer is (A)."), failures=1)
        stub.set("b", ("ok", "The answer is (B)."))
        harvest(queries(1), [endpoint(stub, "a"), endpoint(stub, "b")], k=1,
                max_in_flight=1)
        a_failed, a_ok = stub.calls("a")
        (b,) = stub.calls("b")
        assert a_ok.arrived - a_failed.replied >= 0.3  # the backoff was waited out
        assert a_failed.replied < b.arrived < a_ok.arrived

    def test_no_query_waits_for_another(self, stub):
        stub.set("slow", ("ok", "The answer is (A)."), delay=0.3)
        stub.set("fast", ("ok", "The answer is (B)."))
        harvest(queries(2), [endpoint(stub, "slow"), endpoint(stub, "fast")], k=1,
                max_in_flight=2)
        (slow_q0,) = stub.calls("slow", "q0")
        (fast_q1,) = stub.calls("fast", "q1")
        assert fast_q1.arrived < slow_q0.replied

    def test_both_bounds_hold(self, stub, backoff):
        backoff(0.02, 0.04)
        names = ["a", "b", "c"]
        for name in names:
            stub.set(name, ("fail", "The answer is (C)."), failures=2 * (name == "b"), delay=0.02)
        eps = [endpoint(stub, name) for name in names]
        out = harvest(queries(4), eps, k=2, max_in_flight=2)
        assert len(stub.log) == 4 * 3 * 2 + 2
        assert most_at_once(stub.log) == 2
        assert all(most_at_once(stub.calls(name)) == 1 for name in names)
        assert all(p.status == "ok" for rec in out.records
                   for passes in rec.passes.values() for p in passes)

    def test_no_request_starts_after_an_auth_failure(self, stub):
        stub.set("open", ("ok", "The answer is (A)."), delay=0.3)
        stub.set("locked", ("auth",))
        with pytest.raises(AuthError, match="locked"):
            harvest(queries(3), [endpoint(stub, "open"), endpoint(stub, "locked")], k=3,
                    max_in_flight=2)
        assert len(stub.calls("locked")) == 1
        assert len(stub.calls("open")) <= 1  # only a request already sent may finish
        assert not [t for t in threading.enumerate() if t.name.startswith("harvest-")]

    def test_each_chain_stores_its_passes_in_request_order(self, stub, backoff):
        # More pool threads than cores and a tiny switch interval, so that a
        # reply stored for the wrong chain or out of turn would drop, repeat or
        # reorder a pass.
        names = [f"m{i}" for i in range(6)]
        for i, name in enumerate(names):
            stub.set(name, ("count",), failures=i % 3, delay=0.005)
        out = {}

        def run():
            out["corpus"] = harvest(queries(4), [endpoint(stub, name) for name in names], k=3,
                                    max_in_flight=6)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(stub.log) == 4 * 6 * 3 + sum(i % 3 for i in range(6))
        for rec in out["corpus"].records:
            for name in names:
                assert [p.raw_text.split(":")[0] for p in rec.passes[name]] == [
                    "reply 0", "reply 1", "reply 2"]
                assert all(p.latency_s > 0 for p in rec.passes[name])

    def test_a_template_that_fails_to_render_stops_the_run(self, stub):
        template = PromptTemplate(task=mcq_record("q").task,
                                  template_text="{question} {choices} {oops}")
        with pytest.raises(ValueError, match="record q0: .*KeyError: 'oops'"):
            harvest(queries(2), [endpoint(stub, "a"), endpoint(stub, "b")], k=1,
                    template=template)
        assert stub.log == []

    def test_latency_leaves_out_the_backoff(self, stub, backoff):
        backoff(0.6, 0.6)
        stub.set("a", ("fail", "The answer is (A)."), failures=1, delay=0.05)
        out = harvest(queries(1), [endpoint(stub, "a")], k=1)
        failed, ok = stub.calls("a")
        assert ok.arrived - failed.replied >= 0.3  # the backoff was waited out
        (only,) = out.records[0].passes["a"]
        assert only.status == "ok"
        assert 0.1 <= only.latency_s < 0.3  # two round trips of 0.05 s, no backoff

    def test_no_pool_thread_outlives_the_run(self, stub, monkeypatch):
        send = harvest_module._request_completion
        senders = set()

        def recording_send(*args):
            senders.add(threading.current_thread().name)
            return send(*args)

        monkeypatch.setattr(harvest_module, "_request_completion", recording_send)
        stub.set("a", ("ok", "The answer is (A)."))
        stub.set("b", ("ok", "The answer is (B)."))
        harvest(queries(3), [endpoint(stub, "a"), endpoint(stub, "b")], k=2)
        assert senders and all(name.startswith("harvest-") for name in senders)
        assert not [t for t in threading.enumerate() if t.name.startswith("harvest-")]
        # q10 renders, q1 has no character 11: every prompt renders before the
        # first request, so the run stops before it sends any.
        template = PromptTemplate(task=mcq_record("q").task,
                                  template_text="{question}\n{choices} {question[11]}")
        corpus = Corpus(records=[mcq_record("q10"), mcq_record("q1")], model_ids=[])
        senders.clear()
        sent = len(stub.log)
        with pytest.raises(ValueError, match="record q1: .*IndexError"):
            harvest(corpus, [endpoint(stub, "a")], k=1, template=template)
        assert not senders and len(stub.log) == sent
        assert not [t for t in threading.enumerate() if t.name.startswith("harvest-")]

    def test_max_in_flight_must_be_positive(self, stub):
        with pytest.raises(ValueError, match="max_in_flight"):
            harvest(queries(1), [endpoint(stub, "m")], k=1, max_in_flight=0)


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
