"""The benchmark's own tests: smoke-size runs, the oracle on hand cases, the
stub's determinism, the tracer, and the catalogue against BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests

import catalogue
import oracle
import tracing
import workloads
from stub import StubPlan, StubServer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_workload_reports_every_end_to_end_metric(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    result = last_json(done)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(catalogue.END_TO_END)
    for name, unit in catalogue.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["select-genetic", "harvest"])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    done = run_bench("--workload", workload, "--seed", "4", "--seconds", "0.2",
                     "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    metrics = last_json(done)["metrics"]
    assert list(metrics) == list(catalogue.PER_LAYER)
    if workload == "select-genetic":
        assert metrics["pruning.ga_generations"]["value"] > 0
        assert 0 < metrics["pruning.memo_hit_share"]["value"] < 1
        assert metrics["cli.prune.self_s"]["value"] > 0
    else:
        assert metrics["harvest.http_errors"]["value"] == 4
        assert metrics["harvest.in_flight_max"]["value"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harvest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_oracle_fully_co_failing_team_scores_zero():
    failures = [[True, True, True], [False, False, False], [True, True, True]]
    assert oracle.focal_diversity(failures, [0, 1, 2]) == 0.0


def test_oracle_disjoint_failures_score_one():
    failures = [[True, False, False], [False, True, False], [False, False, True],
                [False, False, False]]
    assert oracle.focal_diversity(failures, [0, 1, 2]) == 1.0


def test_oracle_plurality_ties_go_to_the_lowest_index_member():
    predictions = [[2, 1, None], [0, 0, 3], [None, None, None]]
    golds = [1, 0, 1]
    # Row 1 ties 2 against 1: member 0 votes first, so 2 wins and misses.
    assert oracle.plurality_accuracy(predictions, golds, [0, 1, 2]) == pytest.approx(1 / 3)
    assert oracle.plurality_accuracy(predictions, golds, [1, 2]) == pytest.approx(2 / 3)


def _drive(base_url, schedule, concurrent):
    """Send (model, tag, count) requests; returns each key's replies in order."""
    replies = {}
    lock = threading.Lock()
    prompt = "[{tag}] pick one\nA. amber falcon\nB. cobalt harbor\nC. jade meadow"

    def send(model, tag, count):
        for _ in range(count):
            body = {"model": model,
                    "messages": [{"role": "user", "content": prompt.format(tag=tag)}]}
            resp = requests.post(base_url + "/chat/completions", json=body, timeout=10)
            with lock:
                replies.setdefault((model, tag), []).append(
                    (resp.status_code, resp.text if resp.ok else ""))

    if concurrent:
        threads = [threading.Thread(target=send, args=job) for job in schedule]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    else:
        for job in schedule:
            send(*job)
    return replies


def test_stub_replies_do_not_depend_on_the_client_schedule():
    plan = StubPlan(seed=5, latency_ms={"m-a": 1.0, "m-b": 3.0},
                    fail_first=frozenset({("m-a", "hq-1"), ("m-b", "hq-0")}))
    jobs = [(m, f"hq-{q}", 4) for m in ("m-a", "m-b") for q in range(3)]
    stub = StubServer(plan)
    try:
        first = _drive(stub.base_url, jobs, concurrent=False)
        counts_first = (stub.requests, stub.http_errors)
        stub.reset()
        second = _drive(stub.base_url, list(reversed(jobs)), concurrent=True)
        counts_second = (stub.requests, stub.http_errors)
    finally:
        stub.close()
    assert first == second
    assert counts_first == counts_second == (24, 2)
    assert first[("m-a", "hq-1")][0][0] == 500 and first[("m-a", "hq-1")][1][0] == 200
    texts = [t for r in first.values() for _, t in r]
    assert any("Most likely it is" in t for t in texts)
    assert any("The answer is" in t for t in texts)


def test_prose_replies_parse_to_the_intended_choice():
    from fusepool.harvest import extract_mcq_choice

    choices = ["amber falcon", "cobalt harbor", "jade meadow", "teal quarry"]
    plan = StubPlan(seed=1, latency_ms={"m": 0.0}, fail_first=frozenset())
    replies = [plan.reply("m", "hq-0", choices, n) for n in range(200)]
    prose = [r for r in replies if "The answer is" not in r.text]
    assert prose
    for reply in prose:
        assert extract_mcq_choice(reply.text, choices) == reply.choice


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        (0, "outer", 0.0, 10.0, -1, 0),
        (1, "child", 1.0, 4.0, 0, 0),
        (2, "child", 3.0, 6.0, 0, 0),  # overlaps its sibling, as threads can
        (3, "leaf", 1.5, 2.0, 1, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(0.5)


def test_tracer_uninstall_restores_the_original_functions():
    import fusepool.cli as cli
    import fusepool.pruning as pruning

    before = (cli.load_corpus, cli._COMMANDS["prune"], pruning.VoteTable.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_corpus is not before[0]
        assert cli._COMMANDS["prune"] is not before[1]
        assert pruning.VoteTable.__init__ is not before[2]
    finally:
        tracer.uninstall()
    assert (cli.load_corpus, cli._COMMANDS["prune"], pruning.VoteTable.__init__) == before


def test_tracer_refuses_a_missing_target(monkeypatch):
    import fusepool.cli as cli

    before = cli.load_corpus
    monkeypatch.setattr(tracing, "TARGETS", [
        ("corpus.load_corpus", "fusepool.corpus", "load_corpus"),
        ("pruning.gone", "fusepool.pruning", "no_such_function"),
    ])
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="fusepool.pruning.no_such_function"):
        tracer.install()
    assert cli.load_corpus is before


def test_every_benchmark_json_name_has_an_implementation():
    assert [w["name"] for w in catalogue.SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(catalogue.PER_LAYER) == sorted(catalogue.CONTEXT)
