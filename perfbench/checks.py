"""Output checks owned by the benchmark.

They read only the stage outputs, the corpus file, the public
``fusepool.corpus`` loader and ``split``, and recompute what they verify with
``oracle``. Each check returns (problems, facts): a list of human-readable
failures, empty when the outputs are right, and the numbers the benchmark
reports from the outputs (work items, output quality, pass statistics).
"""
from __future__ import annotations

import csv
import json
import random
import statistics
from collections import Counter
from pathlib import Path

from fusepool.corpus import SplitSpec, load_corpus, split

import oracle
from stub import StubPlan

# The CLI's default split fractions; the stages run with them.
SPLIT_FRACTIONS = (0.7, 0.15, 0.15)
SAMPLED_ROWS = 12
TOLERANCE = 1.5e-6  # CSV values carry six decimals


def scoring_records(corpus, seed: int):
    """Records prune scores on: the val split, else the train split."""
    train, val, _ = split(corpus, SplitSpec(*SPLIT_FRACTIONS, seed=seed))
    return val.records or train.records


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _members(bits: str) -> list[int]:
    return [i for i, b in enumerate(bits) if b == "1"]


def check_candidate_rows(path: Path, records, model_ids, sample_seed: str,
                         expect_rows: int | None = None) -> tuple[list[str], list[dict]]:
    """Row count, ranking order, and a seeded sample of rows (always the top
    one) recomputed from the definitions."""
    problems = []
    if not path.is_file():
        return [f"{path.name}: missing"], []
    rows = _read_rows(path)
    if not rows:
        return [f"{path.name}: no rows"], rows
    if expect_rows is not None and len(rows) != expect_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expect_rows}")
    fits = [float(r["fitness"]) for r in rows]
    if any(a < b for a, b in zip(fits, fits[1:])):
        problems.append(f"{path.name}: rows are not ranked by fitness")
    preds = oracle.prediction_table(records, model_ids)
    golds = [oracle.gold(rec) for rec in records]
    failures = oracle.failure_rows(preds, golds)
    rng = random.Random(sample_seed)
    picked = sorted({0, *rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows)))})
    for idx in picked:
        row = rows[idx]
        members = _members(row["mask"])
        div = oracle.focal_diversity(failures, members)
        acc = oracle.plurality_accuracy(preds, golds, members)
        expected = {"size": len(members), "lambda": div, "val_accuracy": acc,
                    "fitness": oracle.fitness(div, acc)}
        for key, want in expected.items():
            got = float(row[key])
            if abs(got - want) > TOLERANCE:
                problems.append(f"{path.name} row {idx} ({row['mask']}): {key} {got} "
                                f"!= oracle {want:.6f}")
    return problems, rows


def _load_json(path: Path, problems: list[str]) -> dict:
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _check_pick(out: Path, rows: list[dict], method: str, problems: list[str]) -> float:
    """The ensemble the stage picked heads its ranked CSV; returns its fitness."""
    ensemble = _load_json(out / "ensemble.json", problems)
    if not ensemble or not rows:
        return 0.0
    if ensemble.get("method") != method:
        problems.append(f"ensemble.json: method {ensemble.get('method')!r}, expected {method!r}")
    if ensemble.get("mask") != rows[0]["mask"]:
        problems.append(f"ensemble.json: pick {ensemble.get('mask')} is not the top row "
                        f"{rows[0]['mask']}")
    if abs(ensemble.get("fitness", -1.0) - max(float(r["fitness"]) for r in rows)) > TOLERANCE:
        problems.append("ensemble.json: fitness is not the best row's")
    return float(ensemble.get("fitness", 0.0))


def check_select_exhaustive(plan: dict, out: Path, seed: int) -> tuple[list[str], dict]:
    corpus = load_corpus(plan["corpus"])
    n = len(corpus.model_ids)
    n_candidates = 2**n - n - 1
    problems, cand_rows = check_candidate_rows(
        out / "candidates.csv", scoring_records(corpus, seed), corpus.model_ids,
        f"check:{seed}:candidates", n_candidates)
    quality = _check_pick(out, cand_rows, "bf", problems)
    more, div_rows = check_candidate_rows(
        out / "diversity_report.csv", corpus.records, corpus.model_ids,
        f"check:{seed}:diversity", n_candidates)
    problems += more
    summary = _load_json(out / "diversity_report.json", problems)
    if summary and summary.get("n_candidates") != n_candidates:
        problems.append("diversity_report.json: wrong n_candidates")
    if summary and summary.get("n_episodes") != len(corpus.records):
        problems.append("diversity_report.json: wrong n_episodes")
    return problems, {"candidates": len(cand_rows) + len(div_rows),
                      "prune_candidates": len(cand_rows), "quality": quality}


def check_select_genetic(plan: dict, out: Path, seed: int) -> tuple[list[str], dict]:
    corpus = load_corpus(plan["corpus"])
    problems: list[str] = []
    fitnesses = []
    candidates = 0
    for stage in plan["stages"]:
        gs = stage["ga_seed"]
        run_out = out / f"ga-{gs}"
        more, rows = check_candidate_rows(
            run_out / "candidates.csv", scoring_records(corpus, gs), corpus.model_ids,
            f"check:{seed}:{gs}")
        problems += [f"ga-{gs}/{p}" for p in more]
        pick_problems: list[str] = []
        fitnesses.append(_check_pick(run_out, rows, "ga", pick_problems))
        problems += [f"ga-{gs}/{p}" for p in pick_problems]
        candidates += len(rows)
    return problems, {"prune_candidates": candidates, "quality": statistics.fmean(fitnesses)}


def check_fuse_oeq(plan: dict, out: Path, seed: int) -> tuple[list[str], dict]:
    corpus = load_corpus(plan["corpus"])
    n = len(corpus.model_ids)
    train, val, test = split(corpus, SplitSpec(*SPLIT_FRACTIONS, seed=seed))
    problems, rows = check_candidate_rows(
        out / "candidates.csv", val.records or train.records, corpus.model_ids,
        f"check:{seed}:candidates", 2**n - n - 1)
    _check_pick(out, rows, "bf", problems)
    ensemble = _load_json(out / "ensemble.json", problems)
    trained = _load_json(out / "train_report.json", problems)
    if trained and (trained.get("n_train"), trained.get("n_val")) != (
            len(train.records), len(val.records)):
        problems.append("train_report.json: split sizes differ from the seeded split")
    report = _load_json(out / "report.json", problems)
    accuracy = 0.0
    pred_path = out / "predictions.jsonl"
    if report and pred_path.is_file():
        preds = [json.loads(line) for line in pred_path.read_text(encoding="utf-8").splitlines()]
        if [p["id"] for p in preds] != [r.id for r in test.records]:
            problems.append("predictions.jsonl: ids are not the test split in order")
        hits = 0
        for p in preds:
            right = p["predicted"] is not None and (
                oracle.normalise(p["predicted"]) == oracle.normalise(p["gold"]))
            if right != p["correct"]:
                problems.append(f"predictions.jsonl: {p['id']} marked correct={p['correct']}")
                break
            hits += right
        if report.get("n_episodes") != len(test.records) or len(preds) != len(test.records):
            problems.append("report.json: size differs from the test split")
        recount = hits / len(preds) if preds else 0.0
        if abs(report.get("accuracy", -1.0) - recount) > 1e-12:
            problems.append(f"report.json: accuracy {report.get('accuracy')} != recount {recount}")
        accuracy = float(report.get("accuracy", 0.0))
    elif report:
        problems.append("predictions.jsonl: missing")
    members = ensemble.get("members", corpus.model_ids)
    expected = [rec.id for rec in corpus.records if any(
        p.status == "ok" and p.raw_text.strip()
        for m in members for p in rec.passes.get(m, ()))]
    summary_path = out / "summary_inputs.jsonl"
    if not summary_path.is_file():
        problems.append("summary_inputs.jsonl: missing")
    else:
        got = [json.loads(line)["id"] for line in
               summary_path.read_text(encoding="utf-8").splitlines()]
        if got != expected:
            problems.append("summary_inputs.jsonl: records differ from those with usable text")
    return problems, {"prune_candidates": len(rows), "episodes": len(corpus.records),
                      "quality": accuracy}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def check_harvest(plan: dict, out: Path, seed: int, stub_stats: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    queries = load_corpus(plan["corpus"])
    cfg = plan["stub"]
    stub_plan = StubPlan(seed=cfg["seed"], latency_ms=cfg["latency_ms"],
                         fail_first=frozenset(tuple(k) for k in cfg["fail_first"]))
    models = list(cfg["latency_ms"])
    k = plan["k_passes"]
    path = out / "harvested.jsonl"
    if not path.is_file():
        return ["harvested.jsonl: missing"], {}
    harvested = {rec.id: rec for rec in load_corpus(str(path)).records}
    statuses: Counter = Counter()
    latencies = []
    matched = 0
    for query in queries.records:
        rec = harvested.get(query.id)
        if rec is None:
            problems.append(f"{query.id}: missing from the harvested corpus")
            continue
        for m in models:
            passes = rec.passes.get(m, [])
            if len(passes) != k:
                problems.append(f"{query.id}/{m}: {len(passes)} passes, expected {k}")
            statuses.update(p.status for p in passes)
            latencies += [p.latency_s * 1000.0 for p in passes if p.latency_s is not None]
            intended = Counter(stub_plan.replied_choices(m, query.id, query.choices, len(passes)))
            matched += sum((Counter(p.parsed for p in passes if p.status == "ok")
                            & intended).values())
    n_passes = sum(statuses.values())
    injected = len(cfg["fail_first"])
    if stub_stats.get("requests") != n_passes + injected:
        problems.append(f"stub saw {stub_stats.get('requests')} requests, expected "
                        f"{n_passes} passes + {injected} injected 500s")
    if stub_stats.get("http_errors") != injected:
        problems.append(f"stub sent {stub_stats.get('http_errors')} errors, expected {injected}")
    expected_passes = len(queries.records) * len(models) * k
    return problems, {
        "passes": n_passes,
        "missing": statuses["missing"],
        "quality": matched / expected_passes,
        "passes_ok": statuses["ok"],
        "passes_missing": statuses["missing"],
        "passes_parse_failed": statuses["parse_failed"],
        "latency_samples": len(latencies),
        "pass_latency_p50_ms": _percentile(latencies, 50) if latencies else 0.0,
        "pass_latency_p95_ms": _percentile(latencies, 95) if latencies else 0.0,
    }


def same_outputs(a: Path, b: Path) -> list[str]:
    """Two passes over the same inputs must write byte-identical files."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"{b.name}: wrote other files than {a.name}"]
    return [f"{b.name}/{rel}: differs from {a.name}" for rel in files_a
            if (a / rel).read_bytes() != (b / rel).read_bytes()]


CHECKS = {
    "select-exhaustive": check_select_exhaustive,
    "select-genetic": check_select_genetic,
    "fuse-oeq": check_fuse_oeq,
}
