#!/usr/bin/env python3
"""fusepool benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload select-exhaustive --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. The run:

1. makes the workload's inputs from --seed (``workloads.py``);
2. times set-up, a fresh interpreter importing ``fusepool.cli`` and loading
   the workload's corpus, several times before and after step 3;
3. runs the CLI stages in-process in a worker process (``worker.py``) for
   --seconds, each pass into a fresh output directory; with --trace 1,
   traced and untraced passes alternate and spans are recorded
   (``tracing.py``);
4. checks every pass's outputs (``checks.py``);
5. prints each metric by name with its unit, then one JSON line: with
   --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.

A failed stage or check makes ``correct`` false and the exit code 1. The
full result, with run metadata, is also written to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import catalogue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = (4, 5)  # samples before and after the worker, so one burst
                       # of machine noise cannot skew them all
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes

SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import fusepool.cli\n"
    "from fusepool.corpus import load_corpus\n"
    "load_corpus(sys.argv[1])\n"
    "print(time.perf_counter() - t)\n"
)

# Stage-level metrics and their units; reported where the workload runs the stage.
STAGE_UNITS = {name[len("stage."):]: unit for name, unit in catalogue.PER_LAYER.items()
               if name.startswith("stage.") and name != "stage.error_rate"}
_STAGE_TIME = {"prune": "prune_s", "diversity-report": "diversity_report_s",
               "train-weighted": "train_s", "evaluate": "evaluate_s",
               "summarize-prep": "summarize_prep_s", "harvest": "harvest_s"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def _deadline_left(started: float) -> float:
    return RUN_LIMIT_S - (time.perf_counter() - started)


def measure_setup(corpus: str, started: float, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, corpus], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=max(5.0, _deadline_left(started)),
            check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def metadata(seed: int) -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_metrics(workload: str, passes: list[dict], facts: list[dict]) -> dict:
    """Per-pass stage walls, throughput and quality, as medians over passes."""
    out: dict[str, float] = {}
    for key in _STAGE_TIME.values():
        walls = [sum(s["wall_s"] for s in p["stages"] if _STAGE_TIME[s["name"]] == key)
                 for p in passes]
        if any(walls):
            out[key] = _median(walls)

    def per_pass(fn) -> float:
        return _median([fn(p, f) for p, f in zip(passes, facts)])

    def stage_wall(p, *names):
        return sum(s["wall_s"] for s in p["stages"] if s["name"] in names)

    if workload in ("select-exhaustive", "select-genetic", "fuse-oeq"):
        out["candidates_per_s"] = per_pass(
            lambda p, f: f["prune_candidates"] / stage_wall(p, "prune"))
    if workload == "select-exhaustive":
        items = per_pass(lambda p, f: f["candidates"] / stage_wall(p, "prune", "diversity-report"))
    elif workload == "select-genetic":
        items = out["candidates_per_s"]
        out["selected_fitness"] = per_pass(lambda p, f: f["quality"])
    elif workload == "fuse-oeq":
        items = per_pass(lambda p, f: f["episodes"] / p["wall_s"])
        out["test_accuracy"] = per_pass(lambda p, f: f["quality"])
    else:
        out["passes_per_s"] = items = per_pass(lambda p, f: f["passes"] / stage_wall(p, "harvest"))
    out["items_per_s"] = items
    out["quality"] = per_pass(lambda p, f: f["quality"])
    return out


def check_passes(workload: str, plan: dict, passes: list[dict], seed: int):
    """Stage exit codes and output checks for every pass; returns
    (attempted, failed, problems, facts per pass)."""
    import checks

    attempted = failed = 0
    problems: list[str] = []
    facts: list[dict] = []
    first = None
    for p in passes:
        out = Path(p["out"])
        stage_problems = [f"pass {p['index']} stage {s['name']}: exit {s['rc']}"
                          for s in p["stages"] if s["rc"] != 0]
        attempted += len(p["stages"])
        try:
            if workload == "harvest":
                more, fact = checks.check_harvest(plan, out, seed, p["stub"])
                attempted += fact.get("passes", 0)
                failed += fact.get("missing", 0)
            elif first is None:
                more, fact = checks.CHECKS[workload](plan, out, seed)
                first = (out, fact)
            else:
                more, fact = checks.same_outputs(first[0], out), first[1]
        except Exception:  # outputs too malformed to check are a failed check
            more, fact = [f"check crashed:\n{traceback.format_exc()}"], {}
        more = [f"pass {p['index']}: {m}" for m in more]
        failed += len(p["stages"]) if (stage_problems or more) else 0
        problems += stage_problems + more
        facts.append(fact)
    return attempted, failed, problems, facts


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads

    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        plan = workloads.WORKLOADS[name](seed, run_dir, smoke)
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
        setup = measure_setup(plan["corpus"], started, SETUP_REPEATS[0])
        result_path = run_dir / "worker.json"
        with open(run_dir / "worker.out", "w") as out, open(run_dir / "worker.log", "w") as log:
            worker = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
                 "--seconds", str(seconds), "--trace", str(int(trace)),
                 "--result", str(result_path)],
                cwd=ROOT, env=_env(), stdout=out, stderr=log,
                timeout=max(5.0, _deadline_left(started)))
        if worker.returncode != 0:
            tail = (run_dir / "worker.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"worker exited {worker.returncode}:\n{tail}")
        setup += measure_setup(plan["corpus"], started, SETUP_REPEATS[1])
        result = json.loads(result_path.read_text())
        passes = result["passes"]
        attempted, failed, problems, facts = check_passes(name, plan, passes, seed)
        plain = [p for p in passes if not p["traced"]]
        plain_facts = [f for p, f in zip(passes, facts) if not p["traced"]]
        stages = stage_metrics(name, plain, plain_facts)
        values = {
            "setup_s": _median(setup),
            "wall_s": _median([p["wall_s"] for p in plain]),
            "peak_rss_mb": result["peak_rss_mb"],
            "items_per_s": stages.pop("items_per_s"),
            "quality": stages.pop("quality"),
        }
        e2e = {key: (values[key], unit) for key, unit in catalogue.END_TO_END.items()}
        report = {
            "workload": name,
            "meta": {**metadata(seed), "seconds": seconds, "trace": trace, "smoke": smoke,
                     "samples": {"setup_s": len(setup), "passes": len(plain),
                                 "traced_passes": len(passes) - len(plain)},
                     "setup_samples_s": setup},
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "end_to_end": e2e,
            "stages": stages,
            "passes": [{k: v for k, v in p.items() if k != "layer"} for p in passes],
        }
        if name == "harvest":
            report["meta"]["samples"]["pass_latency_per_pass"] = [
                f.get("latency_samples") for f in facts]
        if trace:
            report["per_layer"] = per_layer(name, passes, facts, stages, attempted, failed)
            spans_dst = WORK / "results" / f"{name}-spans.json"  # latest traced run only
            spans_dst.parent.mkdir(exist_ok=True)
            shutil.copyfile(result["spans_file"], spans_dst)
            report["meta"]["spans_file"] = str(spans_dst.relative_to(ROOT))
        return report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def per_layer(name: str, passes: list[dict], facts: list[dict], stages: dict,
              attempted: int, failed: int) -> dict:
    """Per-layer metrics: medians of the traced passes, harvest figures from
    the stub and the output corpus, stage figures from the untraced passes."""
    import workloads

    traced = [p for p in passes if p["traced"]]
    traced_facts = [f for p, f in zip(passes, facts) if p["traced"]]
    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    metrics = {}
    for key in traced[0]["layer"]:
        metrics[key] = _median([p["layer"][key] for p in traced])
    if name == "harvest":
        per_pass = []
        for p, f in zip(traced, traced_facts):
            stub = p["stub"]
            per_pass.append({
                "harvest.requests": stub["requests"],
                "harvest.http_errors": stub["http_errors"],
                "harvest.requests_per_pass": stub["requests"] / f["passes"] if f["passes"] else 0.0,
                "harvest.in_flight_mean": stub["in_flight_mean"],
                "harvest.in_flight_max": stub["in_flight_max"],
                "harvest.idle_slot_share":
                    1.0 - stub["in_flight_mean"] / workloads.HARVEST_MAX_IN_FLIGHT,
                **{f"harvest.{k}": f[k] for k in (
                    "pass_latency_p50_ms", "pass_latency_p95_ms", "passes_ok",
                    "passes_missing", "passes_parse_failed")},
            })
        for key in per_pass[0]:
            metrics[key] = _median([m[key] for m in per_pass])
    else:  # the stub and the harvested corpus exist only in the harvest workload
        metrics.update({key: 0.0 for key in catalogue.PER_LAYER
                        if key.startswith("harvest.") and key not in metrics})
    metrics["trace.overhead_s"] = _median([p["wall_s"] for p in traced]) - _median(plain_walls)
    for key in STAGE_UNITS:
        metrics[f"stage.{key}"] = stages.get(key, 0.0)
    metrics["stage.error_rate"] = failed / attempted if attempted else 0.0
    missing = [key for key in catalogue.PER_LAYER if key not in metrics]
    if missing:
        raise RuntimeError(f"no measurement for per-layer metrics {missing}")
    return {key: (metrics[key], unit) for key, unit in catalogue.PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "fusepool" / "__init__.py").is_file():
        print(f"error: no fusepool package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    known = [w["name"] for w in catalogue.SPEC["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if names[0] not in known:
        print(f"error: unknown workload {names[0]!r}; choose from "
              f"{', '.join(known)} or all", file=sys.stderr)
        return 2

    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        reports.append(report)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1))
        print(f"== {name} (seed {args.seed}) meta {json.dumps(report['meta'])}")
        for key, (value, unit) in report["end_to_end"].items():
            print(f"{name} {key} {value:.6g} {unit}")
        for key, value in report["stages"].items():
            print(f"{name} {key} {value:.6g} {STAGE_UNITS[key]}")
        rate = report["failed"] / report["attempted"] if report["attempted"] else 0.0
        print(f"{name} error_rate {rate:.6g} share "
              f"({report['failed']} of {report['attempted']} attempts)")
        for key, (value, unit) in report.get("per_layer", {}).items():
            print(f"{name} {key} {value:.6g} {unit}")
        for problem in report["problems"]:
            print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"

    def metric_block(report: dict, prefix: str = "") -> dict:
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in report[section].items()}

    if len(reports) == 1:
        metrics = metric_block(reports[0])
    else:
        metrics = {}
        for report in reports:
            metrics.update(metric_block(report, report["workload"] + "."))
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
