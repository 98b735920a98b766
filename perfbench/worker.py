"""Runs one workload's CLI stages in-process through ``fusepool.cli.main``.

Started by ``run.py`` in a fresh interpreter that did not build the inputs,
so its peak RSS is the pipeline's own. Passes repeat until the time budget
is spent; each pass writes to a fresh output directory. With ``--trace 1``
untraced and traced passes alternate, starting untraced, and at least one
of each runs. No pass starts that would, at the mean pass time so far, end
after the budget.

    python3 perfbench/worker.py --plan PLAN --seconds S --trace 0|1 --result OUT
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path


def _run_stage(cli_main, argv: list[str]) -> int:
    try:
        return cli_main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing stage is a failed attempt, not a dead benchmark
        traceback.print_exc()
        return 1


def peak_rss_mb() -> float:
    """This process's own RSS high-water mark. ``ru_maxrss`` is not used: on
    Linux it keeps the parent's mark across fork and exec, so it would count
    the process that built the inputs."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    run_dir = Path(args.plan).parent

    from fusepool.cli import main as cli_main
    import tracing

    stub = None
    endpoints = ""
    if "stub" in plan:
        from stub import StubPlan, StubServer

        cfg = plan["stub"]
        stub = StubServer(StubPlan(
            seed=cfg["seed"],
            latency_ms=cfg["latency_ms"],
            fail_first=frozenset(tuple(k) for k in cfg["fail_first"]),
        ))
        endpoints = str(run_dir / "endpoints.json")
        Path(endpoints).write_text(json.dumps([
            {"base_url": stub.base_url, "model_name": m} for m in cfg["latency_ms"]
        ]), encoding="utf-8")

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    began = time.perf_counter()
    try:
        while True:
            i = len(passes)
            traced = tracer is not None and i % 2 == 1
            out = run_dir / f"pass-{i}"
            out.mkdir()
            if stub is not None:
                stub.reset()
            if traced:
                mark = len(tracer.spans)
                tracer.masks = set()
                tracer.counters = defaultdict(int)
                tracer.install()
            stages = []
            pass_start = time.perf_counter()
            for st in plan["stages"]:
                stage_argv = [a.format(out=out, endpoints=endpoints) for a in st["argv"]]
                if traced:
                    tracer.start_run(f"pass-{i}:{st['name']}")
                t0, c0 = time.perf_counter(), time.process_time()
                rc = _run_stage(cli_main, stage_argv)
                stages.append({"name": st["name"], "wall_s": time.perf_counter() - t0,
                               "cpu_s": time.process_time() - c0, "rc": rc})
            pass_end = time.perf_counter()
            record = {"index": i, "traced": traced, "out": str(out), "stages": stages,
                      "wall_s": sum(s["wall_s"] for s in stages)}
            if traced:
                tracer.uninstall()
                record["layer"] = tracing.layer_metrics(
                    tracer.spans[mark:], tracer.masks, tracer.counters)
                record["spans"] = len(tracer.spans) - mark
            if stub is not None:
                record["stub"] = stub.stats(pass_start, pass_end)
            passes.append(record)
            # Start no pass that would end past the budget, once the minimum
            # (one pass, or one untraced and one traced) has run.
            spent = time.perf_counter() - began
            if (len(passes) >= (2 if tracer else 1)
                    and spent + spent / len(passes) > args.seconds):
                break
    finally:
        if stub is not None:
            stub.close()

    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        spans_path = run_dir / "spans.json"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
