"""Benchmark metadata: BENCHMARK.json, plus what it has no keys for.

BENCHMARK.json is the one source of the workload names and reasons and of
every metric's name, unit, direction and bound. ``CONTEXT`` adds, for each
per-layer metric, its layer, the end-to-end or stage metric it should move,
and the workload where it should move it. Stage metrics (``stage.*``) carry
the per-stage walls and figures; they are measured untraced inside a traced
run, because every gated end-to-end metric must exist on every workload.
"""
from __future__ import annotations

import json
from pathlib import Path

from tracing import SPAN_NAMES

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_SE, _SG, _OEQ, _HV = "select-exhaustive", "select-genetic", "fuse-oeq", "harvest"
_ALL = f"{_SE}, {_SG}, {_OEQ}, {_HV}"

# per-layer metric name -> (layer, the metric it should move, workload where it should)
CONTEXT = {
    "corpus.load_s": ("corpus", "setup_s and every stage time", f"{_SG}, {_OEQ}"),
    "corpus.loads": ("corpus", "setup_s and every stage time", _ALL),
    "corpus.split_s": ("corpus", "every stage time", f"{_SG}, {_OEQ}"),
    "answers.model_prediction_calls": ("answers",
        "stage.prune_s, stage.diversity_report_s", f"{_SG}, {_SE}"),
    "diversity.failure_matrix_s": ("diversity", "stage.prune_s", _SG),
    "pruning.vote_table_s": ("pruning", "stage.prune_s", _SG),
    "diversity.focal_diversity_calls": ("diversity",
        "stage.prune_s, stage.diversity_report_s, stage.candidates_per_s", _SE),
    "diversity.focal_diversity_us_per_call": ("diversity",
        "stage.prune_s, stage.diversity_report_s, stage.candidates_per_s", _SE),
    "pruning.accuracy_calls": ("pruning",
        "stage.prune_s, stage.diversity_report_s, stage.candidates_per_s", _SE),
    "pruning.accuracy_us_per_call": ("pruning",
        "stage.prune_s, stage.diversity_report_s, stage.candidates_per_s", _SE),
    "pruning.score_calls": ("pruning",
        "stage.prune_s, stage.selected_fitness", _SG),
    "pruning.masks_scored": ("pruning",
        "stage.prune_s, stage.selected_fitness", _SG),
    "pruning.memo_hit_share": ("pruning",
        "stage.prune_s, stage.selected_fitness", _SG),
    "pruning.ga_generations": ("pruning",
        "stage.prune_s, stage.selected_fitness", _SG),
    "pruning.search_self_s": ("pruning",
        "stage.prune_s, stage.selected_fitness", _SG),
    "pruning.csv_write_s": ("pruning", "stage.diversity_report_s", _SE),
    "diversity.failure_csv_s": ("diversity", "stage.diversity_report_s", _SE),
    "fusion.build_training_data_s": ("fusion", "stage.train_s", _OEQ),
    "fusion.episodes_skipped": ("fusion", "stage.train_s", _OEQ),
    "fusion.loss_and_grad_calls": ("fusion", "stage.train_s", _OEQ),
    "fusion.loss_and_grad_us_per_call": ("fusion", "stage.train_s", _OEQ),
    "fusion.train_self_s": ("fusion", "stage.train_s", _OEQ),
    "fusion.params_io_s": ("fusion", "stage.train_s", _OEQ),
    "fusion.predict_calls": ("fusion", "stage.evaluate_s", _OEQ),
    "fusion.predict_us_per_call": ("fusion", "stage.evaluate_s", _OEQ),
    "evaluation.evaluate_records_s": ("evaluation", "stage.evaluate_s", _OEQ),
    "evaluation.baselines_s": ("evaluation", "stage.evaluate_s", _OEQ),
    "summary_prep.serialize_calls": ("summary_prep",
        "stage.summarize_prep_s", _OEQ),
    "summary_prep.serialize_us_per_call": ("summary_prep",
        "stage.summarize_prep_s", _OEQ),
    "harvest.requests": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.http_errors": ("harvest",
        "stage.harvest_s, stage.passes_per_s, stage.error_rate", _HV),
    "harvest.requests_per_pass": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.in_flight_mean": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.in_flight_max": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.idle_slot_share": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.pass_latency_p50_ms": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.pass_latency_p95_ms": ("harvest",
        "stage.harvest_s, stage.passes_per_s", _HV),
    "harvest.passes_ok": ("harvest", "stage.error_rate, quality", _HV),
    "harvest.passes_missing": ("harvest", "stage.error_rate", _HV),
    "harvest.passes_parse_failed": ("harvest", "quality", _HV),
    "trace.overhead_s": ("benchmark", "none: traced minus untraced wall_s", _ALL),
    "stage.prune_s": ("cli", "wall_s", f"{_SE}, {_SG}, {_OEQ}"),
    "stage.diversity_report_s": ("cli", "wall_s", _SE),
    "stage.train_s": ("cli", "wall_s", _OEQ),
    "stage.evaluate_s": ("cli", "wall_s", _OEQ),
    "stage.summarize_prep_s": ("cli", "wall_s", _OEQ),
    "stage.harvest_s": ("cli", "wall_s", _HV),
    "stage.candidates_per_s": ("cli", "items_per_s", f"{_SE}, {_SG}, {_OEQ}"),
    "stage.passes_per_s": ("cli", "items_per_s", _HV),
    "stage.selected_fitness": ("cli", "quality", _SG),
    "stage.test_accuracy": ("cli", "quality", _OEQ),
    "stage.error_rate": ("cli", "correct, failed", _ALL),
}
CONTEXT.update({
    f"{span}.self_s": (span.split(".")[0],
                       "its stage's time: span time not covered by child spans", _ALL)
    for span in SPAN_NAMES
})
