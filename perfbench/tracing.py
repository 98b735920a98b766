"""Spans around fusepool's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function, in every ``fusepool``
module namespace and module-level dict that holds it, with a wrapper that
records a span (id, name, start, end, parent id, run id); ``uninstall``
puts the originals back. Spans stay in memory until ``write``. Self times
are derived from the spans: a span's duration minus the part of it that its
child spans cover.

``install`` raises when a target no longer exists, so a renamed or removed
function fails the traced run instead of reading as zero.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" wraps a method.
TARGETS = [
    ("cli.harvest", "fusepool.cli", "cmd_harvest"),
    ("cli.prune", "fusepool.cli", "cmd_prune"),
    ("cli.train_weighted", "fusepool.cli", "cmd_train_weighted"),
    ("cli.evaluate", "fusepool.cli", "cmd_evaluate"),
    ("cli.diversity_report", "fusepool.cli", "cmd_diversity_report"),
    ("cli.summarize_prep", "fusepool.cli", "cmd_summarize_prep"),
    ("corpus.load_corpus", "fusepool.corpus", "load_corpus"),
    ("corpus.save_corpus", "fusepool.corpus", "save_corpus"),
    ("corpus.split", "fusepool.corpus", "split"),
    ("answers.model_prediction", "fusepool.answers", "model_prediction"),
    ("answers.plurality_prediction", "fusepool.answers", "plurality_prediction"),
    ("answers.assemble_mcq_distributions", "fusepool.answers", "assemble_mcq_distributions"),
    ("answers.build_final_solution_set", "fusepool.answers", "build_final_solution_set"),
    ("answers.model_distribution", "fusepool.answers", "model_distribution"),
    ("diversity.failure_matrix", "fusepool.diversity", "failure_matrix"),
    ("diversity.focal_diversity", "fusepool.diversity", "focal_diversity"),
    ("diversity.failure_csv", "fusepool.diversity", "FailureMatrix.to_csv"),
    ("pruning.vote_table", "fusepool.pruning", "VoteTable.__init__"),
    ("pruning.accuracy", "fusepool.pruning", "VoteTable.plurality_accuracy"),
    ("pruning.score", "fusepool.pruning", "CandidateScorer.score"),
    ("pruning.brute_force_prune", "fusepool.pruning", "brute_force_prune"),
    ("pruning.ga_prune", "fusepool.pruning", "ga_prune"),
    ("pruning.diversity_report", "fusepool.pruning", "diversity_report"),
    ("pruning.csv_write", "fusepool.pruning", "write_candidates_csv"),
    ("fusion.build_training_data", "fusepool.fusion", "build_training_data"),
    ("fusion.train", "fusepool.fusion", "train"),
    ("fusion.loss_and_grad", "fusepool.fusion", "loss_and_grad"),
    ("fusion.predict", "fusepool.fusion", "predict"),
    ("fusion.save_params", "fusepool.fusion", "save_params"),
    ("fusion.load_params", "fusepool.fusion", "load_params"),
    ("evaluation.train_and_score_split", "fusepool.evaluation", "train_and_score_split"),
    ("evaluation.evaluate_records", "fusepool.evaluation", "evaluate_records"),
    ("evaluation.plurality_accuracy", "fusepool.evaluation", "plurality_accuracy"),
    ("evaluation.single_model_accuracies", "fusepool.evaluation", "single_model_accuracies"),
    ("summary_prep.serialize_inputs", "fusepool.summary_prep", "serialize_inputs"),
    ("harvest.harvest", "fusepool.harvest", "harvest"),
    ("harvest.parse_pass", "fusepool.harvest", "parse_pass"),
]
SPAN_NAMES = [name for name, _, _ in TARGETS]


def _count_masks(tracer: "Tracer", args, result) -> None:
    scorer, mask = args[0], args[1]
    tracer.masks.add((tracer.run, id(scorer), mask))


def _count_generations(tracer: "Tracer", args, result) -> None:
    tracer.counters["pruning.ga_generations"] += result.generations


def _count_skipped(tracer: "Tracer", args, result) -> None:
    tracer.counters["fusion.episodes_skipped"] += len(result[1])


_ON_RETURN = {
    "pruning.score": _count_masks,
    "pruning.ga_prune": _count_generations,
    "fusion.build_training_data": _count_skipped,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, run id)
        self.runs: list[str] = []
        self.run = -1
        self.masks: set = set()
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []  # (container, key, original, is_dict)

    def start_run(self, label: str) -> None:
        """Spans recorded from now on carry this run label's id."""
        self.runs.append(label)
        self.run = len(self.runs) - 1

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        on_return = _ON_RETURN.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tracer.run))
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        resolved = []  # (span name, class or None, attribute, original)
        missing = []
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    resolved.append((name, cls, meth, cls.__dict__[meth]))
                else:
                    resolved.append((name, None, attr, getattr(owner, attr)))
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{attr}")
        if missing:
            raise RuntimeError(f"trace targets not found: {', '.join(missing)}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fusepool" or n.startswith("fusepool.")]
        for name, cls, attr, original in resolved:
            wrapper = self._wrap(name, original)
            if cls is not None:
                self._patch(cls, attr, original, wrapper, False)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper, False)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper, True)

    def _patch(self, container, key, original, wrapper, is_dict: bool) -> None:
        if is_dict:
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, original, is_dict))

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "name", "start_s", "end_s", "parent", "run"],
                "names": names,
                "runs": self.runs,
                "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]] for s in self.spans],
            }, fh)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list[tuple], masks: set, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans and counters)."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for sid, name, start, end, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
        own[name] += selfs[sid]

    def us_per_call(name: str) -> float:
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    score_calls = calls["pruning.score"]
    m = {
        "corpus.load_s": total["corpus.load_corpus"],
        "corpus.loads": calls["corpus.load_corpus"],
        "corpus.split_s": total["corpus.split"],
        "answers.model_prediction_calls": calls["answers.model_prediction"],
        "diversity.failure_matrix_s": total["diversity.failure_matrix"],
        "pruning.vote_table_s": total["pruning.vote_table"],
        "diversity.focal_diversity_calls": calls["diversity.focal_diversity"],
        "diversity.focal_diversity_us_per_call": us_per_call("diversity.focal_diversity"),
        "pruning.accuracy_calls": calls["pruning.accuracy"],
        "pruning.accuracy_us_per_call": us_per_call("pruning.accuracy"),
        "pruning.score_calls": score_calls,
        "pruning.masks_scored": len(masks),
        "pruning.memo_hit_share": 1.0 - len(masks) / score_calls if score_calls else 0.0,
        "pruning.ga_generations": counters.get("pruning.ga_generations", 0),
        "pruning.search_self_s": own["pruning.brute_force_prune"] + own["pruning.ga_prune"],
        "pruning.csv_write_s": total["pruning.csv_write"],
        "diversity.failure_csv_s": total["diversity.failure_csv"],
        "fusion.build_training_data_s": total["fusion.build_training_data"],
        "fusion.episodes_skipped": counters.get("fusion.episodes_skipped", 0),
        "fusion.loss_and_grad_calls": calls["fusion.loss_and_grad"],
        "fusion.loss_and_grad_us_per_call": us_per_call("fusion.loss_and_grad"),
        "fusion.train_self_s": own["fusion.train"],
        "fusion.params_io_s": total["fusion.save_params"] + total["fusion.load_params"],
        "fusion.predict_calls": calls["fusion.predict"],
        "fusion.predict_us_per_call": us_per_call("fusion.predict"),
        "evaluation.evaluate_records_s": total["evaluation.evaluate_records"],
        "evaluation.baselines_s": (total["evaluation.plurality_accuracy"]
                                   + total["evaluation.single_model_accuracies"]),
        "summary_prep.serialize_calls": calls["summary_prep.serialize_inputs"],
        "summary_prep.serialize_us_per_call": us_per_call("summary_prep.serialize_inputs"),
    }
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = own[name]
    return m
