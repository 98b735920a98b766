"""Command-line pipeline: harvest -> prune -> train-weighted -> evaluate,
plus diversity-report and summarize-prep side outputs.

Every stage reads and writes only its declared files, honors --seed for
reproducibility, and exits non-zero with an actionable message on error.
A JSON config file may supply defaults for any subcommand's long flag,
checked as the flag checks its value; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from pathlib import Path

from .answers import first_usable_text
from .corpus import Corpus, SplitSpec, load_corpus, save_corpus, split, task_of
from .diversity import FailureRule
from .evaluation import evaluate_records, train_and_score_split
from .fusion import TrainConfig, load_params, save_params
from .harvest import (
    AuthError,
    EndpointConfig,
    PromptTemplate,
    harvest,
    select_fraction,
)
from .pruning import (
    GaConfig,
    build_scorer,
    diversity_report,
    mask_bitstring,
    search,
    write_candidates_csv,
)
from .summary_prep import serialize_inputs

log = logging.getLogger(__name__)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _percent(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value <= 100:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a percent in (0, 100], got {text}")
    return value


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--val-frac", type=float, default=0.15)
    p.add_argument("--test-frac", type=float, default=0.15)


def _add_task_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=["mcq", "oeq", "gq"],
                   help="expected task kind; fails fast when the corpus differs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusepool",
        allow_abbrev=False,  # --config is read by exact name before parsing
        description="Diversity-optimized LLM sub-ensemble selection and learned fusion.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="collect K passes per model per query")
    p.add_argument("--corpus", required=True)
    _add_task_flag(p)
    p.add_argument("--endpoints", required=True, help="JSON list of endpoint configs")
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--k-passes", type=_positive_int, default=1)
    p.add_argument("--alpha", type=_percent, default=100.0,
                   help="percent of queries to harvest")
    p.add_argument("--template-file", help="prompt template text file")
    p.add_argument("--max-in-flight", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prune", help="rank candidate sub-ensembles")
    p.add_argument("--corpus", required=True)
    _add_task_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--w1", type=float, default=0.6)
    p.add_argument("--w2", type=float, default=0.4)
    p.add_argument("--method", choices=["auto", "bf", "ga"], default="auto")
    p.add_argument("--ga-population", type=int, default=50)
    p.add_argument("--ga-plateau", type=int, default=100)
    p.add_argument("--random-pick", type=int, default=None, metavar="SEED",
                   help="pick the ensemble uniformly among the top-k")
    p.add_argument("--tau", type=float, default=0.5,
                   help="unigram-recall failure threshold for generative tasks")
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)

    p = sub.add_parser("train-weighted", help="train the fusion combiner")
    p.add_argument("--corpus", required=True)
    _add_task_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--k-passes", type=_positive_int, default=1)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)

    p = sub.add_parser("evaluate", help="score the trained combiner on the test split")
    p.add_argument("--corpus", required=True)
    _add_task_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--k-passes", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)

    p = sub.add_parser("diversity-report",
                       help="per-candidate diversity/accuracy CSV and correlation")
    p.add_argument("--corpus", required=True)
    _add_task_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--w1", type=float, default=0.6)
    p.add_argument("--w2", type=float, default=0.4)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="val")
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)

    p = sub.add_parser("summarize-prep",
                       help="serialize query+candidates for a summary combiner")
    p.add_argument("--corpus", required=True)
    _add_task_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=16396, help="token budget")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_checked(args) -> Corpus:
    corpus = load_corpus(args.corpus)
    task_of(corpus.records, getattr(args, "task", None))
    return corpus


def _split_spec(args) -> SplitSpec:
    return SplitSpec(args.train_frac, args.val_frac, args.test_frac, seed=args.seed)


# Flags that fix the split and the features; evaluate must repeat training's.
_TRAINING_SETTINGS = ("seed", "k_passes", "train_frac", "val_frac", "test_frac")


def _require_artifact(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(
            f"missing artifact {path}: run the {produced_by} stage first"
        )
    return path


def _load_endpoints(path: str) -> list[EndpointConfig]:
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError(f"endpoints file {path} must hold a JSON list of objects")
    endpoints = []
    for i, entry in enumerate(entries):
        try:
            endpoints.append(EndpointConfig(**entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"endpoints file {path}: entry {i}: {exc}") from exc
    return endpoints


def cmd_harvest(args) -> int:
    corpus = _load_checked(args)
    endpoints = _load_endpoints(args.endpoints)
    task = task_of(corpus.records)
    template = None
    if args.template_file:
        text = Path(args.template_file).read_text(encoding="utf-8")
        template = PromptTemplate(task=task, template_text=text)
    if args.alpha < 100.0:
        chosen = select_fraction(corpus, args.alpha, seed=args.seed)
        subset = Corpus(
            records=[r for r in corpus.records if r.id in chosen],
            model_ids=list(corpus.model_ids),
        )
    else:
        subset = corpus
    harvested = harvest(
        subset,
        endpoints,
        k=args.k_passes,
        template=template,
        max_in_flight=args.max_in_flight,
        seed=args.seed,
    )
    by_id = {rec.id: rec for rec in harvested.records}
    merged = Corpus(
        records=[by_id.get(rec.id, rec) for rec in corpus.records],
        model_ids=harvested.model_ids,
    )
    save_corpus(merged, args.out_corpus)
    log.info("harvested %d records x %d models -> %s",
             len(harvested.records), len(endpoints), args.out_corpus)
    return 0


def _score_records(args, corpus: Corpus):
    """Records the pruning signals are computed on: the val split, falling
    back to the train split when no validation fraction was requested."""
    train_part, val_part, _ = split(corpus, _split_spec(args))
    records = val_part.records or train_part.records
    if not records:
        raise ValueError("the val and train splits are both empty; adjust the fractions")
    return records


def cmd_prune(args) -> int:
    config = GaConfig(population=args.ga_population, plateau_gens=args.ga_plateau, seed=args.seed)
    corpus = _load_checked(args)
    if len(corpus.model_ids) < 2:
        raise ValueError("pruning needs a pool of at least 2 models")
    records = _score_records(args, corpus)
    scorer = build_scorer(corpus, records, args.w1, args.w2, FailureRule(tau=args.tau))
    n = scorer.n_models
    method, ranked = search(scorer, args.method, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_candidates_csv(out / "candidates.csv", ranked, n)
    top = ranked[: max(1, args.topk)]
    pick = top[0] if args.random_pick is None else random.Random(args.random_pick).choice(top)
    ensemble = {
        "model_ids": corpus.model_ids,
        "members": pick.members(corpus.model_ids),
        "mask": mask_bitstring(pick.mask, n),
        "size": pick.size,
        "focal_diversity": pick.focal_diversity,
        "val_accuracy": pick.val_accuracy,
        "fitness": pick.fitness,
        "method": method,
        "seed": args.seed,
    }
    with open(out / "ensemble.json", "w", encoding="utf-8") as fh:
        json.dump(ensemble, fh, indent=2)
    log.info("ranked %d candidates; selected %s", len(ranked), ensemble["members"])
    return 0


def _load_artifact(path: Path, produced_by: str) -> dict:
    with open(_require_artifact(path, produced_by), encoding="utf-8") as fh:
        return json.load(fh)


def _load_ensemble(out: Path, corpus: Corpus) -> dict:
    """The prune stage's ``ensemble.json``, refused when it was pruned from a
    pool other than this corpus's: its members would name other models."""
    ensemble = _load_artifact(out / "ensemble.json", "prune")
    if ensemble.get("model_ids") != corpus.model_ids:
        raise ValueError(
            f"{out / 'ensemble.json'} was pruned from the pool {ensemble.get('model_ids')}, "
            f"not this corpus's {corpus.model_ids}; re-run the prune stage on this corpus"
        )
    return ensemble


def cmd_train_weighted(args) -> int:
    corpus = _load_checked(args)
    out = Path(args.out)
    ensemble = _load_ensemble(out, corpus)
    members = ensemble["members"]
    train_part, val_part, _ = split(corpus, _split_spec(args))
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=args.seed,
        optimizer=args.optimizer,
        early_stop_patience=args.patience,
    )
    params, val_report = train_and_score_split(
        train_part, val_part, val_part, members, args.k_passes, config)
    save_params(params, out / "fusion_params.json")
    report = {
        "members": members,
        "dims": list(params.dims),
        "n_train": len(train_part.records),
        "n_val": len(val_part.records),
        "val_accuracy": val_report.accuracy if val_part.records else None,
        **{key: getattr(args, key) for key in _TRAINING_SETTINGS},
    }
    with open(out / "train_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    val_note = (f"val accuracy {val_report.accuracy:.4f}" if val_part.records
                else "no val episodes")
    log.info("trained fusion net %s; %s", params.dims, val_note)
    return 0


def cmd_evaluate(args) -> int:
    corpus = _load_checked(args)
    out = Path(args.out)
    ensemble = _load_ensemble(out, corpus)
    params = load_params(_require_artifact(out / "fusion_params.json", "train-weighted"))
    trained = _load_artifact(out / "train_report.json", "train-weighted")
    for key in _TRAINING_SETTINGS:  # another split would score training episodes
        if trained.get(key) != getattr(args, key):
            raise ValueError(
                f"--{key.replace('_', '-')} {getattr(args, key)} differs from the "
                f"{trained.get(key)} that train-weighted used; evaluate with its settings"
            )
    if trained.get("members") != ensemble["members"]:
        raise ValueError(
            f"the prune stage picked {ensemble['members']} after train-weighted trained on "
            f"{trained.get('members')}; re-run train-weighted"
        )
    _, _, test_part = split(corpus, _split_spec(args))
    report = evaluate_records(test_part.records, ensemble["members"], params,
                              args.k_passes, task_of(corpus.records).kind)
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for row in report.predictions:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.summary(), fh, indent=2)
    print(f"test accuracy {report.accuracy:.4f} over {report.n_episodes} episodes "
          f"(plurality {report.plurality_accuracy:.4f})")
    return 0


def cmd_diversity_report(args) -> int:
    corpus = _load_checked(args)
    if args.split == "all":
        records = corpus.records
    else:
        parts = dict(zip(("train", "val", "test"), split(corpus, _split_spec(args))))
        records = parts[args.split].records
    if not records:
        raise ValueError(f"the {args.split} split is empty; adjust the fractions")
    scorer = build_scorer(corpus, records, args.w1, args.w2, FailureRule(tau=args.tau))
    report = diversity_report(scorer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scorer.failures.to_csv(out / "failure_matrix.csv")
    write_candidates_csv(out / "diversity_report.csv", report.candidates, scorer.n_models)
    summary = {
        "n_candidates": len(report.candidates),
        "pearson_diversity_accuracy": report.pearson_rho,
        "split": args.split,
        "n_episodes": len(records),
    }
    with open(out / "diversity_report.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(f"{len(report.candidates)} candidates; "
          f"Pearson rho(diversity, accuracy) = {report.pearson_rho:.4f}")
    return 0


def cmd_summarize_prep(args) -> int:
    corpus = _load_checked(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    members = corpus.model_ids
    if (out / "ensemble.json").exists():
        members = _load_ensemble(out, corpus)["members"]
    n_written = 0
    with open(out / "summary_inputs.jsonl", "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            texts = []
            used = []
            for m in members:
                text = first_usable_text(rec, m)
                if text is not None:
                    texts.append(text)
                    used.append(m)
            if not texts:
                log.warning("record %s: no usable candidate text; skipped", rec.id)
                continue
            serialized = serialize_inputs(rec.prompt, texts, max_tokens=args.budget)
            fh.write(json.dumps({
                "id": rec.id,
                "text": serialized.text,
                "question_span": list(serialized.question_span),
                "candidate_spans": [list(s) for s in serialized.candidate_spans],
                "model_tags": [list(t) for t in serialized.model_tags],
                "models": used,
            }, ensure_ascii=False))
            fh.write("\n")
            n_written += 1
    log.info("serialized %d records -> %s", n_written, out / "summary_inputs.jsonl")
    return 0


_COMMANDS = {
    "harvest": cmd_harvest,
    "prune": cmd_prune,
    "train-weighted": cmd_train_weighted,
    "evaluate": cmd_evaluate,
    "diversity-report": cmd_diversity_report,
    "summarize-prep": cmd_summarize_prep,
}


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    with open(path, encoding="utf-8") as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    subparsers = [sub for group in parser._subparsers._group_actions  # noqa: SLF001
                  for sub in group.choices.values()]
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        owners = [sub for sub in subparsers
                  if flag != "--help" and flag in sub._option_string_actions]  # noqa: SLF001
        if not owners:
            raise ValueError(f"config {path}: unknown key {key!r}; "
                             f"no subcommand has a {flag} flag that takes a value")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config {path}: {key!r}: {value!r} is not a string or a number")
        for sub in owners:  # the flag's own type and choices check, as on the command line
            action = sub._option_string_actions[flag]  # noqa: SLF001
            try:
                checked = sub._get_value(action, str(value))  # noqa: SLF001
                sub._check_value(action, checked)  # noqa: SLF001
            except argparse.ArgumentError as exc:
                raise ValueError(f"config {path}: {key!r}: {exc}") from None
            sub.set_defaults(**{action.dest: checked})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (AuthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
