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
import math
import random
import sys
from pathlib import Path

from .answers import first_usable_text
from .corpus import Corpus, SplitSpec, TaskKind, load_corpus, save_corpus, split, task_of
from .evaluation import evaluate_records, train_and_score_split
from .fusion import TrainConfig, build_fusion_table, load_params, save_params
from .harvest import (
    DEFAULT_MAX_IN_FLIGHT,
    AuthError,
    EndpointConfig,
    PromptTemplate,
    harvest,
    select_fraction,
)
from .pruning import (
    GA_MIN_POPULATION,
    GaConfig,
    build_scorer,
    diversity_report,
    mask_bitstring,
    search,
    write_candidates_csv,
)
from .summary_prep import DEFAULT_TOKEN_BUDGET, BudgetError, serialize_inputs

log = logging.getLogger(__name__)


def _int_at_least(low: int):
    """The argparse type of an int flag that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            bound = "a positive integer" if low == 1 else f"an integer >= {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _float_where(ok, bound: str):
    """The argparse type of a float flag whose value must pass ``ok``; NaN never does."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    return parse


_percent = _float_where(lambda v: 0 < v <= 100, "a percent in (0, 100]")
_unit_fraction = _float_where(lambda v: 0 <= v <= 1, "a number in [0, 1]")
_positive_finite = _float_where(lambda v: 0 < v < math.inf, "a positive finite number")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-frac", type=_unit_fraction, default=0.7)
    p.add_argument("--val-frac", type=_unit_fraction, default=0.15)
    p.add_argument("--test-frac", type=_unit_fraction, default=0.15)


def _add_stage(sub, name: str, help: str, out: str = "--out") -> argparse.ArgumentParser:
    """A stage's parser with the flags every stage shares: the input corpus,
    the expected task, the output path (flag ``out``) and the seed."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", choices=["mcq", "oeq", "gq"],
                   help="expected task kind; fails fast when the corpus differs")
    p.add_argument(out, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusepool",
        allow_abbrev=False,  # --config is read by exact name before parsing
        description="Diversity-optimized LLM sub-ensemble selection and learned fusion.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_stage(sub, "harvest", "collect K passes per model per query", out="--out-corpus")
    p.add_argument("--endpoints", required=True, help="JSON list of endpoint configs")
    p.add_argument("--k-passes", type=_positive_int, default=1)
    p.add_argument("--alpha", type=_percent, default=100.0,
                   help="percent of queries to harvest")
    p.add_argument("--template-file", help="prompt template text file")
    p.add_argument("--max-in-flight", type=_positive_int, default=DEFAULT_MAX_IN_FLIGHT)

    p = _add_stage(sub, "prune", "rank candidate sub-ensembles")
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--w1", type=_unit_fraction, default=0.6)
    p.add_argument("--w2", type=_unit_fraction, default=0.4)
    p.add_argument("--method", choices=["auto", "bf", "ga"], default="auto")
    p.add_argument("--ga-population", type=_int_at_least(GA_MIN_POPULATION), default=50)
    p.add_argument("--ga-plateau", type=_positive_int, default=100)
    p.add_argument("--random-pick", type=_non_negative_int, default=None, metavar="SEED",
                   help="pick the ensemble uniformly among the top-k")
    p.add_argument("--tau", type=_unit_fraction, default=0.5,
                   help="unigram-recall failure threshold for generative tasks")
    _add_split_flags(p)

    p = _add_stage(sub, "train-weighted", "train the fusion combiner")
    p.add_argument("--k-passes", type=_positive_int, default=1)
    p.add_argument("--epochs", type=_positive_int, default=200)
    p.add_argument("--learning-rate", type=_positive_finite, default=1e-3)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p.add_argument("--patience", type=_positive_int, default=20)
    _add_split_flags(p)

    p = _add_stage(sub, "evaluate", "score the trained combiner on the test split")
    p.add_argument("--k-passes", type=_positive_int, default=1)
    _add_split_flags(p)

    p = _add_stage(sub, "diversity-report", "per-candidate diversity/accuracy CSV and correlation")
    p.add_argument("--w1", type=_unit_fraction, default=0.6)
    p.add_argument("--w2", type=_unit_fraction, default=0.4)
    p.add_argument("--tau", type=_unit_fraction, default=0.5)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="val")
    _add_split_flags(p)

    p = _add_stage(sub, "summarize-prep", "serialize query+candidates for a summary combiner")
    p.add_argument("--budget", type=int, default=DEFAULT_TOKEN_BUDGET, help="token budget")
    return parser


def _load_checked(args) -> tuple[Corpus, TaskKind]:
    """The ``--corpus`` file and its one task kind, checked against ``--task``."""
    corpus = load_corpus(args.corpus)
    return corpus, task_of(corpus.records, getattr(args, "task", None))


def _split_spec(args) -> SplitSpec:
    return SplitSpec(args.train_frac, args.val_frac, args.test_frac, seed=args.seed)


# Flags that fix the split and the features; evaluate must repeat training's.
_TRAINING_SETTINGS = ("seed", "k_passes", "train_frac", "val_frac", "test_frac")


def _write_json(path: Path, obj: dict) -> None:
    """A stage's JSON artifact, indented; strict JSON, so a NaN is refused."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)


def _require_artifact(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(
            f"missing artifact {path}: run the {produced_by} stage first"
        )
    return path


def _read_json(path) -> object:
    """The JSON value in the file ``path``; a file that is not JSON names itself."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON ({exc})") from None


def _load_endpoints(path: str) -> list[EndpointConfig]:
    entries = _read_json(path)
    if not isinstance(entries, list):
        raise ValueError(f"endpoints file {path} must hold a JSON list of objects")
    endpoints = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"endpoints file {path}: entry {i} is not a JSON object")
        try:
            endpoints.append(EndpointConfig(**entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"endpoints file {path}: entry {i}: {exc}") from exc
    return endpoints


def cmd_harvest(args) -> int:
    corpus, task = _load_checked(args)
    endpoints = _load_endpoints(args.endpoints)
    template = None
    if args.template_file:
        text = Path(args.template_file).read_text(encoding="utf-8")
        template = PromptTemplate(task=task, template_text=text)
    chosen = select_fraction(corpus, args.alpha, seed=args.seed)
    subset = Corpus(
        records=[r for r in corpus.records if r.id in chosen],
        model_ids=list(corpus.model_ids),
    )
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


def _require_episodes(records: list, empty: str, flag: str) -> list:
    """The one empty-input rule: a stage refuses to score zero episodes and
    names the flag that would give it some."""
    if not records:
        raise ValueError(f"{empty}, so there is nothing to score; raise {flag}")
    return records


def _score_records(args, corpus: Corpus):
    """Records the pruning signals are computed on: the val split, falling
    back to the train split when no validation fraction was requested."""
    train_part, val_part, _ = split(corpus, _split_spec(args))
    return _require_episodes(val_part.records or train_part.records,
                             "the val and train splits are both empty", "--val-frac")


def cmd_prune(args) -> int:
    config = GaConfig(population=args.ga_population, plateau_gens=args.ga_plateau, seed=args.seed)
    corpus, _ = _load_checked(args)
    if len(corpus.model_ids) < 2:
        raise ValueError("pruning needs a pool of at least 2 models")
    records = _score_records(args, corpus)
    scorer = build_scorer(corpus, records, args.w1, args.w2, args.tau)
    n = scorer.n_models
    method, ranked = search(scorer, args.method, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_candidates_csv(out / "candidates.csv", ranked, n)
    top = ranked[: args.topk]
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
    _write_json(out / "ensemble.json", ensemble)
    log.info("ranked %d candidates; selected %s", len(ranked), ensemble["members"])
    return 0


def _artifact_error(path: Path, produced_by: str, problem: str) -> ValueError:
    return ValueError(f"{path} {problem}; re-run the {produced_by} stage")


def _load_artifact(path: Path, produced_by: str) -> dict:
    """A stage's JSON object; a file that is not one names itself and its stage."""
    try:
        artifact = _read_json(_require_artifact(path, produced_by))
    except ValueError as exc:
        raise ValueError(f"{exc}; re-run the {produced_by} stage") from None
    if not isinstance(artifact, dict):
        raise _artifact_error(path, produced_by, "does not hold a JSON object")
    return artifact


def _load_ensemble(out: Path, corpus: Corpus) -> dict:
    """The prune stage's ``ensemble.json``, refused when it was pruned from a
    pool other than this corpus's (its members would name other models) or
    when its members are not distinct models of that pool."""
    path = out / "ensemble.json"
    ensemble = _load_artifact(path, "prune")
    if ensemble.get("model_ids") != corpus.model_ids:
        raise ValueError(
            f"{path} was pruned from the pool {ensemble.get('model_ids')}, "
            f"not this corpus's {corpus.model_ids}; re-run the prune stage on this corpus"
        )
    members = ensemble.get("members")
    if not isinstance(members, list) or not members:
        raise _artifact_error(path, "prune", "has no 'members' list of model ids")
    for i, member in enumerate(members):
        if member not in corpus.model_ids:
            raise _artifact_error(path, "prune", f"names {member!r}, not a model of the pool")
        if member in members[:i]:
            raise _artifact_error(path, "prune", f"names {member!r} twice")
    return ensemble


def cmd_train_weighted(args) -> int:
    corpus, _ = _load_checked(args)
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
    _write_json(out / "train_report.json", report)
    val_note = (f"val accuracy {val_report.accuracy:.4f}" if val_part.records
                else "no val episodes")
    log.info("trained fusion net %s; %s", params.dims, val_note)
    return 0


def cmd_evaluate(args) -> int:
    corpus, task = _load_checked(args)
    out = Path(args.out)
    ensemble = _load_ensemble(out, corpus)
    params_path = _require_artifact(out / "fusion_params.json", "train-weighted")
    try:
        params = load_params(params_path)
    except ValueError as exc:
        raise ValueError(f"{exc}; re-run the train-weighted stage") from None
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
    _require_episodes(test_part.records, "the test split is empty", "--test-frac")
    members = ensemble["members"]
    table = build_fusion_table(test_part.records, members, args.k_passes)
    slots = table[0].slots
    if params.dims[0] != len(members) * slots or params.dims[-1] != slots:
        raise _artifact_error(params_path, "train-weighted",
                              f"holds a net of dims {params.dims}, which does not fit the "
                              f"{len(members)} members x {slots} slots of this team")
    report = evaluate_records(test_part.records, members, params, args.k_passes, task.kind,
                              table=table)
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for row in report.predictions:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")
    _write_json(out / "report.json", report.summary())
    print(f"test accuracy {report.accuracy:.4f} over {report.n_episodes} episodes "
          f"(plurality {report.plurality_accuracy:.4f})")
    return 0


def cmd_diversity_report(args) -> int:
    corpus, _ = _load_checked(args)
    if args.split == "all":
        records = corpus.records
    else:
        parts = dict(zip(("train", "val", "test"), split(corpus, _split_spec(args))))
        records = _require_episodes(parts[args.split].records,
                                    f"the {args.split} split is empty", f"--{args.split}-frac")
    scorer = build_scorer(corpus, records, args.w1, args.w2, args.tau)
    report = diversity_report(scorer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scorer.failures.to_csv(out / "failure_matrix.csv")
    write_candidates_csv(out / "diversity_report.csv", report.candidates, scorer.n_models)
    rho = report.pearson_rho  # NaN where the correlation is undefined, null in the file
    _write_json(out / "diversity_report.json", {
        "n_candidates": len(report.candidates),
        "pearson_diversity_accuracy": None if math.isnan(rho) else rho,
        "split": args.split,
        "n_episodes": len(records),
    })
    print(f"{len(report.candidates)} candidates; "
          f"Pearson rho(diversity, accuracy) = {report.pearson_rho:.4f}")
    return 0


def cmd_summarize_prep(args) -> int:
    corpus, _ = _load_checked(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    members = corpus.model_ids
    if (out / "ensemble.json").exists():
        members = _load_ensemble(out, corpus)["members"]
    path = out / "summary_inputs.jsonl"
    n_written = 0
    with open(path, "w", encoding="utf-8") as fh:
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
            try:
                serialized = serialize_inputs(rec.prompt, texts, max_tokens=args.budget)
            except BudgetError as exc:
                fh.close()
                path.unlink()  # a refusal leaves no partial file
                raise ValueError(f"--budget {args.budget} is too small for record {rec.id}: "
                                 f"{exc}") from exc
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
    log.info("serialized %d records -> %s", n_written, path)
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
    defaults = _read_json(path)
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
