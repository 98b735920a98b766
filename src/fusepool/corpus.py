"""Episode corpus: schema, JSONL persistence, and deterministic splitting.

One JSON object per line, field names: id, task, prompt, choices,
ground_truth, passes, provided_choice_probs. ``passes`` maps model id to a
list of ``{raw_text, parsed, latency_s, status}`` objects; ``TaskKind.admits``
says what a parsed answer may be, and every reader relies on it. The pool's
model ids are derived from the records in first-seen order, so a model that
never appears in any record does not survive a save/load round trip.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

TASK_KINDS = ("mcq", "oeq", "gq")
PASS_STATUSES = ("ok", "missing", "parse_failed")

# How far a probability vector's sum may stray from 1, wherever one is checked.
PROB_SUM_TOL = 1e-6


class SchemaError(ValueError):
    """A record violates the corpus schema; the message names record and field."""


@dataclass(frozen=True)
class TaskKind:
    """Solution-space kind: multiple-choice, open-ended, or generative."""

    kind: str
    num_choices: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise SchemaError(f"unknown task kind {self.kind!r}")
        if self.kind == "mcq":
            if self.num_choices is None or self.num_choices < 2:
                raise SchemaError("mcq requires num_choices >= 2")
        elif self.num_choices is not None:
            raise SchemaError(f"{self.kind} does not take num_choices")

    @classmethod
    def mcq(cls, num_choices: int) -> "TaskKind":
        return cls("mcq", num_choices)

    @classmethod
    def oeq(cls) -> "TaskKind":
        return cls("oeq")

    @classmethod
    def gq(cls) -> "TaskKind":
        return cls("gq")

    @property
    def is_mcq(self) -> bool:
        return self.kind == "mcq"

    def admits(self, parsed) -> bool:
        """Whether ``parsed`` may be a pass's parsed answer: a choice index in
        [0, num_choices) for MCQ, text or an int for OEQ, text for GQ. A bool
        is never an int."""
        if self.kind == "mcq":
            return type(parsed) is int and 0 <= parsed < self.num_choices
        return type(parsed) is str or (self.kind == "oeq" and type(parsed) is int)

    def __str__(self) -> str:
        return f"mcq with {self.num_choices} choices" if self.is_mcq else self.kind


@dataclass
class RawPass:
    """One model response for one query pass."""

    raw_text: str
    parsed: str | int | None = None
    latency_s: float | None = None
    status: str = "ok"

    def validate(self, owner: str) -> None:
        if self.status not in PASS_STATUSES:
            raise SchemaError(f"record {owner}: passes: bad status {self.status!r}")
        if not isinstance(self.raw_text, str):
            raise SchemaError(f"record {owner}: passes: raw_text {self.raw_text!r} is not text")
        if self.parsed is not None and self.status != "ok":
            raise SchemaError(
                f"record {owner}: passes: parsed answer present but status={self.status!r}"
            )


@dataclass
class EpisodeRecord:
    """One benchmark query with ground truth and per-model, per-pass outputs."""

    id: str
    task: TaskKind
    prompt: str
    ground_truth: str | int
    choices: list[str] | None = None
    passes: dict[str, list[RawPass]] = field(default_factory=dict)
    provided_choice_probs: dict[str, list[float]] | None = None

    def validate(self) -> None:
        if not self.id:
            raise SchemaError("record with empty id")
        if not isinstance(self.prompt, str):
            raise SchemaError(f"record {self.id}: prompt: must be text")
        if self.task.is_mcq:
            if not self.choices or len(self.choices) != self.task.num_choices:
                raise SchemaError(f"record {self.id}: choices: missing or wrong length")
            if not all(isinstance(c, str) for c in self.choices):
                raise SchemaError(f"record {self.id}: choices: must be text")
            if type(self.ground_truth) is not int or not (  # a bool is no index
                0 <= self.ground_truth < self.task.num_choices
            ):
                raise SchemaError(
                    f"record {self.id}: ground_truth: must be a choice index in "
                    f"[0, {self.task.num_choices})"
                )
        else:
            if self.choices is not None:
                raise SchemaError(f"record {self.id}: choices: only valid for mcq")
            if not isinstance(self.ground_truth, str):
                raise SchemaError(f"record {self.id}: ground_truth: must be text")
        admits = self.task.admits
        for passes in self.passes.values():
            for p in passes:
                p.validate(self.id)
                if p.parsed is not None and not admits(p.parsed):
                    raise SchemaError(
                        f"record {self.id}: passes: parsed {p.parsed!r} is not an answer "
                        f"to a {self.task} question"
                    )
        if self.provided_choice_probs is not None:
            if not self.task.is_mcq:
                raise SchemaError(
                    f"record {self.id}: provided_choice_probs: only valid for mcq"
                )
            for model_id, probs in self.provided_choice_probs.items():
                try:  # a vector that is not a list of numbers fails len, < or sum
                    n_probs = len(probs)
                    negative = any(p < 0 for p in probs)
                    total = sum(probs)
                    off_by = abs(total - 1.0)
                except TypeError:
                    raise SchemaError(
                        f"record {self.id}: provided_choice_probs[{model_id}]: "
                        "must be a list of numbers"
                    ) from None
                except OverflowError:  # an integer entry beyond the float range
                    raise SchemaError(
                        f"record {self.id}: provided_choice_probs[{model_id}]: "
                        "an entry is too large for a float"
                    ) from None
                if n_probs != self.task.num_choices:
                    raise SchemaError(
                        f"record {self.id}: provided_choice_probs[{model_id}]: "
                        f"length {n_probs} != {self.task.num_choices}"
                    )
                if negative:
                    raise SchemaError(
                        f"record {self.id}: provided_choice_probs[{model_id}]: "
                        "negative entry"
                    )
                if not off_by <= PROB_SUM_TOL:  # a NaN sum fails too
                    raise SchemaError(
                        f"record {self.id}: provided_choice_probs[{model_id}]: "
                        f"sums to {total:.6f}, expected 1"
                    )

    def model_ids_seen(self) -> list[str]:
        seen = list(self.passes)
        for m in self.provided_choice_probs or {}:
            if m not in seen:
                seen.append(m)
        return seen


@dataclass
class Corpus:
    """Ordered episode records plus the ordered model pool."""

    records: list[EpisodeRecord]
    model_ids: list[str]

    def validate(self) -> None:
        """Check a corpus built in code; ``load_corpus`` checks as it reads."""
        seen: set[str] = set()
        pool = set(self.model_ids)
        for rec in self.records:
            rec.validate()
            if rec.id in seen:
                raise SchemaError(f"record {rec.id}: id: duplicate")
            seen.add(rec.id)
            for m in rec.model_ids_seen():
                if m not in pool:
                    raise SchemaError(f"record {rec.id}: passes: unknown model {m!r}")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions and seed for deterministic splitting.

    Fractions may be zero (the 70/0/30 protocol has no validation split) but
    must sum to 1 and leave a non-empty training fraction.
    """

    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name, f in (
            ("train_frac", self.train_frac),
            ("val_frac", self.val_frac),
            ("test_frac", self.test_frac),
        ):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{name}={f} outside [0, 1]")
        if self.train_frac <= 0.0:
            raise ValueError("train_frac must be positive")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions sum to {total}, expected 1")


def task_of(records: list[EpisodeRecord], expected: str | None = None) -> TaskKind:
    """The one task kind all records share; ValueError if none, mixed or not ``expected``."""
    kinds = {rec.task for rec in records}
    if not kinds:
        raise ValueError("corpus holds no records")
    if len(kinds) != 1:
        raise ValueError(f"corpus mixes tasks: {', '.join(sorted(map(str, kinds)))}")
    task = kinds.pop()
    if expected is not None and task.kind != expected:
        raise ValueError(f"corpus holds {task.kind} records, --task asked for {expected}")
    return task


def _pass_from_json(obj: dict, owner: str) -> RawPass:
    if not isinstance(obj, dict):
        raise SchemaError(f"record {owner}: passes: entry is not an object")
    return RawPass(
        raw_text=obj.get("raw_text", ""),
        parsed=obj.get("parsed"),
        latency_s=obj.get("latency_s"),
        status=obj.get("status", "ok"),
    )


def _record_from_json(obj) -> EpisodeRecord:
    if not isinstance(obj, dict):
        raise SchemaError("record is not a JSON object")
    rec_id = obj.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise SchemaError("record with missing or non-string id")
    kind = obj.get("task")
    if kind not in TASK_KINDS:
        raise SchemaError(f"record {rec_id}: task: unknown kind {kind!r}")
    choices = obj.get("choices")
    if kind == "mcq":
        if not isinstance(choices, list) or len(choices) < 2:
            raise SchemaError(f"record {rec_id}: choices: mcq needs >= 2 choices")
        task = TaskKind.mcq(len(choices))
    else:
        task = TaskKind(kind)
    plists = obj.get("passes")
    if plists is None:
        plists = {}
    elif not isinstance(plists, dict) or not all(isinstance(v, list) for v in plists.values()):
        raise SchemaError(f"record {rec_id}: passes: must map model ids to lists")
    probs = obj.get("provided_choice_probs")
    if probs is not None and not isinstance(probs, dict):
        raise SchemaError(f"record {rec_id}: provided_choice_probs: must map model ids to lists")
    passes = {
        model_id: [_pass_from_json(p, rec_id) for p in plist]
        for model_id, plist in plists.items()
    }
    return EpisodeRecord(
        id=rec_id,
        task=task,
        prompt=obj.get("prompt", ""),
        ground_truth=obj.get("ground_truth"),
        choices=choices,
        passes=passes,
        provided_choice_probs=probs,
    )


def load_corpus(path: str) -> Corpus:
    """Load and validate a JSONL corpus; names the first offending line on error.

    Each record is validated once, as its line is read. The pool is built from
    the records, so every model a record names is in it by construction.
    """
    records: list[EpisodeRecord] = []
    model_ids: list[str] = []
    seen_models: set[str] = set()
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                rec = _record_from_json(obj)
                rec.validate()
            except SchemaError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from exc
            if rec.id in seen_ids:
                raise SchemaError(f"line {lineno}: record {rec.id}: id: duplicate")
            seen_ids.add(rec.id)
            records.append(rec)
            for m in rec.model_ids_seen():
                if m not in seen_models:
                    seen_models.add(m)
                    model_ids.append(m)
    return Corpus(records=records, model_ids=model_ids)


def _pass_to_json(p: RawPass) -> dict:
    return {
        "raw_text": p.raw_text,
        "parsed": p.parsed,
        "latency_s": p.latency_s,
        "status": p.status,
    }


def record_to_json(rec: EpisodeRecord, model_order: list[str] | None = None) -> dict:
    order = [m for m in (model_order or rec.passes) if m in rec.passes]
    return {
        "id": rec.id,
        "task": rec.task.kind,
        "prompt": rec.prompt,
        "choices": rec.choices,
        "ground_truth": rec.ground_truth,
        "passes": {m: [_pass_to_json(p) for p in rec.passes[m]] for m in order},
        "provided_choice_probs": rec.provided_choice_probs,
    }


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write one JSON object per line; load(save(c)) is structurally identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            fh.write(json.dumps(record_to_json(rec, corpus.model_ids), ensure_ascii=False))
            fh.write("\n")


def split(
    corpus: Corpus, spec: SplitSpec, repeat: int = 0
) -> tuple[Corpus, Corpus, Corpus]:
    """Disjoint, exhaustive train/val/test partition, deterministic per (seed, repeat).

    Records are shuffled by a seeded permutation; each split preserves the
    original corpus order. Sizes honor the fractions within one record.
    """
    if not corpus.records:
        raise ValueError("cannot split an empty corpus")
    n = len(corpus.records)
    order = list(range(n))
    random.Random(f"{spec.seed}:{repeat}").shuffle(order)
    n_train = round(n * spec.train_frac)
    n_val = round(n * spec.val_frac)
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    picks = (
        sorted(order[:n_train]),
        sorted(order[n_train : n_train + n_val]),
        sorted(order[n_train + n_val :]),
    )
    return tuple(
        Corpus(records=[corpus.records[i] for i in idx], model_ids=list(corpus.model_ids))
        for idx in picks
    )
