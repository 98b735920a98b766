"""Episode corpus: schema, JSONL persistence, and deterministic splitting.

One JSON object per line, field names: id, task, prompt, choices,
ground_truth, passes, provided_choice_probs. ``passes`` maps model id to a
list of ``{raw_text, parsed, latency_s, status}`` objects; ``TaskKind.admits``
says what a parsed answer may be, and every reader relies on it. The pool's
model ids are derived from the records in first-seen order, so a model that
never appears in any record does not survive a save/load round trip.

``load_corpus`` reads in one pass. Each line is decoded and its fields are
checked as it is read (``EpisodeRecord._validate_fields``); the provided
vectors are gathered into blocks of ``VECTOR_BLOCK`` vectors of one length
and checked together as one float64 array (``_block_rows``), the array form
of the vector rule ``_vector_fault`` that ``EpisodeRecord._validate_vectors``
applies. When a block fails, or a line fails any other check while a block
is pending, the block's records are checked one by one in line order, so
the error names the first bad line with the message ``validate`` gives. The
cyclic garbage collector is paused while lines are decoded: the records hold
no reference cycles, and each collection would walk every container built
so far. The caller's collector state is restored however the load ends.

A block that passes is kept: the block array is made read-only, and each
loaded MCQ record's ``provided_choice_probs`` becomes a ``ProvidedVectors``,
a mapping from model id to a float64 row view into that array, in the
line's key order. So a loaded probability costs 8 bytes instead of a Python
float in a list, and an int entry reads back as a float: saving a loaded
corpus writes ``1.0`` where the line had ``1``. Records built in code may
hold a dict of lists; the two forms compare equal when their values do.
"""
from __future__ import annotations

import gc
import json
import math
import random
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

TASK_KINDS = ("mcq", "oeq", "gq")
PASS_STATUSES = ("ok", "missing", "parse_failed")

# How far a probability vector's sum may stray from 1, wherever one is checked.
PROB_SUM_TOL = 1e-6

# Provided vectors ``load_corpus`` checks at once: small enough that a block's
# arrays add nothing visible to peak memory.
VECTOR_BLOCK = 1024


class SchemaError(ValueError):
    """A record violates the corpus schema; the message names record and field."""


def is_number(x: object) -> bool:
    """An int or a float; a bool is neither."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_id(rec_id):
    """The id rule: a record's id is non-empty text. Returns the id."""
    if not isinstance(rec_id, str) or not rec_id:
        raise SchemaError("record with missing or non-string id")
    return rec_id


def float_sum(values) -> float:
    """The one float sum: ``values`` added left to right in float64. Every float
    total in the package is this sum, so it is the same on every interpreter
    (from 3.12 the built-in ``sum`` of floats is compensated, so it is not used)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _vector_fault(probs, m: int) -> str | None:
    """The provided-vector rule: what is wrong with one vector for an m-choice
    question, or None. The first that applies: not a list of numbers, an entry
    too large for a float, a length other than m, a negative entry, a
    ``float_sum`` more than ``PROB_SUM_TOL`` off 1 (a NaN sum is off)."""
    try:
        negative = any(p < 0 for p in probs)
        total = float_sum(probs)
    except TypeError:
        return "must be a list of numbers"
    except OverflowError:
        return "an entry is too large for a float"
    if len(probs) != m:
        return f"length {len(probs)} != {m}"
    if negative:
        return "negative entry"
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        return f"sums to {total:.6f}, expected 1"
    return None


def _block_rows(vectors: list, m: int) -> np.ndarray | None:
    """The vectors as one read-only (vectors, m) float64 array if every one
    passes ``_vector_fault`` for an m-choice question, else None. Each entry
    is converted as ``float`` converts it, the comparisons are the same, and
    the columns are added left to right, so each row's sum is its
    ``float_sum``."""
    try:
        if set(map(len, vectors)) != {m}:
            return None
        rows = np.frombuffer(array("d", chain.from_iterable(vectors)), dtype=np.float64)
        rows = rows.reshape(-1, m)
    except (TypeError, OverflowError):  # an entry that is no number, or too large
        return None
    total = rows[:, 0].copy()
    for j in range(1, m):
        total += rows[:, j]
    if (rows < 0).any() or not (np.abs(total - 1.0) <= PROB_SUM_TOL).all():
        return None
    rows.flags.writeable = False
    return rows


class ProvidedVectors(Mapping):
    """A loaded record's provided vectors: model id -> read-only float64 row,
    in the order its line lists them. ``rows`` is a view into the block array
    ``load_corpus`` checked, and records whose lines list the same models in
    the same order share one ``index`` (model id -> row)."""

    __slots__ = ("index", "rows")

    def __init__(self, index: dict, rows: np.ndarray) -> None:
        self.index = index
        self.rows = rows

    def __getitem__(self, model_id: str) -> np.ndarray:
        return self.rows[self.index[model_id]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other) -> bool:
        """Equal to any mapping with the same keys and equal values, as a dict
        of the rows' ``tolist()`` would be."""
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.keys() == other.keys() and all(
            row.tolist() == vector_list(other[model_id]) for model_id, row in self.items()
        )

    def __repr__(self) -> str:
        return f"ProvidedVectors({dict(zip(self.index, self.rows.tolist()))!r})"


def vector_list(vector):
    """A provided vector as a list: a loaded row as the list of floats it
    holds, anything else as it is."""
    return vector.tolist() if isinstance(vector, np.ndarray) else vector


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
        latency = self.latency_s
        if latency is not None and not (is_number(latency) and 0 <= latency < math.inf):
            raise SchemaError(f"record {owner}: passes: latency_s {latency!r} is not "
                              "None or a finite number >= 0")


@dataclass
class EpisodeRecord:
    """One benchmark query with ground truth and per-model, per-pass outputs."""

    id: str
    task: TaskKind
    prompt: str
    ground_truth: str | int
    choices: list[str] | None = None
    passes: dict[str, list[RawPass]] = field(default_factory=dict)
    # Model id -> probability vector: a dict of lists in code, a read-only
    # ``ProvidedVectors`` once loaded.
    provided_choice_probs: Mapping[str, Sequence[float]] | None = None

    def validate(self) -> None:
        """Every schema check: the fields, then the provided vectors' entries."""
        self._validate_fields()
        self._validate_vectors()

    def _validate_fields(self) -> None:
        """Every schema check but the provided vectors' entries, which
        ``load_corpus`` checks a block at a time."""
        _check_id(self.id)
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
        if self.provided_choice_probs is not None and not self.task.is_mcq:
            raise SchemaError(f"record {self.id}: provided_choice_probs: only valid for mcq")

    def _validate_vectors(self) -> None:
        """Each provided vector against the vector rule, ``_vector_fault``;
        loaded rows are checked as the lists of floats they hold."""
        vectors = self.provided_choice_probs or {}
        rows = vectors.rows.tolist() if isinstance(vectors, ProvidedVectors) else vectors.values()
        for model_id, probs in zip(vectors, rows):
            fault = _vector_fault(probs, self.task.num_choices)
            if fault is not None:
                raise SchemaError(f"record {self.id}: provided_choice_probs[{model_id}]: {fault}")

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


def _record_from_json(obj, tasks: dict) -> EpisodeRecord:
    """The record a decoded line describes; ``tasks`` keeps one ``TaskKind``
    per (kind, choice count) across calls."""
    if not isinstance(obj, dict):
        raise SchemaError("record is not a JSON object")
    rec_id = _check_id(obj.get("id"))
    kind = obj.get("task")
    if kind not in TASK_KINDS:
        raise SchemaError(f"record {rec_id}: task: unknown kind {kind!r}")
    choices = obj.get("choices")
    if kind == "mcq":
        if not isinstance(choices, list) or len(choices) < 2:
            raise SchemaError(f"record {rec_id}: choices: mcq needs >= 2 choices")
        key = (kind, len(choices))
    else:
        key = (kind, None)
    task = tasks.get(key)
    if task is None:
        task = tasks[key] = TaskKind(*key)
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


def _record_from_line(line: str, tasks: dict) -> EpisodeRecord:
    """The record a corpus line describes, validated but for the entries of
    its provided vectors, which ``load_corpus`` checks a block at a time."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    rec = _record_from_json(obj, tasks)
    rec._validate_fields()
    return rec


def _check_block(vectors: list, m: int, pending: list, indexes: dict) -> None:
    """Check ``vectors`` as one block: the provided vectors of the records in
    ``pending``, (record, line) pairs. If the block passes, each record's
    vectors become a ``ProvidedVectors`` over the block's rows, its index
    shared through ``indexes`` (key order -> index); if it fails, raise the
    first bad record's error, naming its line."""
    if not vectors:
        return
    rows = _block_rows(vectors, m)
    if rows is None:
        for rec, lineno in pending:
            try:
                rec._validate_vectors()
            except SchemaError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from exc
        raise SchemaError(  # unreachable while the two forms of the rule agree
            f"lines {pending[0][1]}-{pending[-1][1]}: provided_choice_probs: "
            "a vector fails the rule"
        )
    start = 0
    for rec, _ in pending:
        keys = tuple(rec.provided_choice_probs)
        index = indexes.get(keys)
        if index is None:
            index = indexes[keys] = {model_id: i for i, model_id in enumerate(keys)}
        rec.provided_choice_probs = ProvidedVectors(index, rows[start : start + len(keys)])
        start += len(keys)


def _line_text(line: bytes) -> str:
    """A corpus line as stripped text; SchemaError if it is not UTF-8."""
    try:
        return line.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 (byte {exc.start + 1} of the line: {exc.reason})") from None


def load_corpus(path: str) -> Corpus:
    """Load and validate a JSONL corpus; names the first offending line on error.

    Each record is validated once: its fields as its line is read, its
    provided vectors a block at a time (see the module docstring). The pool
    is built from the records, so every model a record names is in it by
    construction.
    """
    records: list[EpisodeRecord] = []
    pool: dict = {}  # model ids in first-seen order; only the keys are used
    seen_ids: set[str] = set()
    tasks: dict = {}
    indexes: dict = {}  # one ProvidedVectors index per key order
    block: list = []  # provided vectors not yet checked, each meant to be block_m long
    block_m = None
    pending: list = []  # (record, line) of the records those vectors came from

    def check_block() -> None:
        _check_block(block, block_m, pending, indexes)
        block.clear()
        pending.clear()

    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line = _line_text(line)
                    if not line:
                        continue
                    rec = _record_from_line(line, tasks)
                except SchemaError as exc:
                    check_block()  # a bad vector on an earlier line comes first
                    raise SchemaError(f"line {lineno}: {exc}") from exc
                probs = rec.provided_choice_probs
                if probs and rec.task.num_choices != block_m:
                    check_block()
                    block_m = rec.task.num_choices
                records.append(rec)
                pool.update(rec.passes)
                if probs:
                    pool.update(probs)
                    block.extend(probs.values())
                    pending.append((rec, lineno))
                if rec.id in seen_ids:
                    check_block()  # so does a bad vector on this line
                    raise SchemaError(f"line {lineno}: record {rec.id}: id: duplicate")
                seen_ids.add(rec.id)
                if len(block) >= VECTOR_BLOCK:
                    check_block()
        check_block()
    finally:
        if collecting:
            gc.enable()
    return Corpus(records=records, model_ids=list(pool))


def _pass_to_json(p: RawPass) -> dict:
    return {
        "raw_text": p.raw_text,
        "parsed": p.parsed,
        "latency_s": p.latency_s,
        "status": p.status,
    }


def record_to_json(rec: EpisodeRecord, model_order: list[str] | None = None) -> dict:
    order = [m for m in (model_order or rec.passes) if m in rec.passes]
    probs = rec.provided_choice_probs
    if isinstance(probs, Mapping):
        probs = {m: vector_list(v) for m, v in probs.items()}
    return {
        "id": rec.id,
        "task": rec.task.kind,
        "prompt": rec.prompt,
        "choices": rec.choices,
        "ground_truth": rec.ground_truth,
        "passes": {m: [_pass_to_json(p) for p in rec.passes[m]] for m in order},
        "provided_choice_probs": probs,
    }


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write one JSON object per line; load(save(c)) == c. Saving a loaded
    corpus rewrites the file ``save_corpus`` wrote byte for byte, but for
    int entries of provided vectors, which are floats once loaded."""
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
