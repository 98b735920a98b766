"""K-pass output collection from OpenAI-compatible chat-completion endpoints.

A harvest is one work queue of (query, model) pass chains; a chain requests
its K passes one after another. Two bounds hold at every instant: at most
``max_in_flight`` requests in the whole run, and at most one per endpoint.
A free worker takes the lowest (query, model) chain that is ready and whose
endpoint is idle, so no query waits for another's slowest model. A failed
request puts its chain back with a not-before time (jittered exponential
backoff) instead of sleeping in the worker, so a pending retry holds no
slot. A pass that exhausts its retries is recorded with status "missing",
never dropped. A pass's ``latency_s`` is the summed round-trip time of its
requests, failed attempts included; the backoff and queue waits between
them are not. An authentication failure stops the harvest: no new request
starts, the ones in flight finish, and ``AuthError`` names the endpoint.
"""
from __future__ import annotations

import heapq
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass, replace

from .answers import canonical_answer
from .corpus import Corpus, EpisodeRecord, RawPass, TaskKind
from .metrics import bleu1

log = logging.getLogger(__name__)

DEFAULT_MAX_IN_FLIGHT = 16


class AuthError(RuntimeError):
    """The endpoint rejected our credentials; retrying cannot help."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    api_key_env: str = ""
    temperature: float | None = None  # None: 0.7 when K > 1, else 0.0
    max_tokens: int = 512
    timeout_s: float = 30.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not self.base_url:
            raise ValueError("base_url required")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def api_key(self) -> str | None:
        return os.environ.get(self.api_key_env) if self.api_key_env else None


_CHOICE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class PromptTemplate:
    """Template with a {question} slot and, for MCQ, a {choices} slot."""

    task: TaskKind
    template_text: str

    def __post_init__(self) -> None:
        if "{question}" not in self.template_text:
            raise ValueError("template needs a {question} slot")
        if self.task.is_mcq and "{choices}" not in self.template_text:
            raise ValueError("mcq template needs a {choices} slot")

    def render(self, record: EpisodeRecord) -> str:
        if self.task.is_mcq:
            lines = [
                f"{_CHOICE_LETTERS[i]}. {text}" for i, text in enumerate(record.choices)
            ]
            return self.template_text.format(
                question=record.prompt, choices="\n".join(lines)
            )
        return self.template_text.format(question=record.prompt)


def default_template(task: TaskKind) -> PromptTemplate:
    if task.is_mcq:
        text = (
            "{question}\n{choices}\n"
            "Think step by step, then finish with \"The answer is X\" where X is the letter."
        )
    elif task.kind == "oeq":
        text = (
            "{question}\n"
            "Think step by step, then finish with \"The answer is N\" where N is the answer."
        )
    else:
        text = "{question}\nAnswer very briefly by using at most 4 words."
    return PromptTemplate(task=task, template_text=text)


def _backoff_delay(attempt: int, base_s: float, cap_s: float, rng: random.Random) -> float:
    """Jittered exponential wait after failed attempt ``attempt`` (0-based)."""
    delay = min(cap_s, base_s * 2**attempt)
    return delay * (0.5 + rng.random() / 2)


def _request_completion(
    endpoint: EndpointConfig, prompt: str, temperature: float, attempt: int
) -> str | None:
    """One request to one endpoint; None when it failed and may be retried."""
    import requests  # only harvesting sends; every other stage skips the import

    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    key = endpoint.api_key()
    if key:
        headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
        "max_tokens": endpoint.max_tokens,
    }
    try:
        resp = requests.post(url, json=payload, headers=headers, timeout=endpoint.timeout_s)
        if resp.status_code in (401, 403):
            raise AuthError(
                f"authentication failed for {endpoint.base_url} "
                f"(model {endpoint.model_name}, key env {endpoint.api_key_env!r})"
            )
        resp.raise_for_status()
        return resp.json()["choices"][0]["message"]["content"]
    except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
        log.warning("%s attempt %d/%d failed: %s", endpoint.model_name,
                    attempt + 1, endpoint.max_retries + 1, exc)
        return None


def parse_pass(raw_text: str | None, task: TaskKind, choices: list[str] | None,
               latency_s: float | None = None) -> RawPass:
    """Wrap one raw completion into a RawPass with the task's parsing applied."""
    if raw_text is None:
        return RawPass(raw_text="", parsed=None, latency_s=latency_s, status="missing")
    if task.is_mcq:
        parsed: str | int | None = extract_mcq_choice(raw_text, choices)
    elif task.kind == "oeq":
        parsed = extract_oeq_answer(raw_text)
    else:
        parsed = raw_text.strip() or None
    status = "ok" if parsed is not None else "parse_failed"
    return RawPass(raw_text=raw_text, parsed=parsed, latency_s=latency_s, status=status)


@dataclass
class _Chain:
    """The pass being requested for one (query, model) pair."""

    prompt: str
    rng: random.Random  # backoff jitter, drawn across all of the chain's passes
    attempt: int = 0
    spent_s: float = 0.0  # round-trip time of this pass's attempts so far


class _PassQueue:
    """The (query, model) pass chains of one harvest, served by a few workers.

    A free worker takes the lowest (query, model) chain that is ready and
    whose endpoint has no request in flight, sends one request and puts the
    chain back: ready for its next pass, finished after K passes, or waiting
    for a not-before time after a failure that has retries left. So a retry
    holds no worker while it waits, and no query waits for another.
    """

    def __init__(self, records: list[EpisodeRecord], endpoints: list[EndpointConfig], k: int,
                 templates: list[PromptTemplate], backoff_base_s: float,
                 backoff_cap_s: float, seed: int) -> None:
        self.records = records
        self.endpoints = endpoints
        self.k = k
        self.templates = templates
        self.backoff = (backoff_base_s, backoff_cap_s)
        self.seed = seed
        self.temperatures = [
            e.temperature if e.temperature is not None else (0.7 if k > 1 else 0.0)
            for e in endpoints
        ]
        self.passes: list[list[list[RawPass]]] = [[[] for _ in endpoints] for _ in records]
        self.error: BaseException | None = None
        self._ready = [list(range(len(records))) for _ in endpoints]  # heaps of query indices
        self._waiting: list[list[tuple[float, int]]] = [[] for _ in endpoints]  # (not_before, q)
        self._busy = [False] * len(endpoints)
        self._chains: dict[tuple[int, int], _Chain] = {}
        self._left = len(records) * len(endpoints)  # chains without all K passes
        self._stopped = False
        self._cond = threading.Condition()

    def run(self, workers: int) -> None:
        """Serve every chain with ``workers`` threads, all joined before returning."""
        threads = [threading.Thread(target=self._work, name=f"harvest-{i}", daemon=True)
                   for i in range(workers)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:  # on an interrupt, no new request starts; the ones in flight finish
            self._stop(None)
            for t in threads:
                if t.is_alive():
                    t.join()
        if self.error is not None:
            raise self.error

    def _stop(self, error: BaseException | None) -> None:
        with self._cond:
            if self.error is None:
                self.error = error
            self._stopped = True
            self._cond.notify_all()

    def _take(self) -> tuple[int, int, _Chain] | None:
        """Wait for a chain to serve, holding the lock; None once the run is over."""
        while not self._stopped and self._left:
            now = time.monotonic()
            best = None
            wake = None
            for m, (ready, waiting) in enumerate(zip(self._ready, self._waiting)):
                if self._busy[m]:
                    continue
                while waiting and waiting[0][0] <= now:
                    heapq.heappush(ready, heapq.heappop(waiting)[1])
                if ready and (best is None or ready[0] < best[0]):
                    best = (ready[0], m)
                if waiting and (wake is None or waiting[0][0] < wake):
                    wake = waiting[0][0]
            if best is not None:
                q, m = best
                heapq.heappop(self._ready[m])
                self._busy[m] = True
                chain = self._chains.get((q, m))
                if chain is None:
                    record = self.records[q]
                    rng_key = f"{self.seed}:{self.endpoints[m].model_name}:{record.id}"
                    chain = self._chains[q, m] = _Chain(
                        prompt=self.templates[q].render(record), rng=random.Random(rng_key)
                    )
                return q, m, chain
            self._cond.wait(None if wake is None else wake - now)
        return None

    def _work(self) -> None:
        try:  # a template that fails to render raises in _take
            while True:
                with self._cond:
                    unit = self._take()
                if unit is None:
                    return
                self._serve(*unit)
        except BaseException as exc:  # harvest() re-raises it after the join
            self._stop(exc)

    def _serve(self, q: int, m: int, chain: _Chain) -> None:
        endpoint, record = self.endpoints[m], self.records[q]
        start = time.monotonic()
        text = _request_completion(endpoint, chain.prompt, self.temperatures[m], chain.attempt)
        chain.spent_s += time.monotonic() - start
        not_before = None
        if text is None and chain.attempt < endpoint.max_retries:
            not_before = time.monotonic() + _backoff_delay(chain.attempt, *self.backoff, chain.rng)
            chain.attempt += 1
        else:
            done = self.passes[q][m]
            done.append(parse_pass(text, record.task, record.choices, latency_s=chain.spent_s))
            chain.attempt, chain.spent_s = 0, 0.0
        with self._cond:
            if not_before is not None:
                heapq.heappush(self._waiting[m], (not_before, q))
            elif len(done) < self.k:
                heapq.heappush(self._ready[m], q)
            else:
                del self._chains[q, m]
                self._left -= 1
            self._busy[m] = False
            self._cond.notify_all()


def harvest(
    queries: Corpus,
    endpoints: list[EndpointConfig],
    k: int,
    template: PromptTemplate | None = None,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    backoff_base_s: float = 1.0,
    backoff_cap_s: float = 30.0,
    seed: int = 0,
) -> Corpus:
    """Collect K passes per model per query; returns a new corpus.

    The input corpus is never mutated; its prompts, choices, and ground
    truths carry over unchanged. A harvested model's new passes replace its
    old passes and its provided vector, so the passes are what it answers
    with; every other model keeps its passes and its vector.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    if not endpoints:
        raise ValueError("need at least one endpoint")
    names = [e.model_name for e in endpoints]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model names across endpoints")
    records = queries.records
    templates = [template or default_template(record.task) for record in records]
    queue = _PassQueue(records, endpoints, k, templates, backoff_base_s, backoff_cap_s, seed)
    queue.run(workers=min(len(endpoints), max_in_flight))
    out_records = []
    for record, harvested_passes in zip(records, queue.passes):
        passes = {**record.passes, **dict(zip(names, harvested_passes))}
        probs = record.provided_choice_probs
        if probs is not None:
            probs = {m: p for m, p in probs.items() if m not in names} or None
        out_records.append(replace(record, passes=passes, provided_choice_probs=probs))
    model_ids = list(queries.model_ids)
    for name in names:
        if name not in model_ids:
            model_ids.append(name)
    harvested = Corpus(records=out_records, model_ids=model_ids)
    harvested.validate()
    return harvested


def select_fraction(corpus: Corpus, alpha_percent: float, seed: int = 0) -> set[str]:
    """Seeded choice of the record ids covering alpha percent of the corpus."""
    if not 0 < alpha_percent <= 100:
        raise ValueError("alpha_percent must be in (0, 100]")
    n = len(corpus.records)
    take = max(1, round(n * alpha_percent / 100)) if n else 0
    order = list(range(n))
    random.Random(f"alpha:{seed}").shuffle(order)
    return {corpus.records[i].id for i in order[:take]}


_ANSWER_LETTER_RE = re.compile(
    r"answer\s*(?:is)?\s*[:=]?\s*[\(\[\*\"']*([A-Za-z])(?![A-Za-z])", re.IGNORECASE
)
_PAREN_LETTER_RE = re.compile(r"\(([A-Za-z])\)")
_LINE_LETTER_RE = re.compile(r"^\s*([A-Za-z])\s*[.):]", re.MULTILINE)


def extract_mcq_choice(raw_text: str, choices: list[str]) -> int | None:
    """Choice index for a raw MCQ answer; None only for empty input.

    A letter label near an "answer" marker wins, then a parenthesized or
    line-leading letter; otherwise the choice whose text has the highest
    BLEU-1 score against the output, ties to the lowest index.
    """
    if len(choices) < 2:
        raise ValueError("need at least 2 choices")
    if not raw_text.strip():
        return None
    m = len(choices)
    for pattern in (_ANSWER_LETTER_RE, _PAREN_LETTER_RE, _LINE_LETTER_RE):
        matches = pattern.findall(raw_text)
        for letter in reversed(matches):  # the final stated answer wins
            idx = _CHOICE_LETTERS.find(letter.upper())
            if 0 <= idx < m:
                return idx
    scores = [bleu1(raw_text, choice) for choice in choices]
    return max(range(m), key=lambda i: (scores[i], -i))


_ANSWER_MARKER_RE = re.compile(r"(?:answer\s+is|answer\s*[:=]|####)\s*", re.IGNORECASE)
_NUMBER_RE = re.compile(r"[-+]?[$€£]?\d[\d,]*(?:\.\d+)?")


def extract_oeq_answer(raw_text: str) -> str | None:
    """Canonical short answer from a chain-of-thought completion.

    Takes the text after the last answer marker ("answer is", "####"); with
    no marker, the last number in the text; failing that, the whole text if
    it is already a short phrase. None means the pass is unparseable.
    """
    text = raw_text.strip()
    if not text:
        return None
    markers = list(_ANSWER_MARKER_RE.finditer(text))
    if markers:
        tail = text[markers[-1].end() :].splitlines()[0] if markers[-1].end() < len(text) else ""
        tail = tail.strip()
        number = _NUMBER_RE.search(tail)
        if number:
            return canonical_answer(number.group())
        if tail:
            return canonical_answer(tail)
    numbers = _NUMBER_RE.findall(text)
    if numbers:
        return canonical_answer(numbers[-1])
    words = text.split()
    if len(words) <= 4:
        return canonical_answer(text)
    return None
