"""K-pass output collection from OpenAI-compatible chat-completion endpoints.

For each query, one request per model is in flight at a time and the models
run concurrently, so per-query wall time tracks the slowest model rather
than the sum. Transient failures retry with jittered exponential backoff;
a pass that exhausts its retries is recorded with status "missing", never
dropped. Authentication failures abort the harvest naming the endpoint.
"""
from __future__ import annotations

import logging
import os
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
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


def _backoff_sleep(attempt: int, base_s: float, cap_s: float, rng: random.Random) -> None:
    delay = min(cap_s, base_s * 2**attempt)
    time.sleep(delay * (0.5 + rng.random() / 2))


def _request_completion(
    endpoint: EndpointConfig,
    prompt: str,
    temperature: float,
    backoff_base_s: float,
    backoff_cap_s: float,
    rng: random.Random,
) -> str | None:
    """One pass against one endpoint; None when every attempt failed."""
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
    for attempt in range(endpoint.max_retries + 1):
        try:
            resp = requests.post(
                url, json=payload, headers=headers, timeout=endpoint.timeout_s
            )
            if resp.status_code in (401, 403):
                raise AuthError(
                    f"authentication failed for {endpoint.base_url} "
                    f"(model {endpoint.model_name}, key env {endpoint.api_key_env!r})"
                )
            resp.raise_for_status()
            return resp.json()["choices"][0]["message"]["content"]
        except AuthError:
            raise
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            log.warning("%s attempt %d/%d failed: %s", endpoint.model_name,
                        attempt + 1, endpoint.max_retries + 1, exc)
            if attempt < endpoint.max_retries:
                _backoff_sleep(attempt, backoff_base_s, backoff_cap_s, rng)
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


def _harvest_model(
    endpoint: EndpointConfig,
    record: EpisodeRecord,
    k: int,
    template: PromptTemplate,
    backoff_base_s: float,
    backoff_cap_s: float,
    seed: int,
) -> list[RawPass]:
    prompt = template.render(record)
    temperature = endpoint.temperature
    if temperature is None:
        temperature = 0.7 if k > 1 else 0.0
    rng = random.Random(f"{seed}:{endpoint.model_name}:{record.id}")
    passes = []
    for _ in range(k):
        start = time.monotonic()
        text = _request_completion(
            endpoint, prompt, temperature, backoff_base_s, backoff_cap_s, rng
        )
        passes.append(
            parse_pass(text, record.task, record.choices,
                       latency_s=time.monotonic() - start)
        )
    return passes


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
    if not endpoints:
        raise ValueError("need at least one endpoint")
    names = [e.model_name for e in endpoints]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model names across endpoints")
    out_records = []
    workers = min(len(endpoints), max_in_flight)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for record in queries.records:
            tmpl = template or default_template(record.task)
            futures = {
                e.model_name: pool.submit(
                    _harvest_model, e, record, k, tmpl,
                    backoff_base_s, backoff_cap_s, seed,
                )
                for e in endpoints
            }
            passes = {**record.passes, **{name: futures[name].result() for name in names}}
            probs = record.provided_choice_probs
            if probs is not None:
                probs = {m: p for m, p in probs.items() if m not in futures} or None
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
