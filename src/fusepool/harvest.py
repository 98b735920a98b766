"""K-pass output collection from OpenAI-compatible chat-completion endpoints.

A harvest is a set of (query, model) pass chains; a chain requests its K
passes one after another. The thread that calls ``harvest`` owns the whole
schedule and hands each request to a small thread pool that only sends.
Two bounds hold at every instant: at most ``max_in_flight`` requests in the
whole run, and at most one per endpoint. While a slot is free, the lowest
(query, model) chain that is ready and whose endpoint is idle gets its next
request, so no query waits for another's slowest model. A failed request
puts its chain back with a not-before time (jittered exponential backoff),
so a pending retry holds no slot. A pass that exhausts its retries is
recorded with status "missing", never dropped. A pass's ``latency_s`` is the
summed round-trip time of its requests, failed attempts included; the
backoff and queue waits between them are not. An authentication failure
stops the harvest: no new request starts, the ones in flight finish, and
``AuthError`` names the endpoint.

Each attempt is one standard-library ``urllib.request`` POST on a new
connection. Proxies come from the ``*_PROXY`` and ``NO_PROXY`` environment
variables, TLS is verified with the default SSL context, and no redirect is
followed, so a 3xx is a failed attempt and the ``Authorization`` header never
reaches another host. A 401 or 403 raises ``AuthError``; any other 4xx but
408 and 429 fails the pass at once, as "missing". Every other failure (a
408, 429, 3xx or 5xx, a network error or timeout, or a reply without a text
``choices[0].message.content``) is retried.
"""
from __future__ import annotations

import heapq
import json
import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, replace
from urllib.parse import urlsplit

from . import __version__
from .answers import canonical_answer
from .corpus import Corpus, EpisodeRecord, RawPass, TaskKind, is_number
from .metrics import bleu1

log = logging.getLogger(__name__)

DEFAULT_MAX_IN_FLIGHT = 16
BACKOFF_BASE_S = 1.0  # wait after a pass's first failed attempt, doubling per retry
BACKOFF_CAP_S = 30.0  # the longest wait; each is jittered to 50-100 %
_USER_AGENT = f"fusepool/{__version__}"


class AuthError(RuntimeError):
    """The endpoint rejected our credentials; retrying cannot help."""


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
        url = urlsplit(self.base_url) if isinstance(self.base_url, str) else None
        if url is None or url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(f"base_url must be an http:// or https:// URL, "
                             f"got {self.base_url!r}")
        if not isinstance(self.model_name, str) or not self.model_name:
            raise ValueError("model_name must be non-empty text")
        if not isinstance(self.api_key_env, str):
            raise ValueError("api_key_env must be text")
        # The socket layer refuses a timeout above threading.TIMEOUT_MAX.
        if not (is_number(self.timeout_s) and 0 < self.timeout_s <= threading.TIMEOUT_MAX):
            raise ValueError(f"timeout_s must be a finite number > 0 and at most "
                             f"{threading.TIMEOUT_MAX:.0f}, got {self.timeout_s!r}")
        if not (_is_int(self.max_retries) and self.max_retries >= 0):
            raise ValueError(f"max_retries must be an int >= 0, got {self.max_retries!r}")
        if not (_is_int(self.max_tokens) and self.max_tokens >= 1):
            raise ValueError(f"max_tokens must be an int >= 1, got {self.max_tokens!r}")
        if self.temperature is not None and not (
                is_number(self.temperature) and math.isfinite(self.temperature)
                and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, "
                             f"got {self.temperature!r}")

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
            if len(record.choices) > len(_CHOICE_LETTERS):
                raise ValueError(f"{len(record.choices)} choices; letters run from A to Z")
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


def _backoff_delay(attempt: int, rng: random.Random) -> float:
    """Jittered exponential wait after failed attempt ``attempt`` (0-based)."""
    delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**attempt)
    return delay * (0.5 + rng.random() / 2)


def _no_redirect_opener():
    """An opener like urllib's default (environment proxies, verified TLS) that
    follows no redirect, so a 3xx is an error and no header leaves the host."""
    import urllib.request  # only harvesting sends; every other stage skips the import

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(NoRedirect)


def _reply_text(reply: object) -> str:
    match reply:
        case {"choices": [{"message": {"content": str() as text}}, *_]}:
            return text
    raise ValueError("reply has no text at choices[0].message.content")


def _request_completion(opener, endpoint: EndpointConfig, prompt: str, temperature: float,
                        attempt: int) -> tuple[str | None, bool, float]:
    """One attempt on a new connection, sent from a pool thread.

    Returns the reply text (None when the attempt failed), whether a failed
    attempt may be retried, and the round-trip time.
    """
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json", "User-Agent": _USER_AGENT}
    key = endpoint.api_key()
    if key:
        headers["Authorization"] = f"Bearer {key}"
    body = json.dumps({
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
        "max_tokens": endpoint.max_tokens,
    }, allow_nan=False).encode()
    request = urllib.request.Request(endpoint.base_url.rstrip("/") + "/chat/completions",
                                     data=body, headers=headers, method="POST")
    start = time.monotonic()
    try:
        with opener.open(request, timeout=endpoint.timeout_s) as resp:
            reply = resp.read()
        return _reply_text(json.loads(reply)), True, time.monotonic() - start
    except urllib.error.HTTPError as exc:
        exc.close()
        if exc.code in (401, 403):
            raise AuthError(
                f"authentication failed for {endpoint.base_url} "
                f"(model {endpoint.model_name}, key env {endpoint.api_key_env!r})"
            ) from None
        error, retry = exc, not 400 <= exc.code < 500 or exc.code in (408, 429)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        error, retry = exc, True  # network errors, timeouts, replies that do not decode
    log.warning("%s attempt %d/%d failed: %s%s", endpoint.model_name, attempt + 1,
                endpoint.max_retries + 1, error, "" if retry else " (not retried)")
    return None, retry, time.monotonic() - start


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

    rng: random.Random  # backoff jitter, drawn across all of the chain's passes
    attempt: int = 0
    spent_s: float = 0.0  # round-trip time of this pass's attempts so far


def _collect_passes(records: list[EpisodeRecord], endpoints: list[EndpointConfig], k: int,
                    prompts: list[str], max_in_flight: int,
                    seed: int) -> list[list[list[RawPass]]]:
    """K passes per (query, model) chain, scheduled by the calling thread alone."""
    # Imported here, like urllib.request, so that the stages that never send skip it.
    from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait

    opener = _no_redirect_opener()
    temperatures = [e.temperature if e.temperature is not None else (0.7 if k > 1 else 0.0)
                    for e in endpoints]
    passes: list[list[list[RawPass]]] = [[[] for _ in endpoints] for _ in records]
    ready = [list(range(len(records))) for _ in endpoints]  # heaps of query indices
    waiting: list[list[tuple[float, int]]] = [[] for _ in endpoints]  # (not_before, q)
    busy = [False] * len(endpoints)
    chains: dict[tuple[int, int], _Chain] = {}
    in_flight: dict[Future, tuple[int, int]] = {}
    left = len(records) * len(endpoints)  # chains without all K passes
    # Leaving the pool's block, on an error or an interrupt too, waits for the
    # requests in flight and joins every pool thread; no new request starts.
    with ThreadPoolExecutor(min(len(endpoints), max_in_flight), "harvest-pool") as pool:
        while left:
            now = time.monotonic()
            best = wake = None
            for m, (ready_m, waiting_m) in enumerate(zip(ready, waiting)):
                if busy[m]:
                    continue
                while waiting_m and waiting_m[0][0] <= now:
                    heapq.heappush(ready_m, heapq.heappop(waiting_m)[1])
                if ready_m and (best is None or ready_m[0] < best[0]):
                    best = (ready_m[0], m)
                if waiting_m and (wake is None or waiting_m[0][0] < wake):
                    wake = waiting_m[0][0]
            slot_free = len(in_flight) < max_in_flight
            if slot_free and best is not None:
                q, m = best
                heapq.heappop(ready[m])
                busy[m] = True
                chain = chains.get((q, m))
                if chain is None:
                    rng_key = f"{seed}:{endpoints[m].model_name}:{records[q].id}"
                    chain = chains[q, m] = _Chain(random.Random(rng_key))
                in_flight[pool.submit(_request_completion, opener, endpoints[m],
                                      prompts[q], temperatures[m], chain.attempt)] = (q, m)
                continue
            if not in_flight:  # every chain left is waiting out a backoff
                time.sleep(wake - now)
                continue
            timeout = wake - now if slot_free and wake is not None else None
            replied, _ = wait(in_flight, timeout, FIRST_COMPLETED)
            for future in replied:
                q, m = in_flight.pop(future)
                busy[m] = False
                # An AuthError stops the run here.
                text, retry, round_trip_s = future.result()
                chain = chains[q, m]
                chain.spent_s += round_trip_s
                if text is None and retry and chain.attempt < endpoints[m].max_retries:
                    delay = _backoff_delay(chain.attempt, chain.rng)
                    heapq.heappush(waiting[m], (time.monotonic() + delay, q))
                    chain.attempt += 1
                    continue
                done = passes[q][m]
                done.append(parse_pass(text, records[q].task, records[q].choices,
                                       latency_s=chain.spent_s))
                chain.attempt, chain.spent_s = 0, 0.0
                if len(done) < k:
                    heapq.heappush(ready[m], q)
                else:
                    del chains[q, m]
                    left -= 1
    return passes


def harvest(
    queries: Corpus,
    endpoints: list[EndpointConfig],
    k: int,
    template: PromptTemplate | None = None,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    seed: int = 0,
) -> Corpus:
    """Collect K passes per model per query; returns a new corpus.

    Every prompt is rendered before the first request: a record the template
    cannot render is a ValueError that names it, and nothing is sent. The
    input corpus is never mutated; its prompts, choices, and ground truths
    carry over unchanged. A harvested model's new passes replace its
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
    prompts = []
    for record in records:
        try:
            prompts.append((template or default_template(record.task)).render(record))
        except (LookupError, AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"record {record.id}: the prompt template does not render: "
                             f"{type(exc).__name__}: {exc}") from exc
    passes = _collect_passes(records, endpoints, k, prompts, max_in_flight, seed)
    out_records = []
    for record, harvested_passes in zip(records, passes):
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
