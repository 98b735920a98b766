"""Order-independent chat-completions stub for the harvest workload.

Every response is a pure function of (seed, model, query tag, n): the tag is
the ``[hq-<i>]`` marker in the prompt, and n counts the earlier arrivals of
the same (model, tag) key. Keying on the tag rather than the whole prompt
keeps the injected work fixed when the client's prompt template changes.
Rescheduling requests inside the client never changes the latencies, the
injected HTTP 500s or the set of replies a key receives: only which pass
gets which reply.

A key listed in ``fail_first`` answers its first arrival with HTTP 500 and
succeeds afterwards. A seeded share of replies is the chosen choice's text as
prose instead of "The answer is X", so the client's BLEU-1 fallback runs too.
"""
from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
JITTER = 0.25  # latency varies by up to this share either side of the mean
PROSE_SHARE = 0.15  # share of replies stating the choice's text, not its letter
_TAG_RE = re.compile(r"\[(hq-\d+)\]")


def unit_hash(*parts) -> float:
    """Deterministic uniform number in [0, 1) from the given parts."""
    digest = hashlib.blake2b("\x1f".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def query_tag(prompt: str) -> str:
    """The query marker a harvest prompt carries."""
    m = _TAG_RE.search(prompt)
    if m is None:
        raise ValueError("prompt carries no [hq-<i>] query tag")
    return m.group(1)


def prompt_choices(prompt: str) -> list[str]:
    """Choice texts from the "A. text" lines of a rendered MCQ prompt."""
    choices: list[str] = []
    for line in prompt.splitlines():
        if len(choices) < len(LETTERS) and line.startswith(LETTERS[len(choices)] + ". "):
            choices.append(line[3:])
    return choices


@dataclass(frozen=True)
class Reply:
    status: int
    latency_s: float
    choice: int | None  # the choice index the reply states; None for a 500
    text: str | None


@dataclass(frozen=True)
class StubPlan:
    """What the stub answers; shared by the server and the output checks."""

    seed: int
    latency_ms: dict[str, float]  # mean latency per model name
    fail_first: frozenset[tuple[str, str]]  # (model, tag) keys failing once

    def reply(self, model: str, tag: str, choices: list[str], n: int) -> Reply:
        u = unit_hash(self.seed, "latency", model, tag, n)
        latency = self.latency_ms[model] / 1000.0 * (1.0 + JITTER * (2.0 * u - 1.0))
        if n == 0 and (model, tag) in self.fail_first:
            return Reply(500, latency, None, None)
        if not choices:
            raise ValueError("the stub only answers MCQ prompts")
        choice = int(unit_hash(self.seed, "choice", model, tag, n) * len(choices))
        if unit_hash(self.seed, "prose", model, tag, n) < PROSE_SHARE:
            text = f"Most likely it is {choices[choice]}."
        else:
            text = f"Reasoning step by step. The answer is {LETTERS[choice]}."
        return Reply(200, latency, choice, text)

    def replied_choices(self, model: str, tag: str, choices: list[str], n_ok: int) -> list[int]:
        """Choices stated by the first ``n_ok`` successful replies of a key."""
        out = []
        n = 0
        while len(out) < n_ok:
            r = self.reply(model, tag, choices, n)
            if r.status == 200:
                out.append(r.choice)
            n += 1
        return out


class StubServer:
    """Threaded HTTP server answering /chat/completions from a StubPlan.

    Counts requests and HTTP errors and logs every change of the number of
    requests in flight, so a window's mean and peak concurrency can be read.
    """

    def __init__(self, plan: StubPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self.reset()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server naming
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                model = body["model"]
                prompt = body["messages"][0]["content"]
                tag = query_tag(prompt)
                n = stub._arrive(model, tag)
                status = 500
                try:
                    reply = stub.plan.reply(model, tag, prompt_choices(prompt), n)
                    status = reply.status
                    time.sleep(reply.latency_s)
                    if status != 200:
                        self.send_response(status)
                        self.send_header("Content-Length", "0")
                        self.end_headers()
                        return
                    payload = json.dumps({"choices": [
                        {"message": {"role": "assistant", "content": reply.text}}
                    ]}).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                finally:
                    stub._leave(status)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def reset(self) -> None:
        with self._lock:
            self.arrivals: dict[tuple[str, str], int] = {}
            self.requests = 0
            self.http_errors = 0
            self.in_flight = 0
            self.events: list[tuple[float, int]] = [(time.perf_counter(), 0)]

    def _arrive(self, model: str, tag: str) -> int:
        with self._lock:
            key = (model, tag)
            n = self.arrivals.get(key, 0)
            self.arrivals[key] = n + 1
            self.requests += 1
            self.in_flight += 1
            self.events.append((time.perf_counter(), self.in_flight))
            return n

    def _leave(self, status: int) -> None:
        with self._lock:
            if status != 200:
                self.http_errors += 1
            self.in_flight -= 1
            self.events.append((time.perf_counter(), self.in_flight))

    def stats(self, start: float, end: float) -> dict:
        """Request counts plus time-weighted mean and peak in-flight over [start, end]."""
        with self._lock:
            events = list(self.events)
            out = {"requests": self.requests, "http_errors": self.http_errors}
        level = 0  # requests in flight at the current point of the sweep
        for t, new_level in events:
            if t > start:
                break
            level = new_level
        area = 0.0
        peak = level
        prev = start
        for t, new_level in events:
            if t <= start:
                continue
            if t >= end:
                break
            area += level * (t - prev)
            prev = t
            level = new_level
            peak = max(peak, level)
        area += level * (end - prev)
        out["in_flight_mean"] = area / (end - start) if end > start else 0.0
        out["in_flight_max"] = peak
        return out

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
