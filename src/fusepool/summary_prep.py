"""Input serialization and sparse attention structure for a long-context
summary combiner.

The question and each candidate answer are wrapped in distinct open/close
tags so the downstream model can tell which ensemble member produced which
candidate. The attention mask pairs a sliding-window band (each token sees
its +-window/2 neighbours) with selective global attention on a chosen
token set, normally the question span; it is stored as band-plus-globals
rather than a dense grid, so memory stays linear in sequence length.
"""
from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass

log = logging.getLogger(__name__)

QUESTION_OPEN = "<boq>"
QUESTION_CLOSE = "<eoq>"

DEFAULT_TOKEN_BUDGET = 16396


def candidate_tags(index: int) -> tuple[str, str]:
    """Open/close tag pair for the 1-based candidate index."""
    return f"<boc{index}>", f"<eoc{index}>"


@dataclass
class SerializedInput:
    """Tagged input string with recoverable spans.

    ``question_span`` and ``candidate_spans`` are character ranges such that
    ``text[start:end]`` returns the original question or candidate.
    """

    text: str
    question_span: tuple[int, int]
    candidate_spans: list[tuple[int, int]]
    model_tags: list[tuple[str, str]]

    def question(self) -> str:
        lo, hi = self.question_span
        return self.text[lo:hi]

    def candidate(self, i: int) -> str:
        lo, hi = self.candidate_spans[i]
        return self.text[lo:hi]


def token_count(text: str) -> int:
    # Whitespace tokens; tags are whitespace-delimited and count as one each.
    return len(text.split())


class BudgetError(ValueError):
    """A token budget leaves no token for a candidate."""


def _assemble(query: str, candidates: list[str]) -> SerializedInput:
    parts = [QUESTION_OPEN, query, QUESTION_CLOSE]
    offset = len(QUESTION_OPEN) + 1
    question_span = (offset, offset + len(query))
    offset += len(query) + 1 + len(QUESTION_CLOSE)
    spans: list[tuple[int, int]] = []
    tags: list[tuple[str, str]] = []
    for i, cand in enumerate(candidates, start=1):
        open_tag, close_tag = candidate_tags(i)
        parts.extend([open_tag, cand, close_tag])
        offset += 1 + len(open_tag) + 1
        spans.append((offset, offset + len(cand)))
        offset += len(cand) + 1 + len(close_tag)
        tags.append((open_tag, close_tag))
    return SerializedInput(
        text=" ".join(parts),
        question_span=question_span,
        candidate_spans=spans,
        model_tags=tags,
    )


def serialize_inputs(
    query: str,
    candidates: list[str],
    max_tokens: int = DEFAULT_TOKEN_BUDGET,
) -> SerializedInput:
    """Serialize a query and its ordered candidate answers into one string.

    Layout: <boq> x <eoq> <boc1> z_1 <eoc1> ... <bocS> z_S <eocS>.
    When the whitespace token count exceeds ``max_tokens``, tokens are
    trimmed from the longest candidate first until the input fits. A
    ``max_tokens`` that leaves no token for a candidate once the question and
    the tags are in raises ``BudgetError``.
    """
    if not query.strip():
        raise ValueError("query must be non-empty")
    if not candidates:
        raise ValueError("need at least one candidate")
    frame = token_count(query) + 2 + 2 * len(candidates)  # question, its tags, the tags
    if max_tokens <= frame:
        raise BudgetError(
            f"max_tokens={max_tokens} leaves no token for a candidate: "
            f"the question and tags take {frame}"
        )
    serialized = _assemble(query, list(candidates))
    total = token_count(serialized.text)
    if total <= max_tokens:
        return serialized
    trimmed = [c.split() for c in candidates]
    excess = total - max_tokens
    log.warning("serialized input is %d tokens over the %d budget; truncating candidates",
                excess, max_tokens)
    while excess > 0:
        lengths = [len(t) for t in trimmed]
        longest = max(range(len(trimmed)), key=lengths.__getitem__)
        runner_up = max((n for i, n in enumerate(lengths) if i != longest), default=0)
        cut = min(excess, max(1, lengths[longest] - runner_up))
        del trimmed[longest][-cut:]
        excess -= cut
    return _assemble(query, [" ".join(t) for t in trimmed])


@dataclass(frozen=True)
class AttentionMaskSpec:
    """Sequence length, even window width, and the globally attended tokens."""

    length: int
    window: int
    global_tokens: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.window < 2 or self.window % 2 != 0:
            raise ValueError("window must be an even integer >= 2")
        object.__setattr__(self, "global_tokens", frozenset(self.global_tokens))
        if any(not 0 <= g < self.length for g in self.global_tokens):
            raise ValueError("global tokens must index into the sequence")

    @property
    def half_window(self) -> int:
        return self.window // 2


class AttentionMask:
    """Band + globals attention mask over ``length`` tokens.

    allowed(i, j) holds when |i - j| <= window/2, or either token is global.
    The mask is symmetric and the diagonal is always allowed.
    """

    def __init__(self, spec: AttentionMaskSpec) -> None:
        self.spec = spec
        self.length = spec.length
        self.half_window = spec.half_window
        self.global_sorted = sorted(spec.global_tokens)

    def allowed(self, i: int, j: int) -> bool:
        if not (0 <= i < self.length and 0 <= j < self.length):
            raise IndexError(f"token pair ({i}, {j}) outside sequence")
        return (
            abs(i - j) <= self.half_window
            or i in self.spec.global_tokens
            or j in self.spec.global_tokens
        )

    def band_range(self, i: int) -> tuple[int, int]:
        return max(0, i - self.half_window), min(self.length - 1, i + self.half_window)

    def allowed_count(self) -> int:
        """Exact number of allowed (i, j) pairs."""
        total = 0
        n_global = len(self.global_sorted)
        for i in range(self.length):
            if i in self.spec.global_tokens:
                total += self.length
                continue
            lo, hi = self.band_range(i)
            in_band = bisect.bisect_right(self.global_sorted, hi) - bisect.bisect_left(
                self.global_sorted, lo
            )
            total += (hi - lo + 1) + (n_global - in_band)
        return total


def build_attention_mask(spec: AttentionMaskSpec) -> AttentionMask:
    return AttentionMask(spec)


def receptive_field(
    spec: AttentionMaskSpec, layers: int, start: int
) -> tuple[int, int]:
    """Hull of token indices reachable from ``start`` in ``layers`` hops.

    With no global tokens the band expands by window/2 per layer, giving
    start +- layers * window/2 clipped to the sequence. Any global token is
    one hop from everywhere and reaches everywhere, so with globals present
    two hops already span the whole sequence.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if not 0 <= start < spec.length:
        raise IndexError(f"start token {start} outside sequence")
    reach = layers * spec.half_window
    lo = max(0, start - reach)
    hi = min(spec.length - 1, start + reach)
    if not spec.global_tokens:
        return lo, hi
    if start in spec.global_tokens or layers >= 2:
        return 0, spec.length - 1
    lo1 = max(0, start - spec.half_window)
    hi1 = min(spec.length - 1, start + spec.half_window)
    return min(lo1, min(spec.global_tokens)), max(hi1, max(spec.global_tokens))
