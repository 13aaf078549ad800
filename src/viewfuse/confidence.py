"""Token-likelihood confidence scoring.

The raw score is the mean absolute token logprob of a generated
description: 0 means every token had probability 1, larger values mean
the generator was less certain. The normalized form maps that onto
(0, 1] with higher being better, so it can be blended with relevance
weights downstream.
"""

import math

from .errors import EmptyTokenList, NonFiniteLogprob


def compute_raw_confidence(token_logprobs: list[float]) -> float:
    """Mean absolute logprob over the generated tokens.

    Each entry must be a finite natural-log probability, i.e. <= 0.
    """
    if len(token_logprobs) == 0:
        raise EmptyTokenList("token_logprobs must be non-empty")
    total = 0.0
    for lp in token_logprobs:
        if not math.isfinite(lp) or lp > 0:
            raise NonFiniteLogprob(f"logprob must be finite and <= 0, got {lp!r}")
        total += abs(lp)
    return total / len(token_logprobs)


def normalize_confidence(raw: float) -> float:
    """Map a raw confidence (finite, >= 0) onto (0, 1], strictly decreasing, 0 -> 1."""
    return math.exp(-raw)
