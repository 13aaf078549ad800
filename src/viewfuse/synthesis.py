"""Fusing per-view selections into one global annotation.

Front and back views carry the identifying information, so their
combined text is boosted and its first sentence becomes the head of
the global description; the best of the remaining views supplies
supplementary detail.
"""

from dataclasses import dataclass

from .model import SIDE_VIEWS, VIEW_ORDER, Viewpoint

_TERMINATORS = ".!?"


@dataclass(frozen=True)
class ViewSelection:
    """The winning description for one view and its composite score."""

    view: Viewpoint
    text: str
    score: float


def prioritize_front_back(
    selections: list[ViewSelection], w_fb: float
) -> tuple[str, float]:
    """Front then back text, and w_fb times their mean score clamped to [0, 1]."""
    by_view = {s.view: s for s in selections}
    front, back = by_view[Viewpoint.FRONT], by_view[Viewpoint.BACK]
    raw = w_fb * (front.score + back.score) / 2.0
    return f"{front.text} {back.text}", min(1.0, max(0.0, raw))


def extract_core_sentence(text: str) -> str:
    """The leading sentence of `text`.

    A terminator counts only when followed by whitespace or the end of
    the string, and a terminator right after a single-letter word (an
    initial such as "J.") does not end the sentence. Text without any
    terminator is returned whole.
    """
    for i, ch in enumerate(text):
        if ch not in _TERMINATORS:
            continue
        if i + 1 < len(text) and not text[i + 1].isspace():
            continue
        # walk back over the word preceding the terminator
        j = i
        while j > 0 and text[j - 1].isalpha():
            j -= 1
        if i - j == 1:
            continue  # single-letter word: an initial, not a sentence end
        return text[: i + 1]
    return text


def assemble_global(selections: list[ViewSelection], w_fb: float) -> dict:
    """The record's global document, from all six view selections.

    The core sentence comes from the combined front/back text. The
    supplementary text is the highest-scoring side view (left, right,
    top, bottom); ties prefer the longest text, then canonical view
    order. The global score averages the front/back priority score with
    the supplementary view's score. `w_fb` and the selections, in
    VIEW_ORDER, are kept in the document so it can be replayed.
    """
    by_view = {s.view: s for s in selections}
    fb_text, fb_score = prioritize_front_back(selections, w_fb)
    core = extract_core_sentence(fb_text).strip()

    best = None
    for view in SIDE_VIEWS:
        s = by_view[view]
        if (
            best is None
            or s.score > best.score
            or (s.score == best.score and len(s.text) > len(best.text))
        ):
            best = s
    supplementary = best.text.strip()

    return {
        "core_sentence": core,
        "supplementary": supplementary,
        "full_text": f"{core} {supplementary}",
        "score_global": (fb_score + best.score) / 2.0,
        "w_fb": w_fb,
        "per_view": [
            {"view": v.value, "text": by_view[v].text, "score": by_view[v].score}
            for v in VIEW_ORDER
        ],
    }
