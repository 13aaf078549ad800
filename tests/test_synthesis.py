import pytest

from viewfuse.model import Viewpoint
from viewfuse.synthesis import (
    ViewSelection,
    assemble_global,
    extract_core_sentence,
    prioritize_front_back,
)


def sel(view, text, score):
    return ViewSelection(view=view, text=text, score=score)


def full_set(front=0.8, back=0.6, left=0.5, right=0.7, top=0.4, bottom=0.3):
    return [
        sel(Viewpoint.FRONT, "A blue kettle with a steel spout.", front),
        sel(Viewpoint.BACK, "The back shows a hinged lid.", back),
        sel(Viewpoint.LEFT, "Left side has a gauge.", left),
        sel(Viewpoint.RIGHT, "Right side has a long handle.", right),
        sel(Viewpoint.TOP, "Top reveals the lid knob.", top),
        sel(Viewpoint.BOTTOM, "Flat heated base.", bottom),
    ]


def test_front_back_concatenation_and_weighting():
    text, score = prioritize_front_back(full_set(), w_fb=1.2)
    assert text == "A blue kettle with a steel spout. The back shows a hinged lid."
    assert score == 1.2 * (0.8 + 0.6) / 2.0  # 0.84 needs no clamping


def test_front_back_score_clamped():
    _, score = prioritize_front_back(full_set(front=0.95, back=0.85), w_fb=1.2)
    assert score == 1.0  # 1.2 * 0.9 = 1.08 before clamping


def test_core_sentence_simple():
    assert extract_core_sentence("A red mug. It has a handle.") == "A red mug."


def test_core_sentence_question_and_exclamation():
    assert extract_core_sentence("Is it a vase? Probably.") == "Is it a vase?"
    assert extract_core_sentence("A drum! Loud one.") == "A drum!"


def test_core_sentence_initials_do_not_terminate():
    text = "Designed by J. Smith in model A. Extra detail follows."
    assert extract_core_sentence(text) == "Designed by J. Smith in model A. Extra detail follows."


def test_core_sentence_decimal_number_not_a_boundary():
    text = "A ruler about 3.5 cm wide. Metal body."
    assert extract_core_sentence(text) == "A ruler about 3.5 cm wide."


def test_core_sentence_without_terminator_returns_whole_text():
    assert extract_core_sentence("no terminal punctuation here") == (
        "no terminal punctuation here"
    )


def test_core_sentence_terminator_at_end_of_text():
    assert extract_core_sentence("Just one sentence.") == "Just one sentence."


def test_assemble_global_structure():
    selections = full_set()
    ga = assemble_global(selections, w_fb=1.2)
    assert ga["core_sentence"] == "A blue kettle with a steel spout."
    # right view wins among the four sides on score
    assert ga["supplementary"] == "Right side has a long handle."
    assert ga["full_text"] == f"{ga['core_sentence']} {ga['supplementary']}"
    fb_score = 1.2 * (0.8 + 0.6) / 2.0
    assert ga["score_global"] == pytest.approx((fb_score + 0.7) / 2.0, abs=1e-12)
    assert tuple(s["view"] for s in ga["per_view"]) == (
        "front", "back", "left", "right", "top", "bottom",
    )


def test_assemble_global_side_tie_prefers_longer_text():
    selections = full_set(left=0.7, right=0.7, top=0.1, bottom=0.1)
    ga = assemble_global(selections, w_fb=1.2)
    # equal score: the longer description carries more information
    assert ga["supplementary"] == "Right side has a long handle."


def test_assemble_global_full_tie_takes_view_order():
    selections = [
        sel(Viewpoint.FRONT, "Front text here.", 0.5),
        sel(Viewpoint.BACK, "Back text here.", 0.5),
        sel(Viewpoint.LEFT, "Same length AA.", 0.5),
        sel(Viewpoint.RIGHT, "Same length BB.", 0.5),
        sel(Viewpoint.TOP, "Same length CC.", 0.5),
        sel(Viewpoint.BOTTOM, "Same length DD.", 0.5),
    ]
    ga = assemble_global(selections, w_fb=1.2)
    assert ga["supplementary"] == "Same length AA."


def test_assemble_global_strips_core_before_joining():
    selections = full_set()
    selections[0] = sel(Viewpoint.FRONT, "A blue kettle.   Trailing detail.", 0.8)
    ga = assemble_global(selections, w_fb=1.2)
    assert ga["core_sentence"] == "A blue kettle."
    assert "  " not in ga["full_text"]
