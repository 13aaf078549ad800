import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_emb
from viewfuse.scoring import composite_score, relevance_weights


def test_two_candidate_opposed_directions(mk):
    # cosines 1 and -1: softmax gives e/(e + 1/e)
    w = relevance_weights(mk(1, 0), [mk(2, 0), mk(-2, 0)])
    assert w[0] == pytest.approx(0.8808, abs=1e-4)
    assert w[1] == pytest.approx(0.1192, abs=1e-4)


def test_weights_sum_to_one(mk):
    w = relevance_weights(mk(1, 1), [mk(1, 0), mk(0, 1), mk(-1, 2), mk(3, 1)])
    assert sum(w) == pytest.approx(1.0, abs=1e-9)


def test_equal_cosines_give_uniform_weights(mk):
    w = relevance_weights(mk(1, 0), [mk(5, 0), mk(2, 0), mk(1, 0)])
    assert all(v == pytest.approx(1.0 / 3.0, abs=1e-12) for v in w)


def test_single_candidate_gets_weight_one(mk):
    assert relevance_weights(mk(1, 0), [mk(0, 1)]) == (1.0,)


def test_better_aligned_candidate_outweighs(mk):
    w = relevance_weights(mk(1, 0), [mk(1, 0.1), mk(0.1, 1)])
    assert w[0] > w[1]


def test_softmax_stable_for_extreme_vectors():
    # identical directions at wildly different magnitudes: cosines all 1
    big = make_emb(1e150, 0.0)
    w = relevance_weights(big, [big, make_emb(1e-150, 0.0)])
    assert w[0] == pytest.approx(0.5, abs=1e-9)
    assert not any(math.isnan(v) for v in w)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
        ).filter(lambda t: t[0] ** 2 + t[1] ** 2 > 1e-6),
        min_size=1,
        max_size=10,
    )
)
def test_weights_always_normalized_and_positive(rows):
    w = relevance_weights(make_emb(1, 0.5), [make_emb(*r) for r in rows])
    assert sum(w) == pytest.approx(1.0, abs=1e-9)
    assert all(v > 0.0 for v in w)


def test_composite_midpoint_blend():
    assert composite_score(0.6, 0.9, 0.2) == pytest.approx(0.66, abs=1e-12)


def test_composite_blend_zero_returns_confidence_exactly():
    conf = 0.1 + 0.2  # 0.30000000000000004, not representable as 0.3
    assert composite_score(conf, 0.987654321, 0.0) == conf


def test_composite_blend_one_returns_relevance_exactly():
    rel = 1.0 / 3.0
    assert composite_score(0.987654321, rel, 1.0) == rel


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_composite_stays_between_its_inputs(conf, rel, blend):
    s = composite_score(conf, rel, blend)
    lo, hi = min(conf, rel), max(conf, rel)
    assert lo - 1e-12 <= s <= hi + 1e-12


def test_composite_monotone_in_confidence():
    scores = [composite_score(c, 0.5, 0.2) for c in np.linspace(0, 1, 11)]
    assert scores == sorted(scores)
    assert scores[0] < scores[-1]
