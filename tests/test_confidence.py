import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viewfuse.confidence import (
    compute_raw_confidence,
    normalize_confidence,
)
from viewfuse.errors import EmptyTokenList, NonFiniteLogprob


def test_raw_is_mean_absolute_logprob():
    assert compute_raw_confidence([-1.0, -2.0, -3.0]) == pytest.approx(2.0, abs=1e-12)


def test_raw_two_half_prob_tokens():
    lp = -math.log(2.0)
    assert compute_raw_confidence([lp, lp]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_raw_single_token():
    assert compute_raw_confidence([-0.25]) == pytest.approx(0.25, abs=1e-12)


def test_raw_zero_logprobs_allowed():
    # log P = 0 means the model was certain of every token
    assert compute_raw_confidence([0.0, 0.0]) == 0.0


def test_empty_token_list_rejected():
    with pytest.raises(EmptyTokenList):
        compute_raw_confidence([])


@pytest.mark.parametrize("bad", [0.5, 1.0, math.nan, math.inf, -math.inf])
def test_invalid_logprobs_rejected(bad):
    with pytest.raises(NonFiniteLogprob):
        compute_raw_confidence([-1.0, bad])


def test_normalize_is_exp_of_negated_raw():
    assert normalize_confidence(0.0) == 1.0
    assert normalize_confidence(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert normalize_confidence(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


logprob_lists = st.lists(
    st.floats(min_value=-50.0, max_value=0.0, allow_nan=False), min_size=1, max_size=40
)


@given(logprob_lists)
def test_raw_nonnegative_and_normalized_in_unit(lps):
    raw = compute_raw_confidence(lps)
    assert raw >= 0.0
    norm = normalize_confidence(raw)
    assert 0.0 < norm <= 1.0


@given(logprob_lists)
def test_raw_permutation_invariant(lps):
    assert compute_raw_confidence(lps) == pytest.approx(
        compute_raw_confidence(list(reversed(lps))), rel=1e-12
    )


@given(logprob_lists, st.floats(min_value=-50.0, max_value=0.0, allow_nan=False))
def test_adding_confident_token_never_raises_raw(lps, lp):
    # appending a token more probable than the current mean lowers the mean
    raw = compute_raw_confidence(lps)
    if abs(lp) <= raw:
        assert compute_raw_confidence(lps + [lp]) <= raw + 1e-12
