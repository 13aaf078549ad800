import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewfuse.bandit import (
    BanditState,
    RewardSignal,
    ThompsonState,
    compute_reward,
    epsilon_greedy_select,
    thompson_select,
    thompson_update,
    ucb1_select,
    update_mean,
)
from viewfuse.errors import InvalidArm, NoArms
from viewfuse.scoring import composite_score


def test_reward_signal_clamps_to_unit_interval():
    assert RewardSignal(1.7).value == 1.0
    assert RewardSignal(-0.3).value == 0.0
    assert RewardSignal(0.42).value == 0.42


def test_reward_signal_rejects_non_finite():
    with pytest.raises(ValueError):
        RewardSignal(math.nan)


def test_state_requires_at_least_one_arm():
    with pytest.raises(NoArms):
        BanditState(arm_count=0)


def test_unpulled_arms_selected_first_in_index_order():
    state = BanditState(arm_count=3)
    order = []
    for _ in range(3):
        arm = ucb1_select(state)
        order.append(arm)
        update_mean(state, arm, RewardSignal(0.5))
    assert order == [0, 1, 2]


def test_ucb1_worked_example():
    # n = [5, 1], means = [0.6, 0.5], t = 6, c = 0.5
    state = BanditState(
        arm_count=2, pulls=[5, 1], means=[0.6, 0.5], total_rounds=6,
        exploration_weight=0.5,
    )
    bonus0 = 0.6 + 0.5 * math.sqrt(2.0 * math.log(6.0) / 5.0)
    bonus1 = 0.5 + 0.5 * math.sqrt(2.0 * math.log(6.0) / 1.0)
    assert bonus0 == pytest.approx(1.0233, abs=1e-4)
    assert bonus1 == pytest.approx(1.4466, abs=1e-4)
    assert ucb1_select(state) == 1


def test_ucb1_tie_breaks_to_lowest_index():
    state = BanditState(arm_count=3, pulls=[2, 2, 2], means=[0.4, 0.4, 0.4], total_rounds=6)
    assert ucb1_select(state) == 0


def test_ucb1_first_round_uses_t_equal_one():
    # all arms pulled but zero completed rounds can only arise from a
    # hand-built state; the log argument must still be valid
    state = BanditState(arm_count=2, pulls=[1, 1], means=[0.2, 0.9], total_rounds=0)
    assert ucb1_select(state) == 1


def test_exploration_weight_zero_is_pure_greedy():
    state = BanditState(
        arm_count=2, pulls=[1, 100], means=[0.51, 0.5], total_rounds=101,
        exploration_weight=0.0,
    )
    assert ucb1_select(state) == 0


def test_update_mean_incremental_matches_direct_mean():
    state = BanditState(arm_count=1)
    rewards = [0.1, 0.9, 0.4, 0.7, 0.2]
    for r in rewards:
        update_mean(state, 0, RewardSignal(r))
    assert state.means[0] == pytest.approx(sum(rewards) / len(rewards), abs=1e-12)
    assert state.pulls[0] == len(rewards)
    assert state.total_rounds == len(rewards)


def test_update_mean_rejects_bad_arm():
    state = BanditState(arm_count=2)
    with pytest.raises(InvalidArm):
        update_mean(state, 2, RewardSignal(0.5))
    with pytest.raises(InvalidArm):
        update_mean(state, -1, RewardSignal(0.5))


def test_bookkeeping_matches_brute_force_replay():
    # the acceptance-level oracle at unit-test scale, one fixed sequence
    rng = random.Random(99)
    k = 4
    state = BanditState(arm_count=k)
    history = [[] for _ in range(k)]
    for _ in range(1_000):
        arm = rng.randrange(k)
        value = rng.random()
        update_mean(state, arm, RewardSignal(value))
        history[arm].append(value)
    for a in range(k):
        if history[a]:
            assert state.means[a] == pytest.approx(
                sum(history[a]) / len(history[a]), abs=1e-9
            )
        assert state.pulls[a] == len(history[a])
    assert sum(state.pulls) == state.total_rounds == 1_000


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(0, 1, allow_nan=False)),
        min_size=1,
        max_size=200,
    )
)
def test_bookkeeping_property(updates):
    state = BanditState(arm_count=4)
    history = [[] for _ in range(4)]
    for arm, value in updates:
        update_mean(state, arm, RewardSignal(value))
        history[arm].append(RewardSignal(value).value)
    for a in range(4):
        if history[a]:
            assert state.means[a] == pytest.approx(
                sum(history[a]) / len(history[a]), abs=1e-9
            )
    assert sum(state.pulls) == state.total_rounds == len(updates)


def test_epsilon_zero_always_exploits():
    state = BanditState(arm_count=3, pulls=[1, 1, 1], means=[0.1, 0.8, 0.3], total_rounds=3)
    rng = random.Random(0)
    assert all(epsilon_greedy_select(state, 0.0, rng) == 1 for _ in range(50))


def test_epsilon_one_always_explores_uniformly():
    state = BanditState(arm_count=3, pulls=[1, 1, 1], means=[0.1, 0.8, 0.3], total_rounds=3)
    rng = random.Random(7)
    picks = [epsilon_greedy_select(state, 1.0, rng) for _ in range(600)]
    for arm in range(3):
        assert picks.count(arm) > 120  # roughly uniform, not degenerate


def test_epsilon_greedy_deterministic_given_rng_seed():
    state = BanditState(arm_count=4, pulls=[1] * 4, means=[0.2, 0.9, 0.1, 0.4], total_rounds=4)
    a = [epsilon_greedy_select(state, 0.3, random.Random(11)) for _ in range(20)]
    b = [epsilon_greedy_select(state, 0.3, random.Random(11)) for _ in range(20)]
    assert a == b


def test_thompson_strongly_separated_posteriors():
    state = ThompsonState(arm_count=2)
    state.successes = [100.0, 1.0]
    state.failures = [1.0, 100.0]
    rng = random.Random(3)
    picks = [thompson_select(state, rng) for _ in range(10_000)]
    assert picks.count(0) / len(picks) > 0.99


def test_thompson_fresh_state_explores_all_arms():
    state = ThompsonState(arm_count=3)
    rng = random.Random(17)
    picks = [thompson_select(state, rng) for _ in range(3_000)]
    freqs = [picks.count(a) / len(picks) for a in range(3)]
    assert all(f > 0.15 for f in freqs)  # nothing starved under a flat prior


def test_thompson_update_binarizes_deterministically_at_extremes():
    state = ThompsonState(arm_count=1)
    rng = random.Random(0)
    for _ in range(20):
        thompson_update(state, 0, RewardSignal(1.0), rng)
    assert state.successes[0] == 20.0 + 0.0 and state.failures[0] == 0.0
    for _ in range(20):
        thompson_update(state, 0, RewardSignal(0.0), rng)
    assert state.failures[0] == 20.0
    assert state.total_rounds == 40


def test_thompson_priors_must_be_positive():
    with pytest.raises(ValueError):
        ThompsonState(arm_count=2, prior_alpha=0.0)


def _scored(conf, rel, blend_ratio):
    """The composite score a candidate's record document holds; None off the canonical set."""
    return None if rel is None else composite_score(conf, rel, blend_ratio)


def test_compute_reward_is_the_composite_blend():
    score = _scored(0.6, 0.9, blend_ratio=0.2)
    reward = compute_reward(score)
    assert reward.value == score
    assert reward.value == pytest.approx(0.66, abs=1e-12)


def test_compute_reward_requires_relevance():
    with pytest.raises(ValueError):
        compute_reward(_scored(0.6, None, blend_ratio=0.2))
