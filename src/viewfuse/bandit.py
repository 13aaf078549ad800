"""Multi-armed bandit selection among canonical descriptions.

Each view's canonical candidates compete as arms. The default policy
is UCB1: pick the arm maximizing empirical mean plus an exploration
bonus, so uncertain arms get tried before the policy commits.
Epsilon-greedy and Thompson sampling are provided as alternates.
"""

import math
import random
from dataclasses import dataclass, field

from .errors import InvalidArm, NoArms


@dataclass
class BanditState:
    """Pull counts and empirical mean rewards for one view's arms."""

    arm_count: int
    pulls: list[int] = field(default_factory=list)
    means: list[float] = field(default_factory=list)
    total_rounds: int = 0
    exploration_weight: float = 0.5

    def __post_init__(self):
        if self.arm_count < 1:
            raise NoArms("arm_count must be >= 1")
        if not self.pulls:
            self.pulls = [0] * self.arm_count
        if not self.means:
            self.means = [0.0] * self.arm_count
        if len(self.pulls) != self.arm_count or len(self.means) != self.arm_count:
            raise InvalidArm("pulls/means length must equal arm_count")


def ucb1_select(state: BanditState) -> int:
    """Arm maximizing mean + c * sqrt(2 ln t / n).

    Unpulled arms take priority (their bonus is infinite), lowest index
    first; other ties also break to the lowest index. The round counter
    is treated as at least 1 so the logarithm is defined on round one.
    """
    for a in range(state.arm_count):
        if state.pulls[a] == 0:
            return a
    t = max(1, state.total_rounds)
    best_arm, best_value = 0, -math.inf
    for a in range(state.arm_count):
        bonus = state.exploration_weight * math.sqrt(2.0 * math.log(t) / state.pulls[a])
        value = state.means[a] + bonus
        if value > best_value:
            best_arm, best_value = a, value
    return best_arm


def update_mean(state: BanditState, arm: int, reward: float) -> None:
    """Fold one reward in [0, 1] into `arm`'s exact running mean."""
    if not 0 <= arm < state.arm_count:
        raise InvalidArm(f"arm {arm} outside [0, {state.arm_count})")
    state.pulls[arm] += 1
    n = state.pulls[arm]
    state.means[arm] = ((n - 1) * state.means[arm] + reward) / n
    state.total_rounds += 1


def epsilon_greedy_select(state: BanditState, epsilon: float, rng: random.Random) -> int:
    """With probability epsilon (in [0, 1]) explore uniformly, else exploit the best mean."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(state.arm_count)
    best_arm, best_mean = 0, -math.inf
    for a in range(state.arm_count):
        if state.means[a] > best_mean:
            best_arm, best_mean = a, state.means[a]
    return best_arm


@dataclass
class ThompsonState:
    """Per-arm Beta posteriors over a binarized reward."""

    arm_count: int
    prior_alpha: float = 0.1
    prior_beta: float = 1.0
    successes: list[float] = field(default_factory=list)
    failures: list[float] = field(default_factory=list)
    total_rounds: int = 0

    def __post_init__(self):
        if self.arm_count < 1:
            raise NoArms("arm_count must be >= 1")
        if self.prior_alpha <= 0 or self.prior_beta <= 0:
            raise ValueError("Beta priors must be positive")
        if not self.successes:
            self.successes = [0.0] * self.arm_count
        if not self.failures:
            self.failures = [0.0] * self.arm_count


def thompson_select(state: ThompsonState, rng: random.Random) -> int:
    """Sample each arm's posterior and pick the largest draw."""
    best_arm, best_draw = 0, -math.inf
    for a in range(state.arm_count):
        draw = rng.betavariate(
            state.prior_alpha + state.successes[a],
            state.prior_beta + state.failures[a],
        )
        if draw > best_draw:
            best_arm, best_draw = a, draw
    return best_arm


def thompson_update(state: ThompsonState, arm: int, reward: float, rng: random.Random) -> None:
    """Binarize the reward in [0, 1] by a Bernoulli draw and update the posterior."""
    if not 0 <= arm < state.arm_count:
        raise InvalidArm(f"arm {arm} outside [0, {state.arm_count})")
    outcome = 1.0 if rng.random() < reward else 0.0
    state.successes[arm] += outcome
    state.failures[arm] += 1.0 - outcome
    state.total_rounds += 1


def compute_reward(composite_score: float | None) -> float:
    """Reward for pulling a candidate: its stored composite score, which
    lies in [0, 1] as UCB1 requires (see `composite_score`)."""
    if composite_score is None:
        raise ValueError("candidate has no composite score; score canonical candidates first")
    return composite_score
