"""Seeded simulation harness comparing bandit strategies.

Two tools live here: a Bernoulli-environment regret benchmark for the
selection strategies, and a synthetic-corpus experiment contrasting
bandit-driven candidate selection with uniform-random picking. Both
are deterministic given their seeds; the CSV export deliberately
excludes wall-clock time so identical invocations produce identical
bytes (wall time is reported separately).
"""

import itertools
import random
import time
from dataclasses import dataclass

import numpy as np

from .bandit import RewardSignal
from .config import PipelineConfig
from .errors import EmptyInput, OutOfRangeArgument, UnknownStrategy
from .model import is_json_number_list
from .pipeline import most_pulled, pull_counts, run_bandit, stable_seed
from .scoring import composite_score

FINAL_WINDOW = 1_000
SELECTION_ARMS = 4  # candidates per synthetic object in selection_experiment


@dataclass(frozen=True)
class BernoulliEnv:
    """Arms paying 1 with probability means[a], else 0."""

    means: tuple[float, ...]

    def __post_init__(self):
        if not self.means:
            raise EmptyInput("environment needs at least one arm")
        for m in self.means:
            if not 0.0 <= m <= 1.0:
                raise OutOfRangeArgument(f"arm mean {m} outside [0, 1]")

    @property
    def best_arm(self) -> int:
        best = 0
        for a, m in enumerate(self.means):
            if m > self.means[best]:
                best = a
        return best

    @property
    def best_mean(self) -> float:
        return self.means[self.best_arm]


def _parse_means(raw) -> tuple[float, ...]:
    if not is_json_number_list(raw):
        raise OutOfRangeArgument(f"arm means must be a list of numbers, got {raw!r}")
    return tuple(map(float, raw))


def load_environment(doc) -> BernoulliEnv:
    """Accepts {"kind": "bernoulli", "means": [...]} or a bare list."""
    if isinstance(doc, list):
        return BernoulliEnv(means=_parse_means(doc))
    if isinstance(doc, dict):
        unknown = set(doc) - {"kind", "means"}
        if unknown:
            raise OutOfRangeArgument(f"unknown environment keys: {sorted(unknown)}")
        kind = doc.get("kind", "bernoulli")
        if kind != "bernoulli":
            raise UnknownStrategy(f"unsupported environment kind {kind!r}")
        return BernoulliEnv(means=_parse_means(doc.get("means", [])))
    raise OutOfRangeArgument("environment must be a list of means or an object")


@dataclass(frozen=True)
class StrategyRun:
    strategy: str
    seed: int
    rounds: int
    mean_reward: float
    final_regret: float
    regret_at: dict[int, float]
    best_arm: int
    best_arm_frequency: float
    wall_seconds: float


def _checkpoints(rounds: int) -> list[int]:
    return sorted({max(1, rounds // 10), rounds})


def run_strategy(
    env: BernoulliEnv,
    strategy: str,
    seed: int,
    rounds: int,
    *,
    exploration_weight: float = 0.5,
) -> StrategyRun:
    cfg = PipelineConfig(strategy=strategy, rounds=rounds, exploration_weight=exploration_weight)
    rng_env = random.Random(stable_seed("sim-env", seed))
    rng_policy = random.Random(stable_seed("sim-policy", strategy, seed))
    best_arm, best_mean = env.best_arm, env.best_mean

    def payout(arm: int) -> RewardSignal:
        return RewardSignal(1.0 if rng_env.random() < env.means[arm] else 0.0)

    started = time.perf_counter()
    history = run_bandit(cfg, payout, len(env.means), rng_policy)
    wall = time.perf_counter() - started
    regret = list(itertools.accumulate(best_mean - env.means[arm] for arm, _ in history))
    window = history[max(0, rounds - FINAL_WINDOW):]

    return StrategyRun(
        strategy=strategy,
        seed=seed,
        rounds=rounds,
        mean_reward=sum(value for _, value in history) / rounds,
        final_regret=regret[-1],
        regret_at={t: regret[t - 1] for t in _checkpoints(rounds)},
        best_arm=best_arm,
        best_arm_frequency=sum(arm == best_arm for arm, _ in window) / len(window),
        wall_seconds=wall,
    )


def simulate_strategies(
    env: BernoulliEnv,
    strategies: list[str],
    seeds: list[int],
    rounds: int = 10_000,
) -> list[StrategyRun]:
    """Every (strategy, seed) pair, in the given order."""
    return [run_strategy(env, s, seed, rounds) for s in strategies for seed in seeds]


def runs_to_csv(runs: list[StrategyRun]) -> str:
    """Deterministic CSV of one or more runs: no wall time, full float precision."""
    checkpoints = sorted(runs[0].regret_at)
    header = [
        "strategy",
        "seed",
        "rounds",
        "mean_reward",
        "final_regret",
        "best_arm",
        "best_arm_frequency",
    ] + [f"regret_at_{c}" for c in checkpoints]
    lines = [",".join(header)]
    for r in runs:
        row = [
            r.strategy,
            str(r.seed),
            str(r.rounds),
            repr(r.mean_reward),
            repr(r.final_regret),
            str(r.best_arm),
            repr(r.best_arm_frequency),
        ] + [repr(r.regret_at.get(c, r.final_regret)) for c in checkpoints]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summarize(runs: list[StrategyRun]) -> dict:
    """Per-strategy aggregates over seeds."""
    out: dict[str, dict] = {}
    for r in runs:
        agg = out.setdefault(
            r.strategy,
            {"seeds": 0, "mean_reward": 0.0, "final_regret": 0.0,
             "best_arm_frequency": 0.0, "wall_seconds": 0.0},
        )
        agg["seeds"] += 1
        agg["mean_reward"] += r.mean_reward
        agg["final_regret"] += r.final_regret
        agg["best_arm_frequency"] += r.best_arm_frequency
        agg["wall_seconds"] += r.wall_seconds
    for agg in out.values():
        n = agg["seeds"]
        for key in ("mean_reward", "final_regret", "best_arm_frequency"):
            agg[key] /= n
    return out


def selection_experiment(num_objects: int = 1_000, seeds: range | list[int] = range(20)) -> dict:
    """Bandit-picked vs uniformly-picked candidates on synthetic scores.

    Each synthetic object gets SELECTION_ARMS candidates with drawn
    confidence and relevance; both selectors see identical composite
    scores, blended with the default `blend_ratio`. The bandit runs the
    engine's own loop, `pipeline.run_bandit`, with UCB1 at the default
    rounds and exploration weight and deterministic rewards, and keeps
    its most-pulled arm.
    """
    cfg = PipelineConfig(strategy="ucb1")
    per_seed = []
    for seed in seeds:
        draw = np.random.default_rng(stable_seed("selection-exp", seed))
        uniform_rng = random.Random(stable_seed("selection-uniform", seed))
        policy_rng = random.Random(stable_seed("selection-policy", seed))  # UCB1 draws none
        bandit_total = 0.0
        uniform_total = 0.0
        for _ in range(num_objects):
            confs = draw.uniform(0.2, 0.95, size=SELECTION_ARMS)
            raw_rel = draw.uniform(0.0, 1.0, size=SELECTION_ARMS)
            rel = np.exp(raw_rel) / np.exp(raw_rel).sum()
            scores = [
                composite_score(float(confs[a]), float(rel[a]), cfg.blend_ratio)
                for a in range(SELECTION_ARMS)
            ]
            rewards = [RewardSignal(score) for score in scores]
            history = run_bandit(cfg, rewards.__getitem__, SELECTION_ARMS, policy_rng)
            chosen = most_pulled(pull_counts(history, SELECTION_ARMS))
            bandit_total += scores[chosen]
            uniform_total += scores[uniform_rng.randrange(SELECTION_ARMS)]
        per_seed.append(
            {
                "seed": int(seed),
                "bandit_mean": bandit_total / num_objects,
                "uniform_mean": uniform_total / num_objects,
                "improvement": (bandit_total - uniform_total) / num_objects,
            }
        )
    improvements = [row["improvement"] for row in per_seed]
    return {
        "num_objects": num_objects,
        "seeds": len(per_seed),
        "per_seed": per_seed,
        "mean_improvement": sum(improvements) / len(improvements),
        "min_improvement": min(improvements),
        "all_positive": all(v > 0.0 for v in improvements),
    }
