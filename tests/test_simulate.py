import hashlib
import json

import pytest

from viewfuse.config import STRATEGIES
from viewfuse.errors import ConfigError, EmptyInput, OutOfRangeArgument, UnknownStrategy
from viewfuse.simulate import (
    BernoulliEnv,
    load_environment,
    run_strategy,
    runs_to_csv,
    selection_experiment,
    simulate_strategies,
    summarize,
)


def test_environment_validation():
    env = BernoulliEnv((0.2, 0.9, 0.9))
    assert env.best_arm == 1  # first index wins ties
    assert env.best_mean == 0.9
    with pytest.raises(EmptyInput):
        BernoulliEnv(())
    with pytest.raises(OutOfRangeArgument):
        BernoulliEnv((0.5, 1.2))
    with pytest.raises(OutOfRangeArgument):
        BernoulliEnv((-0.1,))


def test_load_environment_accepts_bare_list_and_mapping():
    assert load_environment([0.1, 0.9]).means == (0.1, 0.9)
    assert load_environment({"kind": "bernoulli", "means": [0.3, 0.4]}).means == (0.3, 0.4)
    with pytest.raises(UnknownStrategy):
        load_environment({"kind": "gaussian", "means": [0.1]})
    with pytest.raises(OutOfRangeArgument):
        load_environment({"means": "oops"})
    with pytest.raises(OutOfRangeArgument):
        load_environment("oops")


def test_single_arm_environment_has_zero_regret():
    env = BernoulliEnv((0.5,))
    for strategy in ("ucb1", "epsilon_greedy", "thompson"):
        run = run_strategy(env, strategy, seed=0, rounds=500)
        assert run.final_regret == 0.0
        assert run.best_arm_frequency == 1.0


def test_runs_are_reproducible():
    env = BernoulliEnv((0.9, 0.5, 0.2))
    runs_a = simulate_strategies(env, ["ucb1", "thompson"], seeds=[0, 1], rounds=300)
    runs_b = simulate_strategies(env, ["ucb1", "thompson"], seeds=[0, 1], rounds=300)
    assert runs_to_csv(runs_a) == runs_to_csv(runs_b)


def test_environment_stream_is_shared_across_strategies():
    # Same seed means the same environment randomness, so strategy
    # comparisons are paired rather than confounded by luck.
    env = BernoulliEnv((0.9, 0.1))
    a = run_strategy(env, "ucb1", seed=5, rounds=200)
    b = run_strategy(env, "epsilon_greedy", seed=5, rounds=200)
    assert a.seed == b.seed
    assert a.strategy != b.strategy


def test_unknown_strategy_rejected():
    # each run's PipelineConfig is the check
    env = BernoulliEnv((0.5, 0.6))
    with pytest.raises(ConfigError, match="strategy"):
        simulate_strategies(env, ["ucb1", "sarsa"], seeds=[0], rounds=10)
    with pytest.raises(ConfigError, match="rounds"):
        run_strategy(env, "ucb1", seed=0, rounds=0)


def test_csv_shape_and_determinism():
    env = BernoulliEnv((0.8, 0.4))
    runs = simulate_strategies(env, ["ucb1"], seeds=[0, 1], rounds=100)
    lines = runs_to_csv(runs).strip().splitlines()
    header = lines[0].split(",")
    assert header[:7] == [
        "strategy", "seed", "rounds", "mean_reward",
        "final_regret", "best_arm", "best_arm_frequency",
    ]
    assert all(col.startswith("regret_at_") for col in header[7:])
    assert len(lines) == 3
    # wall time never leaks into the deterministic export
    assert "wall" not in runs_to_csv(runs)


def test_checkpoints_cover_tenth_and_final_round():
    env = BernoulliEnv((0.7, 0.2))
    run = run_strategy(env, "ucb1", seed=0, rounds=1000)
    assert 100 in run.regret_at
    assert 1000 in run.regret_at
    assert run.regret_at[1000] == run.final_regret
    assert run.regret_at[100] <= run.final_regret


def test_ucb1_finds_best_arm_quickly():
    env = BernoulliEnv((0.9, 0.6, 0.5, 0.4, 0.3))
    run = run_strategy(env, "ucb1", seed=0, rounds=3000, exploration_weight=0.5)
    assert run.best_arm == 0
    assert run.best_arm_frequency > 0.8
    assert run.final_regret < 0.1 * run.rounds


def test_summarize_aggregates_per_strategy():
    env = BernoulliEnv((0.9, 0.3))
    runs = simulate_strategies(env, ["ucb1", "thompson"], seeds=[0, 1, 2], rounds=200)
    table = summarize(runs)
    assert set(table) == {"ucb1", "thompson"}
    for row in table.values():
        assert row["seeds"] == 3
        assert 0.0 <= row["best_arm_frequency"] <= 1.0
        assert row["final_regret"] >= 0.0
        assert row["wall_seconds"] >= 0.0


def test_selection_experiment_beats_uniform_on_small_sample():
    result = selection_experiment(num_objects=50, seeds=range(3))
    assert result["num_objects"] == 50
    assert len(result["per_seed"]) == 3
    assert result["all_positive"]
    assert result["min_improvement"] > 0.0
    assert result["mean_improvement"] >= result["min_improvement"]


def test_selection_experiment_is_deterministic():
    a = selection_experiment(num_objects=20, seeds=[0, 1])
    b = selection_experiment(num_objects=20, seeds=[0, 1])
    assert a == b


# Digests of outputs that must not move when the bandit loop is
# restructured: a change in the order of RNG draws changes them, while
# the reproducibility tests above would still pass.
PINNED_CSV_SHA256 = {
    (0.9, 0.6, 0.5, 0.4, 0.3): "03e327649a2af20aa75bc58f0241a4f7a5ffd9c8ba880a48b1e0a5ebfbac0c7b",
    (0.5,): "fe14b739efcdc67dd335d2655855458c64c69004db24849c319e5d62d8ae1523",
}


@pytest.mark.parametrize("means", list(PINNED_CSV_SHA256))
def test_simulation_csv_is_pinned(means):
    runs = simulate_strategies(BernoulliEnv(means), list(STRATEGIES), seeds=[0, 1, 2], rounds=3000)
    digest = hashlib.sha256(runs_to_csv(runs).encode("utf-8")).hexdigest()
    assert digest == PINNED_CSV_SHA256[means]


def test_selection_experiment_is_pinned():
    result = selection_experiment(num_objects=200, seeds=range(5))
    assert result["mean_improvement"] == 0.17819922048541875
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == "f8d4a6bae8a5428196b2e7e21d2baf32ef8d978e21216072a3fcbae9a97efa54"
