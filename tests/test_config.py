import json
import math
from dataclasses import fields

import pytest

from viewfuse.config import UNHASHED_FIELDS, PipelineConfig, config_sha256
from viewfuse.errors import ConfigError


def test_defaults_are_valid_and_documented_values():
    cfg = PipelineConfig()
    assert cfg.blend_ratio == 0.2
    assert cfg.gate_threshold == 0.557
    assert cfg.eps == 0.15
    assert cfg.min_pts == 2
    assert cfg.strategy == "ucb1"
    assert cfg.exploration_weight == 0.5
    assert cfg.rounds == 50
    assert cfg.num_candidates == 5
    assert cfg.temperature == 0.7
    assert cfg.w_fb == 1.2


def test_from_dict_empty_uses_defaults():
    assert PipelineConfig.from_dict({}) == PipelineConfig()


def test_from_dict_overrides():
    cfg = PipelineConfig.from_dict({"blend_ratio": 0.5, "strategy": "thompson", "workers": 4})
    assert cfg.blend_ratio == 0.5
    assert cfg.strategy == "thompson"
    assert cfg.workers == 4


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        PipelineConfig.from_dict({"blend_ratios": 0.5})
    assert "blend_ratios" in str(err.value)
    # removed options fail loudly rather than being ignored
    for removed in ({"use_ema_update": True}, {"ema_rate": 0.1}):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict(removed)


@pytest.mark.parametrize(
    "doc",
    [
        {"blend_ratio": 1.5},
        {"blend_ratio": -0.1},
        {"gate_threshold": 0.0},
        {"gate_threshold": 1.0},
        {"eps": 0.0},
        {"eps": 2.5},
        {"min_pts": 0},
        {"strategy": "greedy"},
        {"rounds": 0},
        {"epsilon": 1.5},
        {"thompson_prior_alpha": 0.0},
        {"thompson_prior_beta": 0.0},
        {"num_candidates": 0},
        {"temperature": -0.1},
        {"w_fb": 0.5},
        {"point_budget": 0},
        {"workers": 0},
        # no range bounds these from above, so the finiteness check does
        {"exploration_weight": math.inf},
        {"temperature": math.inf},
    ],
)
def test_out_of_range_values_rejected(doc):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"rounds": "50"},
        {"rounds": True},
        {"blend_ratio": "0.2"},
        {"strategy": 7},
        {"seed": 1.5},
        {"providers": []},
        {"cache_dir": 5},
        [],  # the root itself
    ],
)
def test_wrong_types_rejected(doc):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(doc)


def test_integer_accepted_for_float_field():
    assert PipelineConfig.from_dict({"temperature": 1}).temperature == 1.0


def test_provider_roles_validated():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"providers": {"describe": {}}})
    cfg = PipelineConfig.from_dict(
        {"providers": {"generate": {"endpoint": "https://x", "request_template": {}}}}
    )
    assert "generate" in cfg.providers


def test_from_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "gate_threshold": 0.6}))
    cfg = PipelineConfig.from_file(path)
    assert cfg.seed == 7
    assert cfg.gate_threshold == 0.6


def test_from_file_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(path)


def test_from_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(tmp_path / "absent.json")


def test_to_dict_roundtrips():
    cfg = PipelineConfig.from_dict({"seed": 3, "strategy": "epsilon_greedy", "epsilon": 0.2})
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


# one valid value other than the default for each field a record depends on
ENGINE_FIELD_CHANGES = {
    "blend_ratio": 0.3,
    "gate_threshold": 0.6,
    "eps": 0.2,
    "min_pts": 3,
    "strategy": "thompson",
    "exploration_weight": 0.7,
    "rounds": 51,
    "seed": 1,
    "epsilon": 0.2,
    "thompson_prior_alpha": 0.2,
    "thompson_prior_beta": 2.0,
    "num_candidates": 6,
    "temperature": 0.8,
    "w_fb": 1.3,
    "point_budget": 9_999,
}


def test_config_sha256_of_the_defaults_is_pinned():
    assert config_sha256(PipelineConfig()) == (
        "5f6200a066e275b39ca8a1b3390eabd75278ad38af7b3b9e048b0a9ce1d04808"
    )


def test_every_field_is_either_hashed_or_named_unhashed():
    names = {f.name for f in fields(PipelineConfig)}
    assert set(ENGINE_FIELD_CHANGES) == names - set(UNHASHED_FIELDS)
    assert len(ENGINE_FIELD_CHANGES) == 15


@pytest.mark.parametrize("name", sorted(ENGINE_FIELD_CHANGES))
def test_changing_an_engine_field_changes_config_sha256(name):
    changed = PipelineConfig(**{name: ENGINE_FIELD_CHANGES[name]})
    assert config_sha256(changed) != config_sha256(PipelineConfig())


@pytest.mark.parametrize("changes", [
    {"workers": 4},
    {"cache_dir": "cache"},
    {"providers": {"generate": {"url": "http://127.0.0.1:1/generate"}}},
])
def test_workers_cache_dir_and_providers_do_not_change_config_sha256(changes):
    assert config_sha256(PipelineConfig(**changes)) == config_sha256(PipelineConfig())
