"""Pipeline configuration: one documented JSON file, strictly validated.

Unknown keys are rejected so typos fail loudly instead of silently
running with defaults.
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, ParseError
from .model import is_json_number, parse_json, read_bytes

STRATEGIES = ("ucb1", "epsilon_greedy", "thompson")
PROVIDER_ROLES = ("generate", "embed_text", "embed_image", "embed_cloud")

# what a config file may give for a field of each annotated type, and
# how the error names it
_FIELD_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (is_json_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    str | None: (lambda v: v is None or isinstance(v, str), "a string or null"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def typed_fields(cls, doc: dict, what: str) -> dict:
    """The fields of dataclass `cls` that `doc` gives, each checked
    against its annotation, with numbers for float fields as floats.

    A key that is not a field raises ConfigError naming `what`, and so
    does a value of the wrong type, naming its field.
    """
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    typed = {}
    for f in fields(cls):
        if f.name not in doc:
            continue
        value = doc[f.name]
        accepts, kind = _FIELD_TYPES[f.type]
        if not accepts(value):
            raise ConfigError(f"{f.name} must be {kind}")
        typed[f.name] = float(value) if f.type is float else value
    return typed


@dataclass
class PipelineConfig:
    blend_ratio: float = 0.2
    gate_threshold: float = 0.557
    eps: float = 0.15
    min_pts: int = 2
    strategy: str = "ucb1"
    exploration_weight: float = 0.5
    rounds: int = 50
    seed: int = 0
    epsilon: float = 0.1
    thompson_prior_alpha: float = 0.1
    thompson_prior_beta: float = 1.0
    num_candidates: int = 5
    temperature: float = 0.7
    w_fb: float = 1.2
    point_budget: int = 10_000
    workers: int = 1
    cache_dir: str | None = None
    providers: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        typed_fields(type(self), self.to_dict(), "config")
        checks = [
            (0.0 <= self.blend_ratio <= 1.0, "blend_ratio must be in [0, 1]"),
            (0.0 < self.gate_threshold < 1.0, "gate_threshold must be in (0, 1)"),
            (0.0 < self.eps <= 2.0, "eps must be in (0, 2]"),
            (self.min_pts >= 1, "min_pts must be >= 1"),
            (self.strategy in STRATEGIES, f"strategy must be one of {STRATEGIES}"),
            (self.exploration_weight >= 0.0, "exploration_weight must be >= 0"),
            (self.rounds >= 1, "rounds must be >= 1"),
            (0.0 <= self.epsilon <= 1.0, "epsilon must be in [0, 1]"),
            (self.thompson_prior_alpha > 0.0, "thompson_prior_alpha must be > 0"),
            (self.thompson_prior_beta > 0.0, "thompson_prior_beta must be > 0"),
            (self.num_candidates >= 1, "num_candidates must be >= 1"),
            (self.temperature >= 0.0, "temperature must be >= 0"),
            (self.w_fb >= 1.0, "w_fb must be >= 1"),
            (self.point_budget >= 1, "point_budget must be >= 1"),
            (self.workers >= 1, "workers must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        unknown_roles = set(self.providers) - set(PROVIDER_ROLES)
        if unknown_roles:
            raise ConfigError(f"unknown provider roles: {sorted(unknown_roles)}")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls(**typed_fields(cls, doc, "config"))

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        what = f"config file {path}"
        try:
            doc = parse_json(read_bytes(Path(path), what), what)
        except ParseError as e:
            raise ConfigError(str(e)) from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
