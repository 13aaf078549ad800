"""Schema-2 records, which kept each candidate's token logprobs, still replay."""

import hashlib
import json
from pathlib import Path

import pytest

from viewfuse.config import PipelineConfig
from viewfuse.demo import build_demo_corpus
from viewfuse.pipeline import build_providers, load_corpus_entries, record_to_json, replay_bandit
from viewfuse.pipeline import run_pipeline

# obj_000's record as schema 2 wrote it for build_demo_corpus(num_objects=4,
# seed=0, mismatched=[3]) under PipelineConfig(seed=42), the ucb1 default
V2_RECORD = Path(__file__).with_name("data") / "record_v2_ucb1_obj_000.json"
V2_RECORD_SHA256 = "8bb363802ee6527f3b2c74e34ef279930fa2ea1839edf6cc156c882e6cceb352"


@pytest.fixture(scope="module")
def v3_doc(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    build_demo_corpus(corpus, num_objects=4, seed=0, mismatched=[3])
    cfg = PipelineConfig(seed=42)
    [record, *_] = run_pipeline(
        load_corpus_entries(corpus, cfg)[0], cfg, build_providers(cfg, True, corpus)[0]
    )
    return json.loads(record_to_json(record))


def test_the_v2_fixture_is_the_record_schema_2_wrote():
    assert hashlib.sha256(V2_RECORD.read_bytes()).hexdigest() == V2_RECORD_SHA256


def test_a_v2_record_replays_as_its_v3_record_does(v3_doc):
    cfg = PipelineConfig(seed=42)
    v2_doc = json.loads(V2_RECORD.read_bytes())
    assert (v2_doc["schema_version"], v3_doc["schema_version"]) == (2, 3)
    assert v2_doc["object_id"] == v3_doc["object_id"] == "obj_000"
    assert list(v2_doc["views"]) == list(v3_doc["views"])
    assert len(v2_doc["views"]) == 6
    for view, v2_view in v2_doc["views"].items():
        rows = replay_bandit(v2_view, cfg, "obj_000")
        assert len(rows) == cfg.rounds
        assert rows == replay_bandit(v3_doc["views"][view], cfg, "obj_000")


def test_schema_3_drops_only_the_logprobs_and_adds_the_config_hash(v3_doc):
    v2_doc = json.loads(V2_RECORD.read_bytes())
    for view_doc in v2_doc["views"].values():
        for candidate in view_doc["candidates"]:
            del candidate["token_logprobs"]
    v3_doc = dict(v3_doc)
    del v3_doc["config_sha256"]
    assert {**v2_doc, "schema_version": 3} == v3_doc
