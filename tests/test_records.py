"""Record files: schema 2 layout, trace replay, ids and crash safety."""

import hashlib
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

import viewfuse.pipeline as pipeline
from viewfuse.config import PipelineConfig
from viewfuse.demo import build_demo_corpus
from viewfuse.errors import ConfigError, ParseError
from viewfuse.model import FAILURE_KEY_PREFIX, ingest_manifest
from viewfuse.pipeline import (
    RECORD_SCHEMA_VERSION,
    build_providers,
    load_corpus_entries,
    record_to_json,
    replay_bandit,
    run_corpus,
    run_pipeline,
)
from viewfuse.providers.mock import build_mock_providers


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    build_demo_corpus(root, num_objects=4, seed=0, mismatched=[3])
    return root


def record_files(out_dir):
    return sorted(p.name for p in (out_dir / "records").iterdir())


def read_records(out_dir):
    return {p.name: p.read_bytes() for p in sorted((out_dir / "records").iterdir())}


# ---- duplicate ids and failure keys ------------------------------------------


def test_duplicate_object_ids_each_become_a_failed_record(tmp_path):
    corpus_dir, out_dir = tmp_path / "corpus", tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=4, seed=0)
    doc = json.loads((corpus_dir / "obj_001.json").read_text())
    (corpus_dir / "obj_001_copy.json").write_text(json.dumps(doc))

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["objects"], summary["ok"], summary["failed"]) == (5, 3, 2)
    names = record_files(out_dir)
    assert len(names) == summary["objects"]
    assert names == ["@obj_001.json", "@obj_001_copy.json",
                     "obj_000.json", "obj_002.json", "obj_003.json"]
    for stem in ("obj_001", "obj_001_copy"):
        failed = json.loads((out_dir / "records" / f"@{stem}.json").read_text())
        assert failed["object_id"] == f"@{stem}"
        assert failed["status"] == "failed"
        assert failed["error"] == (
            "DuplicateObjectId: object_id 'obj_001' is claimed by 2 manifests: "
            "obj_001.json, obj_001_copy.json"
        )


def test_failure_keyed_by_stem_cannot_collide_with_an_accepted_id(tmp_path):
    corpus_dir, out_dir = tmp_path / "corpus", tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=2, seed=0)
    (corpus_dir / "obj_zz.json").write_text("{not json")
    # a valid manifest whose id is the broken file's stem
    doc = json.loads((corpus_dir / "obj_001.json").read_text())
    doc["object_id"] = "obj_zz"
    (corpus_dir / "obj_001.json").write_text(json.dumps(doc))

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["objects"], summary["ok"], summary["failed"]) == (3, 2, 1)
    assert record_files(out_dir) == ["@obj_zz.json", "obj_000.json", "obj_zz.json"]
    assert json.loads((out_dir / "records" / "obj_zz.json").read_text())["status"] == "ok"
    failed = json.loads((out_dir / "records" / "@obj_zz.json").read_text())
    assert failed["error"].startswith("ParseError: manifest is not valid JSON")


def test_ids_with_the_failure_prefix_are_rejected(tmp_path):
    build_demo_corpus(tmp_path, num_objects=1, seed=0)
    path = tmp_path / "obj_000.json"
    doc = json.loads(path.read_text())
    doc["object_id"] = f"{FAILURE_KEY_PREFIX}obj_000"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="reserved for failure records"):
        ingest_manifest(path)
    manifests, failures = load_corpus_entries(tmp_path, PipelineConfig())
    assert manifests == []
    assert [f.object_id for f in failures] == ["@obj_000"]


# ---- schema 2 layout and replay -------------------------------------------------


def test_v2_record_is_compact_with_no_trace(corpus):
    cfg = PipelineConfig(seed=42)
    [record, *_] = run_pipeline(
        load_corpus_entries(corpus, cfg)[0], cfg, build_providers(cfg, True, corpus)[0]
    )
    text = record_to_json(record)
    doc = json.loads(text)

    assert RECORD_SCHEMA_VERSION == 2
    assert doc["schema_version"] == 2
    assert text.index("\n") == len(text) - 1
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    for view, view_doc in doc["views"].items():
        assert view_doc["view"] == view
        assert sorted(view_doc["bandit"]) == [
            "arm_candidate_indices", "pulls", "rounds", "selected_candidate_index", "strategy",
        ]


# sha256 of every view's replayed trace on the module's 4-object corpus
# (seed 42, 30 rounds), as a JSON list of [object_id, view, rows]; taken
# when the engine still kept the trace in memory and equal to it there
REPLAYED_TRACES_SHA256 = {
    "ucb1": "47c3773db808d221c9816d3b0c23485f074477fdf0811b2c2381a007bfb09707",
    "epsilon_greedy": "7fe9c2f2b13dd032bb1826b78e30ede330cc0a1168fc27d97af2ff74a5dd31ee",
    "thompson": "adff38279eeb5ffba3ad551c33df080b10e602a8acaf2357a13af4960be3a2c3",
}


# sha256 of every record file of the module's 4-object corpus (seed 42,
# default rounds), per strategy
RECORD_FILES_SHA256 = {
    "ucb1": {
        "obj_000.json": "37d23d81e0da9191499256dd7cf2d795afa8fd177991853e9723ba781a3113a2",
        "obj_001.json": "57ffbc8e1ecdfbba7be142b316d64b43e73aed1582da17c1b78c06418d6a9623",
        "obj_002.json": "05704e2d151f654ccf5d06f3622e06d617bbc073e35ac13faf9195b764c2654c",
        "obj_003.json": "482ace6a9df83724d7613471fe83389afdf4d7f1e34249a70d7fce4953505aff",
    },
    "epsilon_greedy": {
        "obj_000.json": "2d6680d87481709ca3f1a469dec3424c9ecbfd788ef0280d4e88efa0023e966e",
        "obj_001.json": "3e5c8c64d3b8626637bf8ab652d481232ef4c33a138223789fb74285a740edc3",
        "obj_002.json": "8ac81932746b2037b4be7c1e21a11905a420773f3af4174052a0ff3870a2e059",
        "obj_003.json": "8f5c107c21a4ddce649c6d400558c7429ac582c07ffc91f36ee682c69e29c465",
    },
    "thompson": {
        "obj_000.json": "be51035633daa62e1b7d2d8b615111fef61590fea92b19ed616cdde5f69d8cad",
        "obj_001.json": "1d48e5d68739594235777cc0e29e2e73a9fb6bf45395b368c493722b2d591638",
        "obj_002.json": "96746a6a68a87759c2af99112746c937153f11d61ba2899079e380b948362927",
        "obj_003.json": "962b076acdf5bb542bbad3b66c07faa597ddefb0de32db21a18cb34465f9ab0c",
    },
}


@pytest.mark.parametrize("strategy", ["ucb1", "epsilon_greedy", "thompson"])
def test_record_files_are_pinned(corpus, tmp_path, strategy):
    out_dir = tmp_path / "out"
    run_corpus(corpus, PipelineConfig(seed=42, strategy=strategy), mock=True, out_dir=out_dir)
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in read_records(out_dir).items()}
    assert digests == RECORD_FILES_SHA256[strategy]


@pytest.mark.parametrize("strategy", ["ucb1", "epsilon_greedy", "thompson"])
def test_replay_rebuilds_the_in_memory_trace(corpus, tmp_path, strategy):
    cfg = PipelineConfig(seed=42, strategy=strategy, rounds=30)
    out_dir = tmp_path / "out"
    run_corpus(corpus, cfg, mock=True, out_dir=out_dir)

    replays = []
    for path in sorted((out_dir / "records").iterdir()):
        doc = json.loads(path.read_text())
        for view, view_doc in doc["views"].items():
            rows = replay_bandit(view_doc, cfg, doc["object_id"])
            bandit = view_doc["bandit"]
            assert [row["round"] for row in rows] == list(range(1, cfg.rounds + 1))
            counts = Counter(row["arm"] for row in rows)
            assert [counts[a] for a in range(len(bandit["pulls"]))] == bandit["pulls"]
            for row in rows:
                assert row["candidate_index"] == bandit["arm_candidate_indices"][row["arm"]]
            replays.append([doc["object_id"], view, rows])

    assert len(replays) == 4 * 6
    digest = hashlib.sha256(json.dumps(replays, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == REPLAYED_TRACES_SHA256[strategy]


def test_replay_refuses_a_config_the_record_was_not_made_with(corpus):
    cfg = PipelineConfig(seed=42, strategy="thompson")
    [record, *_] = run_pipeline(
        load_corpus_entries(corpus, cfg)[0], cfg, build_providers(cfg, True, corpus)[0]
    )
    view_doc = json.loads(record_to_json(record))["views"]["front"]
    assert replay_bandit(view_doc, cfg, record.object_id) == [
        {"round": r, "arm": 0, "candidate_index": 0, "reward": 0.8911485385276865}
        for r in range(1, cfg.rounds + 1)
    ]
    for other in (replace(cfg, rounds=49), replace(cfg, strategy="ucb1")):
        with pytest.raises(ConfigError, match="not made with this configuration"):
            replay_bandit(view_doc, other, record.object_id)


# ---- streamed, crash-safe writes ------------------------------------------------


class Boom(Exception):
    """Not an EngineError, so it aborts the run."""


def failing_generator_for(monkeypatch, object_id):
    def providers(seed, truth):
        mocks = build_mock_providers(seed=seed, truth=truth)
        generate_views = mocks.generator.generate_views

        def generate_or_fail(items, cfg):
            if any(f"__{object_id}__" in ref for _view, ref in items):
                raise Boom(object_id)
            return generate_views(items, cfg)

        mocks.generator.generate_views = generate_or_fail
        return mocks

    monkeypatch.setattr(pipeline, "build_mock_providers", providers)


@pytest.mark.parametrize("workers", [1, 2])
def test_records_finished_before_an_abort_are_on_disk(corpus, tmp_path, monkeypatch, workers):
    out_dir = tmp_path / "out"
    failing_generator_for(monkeypatch, "obj_002")
    with pytest.raises(Boom):
        run_corpus(corpus, PipelineConfig(seed=42, workers=workers), mock=True, out_dir=out_dir)

    assert sorted(p.name for p in out_dir.iterdir()) == ["records"]
    assert record_files(out_dir) == ["obj_000.json", "obj_001.json"]
    reference = tmp_path / "reference"
    monkeypatch.undo()
    run_corpus(corpus, PipelineConfig(seed=42), mock=True, out_dir=reference)
    for name, blob in read_records(out_dir).items():
        assert json.loads(blob)["status"] == "ok"
        assert blob == (reference / "records" / name).read_bytes()


def test_failing_encode_leaves_no_file(corpus, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    encode = pipeline.record_to_json

    def encode_or_fail(record):
        if record.object_id == "obj_001":
            raise Boom("encode")
        return encode(record)

    monkeypatch.setattr(pipeline, "record_to_json", encode_or_fail)
    with pytest.raises(Boom):
        run_corpus(corpus, PipelineConfig(seed=42), mock=True, out_dir=out_dir)
    assert record_files(out_dir) == ["obj_000.json"]


def test_failing_rename_leaves_no_partial_record_or_temp_file(corpus, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    rename = os.replace

    def rename_or_fail(src, dst):
        if str(dst).endswith("obj_001.json"):
            raise OSError(28, "No space left on device")
        return rename(src, dst)

    monkeypatch.setattr(os, "replace", rename_or_fail)
    with pytest.raises(OSError):
        run_corpus(corpus, PipelineConfig(seed=42), mock=True, out_dir=out_dir)
    assert record_files(out_dir) == ["obj_000.json"]


def test_runs_are_byte_identical_at_one_and_two_workers(corpus, tmp_path):
    outs = []
    for i, workers in enumerate((1, 1, 2)):
        out_dir = tmp_path / f"out{i}"
        summary = run_corpus(corpus, PipelineConfig(seed=42, workers=workers), mock=True,
                             out_dir=out_dir)
        assert summary["objects"] == len(record_files(out_dir)) == 4
        outs.append((read_records(out_dir), (out_dir / "flagged.jsonl").read_bytes()))
    assert outs[0] == outs[1] == outs[2]
    assert [json.loads(line)["object_id"] for line in outs[0][1].splitlines()] == ["obj_003"]
