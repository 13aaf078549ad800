"""Record files: schema 2 layout, trace replay, ids and crash safety."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

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
# (seed 42, 30 rounds), as a JSON list of [object_id, view, rows]; the
# replay equalled the engine's in-memory trace while it kept one, and was
# re-pinned when every cosine became one product summed the same way on
# every CPU
REPLAYED_TRACES_SHA256 = {
    "ucb1": "9844e5eb6c013b68db114be19e23fa0045447202f13d80de548f4ab34b618f92",
    "epsilon_greedy": "93b5c33f6a7ed9f9f49e269b725901b4cee8e5aa7e6c44a1852edf2359845b14",
    "thompson": "4edce72073b82bdce0b5745c7141372f9cde83d2d8bcf98c0cb85433eefa1c7c",
}


# sha256 of every record file of the module's 4-object corpus (seed 42,
# default rounds), per strategy
RECORD_FILES_SHA256 = {
    "ucb1": {
        "obj_000.json": "8bb363802ee6527f3b2c74e34ef279930fa2ea1839edf6cc156c882e6cceb352",
        "obj_001.json": "7e3007d4832adbfea06a2a3dfb97e7a634bf45d162ddb32c95fd30e657b95d81",
        "obj_002.json": "18d3f03743d777d227d9823f85b2f0c6a0d36d06391813696f600c6eae0af2a5",
        "obj_003.json": "fd9361b69aec91d76a75a3ff7b5f5c2d6186a139b35768c21bbe521bba22dcc2",
    },
    "epsilon_greedy": {
        "obj_000.json": "aa8987bba11ff10adcdb8d56ec8b8ed252c8f50187dbb4dbcae9841e47561dce",
        "obj_001.json": "8eee08d500896d16c1d42c860602b9db4aad4553dd44b7e51af08748072a0e2b",
        "obj_002.json": "7417614576ade98af8b6609aa606d79311bf9e2dff5f14f43db2b3d22dc21ee3",
        "obj_003.json": "96231505cb63dd763a2afe112cbeb46f9d03c7401d8b95321407ff604945103b",
    },
    "thompson": {
        "obj_000.json": "f6b552b1e9dfc41984aa450b5c4bc3960bb3c9490913dc532fde396b3d6be772",
        "obj_001.json": "c87e730d78194a23b1d0f45d0645c190ed723f5df435cc97e9ee3fd600e7deb3",
        "obj_002.json": "b570e1fb09c5c7c022f09d56b2d0355d037cc06c2c40f8cf811ca864664d0492",
        "obj_003.json": "7f8853f4c89802c3d667843fbf7cfa23fac214cb2454f9180897b246c9752de2",
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


# what a run could take from the CPU it runs on: the kernel OpenBLAS picks
# and numpy's SIMD dispatch; {} leaves both to the machine
CPU_OVERRIDES = [
    {},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
]

RUN_AND_HASH = """
import hashlib, sys
from pathlib import Path
from viewfuse.config import PipelineConfig
from viewfuse.pipeline import run_corpus
out = Path(sys.argv[2])
run_corpus(Path(sys.argv[1]), PipelineConfig(seed=42), mock=True, out_dir=out)
h = hashlib.sha256()
for path in [*sorted((out / "records").iterdir()), out / "flagged.jsonl"]:
    h.update(path.name.encode() + b"\\n" + path.read_bytes())
print("sha256:", h.hexdigest())
"""


def test_record_bytes_do_not_depend_on_the_cpu(corpus, tmp_path):
    root = Path(__file__).resolve().parents[1]
    inherited = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    env = {k: v for k, v in os.environ.items() if k not in inherited}
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_VERBOSE="2")
    cores, digests = set(), {}
    for i, override in enumerate(CPU_OVERRIDES):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_AND_HASH, str(corpus), str(tmp_path / f"out{i}")],
            env={**env, **override}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        cores.update(line for line in proc.stderr.splitlines() if line.startswith("Core:"))
        [digests[str(override)]] = proc.stdout.splitlines()
    if len(cores) < 2:
        pytest.skip(f"OpenBLAS ran {sorted(cores) or 'no reported'} kernel under every "
                    "OPENBLAS_CORETYPE: it was built without DYNAMIC_ARCH")
    assert len(set(digests.values())) == 1, digests


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
