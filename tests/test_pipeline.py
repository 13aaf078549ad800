import base64
import gc
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viewfuse.pipeline as pipeline
from viewfuse.confidence import compute_raw_confidence
from viewfuse.config import PROVIDER_ROLES, STRATEGIES, PipelineConfig
from viewfuse.demo import build_demo_corpus
from viewfuse.errors import ConfigError, MalformedProviderResponse
from viewfuse.gating import gate
from viewfuse.model import (
    MAX_OBJECT_ID_BYTES,
    VIEW_ORDER,
    CandidateDescription,
    EmbeddingVector,
    ObjectManifest,
    PointCloud,
    Viewpoint,
    canonical_json,
)
from viewfuse.pipeline import (
    aggregate_object,
    annotate_object,
    build_providers,
    load_corpus_entries,
    record_to_doc,
    record_to_json,
    run_corpus,
    run_pipeline,
    stable_seed,
)
from viewfuse.providers import CandidateGenerator, CloudEmbedder, GenerationConfig, ImageEmbedder
from viewfuse.providers import ProviderSet
from viewfuse.providers.cache import ResponseCache
from viewfuse.providers.mock import build_mock_providers
from viewfuse.synthesis import assemble_global


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    build_demo_corpus(root, num_objects=4, seed=0, mismatched=[3])
    return root


def load_manifests(corpus_dir, cfg=None):
    manifests, failures = load_corpus_entries(corpus_dir, cfg or PipelineConfig())
    assert failures == []
    return manifests


def test_stable_seed_is_stable_and_distinct():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert stable_seed("a", 12) != stable_seed("a1", 2)


def test_single_object_record_structure(corpus):
    cfg = PipelineConfig(seed=42)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    manifest = load_manifests(corpus)[0]
    record = annotate_object(manifest, cfg, providers)

    assert record.status == "ok"
    assert list(record.views) == [view.value for view in VIEW_ORDER]
    for name, view_doc in record.views.items():
        assert view_doc["view"] == name
        candidates = view_doc["candidates"]
        assert len(candidates) == cfg.num_candidates
        canonical = [c for c in candidates if c["relevance_weight"] is not None]
        assert canonical, "every view needs at least one canonical candidate"
        assert sum(c["relevance_weight"] for c in canonical) == pytest.approx(1.0, abs=1e-9)
        for c in candidates:
            assert (c["relevance_weight"] is None) == (c["composite_score"] is None)
            assert c["is_canonical"] == (c["relevance_weight"] is not None)
        bandit = view_doc["bandit"]
        assert sum(bandit["pulls"]) == cfg.rounds
        assert bandit["selected_candidate_index"] in bandit["arm_candidate_indices"]
        chosen = candidates[bandit["selected_candidate_index"]]
        assert view_doc["selection"]["text"] == chosen["text"]
        assert view_doc["selection"]["score"] == chosen["composite_score"]
    assert record.global_annotation is not None
    assert record.gating is not None


def test_records_are_deterministic(corpus):
    cfg = PipelineConfig(seed=42)
    manifests = load_manifests(corpus)
    a = run_pipeline(manifests, cfg, build_providers(cfg, True, corpus)[0])
    b = run_pipeline(manifests, cfg, build_providers(cfg, True, corpus)[0])
    assert [record_to_json(r) for r in a] == [record_to_json(r) for r in b]


def test_seed_changes_records(corpus):
    manifests = load_manifests(corpus)
    cfg_a, cfg_b = PipelineConfig(seed=1), PipelineConfig(seed=2)
    a = run_pipeline(manifests, cfg_a, build_providers(cfg_a, True, corpus)[0])
    b = run_pipeline(manifests, cfg_b, build_providers(cfg_b, True, corpus)[0])
    assert [record_to_json(r) for r in a] != [record_to_json(r) for r in b]


def test_worker_count_does_not_change_output(corpus):
    manifests = load_manifests(corpus)
    cfg1 = PipelineConfig(seed=42, workers=1)
    cfg4 = PipelineConfig(seed=42, workers=4)
    a = run_pipeline(manifests, cfg1, build_providers(cfg1, True, corpus)[0])
    b = run_pipeline(manifests, cfg4, build_providers(cfg4, True, corpus)[0])
    assert [record_to_json(r) for r in a] == [record_to_json(r) for r in b]


def test_caching_is_transparent(corpus, tmp_path):
    manifests = load_manifests(corpus)
    plain_cfg = PipelineConfig(seed=42)
    cached_cfg = PipelineConfig(seed=42, cache_dir=str(tmp_path / "cache"))
    plain = run_pipeline(manifests, plain_cfg, build_providers(plain_cfg, True, corpus)[0])
    cached = run_pipeline(manifests, cached_cfg, build_providers(cached_cfg, True, corpus)[0])
    assert [record_to_json(r) for r in plain] == [record_to_json(r) for r in cached]


def test_warm_cache_performs_zero_provider_calls(corpus, tmp_path):
    cfg = PipelineConfig(seed=42, cache_dir=str(tmp_path / "cache"))
    manifests = load_manifests(corpus)
    providers, backing, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    run_pipeline(manifests, cfg, providers)
    assert backing.generator.calls > 0

    providers2, backing2, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    run_pipeline(manifests, cfg, providers2)
    assert backing2.generator.calls == 0
    assert backing2.text_embedder.calls == 0
    assert backing2.image_embedder.calls == 0
    assert backing2.cloud_embedder.calls == 0


class WaveCounter:
    """Forwards every provider method and logs (method, batch size)."""

    def __init__(self, inner, log):
        self.inner = inner
        self.model_id = inner.model_id
        self.log = log

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def forward(*args):
            first = args[0]
            self.log.append((name, len(first) if isinstance(first, list) else 1))
            return method(*args)

        return forward


def test_object_makes_one_call_wave_per_role(corpus):
    cfg = PipelineConfig(seed=42)
    [manifest] = [m for m in load_manifests(corpus) if m.object_id == "obj_000"]
    mocks = build_mock_providers(seed=cfg.seed)
    log = []
    counted = ProviderSet(*(WaveCounter(getattr(mocks, f.name), log) for f in fields(ProviderSet)))
    expected = annotate_object(manifest, cfg, mocks)
    assert record_to_json(annotate_object(manifest, cfg, counted)) == record_to_json(expected)
    n = len(VIEW_ORDER)
    assert log == [
        ("generate_views", n),
        ("embed_images", n),
        ("embed_texts", n * cfg.num_candidates),
        ("embed_text", 1),
        ("embed_cloud", 1),
    ]


def test_bandit_calls_go_through_the_pipeline_namespace(corpus, monkeypatch):
    # the benchmark's tracer times the bandit by wrapping these names on
    # viewfuse.pipeline; a loop that bypassed them would read as zero time
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    names = (
        "compute_reward", "ucb1_select", "update_mean", "epsilon_greedy_select",
        "thompson_select", "thompson_update",
    )
    for name in names:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    manifest = load_manifests(corpus)[0]
    for strategy in STRATEGIES:
        cfg = PipelineConfig(seed=42, strategy=strategy)
        assert annotate_object(manifest, cfg, build_mock_providers(seed=42)).status == "ok"
    assert sorted(calls) == sorted(names)


def test_mock_and_warm_cache_runs_start_no_thread(corpus, tmp_path, monkeypatch):
    cfg = PipelineConfig(seed=42, cache_dir=str(tmp_path / "cache"))
    manifests = load_manifests(corpus)
    run_pipeline(manifests, cfg, build_providers(cfg, mock=True, corpus_dir=corpus)[0])

    def no_thread(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for c in (cfg, PipelineConfig(seed=42)):
        records = run_pipeline(manifests, c, build_providers(c, mock=True, corpus_dir=corpus)[0])
        assert all(r.status == "ok" for r in records)


def test_record_is_replayable_from_its_own_doc(corpus):
    cfg = PipelineConfig(seed=42)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    manifest = load_manifests(corpus)[0]
    doc = record_to_doc(annotate_object(manifest, cfg, providers))

    selections = {
        s["view"]: {"text": s["text"], "score": s["score"]} for s in doc["global"]["per_view"]
    }
    assert assemble_global(selections, doc["global"]["w_fb"]) == doc["global"]

    g = doc["gating"]
    assert g["passed"] == (g["similarity"] >= g["threshold"])


def test_record_doc_excludes_wall_clock(corpus):
    cfg = PipelineConfig(seed=42)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    record = annotate_object(load_manifests(corpus)[0], cfg, providers)
    # the record object holds no clock either; the run summary has the phase times
    assert [f.name for f in fields(record)] == [
        "object_id", "status", "error", "metadata", "views", "global_annotation", "gating",
    ]
    assert "timing" not in record_to_json(record)
    assert "seconds" not in record_to_json(record)


def mock_replies(manifest, cfg, providers):
    """The generate, image and text waves' replies for one object."""
    image_refs = [manifest.view_images[view] for view in VIEW_ORDER]
    gen_cfg = GenerationConfig(temperature=cfg.temperature, num_candidates=cfg.num_candidates)
    candidates = providers.generator.generate_views(list(zip(VIEW_ORDER, image_refs)), gen_cfg)
    image_embs = providers.image_embedder.embed_images(image_refs)
    text_embs = providers.text_embedder.embed_texts([c.text for cs in candidates for c in cs])
    return candidates, image_embs, text_embs


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_aggregate_object_is_annotate_object_without_the_gate(corpus, monkeypatch, strategy):
    cfg = PipelineConfig(seed=42, strategy=strategy)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    for manifest in load_manifests(corpus):
        annotated = annotate_object(manifest, cfg, providers)
        replies = mock_replies(manifest, cfg, providers)

        def forbidden(*args, **kwargs):
            raise AssertionError("aggregate_object read a clock or opened a file")

        with monkeypatch.context() as m:
            for name in ("perf_counter", "monotonic", "time"):
                m.setattr(time, name, forbidden)
            m.setattr("builtins.open", forbidden)
            aggregated = aggregate_object(manifest, cfg, *replies)

        assert aggregated.gating is None
        assert aggregated == replace(annotated, gating=None)


coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vector = st.lists(coord, min_size=3, max_size=3).filter(lambda v: sum(x * x for x in v) > 1e-6)
logprobs = st.lists(st.floats(min_value=-6.0, max_value=0.0, allow_nan=False), min_size=1, max_size=4)
texts = st.sampled_from(["a red mug", "a blue mug", "a wooden chair", "a lamp. It is tall."])
# one view: its image embedding and 1-5 candidates of (text, logprobs, text embedding)
view_replies = st.tuples(vector, st.lists(st.tuples(texts, logprobs, vector), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(
    views=st.lists(view_replies, min_size=6, max_size=6),
    strategy=st.sampled_from(STRATEGIES),
    rounds=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_aggregate_object_invariants(views, strategy, rounds, seed):
    manifest = ObjectManifest(
        object_id="obj_h",
        view_images={view: f"{view.value}.png" for view in VIEW_ORDER},
        point_cloud=PointCloud([[0.0, 0.0, 0.0]]),
    )
    candidates = [
        [
            CandidateDescription(
                text=text, token_logprobs=tuple(lps), raw_confidence=compute_raw_confidence(lps)
            )
            for text, lps, _ in view_candidates
        ]
        for _, view_candidates in views
    ]
    image_embs = [EmbeddingVector(image) for image, _ in views]
    text_embs = [EmbeddingVector(emb) for _, cs in views for _, _, emb in cs]
    cfg = PipelineConfig(seed=seed, strategy=strategy, rounds=rounds)

    record = aggregate_object(manifest, cfg, candidates, image_embs, text_embs)
    again = aggregate_object(manifest, cfg, candidates, image_embs, text_embs)

    for view_doc in record.views.values():
        bandit = view_doc["bandit"]
        assert sum(bandit["pulls"]) == rounds
        assert bandit["selected_candidate_index"] in bandit["arm_candidate_indices"]
        weights = [c["relevance_weight"] for c in view_doc["candidates"] if c["is_canonical"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert canonical_json(record.views) == canonical_json(again.views)
    assert record == again


def test_corrupt_manifest_becomes_failure_entry(tmp_path):
    build_demo_corpus(tmp_path, num_objects=3, seed=1)
    (tmp_path / "obj_zz_broken.json").write_text("{not json at all")
    cfg = PipelineConfig(seed=0)
    manifests, failures = load_corpus_entries(tmp_path, cfg)
    assert len(manifests) == 3
    assert len(failures) == 1
    assert failures[0].object_id == "@obj_zz_broken"
    assert failures[0].status == "failed"
    assert "ParseError" in failures[0].error

    doc = record_to_doc(failures[0])
    assert doc["status"] == "failed"
    assert doc["views"] is None


def test_path_escaping_object_id_becomes_failure_keyed_by_stem(tmp_path):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=2, seed=0)
    doc = json.loads((corpus_dir / "obj_000.json").read_text())
    doc["object_id"] = "../escape"
    (corpus_dir / "obj_zz_evil.json").write_text(json.dumps(doc))

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert not (out_dir / "escape.json").exists()
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "flagged.jsonl", "records", "run_summary.json",
    ]
    assert sorted(p.name for p in (out_dir / "records").iterdir()) == [
        "@obj_zz_evil.json", "obj_000.json", "obj_001.json",
    ]
    assert (summary["ok"], summary["failed"]) == (2, 1)
    failed = json.loads((out_dir / "records" / "@obj_zz_evil.json").read_text())
    assert failed["status"] == "failed"
    assert failed["error"].startswith("ParseError: object_id '../escape'")


def test_malformed_json_cloud_becomes_failure_entry(tmp_path):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=2, seed=0)
    # in a subdirectory, so the corpus scan does not take it for a manifest
    (corpus_dir / "bad").mkdir()
    (corpus_dir / "bad" / "cloud.json").write_text("[[1, 2, 3], [1, 2]]")
    doc = json.loads((corpus_dir / "obj_000.json").read_text())
    doc["object_id"] = "obj_zz_bad_cloud"
    doc["point_cloud"] = "bad/cloud.json"
    (corpus_dir / "obj_zz_bad_cloud.json").write_text(json.dumps(doc))

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["ok"], summary["failed"]) == (2, 1)
    failed = json.loads((out_dir / "records" / "@obj_zz_bad_cloud.json").read_text())
    assert failed["status"] == "failed"
    assert failed["error"] == "ParseError: JSON point cloud row 1 is not three numbers"


@pytest.mark.parametrize(
    "cloud, error",
    [
        ("[[1, 2, 3], [1, 2, 1" + "0" * 400 + "]]", "ParseError: JSON point cloud row 1 is not three numbers"),
        ("[[1" + "0" * 5000 + ", 2, 3]]", "ParseError: point cloud holds a number that cannot be read"),
    ],
    ids=["beyond-float", "too-long-to-read"],
)
def test_json_cloud_integer_no_float_holds_becomes_failure_entry(tmp_path, cloud, error):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=2, seed=0)
    (corpus_dir / "clouds" / "obj_000.json").write_text(cloud)

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["ok"], summary["failed"]) == (1, 1)
    failed = json.loads((out_dir / "records" / "@obj_000.json").read_text())
    assert failed["error"].startswith(error)


def _delete_ply_cloud(corpus_dir):
    (corpus_dir / "clouds" / "obj_001.ply").unlink()


def _replace_ply_cloud_with_directory(corpus_dir):
    _delete_ply_cloud(corpus_dir)
    (corpus_dir / "clouds" / "obj_001.ply").mkdir()


def _put_non_utf8_byte_in_manifest(corpus_dir):
    path = corpus_dir / "obj_001.json"
    path.write_bytes(path.read_bytes().replace(b'"concept"', b'"conc\xffept"'))


def _put_non_utf8_byte_in_json_cloud(corpus_dir):
    path = corpus_dir / "clouds" / "obj_002.json"
    path.write_bytes(b"\xfe" + path.read_bytes())


def _add_directory_named_like_a_manifest(corpus_dir):
    (corpus_dir / "obj_001.json").unlink()
    (corpus_dir / "obj_001.json").mkdir()


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _nest_obj_001_metadata_deep(corpus_dir):
    path = corpus_dir / "obj_001.json"
    path.write_text(path.read_text().replace('"metadata": {', f'"metadata": {{"deep": {DEEP_JSON}, '))


def _nest_json_cloud_deep(corpus_dir):
    (corpus_dir / "clouds" / "obj_002.json").write_text(DEEP_JSON)


@pytest.mark.parametrize(
    "damage, failed_key, error",
    [
        (_delete_ply_cloud, "@obj_001",
         "ParseError: cannot read point cloud obj_001.ply: No such file or directory"),
        (_replace_ply_cloud_with_directory, "@obj_001",
         "ParseError: cannot read point cloud obj_001.ply: Is a directory"),
        (_put_non_utf8_byte_in_manifest, "@obj_001",
         "ParseError: manifest is not UTF-8: invalid start byte"),
        (_put_non_utf8_byte_in_json_cloud, "@obj_002",
         "ParseError: point cloud is not UTF-8: invalid start byte"),
        (_add_directory_named_like_a_manifest, "@obj_001",
         "ParseError: cannot read manifest: Is a directory"),
        (_nest_obj_001_metadata_deep, "@obj_001", "ParseError: manifest is nested too deeply"),
        (_nest_json_cloud_deep, "@obj_002", "ParseError: point cloud is nested too deeply"),
    ],
    ids=["missing-cloud", "cloud-is-directory", "non-utf8-manifest", "non-utf8-cloud",
         "manifest-is-directory", "deep-manifest", "deep-json-cloud"],
)
def test_unreadable_input_becomes_failure_record(tmp_path, damage, failed_key, error):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=3, seed=0)
    damage(corpus_dir)

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["objects"], summary["ok"], summary["failed"]) == (3, 2, 1)
    keys = {"obj_000", "obj_001", "obj_002"} - {failed_key[1:]} | {failed_key}
    assert sorted(p.name for p in (out_dir / "records").iterdir()) == sorted(f"{k}.json" for k in keys)
    failed = json.loads((out_dir / "records" / f"{failed_key}.json").read_text())
    assert (failed["status"], failed["error"]) == ("failed", error)


def _set_id_of_obj_001(object_id):
    def damage(corpus_dir):
        path = corpus_dir / "obj_001.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["object_id"] = object_id
        # json.dumps escapes a lone surrogate as \ud800
        path.write_text(json.dumps(doc), encoding="utf-8")
    return damage


def _give_obj_001_a_non_utf8_name(corpus_dir):
    (corpus_dir / "obj_001.json").rename(corpus_dir / os.fsdecode(b"obj_\xff.json"))


def _give_obj_001_a_non_utf8_name_and_break_it(corpus_dir):
    _give_obj_001_a_non_utf8_name(corpus_dir)
    (corpus_dir / os.fsdecode(b"obj_\xff.json")).write_text("[]")


def _give_obj_001_a_non_utf8_name_and_the_id_of_obj_000(corpus_dir):
    _set_id_of_obj_001("obj_000")(corpus_dir)
    _give_obj_001_a_non_utf8_name(corpus_dir)


# Each of these aborted the run with OSError or UnicodeEncodeError
# before it wrote flagged.jsonl or run_summary.json.
@pytest.mark.parametrize(
    "damage, keys, error",
    [
        (_set_id_of_obj_001("x" * 300), ["@obj_001", "obj_000", "obj_002"],
         f"ParseError: object_id is 300 bytes long, over {MAX_OBJECT_ID_BYTES}"),
        (_set_id_of_obj_001("bad\ud800id"), ["@obj_001", "obj_000", "obj_002"],
         "ParseError: object_id 'bad\\ud800id' cannot be encoded as UTF-8"),
        (_set_id_of_obj_001("x" * MAX_OBJECT_ID_BYTES),
         ["obj_000", "obj_002", "x" * MAX_OBJECT_ID_BYTES], None),
        (_give_obj_001_a_non_utf8_name, ["obj_000", "obj_001", "obj_002"], None),
        (_give_obj_001_a_non_utf8_name_and_break_it, ["@obj_\\xff", "obj_000", "obj_002"],
         "ParseError: manifest root must be a JSON object"),
        (_give_obj_001_a_non_utf8_name_and_the_id_of_obj_000, ["@obj_000", "@obj_\\xff", "obj_002"],
         "DuplicateObjectId: object_id 'obj_000' is claimed by 2 manifests: "
         "obj_000.json, obj_\\xff.json"),
    ],
    ids=["long-id", "surrogate-id", "longest-id", "non-utf8-name", "non-utf8-name-failed",
         "non-utf8-name-duplicate"],
)
def test_id_or_name_that_cannot_name_a_record_fails_only_its_object(tmp_path, damage, keys, error):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=3, seed=0)
    damage(corpus_dir)

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    failed_keys = [k for k in keys if k.startswith("@")]
    assert (summary["objects"], summary["failed"]) == (3, len(failed_keys))
    assert sorted(p.name for p in (out_dir / "records").iterdir()) == [f"{k}.json" for k in keys]
    assert (out_dir / "flagged.jsonl").exists()
    if error is not None:
        failed = json.loads((out_dir / "records" / f"{keys[0]}.json").read_text(encoding="utf-8"))
        assert (failed["status"], failed["error"]) == ("failed", error)


def _edit_obj_001(edit):
    def damage(corpus_dir):
        path = corpus_dir / "obj_001.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        # json.dumps escapes a lone surrogate as \ud800
        path.write_text(json.dumps(doc), encoding="utf-8")
    return damage


# Each of these aborted the run with UnicodeEncodeError when the record
# was written, before flagged.jsonl or run_summary.json.
@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["metadata"].update(note="x\ud800"), "metadata"),
        (lambda doc: doc["metadata"].update({"n\udcffte": "x"}), "metadata"),
        (lambda doc: doc["views"].update(top="top\ud800.png"), "views"),
        (lambda doc: doc.update(point_cloud=doc["point_cloud"] + "\udfff"), "point_cloud"),
    ],
    ids=["metadata-value", "metadata-key", "view-ref", "point-cloud"],
)
def test_lone_surrogate_in_a_manifest_fails_only_its_object(tmp_path, edit, field):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=3, seed=0)
    _edit_obj_001(edit)(corpus_dir)

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["objects"], summary["ok"], summary["failed"]) == (3, 2, 1)
    names = sorted(p.name for p in (out_dir / "records").iterdir())
    assert names == ["@obj_001.json", "obj_000.json", "obj_002.json"]
    failed = json.loads((out_dir / "records" / "@obj_001.json").read_text(encoding="utf-8"))
    assert failed["error"] == f"ParseError: {field} holds a string that cannot be encoded as UTF-8"


# json.loads reads these; each was copied into the record as a bare
# NaN or Infinity, which is not JSON.
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_in_manifest_metadata_fails_only_its_object(tmp_path, value):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=3, seed=0)
    _edit_obj_001(lambda doc: doc["metadata"].update(stats={"big": [1, value]}))(corpus_dir)

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["objects"], summary["ok"], summary["failed"]) == (3, 2, 1)
    names = sorted(p.name for p in (out_dir / "records").iterdir())
    assert names == ["@obj_001.json", "obj_000.json", "obj_002.json"]

    def reject(constant):
        raise AssertionError(f"record holds {constant}")

    for path in (out_dir / "records").iterdir():
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    failed = json.loads((out_dir / "records" / "@obj_001.json").read_text(encoding="utf-8"))
    assert failed["error"] == "ParseError: metadata holds NaN or Infinity, which JSON cannot hold"


class FailingImageEmbedder:
    """Embeds images with `inner`, except that one object's views fail."""

    def __init__(self, inner, object_id):
        self.inner = inner
        self.object_id = object_id
        self.model_id = inner.model_id

    def embed_images(self, image_refs):
        if any(f"__{self.object_id}__" in ref for ref in image_refs):
            raise MalformedProviderResponse("embedding reply has no data")
        return self.inner.embed_images(image_refs)


@pytest.mark.parametrize("workers", [1, 2])
def test_provider_error_partway_through_an_object_fails_only_that_object(tmp_path, monkeypatch, workers):
    corpus_dir = tmp_path / "corpus"
    build_demo_corpus(corpus_dir, num_objects=4, seed=0)
    cfg = PipelineConfig(seed=42, workers=workers)
    clean = run_corpus(corpus_dir, cfg, mock=True, out_dir=tmp_path / "clean")
    generated = []

    def failing_providers(seed, truth):
        providers = build_mock_providers(seed=seed, truth=truth)
        generate_views = providers.generator.generate_views

        def spy(items, gen_cfg):
            generated.extend(ref for _, ref in items)
            return generate_views(items, gen_cfg)

        providers.generator.generate_views = spy
        return replace(providers, image_embedder=FailingImageEmbedder(providers.image_embedder, "obj_001"))

    monkeypatch.setattr(pipeline, "build_mock_providers", failing_providers)
    summary = run_corpus(corpus_dir, cfg, mock=True, out_dir=tmp_path / "failing")

    assert (clean["failed"], summary["objects"], summary["ok"], summary["failed"]) == (0, 4, 3, 1)
    # the object failed after its generation wave, in the image wave
    assert sum("__obj_001__" in ref for ref in generated) == len(VIEW_ORDER)
    clean_dir, failing_dir = tmp_path / "clean" / "records", tmp_path / "failing" / "records"
    names = sorted(p.name for p in clean_dir.iterdir())
    assert sorted(p.name for p in failing_dir.iterdir()) == names
    for name in names:
        if name != "obj_001.json":
            assert (failing_dir / name).read_bytes() == (clean_dir / name).read_bytes()
    failed = json.loads((failing_dir / "obj_001.json").read_bytes())
    assert failed == {
        "schema_version": pipeline.RECORD_SCHEMA_VERSION,
        "object_id": "obj_001",
        "status": "failed",
        "error": "MalformedProviderResponse: embedding reply has no data",
        "metadata": json.loads((clean_dir / "obj_001.json").read_bytes())["metadata"],
        "views": None,
        "global": None,
        "gating": None,
    }


def _records(out_dir):
    return {path.name: path.read_bytes() for path in (out_dir / "records").iterdir()}


def assert_only_obj_001_failed(clean_dir, out_dir, error):
    """Each record in `out_dir` is byte-identical to `clean_dir`'s but
    obj_001's, which failed with an error that starts with `error`."""
    clean, records = _records(clean_dir), _records(out_dir)
    assert records.keys() == clean.keys()
    failed = json.loads(records.pop("obj_001.json"))
    assert (failed["status"], failed["error"][: len(error)]) == ("failed", error)
    del clean["obj_001.json"]
    assert records == clean


# an edit of the embedding of obj_001's top view (None: the reply or entry
# becomes JSON nested too deeply), and the error of a fresh reply so edited
REPLY_FAULTS = {
    "mixed-dims": (
        lambda values: values[:-1],
        "DimensionMismatch: embeddings compared with each other have dims [255, 256]",
    ),
    "zero": (lambda values: [0.0] * len(values), "ZeroNormVector: "),
    # not zero, but the squared norm a cosine divides by underflows to 0.0
    "underflow": (lambda values: [1e-200] * len(values), "ZeroNormVector: "),
    # finite, but the squared norm overflows, and inf / inf is NaN
    "overflow": (lambda values: [1e200] * len(values), "ParseError: "),
    "deep": (None, "MalformedProviderResponse: "),
}


@pytest.mark.parametrize("fault", REPLY_FAULTS)
def test_a_faulty_embedding_reply_over_http_fails_only_its_object(corpus, tmp_path, fault):
    edit, error = REPLY_FAULTS[fault]

    def damage(body, data):
        if set(body) != {"image"} or "__obj_001__top" not in body["image"]:
            return data
        if edit is None:
            return DEEP_JSON.encode()
        doc = json.loads(data)
        doc["data"][0]["embedding"] = edit(doc["data"][0]["embedding"])
        return json.dumps(doc).encode()

    truth = json.loads((corpus / "mock_truth.json").read_text())
    server = MockModelServer(build_mock_providers(seed=42, truth=truth), damage)
    try:
        cfg = PipelineConfig(seed=42, workers=2, providers=server.provider_configs())
        run_corpus(corpus, replace(cfg, providers={}), mock=True, out_dir=tmp_path / "clean")
        summary = run_corpus(corpus, cfg, mock=False, out_dir=tmp_path / "http")
    finally:
        server.shutdown()
        server.server_close()
    assert (summary["ok"], summary["failed"]) == (3, 1)
    assert_only_obj_001_failed(tmp_path / "clean", tmp_path / "http", error)


def _rerun_with_an_edited_embedding_entry(corpus, tmp_path, caplog, fault, entry_doc):
    """Warm a cache, write `entry_doc` of the edited vector over obj_001's top-view
    image entry (the deep fault writes unparseable JSON), and rerun."""
    edit, error = REPLY_FAULTS[fault]
    cfg = PipelineConfig(seed=42, cache_dir=str(tmp_path / "cache"))
    run_corpus(corpus, cfg, mock=True, out_dir=tmp_path / "clean")
    [ref] = [m.view_images[Viewpoint.TOP] for m in load_manifests(corpus) if m.object_id == "obj_001"]
    entry = ResponseCache(tmp_path / "cache").path("embed_image", "mock:image-embedder", {"image_ref": ref})
    values = np.frombuffer(base64.b64decode(json.loads(entry.read_text())["f64"]), dtype="<f8").tolist()
    entry.write_text(DEEP_JSON if edit is None else json.dumps(entry_doc(edit(values))))

    with caplog.at_level(logging.WARNING, logger="viewfuse.providers.cache"):
        summary = run_corpus(corpus, cfg, mock=True, out_dir=tmp_path / "warm")
    if fault == "mixed-dims":  # a vector, but not one obj_001's others can be compared with
        assert (summary["failed"], summary["cache"]["misses"]) == (1, 0)
        assert_only_obj_001_failed(tmp_path / "clean", tmp_path / "warm", error)
    else:  # no vector at all: embedded afresh
        assert (summary["failed"], summary["cache"]["misses"]) == (0, 1)
        assert _records(tmp_path / "warm") == _records(tmp_path / "clean")
        [warning] = [r.getMessage() for r in caplog.records if "as a miss" in r.getMessage()]
        assert entry.name in warning


@pytest.mark.parametrize("fault", REPLY_FAULTS)
def test_an_edited_embedding_cache_entry_fails_its_object_or_is_a_logged_miss(corpus, tmp_path, caplog, fault):
    # a format-1 entry, the floats as JSON numbers
    _rerun_with_an_edited_embedding_entry(corpus, tmp_path, caplog, fault, lambda values: {"values": values})


@pytest.mark.parametrize("fault", REPLY_FAULTS)
def test_an_edited_f64_cache_entry_fails_its_object_or_is_a_logged_miss(corpus, tmp_path, caplog, fault):
    _rerun_with_an_edited_embedding_entry(
        corpus,
        tmp_path,
        caplog,
        fault,
        lambda values: {"f64": base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")},
    )


class ShortImageBatch(ImageEmbedder):
    """Embeds images with `inner`, but drops the last embedding of obj_001's batch."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id

    def embed_images(self, image_refs):
        vectors = self.inner.embed_images(image_refs)
        return vectors[:-1] if any("__obj_001__" in ref for ref in image_refs) else vectors


class WiderCloud(CloudEmbedder):
    """Embeds clouds with `inner`, `cloud` with one more dimension."""

    def __init__(self, inner, cloud):
        self.inner = inner
        self.cloud = cloud
        self.model_id = inner.model_id

    def embed_cloud(self, cloud):
        vector = self.inner.embed_cloud(cloud)
        return EmbeddingVector([*vector.values, 0.5]) if cloud == self.cloud else vector


class EmptyTopView(CandidateGenerator):
    """Generates with `inner`, but gives obj_001's top view no candidates."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id

    def generate_views(self, items, cfg):
        lists = self.inner.generate_views(items, cfg)
        return [
            [] if view is Viewpoint.TOP and "__obj_001__" in ref else cands
            for (view, ref), cands in zip(items, lists)
        ]


@pytest.mark.parametrize("fault", ["short-image-batch", "empty-view", "wider-cloud"])
def test_a_library_provider_fault_fails_only_its_object(corpus, fault):
    cfg = PipelineConfig(seed=42)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    manifests = load_manifests(corpus)
    if fault == "short-image-batch":
        faulty = replace(providers, image_embedder=ShortImageBatch(providers.image_embedder))
        error = "LengthMismatch: (candidate lists, image embeddings, text embeddings) are (6, 5, 30)"
    elif fault == "empty-view":
        faulty = replace(providers, generator=EmptyTopView(providers.generator))
        error = "LengthMismatch: the generator returned no candidates for view top"
    else:
        cloud = next(m.point_cloud for m in manifests if m.object_id == "obj_001")
        faulty = replace(providers, cloud_embedder=WiderCloud(providers.cloud_embedder, cloud))
        error = "DimensionMismatch: embeddings compared with each other have dims [256, 257]"

    clean = {r.object_id: record_to_json(r) for r in run_pipeline(manifests, cfg, providers)}
    records = {r.object_id: r for r in run_pipeline(manifests, cfg, faulty)}
    failed = records.pop("obj_001")
    assert (failed.status, failed.error[: len(error)]) == ("failed", error)
    del clean["obj_001"]
    assert {object_id: record_to_json(r) for object_id, r in records.items()} == clean


def test_over_long_failure_keys_are_cut_and_told_apart(tmp_path):
    # 245- and 250-byte names whose stems share their first 240 bytes,
    # and a 245-byte name of two-byte characters
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=2, seed=0)
    stems = ["y" * 240, "y" * 245, "\u00e9" * 120]
    for stem in stems:
        (corpus_dir / f"{stem}.json").write_text("[]")

    summary = run_corpus(corpus_dir, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert (summary["objects"], summary["ok"], summary["failed"]) == (5, 2, 3)
    keys = sorted(p.name[: -len(".json")] for p in (out_dir / "records").iterdir())
    expected = sorted(
        ["obj_000", "obj_001"]
        + [("@" + stem).encode("utf-8")[: MAX_OBJECT_ID_BYTES - 17].decode("utf-8", "ignore")
           + "~" + hashlib.sha256(stem.encode("utf-8")).hexdigest()[:16] for stem in stems]
    )
    assert keys == expected
    assert all(len(k.encode("utf-8")) <= MAX_OBJECT_ID_BYTES for k in keys)
    assert len(set(keys)) == 5
    for key in keys[:3]:
        failed = json.loads((out_dir / "records" / f"{key}.json").read_text(encoding="utf-8"))
        assert (failed["object_id"], failed["error"]) == (
            key, "ParseError: manifest root must be a JSON object"
        )


def test_run_corpus_writes_all_outputs(tmp_path):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus_dir, num_objects=4, seed=0, mismatched=[1])
    (corpus_dir / "obj_zz_bad.json").write_text("[]")

    cfg = PipelineConfig(seed=42)
    summary = run_corpus(corpus_dir, cfg, mock=True, out_dir=out_dir)

    assert summary["objects"] == 5
    assert summary["ok"] == 4
    assert summary["failed"] == 1
    assert summary["flagged"] == 1

    records = sorted(p.name for p in (out_dir / "records").iterdir())
    assert records == [
        "@obj_zz_bad.json", "obj_000.json", "obj_001.json", "obj_002.json", "obj_003.json",
    ]
    flagged = [json.loads(l) for l in (out_dir / "flagged.jsonl").read_text().splitlines()]
    assert [f["object_id"] for f in flagged] == ["obj_001"]
    assert all(f["similarity"] < cfg.gate_threshold for f in flagged)

    stored_summary = json.loads((out_dir / "run_summary.json").read_text())
    assert stored_summary["objects"] == 5
    assert stored_summary["config"]["seed"] == 42
    assert stored_summary["phase_seconds"] == summary["phase_seconds"]
    assert set(stored_summary["phase_seconds"]) == {"ingest", "annotate", "write"}
    assert all(seconds >= 0 for seconds in stored_summary["phase_seconds"].values())


class MockModelServer(ThreadingHTTPServer):
    """The four provider roles of `build_mock_providers` on a loopback
    port, one role per path, answered in the shapes HttpProviderConfig's
    default response paths read."""

    daemon_threads = True

    def __init__(self, providers, damage=lambda body, data: data):
        super().__init__(("127.0.0.1", 0), MockModelHandler)
        self.providers = providers
        # (request document, reply bytes) -> the reply bytes sent
        self.damage = damage
        threading.Thread(target=self.serve_forever, daemon=True).start()

    def provider_configs(self) -> dict:
        templates = {
            "generate": {"image": "{image}", "view": "{prompt}", "n": "{n}", "temperature": "{temperature}"},
            "embed_text": {"text": "{text}"},
            "embed_image": {"image": "{image}"},
            "embed_cloud": {"cloud": "{cloud}"},
        }
        url = f"http://127.0.0.1:{self.server_address[1]}"
        return {
            role: {"endpoint": f"{url}/{role}", "request_template": tpl, "prompt": "{view}"}
            for role, tpl in templates.items()
        }


class MockModelHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        p = self.server.providers
        role = self.path.strip("/")
        if role == "generate":
            gen_cfg = GenerationConfig(temperature=body["temperature"], num_candidates=body["n"])
            cands = p.generator.generate_candidates(Viewpoint(body["view"]), body["image"], gen_cfg)
            doc = {"choices": [{"text": c.text, "logprobs": list(c.token_logprobs)} for c in cands]}
        else:
            if role == "embed_text":
                vec = p.text_embedder.embed_text(body["text"])
            elif role == "embed_image":
                vec = p.image_embedder.embed_image(body["image"])
            else:
                vec = p.cloud_embedder.embed_cloud(PointCloud(body["cloud"]))
            doc = {"data": [{"embedding": list(vec.values)}]}
        data = self.server.damage(body, json.dumps(doc).encode("utf-8"))
        # one write: a body sent after its headers waits on Nagle's algorithm
        head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        self.wfile.write(head.encode("ascii") + data)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def http_cfg(corpus):
    """Seed 42 and two workers, with providers on a MockModelServer for `corpus`."""
    truth = json.loads((corpus / "mock_truth.json").read_text())
    server = MockModelServer(build_mock_providers(seed=42, truth=truth))
    yield PipelineConfig(seed=42, workers=2, providers=server.provider_configs())
    server.shutdown()
    server.server_close()


def unclosed_sockets(run):
    """The ResourceWarnings raised by `run()` and the collection after it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


def test_run_corpus_over_http_matches_mock_and_closes_its_connections(corpus, tmp_path, http_cfg):
    run_corpus(corpus, replace(http_cfg, providers={}), mock=True, out_dir=tmp_path / "mock")
    assert unclosed_sockets(
        lambda: run_corpus(corpus, http_cfg, mock=False, out_dir=tmp_path / "http")
    ) == []

    def outputs(out_dir):
        paths = [*(out_dir / "records").iterdir(), out_dir / "flagged.jsonl"]
        return {path.name: path.read_bytes() for path in paths}

    assert len(outputs(tmp_path / "mock")) == 5
    assert outputs(tmp_path / "http") == outputs(tmp_path / "mock")


def test_run_corpus_over_http_closes_its_connections_when_aborted(corpus, tmp_path, http_cfg, monkeypatch):
    def write_one_then_fail(record, records_dir):
        if any(records_dir.iterdir()):
            raise OSError("disk full")
        pipeline.write_atomic(records_dir / "first.json", "{}")

    monkeypatch.setattr(pipeline, "write_record", write_one_then_fail)

    def aborted_run():
        with pytest.raises(OSError, match="disk full"):
            run_corpus(corpus, http_cfg, mock=False, out_dir=tmp_path)

    assert unclosed_sockets(aborted_run) == []


@pytest.mark.parametrize("workers", [1, 4])
def test_phase_seconds_split_the_run_without_overlap(corpus, tmp_path, workers):
    cfg = PipelineConfig(seed=42, workers=workers)
    start = time.perf_counter()
    summary = run_corpus(corpus, cfg, mock=True, out_dir=tmp_path / "out")
    wall = time.perf_counter() - start
    phases = summary["phase_seconds"]
    assert set(phases) == {"ingest", "annotate", "write"}
    assert all(seconds >= 0 for seconds in phases.values())
    assert sum(phases.values()) <= wall


def test_gating_decision_in_record_matches_direct_gate(corpus):
    cfg = PipelineConfig(seed=42)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    manifest = load_manifests(corpus)[0]
    record = annotate_object(manifest, cfg, providers)
    text_emb = providers.text_embedder.embed_text(record.global_annotation["full_text"])
    cloud_emb = providers.cloud_embedder.embed_cloud(manifest.point_cloud)
    direct = gate(text_emb, cloud_emb, cfg.gate_threshold)
    assert record.gating == direct


def test_matched_objects_pass_mismatched_fail(tmp_path):
    corpus_dir = tmp_path / "corpus"
    build_demo_corpus(corpus_dir, num_objects=6, seed=3, mismatched=[0, 4])
    cfg = PipelineConfig(seed=7)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus_dir)
    records = run_pipeline(load_manifests(corpus_dir, cfg), cfg, providers)
    by_id = {r.object_id: r for r in records}
    assert not by_id["obj_000"].gating["passed"]
    assert not by_id["obj_004"].gating["passed"]
    for oid in ("obj_001", "obj_002", "obj_003", "obj_005"):
        assert by_id[oid].gating["passed"], oid


def test_build_providers_http_mode_requires_all_roles():
    cfg = PipelineConfig(
        providers={"generate": {"endpoint": "https://x", "request_template": {}}}
    )
    with pytest.raises(ConfigError) as err:
        build_providers(cfg, mock=False)
    assert "embed_text" in str(err.value)


def test_build_providers_http_mode_rejects_bad_keys():
    roles = {
        role: {"endpoint": "https://x", "request_template": {}, "bogus_field": 1}
        for role in ("generate", "embed_text", "embed_image", "embed_cloud")
    }
    with pytest.raises(ConfigError):
        build_providers(PipelineConfig(providers=roles), mock=False)


def test_build_providers_http_mode_rejects_a_role_that_is_not_an_object():
    roles = {role: {"endpoint": "https://x", "request_template": {}} for role in PROVIDER_ROLES}
    roles["embed_image"] = "https://x"
    with pytest.raises(ConfigError, match="^provider 'embed_image': provider config must be an object$"):
        build_providers(PipelineConfig(providers=roles), mock=False)


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", "30"),
        ("timeout", True),
        ("timeout", 10**400),
        ("model", 5),
        ("logprobs_path", 3),
        ("extra_headers", []),
        ("request_template", "{text}"),
        # the right type but a value every request would fail on
        ("timeout", -1),
        ("timeout", 0),
        ("timeout", math.nan),
        ("timeout", math.inf),
        ("request_template", {"input": "{text}", "scale": math.nan}),
        ("extra_headers", {"X-Tag": ["a"]}),
        ("extra_headers", {"X-Tag": "a\r\nX-Injected: 1"}),
        ("extra_headers", {"X-Tag": "\u20ac"}),
        ("extra_headers", {"X:Tag": "a"}),
        ("auth_header", "X Bad:"),
        ("auth_scheme", "Bearer\n"),
        ("api_key_env", "VIEWFUSE_TEST_KEY"),
        ("api_key_env", "\ud800"),
        ("texts_path", "choices[x].text"),
        ("logprobs_path", "choices[].logprobs."),
        ("embedding_path", "data[-1].embedding"),
    ],
    ids=[
        "timeout-string", "timeout-bool", "timeout-beyond-float", "model-number",
        "logprobs_path-number", "extra_headers-list", "request_template-string",
        "timeout-negative", "timeout-zero", "timeout-nan", "timeout-infinite",
        "request_template-nan", "extra_headers-value-list", "extra_headers-value-newline",
        "extra_headers-value-not-latin1", "extra_headers-name-colon",
        "auth_header-not-a-name", "auth_scheme-newline", "api_key_env-key-newline",
        "api_key_env-surrogate", "texts_path-bad-index", "logprobs_path-empty-segment",
        "embedding_path-negative-index",
    ],
)
def test_build_providers_http_mode_checks_each_field_type(monkeypatch, field, value):
    monkeypatch.setenv("VIEWFUSE_TEST_KEY", "sk-secret\ndef")
    roles = {
        role: {"endpoint": "https://x", "request_template": {}, field: value}
        for role in PROVIDER_ROLES
    }
    with pytest.raises(ConfigError, match=f"^provider 'generate': {field} must be ") as err:
        build_providers(PipelineConfig(providers=roles), mock=False)
    assert "sk-secret" not in str(err.value)
    if field == "api_key_env":  # the variable is named instead
        assert repr(value) in str(err.value)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("workers", 0, "workers must be >= 1"),
        ("workers", "2", "workers must be an integer"),
        ("eps", math.nan, "eps must be in"),
        ("providers", [], "providers must be an object"),
    ],
    ids=["workers-zero", "workers-string", "eps-nan", "providers-list"],
)
def test_run_corpus_checks_a_config_changed_after_construction(corpus, tmp_path, field, value, message):
    cfg = PipelineConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=message):
        run_corpus(corpus, cfg, mock=True, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_missing_corpus_dir_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_corpus_entries(tmp_path / "nope", PipelineConfig())


def test_record_files_have_sorted_keys_and_trailing_newline(corpus):
    cfg = PipelineConfig(seed=42)
    providers, _, _ = build_providers(cfg, mock=True, corpus_dir=corpus)
    text = record_to_json(annotate_object(load_manifests(corpus)[0], cfg, providers))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


# The single-item method of each role on the active providers, as
# bench/spec.json lists them; bench/tracing.py wraps these by name.
BENCH_ROLES = {
    "generate": ["generator", "generate_candidates"],
    "embed_text": ["text_embedder", "embed_text"],
    "embed_image": ["image_embedder", "embed_image"],
    "embed_cloud": ["cloud_embedder", "embed_cloud"],
}


def test_bench_roles_match_the_spec():
    spec = json.loads((Path(__file__).parents[1] / "bench" / "spec.json").read_text(encoding="utf-8"))
    assert spec["roles"] == BENCH_ROLES
    assert tuple(BENCH_ROLES) == PROVIDER_ROLES


@pytest.mark.parametrize("mock", [True, False], ids=["mock", "http"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_every_provider_mode_exposes_the_bench_roles(tmp_path, mock, cached):
    # an HTTP provider set is only built here, so nothing listens on the endpoint
    http = {role: {"endpoint": "http://127.0.0.1:9/", "request_template": {}} for role in PROVIDER_ROLES}
    cfg = PipelineConfig(
        providers={} if mock else http, cache_dir=str(tmp_path / "cache") if cached else None
    )
    active, _backing, cache = build_providers(cfg, mock=mock)
    assert (cache is not None) == cached
    for slot, method in BENCH_ROLES.values():
        assert callable(getattr(getattr(active, slot), method)), (slot, method)


def test_bench_imports_and_patches_resolve():
    # bench/ imports names from src and patches others by name; a rename
    # that breaks it fails here, in about a second
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import corpora, stub, tracing; tracing.install()"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
