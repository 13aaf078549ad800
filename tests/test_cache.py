import base64
import dataclasses
import hashlib
import json
import logging
import os
import re
import stat
import sys
import threading

import numpy as np
import pytest

from viewfuse.errors import CacheDirUnwritable
from viewfuse.model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint
from viewfuse.providers import GenerationConfig, TextEmbedder
from viewfuse.providers.cache import CachedEmbedder, ResponseCache, wrap_with_cache
from viewfuse.providers.mock import MockCandidateGenerator, build_mock_providers

CFG = GenerationConfig(temperature=0.7, num_candidates=5)


def entry(cache, key=None, kind="generate"):
    """The entry file of one call of `kind` to "model-a" with request content `key`."""
    return cache.path(kind, "model-a", key or {"x": 1})


def fetch(cache, invoke, key=None, kind="generate"):
    """One call through `fetch_many`; its misses go to `invoke()`."""
    return cache.fetch_many(kind, "model-a", [key or {"x": 1}], lambda _misses: [invoke()], dict)[0]


class FixedTextEmbedder(TextEmbedder):
    """Embeds every text as one given vector."""

    model_id = "fixed"

    def __init__(self, values):
        self.vector = EmbeddingVector(np.array(values))

    def embed_texts(self, texts):
        return [self.vector for _ in texts]


def test_fetch_miss_then_hit(tmp_path):
    cache = ResponseCache(tmp_path)
    calls = []

    def invoke():
        calls.append(1)
        return {"value": 42}

    assert fetch(cache, invoke) == {"value": 42}
    assert fetch(cache, invoke) == {"value": 42}
    assert len(calls) == 1
    assert cache.stats() == {"hits": 1, "misses": 1}


def test_cache_file_layout_and_readability(tmp_path):
    cache = ResponseCache(tmp_path)
    fetch(cache, lambda: {"v": [1.0, 2.0]}, kind="embed_text")
    [path] = (tmp_path / "embed_text").iterdir()
    assert path == entry(cache, kind="embed_text")
    assert re.fullmatch(r"[0-9a-f]{32}\.json", path.name)
    assert json.loads(path.read_text()) == {"v": [1.0, 2.0]}


def test_entries_are_written_compact(tmp_path):
    cache = ResponseCache(tmp_path)
    path = entry(cache, kind="embed_text")
    payload = {"values": [0.1, -2.5e-07, 1e16], "model": "mé"}
    cache.store(path, payload)
    text = path.read_text(encoding="utf-8")
    assert text == '{"model":"mé","values":[0.1,-2.5e-07,1e+16]}'
    assert list((tmp_path / "embed_text").iterdir()) == [path]


def test_entries_get_the_mode_the_umask_gives(tmp_path):
    # a cache_dir shared between accounts must be readable by all of them
    old = os.umask(0o022)
    try:
        cache = ResponseCache(tmp_path)
        path = entry(cache)
        cache.store(path, {"v": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_writers_of_one_key_do_not_collide(tmp_path):
    cache = ResponseCache(tmp_path)
    path = entry(cache)
    errors = []

    def work(i):
        try:
            for _ in range(50):
                cache.store(path, {"writer": i})
        except Exception as e:  # a thread's exception would not reach the test
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert cache.load(path)["writer"] in range(8)
    assert list((tmp_path / "generate").iterdir()) == [path]


def test_cache_keys_are_pinned(tmp_path):
    # every existing cache entry stays a hit only while these keys hold
    providers = wrap_with_cache(build_mock_providers(seed=9), ResponseCache(tmp_path))
    providers.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG)
    providers.text_embedder.embed_text("A mug.")
    providers.image_embedder.embed_image("mug__o__front.png")
    providers.cloud_embedder.embed_cloud(PointCloud([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.json")) == [
        "embed_cloud/26b32553760d576b99694024d987cfb3.json",
        "embed_image/ba054bd66202ad3884994cb8a0df1e8e.json",
        "embed_text/ea31baa47760a54657e8f1ad5ae7773e.json",
        "generate_candidates/dd06a35a6f522fbf1933380610045432.json",
    ]


def test_embedding_entry_bytes_are_pinned(tmp_path):
    # an entry written by another version reads back only while this format holds
    CachedEmbedder(FixedTextEmbedder([-0.0, 5e-324, 0.1, 1 / 3]), ResponseCache(tmp_path)).embed_text("t")
    [path] = (tmp_path / "embed_text").iterdir()
    assert path.read_bytes().startswith(b'{"f64":"')
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cf3077e4f728327091e446c1b7481dd459de53322a76d63115c2435000105bb1"
    )


def test_path_key_sensitivity(tmp_path):
    cache = ResponseCache(tmp_path)
    p1 = cache.path("generate", "m1", {"temperature": 0.7, "n": 5})
    p2 = cache.path("generate", "m1", {"temperature": 0.8, "n": 5})
    p3 = cache.path("generate", "m2", {"temperature": 0.7, "n": 5})
    p4 = cache.path("embed", "m1", {"temperature": 0.7, "n": 5})
    assert len({p.name for p in (p1, p2, p3, p4)}) == 4


def test_path_ignores_dict_ordering(tmp_path):
    cache = ResponseCache(tmp_path)
    assert cache.path("generate", "m", {"a": 1, "b": 2}) == cache.path("generate", "m", {"b": 2, "a": 1})


def test_indented_entry_from_an_older_cache_is_still_a_hit(tmp_path):
    providers = build_mock_providers(seed=9)
    writer = ResponseCache(tmp_path)
    expected = wrap_with_cache(providers, writer).text_embedder.embed_text("A mug.")
    [path] = (tmp_path / "embed_text").iterdir()
    compact = path.read_text(encoding="utf-8")
    path.write_text(json.dumps(json.loads(compact), sort_keys=True, indent=2), encoding="utf-8")
    assert "\n  " in path.read_text(encoding="utf-8")

    fresh = build_mock_providers(seed=9)
    reader = ResponseCache(tmp_path)
    assert wrap_with_cache(fresh, reader).text_embedder.embed_text("A mug.") == expected
    assert fresh.text_embedder.calls == 0
    assert reader.stats() == {"hits": 1, "misses": 0}


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
def test_format_1_embedding_entry_is_still_a_hit(tmp_path, indent):
    # entries written before the float64 format held the floats as JSON numbers
    expected = build_mock_providers(seed=9).text_embedder.embed_text("A mug.")
    reader = ResponseCache(tmp_path)
    path = reader.path("embed_text", "mock:text-embedder", {"text": "A mug."})
    path.parent.mkdir()
    path.write_text(json.dumps({"values": expected.values.tolist()}, indent=indent), encoding="utf-8")

    backing = build_mock_providers(seed=9)
    assert wrap_with_cache(backing, reader).text_embedder.embed_text("A mug.") == expected
    assert backing.text_embedder.calls == 0
    assert reader.stats() == {"hits": 1, "misses": 0}


@pytest.mark.parametrize("damage", [b"{broken json", b"\xff{"], ids=["broken-json", "non-utf8"])
def test_corrupted_entry_repaired(tmp_path, damage):
    cache = ResponseCache(tmp_path)
    fetch(cache, lambda: {"value": 1})
    path = entry(cache)
    path.write_bytes(damage)
    calls = []

    def invoke():
        calls.append(1)
        return {"value": 2}

    assert fetch(cache, invoke) == {"value": 2}
    assert calls == [1]
    assert json.loads(path.read_text()) == {"value": 2}  # entry rewritten
    assert cache.misses == 2  # corruption counted as a miss


def test_load_raises_on_corruption(tmp_path):
    cache = ResponseCache(tmp_path)
    path = entry(cache)
    cache.store(path, {"ok": True})
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="not an object"):
        cache.load(path)


def test_store_into_unwritable_dir_raises(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a plain file where a directory must go")
    cache = ResponseCache(blocker)
    with pytest.raises(CacheDirUnwritable):
        cache.store(entry(cache), {"v": 1})


def test_distinct_payloads_get_distinct_files(tmp_path):
    cache = ResponseCache(tmp_path)
    fetch(cache, lambda: {"v": 1}, {"temperature": 0.7})
    fetch(cache, lambda: {"v": 2}, {"temperature": 0.8})
    files = list((tmp_path / "generate").iterdir())
    assert len(files) == 2


def test_cached_generator_roundtrips_candidates(tmp_path):
    providers = build_mock_providers(seed=9)
    cached = wrap_with_cache(providers, ResponseCache(tmp_path))
    first = cached.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG)
    second = cached.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG)
    direct = providers.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG)
    assert first == second == direct
    # backing saw the warm-up call and the direct call, not the replay
    assert providers.generator.calls == 2


def test_generate_entry_holds_only_texts_and_logprobs(tmp_path):
    cached = wrap_with_cache(build_mock_providers(seed=9), ResponseCache(tmp_path))
    cached.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG)
    [path] = (tmp_path / "generate_candidates").iterdir()
    candidates = json.loads(path.read_text(encoding="utf-8"))["candidates"]
    assert len(candidates) == CFG.num_candidates
    assert all(set(c) == {"text", "token_logprobs"} for c in candidates)


def test_logprob_less_candidates_roundtrip_with_the_sibling_median(tmp_path):
    def providers():
        generator = MockCandidateGenerator(seed=2, missing_logprob_rate=0.4)
        return dataclasses.replace(build_mock_providers(seed=2), generator=generator)

    direct = providers().generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG)
    assert {c.token_logprobs == () for c in direct} == {True, False}
    writer = wrap_with_cache(providers(), ResponseCache(tmp_path))
    assert writer.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG) == direct
    backing = providers()
    reader = ResponseCache(tmp_path)
    hit = wrap_with_cache(backing, reader).generator.generate_candidates(
        Viewpoint.FRONT, "mug__o__front.png", CFG
    )
    assert hit == direct
    assert backing.generator.calls == 0
    assert reader.stats() == {"hits": 1, "misses": 0}


def test_generate_entry_in_the_older_format_is_still_a_hit(tmp_path):
    # entries once also stored each candidate's view, index and raw
    # confidence; the confidences are worked out again from the logprobs
    cfg = GenerationConfig(temperature=0.7, num_candidates=2)

    def call(providers):
        return providers.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", cfg)

    call(wrap_with_cache(build_mock_providers(seed=9), ResponseCache(tmp_path)))
    [path] = (tmp_path / "generate_candidates").iterdir()
    path.write_text(
        '{"candidates":['
        '{"index":0,"raw_confidence":1.0,"text":"A red mug.","token_logprobs":[-0.5,-1.5],'
        '"view":"front"},'
        '{"index":1,"raw_confidence":1.0,"text":"A blue mug.","token_logprobs":[],"view":"front"}'
        "]}",
        encoding="utf-8",
    )
    backing = build_mock_providers(seed=9)
    reader = ResponseCache(tmp_path)
    assert call(wrap_with_cache(backing, reader)) == [
        CandidateDescription(text="A red mug.", token_logprobs=(-0.5, -1.5), raw_confidence=1.0),
        CandidateDescription(text="A blue mug.", token_logprobs=(), raw_confidence=1.0),
    ]
    assert backing.generator.calls == 0
    assert reader.stats() == {"hits": 1, "misses": 0}


def test_cached_embedders_roundtrip_exact_floats(tmp_path):
    providers = build_mock_providers(seed=9)
    cached = wrap_with_cache(providers, ResponseCache(tmp_path))
    text = "A mug with dents."
    cloud = PointCloud(np.random.default_rng(3).normal(size=(40, 3)))
    assert cached.text_embedder.embed_text(text) == cached.text_embedder.embed_text(text)
    assert cached.text_embedder.embed_text(text) == providers.text_embedder.embed_text(text)
    assert cached.image_embedder.embed_image("mug__o__front.png") == (
        providers.image_embedder.embed_image("mug__o__front.png")
    )
    assert cached.cloud_embedder.embed_cloud(cloud) == providers.cloud_embedder.embed_cloud(cloud)


def test_cached_embedding_keeps_every_bit(tmp_path):
    # a negative zero, the least subnormal, and fractions with no short decimal form
    backing = FixedTextEmbedder([-0.0, 5e-324, 0.1, 1 / 3])
    writer = CachedEmbedder(backing, ResponseCache(tmp_path))
    assert writer.embed_text("t").values.tobytes() == backing.vector.values.tobytes()
    reader = ResponseCache(tmp_path)
    hit = CachedEmbedder(FixedTextEmbedder([1.0]), reader).embed_text("t")
    assert reader.stats() == {"hits": 1, "misses": 0}
    assert hit.values.tobytes() == backing.vector.values.tobytes()


def test_warm_cache_needs_no_backing_calls(tmp_path):
    warm = build_mock_providers(seed=5)
    cache = ResponseCache(tmp_path)
    wrapped = wrap_with_cache(warm, cache)
    wrapped.generator.generate_candidates(Viewpoint.BACK, "vase__o__back.png", CFG)
    wrapped.text_embedder.embed_text("A vase.")

    fresh = build_mock_providers(seed=5)
    rewrapped = wrap_with_cache(fresh, ResponseCache(tmp_path))
    rewrapped.generator.generate_candidates(Viewpoint.BACK, "vase__o__back.png", CFG)
    rewrapped.text_embedder.embed_text("A vase.")
    assert fresh.generator.calls == 0
    assert fresh.text_embedder.calls == 0


CLOUD = PointCloud(np.random.default_rng(3).normal(size=(40, 3)))

# request kind -> (backing provider slot, call through a provider set)
CALLS = {
    "generate_candidates": (
        "generator",
        lambda p: p.generator.generate_candidates(Viewpoint.FRONT, "mug__o__front.png", CFG),
    ),
    "embed_text": ("text_embedder", lambda p: p.text_embedder.embed_text("A mug with dents.")),
    "embed_image": ("image_embedder", lambda p: p.image_embedder.embed_image("mug__o__front.png")),
    "embed_cloud": ("cloud_embedder", lambda p: p.cloud_embedder.embed_cloud(CLOUD)),
}


def format1(edit):
    """`edit` applied to the stored embedding written out as a format-1 `{"values": [...]}` entry."""
    return lambda doc: edit({"values": np.frombuffer(base64.b64decode(doc["f64"]), dtype="<f8").tolist()})


def raw(edit):
    """The stored embedding's bytes, edited, as an `f64` entry."""
    return lambda doc: {"f64": base64.b64encode(edit(base64.b64decode(doc["f64"]))).decode("ascii")}


# (request kind, stored payload -> damaged payload)
DAMAGES = {
    "renamed-key": ("embed_text", format1(lambda doc: {"vals": doc["values"]})),
    "string-values": ("embed_text", lambda doc: {"values": "ab"}),
    "nested-values": ("embed_text", format1(lambda doc: {"values": [doc["values"]]})),
    "null-component": ("embed_image", format1(lambda doc: {"values": doc["values"][:-1] + [None]})),
    "empty-values": ("embed_cloud", lambda doc: {"values": []}),
    # a vector, but one without a direction to compare
    "zero-values": ("embed_image", format1(lambda doc: {"values": [0.0] * len(doc["values"])})),
    "underflow-values": ("embed_image", format1(lambda doc: {"values": [1e-200] * len(doc["values"])})),
    "renamed-list": ("generate_candidates", lambda doc: {"choices": doc["candidates"]}),
    "string-list": ("generate_candidates", lambda doc: {"candidates": "ab"}),
    "missing-fields": ("generate_candidates", lambda doc: {"candidates": [{"view": "front"}]}),
    "number-text": (
        "generate_candidates",
        lambda doc: {"candidates": [{**c, "text": 5} for c in doc["candidates"]]},
    ),
    "empty-text": (
        "generate_candidates",
        lambda doc: {"candidates": [{**c, "text": ""} for c in doc["candidates"]]},
    ),
    # a lone surrogate, which no record or request key can encode
    "surrogate-text": (
        "generate_candidates",
        lambda doc: {"candidates": [{**c, "text": "A mug \ud800."} for c in doc["candidates"]]},
    ),
    "short-list": ("generate_candidates", lambda doc: {"candidates": doc["candidates"][:-1]}),
    "empty-list": ("generate_candidates", lambda doc: {"candidates": []}),
    "string-component": ("embed_text", format1(lambda doc: {"values": doc["values"][:-1] + ["0.5"]})),
    "bool-component": ("embed_image", format1(lambda doc: {"values": doc["values"][:-1] + [True]})),
    # a consistent candidate but for the types: false would read as a
    # certain token, and float() would take the string
    # the cache writes [] for absent logprobs, so a null is no form it stores
    "null-logprobs": (
        "generate_candidates",
        lambda doc: {"candidates": [{**c, "token_logprobs": None} for c in doc["candidates"]]},
    ),
    "bool-logprobs": (
        "generate_candidates",
        lambda doc: {"candidates": [
            {**c, "token_logprobs": [False, False], "raw_confidence": 0.0} for c in doc["candidates"]
        ]},
    ),
    "string-logprobs": (
        "generate_candidates",
        lambda doc: {"candidates": [
            {**c, "token_logprobs": [str(lp) for lp in c["token_logprobs"]]} for c in doc["candidates"]
        ]},
    ),
    # the float64 bytes of the current format, damaged
    "f64-bad-char": ("embed_text", lambda doc: {"f64": "*" + doc["f64"][1:]}),
    "f64-ragged-bytes": ("embed_image", raw(lambda b: b[:-1])),
    "f64-empty": ("embed_cloud", lambda doc: {"f64": ""}),
    "f64-number": ("embed_text", lambda doc: {"f64": 5}),
    "f64-nan": ("embed_image", raw(lambda b: b[:-8] + np.array([np.nan], "<f8").tobytes())),
    "f64-inf": ("embed_cloud", raw(lambda b: b[:-8] + np.array([-np.inf], "<f8").tobytes())),
    "f64-zero": ("embed_text", raw(lambda b: bytes(len(b)))),
    "f64-underflow": ("embed_image", raw(lambda b: np.array([1e-200, 1e-200], "<f8").tobytes())),
    "f64-overflow": ("embed_cloud", raw(lambda b: np.array([1e200, 1e200], "<f8").tobytes())),
    # JSON integers that no float can hold
    "huge-int-component": ("embed_cloud", format1(lambda doc: {"values": doc["values"][:-1] + [10**400]})),
    "huge-int-logprobs": (
        "generate_candidates",
        lambda doc: {"candidates": [
            {**c, "token_logprobs": c["token_logprobs"][:-1] + [-(10**400)]} for c in doc["candidates"]
        ]},
    ),
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_undecodable_entry_is_a_logged_miss_and_rewritten(tmp_path, caplog, damage):
    kind, damaged = DAMAGES[damage]
    backing = build_mock_providers(seed=9)
    cache = ResponseCache(tmp_path)
    slot, call = CALLS[kind]
    expected = call(wrap_with_cache(backing, cache))
    [path] = (tmp_path / kind).iterdir()
    stored = path.read_text()
    path.write_text(json.dumps(damaged(json.loads(stored))))

    with caplog.at_level(logging.WARNING, logger="viewfuse.providers.cache"):
        assert call(wrap_with_cache(backing, cache)) == expected
    assert "undecodable cache entry" in caplog.text
    assert getattr(backing, slot).calls == 2
    assert cache.stats() == {"hits": 0, "misses": 2}
    assert path.read_text() == stored


def test_counters_stay_exact_under_thread_switching(tmp_path):
    cache = ResponseCache(tmp_path)
    keys = [{"i": i} for i in range(4)]
    for key in keys:
        cache.store(entry(cache, key), {"v": 1})
    rounds, threads = 150, 8

    def work():
        for i in range(rounds):
            fetch(cache, lambda: {"v": 1}, keys[i % 4])
            cache.fetch_many("generate", "model-a", keys, lambda misses: [{"v": 1}] * len(misses), dict)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert cache.stats() == {"hits": rounds * threads * (1 + len(keys)), "misses": 0}


class BatchSpy:
    """Forwards to a mock embedder and records each batch it is given."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id
        self.batches = []

    def embed_texts(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed_texts(texts)


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_cached_batch_sends_only_misses_in_one_call(tmp_path):
    texts = ["A mug.", "A red lamp.", "A vase.", "A chair.", "A red lamp."]
    backing = build_mock_providers(seed=9)
    one_by_one = wrap_with_cache(backing, ResponseCache(tmp_path / "single"))
    expected = [one_by_one.text_embedder.embed_text(t) for t in texts]

    cache = ResponseCache(tmp_path / "batch")
    warm = wrap_with_cache(backing, cache)
    warm.text_embedder.embed_text("A mug.")
    warm.text_embedder.embed_text("A vase.")
    spy = BatchSpy(backing.text_embedder)
    cached = CachedEmbedder(spy, cache)

    assert cached.embed_texts(texts) == expected
    # a key repeated in the batch is fetched once; the repeat is a hit
    assert spy.batches == [["A red lamp.", "A chair."]]
    assert cache.stats() == {"hits": 3, "misses": 4}
    assert _tree(tmp_path / "batch") == _tree(tmp_path / "single")

    assert cached.embed_texts(texts) == expected
    assert len(spy.batches) == 1  # all hits: no call at all


def test_cached_generate_views_equals_one_call_per_view(tmp_path):
    items = [(Viewpoint.FRONT, "mug__o__front.png"), (Viewpoint.TOP, "mug__o__top.png")]
    backing = build_mock_providers(seed=9)
    one_by_one = wrap_with_cache(backing, ResponseCache(tmp_path / "single"))
    expected = [one_by_one.generator.generate_candidates(v, r, CFG) for v, r in items]
    batched = wrap_with_cache(backing, ResponseCache(tmp_path / "batch"))
    assert batched.generator.generate_views(items, CFG) == expected
    assert batched.generator.generate_views(items, CFG) == expected
    assert _tree(tmp_path / "batch") == _tree(tmp_path / "single")
