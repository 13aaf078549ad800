"""On-disk JSON cache for provider responses.

One JSON file per logical request, laid out as
<cache_dir>/<kind>/<32 hex digits>.json (ResponseCache.path) and written
on one line with sorted keys and no whitespace; any valid JSON layout of
an entry reads back the same. Writes go through a temp file and an
atomic rename, so concurrent writers of the same key are safe.
A damaged entry, unreadable or not decodable to the cached type, is a
logged miss: the backing provider is invoked again and the entry rewritten.
A batch call keeps one entry per item: its hits are read one by one,
and only its misses go to the backing provider, in one batch call.
"""

import base64
import hashlib
import logging
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import CacheDirUnwritable, MalformedProviderResponse
from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint
from ..model import canonical_json, parse_json, write_atomic
from . import CandidateGenerator, CloudEmbedder, GenerationConfig, ImageEmbedder, TextEmbedder
from . import ProviderSet, cloud_digest, resolve_candidates, vector_from_json

logger = logging.getLogger(__name__)


class ResponseCache:
    """File-backed store of provider responses, one entry per logical call."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()  # worker threads share the counters

    def path(self, kind: str, model_id: str, key: dict) -> Path:
        """The entry of one call of `kind` to `model_id` with request content
        `key`; identical calls map to one file, so hits survive restarts."""
        digest = hashlib.sha256(f"{kind}\n{model_id}\n{canonical_json(key)}".encode("utf-8"))
        return self.cache_dir / kind / f"{digest.hexdigest()[:32]}.json"

    def load(self, path: Path) -> dict:
        """The payload stored at `path`; FileNotFoundError when there is none,
        OSError, ParseError or ValueError when the entry is damaged."""
        payload = parse_json(path.read_bytes(), "cache entry")
        if not isinstance(payload, dict):
            raise ValueError("cache entry is not an object")
        return payload

    def store(self, path: Path, payload: dict) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, canonical_json(payload))
        except OSError as e:
            raise CacheDirUnwritable(f"cannot write cache entry {path}: {e}") from e

    def fetch_many(
        self,
        kind: str,
        model_id: str,
        keys: list[dict],
        invoke_many: Callable[[list[int]], list[dict]],
        decode: Callable[[dict], Any],
    ) -> list:
        """Decoded payloads of the calls `keys` describe, in order.

        Hits are read here, one at a time; a damaged entry is a logged
        miss. The misses, given as their positions in `keys`, go to
        `invoke_many` in one call, which returns their payloads in the
        same order; each is stored in its own entry. A key repeated
        within the batch is fetched once and its repeats count as hits,
        as they would one call at a time.
        """
        paths = [self.path(kind, model_id, key) for key in keys]
        results: list = [None] * len(keys)
        misses: list[int] = []
        missing: set[str] = set()  # by file name: a str hashes far faster than a Path
        for i, path in enumerate(paths):
            if path.name in missing:
                continue
            try:
                results[i] = decode(self.load(path))
                continue
            except FileNotFoundError:
                pass
            except (OSError, KeyError, TypeError, ValueError, MalformedProviderResponse) as e:
                logger.warning("treating undecodable cache entry %s as a miss: %r", path, e)
            missing.add(path.name)
            misses.append(i)
        with self._lock:
            self.hits += len(keys) - len(misses)
            self.misses += len(misses)
        if not misses:
            return results
        fetched = {}
        for i, payload in zip(misses, invoke_many(misses), strict=True):
            self.store(paths[i], payload)
            fetched[paths[i].name] = payload
        return [
            decode(fetched[path.name]) if path.name in fetched else value
            for path, value in zip(paths, results)
        ]

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


def _candidates_from_payload(payload: dict, n: int) -> list[CandidateDescription]:
    docs = payload["candidates"]
    logprobs = [d["token_logprobs"] for d in docs]
    if None in logprobs:  # the cache stores [] for absent logprobs, so a null is damage
        raise ValueError("a cached candidate has null logprobs")
    return resolve_candidates([d["text"] for d in docs], [None if lp == [] else lp for lp in logprobs], n)


def _vector_to_doc(vec: EmbeddingVector) -> dict:
    # the float64 bytes, not float text: exact, and a hit decodes several times faster
    return {"f64": base64.b64encode(vec.values.astype("<f8").tobytes()).decode("ascii")}


def _vector_from_doc(doc: dict) -> EmbeddingVector:
    """The vector of an embedding entry; KeyError, TypeError or ValueError,
    which fetch_many logs as a miss, when the entry holds none."""
    if "f64" not in doc:  # format 1: {"values": [...]} as JSON numbers, kept so old caches stay warm
        return vector_from_json(doc["values"])
    return EmbeddingVector(np.frombuffer(base64.b64decode(doc["f64"], validate=True), dtype="<f8"))


class _Cached:
    def __init__(self, inner, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.model_id = inner.model_id


class CachedCandidateGenerator(_Cached, CandidateGenerator):
    def generate_views(
        self, items: list[tuple[Viewpoint, str]], cfg: GenerationConfig
    ) -> list[list[CandidateDescription]]:
        return self.cache.fetch_many(
            "generate_candidates",
            self.model_id,
            [
                {
                    "view": view.value,
                    "image_ref": image_ref,
                    "temperature": cfg.temperature,
                    "n": cfg.num_candidates,
                    "phase": "integration",  # in every key written, so kept for the hits
                }
                for view, image_ref in items
            ],
            lambda misses: [
                {"candidates": [
                    {"text": c.text, "token_logprobs": list(c.token_logprobs)} for c in candidates
                ]}
                for candidates in self.inner.generate_views([items[i] for i in misses], cfg)
            ],
            lambda payload: _candidates_from_payload(payload, cfg.num_candidates),
        )


class CachedEmbedder(_Cached, TextEmbedder, ImageEmbedder, CloudEmbedder):
    """Cache in front of one embedding role; like HttpEmbedder, one class
    serves all three."""

    def _fetch_many(self, kind: str, field: str, items: list, embed_many) -> list:
        """Embeddings of `items`, each keyed as `{field: item}`; misses go to `embed_many`."""
        return self.cache.fetch_many(
            kind,
            self.model_id,
            [{field: item} for item in items],
            lambda misses: [_vector_to_doc(v) for v in embed_many([items[i] for i in misses])],
            _vector_from_doc,
        )

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        return self._fetch_many("embed_text", "text", texts, self.inner.embed_texts)

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        return self._fetch_many("embed_image", "image_ref", image_refs, self.inner.embed_images)

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        # key by coordinate digest: stable, and keeps keys small
        return self._fetch_many(
            "embed_cloud", "digest", [cloud_digest(cloud)], lambda _: [self.inner.embed_cloud(cloud)]
        )[0]


def wrap_with_cache(providers: ProviderSet, cache: ResponseCache) -> ProviderSet:
    """Same provider set with every call routed through the cache."""
    return ProviderSet(
        generator=CachedCandidateGenerator(providers.generator, cache),
        text_embedder=CachedEmbedder(providers.text_embedder, cache),
        image_embedder=CachedEmbedder(providers.image_embedder, cache),
        cloud_embedder=CachedEmbedder(providers.cloud_embedder, cache),
    )
