"""On-disk JSON cache for provider responses.

One JSON file per logical request, laid out as
<cache_dir>/<kind>/<cache_key>.json and written on one line with sorted
keys and no whitespace; any valid JSON layout of an entry reads back the
same. Writes go through a temp file and an atomic rename, so concurrent
writers of the same key are safe.
A damaged entry, unreadable or not decodable to the cached type, is a
miss: the backing provider is invoked again and the entry rewritten.
A batch call keeps one entry per item: its hits are read one by one,
and only its misses go to the backing provider, in one batch call.
"""

import base64
import logging
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import CacheCorruption, CacheDirUnwritable, MalformedProviderResponse, ParseError
from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint
from ..model import canonical_json, parse_json, write_atomic
from . import CandidateGenerator, CloudEmbedder, GenerationConfig, ImageEmbedder, TextEmbedder
from . import ProviderRequest, ProviderSet, cloud_digest, make_request, resolve_candidates
from . import vector_from_json

logger = logging.getLogger(__name__)


class ResponseCache:
    """File-backed store keyed by ProviderRequest.cache_key."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()  # worker threads share the counters

    def _path(self, req: ProviderRequest) -> Path:
        return self.cache_dir / req.kind / f"{req.cache_key}.json"

    def load(self, req: ProviderRequest) -> dict:
        """Stored payload for the request; raises on absence or damage."""
        path = self._path(req)
        try:
            payload = parse_json(path.read_bytes(), "cache entry")
        except FileNotFoundError:
            raise
        except (OSError, ParseError) as e:
            raise CacheCorruption(f"unreadable cache entry {path}: {e}") from e
        if not isinstance(payload, dict):
            raise CacheCorruption(f"cache entry {path} is not an object")
        return payload

    def store(self, req: ProviderRequest, payload: dict) -> None:
        path = self._path(req)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, canonical_json(payload))
        except OSError as e:
            raise CacheDirUnwritable(f"cannot write cache entry {path}: {e}") from e

    def fetch(
        self, req: ProviderRequest, invoke: Callable[[], dict], decode: Callable[[dict], Any]
    ) -> Any:
        """Hit decodes the stored payload; miss invokes, stores, decodes."""
        return self.fetch_many([req], lambda _misses: [invoke()], decode)[0]

    def fetch_many(
        self,
        reqs: list[ProviderRequest],
        invoke_many: Callable[[list[int]], list[dict]],
        decode: Callable[[dict], Any],
    ) -> list:
        """Decoded payloads for `reqs`, in order.

        Hits are read here, one at a time. The misses, given as their
        positions in `reqs`, go to `invoke_many` in one call, which
        returns their payloads in the same order; each is stored under
        its own key. A key repeated within the batch is fetched once
        and its repeats count as hits, as they would one call at a time.
        """
        results: list = [None] * len(reqs)
        misses: list[int] = []
        missing_keys: set[str] = set()
        for i, req in enumerate(reqs):
            if req.cache_key in missing_keys:
                continue
            try:
                results[i] = decode(self.load(req))
                continue
            except FileNotFoundError:
                pass
            except CacheCorruption as e:
                logger.warning("treating corrupted cache entry as a miss: %s", e)
            except (KeyError, TypeError, ValueError, MalformedProviderResponse) as e:
                logger.warning("treating undecodable cache entry %s as a miss: %r", self._path(req), e)
            missing_keys.add(req.cache_key)
            misses.append(i)
        with self._lock:
            self.hits += len(reqs) - len(misses)
            self.misses += len(misses)
        if not misses:
            return results
        fetched = {}
        for i, payload in zip(misses, invoke_many(misses), strict=True):
            self.store(reqs[i], payload)
            fetched[reqs[i].cache_key] = payload
        return [
            decode(fetched[req.cache_key]) if req.cache_key in fetched else value
            for req, value in zip(reqs, results)
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
        reqs = [
            make_request(
                "generate_candidates",
                {
                    "view": view.value,
                    "image_ref": image_ref,
                    "temperature": cfg.temperature,
                    "n": cfg.num_candidates,
                    "phase": "integration",  # in every key written, so kept for the hits
                },
                self.model_id,
            )
            for view, image_ref in items
        ]
        return self.cache.fetch_many(
            reqs,
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
        reqs = [make_request(kind, {field: item}, self.model_id) for item in items]
        return self.cache.fetch_many(
            reqs,
            lambda misses: [_vector_to_doc(v) for v in embed_many([items[i] for i in misses])],
            _vector_from_doc,
        )

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        return self._fetch_many("embed_text", "text", texts, self.inner.embed_texts)

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        return self._fetch_many("embed_image", "image_ref", image_refs, self.inner.embed_images)

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        # key by coordinate digest: stable, and keeps keys small
        req = make_request("embed_cloud", {"digest": cloud_digest(cloud)}, self.model_id)
        return self.cache.fetch(
            req, lambda: _vector_to_doc(self.inner.embed_cloud(cloud)), _vector_from_doc
        )


def wrap_with_cache(providers: ProviderSet, cache: ResponseCache) -> ProviderSet:
    """Same provider set with every call routed through the cache."""
    return ProviderSet(
        generator=CachedCandidateGenerator(providers.generator, cache),
        text_embedder=CachedEmbedder(providers.text_embedder, cache),
        image_embedder=CachedEmbedder(providers.image_embedder, cache),
        cloud_embedder=CachedEmbedder(providers.cloud_embedder, cache),
    )
