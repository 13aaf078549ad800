"""On-disk JSON cache for provider responses.

One human-readable file per logical request, laid out as
<cache_dir>/<kind>/<cache_key>.json. Writes go through a temp file and
an atomic rename, so concurrent writers of the same key are safe.
A damaged entry, unreadable or not decodable to the cached type, is a
miss: the backing provider is invoked again and the entry rewritten.
"""

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

from ..errors import CacheCorruption, CacheDirUnwritable
from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint
from . import (
    CandidateGenerator,
    CloudEmbedder,
    GenerationConfig,
    ImageEmbedder,
    ProviderRequest,
    ProviderSet,
    TextEmbedder,
    cloud_digest,
    make_request,
)

logger = logging.getLogger(__name__)


class ResponseCache:
    """File-backed store keyed by ProviderRequest.cache_key."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    def _path(self, req: ProviderRequest) -> Path:
        return self.cache_dir / req.kind / f"{req.cache_key}.json"

    def load(self, req: ProviderRequest) -> dict:
        """Stored payload for the request; raises on absence or damage."""
        path = self._path(req)
        if not path.exists():
            raise FileNotFoundError(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as e:
            raise CacheCorruption(f"unreadable cache entry {path}: {e}") from e
        if not isinstance(payload, dict):
            raise CacheCorruption(f"cache entry {path} is not an object")
        return payload

    def store(self, req: ProviderRequest, payload: dict) -> None:
        path = self._path(req)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    json.dump(payload, f, sort_keys=True, indent=2, ensure_ascii=False)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as e:
            raise CacheDirUnwritable(f"cannot write cache entry {path}: {e}") from e

    def fetch(
        self, req: ProviderRequest, invoke: Callable[[], dict], decode: Callable[[dict], Any]
    ) -> Any:
        """Hit decodes the stored payload; miss invokes, stores, decodes."""
        try:
            value = decode(self.load(req))
            self.hits += 1
            return value
        except FileNotFoundError:
            pass
        except CacheCorruption as e:
            logger.warning("treating corrupted cache entry as a miss: %s", e)
        except (KeyError, TypeError, ValueError) as e:
            logger.warning("treating undecodable cache entry %s as a miss: %r", self._path(req), e)
        self.misses += 1
        payload = invoke()
        self.store(req, payload)
        return decode(payload)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


def _candidate_to_doc(c: CandidateDescription) -> dict:
    return {
        "view": c.view.value,
        "text": c.text,
        "token_logprobs": list(c.token_logprobs),
        "raw_confidence": c.raw_confidence,
        "index": c.index,
    }


def _candidate_from_doc(doc: dict) -> CandidateDescription:
    return CandidateDescription(
        view=Viewpoint(doc["view"]),
        text=doc["text"],
        token_logprobs=tuple(doc["token_logprobs"]),
        raw_confidence=doc["raw_confidence"],
        index=doc["index"],
    )


def _vector_to_doc(vec: EmbeddingVector) -> dict:
    return {"values": vec.values.tolist()}


def _vector_from_doc(doc: dict) -> EmbeddingVector:
    return EmbeddingVector(doc["values"])


class CachedCandidateGenerator:
    def __init__(self, inner: CandidateGenerator, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.model_id = inner.model_id

    def generate_candidates(
        self, view: Viewpoint, image_ref: str, cfg: GenerationConfig
    ) -> list[CandidateDescription]:
        req = make_request(
            "generate_candidates",
            {
                "view": view.value,
                "image_ref": image_ref,
                "temperature": cfg.temperature,
                "n": cfg.num_candidates,
                "phase": cfg.prompt_phase.value,
            },
            self.model_id,
        )
        return self.cache.fetch(
            req,
            lambda: {
                "candidates": [
                    _candidate_to_doc(c)
                    for c in self.inner.generate_candidates(view, image_ref, cfg)
                ]
            },
            lambda payload: [_candidate_from_doc(d) for d in payload["candidates"]],
        )


class CachedTextEmbedder:
    def __init__(self, inner: TextEmbedder, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.model_id = inner.model_id

    def embed_text(self, text: str) -> EmbeddingVector:
        req = make_request("embed_text", {"text": text}, self.model_id)
        return self.cache.fetch(
            req, lambda: _vector_to_doc(self.inner.embed_text(text)), _vector_from_doc
        )


class CachedImageEmbedder:
    def __init__(self, inner: ImageEmbedder, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.model_id = inner.model_id

    def embed_image(self, image_ref: str) -> EmbeddingVector:
        req = make_request("embed_image", {"image_ref": image_ref}, self.model_id)
        return self.cache.fetch(
            req, lambda: _vector_to_doc(self.inner.embed_image(image_ref)), _vector_from_doc
        )


class CachedCloudEmbedder:
    def __init__(self, inner: CloudEmbedder, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.model_id = inner.model_id

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
        text_embedder=CachedTextEmbedder(providers.text_embedder, cache),
        image_embedder=CachedImageEmbedder(providers.image_embedder, cache),
        cloud_embedder=CachedCloudEmbedder(providers.cloud_embedder, cache),
    )
