"""Provider contracts for the four external models.

The engine needs a candidate generator (vision-language model), a text
embedder (clustering space), an image-text embedder (relevance), and a
point-cloud embedder (gating). Each role is a base class here, with a
deterministic mock, an HTTP adapter, and an on-disk response cache.
The generator and the text and image embedders implement only their
batch method, so one object's calls of a role can go out as one wave;
a batch returns its results in input order. The one-item call of each
role is the batch of one, defined once here.
"""

import hashlib
import statistics
from dataclasses import dataclass

from ..confidence import compute_raw_confidence
from ..errors import MissingLogprobs, ParseError
from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint, canonical_json


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.7
    num_candidates: int = 5


@dataclass(frozen=True)
class ProviderRequest:
    """A logical provider call, with a stable key for the cache.

    Identical logical requests always produce identical keys, so cache
    hits survive process restarts.
    """

    kind: str  # generate_candidates | embed_text | embed_image | embed_cloud
    cache_key: str


def make_request(kind: str, payload: dict, model_id: str) -> ProviderRequest:
    digest = hashlib.sha256(
        f"{kind}\n{model_id}\n{canonical_json(payload)}".encode("utf-8")
    ).hexdigest()[:32]
    return ProviderRequest(kind=kind, cache_key=digest)


def cloud_digest(cloud: PointCloud) -> str:
    """Stable content digest of a point cloud's rounded coordinates."""
    return hashlib.sha256(cloud.digest_payload()).hexdigest()


class CandidateGenerator:
    """Vision-language model: candidate descriptions of a view image."""

    model_id: str

    def generate_views(
        self, items: list[tuple[Viewpoint, str]], cfg: GenerationConfig
    ) -> list[list[CandidateDescription]]:
        """The candidates of each (view, image_ref), in input order."""
        raise NotImplementedError

    def generate_candidates(
        self, view: Viewpoint, image_ref: str, cfg: GenerationConfig
    ) -> list[CandidateDescription]:
        return self.generate_views([(view, image_ref)], cfg)[0]


class TextEmbedder:
    """Text embedding model: the clustering and gating space."""

    model_id: str

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        """The embedding of each text, in input order."""
        raise NotImplementedError

    def embed_text(self, text: str) -> EmbeddingVector:
        return self.embed_texts([text])[0]


class ImageEmbedder:
    """Image-text embedding model: the relevance space."""

    model_id: str

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        """The embedding of each image reference, in input order."""
        raise NotImplementedError

    def embed_image(self, image_ref: str) -> EmbeddingVector:
        return self.embed_images([image_ref])[0]


class CloudEmbedder:
    """Point-cloud embedding model: the gating space."""

    model_id: str

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        raise NotImplementedError


@dataclass
class ProviderSet:
    """The four providers one pipeline run works with."""

    generator: CandidateGenerator
    text_embedder: TextEmbedder
    image_embedder: ImageEmbedder
    cloud_embedder: CloudEmbedder


def resolve_candidates(
    texts: list[str], logprob_lists: list[tuple[float, ...] | None]
) -> list[CandidateDescription]:
    """Candidates from parallel texts and token logprobs, filling in
    missing confidences; the one constructor of CandidateDescription,
    for fresh replies and cache hits alike.

    A None entry of `logprob_lists` means the provider could not supply
    that candidate's logprobs. Such a candidate gets the median raw
    confidence of its siblings that do have them, or 1.0 when no sibling
    does. The fallback keeps logprob-less candidates scoreable without
    inventing token probabilities for them. A text that is not a
    non-empty string raises ParseError.
    """
    known: dict[int, float] = {}
    for i, logprobs in enumerate(logprob_lists):
        if logprobs is not None:
            if len(logprobs) == 0:
                raise MissingLogprobs(f"candidate {i} has an empty logprob list")
            known[i] = compute_raw_confidence(list(logprobs))
    if not all(isinstance(text, str) and text for text in texts):
        raise ParseError("candidate text must be a non-empty string")
    fallback = statistics.median(known.values()) if known else 1.0
    return [
        CandidateDescription(
            text=text,
            token_logprobs=logprobs or (),
            raw_confidence=known.get(i, fallback),
        )
        for i, (text, logprobs) in enumerate(zip(texts, logprob_lists, strict=True))
    ]
