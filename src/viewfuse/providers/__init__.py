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
from ..errors import MalformedProviderResponse, MissingLogprobs
from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint
from ..model import encodes_as_utf8, is_json_number_list, is_json_vector


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.7
    num_candidates: int = 5


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


def resolve_candidates(texts, logprob_lists, n: int) -> list[CandidateDescription]:
    """The candidates of one generation reply, from its parsed JSON; the
    one constructor of CandidateDescription, for fresh replies and cache
    hits alike.

    MalformedProviderResponse unless `texts` is a list of `n` non-empty
    strings that UTF-8 can encode and `logprob_lists` a list aligned
    with it of None or lists of JSON numbers; MissingLogprobs for an
    empty one. A None entry means the provider could not supply that
    candidate's logprobs: it gets the median raw confidence of its
    siblings that do have them, or 1.0 when none does, so it stays
    scoreable without invented token probabilities.
    """
    if not (isinstance(texts, list) and all(isinstance(t, str) and t for t in texts)):
        raise MalformedProviderResponse("candidate texts are not a list of non-empty strings")
    if not encodes_as_utf8(texts):
        raise MalformedProviderResponse("a candidate text cannot be encoded as UTF-8")
    if len(texts) != n:
        raise MalformedProviderResponse(f"expected {n} candidates, got {len(texts)}")
    if not isinstance(logprob_lists, list) or len(logprob_lists) != n:
        raise MalformedProviderResponse("logprobs list does not align with candidates")
    if not all(lp is None or is_json_number_list(lp) for lp in logprob_lists):
        raise MalformedProviderResponse("logprobs entries are not lists of numbers")
    # from a list, so each tuple is made at its final size; grown from
    # map(), the tuples kept 0.25 MB more resident on a warm-cache run
    token_logprobs = [None if lp is None else tuple([*map(float, lp)]) for lp in logprob_lists]
    known: dict[int, float] = {}
    for i, logprobs in enumerate(token_logprobs):
        if logprobs == ():
            raise MissingLogprobs(f"candidate {i} has an empty logprob list")
        if logprobs is not None:
            known[i] = compute_raw_confidence(logprobs)
    fallback = statistics.median(known.values()) if known else 1.0
    return [
        CandidateDescription(
            text=text,
            token_logprobs=logprobs or (),
            raw_confidence=known.get(i, fallback),
        )
        for i, (text, logprobs) in enumerate(zip(texts, token_logprobs))
    ]


def vector_from_json(raw) -> EmbeddingVector:
    """The embedding of one embed reply or cache hit, from its parsed JSON;
    MalformedProviderResponse unless it is a non-empty list of JSON numbers."""
    if not is_json_vector(raw):
        raise MalformedProviderResponse("embedding is not a non-empty list of JSON numbers")
    return EmbeddingVector(raw)
