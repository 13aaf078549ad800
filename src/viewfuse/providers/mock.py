"""Deterministic stand-ins for the four external models.

The mocks share one concept space: every concept word maps to a fixed
unit anchor vector derived from a sha256 digest (never the process
hash, so results are identical across platforms and runs). Texts,
images, and point clouds that refer to the same concept embed near the
same anchor; unrelated inputs land near-orthogonal. That makes
clustering, relevance weighting, and gating behave discriminatively
without any real model.

Conventions the mocks rely on:
  - An image reference names its concept in the first ``__``-separated
    token of its basename, e.g. ``mug__obj_003__front.png``.
  - A point cloud's concept is looked up in a truth table keyed by the
    cloud's coordinate digest (see PointCloud.digest_payload); corpora
    carry it as a ``mock_truth.json`` sidecar. A digest without an
    entry embeds away from every anchor, so the object gets flagged.
"""

import math
import re
from pathlib import Path

import numpy as np

from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint, dot, stable_seed
from . import CandidateGenerator, CloudEmbedder, GenerationConfig, ImageEmbedder, TextEmbedder
from . import ProviderSet, cloud_digest, resolve_candidates

DEFAULT_DIM = 256
# spread of each mock's embeddings around its concept anchor
TEXT_NOISE = 0.3
IMAGE_NOISE = 0.1
CLOUD_NOISE = 0.3
# a generated candidate's quality is drawn uniformly from this range
QUALITY_RANGE = (0.55, 0.95)
# the share of candidates that name another concept than the image's
HALLUCINATION_RATE = 0.15

# Concept vocabulary used by the demo corpus and the default mock stack.
DEFAULT_CONCEPTS = (
    "mug", "chair", "lamp", "table", "vase", "bottle",
    "clock", "helmet", "guitar", "keyboard", "backpack", "camera",
    "kettle", "wrench", "robot", "sofa", "shoe", "drone",
    "piano", "hammer", "basket", "toaster", "globe", "bench",
)

_ADJECTIVES = (
    "red", "blue", "green", "matte", "glossy", "wooden", "metallic",
    "compact", "slender", "angular", "rounded", "weathered",
)

_DETAILS = (
    "a smooth surface", "visible seams", "a textured grip",
    "an engraved pattern", "a reinforced base", "a tapered edge",
    "subtle wear marks", "a polished finish",
)


class ConceptSpace:
    """Shared geometry for all mocks: anchors and deterministic noise."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim

    def _unit(self, key: str) -> np.ndarray:
        v = np.random.default_rng(stable_seed(key)).standard_normal(self.dim)
        return v / math.sqrt(dot(v, v))

    def anchor(self, slug: str) -> np.ndarray:
        return self._unit(f"anchor:{slug}")

    def noisy_anchor(self, slug: str, noise_key: str, scale: float) -> EmbeddingVector:
        v = self.anchor(slug) + scale * self._unit(f"noise:{noise_key}")
        return EmbeddingVector(v / math.sqrt(dot(v, v)))

    def off_anchor(self, noise_key: str) -> EmbeddingVector:
        return EmbeddingVector(self._unit(f"noise:{noise_key}"))


def concept_from_image_ref(image_ref: str) -> str:
    """First ``__``-separated token of the basename, without extension."""
    stem = Path(image_ref).name
    stem = stem.split(".", 1)[0]
    return stem.split("__", 1)[0]


class MockTextEmbedder(TextEmbedder):
    """Embeds text near the anchor of the first concept word it contains."""

    def __init__(self, space: ConceptSpace):
        self.space = space
        self.model_id = "mock:text-embedder"
        self.calls = 0
        self._patterns = {
            slug: re.compile(rf"\b{re.escape(slug)}\b") for slug in DEFAULT_CONCEPTS
        }

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        vectors = []
        for text in texts:
            self.calls += 1
            lowered = text.lower()
            for slug, pattern in self._patterns.items():
                if pattern.search(lowered):
                    vectors.append(self.space.noisy_anchor(slug, f"text:{lowered}", TEXT_NOISE))
                    break
            else:
                vectors.append(self.space.off_anchor(f"text:{lowered}"))
        return vectors


class MockImageEmbedder(ImageEmbedder):
    """Embeds an image reference near its concept's anchor."""

    def __init__(self, space: ConceptSpace):
        self.space = space
        self.model_id = "mock:image-embedder"
        self.calls = 0

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        vectors = []
        for image_ref in image_refs:
            self.calls += 1
            slug = concept_from_image_ref(image_ref)
            vectors.append(self.space.noisy_anchor(slug, f"image:{image_ref}", IMAGE_NOISE))
        return vectors


class MockCloudEmbedder(CloudEmbedder):
    """Embeds a point cloud via the digest-to-concept truth table."""

    def __init__(self, space: ConceptSpace, truth: dict[str, str] | None = None):
        self.space = space
        self.truth = dict(truth or {})
        self.model_id = "mock:cloud-embedder"
        self.calls = 0

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        self.calls += 1
        digest = cloud_digest(cloud)
        slug = self.truth.get(digest)
        if slug is None:
            return self.space.off_anchor(f"cloud:{digest}")
        return self.space.noisy_anchor(slug, f"cloud:{digest}", CLOUD_NOISE)


class MockCandidateGenerator(CandidateGenerator):
    """Synthesizes per-view candidates with controllable quality.

    Output is a pure function of (seed, view, image_ref, cfg): texts,
    token logprobs, and confidences are all drawn from a sha256-seeded
    generator, so repeated calls are byte-identical.
    """

    def __init__(self, seed: int = 0, missing_logprob_rate: float = 0.0):
        self.seed = seed
        self.missing_logprob_rate = missing_logprob_rate
        self.model_id = f"mock:generator:seed={seed}"
        self.calls = 0

    def _compose_text(
        self, rng: np.random.Generator, concept: str, view: Viewpoint
    ) -> str:
        adj = _ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))]
        detail = _DETAILS[int(rng.integers(len(_DETAILS)))]
        head = f"A {adj} {concept} with {detail}."
        tail = f"The {view.value} side shows {_DETAILS[int(rng.integers(len(_DETAILS)))]}."
        return f"{head} {tail}"

    def generate_views(
        self, items: list[tuple[Viewpoint, str]], cfg: GenerationConfig
    ) -> list[list[CandidateDescription]]:
        results = []
        for view, image_ref in items:
            self.calls += 1
            concept = concept_from_image_ref(image_ref)
            key = f"gen:{self.seed}:{image_ref}:{view.value}:{cfg.temperature}:{cfg.num_candidates}"
            rng = np.random.default_rng(stable_seed(key))
            texts, logprob_lists = [], []
            for _ in range(cfg.num_candidates):
                quality = float(rng.uniform(*QUALITY_RANGE))
                subject = concept
                if float(rng.random()) < HALLUCINATION_RATE:
                    others = [c for c in DEFAULT_CONCEPTS if c != concept]
                    subject = others[int(rng.integers(len(others)))]
                    quality *= 0.6  # hallucinations read as less certain
                text = self._compose_text(rng, subject, view)
                n_tokens = int(rng.integers(8, 16))
                magnitudes = np.abs(rng.normal(0.0, 0.35, size=n_tokens))
                logprobs = [float(-(0.02 + m) * (1.2 - quality)) for m in magnitudes]
                if float(rng.random()) < self.missing_logprob_rate:
                    logprobs = None
                texts.append(text)
                logprob_lists.append(logprobs)
            results.append(resolve_candidates(texts, logprob_lists, cfg.num_candidates))
        return results


def build_mock_providers(seed: int = 0, truth: dict[str, str] | None = None):
    """One coherent mock stack sharing a concept space."""
    space = ConceptSpace()
    return ProviderSet(
        generator=MockCandidateGenerator(seed=seed),
        text_embedder=MockTextEmbedder(space),
        image_embedder=MockImageEmbedder(space),
        cloud_embedder=MockCloudEmbedder(space, truth=truth),
    )
