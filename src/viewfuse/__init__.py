"""Batch engine turning per-view captions of 3D objects into one
gated global annotation.

Per view it scores caption candidates by token-level confidence,
collapses near-duplicates by density clustering over cosine distance,
weights survivors by image grounding, and picks one via a multi-armed
bandit. Front and back views anchor a cross-view synthesis whose
text/point-cloud similarity must clear a derived threshold or the
object is flagged for review.
"""

from . import errors
from .bandit import (
    BanditState,
    ThompsonState,
    compute_reward,
    epsilon_greedy_select,
    thompson_select,
    thompson_update,
    ucb1_select,
    update_mean,
)
from .clustering import (
    NOISE,
    cosine_similarity,
    dbscan_cluster,
    select_canonical,
)
from .confidence import compute_raw_confidence, normalize_confidence
from .config import PipelineConfig
from .cost import estimate_cost
from .demo import build_demo_corpus
from .gating import (
    TruncatedGaussianPair,
    error_rates,
    gate,
    kl_divergence,
    solve_optimal_threshold,
)
from .model import (
    VIEW_ORDER,
    CandidateDescription,
    EmbeddingVector,
    ObjectManifest,
    PointCloud,
    Viewpoint,
    ingest_manifest,
    load_point_cloud,
)
from .pipeline import (
    AnnotationRecord,
    aggregate_object,
    annotate_object,
    record_to_doc,
    replay_bandit,
    run_corpus,
    run_pipeline,
)
from .providers import GenerationConfig, ProviderSet
from .providers.mock import build_mock_providers
from .scoring import composite_score, relevance_weights
from .simulate import (
    BernoulliEnv,
    selection_experiment,
    simulate_strategies,
)
from .synthesis import (
    assemble_global,
    extract_core_sentence,
    prioritize_front_back,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationRecord",
    "BanditState",
    "BernoulliEnv",
    "CandidateDescription",
    "EmbeddingVector",
    "GenerationConfig",
    "NOISE",
    "ObjectManifest",
    "PipelineConfig",
    "PointCloud",
    "ProviderSet",
    "ThompsonState",
    "TruncatedGaussianPair",
    "VIEW_ORDER",
    "Viewpoint",
    "aggregate_object",
    "annotate_object",
    "assemble_global",
    "build_demo_corpus",
    "build_mock_providers",
    "composite_score",
    "compute_raw_confidence",
    "compute_reward",
    "cosine_similarity",
    "dbscan_cluster",
    "epsilon_greedy_select",
    "error_rates",
    "errors",
    "estimate_cost",
    "extract_core_sentence",
    "gate",
    "ingest_manifest",
    "kl_divergence",
    "load_point_cloud",
    "normalize_confidence",
    "prioritize_front_back",
    "record_to_doc",
    "relevance_weights",
    "replay_bandit",
    "run_corpus",
    "run_pipeline",
    "select_canonical",
    "selection_experiment",
    "simulate_strategies",
    "solve_optimal_threshold",
    "thompson_select",
    "thompson_update",
    "ucb1_select",
    "update_mean",
]
